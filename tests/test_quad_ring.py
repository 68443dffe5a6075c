from __future__ import annotations

import copy
import dataclasses
import pickle
from itertools import groupby
from math import isqrt
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diotuples.quad_ring import (
    ElementRows,
    ParityError,
    QuadInt,
    RingParams,
    _class_rows,
    _half_ball_size,
    _omega_q,
    elem_key,
    elem_from_json,
    elem_to_json,
    format_elem,
    from_half,
    is_squarefree,
    make_ring,
    norm,
    parse_elem,
)
from helpers import box_elements, brute_root_table, canonical_sign, div_half, random_elem, sqrt_half

R1 = make_ring(1)
R2 = make_ring(2)
R3 = make_ring(3)


def q1(x, y=0):
    return QuadInt(R1, x, y)


def q3(x, y=0):
    return QuadInt(R3, x, y)


class TestMakeRing:
    def test_modes(self):
        # omega = (1 + sqrt(-D))/2 exactly when D = 3 (mod 4), else sqrt(-D); the repr names it
        for D in (1, 2, 3, 7, 163):
            assert repr(make_ring(D)) == f"RingParams(D={D}, omega={'half' if D % 4 == 3 else 'sqrt'})"

    @pytest.mark.parametrize(
        "D, omega_sq, half",
        [(1, (-1, 0), (0, 2)), (2, (-2, 0), (0, 2)), (3, (-1, 1), (1, 1)), (7, (-2, 1), (1, 1)), (163, (-41, 1), (1, 1))],
    )
    def test_omega_rule(self, D, omega_sq, half):
        # omega**2 in basis coordinates, and omega = (half[0] + half[1]*sqrt(-D))/2
        w = QuadInt(make_ring(D), 0, 1)
        assert ((w * w).x, (w * w).y) == omega_sq == (_omega_q(D, w.ring.omega_p), w.ring.omega_p)
        assert w.half_coords() == half and from_half(w.ring, *half) == w

    @pytest.mark.parametrize("bad", [4, 8, 9, 12, 18, 0, -3, 50])
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            make_ring(bad)

    @pytest.mark.parametrize("bad", [4, 8, 9, 12, 18, 0, -3, 50])
    def test_ring_checks_its_own_d(self, bad):
        # every RingParams is valid: the class itself rejects what make_ring rejects, with the same text
        want = f"D must be {'a positive integer' if bad < 1 else 'squarefree'}, got {bad}"
        with pytest.raises(ValueError, match=f"^{want}$"):
            RingParams(bad)

    @pytest.mark.parametrize("D", [1, 2, 3, 5, 7, 163])
    def test_make_ring_is_ring_params(self, D):
        assert make_ring(D) == RingParams(D) and hash(make_ring(D)) == hash(RingParams(D))
        assert make_ring(D) != RingParams(5 if D == 1 else 1)

    def test_squarefree_helper(self):
        assert [n for n in range(1, 20) if is_squarefree(n)] == [
            1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19,
        ]


class TestRingOps:
    def test_gaussian_square(self):
        one_plus_i = q1(1, 1)
        assert one_plus_i * one_plus_i == q1(0, 2)  # (1+i)^2 = 2i

    def test_half_unit_product(self):
        w = q3(0, 1)  # (1 + sqrt(-3))/2
        assert w * w.conj() == q3(1, 0)

    def test_additive_inverse(self):
        rng = Random(1)
        for D in (1, 2, 3, 7, 11):
            ring = make_ring(D)
            for _ in range(50):
                a = random_elem(ring, rng, 100)
                assert (a + (-a)).is_zero()

    def test_mixed_ring_rejected(self):
        with pytest.raises(ValueError):
            q1(1) + QuadInt(R2, 1, 0)
        with pytest.raises(ValueError):
            q1(1) * QuadInt(R3, 1, 0)

    def test_half_mode_omega_relation(self):
        # omega^2 = omega - (1+D)/4 for D = 3: omega^2 = omega - 1
        w = q3(0, 1)
        assert w * w == w - 1

    def test_int_coercion(self):
        assert q1(2) + 3 == q1(5)
        assert 2 * q1(3, 1) == q1(6, 2)
        assert 1 - q1(0, 1) == q1(1, -1)


class TestValueContract:
    # QuadInt's __init__ sets its slots directly; it must stay the same frozen, hashable value
    @staticmethod
    def field_by_field(ring, x, y):
        q = object.__new__(QuadInt)
        for name, value in (("ring", ring), ("x", x), ("y", y)):
            object.__setattr__(q, name, value)
        return q

    @pytest.mark.parametrize("ring", [R1, R3])
    def test_frozen_hashable_value(self, ring):
        q = QuadInt(ring, 3, -2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.x = 4
        assert (q.ring, q.x, q.y) == (ring, 3, -2)
        assert dataclasses.replace(q, y=5) == QuadInt(ring, 3, 5)
        for back in (pickle.loads(pickle.dumps(q)), copy.copy(q)):
            assert back == q and hash(back) == hash(q) and back.ring == ring
        ref = self.field_by_field(ring, 3, -2)
        assert q == ref and hash(q) == hash(ref) and repr(q) == repr(ref)
        assert QuadInt(ring=ring, x=3, y=-2) == q
        assert q != QuadInt(ring, 3, -1) and q != self.field_by_field(R2, 3, -2)


class TestForeignOperands:
    # a non-int, non-QuadInt operand is a TypeError, in either position
    @pytest.mark.parametrize("other", [1.5, "1", None])
    @pytest.mark.parametrize(
        "op",
        [
            lambda a, o: a + o,
            lambda a, o: o + a,
            lambda a, o: a - o,
            lambda a, o: o - a,
            lambda a, o: a * o,
            lambda a, o: o * a,
        ],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
    )
    def test_type_error(self, op, other):
        for a in (q1(2, 1), q3(0, 1)):
            with pytest.raises(TypeError):
                op(a, other)


class TestNorm:
    def test_examples(self):
        assert norm(q1(2, 1)) == 5
        assert norm(q3(0, 1)) == 1
        assert norm(q1(0)) == 0
        assert norm(QuadInt(R2, 3, 2)) == 9 + 2 * 4

    def test_multiplicative(self):
        rng = Random(2)
        for D in (1, 2, 3, 7, 163):
            ring = make_ring(D)
            for _ in range(200):
                a = random_elem(ring, rng, 10**6)
                b = random_elem(ring, rng, 10**6)
                assert norm(a * b) == norm(a) * norm(b)

    def test_orders_magnitudes(self):
        # |a| and |b| compare as their exact integer norms
        assert norm(q1(2, 1)) > norm(q1(2))  # 5 > 4
        assert norm(q1(3)) > norm(q1(2, 2))  # 9 > 8
        assert norm(q1(4, -7)) == norm(q1(-7, 4)) == norm(q1(4, 7))

    @settings(max_examples=200, deadline=None)
    @given(
        D=st.sampled_from([1, 2, 3, 7, 163]),
        x=st.integers(-(2**700), 2**700),
        y=st.integers(-(2**700), 2**700),
    )
    @example(D=3, x=-(2**700), y=2**700)
    @example(D=2, x=0, y=-(2**700))
    def test_matches_half_coordinates(self, D, x, y):
        # norm on basis coordinates against (u**2 + D*v**2)/4, in both omega conventions
        a = QuadInt(make_ring(D), x, y)
        u, v = a.half_coords()
        assert (u * u + D * v * v) % 4 == 0
        assert a.norm() == norm(a) == (u * u + D * v * v) // 4

    def test_zero_iff_zero(self):
        for D in (1, 3):
            ring = make_ring(D)
            for a in box_elements(ring, 30):
                assert norm(a) > 0


class TestConj:
    def test_involution_and_homomorphism(self):
        rng = Random(3)
        for D in (1, 2, 3, 7):
            ring = make_ring(D)
            for _ in range(100):
                a = random_elem(ring, rng, 1000)
                b = random_elem(ring, rng, 1000)
                assert a.conj().conj() == a
                assert (a + b).conj() == a.conj() + b.conj()
                assert (a * b).conj() == a.conj() * b.conj()
                assert norm(a.conj()) == norm(a)


class TestUnits:
    # the units of O_K are its elements of norm 1, so the norm-1 ball lists them, sorted by elem_key
    def test_counts(self):
        assert len(ElementRows(R1, 1)) == 4
        assert len(ElementRows(R3, 1)) == 6
        assert [format_elem(u) for u in ElementRows(make_ring(7), 1)] == ["-1", "1"]

    @pytest.mark.parametrize("D", [1, 2, 3, 7, 11, 163])
    def test_exactly_norm_one_elements(self, D):
        ring = make_ring(D)
        norm_one = {a for a in box_elements(ring, 1) if norm(a) == 1}
        assert set(ElementRows(ring, 1)) == norm_one


class TestSqrtExact:
    def test_examples(self):
        assert sqrt_half(q1(-25)) == q1(0, 5)  # 5i
        assert sqrt_half(q1(0, 2)) == q1(1, 1)  # sqrt(2i) = 1+i
        assert sqrt_half(q1(3)) is None
        assert sqrt_half(q1(0)) == q1(0)

    def test_canonical_roundtrip(self):
        rng = Random(4)
        for D in (1, 2, 3, 7, 163):
            ring = make_ring(D)
            for _ in range(300):
                b = random_elem(ring, rng, 500)
                got = sqrt_half(b * b)
                assert got == canonical_sign(b)

    @pytest.mark.parametrize("D", [1, 2, 3, 7])
    def test_against_brute_table_small(self, D):
        ring = make_ring(D)
        table = brute_root_table(ring, 20)
        for a in box_elements(ring, 400):
            got = sqrt_half(a)
            want = table.get((a.x, a.y))
            assert got == want, f"D={D}, alpha={a}"

    @staticmethod
    def rational_root(ring, a):
        # a rational a >= 0 is a square of O_K exactly as an integer; a < 0 has the roots +-k*sqrt(-D)
        # with D*k**2 = -a, and no root of O_K squares to a rational unless it is rational or such
        if a >= 0:
            k = isqrt(a)
            return QuadInt(ring, k, 0) if k * k == a else None
        k = isqrt(-a // ring.D)
        return k * from_half(ring, 0, 2) if ring.D * k * k == -a else None

    @pytest.mark.parametrize("D", [1, 2, 3, 7, 163])
    def test_rational_radicands(self, D):
        ring = make_ring(D)
        s = from_half(ring, 0, 2)
        assert s * s == QuadInt(ring, -D, 0)
        rng = Random(D)
        ks = [1, 2, 3, 5, 12, D, D + 1, 2**64 + 1, 2**419 + 3, 2**420 - 1, 2**420]
        ks += [rng.getrandbits(bits) | 1 for bits in (30, 200, 420)]
        radicands = {0, 1, -1, 2, -2}
        for k in ks:
            for base in (k * k, D * k * k):
                radicands |= {sign * base + delta for sign in (1, -1) for delta in (0, 1, -1, 2, -2)}
        coprime = [k for k in ks if k % D]  # -k**2 = -D*v**2/4 has no root v when D > 1 does not divide k
        assert D == 1 or coprime
        radicands |= {-k * k for k in coprime}
        for a in sorted(radicands):
            alpha = QuadInt(ring, a, 0)
            want = self.rational_root(ring, a)
            assert sqrt_half(alpha) == want, f"D={D}, alpha={a}"
            assert want is None or want * want == alpha
        for k in ks:
            assert sqrt_half(QuadInt(ring, k * k, 0)) == QuadInt(ring, k, 0)
            assert sqrt_half(QuadInt(ring, -D * k * k, 0)) == k * s
        assert all(sqrt_half(QuadInt(ring, -k * k, 0)) is None for k in coprime)


class TestExactDiv:
    def test_basic(self):
        assert div_half(q1(10), q1(5)) == q1(2)
        assert div_half(q1(1, 2), q1(0, 1)) == q1(2, -1)  # (1+2i)/i = 2 - i
        assert div_half(q1(1), q1(2)) is None

    def test_half_parity(self):
        # (1 + sqrt(-3)) / 2 = omega is integral for D=3, but 1/2 itself is not
        assert div_half(q3(0, 2), q3(2)) == q3(0, 1)  # (2*omega)/2
        assert div_half(q3(2), q3(2)) == q3(1)
        assert div_half(q3(1), q3(2)) is None
        assert div_half(q1(1), q1(1, 1)) is None  # (1 - i)/2: both divisions pass, but its norm is 1/2


ENUM_DS = [1, 2, 3, 5, 7, 11, 163]


class TestEnumeration:
    @settings(max_examples=80, deadline=None)
    @given(D=st.sampled_from([1, 2, 3, 7, 163, 895]), max_norm=st.integers(1, 400))
    @example(D=1, max_norm=1)
    @example(D=3, max_norm=1)
    @example(D=163, max_norm=1)
    def test_element_rows_is_the_sorted_ball_once(self, D, max_norm):
        # elem_key is injective, so equal key lists mean the same elements, each once, in key order
        ring = make_ring(D)
        ball = ElementRows(ring, max_norm)
        keys = [elem_key(a) for a in ball]
        assert keys == sorted(elem_key(a) for a in box_elements(ring, max_norm))
        assert len(set(keys)) == len(keys)
        # each half row is (norm, x, y, u, v) of its element, one per pair {a, -a}: the one with (x, y) > (0, 0)
        assert ball.half == [(*elem_key(a), *a.half_coords()) for a in ball if (a.x, a.y) > (0, 0)]

    @settings(max_examples=80, deadline=None)
    @given(D=st.sampled_from([1, 2, 3, 7, 163, 895]), max_norm=st.integers(1, 400))
    @example(D=895, max_norm=1)
    def test_half_rows_are_the_cost_model_pairs(self, D, max_norm):
        # search.field_cost counts the pairs {z, -z} with _half_ball_size; the ball keeps one row per pair
        ball = ElementRows(make_ring(D), max_norm)
        assert _half_ball_size(D, max_norm) == len(ball.half)
        assert len(ball) == 2 * len(ball.half)

    @pytest.mark.parametrize("D", ENUM_DS + [895])
    @pytest.mark.parametrize("max_norm", [1, 2, 3, 41, 300])
    def test_implied_sequence(self, D, max_norm):
        # the sequence is implied by the half rows: each norm's slice is its half rows negated and
        # reversed, then its half rows, so element last - i is -element i within the slice
        ring = make_ring(D)
        ball = ElementRows(ring, max_norm)
        elems = list(ball)
        assert elems == sorted(box_elements(ring, max_norm), key=elem_key)
        assert [ball[i] for i in range(-len(ball), 0)] == elems
        for i in [*range(len(ball), len(ball) + 9), *range(-len(ball) - 9, -len(ball))]:
            with pytest.raises(IndexError):
                ball[i]
        lo = 0
        for _, same_norm in groupby(elems, key=norm):
            hi = lo + len(list(same_norm))
            assert all(ball[lo + hi - 1 - i] == -ball[i] for i in range(lo, hi))
            lo = hi

    @pytest.mark.parametrize("D", ENUM_DS)
    @pytest.mark.parametrize("max_norm", [0, 1, 2, 3, 4, 41, 300])
    def test_iter_half_yields_one_of_each_sign_pair(self, D, max_norm):
        # the default class is O_K: one element of each pair {z, -z} of the ball, in _sqrt_half's half-plane
        # (the name is that of the ball enumerator _class_rows replaced)
        ring = make_ring(D)
        got = [(u, v) for v, us in _class_rows(D, max_norm) for u in us]
        assert all(u > 0 or (u == 0 and v > 0) for u, v in got)
        pairs = {frozenset({(u, v), (-u, -v)}) for u, v in got}
        want = {frozenset({a.half_coords(), (-a).half_coords()}) for a in box_elements(ring, max_norm)}
        assert len(pairs) == len(got) and pairs == want

    @pytest.mark.parametrize("D", [1, 2, 3, 5, 6, 7, 11, 15, 163])
    def test_from_half_parity_rule(self, D):
        ring = make_ring(D)
        for u in range(-5, 6):
            for v in range(-5, 6):
                if D % 4 == 3:
                    integral = (u - v) % 2 == 0
                else:
                    integral = u % 2 == 0 and v % 2 == 0
                if integral:
                    assert from_half(ring, u, v).half_coords() == (u, v)
                else:
                    with pytest.raises(ParityError):
                        from_half(ring, u, v)


class TestParseFormat:
    def test_examples(self):
        assert parse_elem("2+1*w", R1) == q1(2, 1)
        assert parse_elem("(1+1*s)/2", R3) == q3(0, 1)
        with pytest.raises(ParityError):
            parse_elem("(1+1*s)/2", R2)
        with pytest.raises(ValueError):
            parse_elem("nonsense", R1)
        with pytest.raises(ValueError):
            parse_elem("1+2w", R1)

    def test_plain_ints(self):
        assert parse_elem("-24", R1) == q1(-24)
        assert parse_elem("+7", R3) == q3(7)

    def test_roundtrip(self):
        rng = Random(5)
        for D in (1, 2, 3, 7):
            ring = make_ring(D)
            for _ in range(200):
                a = random_elem(ring, rng, 10**9)
                assert parse_elem(format_elem(a), ring) == a

    def test_json_roundtrip(self):
        rng = Random(6)
        for D in (1, 3):
            ring = make_ring(D)
            for _ in range(50):
                a = random_elem(ring, rng, 10**30)
                assert elem_from_json(elem_to_json(a), ring) == a

