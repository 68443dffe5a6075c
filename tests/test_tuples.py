from __future__ import annotations

from itertools import permutations
from random import Random

import pytest

from diotuples.quad_ring import QuadInt, elem_from_json, format_elem, make_ring, parse_elem
from diotuples.search import build_graph, enum_elements, find_cliques
from diotuples.tuples import (
    DioTuple,
    PellWitness,
    build_pell_witness,
    c_plus_minus,
    extend_scan,
    extend_triple,
    is_regular,
    make_tuple,
    pell_residuals,
    tuple_orbit,
    verify_tuple,
)
from helpers import reference_extend, reference_sqrt, witness_triples

R1 = make_ring(1)
R2 = make_ring(2)
R3 = make_ring(3)
M1 = QuadInt(R1, -1, 0)


def q1(x, y=0):
    return QuadInt(R1, x, y)


def q3(x, y=0):
    return QuadInt(R3, x, y)


def reported_witness(a: QuadInt, b: QuadInt, n: QuadInt) -> QuadInt | None:
    """The witness verify_tuple reports for the pair {a, b} of a D(n) pair."""
    return verify_tuple(make_tuple(a.ring, n, [a, b])).pairs[0].witness


class TestPairWitness:
    def test_examples(self):
        assert reported_witness(q1(1), q1(2), M1) == q1(1)
        assert reported_witness(q1(1), q1(-24), M1) == q1(0, 5)
        assert reported_witness(q1(3), q1(8), QuadInt(R1, 1, 0)) == q1(5)
        assert reported_witness(q1(1), q1(3), M1) is None


class TestVerifyTuple:
    def test_example_quadruple(self):
        t = make_tuple(R1, M1, [q1(1), q1(2), q1(5), q1(-24)])
        rep = verify_tuple(t)
        assert rep.ok
        assert [format_elem(p.witness) for p in rep.pairs] == [
            "1", "2", "0+5*w", "3", "0+7*w", "0+11*w",
        ]

    def test_fermat_shift_plus_one(self):
        n = QuadInt(R1, 1, 0)
        t = make_tuple(R1, n, [q1(1), q1(3), q1(8), q1(120)])
        assert verify_tuple(t).ok

    def test_half_ring_triple(self):
        w = q3(0, 1)
        t = make_tuple(R3, QuadInt(R3, -1, 0), [w, w.conj(), q3(1)])
        assert verify_tuple(t).ok

    def test_failing_pair_reported(self):
        t = make_tuple(R1, M1, [q1(1), q1(2), q1(3)])
        rep = verify_tuple(t)
        assert not rep.ok
        assert rep.failing_pair == (q1(1), q1(3))
        # verification stops at the first failing pair: (1,2) ok, then (1,3)
        assert len(rep.pairs) == 2
        assert rep.pairs[-1].witness is None

    @pytest.mark.parametrize(
        ("D", "n", "elems", "witnesses", "failing"),
        [
            # recorded from the QuadInt-arithmetic implementation; n = sqrt(-D) is not real
            (3, "-1+2*w", ["-1", "0+1*w", "-1-1*w", "-1+3*w"],
             ["0+1*w", "1+1*w", "1-1*w", "0", "0+2*w", "2-1*w"], None),
            (3, "-1+2*w", ["-1", "0+1*w", "-1-1*w", "-2+2*w"],
             ["0+1*w", "1+1*w", "1", "0", None], ["0+1*w", "-2+2*w"]),
            (3, "-1+2*w", ["-1", "0+1*w", "-1+3*w", "3-2*w"],
             ["0+1*w", "1-1*w", "0+2*w", "0+2*w", None], ["0+1*w", "3-2*w"]),
            (7, "-1+2*w", ["-1", "0-1*w", "1+1*w", "0+3*w"],
             ["1+1*w", "0+1*w", "1-1*w", "1", None], ["0-1*w", "0+3*w"]),
            (1, "-1", ["1", "2", "5", "10"], ["1", "2", "3", "3", None], ["2", "10"]),
        ],
    )
    def test_recorded_reports(self, D, n, elems, witnesses, failing):
        ring = make_ring(D)
        t = make_tuple(ring, parse_elem(n, ring), [parse_elem(e, ring) for e in elems])
        assert [format_elem(e) for e in t.elems] == elems
        rep = verify_tuple(t)
        assert [None if p.witness is None else format_elem(p.witness) for p in rep.pairs] == witnesses
        assert rep.ok is (failing is None)
        assert rep.failing_pair == (None if failing is None else tuple(parse_elem(e, ring) for e in failing))

    def test_structural_rejection(self):
        with pytest.raises(ValueError):
            make_tuple(R1, M1, [q1(1), q1(1), q1(2)])
        with pytest.raises(ValueError):
            make_tuple(R1, M1, [q1(1), q1(0)])
        with pytest.raises(ValueError):
            make_tuple(R1, M1, [q1(1), q3(2)])

    def test_sorted_storage(self):
        t = make_tuple(R1, M1, [q1(-24), q1(5), q1(1), q1(2)])
        assert [format_elem(e) for e in t.elems] == ["1", "2", "5", "-24"]

    def test_report_json_roundtrip(self):
        t = make_tuple(R1, M1, [q1(1), q1(2), q1(5), q1(-24)])
        payload = verify_tuple(t).to_json()
        assert payload["pass"] is True
        back = [elem_from_json(e, R1) for e in payload["tuple"]["elems"]]
        assert back == list(t.elems)
        assert all(p["witness"] is not None for p in payload["pairs"])


class TestIsRegular:
    def test_examples(self):
        assert is_regular(q1(1), q1(2), q1(5))
        assert not is_regular(q1(1), q1(2), q1(-24))
        w = q3(0, 1)
        assert is_regular(w, w.conj(), q3(1))  # r = 0, a + b = 1

    def test_undefined_r(self):
        with pytest.raises(ValueError):
            is_regular(q1(1), q1(3), q1(4))


class TestPellWitness:
    def test_build_and_residuals(self):
        w = build_pell_witness(q1(1), q1(2), q1(5), q1(-24))
        assert (w.r, w.s, w.t) == (q1(1), q1(2), q1(3))
        assert (w.x, w.y, w.z) == (q1(0, 5), q1(0, 7), q1(0, 11))
        r1, r2 = pell_residuals(w)
        assert r1.is_zero() and r2.is_zero()
        # a*z^2 - c*x^2 = 1*(-121) - 5*(-25) = 4 = c - a
        assert w.a * (w.z * w.z) - w.c * (w.x * w.x) == q1(4)
        assert w.c * w.d == w.z * w.z + 1

    def test_missing_square_named(self):
        with pytest.raises(ValueError, match="not a square"):
            build_pell_witness(q1(1), q1(2), q1(5), q1(7))

    def test_missing_x_message(self):
        with pytest.raises(ValueError) as exc:
            build_pell_witness(q1(1), q1(2), q1(5), q1(3))
        assert str(exc.value) == "1*3 - 1 is not a square (x missing)"

    def test_residual_totality_and_perturbation(self):
        w = build_pell_witness(q1(1), q1(2), q1(5), q1(-24))
        bad = PellWitness(w.a, w.b, w.c, w.d, w.r, w.s, w.t, w.x, w.y, w.z + 1)
        r1, r2 = pell_residuals(bad)
        assert not (r1.is_zero() and r2.is_zero())


class TestExtendTriple:
    def test_golden_extension(self):
        found = extend_triple(q1(1), q1(2), q1(5), 200)
        ds = [d for d, _ in found]
        assert q1(-24) in ds
        w = dict(found)[q1(-24)]
        assert (w.x, w.y, w.z) == (q1(0, 5), q1(0, 7), q1(0, 11))
        # 5*145 - 1 = 724 is not a square in Z[i], so 145 must not appear
        assert q1(145) not in ds
        assert reference_sqrt(q1(724)) is None

    def test_extension_reverifies(self):
        found = extend_triple(q1(1), q1(2), q1(5), 2000)
        for d, w in found:
            t = make_tuple(R1, M1, [q1(1), q1(2), q1(5), d])
            assert verify_tuple(t).ok
            r1, r2 = pell_residuals(w)
            assert r1.is_zero() and r2.is_zero()
        # deterministic order: nondecreasing norm of the producing z
        z_norms = [w.z.norm() for _, w in found]
        assert z_norms == sorted(z_norms)

    def test_benchmark_bound_answers(self):
        # z-norm bound 10^4, as in `reproduce d3-triples` and the tuples-extend benchmark
        for triple, d, wit in (
            ((1, 2, 5), -24, ("1", "2", "3", "0+5*w", "0+7*w", "0+11*w")),
            ((2, 5, 13), -480, ("3", "5", "8", "0+31*w", "0+49*w", "0+79*w")),
        ):
            found = extend_triple(*(q1(v) for v in triple), 10**4)
            assert [e for e, _ in found] == [q1(d)]
            w = found[0][1]
            assert (w.a, w.b, w.c, w.d) == (*(q1(v) for v in triple), q1(d))
            assert tuple(format_elem(getattr(w, k)) for k in "rstxyz") == wit
        w = q3(0, 1)
        for a, b, c in ((w, w.conj(), q3(1)), (-w, -w.conj(), q3(-1))):
            assert extend_triple(a, b, c, 10**4) == []

    def test_two_extensions_match_object_scan(self):
        # {1, 2, -24} extends by 5 (regular) and 145; every choice of c finds both
        for a, b, c in permutations((q1(1), q1(2), q1(-24))):
            found = extend_triple(a, b, c, 4000)
            assert [d for d, _ in found] == [q1(5), q1(145)]
            assert found == reference_extend(a, b, c, 4000)

    def test_scan_counts_match_brute_force(self):
        # (1, 2, 5) at the benchmark bound: 5*Z[i] holds x + y*i exactly when 5 | x and 5 | y
        scan = extend_scan(q1(1), q1(2), q1(5), 10**4)
        roots = [(x, y) for x in range(5) for y in range(5) if (x * x - y * y + 1) % 5 == 0 == 2 * x * y % 5]
        divisible = sum(
            1
            for x in range(101)
            for y in range(-100, 101)
            if (x > 0 or y > 0) and x * x + y * y <= 10**4 and (x * x - y * y + 1) % 5 == 0 == 2 * x * y % 5
        )
        assert (scan.root_classes, scan.z_scanned, scan.accepted) == (len(roots), divisible, 1) == (4, 2500, 1)
        assert scan.to_json() == {"root_classes": 4, "z_scanned": 2500, "sieve_passed": 42, "accepted": 1}

    def test_benchmark_triples_match_object_scan(self):
        # sieve_passed is pinned too: a change that quietly weakens the sieve fails a count here
        w = q3(0, 1)
        triples = [tuple(q1(v) for v in t) for t in ((1, 2, 5), (2, 5, 13), (2, 13, 25), (5, 13, 34))]
        counts = [(2500, 42), (373, 14), (94, 54), (111, 18), (18147, 3), (18147, 3)]
        for (a, b, c), count in zip(triples + [(w, w.conj(), q3(1)), (-w, -w.conj(), q3(-1))], counts, strict=True):
            scan = extend_scan(a, b, c, 10**4)
            assert scan.root_classes is not None
            assert (scan.z_scanned, scan.sieve_passed) == count
            assert scan.extensions == reference_extend(a, b, c, 10**4)

    def test_counts_beyond_the_object_scan(self):
        # bound 10^5 is out of the object scan's reach; the counts and answers are those of the
        # scan before it had a sieve.  The unit c of the D=3 triple scans the whole ball's classes
        w = q3(0, 1)
        for (a, b, c), z_scanned, passed, ds in (
            ((w, w.conj(), q3(1)), 181_398, 47, []),
            ((q1(1), q1(2), q1(5)), 25_139, 304, [q1(-24)]),
        ):
            scan = extend_scan(a, b, c, 10**5)
            assert (scan.z_scanned, scan.sieve_passed) == (z_scanned, passed)
            assert [d for d, _ in scan.extensions] == ds

    def test_root_classes_and_ball_scan_agree(self):
        # norm(c) against the half-ball's size picks the scan; bounds on both sides of the switch
        w = q3(0, 1)
        for a, b, c in ((q1(1), q1(2), q1(5)), (q1(2), q1(-24), q1(1)), (w, w.conj(), q3(1)), (q3(1), q3(2), q3(5))):
            kinds = set()
            for bound in range(0, 3 * c.norm()):
                scan = extend_scan(a, b, c, bound)
                kinds.add(scan.root_classes is None)
                assert scan.extensions == reference_extend(a, b, c, bound)
            assert kinds == {True, False}  # a unit c takes the ball scan only at bound 0

    def test_empty_scan(self):
        assert extend_triple(q1(1), q1(2), q1(5), 0) == []

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="z_norm_bound"):
            extend_triple(q1(1), q1(2), q1(5), -5)

    def test_rejections(self):
        with pytest.raises(ValueError):
            extend_triple(q1(1), q1(2), q1(3), 100)  # not a triple
        with pytest.raises(ValueError):
            extend_triple(q1(1), q1(2), q1(0), 100)  # c = 0 fails nonzero check


class TestCPlusMinus:
    def test_golden(self):
        pair = c_plus_minus(q1(1), q1(2), q1(-24))
        assert (pair.c_plus, pair.c_minus) == (q1(145), q1(5))
        assert pair.c_plus * pair.c_minus == q1(725)

    def test_regular_degenerate(self):
        pair = c_plus_minus(q1(1), q1(2), q1(5))  # 5 = 1 + 2 + 2r is regular
        assert pair.c_minus == q1(0)
        assert pair.c_plus == q1(-24)

    def test_identity_exact(self):
        for ring in (R1, make_ring(2), R3, make_ring(7)):
            for a, b, d in witness_triples(ring, 60, seed=11):
                pair = c_plus_minus(a, b, d)
                want = a * a + b * b + d * d - 2 * (a * b) - 2 * (a * d) - 2 * (b * d) + 4
                assert pair.c_plus * pair.c_minus == want

    def test_completions_are_the_regular_quadruples_of_searched_triples(self):
        # an oracle outside Z[i] that shares no code with c_plus_minus: for n = -1, {a, b, c, d} is
        # regular exactly when n(a + b - c - d)^2 = 4(ab + n)(cd + n), a quadratic in d whose roots
        # are the completions c_+- of {a, b, c}.  The triples are those the k = 3 search finds
        def regular(n: QuadInt, a: QuadInt, b: QuadInt, c: QuadInt, d: QuadInt) -> bool:
            s = a + b - c - d
            return n * s * s == 4 * (a * b + n) * (c * d + n)

        rng = Random(35)
        outside_zi = 0
        for D in (2, 3, 5, 6, 7, 11, 15, 19, 23):
            ring = make_ring(D)
            n = QuadInt(ring, -1, 0)
            triples = find_cliques(build_graph(enum_elements(ring, 60), n), 3)
            outside_zi += len(triples)
            for a, b, c in (order for triple in triples for order in permutations(triple)):
                pair = c_plus_minus(a, b, c)
                roots = {pair.c_plus, pair.c_minus}
                assert all(regular(n, a, b, c, d) for d in roots), (D, a, b, c)
                for _ in range(3):
                    # a completion moved by at most one step in each coordinate, so d hits it one time in nine
                    d = rng.choice((pair.c_plus, pair.c_minus)) + QuadInt(ring, rng.randint(-1, 1), rng.randint(-1, 1))
                    assert regular(n, a, b, c, d) == (d in roots), (D, a, b, c, d)
        assert outside_zi > 150

    def test_missing_witness(self):
        with pytest.raises(ValueError):
            c_plus_minus(q1(1), q1(3), q1(2))

    def test_missing_square_messages(self):
        # ab - 1 = 1 is a square, ad - 1 = 2 is not (2 = -i(1 + i)^2 in Z[i])
        with pytest.raises(ValueError) as exc:
            c_plus_minus(q1(1), q1(2), q1(3))
        assert str(exc.value) == "1*3 - 1 is not a square (x missing)"
        with pytest.raises(ValueError) as exc:
            c_plus_minus(q1(1), q1(3), q1(2))
        assert str(exc.value) == "1*3 - 1 is not a square (r missing)"
        # ab - 1 = 1 and ad - 1 = 9 are squares, bd - 1 = 19 is not
        with pytest.raises(ValueError) as exc:
            c_plus_minus(q1(1), q1(2), q1(10))
        assert str(exc.value) == "2*10 - 1 is not a square (y missing)"


MIXED = "mixed rings: RingParams(D=1, omega=sqrt) vs RingParams(D=2, omega=sqrt)"


class TestMixedRings:
    def test_c_plus_minus(self):
        for a, b, d in ((q1(1), QuadInt(R2, 2, 0), q1(5)), (q1(1), q1(2), QuadInt(R2, 5, 0))):
            with pytest.raises(ValueError) as exc:
                c_plus_minus(a, b, d)
            assert str(exc.value) == MIXED
        # the pair (a, b) names a's ring first; with a, b in one ring (b, d) cannot mix alone
        with pytest.raises(ValueError) as exc:
            c_plus_minus(QuadInt(R2, 1, 0), q1(2), q1(5))
        assert str(exc.value) == "mixed rings: RingParams(D=2, omega=sqrt) vs RingParams(D=1, omega=sqrt)"

    def test_first_missing_square_wins(self):
        # the pairs are taken in order: r = sqrt(1*3 - 1) is missing before d is looked at
        with pytest.raises(ValueError) as exc:
            c_plus_minus(q1(1), q1(3), QuadInt(R2, 2, 0))
        assert str(exc.value) == "1*3 - 1 is not a square (r missing)"

    def test_pell_witness_and_is_regular(self):
        with pytest.raises(ValueError) as exc:
            build_pell_witness(q1(1), q1(2), q1(5), QuadInt(R2, -24, 0))
        assert str(exc.value) == MIXED
        # c = 5 = 1 + 2 + 2*sqrt(1*2 - 1) in Z[i]; from Z[sqrt(-2)] it is not a verdict but an error
        for a, b, c in ((q1(1), QuadInt(R2, 2, 0), q1(5)), (q1(1), q1(2), QuadInt(R2, 5, 0))):
            with pytest.raises(ValueError) as exc:
                is_regular(a, b, c)
            assert str(exc.value) == MIXED

    def test_verify_tuple(self):
        with pytest.raises(ValueError) as exc:
            verify_tuple(DioTuple(R1, M1, (q1(1), QuadInt(R2, 2, 0))))
        assert str(exc.value) == MIXED


class TestTupleOrbit:
    def test_real_quadruple(self):
        t = make_tuple(R1, M1, [q1(1), q1(2), q1(5), q1(-24)])
        orbit = tuple_orbit(t)
        assert len(orbit) == 2  # conjugation fixes an all-real tuple
        assert all(verify_tuple(u).ok for u in orbit)

    def test_conj_stable_half_triple(self):
        w = q3(0, 1)
        t = make_tuple(R3, QuadInt(R3, -1, 0), [w, w.conj(), q3(1)])
        orbit = tuple_orbit(t)
        assert t in orbit and len(orbit) == 2  # conj permutes the set, negation does not

    def test_unit_pair_fixed(self):
        t = make_tuple(R1, M1, [q1(0, 1), q1(0, -1)])
        assert verify_tuple(t).ok  # i * (-i) - 1 = 0
        assert tuple_orbit(t) == {t}

    def test_nonreal_shift_restricts_orbit(self):
        n = QuadInt(R1, -2, 2)  # 1*2 + n = 2i = (1+i)^2
        t = make_tuple(R1, n, [q1(1), q1(2)])
        assert verify_tuple(t).ok
        orbit = tuple_orbit(t)
        assert len(orbit) == 2
        assert all(all(e.y == 0 for e in u.elems) for u in orbit)  # no conj members

    def test_negation_preserves_verification(self):
        rng = Random(12)
        for _ in range(100):
            elems = {q1(rng.randrange(-30, 31), rng.randrange(-30, 31)) for _ in range(3)}
            elems = [e for e in elems if not e.is_zero()]
            if len(elems) < 2:
                continue
            t = make_tuple(R1, M1, elems)
            neg = make_tuple(R1, M1, [-e for e in elems])
            cj = make_tuple(R1, M1, [e.conj() for e in elems])
            ok = verify_tuple(t).ok
            assert verify_tuple(neg).ok == ok
            assert verify_tuple(cj).ok == ok
