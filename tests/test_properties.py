"""Property tests: the integer kernels (graph, extension scan, verification, c+-,
square root, division), the interval enclosures of the bounds and the exact
gap-lemma verdicts."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import isqrt

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import iv

from diotuples.bounds import (
    HypothesisFailure,
    PrecReal,
    gap_lemma_checks,
    jz_constants,
    theta_defect,
)
from diotuples.quad_ring import (
    QuadInt,
    exact_div,
    format_elem,
    from_half,
    make_ring,
    norm,
    parse_elem,
    sqrt_exact,
)
from diotuples.search import CompatGraph, brute_force_tuples, build_graph, enum_elements, find_cliques
from diotuples.tuples import (
    PellWitness,
    build_pell_witness,
    c_plus_minus,
    extend_triple,
    make_tuple,
    pair_witness,
    verify_tuple,
)
from helpers import (
    adjacency_masks,
    brute_root_table,
    canonical_sign,
    chain_quadruples_zi,
    fibonacci,
    reference_c_plus_minus,
    reference_cliques,
    reference_extend,
    reference_verify_tuple,
    witness_triples,
)

GRAPH_DS = [1, 2, 3, 5, 7, 11, 15]
# both omega conventions, small and far fields
SQRT_DS = [1, 2, 3, 5, 6, 7, 11, 15, 19, 163, 895]
EXTEND_DS = [1, 2, 3, 7, 11]  # omega = sqrt(-D) for 1, 2; (1+sqrt(-D))/2 for 3, 7, 11
GAP_DS = [1, 2, 3, 7, 163]
CHAIN_TRIPLES = [(1, 2, 5), (2, 5, 13), (2, 13, 25), (5, 13, 34)]  # D(-1) in Z, so in every ring


def elements(D: int, bound: int):
    """Strategy for elements of O_K with coordinates in [-bound, bound]."""
    ring = make_ring(D)
    return st.builds(
        lambda x, y: QuadInt(ring, x, y),
        st.integers(-bound, bound),
        st.integers(-bound, bound),
    )


def shift(ring, kind: str, x: int, y: int) -> QuadInt:
    if kind == "-1":
        return QuadInt(ring, -1, 0)
    if kind == "1":
        return QuadInt(ring, 1, 0)
    if kind == "sqrt(-D)":  # the non-real analogue of i
        return from_half(ring, 0, 2)
    return QuadInt(ring, x, y)


@settings(max_examples=60, deadline=None)
@given(
    D=st.sampled_from(GRAPH_DS),
    max_norm=st.integers(1, 40),
    kind=st.sampled_from(["-1", "1", "sqrt(-D)", "random"]),
    nx=st.integers(-6, 6),
    ny=st.integers(-6, 6),
    data=st.data(),
)
def test_graph_matches_pairwise_definition(D, max_norm, kind, nx, ny, data):
    ring = make_ring(D)
    n = shift(ring, kind, nx, ny)
    pool = enum_elements(ring, max_norm)
    # arbitrary subsets, so sign classes {a, -a} are often only half present
    picked = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=40))
    g = build_graph(picked, n)
    adj = adjacency_masks(g)
    for i, j in combinations(range(len(g.vertices)), 2):
        want = pair_witness(g.vertices[i], g.vertices[j], n) is not None
        assert bool(adj[i] >> j & 1) == want, (g.vertices[i], g.vertices[j], n)
        assert bool(adj[j] >> i & 1) == want
    assert all(not m >> i & 1 for i, m in enumerate(adj))


CLIQUE_DS = [1, 2, 3, 5, 7]


@settings(max_examples=150, deadline=None)
@given(
    size=st.integers(0, 24),
    density=st.integers(0, 100),
    k=st.integers(2, 5),
    rnd=st.randoms(use_true_random=False),
)
def test_cliques_match_reference_on_random_forward_sets(size, density, k, rnd):
    # the vertices stand for their own indices, so find_cliques returns index tuples
    fwd = [{j for j in range(i + 1, size) if rnd.randrange(100) < density} for i in range(size)]
    g = CompatGraph(make_ring(1), QuadInt(make_ring(1), -1, 0), list(range(size)), fwd)
    assert find_cliques(g, k) == reference_cliques(fwd, k)


@settings(max_examples=60, deadline=None)
@given(
    D=st.sampled_from(CLIQUE_DS),
    max_norm=st.integers(1, 200),
    kind=st.sampled_from(["-1", "1", "0", "random"]),
    nx=st.integers(-6, 6),
    ny=st.integers(-6, 6),
    k=st.integers(2, 5),
    keep=st.integers(30, 100),
    rnd=st.randoms(use_true_random=False),
)
def test_graph_cliques_match_reference_in_order(D, max_norm, kind, nx, ny, k, keep, rnd):
    # n = 0 makes every pair of squares an edge, so its graphs hold many 4- and 5-cliques
    ring = make_ring(D)
    n = QuadInt(ring, 0, 0) if kind == "0" else shift(ring, kind, nx, ny)
    picked = [e for e in enum_elements(ring, max_norm) if rnd.randrange(100) < keep]
    g = build_graph(picked, n)
    want = [tuple(g.vertices[i] for i in idx) for idx in reference_cliques(g.fwd, k)]
    assert find_cliques(g, k) == want


@settings(max_examples=300, deadline=None)
@given(D=st.sampled_from(SQRT_DS), bits=st.sampled_from([4, 8, 64, 320]), data=st.data())
def test_sqrt_of_square_is_canonical_root(D, bits, data):
    b = data.draw(elements(D, 2**bits))
    root = sqrt_exact(b * b)
    assert root in (b, -b)
    assert root == canonical_sign(root)


@settings(max_examples=300, deadline=None)
@given(
    D=st.sampled_from(SQRT_DS),
    data=st.data(),
    dx=st.integers(-3, 3),
    dy=st.integers(-3, 3),
)
def test_sqrt_is_none_or_a_root(D, data, dx, dy):
    # small elements, and squares nudged by a small offset (norms near squares)
    b = data.draw(elements(D, 2**40))
    for a in (data.draw(elements(D, 30)), b * b + QuadInt(b.ring, dx, dy)):
        root = sqrt_exact(a)
        assert root is None or root * root == a


@lru_cache(maxsize=None)
def extend_cases(D: int) -> list:
    """Benchmark and chain triples, the `reproduce d3-triples` pair, and witness_triples."""
    ring = make_ring(D)
    out = [tuple(QuadInt(ring, v, 0) for v in t) for t in CHAIN_TRIPLES]
    # sub-triples of the c+- chain quadruples; some have two extensions below the bound
    out += [t for q in chain_quadruples_zi(ring) for t in combinations(q, 3)]
    if D == 3:
        w, w_bar, one = QuadInt(ring, 0, 1), QuadInt(ring, 1, -1), QuadInt(ring, 1, 0)
        out += [(w, w_bar, one), (-w, -w_bar, -one)]
    return list(dict.fromkeys(out + witness_triples(ring, 16, seed=D)))


@settings(max_examples=100, deadline=None)
@given(D=st.sampled_from(EXTEND_DS), bound=st.integers(0, 300), data=st.data())
def test_extend_matches_object_scan(D, bound, data):
    triples = extend_cases(D)
    a, b, c = data.draw(st.permutations(data.draw(st.sampled_from(triples))))
    assert extend_triple(a, b, c, bound) == reference_extend(a, b, c, bound)


@lru_cache(maxsize=None)
def c_plus_minus_cases(D: int) -> list:
    """witness_triples and the sub-triples of the c+- chain quadruples."""
    ring = make_ring(D)
    out = [t for q in chain_quadruples_zi(ring) for t in combinations(q, 3)]
    return list(dict.fromkeys(out + witness_triples(ring, 24, seed=D)))


@settings(max_examples=150, deadline=None)
@given(D=st.sampled_from(EXTEND_DS), data=st.data())
def test_c_plus_minus_matches_object_arithmetic(D, data):
    a, b, d = data.draw(st.permutations(data.draw(st.sampled_from(c_plus_minus_cases(D)))))
    assert c_plus_minus(a, b, d) == reference_c_plus_minus(a, b, d)


FIB = fibonacci(310)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 150), sign=st.sampled_from([1, -1]), data=st.data())
def test_c_plus_minus_big_fibonacci_triples(k, sign, data):
    # i*{F_2k, F_2k+2, F_2k+4} is a D(-1) triple in Z[i]; abd reaches about 630 bits
    ring = make_ring(1)
    a, b, d = data.draw(st.permutations([QuadInt(ring, 0, sign * FIB[2 * k + j]) for j in (0, 2, 4)]))
    got = c_plus_minus(a, b, d)
    assert got == reference_c_plus_minus(a, b, d)
    fourth = QuadInt(ring, 0, sign * 4 * FIB[2 * k + 1] * FIB[2 * k + 2] * FIB[2 * k + 3])
    assert (got.c_plus, got.c_minus) == (fourth, QuadInt(ring, 0, 0))


VERIFY_COORD = 6  # element coordinates in verify_tuple's oracle test
ROOT_BOUND = 200  # every a*b + n there has a root norm below this (checked in the test)


@lru_cache(maxsize=None)
def root_table(D: int) -> dict:
    return brute_root_table(make_ring(D), ROOT_BOUND)


@lru_cache(maxsize=None)
def verify_triples(D: int, kind: str) -> list:
    """D(n) triples of small norm, so that tuples grown from them fail late, or not at all."""
    ring = make_ring(D)
    return brute_force_tuples(enum_elements(ring, 20), 3, shift(ring, kind, 0, 0))


@settings(max_examples=300, deadline=None)
@given(
    D=st.sampled_from(EXTEND_DS),
    kind=st.sampled_from(["-1", "1", "sqrt(-D)", "random"]),
    nx=st.integers(-VERIFY_COORD, VERIFY_COORD),
    ny=st.integers(-VERIFY_COORD, VERIFY_COORD),
    data=st.data(),
)
def test_verify_tuple_matches_object_arithmetic(D, kind, nx, ny, data):
    ring = make_ring(D)
    n = shift(ring, kind, nx, ny)
    base = []
    triples = verify_triples(D, kind) if kind != "random" else []
    if triples:
        base = list(data.draw(st.sampled_from(triples)))
    nonzero = elements(D, VERIFY_COORD).filter(lambda e: not e.is_zero())
    extra = data.draw(st.lists(nonzero, min_size=0 if base else 2, max_size=3))
    elems = list(dict.fromkeys(base + extra))
    assume(len(elems) >= 2)
    t = make_tuple(ring, n, elems)
    rep = verify_tuple(t)
    assert rep == reference_verify_tuple(t)
    table = root_table(D)
    for pc in rep.pairs:
        target = pc.a * pc.b + n
        if pc.witness is None:
            assert isqrt(target.norm()) < ROOT_BOUND
            assert (target.x, target.y) not in table
        else:
            assert pc.witness * pc.witness == target
            assert pc.witness == canonical_sign(pc.witness)


@settings(max_examples=300, deadline=None)
@given(D=st.sampled_from(SQRT_DS), data=st.data())
def test_exact_div_of_product(D, data):
    a = data.draw(elements(D, 2**40))
    b = data.draw(elements(D, 2**20).filter(lambda e: not e.is_zero()))
    assert exact_div(a * b, b) == a


@settings(max_examples=300, deadline=None)
@given(D=st.sampled_from(SQRT_DS), data=st.data())
def test_exact_div_is_none_or_quotient(D, data):
    a = data.draw(elements(D, 60))
    b = data.draw(elements(D, 4).filter(lambda e: not e.is_zero()))
    q = exact_div(a, b)
    assert q is None or q * b == a


@settings(max_examples=300, deadline=None)
@given(D=st.sampled_from(SQRT_DS), data=st.data())
def test_parse_format_roundtrip(D, data):
    a = data.draw(elements(D, 2**64))
    assert parse_elem(format_elem(a), a.ring) == a
    u, v = a.half_coords()
    assert parse_elem(f"({u}{v:+d}*s)/2", a.ring) == a


def contains(enc: PrecReal, ref: mpmath.mpf) -> bool:
    with mpmath.workprec(1100):  # endpoints convert exactly
        return mpmath.mpf(enc.enclosure.a) <= ref <= mpmath.mpf(enc.enclosure.b)


def reference_constants(a1: QuadInt, a2: QuadInt, T: QuadInt) -> dict:
    """L, l, p, P, lambda and c1 at (a1, a2, T) as independent 512-bit mpmath.mpf values.

    Needs |T| > M; lambda and c1 are left out when L <= 1, where the lemma does not apply.
    """
    n1, n2, n12 = norm(a1), norm(a2), norm(a1 - a2)
    N, min_sq = n1 * n2 * n12, min(n1, n2, n12)
    with mpmath.workprec(512):
        rT, rM = mpmath.sqrt(norm(T)), mpmath.sqrt(max(n1, n2))
        gap = rT - rM
        ref = {
            "L": 27 * gap**2 / (16 * N),
            "l": 27 * rT / (64 * gap),
            "p": mpmath.sqrt((2 * rT + 3 * rM) / (2 * gap)),
            "P": 16 * N * (2 * rT + 3 * rM) / mpmath.mpf(min_sq) ** 1.5,
        }
        if ref["L"] > 1:
            ref["lam"] = lam = 1 + mpmath.log(ref["P"]) / mpmath.log(ref["L"])
            ref["c1"] = 1 / (4 * ref["p"] * ref["P"] * max(1, 2 * ref["l"]) ** (lam - 1))
    return ref


@settings(max_examples=100, deadline=None)
@given(
    D=st.sampled_from(GAP_DS),
    ax=st.integers(-10, 10),
    ay=st.integers(-10, 10),
    bx=st.integers(-60, 60),
    by=st.integers(-60, 60),
    ck=st.integers(1, 10**6),
    cy=st.integers(0, 50),
)
def test_jz_constants_enclose_reference(D, ax, ay, bx, by, ck, cy):
    # (a, b, c) shaped as in the gap lemma; constants at (a1, a2, T) = (-b, -a, abc)
    ring = make_ring(D)
    a, b = QuadInt(ring, ax, ay), QuadInt(ring, bx, by)
    na, nb = norm(a), norm(b)
    assume(na >= 4 and nb >= 484 and 4 * nb >= 9 * na)
    c = QuadInt(ring, nb**8 + ck, cy)
    assume(norm(c) > nb**16)
    a1, a2, T = -b, -a, a * b * c
    consts = jz_constants(a1, a2, T)
    for name, ref in reference_constants(a1, a2, T).items():
        enc = getattr(consts, name)
        assert contains(enc, ref), name
        assert enc.max_rel_error < 2.0**-64, name


# (clause, reference key, cap evaluated at the caller's precision, whether it asks value > cap)
GAP_CAPS = (
    ("l < 1/2", "l", lambda: mpmath.mpf(1) / 2, False),
    ("p <= sqrt(47/42)", "p", lambda: mpmath.sqrt(mpmath.mpf(47) / 42), False),
    ("L > 1", "L", lambda: mpmath.mpf(1), True),
    ("lambda < 1.8", "lam", lambda: mpmath.mpf(9) / 5, False),
)


def reference_verdicts(a: QuadInt, b: QuadInt, c: QuadInt) -> tuple[dict, bool]:
    """Gap-lemma verdicts on (a, b, c) from the 512-bit reference values, and whether
    any value lies within 2^-400 (relative) of its cap, where 512 bits cannot decide."""
    ref = reference_constants(-b, -a, a * b * c)
    verdicts, near = {}, False
    with mpmath.workprec(512):
        for name, key, make_cap, above in GAP_CAPS:
            if key not in ref:
                continue
            cap = make_cap()
            near = near or abs(ref[key] - cap) <= cap * mpmath.mpf(2) ** -400
            verdicts[name] = ref[key] > cap if above else ref[key] < cap
    return verdicts, near


def exact_verdicts(a: QuadInt, b: QuadInt, c: QuadInt) -> dict:
    """gap_lemma_checks verdicts; L <= 1 raises there and reads as the one failing clause."""
    try:
        out = gap_lemma_checks(a, b, c)
    except HypothesisFailure as exc:
        assert str(exc).startswith("L <= 1")
        return {"L > 1": False}
    for holds, margin, bits in out.values():
        assert bits == 0 and margin > 0  # exact, and no tie away from the caps
    return {name: holds for name, (holds, _, _) in out.items()}


def assert_verdicts_match(a: QuadInt, b: QuadInt, c: QuadInt, want: dict) -> dict:
    got = exact_verdicts(a, b, c)
    assert got["L > 1"] == want["L > 1"], (a, b, c)
    assert got == {name: want[name] for name in got}, (a, b, c)
    return got


@settings(max_examples=200, deadline=None)
@given(D=st.sampled_from(GAP_DS), gap_shaped=st.booleans(), data=st.data())
def test_gap_clauses_match_reference(D, gap_shaped, data):
    ring = make_ring(D)
    if gap_shaped:  # as in the gap lemma: lambda < 1.8 mostly holds
        a, b = data.draw(elements(D, 10)), data.draw(elements(D, 60))
        na, nb = norm(a), norm(b)
        assume(na >= 4 and nb >= 484 and 4 * nb >= 9 * na)
        c = QuadInt(ring, nb**8 + data.draw(st.integers(1, 10**6)), data.draw(st.integers(0, 50)))
    else:  # free: |c| from 1 to 2^120 takes lambda across 1.8, small |abc| takes p across its cap
        a, b = data.draw(elements(D, 8)), data.draw(elements(D, 8))
        c = data.draw(elements(D, 2 ** data.draw(st.integers(0, 120))))
    assume(a != b and not (a.is_zero() or b.is_zero() or c.is_zero()))
    assume(norm(a * b * c) > max(norm(a), norm(b)))  # |T| > M, an exact precondition
    want, near = reference_verdicts(a, b, c)
    assume(not near)  # ties are covered by test_gap_clause_ties_are_exact
    assert_verdicts_match(a, b, c, want)


# (D, a, b, c) as coordinate pairs; together every clause goes both ways
FIXED_GAP_SETS = (
    (1, (1, 0), (-1, 0), (-21, 0)),  # p > sqrt(47/42)
    (1, (1, 0), (-1, 0), (-3, 0)),  # l > 1/2
    (1, (3, 0), (-3, 0), (1, 0)),  # L < 1
    # norm(c) = 105676804 and 105676805 straddle lambda = 1.8 at 105676804.28
    (1, (1, 0), (-1, 0), (7602, 6920)),
    (1, (1, 0), (-1, 0), (10258, 671)),
    # min = 4: norm(c) = 442795436423908 and ...930 straddle 442795436423914.9
    (1, (2, 0), (-2, 0), (20977962, 1649408)),
    (1, (2, 0), (-2, 0), (20950009, 1972957)),
    (7, (2, 1), (-3, 2), (5, -1)),  # p > sqrt(47/42), half-integer basis
    (1, (2, 0), (22, 0), (22**16 + 1, 0)),  # gap-lemma shaped
    (163, (2, 0), (0, 4), (656**8 + 1, 3)),  # gap-lemma shaped, far field
)


def test_gap_clauses_fixed_sets_both_ways():
    seen = set()
    for D, *coords in FIXED_GAP_SETS:
        a, b, c = (QuadInt(make_ring(D), x, y) for x, y in coords)
        want, near = reference_verdicts(a, b, c)
        assert not near
        seen |= set(assert_verdicts_match(a, b, c, want).items())
    assert seen == {(name, holds) for name, *_ in GAP_CAPS for holds in (True, False)}


def test_gap_clause_ties_are_exact():
    # Z[i]: norm(T) = 484 = 484*M^2, so p = sqrt(47/42) exactly
    a, b, c = (QuadInt(make_ring(1), x, 0) for x in (1, -1, -22))
    assert gap_lemma_checks(a, b, c)["p <= sqrt(47/42)"] == (True, 0.0, 0)
    # D=2: N = 162 and (|T| - M)^2 = 96, so L = 27*96/(16*162) = 1 exactly
    r2 = make_ring(2)
    a1, a2, T = (parse_elem(t, r2) for t in ("-2-1*w", "-1+1*w", "-10-5*w"))
    with pytest.raises(HypothesisFailure, match="L <= 1"):
        jz_constants(a1, a2, T)


@lru_cache(maxsize=None)
def chain_witnesses() -> list:
    return [build_pell_witness(*q) for q in chain_quadruples_zi(make_ring(1))]


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    signs=st.tuples(*[st.sampled_from([1, -1])] * 5),
    dz=st.sampled_from([(0, 0), (1, 0), (0, 1)]),
)
def test_theta_defects_enclose_reference(data, signs, dz):
    # genuine witnesses with random signs, and (dz != 0) witnesses whose z breaks the Pell identity
    w = data.draw(st.sampled_from(chain_witnesses()))
    s, t, x, y, z = (e * k for e, k in zip((w.s, w.t, w.x, w.y, w.z), signs))
    z = z + QuadInt(z.ring, *dz)
    assume(not z.is_zero())
    w = PellWitness(w.a, w.b, w.c, w.d, w.r, s, t, x, y, z)
    tc = theta_defect(w)

    def to_mpc(e):
        return mpmath.mpc(e.x, e.y)  # Z[i]: e = x + y*i

    with mpmath.workprec(512):
        a, b, c, zc = to_mpc(w.a), to_mpc(w.b), to_mpc(w.c), to_mpc(z)
        refs = []
        for num, den, x_or_y in ((to_mpc(s), a, to_mpc(x)), (to_mpc(t), b, to_mpc(y))):
            theta = num / den * mpmath.sqrt(den / c)
            approx = num * x_or_y / (den * zc)
            refs.append(min(abs(theta - approx), abs(theta + approx)))
    assert contains(tc.defect1, refs[0])
    assert contains(tc.defect2, refs[1])
    assert tc.defect1.max_rel_error < 2.0**-64
    assert tc.defect2.max_rel_error < 2.0**-64


def test_theta_identity_is_exact():
    # a genuine witness has a*z^2 - c*x^2 = c - a, so the two integer norms tie exactly
    for w in chain_witnesses():
        assert theta_defect(w).identity_rel_diff == 0.0
        z = w.z + QuadInt(w.z.ring, 1, 0)
        bumped = PellWitness(w.a, w.b, w.c, w.d, w.r, w.s, w.t, w.x, w.y, z)
        assert theta_defect(bumped).identity_rel_diff > 0


def test_overlapping_enclosures_are_undecided():
    lo, hi = PrecReal(iv.mpf([1, 2]), 128), PrecReal(iv.mpf([1.5, 4]), 128)
    assert abs(lo.value - hi.value) > 2.0**-64
    assert lo.compare(hi) == (0, 0.0)
    assert not lo.decided_against(hi)
    assert not hi.decided_against(lo)
    apart = PrecReal(iv.mpf([2.5, 4]), 128)
    assert lo.compare(apart)[0] == -1
    assert lo.decided_against(apart)
