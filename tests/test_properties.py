"""Property tests: the integer kernels (graph, extension scan, verification, c+-,
square root, division), the interval enclosures of the bounds and the exact
gap-lemma verdicts."""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations, permutations
from math import isqrt

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diotuples import bounds
from mpmath.libmp import from_int, from_man_exp, mpi_sqrt, round_ceiling, round_floor

from diotuples.bounds import (
    HypothesisFailure,
    PrecReal,
    _iv_sqrt,
    _zsqrt_pow,
    gap_lemma_checks,
    jz_constants,
    theta_defect,
)
from diotuples.quad_ring import (
    QuadInt,
    _sqrt_half,
    format_elem,
    from_half,
    make_ring,
    norm,
    parse_elem,
)
from diotuples.search import CompatGraph, enum_elements, find_cliques
from diotuples.tuples import (
    _SIEVE_PRIMES,
    PellWitness,
    _sieve,
    _sieve_lines,
    _squares_mod,
    build_pell_witness,
    c_plus_minus,
    extend_scan,
    extend_triple,
    make_tuple,
    verify_tuple,
)
from helpers import (
    adjacency_masks,
    box_elements,
    brute_force_tuples,
    brute_root_table,
    canonical_sign,
    chain_quadruples_zi,
    div_half,
    fibonacci,
    iv_jz_reference,
    iv_theta_reference,
    list_graph,
    reference_c_plus_minus,
    reference_cliques,
    reference_div,
    reference_extend,
    reference_gap_lemma_checks,
    reference_sqrt,
    reference_verify_tuple,
    reference_witness,
    sqrt_half,
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
    if kind == "0":
        return QuadInt(ring, 0, 0)
    if kind == "rational":
        return QuadInt(ring, x, 0)
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
    assert_edges_are_witnessed_pairs(list_graph(picked, n), n)


def assert_edges_are_witnessed_pairs(g: CompatGraph, n: QuadInt) -> None:
    """{i, j} is an edge of g exactly when reference_witness finds a witness for the pair, and no loops."""
    adj = adjacency_masks(g)
    for i, j in combinations(range(len(g.vertices)), 2):
        want = reference_witness(g.vertices[i], g.vertices[j], n) is not None
        assert bool(adj[i] >> j & 1) == want, (g.vertices[i], g.vertices[j], n)
        assert bool(adj[j] >> i & 1) == want
    assert all(not m >> i & 1 for i, m in enumerate(adj))


@settings(max_examples=60, deadline=None)
@given(
    D=st.sampled_from(GRAPH_DS),
    max_norm=st.integers(1, 60),
    kind=st.sampled_from(["-1", "1", "0", "rational", "sqrt(-D)", "random"]),
    nx=st.integers(-6, 6),
    ny=st.integers(-6, 6).filter(bool),
    data=st.data(),
)
def test_graph_matches_pairwise_definition_up_to_conjugation(D, max_norm, kind, nx, ny, data):
    # the covering ball takes the v >= 0 witness scan when n is rational ("random" n is not) and
    # records each edge with its conjugate; the subsets are closed under conjugation, then lose
    # some conjugates
    ring = make_ring(D)
    n = shift(ring, kind, nx, ny)
    pool = enum_elements(ring, max_norm)
    picked = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=24))
    closed = set(picked) | {e.conj() for e in picked}
    assert_edges_are_witnessed_pairs(list_graph(list(closed), n), n)
    upper = sorted((e for e in closed if e.half_coords()[1] > 0), key=str)
    if upper:
        # each left-out element keeps its conjugate, so the set is not closed
        dropped = data.draw(st.lists(st.sampled_from(upper), unique=True, min_size=1))
        assert_edges_are_witnessed_pairs(list_graph([e for e in closed if e not in dropped], n), n)


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
    g = CompatGraph(QuadInt(make_ring(1), -1, 0), list(range(size)), fwd)
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
    g = list_graph(picked, n)
    want = [tuple(g.vertices[i] for i in idx) for idx in reference_cliques(g.fwd, k)]
    assert find_cliques(g, k) == want


@settings(max_examples=300, deadline=None)
@given(D=st.sampled_from(SQRT_DS), bits=st.sampled_from([4, 8, 64, 320]), data=st.data())
def test_sqrt_of_square_is_canonical_root(D, bits, data):
    b = data.draw(elements(D, 2**bits))
    root = sqrt_half(b * b)
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
        root = sqrt_half(a)
        assert root is None or root * root == a


def general_sqrt_half(D: int, U: int, V: int) -> tuple[int, int] | None:
    """_sqrt_half's reconstruction with no rational shortcut: r = isqrt(U^2 + D*V^2) for every alpha."""
    n4 = U * U + D * V * V
    r = isqrt(n4)
    if r * r != n4:
        return None
    u = isqrt(U + r)
    if u * u != U + r:
        return None
    if u == 0:
        if V != 0 or (2 * r) % D:
            return None
        v = isqrt(2 * r // D)
        if D * v * v != 2 * r:
            return None
    elif V % u:
        return None
    else:
        v = V // u
    if u * u - D * v * v != 2 * U or u * v != V:
        return None
    return u, v


@settings(max_examples=300, deadline=None)
@given(
    D=st.sampled_from([1, 2, 3, 7, 11, 163]),
    t=st.integers(0, 2**1300),
    shape=st.sampled_from(["2t^2", "-2t^2", "-2Dt^2", "any"]),
    nudge=st.sampled_from([0, 0, -4, -2, 2, 4]),
)
def test_sqrt_half_rational_matches_general(D, t, shape, nudge):
    # V = 0: rational alpha = U/2, with U even and up to about 2,600 bits; squares and their neighbours
    U = {
        "2t^2": 2 * t * t,
        "-2t^2": -2 * t * t,
        "-2Dt^2": -2 * D * t * t,
        "any": (-1) ** t * 2 * (t * t // (t % 5 + 1)),
    }[shape]
    U += nudge
    assert _sqrt_half(D, U, 0) == general_sqrt_half(D, U, 0)


def test_sqrt_half_rational_edges():
    for D in (1, 2, 3, 7, 11, 163):
        assert _sqrt_half(D, 0, 0) == (0, 0)
        assert _sqrt_half(D, 2 * 9, 0) == (6, 0)  # 9 = 3^2
        assert _sqrt_half(D, -2 * D * 25, 0) == (0, 10)  # -25D = (5*sqrt(-D))^2
        for U in (-2, 2, 4, -4 * D, 2 * 10**780, -2 * 10**780):
            assert _sqrt_half(D, U, 0) == general_sqrt_half(D, U, 0)


def half_in_ok(D: int, u: int, v: int) -> tuple[int, int]:
    """(u, v), or (2u, 2v) when (u + v*sqrt(-D))/2 is not in O_K (its norm (u^2 + D*v^2)/4 is no integer)."""
    return (u, v) if (u * u + D * v * v) % 4 == 0 else (2 * u, 2 * v)


def half_square(D: int, u: int, v: int) -> tuple[int, int]:
    """Half-coordinates of beta^2 for beta = (u + v*sqrt(-D))/2 in O_K, on the test's own integers."""
    return (u * u - D * v * v) // 2, u * v


def canonical_half(u: int, v: int) -> tuple[int, int]:
    """The one of +-(u, v) with u > 0, or u = 0 and v >= 0."""
    return (u, v) if u > 0 or (u == 0 and v >= 0) else (-u, -v)


@settings(max_examples=300, deadline=None)
@given(
    D=st.sampled_from([1, 2, 3, 7, 163]),
    u=st.integers(-(2**300), 2**300).filter(bool),
    v=st.integers(-(2**300), 2**300).filter(bool),
    du=st.integers(-8, 8),
    dv=st.integers(-8, 8),
)
def test_sqrt_half_non_rational(D, u, v, du, dv):
    # V = u*v != 0, radicands of up to about 600 bits: the route whose result rests on the docstring's
    # proof, u**2*(u**2 - D*v**2) = 2*U*u**2, with no closing test of beta**2 = alpha
    assume((du, dv) != (0, 0))
    u, v = half_in_ok(D, u, v)
    U, V = half_square(D, u, v)
    assert _sqrt_half(D, U, V) == canonical_half(u, v)
    # -beta^2 is a square only where -1 is one, in Z[i], with the roots +-i*beta = +-(-v, u)
    assert _sqrt_half(D, -U, -V) == (canonical_half(-v, u) if D == 1 else None)
    du, dv = half_in_ok(D, du, dv)  # delta = (du + dv*sqrt(-D))/2, small and nonzero
    root = _sqrt_half(D, U + du, V + dv)
    assert root is None or (canonical_half(*root) == root and half_square(D, *root) == (U + du, V + dv))


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
    scan = extend_scan(a, b, c, bound)
    assert scan.extensions == extend_triple(a, b, c, bound) == reference_extend(a, b, c, bound)
    # the root classes scan exactly the z with c | z^2 + 1; the ball scan takes every z to the filters
    half = [z for z in box_elements(c.ring, bound) if z == canonical_sign(z)]
    divisible = sum(reference_div(z * z + 1, c) is not None for z in half)
    assert scan.z_scanned == (len(half) if scan.root_classes is None else divisible)
    assert scan.accepted <= scan.sieve_passed <= scan.z_scanned


@settings(max_examples=8, deadline=None)
@given(D=st.sampled_from(EXTEND_DS), bound=st.integers(300, 10**4), data=st.data())
def test_extend_matches_object_scan_at_larger_bounds(D, bound, data):
    a, b, c = data.draw(st.permutations(data.draw(st.sampled_from(extend_cases(D)))))
    assert extend_triple(a, b, c, bound) == reference_extend(a, b, c, bound)


def brute_squares_mod(ring, l: int) -> set[tuple[int, int]]:
    """The squares of O_K/l*O_K, l an odd prime, as (x0, x1) meaning x0 + x1*sqrt(-D) mod l.

    x + y*omega with 0 <= x, y < l are one of each class; each is squared by hand on
    half-coordinates, ((u + v*s)/2)^2 = ((u^2 - D*v^2)/2 + u*v*s)/2, and (U + V*s)/2 is
    U/2 + (V/2)*s mod l.
    """
    D, h = ring.D, pow(2, -1, l)
    squares = set()
    for x in range(l):
        for y in range(l):
            u, v = QuadInt(ring, x, y).half_coords()
            squares.add(((u * u - D * v * v) // 2 * h % l, u * v * h % l))
    return squares


def residue(alpha: QuadInt, l: int) -> tuple[int, int]:
    """alpha mod l in the coordinates of brute_squares_mod."""
    u, v = alpha.half_coords()
    h = pow(2, -1, l)
    return u * h % l, v * h % l


@pytest.mark.parametrize("D", EXTEND_DS)
def test_sieve_squares_match_brute_force(D):
    ring = make_ring(D)
    for l in _SIEVE_PRIMES:
        table = _squares_mod(l, D % l)
        assert len(table) == l * l
        assert {(i % l, i // l) for i in range(l * l) if table[i]} == brute_squares_mod(ring, l)


@pytest.mark.parametrize("D", EXTEND_DS)
def test_sieve_tables_match_brute_force(D):
    # each table entry met by a z with d = (z^2 + 1)/c in O_K says whether a*d - 1 and b*d - 1 are
    # squares mod l, for every prime that does not divide norm(c); so the z of an extension, where
    # both are squares in O_K, passes every table.  d comes from the tests' own division
    ring = make_ring(D)
    squares = {l: brute_squares_mod(ring, l) for l in _SIEVE_PRIMES}
    half = [z for z in box_elements(ring, 100) if z == canonical_sign(z)]
    met = {True: 0, False: 0}
    for t in extend_cases(D):
        for a, b, c in ((t[0], t[1], t[2]), (t[1], t[2], t[0]), (t[2], t[0], t[1])):
            primes = [l for l in _SIEVE_PRIMES if c.norm() % l]
            tables = {l: _sieve_lines(D, l, a.half_coords(), b.half_coords(), c.half_coords()) for l in primes}
            for z in half:
                d = reference_div(z * z + 1, c)
                if d is None:
                    continue
                u, v = z.half_coords()
                for l in primes:
                    want = residue(a * d - 1, l) in squares[l] and residue(b * d - 1, l) in squares[l]
                    assert tables[l][v % l][u % l] == tables[l][-v % l][-u % l] == want
                    met[want] += 1
    assert met[True] and met[False]


@pytest.mark.parametrize("D", EXTEND_DS)
def test_sieve_passes_every_extension(D):
    # the sieve is a necessary condition: the z of every extension of (a, b, c) that the object
    # scan finds passes the table of every prime that does not divide norm(c), in either order of a
    # and b, and so does -z.  Only Z[i] has extensions of these triples below norm 100
    checked = 0
    for t in extend_cases(D):
        for a, b, c in ((t[0], t[1], t[2]), (t[1], t[2], t[0]), (t[2], t[0], t[1])):
            for _, w in reference_extend(a, b, c, 100):
                u, v = w.z.half_coords()
                for l in _SIEVE_PRIMES:
                    if c.norm() % l == 0:
                        continue
                    for p, q in ((a, b), (b, a)):
                        lines = _sieve_lines(D, l, p.half_coords(), q.half_coords(), c.half_coords())
                        assert lines[v % l][u % l] == lines[-v % l][-u % l] == 1
                checked += 1
    assert (checked > 0) == (D == 1)


@pytest.mark.parametrize(
    "D, triple, skip",
    [
        (1, ("1", "2", "5"), 5),
        (1, ("1", "5", "10"), 5),
        # no D(-1) triple of Z[omega], D = 3, has 3 | norm(c): then sqrt(-3) | c, and a*c - 1 = -1 is
        # no square mod sqrt(-3) (O_K/(sqrt(-3)) is F_3), so 13 stands in as the prime to skip
        (3, ("-1", "2", "3-4*w"), 13),
    ],
)
def test_sieve_skips_primes_dividing_norm_c(D, triple, skip):
    ring = make_ring(D)
    elems = [parse_elem(t, ring) for t in triple]
    assert any(e.norm() % skip == 0 for e in elems)
    for a, b, c in permutations(elems):
        scan = extend_scan(a, b, c, 1000)
        assert scan.extensions == reference_extend(a, b, c, 1000)
        halves = (a.half_coords(), b.half_coords(), c.half_coords())
        # the scan's own choice of primes, and the choice when there are z enough for every table;
        # the modulus 1 that stands in for no table divides every norm, so a sieve is in use
        for z_count in (scan.z_scanned, 10**9):
            used = [l for l, _ in _sieve(D, *halves, c.norm(), z_count)]
            assert all(c.norm() % l for l in used)


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
    quad = make_tuple(ring, QuadInt(ring, -1, 0), [a, b, d, fourth])  # the benchmark's big quadruples
    report = verify_tuple(quad)
    assert report.ok and report == reference_verify_tuple(quad)


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
    assert div_half(a * b, b) == a


@settings(max_examples=300, deadline=None)
@given(D=st.sampled_from(SQRT_DS), data=st.data())
def test_exact_div_is_none_or_quotient(D, data):
    a = data.draw(elements(D, 60))
    b = data.draw(elements(D, 4).filter(lambda e: not e.is_zero()))
    q = div_half(a, b)
    assert q is None or q * b == a


@settings(max_examples=300, deadline=None)
@given(D=st.sampled_from(SQRT_DS), data=st.data())
def test_parse_format_roundtrip(D, data):
    a = data.draw(elements(D, 2**64))
    assert parse_elem(format_elem(a), a.ring) == a
    u, v = a.half_coords()
    assert parse_elem(f"({u}{v:+d}*s)/2", a.ring) == a


def test_max_rel_error_across_zero_is_inf():
    assert PrecReal(mpmath.iv.mpf([-1, 1]), 128).max_rel_error == float("inf")


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


def outcome(f, *args):
    """f(*args), or the type and message of the ValueError (or HypothesisFailure) it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_matches_reference_kernel(a: QuadInt, b: QuadInt, c: QuadInt) -> None:
    # dict ==, so every verdict and margin float is bit-identical; or the same error
    got, want = outcome(gap_lemma_checks, a, b, c), outcome(reference_gap_lemma_checks, a, b, c)
    assert got == want, (a, b, c)


@settings(max_examples=400, deadline=None)
@given(
    D=st.sampled_from(GAP_DS),
    kind=st.sampled_from(["gap", "free", "equal", "zero", "mixed"]),
    data=st.data(),
)
def test_gap_lemma_checks_matches_object_kernel(D, kind, data):
    ring = make_ring(D)
    if kind == "gap":  # as in the gap lemma, hypotheses not enforced
        a, b = data.draw(elements(D, 10)), data.draw(elements(D, 60))
        c = QuadInt(ring, norm(b) ** 8 + data.draw(st.integers(1, 10**6)), data.draw(st.integers(0, 50)))
    else:  # |c| from 1 to 2^120 takes lambda across 1.8
        a, b = data.draw(elements(D, 8)), data.draw(elements(D, 8))
        c = data.draw(elements(D, 2 ** data.draw(st.integers(0, 120))))
    if kind == "equal":
        b = a
    elif kind == "zero":
        zero = QuadInt(ring, 0, 0)
        which = data.draw(st.sampled_from(["a", "b", "c", "ab"]))
        a = zero if "a" in which else a
        b = zero if "b" in which else b
        c = zero if which == "c" else c
    elif kind == "mixed":  # a*b raises first, then (ab)*c
        Db, Dc = data.draw(st.lists(st.sampled_from([E for E in GAP_DS if E != D]), min_size=2, max_size=2))
        which = data.draw(st.sampled_from(["b", "c", "bc"]))
        b = QuadInt(make_ring(Db), b.x, b.y) if "b" in which else b
        c = QuadInt(make_ring(Dc), c.x, c.y) if "c" in which else c
    assert_matches_reference_kernel(a, b, c)


def test_gap_lemma_checks_matches_object_kernel_on_fixed_sets():
    for D, *coords in FIXED_GAP_SETS:
        assert_matches_reference_kernel(*(QuadInt(make_ring(D), x, y) for x, y in coords))
    # the exact tie p = sqrt(47/42): margin 0.0 on both sides
    assert_matches_reference_kernel(*(QuadInt(make_ring(1), x, 0) for x in (1, -1, -22)))
    # three rings: the message names the ring of b, as a*b raises before (ab)*c
    assert_matches_reference_kernel(*(QuadInt(make_ring(D), 2, 1) for D in (1, 2, 3)))


@pytest.mark.parametrize(
    "f, args",
    [
        (jz_constants, ((1, 1, 0), (1, -1, 0), (2, 100, 0))),
        (jz_constants, ((1, 1, 0), (2, 0, 0), (1, 100, 0), 1)),  # before the zero and precision checks
        (bounds.check_gap_hypotheses, ((1, 2, 0), (2, 25, 0), (1, 41, 0))),
        (bounds.lower_bound_d, ((1, 2, 0), (2, 25, 0))),
    ],
    ids=["jz-T", "jz-first", "hypotheses", "lower-bound"],
)
def test_mixed_rings_raise_before_any_work(f, args):
    # as gap_lemma_checks does: the ValueError a product of the two rings would raise
    elems = [a if isinstance(a, int) else QuadInt(make_ring(a[0]), *a[1:]) for a in args]
    with pytest.raises(ValueError, match=f"^{re.escape(f'mixed rings: {make_ring(1)} vs {make_ring(2)}')}$"):
        f(*elems)


def powers_taken(mp) -> list:
    """Record the arguments of each bounds._zsqrt_pow call; none means the lambda certificate decided."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _zsqrt_pow(*args)

    mp.setattr(bounds, "_zsqrt_pow", spy)
    return calls


def test_gap_lambda_certificate_forms_no_power_on_fixed_sets(monkeypatch):
    calls = powers_taken(monkeypatch)
    for D, *coords in FIXED_GAP_SETS[-2:]:  # the two gap-lemma shaped sets
        assert_matches_reference_kernel(*(QuadInt(make_ring(D), x, y) for x, y in coords))
    assert calls == []


@settings(max_examples=200, deadline=None)
@given(D=st.sampled_from(GAP_DS), data=st.data())
def test_gap_lambda_certificate_covers_the_hypotheses(D, data):
    # every set meeting the gap-lemma hypotheses exactly meets the certificate
    ring = make_ring(D)
    a, b = data.draw(elements(D, 10)), data.draw(elements(D, 60))
    c = QuadInt(ring, norm(b) ** 8 + data.draw(st.integers(1, 10**6)), data.draw(st.integers(0, 50)))
    assume(bounds.check_gap_hypotheses(a, b, c).all_hold)
    with pytest.MonkeyPatch.context() as mp:
        calls = powers_taken(mp)
        assert_matches_reference_kernel(a, b, c)
    assert calls == []


def test_gap_lambda_near_cap_reaches_the_powers(monkeypatch):
    # lambda within a hair of 1.8 (norm(c) = 105676804 and ...805, and the min = 4 pair) is
    # decided by the powers in Z[sqrt(m)], not by the certificate
    calls = powers_taken(monkeypatch)
    for D, *coords in FIXED_GAP_SETS[3:7]:
        calls.clear()
        assert_matches_reference_kernel(*(QuadInt(make_ring(D), x, y) for x, y in coords))
        assert [k for *_, k in calls] == [5, 8], coords


def certificate_conditions(a: QuadInt, b: QuadInt, c: QuadInt) -> tuple[bool, bool]:
    """Conditions (a) and (b) of the lambda certificate, restated from gap_lemma_checks' docstring."""
    n1, n2, n12 = norm(b), norm(a), norm(b - a)  # at (a1, a2) = (-b, -a)
    nT, M_sq, N, least = n1 * n2 * norm(c), max(n1, n2), n1 * n2 * n12, min(n1, n2, n12)
    bl = int.bit_length
    return bl(nT) >= bl(M_sq) + 68, 15 * bl(least) + 3 * bl(nT) >= 18 * bl(N) + 63


def test_gap_lambda_certificate_edges(monkeypatch):
    # Z[i], c = (1 + i)^e: each step of e adds one bit to norm(T).  At (a, b) = (1, 2) condition
    # (b) holds from e = 31 and (a) from e = 68, while the exact margin reaches 1.0 at e = 62; at
    # (1, 10) (a) holds from e = 68 and (b) from e = 87, while lambda < 1.8 holds from e = 86.  So
    # the route flips one bit either side of each condition, and a certificate without (a) or (b)
    # would return a margin or verdict the powers do not give
    calls = powers_taken(monkeypatch)
    ring = make_ring(1)
    seen = set()
    for a, b, edge in ((1, 2, 68), (1, 10, 87)):
        a, b, c = QuadInt(ring, a, 0), QuadInt(ring, b, 0), QuadInt(ring, 1, 0)
        for e in range(edge + 2):
            conditions = certificate_conditions(a, b, c)
            if e in (edge - 1, edge):
                assert all(conditions) == (e == edge), (a, b, e, conditions)
            calls.clear()
            got = outcome(gap_lemma_checks, a, b, c)
            assert got == outcome(reference_gap_lemma_checks, a, b, c), (a, b, e)
            if isinstance(got, dict):  # else |T| <= M or L <= 1 raised before lambda
                assert (not calls) == all(conditions), (a, b, e)
            seen.add(conditions)
            c = c * QuadInt(ring, 1, 1)
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(-(2**300), 2**300),
    b=st.integers(-(2**300), 2**300),
    m=st.integers(1, 2**600),
    k=st.integers(0, 20),
)
def test_zsqrt_pow_matches_naive_loop(a, b, m, k):
    x, y = 1, 0
    for _ in range(k):
        x, y = x * a + y * b * m, x * b + y * a
    assert _zsqrt_pow(a, b, m, k) == (x, y)


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


@st.composite
def sqrt_radicands(draw) -> int:
    """n in [0, 2^4000]: any bit length, a perfect square, or 4^k - 1, 4^k, 4^k + 1."""
    kind = draw(st.sampled_from(["any", "square", "power of 4"]))
    if kind == "any":
        return draw(st.integers(0, 2 ** draw(st.integers(0, 4000))))
    if kind == "square":
        return draw(st.integers(0, 2 ** draw(st.integers(0, 2000)))) ** 2
    return 4 ** draw(st.integers(0, 1999)) + draw(st.sampled_from([-1, 0, 1]))


@settings(max_examples=600, deadline=None)
@given(n=sqrt_radicands(), prec=st.integers(53, 2048))
def test_iv_sqrt_matches_mpi_sqrt_on_integers(n, prec):
    # n shorter than prec converts exactly; longer, its endpoints are rounded, with either exponent parity
    x = from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)
    assert _iv_sqrt(x, prec) == mpi_sqrt(x, prec)


@settings(max_examples=300, deadline=None)
@given(
    lo=st.tuples(st.integers(0, 2**2100), st.integers(-3000, 3000)),
    hi=st.tuples(st.integers(0, 2**2100), st.integers(-3000, 3000)),
    prec=st.integers(53, 2048),
)
def test_iv_sqrt_matches_mpi_sqrt_on_dyadics(lo, hi, prec):
    # p and the theta defects take roots of interval results: non-negative prec-bit endpoints m*2^e.
    # Each endpoint is rounded on its own, so the pair need not be ordered
    x = from_man_exp(*lo, prec, round_floor), from_man_exp(*hi, prec, round_ceiling)
    assert _iv_sqrt(x, prec) == mpi_sqrt(x, prec)


JZ_NAMES = ("L", "l", "p", "P", "lam", "c1")


def jz_endpoints(consts) -> tuple:
    return tuple(getattr(consts, name).enclosure._mpi_ for name in JZ_NAMES)


@settings(max_examples=150, deadline=None)
@given(
    D=st.sampled_from([1, 2, 3, 5, 7, 11, 19, 163]),
    a=st.tuples(*[st.integers(-60, 60)] * 4),
    T_bits=st.integers(8, 140),
    data=st.data(),
    bits=st.sampled_from([64, 65, 128, 256, 1024]),
)
def test_jz_constants_match_iv_reference(D, a, T_bits, data, bits):
    # every endpoint, bit for bit, equals mpmath.iv's evaluation of the same expressions
    ring = make_ring(D)
    a1, a2 = QuadInt(ring, *a[:2]), QuadInt(ring, *a[2:])
    T = QuadInt(ring, *data.draw(st.tuples(*[st.integers(-(2**T_bits), 2**T_bits)] * 2)))
    try:
        consts = jz_constants(a1, a2, T, bits)
    except (HypothesisFailure, ValueError):
        assume(False)
    assert jz_endpoints(consts) == tuple(x._mpi_ for x in iv_jz_reference(a1, a2, T, bits))


@pytest.mark.parametrize("bits", [64, 65, 128, 256, 1024])
@pytest.mark.parametrize("T", [3, 4, 5])
def test_jz_constants_match_iv_reference_where_2l_exceeds_1(T, bits):
    # 2l > 1 here, so max(1, 2l)^(lambda - 1) has a base above 1
    a1, a2, t = QuadInt(make_ring(1), 1, 0), QuadInt(make_ring(1), -1, 0), QuadInt(make_ring(1), T, 0)
    consts = jz_constants(a1, a2, t, bits)
    assert float(consts.l) > 0.5
    assert jz_endpoints(consts) == tuple(x._mpi_ for x in iv_jz_reference(a1, a2, t, bits))


@settings(max_examples=60, deadline=None)
@given(
    D=st.sampled_from(GAP_DS),
    a=st.tuples(*[st.integers(-10, 10)] * 2),
    b=st.tuples(*[st.integers(-60, 60)] * 2),
    extra=st.integers(1, 10**6),
    cy=st.integers(0, 49),
)
def test_jz_constants_match_iv_reference_at_64_bits_on_gap_sets(D, a, b, extra, cy):
    # the smallest precision accepted, at the lemma's instantiation (-b, -a, abc) under |c| > |b|^16,
    # where the small-integer intervals (bounds._IV_2, ...) meet the widest relative rounding
    ring = make_ring(D)
    a, b = QuadInt(ring, *a), QuadInt(ring, *b)
    assume(norm(a) >= 4 and norm(b) >= 484 and 4 * norm(b) >= 9 * norm(a))
    c = QuadInt(ring, norm(b) ** 8 + extra, cy)
    assume(norm(c) > norm(b) ** 16)
    a1, a2, T = -b, -a, a * b * c
    assert jz_endpoints(jz_constants(a1, a2, T, 64)) == tuple(x._mpi_ for x in iv_jz_reference(a1, a2, T, 64))


@pytest.mark.parametrize("prec", [64, 65, 128, 1024, 4096])
def test_small_integer_intervals_are_exact_at_every_precision(prec):
    # each module constant _IV_k is the interval _iv_int(k, prec) that the kernels would otherwise build per call
    names = [name for name in vars(bounds) if re.fullmatch(r"_IV_\d+", name)]
    assert len(names) == 9
    for name in names:
        k = int(name.removeprefix("_IV_"))
        assert getattr(bounds, name) == bounds._iv_int(k, prec), name


def plain_margin(x: int, y: int) -> float:
    """|x - y| / max(|x|, |y|) by one int true division, 0.0 for x = y = 0."""
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


@settings(max_examples=500, deadline=None)
@given(
    small=st.integers(0, 2**300),
    gap=st.integers(53, 57),
    edge=st.sampled_from(["low", "high", "any"]),
    signs=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
    swap=st.booleans(),
    data=st.data(),
)
def test_margin_matches_plain_quotient_across_the_bit_gap(small, gap, edge, signs, swap, data):
    # around the 55-bit gap at which _margin returns 1.0 without dividing; the larger operand at the
    # bottom or top of its bit length, small = 0 included
    bits = small.bit_length() + gap
    lo, hi = 2 ** (bits - 1), 2**bits - 1
    big = {"low": lo, "high": hi, "any": data.draw(st.integers(lo, hi))}[edge]
    x, y = signs[0] * big, signs[1] * small
    if swap:
        x, y = y, x
    assert bounds._margin(x, y) == plain_margin(x, y)
    if gap >= 55:
        assert plain_margin(x, y) == 1.0


@pytest.mark.parametrize("k", [55, 56, 64, 200, 1000])
def test_margin_edges(k):
    cases = [(0, 0), (7, 7), (-7, -7), (2**k, 2**k), (0, 2**k), (-(2**k), 0)]
    for s in (2 ** (k - 55), 2 ** (k - 55) - 1, 2 ** (k - 54), 2 ** (k - 54) - 1, 2 ** (k - 53) - 1):
        cases += [(2**k, s), (2**k, -s), (-s, 2**k), (2**k - 1, s), (s, 1 - 2**k)]
    for x, y in cases:
        assert bounds._margin(x, y) == plain_margin(x, y), (x, y)
    assert bounds._margin(0, 0) == 0.0 and bounds._margin(2**k, 2**k) == 0.0


def extension_witnesses() -> list:
    """Pell witnesses of {1, 2, 5, -24} and {2, 5, 13, -480} in Z[i], negated and with conjugated roots."""
    ring = make_ring(1)
    out = []
    for quad in ((1, 2, 5, -24), (2, 5, 13, -480)):
        a, b, c, d = quad
        pairs = ((a, b), (a, c), (b, c), (a, d), (b, d), (c, d))  # r, s, t, x, y, z
        roots = [reference_sqrt(QuadInt(ring, p * q - 1, 0)) for p, q in pairs]
        for sign in (1, -1):
            for conj in (False, True):
                elems = [QuadInt(ring, sign * v, 0) for v in quad]
                out.append(PellWitness(*elems, *(r.conj() if conj else r for r in roots)))
    return out


@pytest.mark.parametrize("w", extension_witnesses() + chain_witnesses())
def test_theta_defect_matches_iv_reference(w):
    tc = theta_defect(w)
    got = (tc.defect1, tc.defect2, tc.middle1, tc.middle2_symmetric, tc.outer)
    assert tuple(x.enclosure._mpi_ for x in got) == tuple(x._mpi_ for x in iv_theta_reference(w))
