"""Property tests for the integer kernels: graph, extension scan, square root, division."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from diotuples.quad_ring import (
    QuadInt,
    exact_div,
    format_elem,
    from_half,
    make_ring,
    parse_elem,
    sqrt_exact,
)
from diotuples.search import build_graph, enum_elements
from diotuples.tuples import extend_triple, pair_witness
from helpers import canonical_sign, chain_quadruples_zi, reference_extend, witness_triples

GRAPH_DS = [1, 2, 3, 5, 7, 11, 15]
# both omega conventions, small and far fields
SQRT_DS = [1, 2, 3, 5, 6, 7, 11, 15, 19, 163, 895]
EXTEND_DS = [1, 2, 3, 7, 11]  # omega = sqrt(-D) for 1, 2; (1+sqrt(-D))/2 for 3, 7, 11
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
    for i, j in combinations(range(len(g.vertices)), 2):
        want = pair_witness(g.vertices[i], g.vertices[j], n) is not None
        assert bool(g.adj[i] >> j & 1) == want, (g.vertices[i], g.vertices[j], n)
        assert bool(g.adj[j] >> i & 1) == want
    assert all(not m >> i & 1 for i, m in enumerate(g.adj))


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
