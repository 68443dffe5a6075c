"""Property tests for the integer graph kernel and the square-root core."""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from diotuples.quad_ring import QuadInt, from_half, make_ring, sqrt_exact
from diotuples.search import build_graph, enum_elements
from diotuples.tuples import pair_witness
from helpers import canonical_sign

GRAPH_DS = [1, 2, 3, 5, 7, 11, 15]
# both omega conventions, small and far fields
SQRT_DS = [1, 2, 3, 5, 6, 7, 11, 15, 19, 163, 895]


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
