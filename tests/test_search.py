from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import time
from itertools import combinations
from math import isqrt
from random import Random

import pytest

from diotuples import search
from diotuples.quad_ring import (
    ElementRows,
    QuadInt,
    elem_from_json,
    elem_key,
    format_elem,
    from_half,
    is_squarefree,
    make_ring,
    parse_elem,
)
from diotuples.search import (
    SearchConfig,
    build_graph,
    clamp_workers,
    enum_elements,
    field_cost,
    find_cliques,
    run_campaign,
)
from diotuples.tuples import extend_triple, make_tuple, verify_tuple
from helpers import (
    adjacency_masks,
    box_elements,
    brute_force_tuples,
    chain_quadruples_zi,
    list_graph,
    reference_cliques,
    reference_sqrt,
    reference_witness,
)

R1 = make_ring(1)
R3 = make_ring(3)
M1 = QuadInt(R1, -1, 0)


def q1(x, y=0):
    return QuadInt(R1, x, y)


class TestEnumElements:
    def test_unit_counts(self):
        assert len(enum_elements(R1, 1)) == 4
        assert len(enum_elements(R3, 1)) == 6

    def test_far_half_ring(self):
        got = enum_elements(make_ring(163), 40)
        assert sorted(format_elem(e) for e in got) == sorted(
            str(s) for k in range(1, 7) for s in (k, -k)
        )

    def test_matches_box_oracle(self):
        rng = Random(21)
        for _ in range(12):
            D = rng.choice([1, 2, 3, 5, 7, 11, 15, 19])
            max_norm = rng.randrange(1, 80)
            ring = make_ring(D)
            got = enum_elements(ring, max_norm)
            assert list(got) == sorted(box_elements(ring, max_norm), key=elem_key)
            assert len(set(got)) == len(got)

    def test_bad_bound(self):
        # enum_elements returns ElementRows(ring, max_norm), the ball's only constructor
        for build in (enum_elements, ElementRows):
            for max_norm in (0, -1):
                with pytest.raises(ValueError, match="max_norm"):
                    build(R1, max_norm)


class TestBuildGraph:
    def test_complete_on_quadruple(self):
        g = list_graph([q1(1), q1(2), q1(5), q1(-24)], M1)
        assert g.edge_count == 6

    def test_adjacency_pinned_d1_576(self):
        # adjacency recorded from the object-arithmetic build, before the integer kernel
        g = build_graph(enum_elements(R1, 576), M1)
        assert (len(g.vertices), g.edge_count) == (1792, 8937)
        assert adjacency_digest(g) == "fd8f5760a8a2c12c71c49ef885f511d1628312b90f1bc226b09203af378ef1f4"

    def test_sign_class_pairs(self):
        # {1, -1}: 1*(-1) + 1 = 0 is a square
        g = list_graph([q1(1), q1(-1), q1(3)], QuadInt(R1, 1, 0))
        assert {frozenset(e) for e in g.edges()} == {frozenset((q1(1), q1(-1))), frozenset((q1(1), q1(3)))}

    def test_no_edge(self):
        g = list_graph([q1(1), q1(3)], M1)
        assert g.edge_count == 0

    def test_empty(self):
        # a ball holds the units, so an empty vertex set is never one
        with pytest.raises(ValueError, match="norm ball"):
            build_graph([], M1)

    def test_rejects_bad_vertices(self):
        # only a ball as enum_elements returns it is taken; a list is rejected, even one of a whole ball
        for elems in ([q1(0), q1(1)], [q1(1), q1(1)], [q1(1), q1(2)], list(enum_elements(R1, 5))):
            with pytest.raises(ValueError, match="norm ball"):
                build_graph(elems, M1)

    @pytest.mark.parametrize("D", [1, 2, 3, 7])
    def test_rejects_all_but_a_whole_ball(self, D):
        ring = make_ring(D)
        ball = enum_elements(ring, 37)
        other = make_ring(5 if D == 1 else 1)
        # a ball is whole by construction, so only its ring can be wrong
        with pytest.raises(ValueError, match="norm ball"):
            build_graph(ball, QuadInt(other, -1, 0))  # another ring
        assert build_graph(ball, QuadInt(ring, -1, 0)).vertices is ball

    def test_edges_match_pairwise_definition(self):
        elems = enum_elements(R1, 20)
        g = build_graph(elems, M1)
        edge_set = {frozenset(e) for e in g.edges()}
        want = {
            frozenset((a, b))
            for a, b in combinations(elems, 2)
            if reference_witness(a, b, M1) is not None
        }
        assert edge_set == want

    @pytest.mark.parametrize("D", [1, 2, 3, 7])
    @pytest.mark.parametrize("max_norm", [1, 37, 600])
    def test_rows_and_list_agree(self, D, max_norm):
        # build_graph takes enum_elements' rows and rejects a list of the same elements; list_graph
        # gives the list, in any order, the ball's graph; n = -1 takes the scan up to conjugation,
        # sqrt(-D) the full scan
        ring = make_ring(D)
        ball = enum_elements(ring, max_norm)
        listed = list(ball)
        Random(D).shuffle(listed)
        for n in (QuadInt(ring, -1, 0), from_half(ring, 0, 2)):
            with pytest.raises(ValueError, match="norm ball"):
                build_graph(listed, n)
            g, h = build_graph(ball, n), list_graph(listed, n)
            assert g.fwd == h.fwd
            assert g.vertices is ball and h.vertices == list(ball)


def adjacency_digest(g) -> str:
    return hashlib.sha256(",".join(map(str, adjacency_masks(g))).encode()).hexdigest()


def pairwise_edges(elems, n) -> set[frozenset]:
    return {frozenset((a, b)) for a, b in combinations(elems, 2) if reference_witness(a, b, n) is not None}


class TestDivisorKernel:
    # the digests were recorded from the all-pairs build, before the divisor kernel
    @pytest.mark.parametrize(
        "D, max_norm, size, digest",
        [
            (1, 2000, (6292, 38291), "0e050adbc3ba3fccc0c16ed38b5a4ad49cdc87bad3220a5e2bc9ef1ee9067301"),
            (3, 1000, (3642, 3110), "c7102d66a4b91715e42b11bbc381e11e55e9f2bd829d4cc9b8178e4f5c4b1c6d"),
        ],
        ids=["D1-N2000", "D3-N1000"],
    )
    def test_adjacency_pinned_large(self, D, max_norm, size, digest):
        ring = make_ring(D)
        g = build_graph(enum_elements(ring, max_norm), QuadInt(ring, -1, 0))
        assert (len(g.vertices), g.edge_count) == size
        assert adjacency_digest(g) == digest

    @pytest.mark.parametrize("D", [1, 2, 3, 7])
    def test_zero_shift(self, D):
        # n = 0: w = x**2 - n vanishes at x = 0, and {a, b} is an edge iff a*b is a square
        ring = make_ring(D)
        n = QuadInt(ring, 0, 0)
        elems = enum_elements(ring, 40)
        g = build_graph(elems, n)
        assert g.edge_count > 0
        assert {frozenset(e) for e in g.edges()} == pairwise_edges(elems, n)

    @pytest.mark.parametrize("D", [3, 7, 11])
    def test_half_mode_non_real_shift(self, D):
        # n = omega = (1+sqrt(-D))/2 and n = 2 - omega have odd half-coordinates
        ring = make_ring(D)
        elems = enum_elements(ring, 60)
        for n in (QuadInt(ring, 0, 1), QuadInt(ring, 2, -1)):
            g = build_graph(elems, n)
            assert g.edge_count > 0
            assert {frozenset(e) for e in g.edges()} == pairwise_edges(elems, n)

    @pytest.mark.parametrize("D", [1, 2, 3, 7])
    def test_pairs_not_closed_under_negation(self, D):
        # a vertex set in which some a lack -a is not a ball; its graph is the subgraph of the
        # ball's graph on it: a list of lower-half-plane elements, which has no vertex in the
        # half-plane of _class_rows, and lists in which some a lack -a, on either side
        ring = make_ring(D)
        rng = Random(D)
        ball = enum_elements(ring, 40)
        upper = [e for e in ball if e.half_coords() > (0, 0)]
        lower = [e for e in ball if e.half_coords() < (0, 0)]
        lists = {
            "lower": lower,
            "upper, some lower": upper + rng.sample(lower, len(lower) // 2),
            "lower, some upper": lower + rng.sample(upper, len(upper) // 2),
        }
        for n in (QuadInt(ring, -1, 0), QuadInt(ring, 0, 1)):  # -1 and omega, which is not real
            for name, elems in lists.items():
                want = pairwise_edges(elems, n)
                assert want, (name, n)
                assert {frozenset(e) for e in list_graph(elems, n).edges()} == want, (name, n)

    def test_sparse_list_with_high_norm(self):
        # the subgraph of the ball up to norm 10**4 on five of its elements
        elems = [q1(1), q1(2), q1(5), q1(-24), q1(100)]  # -24*100 - 1 = (49i)**2
        g = list_graph(elems, M1)
        want = pairwise_edges(elems, M1)
        assert frozenset((q1(-24), q1(100))) in want and len(want) == 7
        assert {frozenset(e) for e in g.edges()} == want

    def test_large_shift_widens_witness_range(self):
        # 1*2 + 23 = 5**2: norm(x) = 25 is far above the ball's largest norm 4, so the range needs
        # the norm(n) term
        g = list_graph([q1(1), q1(2)], q1(23))
        assert g.edge_count == 1
        # (-6-6i)(-3-i) + 4+6i = (5+3i)**2, a shift that is not rational
        g = list_graph([q1(-6, -6), q1(-3, -1)], q1(4, 6))
        assert g.edge_count == 1
        # i*(-i) + 3 = 2**2 with norm 4 = 1 + isqrt(9) in the unit ball: the bound is tight
        g = build_graph(enum_elements(R1, 1), q1(3))
        assert {frozenset(e) for e in g.edges()} == {frozenset((q1(0, 1), q1(0, -1)))}

    def test_norm_window_ends(self):
        # the window of m = norm(a) is ceil(M/N1) <= m <= isqrt(M), with M = norm(a*b)
        # (1+i)(1-i) - 1 = 1**2: equal norms, m*m = M, the top end
        # 1*(-24) - 1 = (5i)**2: norm(-24) = N1, m = M/N1, the bottom end
        elems = [q1(1), q1(1, 1), q1(1, -1), q1(-24)]
        g = list_graph(elems, M1)
        want = pairwise_edges(elems, M1)
        assert {frozenset((q1(1, 1), q1(1, -1))), frozenset((q1(1), q1(-24)))} <= want
        assert {frozenset(e) for e in g.edges()} == want

    @pytest.mark.parametrize("D", [1, 2, 3, 5, 7])
    def test_quotient_outside_ring(self, D):
        # the inlined division: for w = x**2 - n = (WU + WV*s)/2 and a vertex a = (u + v*s)/2 of norm m,
        # w/a is (P + Q*s)/2m with P = WU*u + WV*D*v, Q = WV*u - WU*v.  Some w and a have 2m | P and
        # 2m | Q but a quotient outside O_K (its norm not an integer).  Each of these has m not
        # dividing M = norm(w), which build_graph tests first, so it never looks such a quotient up
        ring = make_ring(D)
        ball = enum_elements(ring, 30)
        vertices = [(a.norm(), *a.half_coords()) for a in ball]  # both members of each pair {a, -a}
        for n in (QuadInt(ring, -1, 0), QuadInt(ring, 0, 1)):  # -1, and omega or sqrt(-D)
            Un, Vn = n.half_coords()
            r = 4 * (ball.half[-1][0] + isqrt(n.norm()))  # the witnesses: norm(x) <= N + isqrt(norm(n))
            box = range(-isqrt(r), isqrt(r) + 1)
            xs = [(p, q) for p in box for q in box if p * p + D * q * q <= r and (p * p + D * q * q) % 4 == 0]
            outside = []
            for p, q in xs:
                WU, WV = (p * p - D * q * q) // 2 - Un, p * q - Vn
                M = (WU * WU + D * WV * WV) // 4
                for m, u, v in vertices:
                    P, Q = WU * u + WV * D * v, WV * u - WU * v
                    if P % (2 * m) == 0 and Q % (2 * m) == 0:
                        bu, bv = P // (2 * m), Q // (2 * m)
                        if (bu * bu + D * bv * bv) % 4:
                            outside.append(M % m)
            assert outside, (D, n)
            assert 0 not in outside, (D, n)
            assert {frozenset(e) for e in build_graph(ball, n).edges()} == pairwise_edges(ball, n)

    @pytest.mark.parametrize("D", [1, 2, 3, 7, 163, 895])
    @pytest.mark.parametrize("max_norm", [1, 2, 5, 224])
    def test_vertex_key(self, D, max_norm):
        # every element of norm <= N lies in the box |u| <= isqrt(4*N), |v| <= isqrt(4*N // D)
        # (u**2 + D*v**2 <= 4*N), quotients included; slots lays the box out from its corners at 0
        # and 2*off, holds each vertex's index at its slot and None at every other point
        ball = enum_elements(make_ring(D), max_norm)
        S, off, slots = search._vertex_index(ball)
        N = ball.half[-1][0]
        us, vs = isqrt(4 * N), isqrt(4 * N // D)
        assert S == 2 * vs + 1
        assert len(slots) == 2 * off + 1 == (2 * us + 1) * S
        assert all(slots[u * S + v + off] == i for i, (u, v) in enumerate(a.half_coords() for a in ball))
        assert sum(j is not None for j in slots) == len(ball)
        corners = sorted(u * S + v + off for u in (-us, us) for v in (-vs, vs))
        assert corners[0] == 0 and corners[-1] == 2 * off
        # the box points outside the ball: 0, those of norm > N, and those that are not integral
        ball_points = {a.half_coords() for a in ball}
        outside = [(u, v) for u in range(-us, us + 1) for v in range(-vs, vs + 1) if (u, v) not in ball_points]
        assert (0, 0) in outside
        assert all(slots[u * S + v + off] is None for u, v in outside)

    def test_witness_zero(self):
        # x = 0 is a witness: i*(-i) - 1 = 0
        g = list_graph([q1(0, 1), q1(0, -1), q1(2)], M1)
        assert {frozenset(e) for e in g.edges()} == {frozenset((q1(0, 1), q1(0, -1)))}


class TestUnmetNorms:
    # build_graph makes forward-neighbour sets only for the norms m it divides by (m*m <= M, m | M and
    # M/m a vertex norm, for some M = norm(x**2 - n)); the vertices of every other norm share one
    # empty frozenset.  On these fields most vertices lie in norms never met
    @pytest.mark.parametrize("D", [7, 163, 219, 221, 223])
    @pytest.mark.parametrize("max_norm", [143, 224])
    @pytest.mark.parametrize("n_text", ["-1", "3", "2+1*w"])
    def test_graph_matches_oracles(self, D, max_norm, n_text):
        ring = make_ring(D)
        n = parse_elem(n_text, ring)
        ball = enum_elements(ring, max_norm)
        g = build_graph(ball, n)
        assert 2 * sum(f is search._NO_NEIGHBOURS for f in g.fwd) > len(ball)
        check_roots(g)
        want = pairwise_edges(ball, n)
        assert {frozenset(e) for e in g.edges()} == want
        assert g.edge_count == len(want)
        for k in (2, 3):
            cliques = reference_cliques(g.fwd, k)
            assert find_cliques(g, k) == [tuple(map(ball.__getitem__, c)) for c in cliques]
            roots = orbit_roots_oracle(g, k)
            assert [i for i in g.roots if len(g.fwd[i]) >= k - 1] == roots
            assert search._clique_indices(g.fwd, k, roots) == [c for c in cliques if c[0] in roots]

    def test_campaign_fields(self):
        # the 139 fields of the quintuple scan (N = 224, n = -1): met norms found from every x with
        # norm(x) <= N + 1 by element arithmetic; 2,800 of their 17,024 vertices lie in met norms
        met_vertices = total = 0
        for D in SQUAREFREE_225:
            ring = make_ring(D)
            n = QuadInt(ring, -1, 0)
            ball = enum_elements(ring, 224)
            norms = {a.norm() for a in ball}
            met = set()
            for x in [QuadInt(ring, 0, 0), *box_elements(ring, max(norms) + 1)]:
                M = (x * x - n).norm()
                met.update(m for m in norms if m * m <= M and M % m == 0 and M // m in norms)
            g = build_graph(ball, n)
            assert [f is search._NO_NEIGHBOURS for f in g.fwd] == [a.norm() not in met for a in ball], D
            check_roots(g)
            met_vertices += sum(a.norm() in met for a in ball)
            total += len(ball)
            for k in (4, 5):
                assert find_cliques(g, k) == [tuple(map(ball.__getitem__, c)) for c in reference_cliques(g.fwd, k)]
        assert search._NO_NEIGHBOURS == frozenset()
        assert (met_vertices, total) == (2800, 17024)


class TestFindCliques:
    def test_k4(self):
        g = list_graph([q1(1), q1(2), q1(5), q1(-24)], M1)
        cliques = find_cliques(g, 4)
        assert len(cliques) == 1
        assert sorted(format_elem(e) for e in cliques[0]) == ["-24", "1", "2", "5"]

    def test_k2_is_edge_list(self):
        elems = enum_elements(R1, 30)
        g = build_graph(elems, M1)
        cliques = {frozenset(c) for c in find_cliques(g, 2)}
        assert cliques == {frozenset(e) for e in g.edges()}

    def test_k_too_small(self):
        g = build_graph(enum_elements(R1, 1), M1)
        with pytest.raises(ValueError):
            find_cliques(g, 1)

    @pytest.mark.parametrize("D", [1, 2, 3, 5, 7, 11])
    def test_oracle_equivalence_sampled(self, D):
        ring = make_ring(D)
        n = QuadInt(ring, -1, 0)
        rng = Random(100 + D)
        for _ in range(4):
            max_norm = rng.randrange(5, 61)
            elems = enum_elements(ring, max_norm)
            g = build_graph(elems, n)
            for k in (3, 4):
                got = find_cliques(g, k)
                want = brute_force_tuples(elems, k, n)
                assert len(got) == len(set(got)) and set(got) == set(want)

    def test_literal_subset_filter_small(self):
        # on a tiny instance, compare against filtering every k-subset literally
        elems = enum_elements(R1, 12)
        g = build_graph(elems, M1)
        for k in (2, 3):
            literal = [
                tuple(sub)
                for sub in combinations(elems, k)
                if verify_tuple(make_tuple(R1, M1, sub)).ok
            ]
            assert set(find_cliques(g, k)) == set(literal)
            assert set(brute_force_tuples(elems, k, M1)) == set(literal)

    # recorded from the bitmask DFS; a search field's listing from its orbit roots is an ordered sublist of it
    @pytest.mark.parametrize(
        "D, max_norm, count, digest",
        [
            (1, 576, 2398, "214f9eb7e6329d99d11d1bc87112f9fd873fe7fa5c77dc2dab599b9c90f1ae2e"),
            (3, 600, 698, "8e1ab5b4a570e6dffaa427eca9731610640093c9c273d697a4f136622c64738f"),
        ],
        ids=["D1-N576", "D3-N600"],
    )
    def test_clique_order_pinned(self, D, max_norm, count, digest):
        ring = make_ring(D)
        g = build_graph(enum_elements(ring, max_norm), QuadInt(ring, -1, 0))
        cliques = find_cliques(g, 3)
        blob = json.dumps([[[e.x, e.y] for e in c] for c in cliques]).encode()
        assert len(cliques) == count
        assert hashlib.sha256(blob).hexdigest() == digest


class TestOrbitRoots:
    # (D, max_norm, k, n): k in {2, 3, 4}; n rational (conjugation and negation) and not
    # (negation only); D = 3 mod 4 fields; the dense n = 0 graph at D=1, N=200 (21,720 cliques)
    FIELDS = [
        (1, 576, 3, "-1"),
        (1, 576, 4, "-1"),
        (3, 600, 3, "-1"),
        (2, 1000, 3, "-1"),
        (7, 500, 3, "-2"),
        (1, 400, 3, "2+1*w"),
        (1, 2500, 4, "-1"),
        (5, 300, 3, "3"),
        (6, 300, 3, "0"),
        (1, 200, 4, "0"),
        (15, 300, 3, "0+1*w"),
        (3, 300, 3, "1-1*w"),
        (2, 300, 3, "-1+2*w"),
        (1, 300, 2, "-1"),
        (3, 200, 2, "1-1*w"),
    ]

    @pytest.mark.parametrize("D, max_norm, k, n_text", FIELDS)
    def test_field_records_equal_full_listing(self, D, max_norm, k, n_text):
        # a field lists cliques from its orbit roots only; grouping the full listing, as fields
        # did before, must give the same records in the same order
        ring = make_ring(D)
        n = parse_elem(n_text, ring)
        g = build_graph(enum_elements(ring, max_norm), n)
        full = find_cliques(g, k)
        want = search._group_orbits(full, n)
        assert want
        res = search._run_field(D, max_norm, k, n)
        assert res.cliques == want
        # a pool worker hands the FieldResult back pickled
        assert type(res) is search.FieldResult and pickle.loads(pickle.dumps(res)) == res
        # the root listing is an ordered sublist of the full one, and shorter
        roots = search._clique_indices(g.fwd, k, g.roots)
        rest = iter(search._clique_indices(g.fwd, k, range(len(g.fwd))))
        assert all(c in rest for c in roots)
        assert len(roots) < len(full)

    @pytest.mark.parametrize("D", [1, 2, 3, 7])
    @pytest.mark.parametrize("n_text", ["-1", "0", "1+1*w"])
    def test_roots_match_oracle(self, D, n_text):
        # a vertex of degree >= k - 1 is a root exactly when its index is the smallest ball position
        # of a, -a, conj(a) and -conj(a) (conjugates only for rational n), found here by element
        # arithmetic and a position lookup, not by build_graph's integer keys
        ring = make_ring(D)
        g = build_graph(enum_elements(ring, 150), parse_elem(n_text, ring))
        for k in (2, 3, 4):
            want = orbit_roots_oracle(g, k)
            assert want
            assert [i for i in g.roots if len(g.fwd[i]) >= k - 1] == want

    @pytest.mark.parametrize("D, max_norm, k, n_text", FIELDS)
    def test_roots_hold_every_orbit_with_an_edge(self, D, max_norm, k, n_text):
        ring = make_ring(D)
        check_roots(build_graph(enum_elements(ring, max_norm), parse_elem(n_text, ring)))


def orbit_minima(g) -> list[int]:
    """For each vertex, the smallest ball position of its images.

    The images of a are a and -a, and conj(a) and -conj(a) when n is rational;
    found by element arithmetic and a position lookup, not by build_graph's
    integer keys.
    """
    ball = g.vertices
    pos = {e: i for i, e in enumerate(ball)}
    rational = g.n.half_coords()[1] == 0

    def images(a):
        return [a, -a, a.conj(), -a.conj()] if rational else [a, -a]

    return [min(pos[b] for b in images(a)) for a in ball]


def orbit_roots_oracle(g, k: int) -> list[int]:
    """The vertices of degree >= k - 1 whose index is the smallest ball position of their images."""
    return [i for i, low in enumerate(orbit_minima(g)) if len(g.fwd[i]) >= k - 1 and i == low]


def check_roots(g) -> None:
    """build_graph's roots: ascending, in met norms, exactly the orbit minima there; every edge's orbit has one.

    A search field grows cliques from g.roots only, so a vertex with a
    forward neighbour whose orbit minimum were missing would lose its orbit.
    """
    roots, low = g.roots, orbit_minima(g)
    assert all(i < j for i, j in zip(roots, roots[1:]))
    assert all(g.fwd[i] is not search._NO_NEIGHBOURS for i in roots)
    assert roots == [i for i, f in enumerate(g.fwd) if low[i] == i and f is not search._NO_NEIGHBOURS]
    held = set(roots)
    assert all(low[i] in held for i, f in enumerate(g.fwd) if f)


class TestBruteForce:
    def test_k_exceeds_elements(self):
        assert brute_force_tuples([q1(1), q1(2)], 3, M1) == []

    def test_k2_matches_edges(self):
        elems = enum_elements(R1, 25)
        g = build_graph(elems, M1)
        assert {frozenset(c) for c in brute_force_tuples(elems, 2, M1)} == {
            frozenset(e) for e in g.edges()
        }


class TestQuadrupleProducts:
    def test_no_pair_product_is_square_in_found_quadruples(self):
        # in any D(-1) quadruple, no pairwise product can be a square
        cfg = SearchConfig(D_list=[1], max_norm=576, k=4, n="-1")
        quads = list(clique_sets_of(run_campaign(cfg))[1])
        quads += [frozenset(q) for q in chain_quadruples_zi(R1)]
        assert len(quads) >= 10
        for s in quads:
            elems = sorted(s, key=elem_key)
            for a, b in combinations(elems, 2):
                assert reference_sqrt(a * b) is None, (a, b)


class TestMonotonicity:
    def test_growing_norm_keeps_cliques(self):
        n = M1
        small = {frozenset(c) for c in find_cliques(build_graph(enum_elements(R1, 40), n), 3)}
        large = {frozenset(c) for c in find_cliques(build_graph(enum_elements(R1, 90), n), 3)}
        assert small <= large


class TestCampaign:
    def test_finds_example_quadruple(self, tmp_path):
        cfg = SearchConfig(D_list=[1], max_norm=576, k=4, n="-1")
        report = run_campaign(cfg)
        sets = clique_sets_of(report)[1]
        assert frozenset({q1(1), q1(2), q1(5), q1(-24)}) in sets
        assert report.total_cliques > 0
        # every reported clique re-verifies
        for s in sets:
            assert verify_tuple(make_tuple(R1, M1, s)).ok

    def test_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "ck.json")
        cfg = SearchConfig(D_list=[1, 2, 3], max_norm=60, k=3, n="-1", checkpoint_path=path)
        first = run_campaign(cfg)
        with open(path) as f:
            saved = json.load(f)
        assert sorted(saved["completed"]) == ["1", "2", "3"]
        # drop one field and resume: the rest must be reused, results identical
        del saved["completed"]["2"]
        with open(path, "w") as f:
            json.dump(saved, f)
        second = run_campaign(cfg)
        assert clique_sets_of(first) == clique_sets_of(second)
        assert [r.to_json() for r in first.results][0] == [r.to_json() for r in second.results][0]

    def test_checkpoint_config_mismatch(self, tmp_path):
        path = str(tmp_path / "ck.json")
        run_campaign(SearchConfig(D_list=[1], max_norm=30, k=3, n="-1", checkpoint_path=path))
        other = SearchConfig(D_list=[1], max_norm=31, k=3, n="-1", checkpoint_path=path)
        with pytest.raises(ValueError, match="different configuration"):
            run_campaign(other)

    def test_checkpoint_resumes_under_another_spelling_of_n(self, tmp_path, monkeypatch):
        # the stored config holds n as first given; config_hash ties n in canonical form
        path = str(tmp_path / "ck.json")
        first = run_campaign(SearchConfig(D_list=[1, 2], max_norm=30, k=3, n="-1", checkpoint_path=path))
        monkeypatch.setattr(search, "_run_field", lambda *task: pytest.fail(f"field rerun: {task}"))
        second = run_campaign(SearchConfig(D_list=[1, 2], max_norm=30, k=3, n="-1+0*w", checkpoint_path=path))
        assert [r.to_json() for r in second.results] == [r.to_json() for r in first.results]

    def test_parallel_matches_serial(self, monkeypatch):
        # run the pool even on one CPU, and for campaigns below the cost floor
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(search, "_WORKER_COST", 1)
        pools = spy_pools(monkeypatch)
        base = dict(D_list=[1, 2, 5, 13], max_norm=80, k=3, n="-1")
        serial = run_campaign(SearchConfig(**base, jobs=1))
        parallel = run_campaign(SearchConfig(**base, jobs=2))
        assert clique_sets_of(serial) == clique_sets_of(parallel)
        assert [r.D for r in parallel.results] == [1, 2, 5, 13]
        # 38 fields in 8 chunks: several fields per chunk, and the merge is still by D
        many = dict(D_list=SQUAREFREE_60, max_norm=40, k=3, n="-1")
        serial = run_campaign(SearchConfig(**many, jobs=1))
        parallel = run_campaign(SearchConfig(**many, jobs=2))
        assert [r.D for r in parallel.results] == SQUAREFREE_60
        assert [without_wall_time(r) for r in parallel.results] == [without_wall_time(r) for r in serial.results]
        assert pools == [2, 2]  # each jobs=2 campaign really ran a pool of 2

    def test_large_D_supported(self):
        # fields beyond D = 226 stay searchable; for D = 895 (3 mod 4) the ring
        # still has non-real elements of norm <= 224, e.g. (1+sqrt(-895))/2
        ring = make_ring(895)
        elems = enum_elements(ring, 224)
        assert any(e.y != 0 for e in elems)
        report = run_campaign(SearchConfig(D_list=[895], max_norm=224, k=5, n="-1"))
        assert report.total_cliques == 0

    def test_config_validation(self):
        # a SearchConfig is checked as it is built, so a bad one never reaches run_campaign
        bad = [
            (dict(D_list=[4], max_norm=10, k=3), "D must be squarefree, got 4"),
            (dict(D_list=[1], max_norm=0, k=3), "max_norm must be >= 1"),
            (dict(D_list=[1], max_norm=10, k=1), "k must be >= 2"),
            (dict(D_list=[1], max_norm=10, k=3, jobs=0), "jobs must be >= 1"),
            (dict(D_list=[], max_norm=10, k=3), "D_list must be nonempty"),
        ]
        for kwargs, message in bad:
            with pytest.raises(ValueError, match=f"^{message}$"):
                SearchConfig(**kwargs)

    def test_validate_parses_n_in_every_ring(self, tmp_path, monkeypatch):
        # (1+sqrt(-D))/2 is in O_K for D = 3 but not for D = 5: building the config fails, before any field
        ran, real = [], search._run_field
        monkeypatch.setattr(search, "_run_field", lambda *task: ran.append(task) or real(*task))
        path = tmp_path / "ck.json"
        with pytest.raises(ValueError, match=r"^n='\(1\+1\*s\)/2' is not an element of O_K for D=5: "):
            SearchConfig(D_list=[3, 5], max_norm=10, k=3, n="(1+1*s)/2", checkpoint_path=str(path))
        assert ran == [] and not path.exists()
        # each task carries n parsed in its field's ring
        cfg = SearchConfig(D_list=[5, 3], max_norm=10, k=3, n="1+1*w")
        run_campaign(cfg)
        assert [(D, n.ring.D, n.half_coords()) for D, _, _, n in ran] == [(3, 3, (3, 1)), (5, 5, (2, 2))]

    def test_config_is_frozen(self):
        cfg = SearchConfig(D_list=[1, 2], max_norm=10, k=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.k = 1
        # a changed copy is built, and so checked, like any other
        with pytest.raises(ValueError, match="^k must be >= 2$"):
            dataclasses.replace(cfg, k=1)
        assert dataclasses.replace(cfg, k=4).k == 4

    def test_d_list_cannot_change(self):
        # D_list is kept as a tuple, so the config's fields always name the fields that run
        cfg = SearchConfig(D_list=[1, 2], max_norm=10, k=3)
        assert cfg.D_list == (1, 2)
        with pytest.raises(AttributeError):
            cfg.D_list.append(5)
        report = run_campaign(cfg)
        assert [r.D for r in report.results] == [1, 2] == report.to_json()["config"]["D_list"]

    def test_config_hash_canonical_n(self):
        base = dict(D_list=[1, 2, 3], max_norm=60, k=3)
        hashes = {SearchConfig(**base, n=t).config_hash() for t in ("-1", "-1+0*w", " -1 ")}
        # the digest of n="-1" predates canonical hashing: old checkpoints still load
        assert hashes == {"17cefd20396b1d82befd0c04cb9dd8e39cf4ed47b29b5e91a87018b14a24d440"}
        # 1+w is (2+2*s)/2 for D = 1, 2 but (3+s)/2 for D = 3
        assert SearchConfig(**base, n="1+1*w").config_hash() != SearchConfig(**base, n="(2+2*s)/2").config_hash()
        one_mode = dict(D_list=[1, 2], max_norm=60, k=3)
        assert SearchConfig(**one_mode, n="1+1*w").config_hash() == SearchConfig(**one_mode, n="(2+2*s)/2").config_hash()

    def test_campaign_parses_n_once_per_ring(self, monkeypatch):
        # building the config parses n once in the ring of every distinct D, which also checks it;
        # the config hash and the fields (_run_field) read those parses
        parsed, parse_elem = [], search.parse_elem
        monkeypatch.setattr(search, "parse_elem", lambda text, ring: parsed.append(ring.D) or parse_elem(text, ring))
        run_campaign(SearchConfig(D_list=[3, 1, 2, 1], max_norm=10, k=3))
        assert parsed == [1, 2, 3]

    def test_schema1_checkpoint_resumes(self, tmp_path):
        # a checkpoint as written before canonical hashing, with a marker result for D = 1
        path = tmp_path / "ck.json"
        marker = {"D": 1, "vertex_count": 0, "edge_count": 0, "cliques": [], "wall_time": 12.5}
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "version": "0.1.0",
                    "config_hash": "17cefd20396b1d82befd0c04cb9dd8e39cf4ed47b29b5e91a87018b14a24d440",
                    "config": {"D_list": [1, 2, 3], "max_norm": 60, "k": 3, "n": "-1", "symmetry_prune": True},
                    "completed": {"1": marker},
                }
            )
        )
        cfg = SearchConfig(D_list=[1, 2, 3], max_norm=60, k=3, n="-1", checkpoint_path=str(path))
        report = run_campaign(cfg)
        assert report.results[0].to_json() == marker
        assert [r.D for r in report.results] == [1, 2, 3]
        assert sorted(json.loads(path.read_text())["completed"]) == ["1", "2", "3"]

    def test_config_hash_once_per_campaign(self, tmp_path, monkeypatch):
        calls = []
        real = SearchConfig.config_hash

        def counted(cfg):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(SearchConfig, "config_hash", counted)
        path = tmp_path / "ck.json"
        cfg = SearchConfig(D_list=[1, 2, 3, 5], max_norm=30, k=3, n="-1", checkpoint_path=str(path))
        run_campaign(cfg)
        assert len(calls) == 1
        # the checkpoint is compact JSON, and it holds every field
        text = path.read_text()
        assert "\n" not in text and ": " not in text
        assert sorted(json.loads(text)["completed"]) == ["1", "2", "3", "5"]
        assert not (tmp_path / "ck.json.tmp").exists()

    def test_reverification_failure_raises(self, monkeypatch):
        # an explicit raise, not an assert, so the check also runs under python -O
        import helpers
        from diotuples import search

        class Failed:
            ok = False

        monkeypatch.setattr(search, "verify_tuple", lambda t: Failed())
        monkeypatch.setattr(helpers, "verify_tuple", lambda t: Failed())
        with pytest.raises(RuntimeError, match="re-verification"):
            search._run_field(1, 30, 3, M1)
        with pytest.raises(RuntimeError, match="verify_tuple"):
            brute_force_tuples(enum_elements(R1, 30), 3, M1)

    def test_report_json_roundtrip(self, tmp_path):
        from diotuples.search import write_report

        cfg = SearchConfig(D_list=[1], max_norm=576, k=4, n="-1")
        report = run_campaign(cfg)
        path = str(tmp_path / "report.json")
        write_report(report, path)
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        assert payload["schema"] == 1
        assert payload["total_cliques"] == report.total_cliques
        ring = R1
        rebuilt = {
            frozenset(parse_many(group, ring))
            for rec in payload["results"][0]["cliques"]
            for group in rec["orbit"]
        }
        assert rebuilt == clique_sets_of(report)[1]
        # a field's JSON is a shallow dict of its fields, which serialises as their deep copy does
        assert [json.dumps(r.to_json()) for r in report.results] == [
            json.dumps(dataclasses.asdict(r)) for r in report.results
        ]


class TestClampWorkers:
    # the clamp is a pure function, so no test here starts a worker process
    W = search._WORKER_COST

    def test_smallest_bound_wins(self):
        rich = [self.W] * 139  # enough predicted work for any pool
        assert clamp_workers(2, rich, 2) == 2
        assert clamp_workers(8, rich, 2) == 2
        assert clamp_workers(4, rich[:3], 16) == 3
        assert clamp_workers(1, rich, 16) == 1

    def test_at_least_one(self):
        assert clamp_workers(4, [], 2) == 1  # everything already checkpointed
        assert clamp_workers(4, [self.W] * 5, 0) == 1
        assert clamp_workers(4, [1] * 5, 4) == 1  # a campaign below the floor

    def test_campaign_scan_runs_serially_and_large_n_pools(self):
        # the campaign-scan benchmark's fields (N = 224) at jobs 2 on 2 CPUs, then at N = 1,500
        assert clamp_workers(2, [field_cost(D, 224) for D in SQUAREFREE_225], 2) == 1
        assert clamp_workers(2, [field_cost(D, 1500) for D in SQUAREFREE_225], 2) == 2

    def test_workers_need_their_share_of_cost(self):
        # w workers need a predicted total of w * _WORKER_COST, however it is spread over the fields
        for w in (2, 3):
            part = w * self.W // 4
            costs = [part] * 3 + [w * self.W - 3 * part]
            assert clamp_workers(8, costs, 8) == w
            costs[0] -= 1
            assert clamp_workers(8, costs, 8) == w - 1
        assert clamp_workers(8, [3 * self.W], 8) == 1  # one field is one unit of work

    @pytest.mark.parametrize("max_norm, k", [(224, 5), (143, 4)])
    def test_reproduce_scans_stay_serial(self, max_norm, k):
        # `reproduce quintuple-scan` and `quadruple-min` over squarefree D < 226: below the floor of a pool
        # of two, so they have no --jobs and run in one process
        costs = [field_cost(D, max_norm) for D in SQUAREFREE_225]
        assert sum(costs) < 2 * self.W
        assert clamp_workers(4, costs, 4) == 1

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        # where the OS has no affinity mask (macOS, Windows) the CPU count serves, and 1 when it is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert search._usable_cpus() == (os.cpu_count() or 1) >= 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert search._usable_cpus() == 1

    def test_campaign_runs_serially_when_clamped(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a clamped campaign must not start a worker pool")

        monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
        # the pool branch of _field_results imports ProcessPoolExecutor from here
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        report = run_campaign(SearchConfig(D_list=[1, 2], max_norm=30, k=3, n="-1", jobs=2))
        assert [r.D for r in report.results] == [1, 2]
        # two CPUs, but a campaign below the cost floor: the same report as jobs=1, in this process
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        cheap = dict(D_list=SQUAREFREE_60, max_norm=60, k=3, n="-1")
        assert sum(field_cost(D, 60) for D in SQUAREFREE_60) < 2 * self.W
        pooled = run_campaign(SearchConfig(**cheap, jobs=2)).to_json()
        serial = run_campaign(SearchConfig(**cheap, jobs=1)).to_json()
        # config.jobs records the jobs requested, not the workers used
        assert pooled["config"].pop("jobs") == 2 and serial["config"].pop("jobs") == 1
        for report in (pooled, serial):
            report["wall_time"] = None
            for r in report["results"]:
                r["wall_time"] = None
        assert pooled == serial


SQUAREFREE_60 = [D for D in range(1, 61) if is_squarefree(D)]
SQUAREFREE_225 = [D for D in range(1, 226) if is_squarefree(D)]


def without_wall_time(result) -> dict:
    return {**result.to_json(), "wall_time": None}


def spy_pools(monkeypatch) -> list:
    """Record the max_workers of each process pool a campaign starts; the pools still run."""
    started = []
    real = concurrent.futures.ProcessPoolExecutor

    def spy(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    # the pool branch of _field_results imports ProcessPoolExecutor from here
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return started


def costs_of(tasks: list[tuple]) -> list[int]:
    """The field_cost of each task, as run_campaign computes them for _chunks."""
    return [field_cost(D, max_norm) for D, max_norm, *_ in tasks]


def lpt_order(tasks: list[tuple]) -> list[tuple]:
    """The tasks as _chunks hands them out: by falling field_cost, ties by D."""
    return sorted(tasks, key=lambda t: (-field_cost(t[0], t[1]), t[0]))


def tasks_of(cfg: SearchConfig) -> list[tuple]:
    """The _run_field tasks of a campaign with nothing checkpointed, as run_campaign forms them."""
    return [(D, cfg.max_norm, cfg.k, n) for D, n in cfg._n_by_D.items()]


def clique_sets_of(report) -> dict[int, set[frozenset[QuadInt]]]:
    """The orbit-expanded clique sets of each field of a report, by D."""
    return {r.D: r.clique_sets(make_ring(r.D)) for r in report.results}


class Boom(Exception):
    pass


class TestChunks:
    # _chunks and field_cost are pure, so no test here starts a worker process
    TASKS = tasks_of(SearchConfig(D_list=SQUAREFREE_225, max_norm=224, k=5))

    def test_field_cost_counts_iter_half_rows(self):
        # x up to sign with norm(x) <= max_norm, x = 0 included, counted on the box oracle
        # (the name is that of the ball enumerator _class_rows replaced)
        for D, max_norm in [(1, 224), (2, 30), (3, 224), (7, 1), (163, 40), (895, 224)]:
            half_ball = len(box_elements(make_ring(D), max_norm)) // 2
            assert field_cost(D, max_norm) == search._FIELD_BASE_COST + 1 + half_ball
        # the two slowest fields of the quintuple scan are the two predicted costliest
        assert sorted(SQUAREFREE_225, key=lambda D: -field_cost(D, 224))[:2] == [3, 1]

    @pytest.mark.parametrize("workers", [1, 2, 3, 40])
    def test_invariants(self, workers, monkeypatch):
        # at the real _WORKER_COST the scan (8,929 predicted x) is one chunk; lower costs give several
        costs = costs_of(self.TASKS)
        assert search._chunks(self.TASKS, costs, workers) == [lpt_order(self.TASKS)]
        for worker_cost in (search._WORKER_COST, 500, 1):
            monkeypatch.setattr(search, "_WORKER_COST", worker_cost)
            chunks = search._chunks(self.TASKS, costs, workers)
            assert len(chunks) == max(1, min(len(self.TASKS), 4 * workers, sum(costs) // worker_cost))
            flat = [t for c in chunks for t in c]
            assert len(flat) == len(set(flat)) == len(self.TASKS) and set(flat) == set(self.TASKS)
            # deterministic, whatever the order of the tasks
            assert search._chunks(self.TASKS[::-1], costs_of(self.TASKS[::-1]), workers) == chunks
            loads = [sum(field_cost(D, max_norm) for D, max_norm, *_ in c) for c in chunks]
            assert min(loads) > 0 and max(loads) - min(loads) <= max(costs)

    def test_fewer_tasks_than_chunks(self, monkeypatch):
        tasks = self.TASKS[:3]
        assert search._chunks(tasks, costs_of(tasks), 2) == [lpt_order(tasks)]
        monkeypatch.setattr(search, "_WORKER_COST", 1)
        assert sorted(search._chunks(tasks, costs_of(tasks), 2)) == sorted([t] for t in tasks)
        assert search._chunks([], [], 2) == []


class TestChunkedCampaign:
    def cfg(self, path=None, **kw) -> SearchConfig:
        return SearchConfig(D_list=SQUAREFREE_60[:20], max_norm=30, k=3, n="-1", checkpoint_path=path, **kw)

    def test_one_checkpoint_write_per_chunk(self, tmp_path, monkeypatch):
        writes = []
        real = search._atomic_write_json

        def counted(path, *args, **kwargs):
            writes.append(path)
            real(path, *args, **kwargs)

        monkeypatch.setattr(search, "_atomic_write_json", counted)
        cfg = self.cfg(str(tmp_path / "ck.json"))
        report = run_campaign(cfg)
        assert len(report.results) == 20
        # a campaign predicted below 2 * _WORKER_COST is one chunk: one write, not one per field
        assert sum(costs_of(tasks_of(cfg))) < 2 * search._WORKER_COST and len(writes) == 1
        assert sorted(json.loads((tmp_path / "ck.json").read_text())["completed"], key=int) == [
            str(D) for D in SQUAREFREE_60[:20]
        ]

    def test_crash_between_chunks_resumes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(search, "_WORKER_COST", 1)  # 4 chunks, not 1
        path = tmp_path / "ck.json"
        cfg = self.cfg(str(path))
        seen = []

        def crash(res):
            seen.append(res["D"])
            raise Boom

        with pytest.raises(Boom):
            run_campaign(cfg, progress=crash)
        tasks = tasks_of(cfg)
        first = search._chunks(tasks, costs_of(tasks), 1)[0]
        assert len(first) < len(tasks)
        assert seen == [first[0][0]]
        assert sorted(map(int, json.loads(path.read_text())["completed"])) == sorted(t[0] for t in first)
        resumed = run_campaign(cfg)
        whole = run_campaign(self.cfg())
        assert [r.D for r in resumed.results] == SQUAREFREE_60[:20]
        assert [without_wall_time(r) for r in resumed.results] == [without_wall_time(r) for r in whole.results]

    def test_all_fields_checkpointed(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.json"
        cfg = self.cfg(str(path))
        first = run_campaign(cfg)
        text = path.read_text()

        def no_field(*task):
            raise AssertionError("every field is checkpointed")

        monkeypatch.setattr(search, "_run_field", no_field)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_field)
        again = run_campaign(self.cfg(str(path), jobs=2))
        assert [r.to_json() for r in again.results] == [r.to_json() for r in first.results]
        assert path.read_text() == text  # nothing new, so no rewrite

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="only forked workers inherit the patched _run_field"
    )
    @pytest.mark.parametrize("failure", ["progress", "checkpoint", "worker"])
    def test_early_exit_cancels_pending_chunks(self, failure, tmp_path, monkeypatch):
        # 20 fields in 8 chunks on 2 workers; each field sleeps, so the first chunk is done
        # long before the last ones start, and the campaign fails right after it
        log = tmp_path / "ran.txt"
        path = tmp_path / "ck.json"
        cfg = self.cfg(str(path), jobs=2)
        # run the pool even on one CPU, and for a campaign below the cost floor; _chunks reads the
        # patched _WORKER_COST, as run_campaign does
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(search, "_WORKER_COST", 1)
        tasks = tasks_of(cfg)
        chunks = search._chunks(tasks, costs_of(tasks), 2)
        assert len(chunks) == 8
        real = search._run_field

        def logged(*task):
            if failure == "worker" and task == chunks[0][0]:
                raise Boom
            time.sleep(0.05)
            with open(log, "a") as f:
                f.write(f"{task[0]}\n")
            return real(*task)

        def bad_write(*args, **kwargs):
            raise OSError("disk full")

        seen = []

        def crash(res):
            seen.append(res["D"])
            raise Boom

        pools = spy_pools(monkeypatch)
        monkeypatch.setattr(search, "_run_field", logged)
        if failure == "checkpoint":
            monkeypatch.setattr(search, "_atomic_write_json", bad_write)
        # the worker case has no progress hook, so only the failing field can raise Boom
        with pytest.raises(OSError if failure == "checkpoint" else Boom):
            run_campaign(cfg, progress=None if failure == "worker" else crash)
        # a pool of 2 ran, it is gone when the error leaves run_campaign, and the chunks not yet started never ran
        assert pools == [2]
        assert multiprocessing.active_children() == []
        ran = log.read_text().split() if log.exists() else []
        assert len(ran) == len(set(ran)) < 20
        if failure == "progress":
            done = next(c for c in chunks if seen[0] in [t[0] for t in c])
            assert sorted(map(int, json.loads(path.read_text())["completed"])) == sorted(t[0] for t in done)
        if failure == "checkpoint":
            assert not path.exists()


class TestCheckpointReadBack:
    # a checkpoint is read back through _group_orbits, which must give every stored record back
    @pytest.mark.parametrize(
        ("D_list", "max_norm", "k"), [([1], 576, 4), (SQUAREFREE_225, 224, 5)], ids=["field-d1", "quintuple-scan"]
    )
    def test_resume_reports_the_same(self, D_list, max_norm, k, tmp_path, monkeypatch):
        cfg = SearchConfig(D_list=D_list, max_norm=max_norm, k=k, checkpoint_path=str(tmp_path / "ck.json"))
        first = run_campaign(cfg).to_json()

        def no_field(*task):
            raise AssertionError("every field is checkpointed")

        monkeypatch.setattr(search, "_run_field", no_field)
        again = run_campaign(cfg).to_json()
        assert {**again, "wall_time": None} == {**first, "wall_time": None}


def test_search_and_extend_agree_on_quadruples():
    # each element d of a D = 1 quadruple extends the other three (a, b, c by (norm, x, y)) with
    # z**2 = c*d - 1, and every extension of that triple within the ball completes a listed quadruple
    report = run_campaign(SearchConfig(D_list=[1], max_norm=576, k=4))
    listed = clique_sets_of(report)[1]
    calls = 0
    for rec in report.results[0].cliques:
        rep = [elem_from_json(e, R1) for e in rec["elems"]]
        for d in rep:
            a, b, c = sorted((e for e in rep if e != d), key=elem_key)
            z = reference_sqrt(c * d - 1)
            extensions = [e for e, _ in extend_triple(a, b, c, z.norm())]
            calls += 1
            assert d in extensions
            assert all(frozenset({a, b, c, e}) in listed for e in extensions if e.norm() <= 576)
    assert calls == 4 * len(report.results[0].cliques) > 0


def parse_many(group, ring):
    from diotuples.quad_ring import elem_from_json

    return [elem_from_json(e, ring) for e in group]


class TestLayout:
    FIELD_KEYS = ["D", "vertex_count", "edge_count", "cliques", "wall_time"]

    @pytest.mark.parametrize("failure", ["write", "replace"])
    def test_failed_write_removes_temporary_file(self, failure, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text("old")
        payload = {"a": object()} if failure == "write" else {"a": 1}  # json.dumps fails after the open

        def refuse(src, dst):
            raise OSError("rename refused")

        if failure == "replace":
            monkeypatch.setattr(search.os, "replace", refuse)
        with pytest.raises(TypeError if failure == "write" else OSError):
            search._atomic_write_json(str(path), payload)
        assert list(tmp_path.iterdir()) == [path] and path.read_text() == "old"

    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_csv_export_leaves_no_trace(self, existing, tmp_path, monkeypatch):
        # every row is formed before the file is touched, and the file is replaced whole or not at all
        report = run_campaign(SearchConfig(D_list=[1], max_norm=60, k=3, n="-1"))
        path = tmp_path / "cliques.csv"
        old = b"D,k,elems\r\n1,3,-1,1,2\r\n"
        if existing:
            path.write_bytes(old)

        def boom(self):
            raise Boom("sorted_cliques failed")

        with monkeypatch.context() as m:
            m.setattr(search.SearchReport, "sorted_cliques", boom)
            with pytest.raises(Boom):
                search.write_clique_csv(report, str(path))
        assert list(tmp_path.iterdir()) == ([path] if existing else [])
        assert not existing or path.read_bytes() == old
        search.write_clique_csv(report, str(path))
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes().startswith(b"D,k,elems\r\n1,3,")

    def test_report_and_checkpoint_key_order(self, tmp_path):
        from diotuples.search import write_report

        ck = tmp_path / "ck.json"
        cfg = SearchConfig(D_list=[1, 3], max_norm=60, k=3, n="-1", checkpoint_path=str(ck))
        seen = []
        report = run_campaign(cfg, progress=seen.append)
        # one record: the progress dict, the checkpoint entry and the report result of a field agree
        entries = json.loads(ck.read_text())["completed"]
        results = {r.D: r.to_json() for r in report.results}
        assert sorted(res["D"] for res in seen) == sorted(results) == [1, 3]
        for res in seen:
            assert res == entries[str(res["D"])] == results[res["D"]] and list(res) == self.FIELD_KEYS
        out = tmp_path / "report.json"
        write_report(report, str(out))
        payload = json.loads(out.read_text())
        assert list(payload) == ["schema", "version", "config", "results", "total_cliques", "wall_time"]
        assert payload["schema"] == 1
        assert [list(r) for r in payload["results"]] == [self.FIELD_KEYS] * 2
        saved = json.loads(ck.read_text())
        assert list(saved) == ["schema", "version", "config_hash", "config", "completed"]
        assert saved["schema"] == 1
        assert [list(r) for r in saved["completed"].values()] == [self.FIELD_KEYS] * 2

    def test_report_is_compact_json(self, tmp_path):
        # the report file is written as the checkpoint is, without whitespace; `search --json` indents it
        report = run_campaign(SearchConfig(D_list=[1, 3], max_norm=60, k=3, n="-1"))
        out = tmp_path / "report.json"
        search.write_report(report, str(out))
        assert out.read_bytes() == json.dumps(report.to_json(), separators=(",", ":")).encode()

    def test_sorted_cliques(self):
        report = run_campaign(SearchConfig(D_list=[3, 1], max_norm=60, k=3, n="-1"))
        listed = report.sorted_cliques()
        assert len(listed) == report.total_cliques > 0
        keys = [(D, [elem_key(e) for e in elems]) for D, elems in listed]
        assert keys == sorted(keys)
        for D, elems in listed:
            assert list(elems) == sorted(elems, key=elem_key)
        by_field = {D: {frozenset(elems) for d, elems in listed if d == D} for D in (1, 3)}
        assert by_field == clique_sets_of(report)


SENTINEL_D = 10**6 + 1  # = 101 * 9901, squarefree; every element of norm <= B < D is rational


class TestSentinel:
    # theorems about Z serve as independent oracles: in a field where every vertex is rational, a
    # clique is a D(n) quadruple of integers
    def sentinel_cliques(self, n: int, max_norm: int) -> set[frozenset[QuadInt]]:
        ring = make_ring(SENTINEL_D)
        ball = enum_elements(ring, max_norm)
        assert all(a.y == 0 for a in ball)
        assert len(ball) == 2 * isqrt(max_norm)
        report = run_campaign(SearchConfig(D_list=[SENTINEL_D], max_norm=max_norm, k=4, n=str(n)))
        assert report.results[0].vertex_count == len(ball)
        return clique_sets_of(report)[SENTINEL_D]

    @pytest.mark.parametrize("n", [2, -2, 6])
    def test_no_quadruple_for_n_2_mod_4(self, n):
        # Brown (1985): no D(n) quadruple of integers when n = 2 (mod 4)
        assert self.sentinel_cliques(n, 14400) == set()

    @pytest.mark.parametrize("max_norm", [14400, 10**5])
    def test_no_d_minus_1_quadruple(self, max_norm):
        # Bonciocat, Cipu and Mignotte (2022): no D(-1) quadruple of integers
        assert self.sentinel_cliques(-1, max_norm) == set()

    def test_d1_quadruples_below_120(self):
        # Fermat's {1, 3, 8, 120} and its negation are the D(1) quadruples of integers with every
        # |a| <= 120
        ring = make_ring(SENTINEL_D)
        want = {frozenset(QuadInt(ring, s * x, 0) for x in (1, 3, 8, 120)) for s in (1, -1)}
        assert self.sentinel_cliques(1, 14400) == want


@pytest.mark.parametrize("max_norm", [60, 143])
@pytest.mark.parametrize("n", [-1, 3])
def test_covered_fields_share_the_sentinel_graph(max_norm, n):
    # the coverage lemma: a field whose ball of norm <= B holds only rational elements, and whose
    # window elements x (norm(x) <= B + |n|) are rational too, has the sentinel's graph.  That holds
    # for D > B + |n| when D != 3 (mod 4), and for D > max(4B, B + |n|) in any case
    def graph(D):
        ring = make_ring(D)
        return build_graph(enum_elements(ring, max_norm), QuadInt(ring, n, 0))

    sentinel = graph(SENTINEL_D)
    covered = [
        D
        for D in range(1, 4 * max_norm + 61)
        if is_squarefree(D)
        and (D > max_norm + abs(n) and D % 4 != 3 or D > max(4 * max_norm, max_norm + abs(n)))
    ]
    assert len(covered) > 100
    for D in covered:
        g = graph(D)
        assert g.vertices.half == sentinel.vertices.half, D
        assert g.fwd == sentinel.fwd, D
