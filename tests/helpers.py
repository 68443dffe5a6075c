"""Shared test utilities: independent brute-force oracles and witness generators.

Everything here deliberately avoids the library's enumeration and clique
machinery where it serves as an oracle for them.
"""

from __future__ import annotations

from math import isqrt
from random import Random

from diotuples.quad_ring import OmegaMode, QuadInt, RingParams, exact_div, format_elem, sqrt_exact
from diotuples.tuples import (
    DioTuple,
    ExtensionPair,
    PairCheck,
    VerifyReport,
    build_pell_witness,
    c_plus_minus,
    pair_witness,
)


def box_elements(ring: RingParams, max_norm: int) -> list[QuadInt]:
    """All nonzero elements of norm <= max_norm by filtering a coordinate box."""
    out = []
    D = ring.D
    if ring.omega_mode is OmegaMode.SQRT:
        ybound = isqrt(max_norm) + 1
        xbound = isqrt(max_norm) + 1
    else:
        ybound = isqrt(4 * max_norm // D) + 1
        xbound = isqrt(4 * max_norm) + ybound + 1
    for x in range(-xbound, xbound + 1):
        for y in range(-ybound, ybound + 1):
            a = QuadInt(ring, x, y)
            if not a.is_zero() and a.norm() <= max_norm:
                out.append(a)
    return out


def reference_extend(a: QuadInt, b: QuadInt, c: QuadInt, z_norm_bound: int) -> list:
    """extend_triple's scan on QuadInt objects, for a triple already known to be D(-1).

    Takes every z of box_elements in (norm, x, y) order.  c | z^2 + 1 is tested
    on basis coordinates: (z^2 + 1) * conj(c) must be norm(c) times an element
    of O_K, so both of its coordinates divide by norm(c).
    """
    ring = a.ring
    m1 = QuadInt(ring, -1, 0)
    nc = c.norm()
    out, seen = [], set()
    for z in sorted(box_elements(ring, z_norm_bound), key=lambda e: (e.norm(), e.x, e.y)):
        w = (z * z + 1) * c.conj()
        if w.x % nc or w.y % nc:
            continue
        d = QuadInt(ring, w.x // nc, w.y // nc)
        if d in seen or d.is_zero() or d in (a, b, c):
            continue
        if pair_witness(a, d, m1) is None or pair_witness(b, d, m1) is None:
            continue
        seen.add(d)
        out.append((d, build_pell_witness(a, b, c, d)))
    return out


def canonical_sign(beta: QuadInt) -> QuadInt:
    u, v = beta.half_coords()
    if u > 0 or (u == 0 and v >= 0):
        return beta
    return -beta


def brute_root_table(ring: RingParams, root_norm_bound: int) -> dict[tuple[int, int], QuadInt]:
    """Map every square of an element with norm <= root_norm_bound to its canonical root."""
    table: dict[tuple[int, int], QuadInt] = {}
    for beta in box_elements(ring, root_norm_bound):
        sq = beta * beta
        table[(sq.x, sq.y)] = canonical_sign(beta)
    return table


def reference_verify_tuple(t: DioTuple) -> VerifyReport:
    """verify_tuple on QuadInt arithmetic: pair_witness on every pair, in order, to the first failure."""
    checks = []
    es = t.elems
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            w = pair_witness(es[i], es[j], t.n)
            checks.append(PairCheck(es[i], es[j], w))
            if w is None:
                return VerifyReport(t, False, tuple(checks), (es[i], es[j]))
    return VerifyReport(t, True, tuple(checks), None)


def reference_c_plus_minus(a: QuadInt, b: QuadInt, d: QuadInt) -> ExtensionPair:
    """c_plus_minus on QuadInt arithmetic, each canonical witness checked by squaring."""

    def witness(p: QuadInt, q: QuadInt, name: str) -> QuadInt:
        w = sqrt_exact(p * q - 1)
        if w is None:
            raise ValueError(f"{format_elem(p)}*{format_elem(q)} - 1 is not a square ({name} missing)")
        assert w * w == p * q - 1 and w == canonical_sign(w)
        return w

    r, x, y = witness(a, b, "r"), witness(a, d, "x"), witness(b, d, "y")
    e = a + b + d - 2 * (a * b * d)
    f = 2 * (r * x * y)
    cp, cm = e + f, e - f
    if cp.norm() < cm.norm():
        cp, cm = cm, cp
    assert cp * cm == a * a + b * b + d * d - 2 * (a * b) - 2 * (a * d) - 2 * (b * d) + 4
    return ExtensionPair(cp, cm, a, b, d, r, x, y)


def random_elem(ring: RingParams, rng: Random, span: int) -> QuadInt:
    return QuadInt(ring, rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))


def witness_triples(ring: RingParams, count: int, seed: int = 7) -> list[tuple[QuadInt, QuadInt, QuadInt]]:
    """(a, b, d) with ab-1, ad-1, bd-1 all squares; mixes regular and non-regular d.

    Two sources: the parametric family (1, k^2+1, (k+1)^2+1) for arbitrary
    ring elements k, and pairs (a, b = (r^2+1)/a) completed regularly by
    d = a + b +- 2r; each instance is also pushed one step further through
    the c_+- construction, which generically yields a non-regular companion.
    """
    rng = Random(seed)
    one = QuadInt(ring, 1, 0)
    out: list[tuple[QuadInt, QuadInt, QuadInt]] = []

    def emit(a, b, d):
        if a.is_zero() or b.is_zero() or d.is_zero():
            return
        if len({a, b, d}) != 3:
            return
        out.append(tuple(rng.sample([a, b, d], 3)))

    while len(out) < count:
        k = random_elem(ring, rng, 12)
        if k.is_zero():
            continue
        a, b, d = one, k * k + 1, (k + 1) * (k + 1) + 1
        emit(a, b, d)
        # push through c_+-: {a, b, c_plus} generically admits witnesses too
        try:
            pair = c_plus_minus(a, b, d)
        except ValueError:
            continue
        for cand in (pair.c_plus, pair.c_minus):
            if cand.is_zero() or cand in (a, b, d):
                continue
            m1 = QuadInt(ring, -1, 0)
            if pair_witness(a, cand, m1) is not None and pair_witness(b, cand, m1) is not None:
                emit(a, b, cand)
        # a second family with a != 1: scan r until a | r^2 + 1
        a2 = random_elem(ring, rng, 6)
        if a2.is_zero():
            continue
        for rx in range(0, 8):
            r = QuadInt(ring, rx, rng.randrange(-3, 4))
            b2 = exact_div(r * r + 1, a2)
            if b2 is None or b2.is_zero():
                continue
            for sign in (1, -1):
                d2 = a2 + b2 + sign * 2 * r
                if not d2.is_zero() and len({a2, b2, d2}) == 3:
                    emit(a2, b2, d2)
            break
    return out[:count]


def fibonacci(n: int) -> list[int]:
    """[F_0, ..., F_n]."""
    f = [0, 1]
    while len(f) <= n:
        f.append(f[-1] + f[-2])
    return f


def chain_quadruples_zi(ring: RingParams, depth: int = 4) -> list[tuple[QuadInt, QuadInt, QuadInt, QuadInt]]:
    """Quadruples (a, b, c, d) ordered by magnitude, grown by iterating c_+-.

    Starting from integer pairs with ab - 1 square, the regular completion
    gives a triple and repeated c_+- steps produce quadruples whose third
    element eventually dominates 4|b|, which the theta-defect property needs.
    """
    quads = []
    m1 = QuadInt(ring, -1, 0)
    for a0, b0 in ((2, 5), (2, 13), (5, 13), (1, 2)):
        a, b = QuadInt(ring, a0, 0), QuadInt(ring, b0, 0)
        r = sqrt_exact(a * b + m1)
        assert r is not None
        chain = [a + b + 2 * r]  # regular completion
        for _ in range(depth):
            d = chain[-1]
            try:
                pair = c_plus_minus(a, b, d)
            except ValueError:
                break
            nxt = pair.c_plus if pair.c_plus not in (d, a, b) else pair.c_minus
            if nxt.is_zero() or nxt in chain:
                break
            chain.append(nxt)
        for i in range(len(chain) - 1):
            members = sorted([a, b, chain[i], chain[i + 1]], key=lambda e: e.norm())
            ok = all(
                pair_witness(members[i], members[j], m1) is not None
                for i in range(4)
                for j in range(i + 1, 4)
            )
            if ok:
                quads.append(tuple(members))
    return quads


def adjacency_masks(g) -> list[int]:
    """One integer per vertex of a CompatGraph, bit j of entry i set iff {i, j} is an edge.

    Rebuilt from the forward-neighbour sets g.fwd, each of which must hold only
    higher indices; the pinned adjacency digests hash these integers.
    """
    masks = [0] * len(g.vertices)
    for i, f in enumerate(g.fwd):
        for j in f:
            assert j > i, (i, j)
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


def reference_cliques(fwd: list[set[int]], k: int) -> list[tuple[int, ...]]:
    """Every k-clique of forward-neighbour sets as index tuples, by a plain candidate-list DFS.

    fwd[i] holds the neighbours j > i of vertex i.  Each clique grows from its
    lowest index over the sorted fwd[i], and each step keeps the later
    candidates that lie in the newest vertex's set, tested one by one, so
    cliques come out in lexicographic order of their index tuples.
    """
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], cand: list[int]) -> None:
        # cand: the indices after prefix[-1] adjacent to every vertex of prefix
        if len(prefix) == k - 1:
            out.extend((*prefix, j) for j in cand)
            return
        need = k - len(prefix) - 1
        for pos, j in enumerate(cand):
            nxt = [l for l in cand[pos + 1 :] if l in fwd[j]]
            if len(nxt) >= need:
                prefix.append(j)
                grow(prefix, nxt)
                prefix.pop()

    for i, f in enumerate(fwd):
        if len(f) >= k - 1:
            grow([i], sorted(f))
    return out
