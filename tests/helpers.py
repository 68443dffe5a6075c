"""Shared test utilities: independent brute-force oracles and witness generators.

Everything here deliberately avoids the library's enumeration and clique
machinery where it serves as an oracle for them.  The references take square
roots and exact divisions from reference_sqrt and reference_div, on QuadInt
arithmetic alone; sqrt_half and div_half only adapt the package's integer
kernels to elements for the tests of those kernels, and no reference reaches
them.  list_graph is not an oracle either but the graph of an element list,
cut out of build_graph's graph of the covering ball.  break_checkpoint
makes the corrupted checkpoints that the CLI and the checkpoint schema must
both reject.  iv_jz_reference and iv_theta_reference evaluate the bounds'
enclosures with mpmath.iv's operators under a test-side iv.prec.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from math import isqrt
from random import Random

from mpmath import iv

from diotuples.bounds import HypothesisFailure
from diotuples.quad_ring import QuadInt, RingParams, _div_half, _sqrt_half, elem_key, format_elem, from_half, norm
from diotuples.search import CompatGraph, SearchConfig, build_graph, enum_elements, run_campaign
from diotuples.tuples import (
    DioTuple,
    ExtensionPair,
    PairCheck,
    PellWitness,
    VerifyReport,
    c_plus_minus,
    make_tuple,
    verify_tuple,
)


def box_elements(ring: RingParams, max_norm: int) -> list[QuadInt]:
    """All nonzero elements of norm <= max_norm by filtering a coordinate box."""
    out = []
    D = ring.D
    if D % 4 == 3:  # omega = (1 + sqrt(-D))/2
        ybound = isqrt(4 * max_norm // D) + 1
        xbound = isqrt(4 * max_norm) + ybound + 1
    else:  # omega = sqrt(-D)
        ybound = isqrt(max_norm) + 1
        xbound = isqrt(max_norm) + 1
    for x in range(-xbound, xbound + 1):
        for y in range(-ybound, ybound + 1):
            a = QuadInt(ring, x, y)
            if not a.is_zero() and a.norm() <= max_norm:
                out.append(a)
    return out


def trace(a: QuadInt) -> int:
    """a + conj(a), a rational integer."""
    return (a + a.conj()).x


def reference_sqrt(alpha: QuadInt) -> QuadInt | None:
    """The canonical square root of alpha in O_K, or None, from the trace identities on QuadInt arithmetic.

    A root beta with t = tr(beta) and m = norm(beta) >= 0 has m**2 = norm(alpha),
    t**2 = tr(alpha) + 2m and beta*t = alpha + m.  Taking t >= 0 gives the
    canonical root (in half-coordinates, u = t > 0, or u = 0 and v >= 0).  A
    trace-zero root is y*(omega - tr(omega)/2) with y >= 0, of norm
    y**2 * (4*norm(omega) - tr(omega)**2)/4; alpha = 0 takes this branch with
    y = 0.  Every root is checked by squaring it.
    """
    ring = alpha.ring
    m = isqrt(alpha.norm())
    if m * m != alpha.norm():
        return None
    t = isqrt(trace(alpha) + 2 * m)  # |tr(alpha)| <= 2m, so the radicand is >= 0
    if t:
        w = alpha + m
        if w.x % t or w.y % t:
            return None
        beta = QuadInt(ring, w.x // t, w.y // t)
    else:
        omega = QuadInt(ring, 0, 1)
        tw = trace(omega)
        e = 4 * omega.norm() - tw * tw
        y = isqrt(4 * m // e)
        if y * tw % 2:
            return None
        beta = QuadInt(ring, -(y * tw) // 2, y)
    return beta if beta * beta == alpha else None


def reference_div(num: QuadInt, den: QuadInt) -> QuadInt | None:
    """num / den for a nonzero den when it lies in O_K, else None.

    num / den = num * conj(den) / norm(den), which lies in O_K exactly when
    both basis coordinates of num * conj(den) divide by norm(den).
    """
    w, nd = num * den.conj(), den.norm()
    if w.x % nd or w.y % nd:
        return None
    return QuadInt(num.ring, w.x // nd, w.y // nd)


def reference_witness(a: QuadInt, b: QuadInt, n: QuadInt) -> QuadInt | None:
    """The canonical x with a*b + n = x**2, or None."""
    return reference_sqrt(a * b + n)


def sqrt_half(alpha: QuadInt) -> QuadInt | None:
    """The kernel _sqrt_half on alpha's half-coordinates, its root back as an element; for the kernel's own tests."""
    root = _sqrt_half(alpha.ring.D, *alpha.half_coords())
    return None if root is None else from_half(alpha.ring, *root)


def div_half(num: QuadInt, den: QuadInt) -> QuadInt | None:
    """The kernel _div_half on num and a nonzero den, the quotient back as an element; for the kernel's own tests."""
    q = _div_half(num.ring.D, *num.half_coords(), *den.half_coords())
    return None if q is None else from_half(num.ring, *q)


def reference_extend(a: QuadInt, b: QuadInt, c: QuadInt, z_norm_bound: int) -> list:
    """extend_triple's scan on QuadInt objects, for a triple already known to be D(-1).

    Takes every z of box_elements in (norm, x, y) order, keeps d = (z^2 + 1)/c
    when reference_div finds it in O_K, and builds each Pell witness from
    reference_sqrt.
    """
    m1 = QuadInt(a.ring, -1, 0)
    out, seen = [], set()
    for z in sorted(box_elements(a.ring, z_norm_bound), key=lambda e: (e.norm(), e.x, e.y)):
        d = reference_div(z * z + 1, c)
        if d is None or d in seen or d.is_zero() or d in (a, b, c):
            continue
        if reference_witness(a, d, m1) is None or reference_witness(b, d, m1) is None:
            continue
        seen.add(d)
        pairs = ((a, b), (a, c), (b, c), (a, d), (b, d), (c, d))
        out.append((d, PellWitness(a, b, c, d, *(reference_witness(p, q, m1) for p, q in pairs))))
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
    """verify_tuple on QuadInt arithmetic: reference_witness on every pair, in order, to the first failure."""
    checks = []
    es = t.elems
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            w = reference_witness(es[i], es[j], t.n)
            checks.append(PairCheck(es[i], es[j], w))
            if w is None:
                return VerifyReport(t, False, tuple(checks), (es[i], es[j]))
    return VerifyReport(t, True, tuple(checks), None)


def reference_c_plus_minus(a: QuadInt, b: QuadInt, d: QuadInt) -> ExtensionPair:
    """c_plus_minus on QuadInt arithmetic, each canonical witness checked by squaring."""

    def witness(p: QuadInt, q: QuadInt, name: str) -> QuadInt:
        w = reference_sqrt(p * q - 1)
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
            if reference_witness(a, cand, m1) is not None and reference_witness(b, cand, m1) is not None:
                emit(a, b, cand)
        # a second family with a != 1: scan r until a | r^2 + 1
        a2 = random_elem(ring, rng, 6)
        if a2.is_zero():
            continue
        for rx in range(0, 8):
            r = QuadInt(ring, rx, rng.randrange(-3, 4))
            b2 = reference_div(r * r + 1, a2)
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
        r = reference_sqrt(a * b + m1)
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
                reference_witness(members[i], members[j], m1) is not None
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


def list_graph(elements, n: QuadInt) -> CompatGraph:
    """The compatibility graph of a list of distinct nonzero elements of n's ring.

    build_graph takes whole norm balls only, so this builds the graph of the
    ball up to the largest norm in the list and keeps the subgraph induced on
    the list: its vertices are the kept elements in ball order, as a plain
    list, and fwd is renumbered.  An edge is a property of its two ends alone,
    so this is the graph of the list.
    """
    ring = n.ring
    keep = {(e.x, e.y) for e in elements}
    assert len(keep) == len(elements) and all(e.ring == ring and not e.is_zero() for e in elements)
    if not keep:
        return CompatGraph(n, [], [])
    g = build_graph(enum_elements(ring, max(e.norm() for e in elements)), n)
    kept = [i for i, e in enumerate(g.vertices) if (e.x, e.y) in keep]
    new = {i: pos for pos, i in enumerate(kept)}
    fwd = [{new[j] for j in g.fwd[i] if j in new} for i in kept]
    return CompatGraph(n, [g.vertices[i] for i in kept], fwd)


def brute_force_tuples(elements, k: int, n: QuadInt) -> list[tuple[QuadInt, ...]]:
    """Oracle for find_cliques: k-subsets whose pairs all carry witnesses.

    Subsets are enumerated in lexicographic order; each prefix carries the
    later indices compatible with all of its elements, so a prefix with a
    witness-less pair is never extended (a subset fails verification on that
    same pair, so nothing is lost); accepted subsets are re-passed through
    verify_tuple.  A pair is compatible when a*b + n, formed on basis
    coordinates (x, y) with omega**2 from one QuadInt product, is zero or a
    key of brute_root_table: the squares of every element up to the largest
    root norm, isqrt(N1*N2) + isqrt(norm(n)) + 1 (N1 >= N2 the two largest
    norms of the elements).  No square root kernel, graph or adjacency is
    shared with build_graph or find_cliques.  Intended for small inputs
    (<= ~200 elements).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    vs = sorted(elements, key=elem_key)
    if any(e.ring != n.ring for e in vs):
        raise ValueError("elements must live in the ring of n")
    if len(vs) < k:
        return []
    N2, N1 = sorted(e.norm() for e in vs)[-2:]
    squares = brute_root_table(n.ring, isqrt(N1 * N2) + isqrt(n.norm()) + 1)
    omega = QuadInt(n.ring, 0, 1)
    w2 = omega * omega  # omega**2 = w2.x + w2.y*omega
    coords = [(e.x, e.y) for e in vs]
    out: list[tuple[QuadInt, ...]] = []

    def compatible(i: int, j: int) -> bool:
        (x1, y1), (x2, y2) = coords[i], coords[j]
        yy = y1 * y2
        w = (x1 * x2 + yy * w2.x + n.x, x1 * y2 + x2 * y1 + yy * w2.y + n.y)  # a*b + n
        return w == (0, 0) or w in squares

    def rec(chosen: list[int], cands: list[int]) -> None:
        # cands: the indices after chosen[-1] compatible with every chosen index
        if len(chosen) == k:
            elems = tuple(vs[i] for i in chosen)
            if not verify_tuple(make_tuple(n.ring, n, elems)).ok:
                raise RuntimeError(f"subset {elems} has witnesses but fails verify_tuple")
            out.append(elems)
            return
        for pos, j in enumerate(cands):
            if len(cands) - pos < k - len(chosen):
                break
            chosen.append(j)
            rec(chosen, [i for i in cands[pos + 1 :] if compatible(j, i)])
            chosen.pop()

    rec([], list(range(len(vs))))
    return out


def reference_gap_lemma_checks(a: QuadInt, b: QuadInt, c: QuadInt) -> dict[str, tuple[bool, float, int]]:
    """gap_lemma_checks on QuadInt arithmetic, the naive power loop and the full squares.

    The lemma is taken at (a1, a2, T) = (-b, -a, abc) with T formed as a product
    (so mixed rings raise from a*b, then from (ab)*c), its norms taken on those
    elements, (a + b*sqrt(m))^k by k multiplications, and the lambda sign
    decided on u|u| vs -v|v|m formed in full.  Errors and messages are the
    library's.
    """

    def margin(x: int, y: int) -> float:
        scale = max(abs(x), abs(y))
        return abs(x - y) / scale if scale else 0.0

    def power(p: int, q: int, m: int, k: int) -> tuple[int, int]:
        x, y = 1, 0
        for _ in range(k):
            x, y = x * p + y * q * m, x * q + y * p
        return x, y

    a1, a2, T = -b, -a, a * b * c
    if a1 == a2:
        raise ValueError("a1 and a2 must be distinct")
    if a1.is_zero() or a2.is_zero():
        raise ValueError("a1 and a2 must be nonzero")
    n1, n2, n12, nT = norm(a1), norm(a2), norm(a1 - a2), norm(T)
    M_sq = max(n1, n2)
    if nT <= M_sq:
        raise HypothesisFailure("|T| <= M = max(|a1|, |a2|)")
    N = n1 * n2 * n12
    A = 27 * (nT + M_sq) - 16 * N
    A_sq, bound = A * A, 2916 * nT * M_sq
    if A <= 0 or A_sq <= bound:
        raise HypothesisFailure("L <= 1: approximation lemma does not apply")
    min_sq = min(n1, n2, n12)
    m = nT * M_sq
    x1, y1 = power(4 * nT + 9 * M_sq, 12, m, 5)
    x2, y2 = power(nT + M_sq, -2, m, 8)
    lhs, rhs = 16**18 * N**18, 27**8 * min_sq**15
    u, v = lhs * x1 - rhs * x2, lhs * y1 - rhs * y2
    lam_x, lam_y = u * abs(u), -v * abs(v) * m
    return {
        "l < 1/2": (1024 * M_sq < 25 * nT, margin(1024 * M_sq, 25 * nT), 0),
        "p <= sqrt(47/42)": (484 * M_sq <= nT, margin(484 * M_sq, nT), 0),
        "L > 1": (True, margin(A_sq, bound), 0),
        "lambda < 1.8": (lam_x < lam_y, margin(lam_x, lam_y), 0),
    }


@contextmanager
def iv_precision(bits: int):
    """Run the block at mpmath.iv precision bits, restoring the global iv.prec afterwards."""
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


def iv_jz_reference(a1: QuadInt, a2: QuadInt, T: QuadInt, bits: int) -> tuple:
    """(L, l, p, P, lambda, c1) as mpmath.iv intervals at bits, for inputs where the lemma applies.

    The norms are taken on the elements; every interval step is an mpmath.iv
    operator or function, at the iv precision set for the call.
    """
    n1, n2, n12, nT = norm(a1), norm(a2), norm(a1 - a2), norm(T)
    M_sq, N, min_sq = max(n1, n2), n1 * n2 * n12, min(n1, n2, n12)
    with iv_precision(bits):
        rT = iv.sqrt(nT)
        rM = iv.sqrt(M_sq)
        gap = rT - rM
        L = gap * gap * 27 / (16 * N)
        l = rT * 27 / (64 * gap)
        num = 2 * rT + 3 * rM
        p = iv.sqrt(num / (2 * gap))
        P = 16 * N * num / (min_sq * iv.sqrt(min_sq))
        lam = 1 + iv.log(P) / iv.log(L)
        two_l = 2 * l
        base = iv.mpf([max(1, two_l.a), max(1, two_l.b)])
        c1 = 1 / (4 * p * P * base ** (lam - 1))
    return L, l, p, P, lam, c1


def iv_theta_reference(w: PellWitness, bits: int = 128) -> tuple:
    """(defect1, defect2, middle1, middle2_symmetric, outer) of a witness as mpmath.iv intervals at bits."""

    def defect(ns, na, nc, nx, nz, n_res):
        if ns == 0:
            return iv.mpf(0)
        r = iv.mpf(ns) / na
        N = r * iv.sqrt(iv.mpf(n_res) / nc) / nz
        S = 2 * (r * iv.sqrt(iv.mpf(na) / nc) + r * nx / nz)
        disc = S * S - 4 * N * N
        disc = iv.mpf([max(0, disc.a), disc.b])
        return iv.sqrt(2) * N / iv.sqrt(S + iv.sqrt(disc))

    a, b, c, z = w.a, w.b, w.c, w.z
    na, nb, nc, nz = norm(a), norm(b), norm(c), norm(z)
    ns, nt = norm(w.s), norm(w.t)
    with iv_precision(bits):
        return (
            defect(ns, na, nc, norm(w.x), nz, norm(a * z * z - c * w.x * w.x)),
            defect(nt, nb, nc, norm(w.y), nz, norm(b * z * z - c * w.y * w.y)),
            iv.sqrt(ns * norm(a - c)) / (iv.sqrt(na) * iv.sqrt(iv.sqrt(na * nc)) * nz),
            iv.sqrt(nt * norm(b - c)) / (iv.sqrt(nb) * iv.sqrt(iv.sqrt(nb * nc)) * nz),
            21 * iv.sqrt(nc) / (16 * iv.sqrt(na) * nz),
        )


# coordinate texts that elem_to_json never writes, as the x of a checkpoint element; int() reads all but 1.5
NON_CANONICAL_INT_TEXTS = {
    "element-x-not-decimal": "1.5",
    "element-x-underscore": "1_0",
    "element-x-space": " 7",
    "element-x-plus": "+3",
    "element-x-arabic-digit": "٣",
    "element-x-minus-zero": "-0",
    "element-x-leading-zero": "007",
    "element-x-newline": "7\n",
}
# checkpoints that json.load cannot read, so no schema sees them
UNPARSABLE_CHECKPOINTS = {"not-json": b'{"schema": 1,', "not-utf-8": b"\xff\xfe{}"}
# shapes that break the top level and leave every entry intact; the last is a config that reads well
# but is not the one resumed under, which only comparing it with the resuming config sees
TOP_LEVEL_SHAPES = (
    "version-missing",
    "config-missing",
    "extra-top-key",
    "config-null",
    "version-not-string",
    "schema-next",
    "config-other-max-norm",
)
# the corrupted shapes of break_checkpoint; --resume must reject each
CHECKPOINT_SHAPES = (
    "list",
    "completed-list",
    "completed-missing",
    "entry-list",
    "missing-key",
    "extra-key",
    "non-integer-key",
    "D-mismatch",
    "vertex-count-text",
    "edge-count-float",
    "cliques-null",
    "clique-not-object",
    "clique-without-elems",
    "clique-without-orbit",
    "orbit-not-list",
    "element-without-y",
    *NON_CANONICAL_INT_TEXTS,
    "wall-time-text",
    *UNPARSABLE_CHECKPOINTS,
    *TOP_LEVEL_SHAPES,
    # a record that reads well but does not rebuild: only redoing _group_orbits' work sees these
    "tampered-element",
    "orbit-member-dropped",
    "D-outside-config",
)


def break_checkpoint(saved: dict, shape: str) -> bytes:
    """The bytes of checkpoint saved, parsed, with its entry of D = 1 broken into shape; the rest stays valid.

    saved is a checkpoint of D = 1, 2 whose D = 1 field has a clique record,
    so the element shapes have an element to break.  It is changed in place.
    """
    if shape in UNPARSABLE_CHECKPOINTS:
        return UNPARSABLE_CHECKPOINTS[shape]
    entry = saved["completed"].pop("1")  # schema and config hash still match; D=2 stays done
    if shape in TOP_LEVEL_SHAPES:
        saved["completed"]["1"] = entry
        if shape == "extra-top-key":
            saved["note"] = 0
        elif shape == "config-null":
            saved["config"] = None
        elif shape == "version-not-string":
            saved["version"] = 5
        elif shape == "schema-next":
            saved["schema"] += 1  # a version this loader does not read
        elif shape == "config-other-max-norm":
            saved["config"]["max_norm"] += 1
        else:
            del saved[shape.removesuffix("-missing")]
    elif shape in ("tampered-element", "orbit-member-dropped"):
        record = entry["cliques"][0]
        if shape == "tampered-element":
            # the representative and its copy as the orbit's first member, in canonical text
            for elem in (record["elems"][0], record["orbit"][0][0]):
                elem["x"] = str(int(elem["x"]) + 7)
        else:
            record["orbit"].pop()
        saved["completed"]["1"] = entry
    elif shape == "D-outside-config":
        # the entry a campaign of D = 3 writes, under the same settings
        config = saved["config"]
        other = SearchConfig(D_list=[3], max_norm=config["max_norm"], k=config["k"], n=config["n"])
        saved["completed"]["3"] = run_campaign(other).results[0].to_json()
        saved["completed"]["1"] = entry
    elif shape == "list":
        saved = [1, 2]
    elif shape == "completed-list":
        saved["completed"] = [1]
    elif shape == "completed-missing":
        del saved["completed"]
    elif shape == "entry-list":
        saved["completed"]["1"] = [1]
    elif shape == "missing-key":
        del entry["wall_time"]
        saved["completed"]["1"] = entry
    elif shape == "extra-key":
        saved["completed"]["1"] = {**entry, "note": 0}
    elif shape == "non-integer-key":
        saved["completed"]["one"] = entry
    elif shape == "D-mismatch":
        saved["completed"]["1"] = {**entry, "D": 2}
    elif shape == "element-without-y" or shape in NON_CANONICAL_INT_TEXTS:
        elem = entry["cliques"][0]["orbit"][-1][0]
        if shape == "element-without-y":
            del elem["y"]
        else:
            elem["x"] = NON_CANONICAL_INT_TEXTS[shape]
        saved["completed"]["1"] = entry
    else:
        # keys intact, one value of the wrong type
        bad = {
            "vertex-count-text": {"vertex_count": str(entry["vertex_count"])},
            "edge-count-float": {"edge_count": float(entry["edge_count"])},
            "cliques-null": {"cliques": None},
            "clique-not-object": {"cliques": [1]},
            "clique-without-elems": {"cliques": [{"orbit": []}]},
            "clique-without-orbit": {"cliques": [{"elems": entry["cliques"][0]["elems"]}]},
            "orbit-not-list": {"cliques": [{**entry["cliques"][0], "orbit": None}]},
            "wall-time-text": {"wall_time": "1.0"},
        }[shape]
        saved["completed"]["1"] = {**entry, **bad}
    return json.dumps(saved).encode()
