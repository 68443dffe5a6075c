"""Norm-bounded exhaustive search for D(n)-tuples across imaginary quadratic rings.

The D(n) k-tuples within a norm bound are the k-cliques of a compatibility
graph: its vertices are the nonzero elements of the ball (enum_elements, a
quad_ring.ElementRows holding one integer row per pair {a, -a}), and {a, b}
is an edge when a*b + n is a square.  build_graph finds the edges from the
witnesses x of a*b + n = x**2, not from vertex pairs, and records the orbit
roots.  _clique_indices lists the cliques: find_cliques from every vertex, a
search field (_run_field) from the orbit roots only, whose orbit records
_group_orbits re-verifies.  run_campaign runs a SearchConfig over many
fields, with a checkpoint per chunk of fields that is read back through
_group_orbits, in a process pool when clamp_workers finds that one pays.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import closing, suppress
from dataclasses import dataclass
from math import isqrt

from . import __version__
from .quad_ring import (
    ElementRows,
    QuadInt,
    RingParams,
    elem_from_json,
    elem_key,
    elem_to_json,
    make_ring,
    parse_elem,
    _class_rows,
    _half_ball_size,
)
from .tuples import make_tuple, tuple_orbit, verify_tuple

__all__ = [
    "SearchConfig",
    "CompatGraph",
    "FieldResult",
    "SearchReport",
    "enum_elements",
    "build_graph",
    "find_cliques",
    "run_campaign",
    "clamp_workers",
    "field_cost",
    "write_report",
    "write_clique_csv",
]

SCHEMA_VERSION = 1

# the forward neighbours of every vertex whose norm build_graph never divides by; shared, so read-only
_NO_NEIGHBOURS: frozenset[int] = frozenset()


def enum_elements(ring: RingParams, max_norm: int) -> ElementRows:
    """All nonzero elements with norm <= max_norm, sorted by (norm, x, y), as one integer row per pair {a, -a}."""
    return ElementRows(ring, max_norm)


@dataclass
class CompatGraph:
    """Compatibility graph: fwd[i] is the set of neighbours j > i of vertex i, for reading only.

    build_graph gives the vertices of the norms it never divides by one
    shared empty frozenset, and records roots; a graph built otherwise has
    roots None.
    """

    n: QuadInt
    vertices: ElementRows
    fwd: list[set[int] | frozenset[int]]
    # the orbit roots among the vertices of the norms build_graph divides by, ascending (see build_graph)
    roots: list[int] | None = None

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.fwd))

    def edges(self) -> list[tuple[QuadInt, QuadInt]]:
        return [(self.vertices[i], self.vertices[j]) for i, f in enumerate(self.fwd) for j in sorted(f)]


def _vertex_index(elements: ElementRows) -> tuple[int, int, list[int | None]]:
    """(S, off, slots): slots[u*S + v + off] is the index of the vertex of half-coordinates (u, v).

    With N the largest vertex norm, every element of norm <= N has
    u**2 + D*v**2 <= 4*N, so it lies in the box |u| <= U = isqrt(4*N),
    |v| <= V = isqrt(4*N // D); so do build_graph's quotients b, whose norm
    is M/m <= N.  S = 2*V + 1 makes the key u*S + v one-to-one on the box,
    from -off to off, and the offset off = U*S + V moves the keys onto
    0 .. 2*off, the indices of slots: no lookup is negative, so none wraps
    to the end of the list.  The box points outside the ball hold None, not
    a row, so a lookup that missed would raise a TypeError where
    build_graph compares or subtracts the row, instead of dropping an edge.

    One half row a fills both slots of its pair {a, -a}, with the two
    vertex indices ElementRows gives them; the slot of -a is 2*off minus
    that of a.  The start lo of a norm's half rows is the h at which the
    norm changes.
    """
    half, ends = elements.half, elements.ends
    N = half[-1][0]
    U, V = isqrt(4 * N), isqrt(4 * N // elements.ring.D)
    S = 2 * V + 1
    off = U * S + V
    off2 = 2 * off
    slots: list[int | None] = [None] * (off2 + 1)
    norm = 0
    for h, (m, _, _, u, v) in enumerate(half):
        if m != norm:  # h is the first half row of norm m
            norm, hi = m, ends[m]
            mirror = 2 * h + hi - 1
        k = u * S + v + off
        slots[k] = h + hi
        slots[off2 - k] = mirror - h
    return S, off, slots


def build_graph(elements: ElementRows, n: QuadInt) -> CompatGraph:
    """Edge {a, b} iff a*b + n is a square in O_K; enumerates witnesses x, not pairs.

    The vertices are an ElementRows of the ring of n, as enum_elements
    returns it: a whole norm ball by construction, sorted by elem_key, whose
    half rows (norm, x, y, u, v) are read as they are, so elements are built
    only where they are read.  Anything else (a list, a ball of another
    ring) raises ValueError.

    If a*b + n = x**2 then |x|**2 <= |a||b| + |n|, so norm(x) is at most
    N + isqrt(norm(n)) with N the largest vertex norm.  For each such x up to
    sign (x = 0 included), w = x**2 - n must be a product a*b of vertices.
    Taking norm(a) = m <= norm(b), m divides M = norm(w), m*m <= M, and M/m is
    a vertex norm, so M/N <= m: the candidate m form a window of the sorted
    vertex norms, and m is met when m | M and M/m is a vertex norm.

    The build runs in two phases.  Phase 1 scans the x, tests each window and
    records w = x**2 - n under every norm m it meets.  Phase 2 gives the
    vertices of the met norms their neighbour sets, then visits each met norm
    once, in its half rows, and divides every w recorded under m by them.
    Every edge found there is recorded at a vertex of norm m: the lower index
    of an edge lies in the smaller norm, and conjugation keeps norms.  So the
    vertices of the norms never met need no set; they share one empty
    frozenset, which readers of fwd only read.

    Each vertex a = (u + v*s)/2 of a met norm is tested for a | w by an exact
    division inlined on integers (quad_ring._div_half without its parity
    test): for w = (WU + WV*s)/2, b = w/a = w*conj(a)/m is (P + Q*s)/2m with
    P = WU*u + WV*D*v, Q = WV*u - WU*v.  When 2m divides P and Q, b has the
    integer norm M/m, so b, -b, conj(b) and -conj(b) lie in O_K (the
    integrality rule) and in the ball, since M/m <= N.  They are read from
    _vertex_index's slot list over the half-coordinate box of the ball: for
    k the slot of b, the slots of b, conj(b), -b and -conj(b) are k,
    k - Q/m, 2*off - k and 2*off - k + Q/m.  The bound M/m <= N puts each in
    the box, so each read lies in the list and holds a row; a miss would
    raise where the row is compared or subtracted, never drop an edge or
    wrap to the end of the list.  One division serves each pair {a, -a}: -a
    divides w exactly when a does, with quotient -b.  A half row is the a of
    its pair, vertex i, and -a is vertex last - i (ElementRows); {a, b} and
    {-a, -b} are edges when b = w/a.

    The same loop records the orbit roots, the vertices whose index is the
    lowest among their images: -a, and for rational n also conj(a) and
    -conj(a), all of norm m.  For a half row a, -a is the lower index of
    the pair, so it is the root when n is not rational; for rational n it is
    the root when it lies below conj(a) and -conj(a), so each orbit records
    its root once.  The lexicographically smallest clique of an orbit has a
    root as its lowest vertex (an image of that vertex with a lower index
    would give a smaller clique of the orbit), and that vertex has an edge,
    so its norm is met: growing cliques from the roots, sorted ascending,
    finds every orbit (isomorph rejection at the root: McKay, J. Algorithms
    26, 1998).

    When n is rational, conjugation maps the graph onto itself:
    conj(a)*conj(b) + n is the conjugate of a*b + n.  Then only the x with
    v >= 0 are scanned, and each edge found from a w that is not rational also
    gives {conj(a), conj(b)} and {-conj(a), -conj(b)}, the edges of conj(x),
    which is not scanned.  Otherwise every x up to sign is scanned, in the
    same loop.

    Cost follows the x scanned (about N + isqrt(norm(n)) elements, half of
    them on the conjugation path), the window tests and the norms met, with
    their vertices and the w recorded under them; not the number of vertex
    pairs.  Beyond the vertex slots, filled from the half rows in one pass,
    a vertex of a norm never met costs nothing.
    """
    ring = n.ring
    D = ring.D
    if not (isinstance(elements, ElementRows) and elements.ring == ring):
        raise ValueError("elements must be a norm ball of the ring of n, as enum_elements returns it")
    half, ends = elements.half, elements.ends
    S, off, slots = _vertex_index(elements)
    off2 = 2 * off
    norms = list(ends)  # the vertex norms, ascending
    N = norms[-1]
    top = N * N
    xmax = N + isqrt(n.norm())

    Un, Vn = n.half_coords()
    by_conj = Vn == 0
    # phase 1: met norm m -> [(WU, WV, mirror)], the w = x**2 - n = (WU + WV*s)/2 to divide by its vertices
    met: defaultdict[int, list[tuple[int, int, bool]]] = defaultdict(list)
    # rows of x = (p + q*s)/2 hold one of each pair {x, -x} (same w); x = 0 is a witness when a*b = -n
    for q, ps in [(0, range(1)), *((q, ps) for q, ps in _class_rows(D, xmax) if q >= 0 or not by_conj)]:
        dqq = D * q * q
        for p in ps:
            # w = x**2 - n = (WU + WV*s)/2
            WU = ((p * p - dqq) >> 1) - Un
            WV = p * q - Vn
            M = (WU * WU + D * WV * WV) >> 2
            if M == 0 or M > top:
                continue
            w = None
            # m = norm(a) in the window ceil(M/N) <= m <= isqrt(M)
            for m in norms[bisect_left(norms, -(-M // N)) : bisect_right(norms, isqrt(M))]:
                if M % m or M // m not in ends:
                    continue
                if w is None:
                    # conj(x) is not scanned, and its w = conj(w) differs from w
                    w = (WU, WV, by_conj and WV != 0)
                met[m].append(w)

    # phase 2: every edge is recorded at a vertex of the norm m divided by, so only met norms get sets.
    # They are all made before any is filled, so the garbage collections that their making sets off
    # traverse empty sets (made norm by norm between divisions, they cost field-d1 about 0.5 ms more)
    # lo .. hi - 1: the half rows of a met norm, whose vertices are 2*lo .. 2*hi - 1
    spans = [(bisect_left(half, (m,)), ends[m]) for m in met]
    fwd: list[set[int] | frozenset[int]] = [_NO_NEIGHBOURS] * len(elements)
    for lo, hi in spans:
        for i in range(2 * lo, 2 * hi):
            fwd[i] = set()
    roots: list[int] = []
    for (lo, hi), (m, ws) in zip(spans, met.items()):
        last = 2 * (lo + hi) - 1
        m2 = 2 * m
        # half row h is vertex i = h + hi, one a of each pair {a, -a}, and -a is vertex last - i
        for i, (_, _, _, u, v) in enumerate(half[lo:hi], lo + hi):
            ci = slots[u * S - v + off]  # conj(a)
            ni, nci = last - i, last - ci  # -a, -conj(a)
            # -a is the orbit root, for rational n when it lies below conj(a) and -conj(a) too
            if not by_conj or (ni <= ci and ni <= nci):
                roots.append(ni)
            Dv = D * v
            for WU, WV, mirror in ws:
                P = WU * u + WV * Dv
                Q = WV * u - WU * v
                if P % m2 or Q % m2:
                    continue
                bv = Q // m2  # b = (P + Q*s)/2m is a vertex
                k = P // m2 * S + bv + off  # the slot of b
                # rows are sorted by norm first: norm(a) < norm(b) finds the edge only from a,
                # the lower index; equal norms (m*m = M) find it from both ends, kept once
                j = slots[k]
                if j > i:
                    fwd[i].add(j)
                    if mirror:  # conj(a) * conj(b) = conj(w)
                        j = slots[k - 2 * bv]
                        # conjugation keeps norms, so only equal norms can swap the two ends
                        if ci < j:
                            fwd[ci].add(j)
                        else:
                            fwd[j].add(ci)
                j = slots[off2 - k]  # (-a) * (-b) = w
                if j > ni:
                    fwd[ni].add(j)
                    if mirror:  # -conj(a) * -conj(b) = conj(w)
                        j = slots[off2 - k + 2 * bv]
                        if nci < j:
                            fwd[nci].add(j)
                        else:
                            fwd[j].add(nci)
    roots.sort()
    return CompatGraph(n, elements, fwd, roots)


def find_cliques(g: CompatGraph, k: int) -> list[tuple[QuadInt, ...]]:
    """All k-cliques, each once, in lexicographic order of their (norm, x, y) vertex indices.

    This is _clique_indices grown from every vertex.  A search field
    (_run_field) grows the same DFS from g.roots only, so its listing is an
    ordered sublist of this one.
    """
    vs = g.vertices
    return [tuple(map(vs.__getitem__, idx)) for idx in _clique_indices(g.fwd, k, range(len(g.fwd)))]


def _clique_indices(fwd: list[set[int]], k: int, roots) -> list[tuple[int, ...]]:
    """The k-cliques whose lowest vertex is in roots (ascending indices), as sorted index tuples.

    roots is every vertex (find_cliques) or a graph's orbit roots (_run_field);
    a root with fewer than k - 1 forward neighbours is skipped.  Each clique
    grows from its lowest vertex i over the sorted fwd[i] (Chiba and
    Nishizeki, SIAM J. Comput. 14, 1985).  At each step
    the candidates adjacent to a new vertex j are fwd[j] & cand, one C-level
    set intersection (fwd[j] holds only indices > j, so these are exactly the
    later candidates adjacent to j), and a prefix of k - 1 vertices emits one
    clique per candidate.  Roots ascend and candidates are sorted, so the
    order is that of the plain candidate-list DFS: lexicographic.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], cand: list[int], cset: set[int]) -> None:
        # cand: the sorted indices after prefix[-1] adjacent to every vertex of prefix; cset: as a set
        if len(prefix) == k - 1:
            out.extend([prefix + (j,) for j in cand])
            return
        need = k - len(prefix) - 1  # vertices still to add after the next one
        for j in cand:
            nxt = fwd[j] & cset
            if len(nxt) >= need:
                grow(prefix + (j,), sorted(nxt), nxt)

    for i in roots:
        f = fwd[i]
        if len(f) >= k - 1:
            grow((i,), sorted(f), f)
    return out


@dataclass(frozen=True)
class SearchConfig:
    """Campaign parameters, checked as they are built; n is element text so one config spans many rings.

    Construction raises ValueError on a bad setting, a bad D or an n outside
    some O_K, so every SearchConfig is a valid campaign.  n is parsed once in
    the ring of every distinct D and kept, by ascending D, in _n_by_D, which
    is not a field.  D_list is stored as a tuple, whatever sequence is given,
    so the config cannot change after that check.
    """

    D_list: tuple[int, ...]
    max_norm: int
    k: int
    n: str = "-1"
    jobs: int = 1
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "D_list", tuple(self.D_list))
        if self.max_norm < 1:
            raise ValueError("max_norm must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.D_list:
            raise ValueError("D_list must be nonempty")
        n_by_D: dict[int, QuadInt] = {}
        for D in sorted(set(self.D_list)):
            ring = make_ring(D)  # raises on non-squarefree D
            try:
                n_by_D[D] = parse_elem(self.n, ring)
            except ValueError as exc:
                raise ValueError(f"n={self.n!r} is not an element of O_K for D={D}: {exc}") from None
        object.__setattr__(self, "_n_by_D", n_by_D)

    def _canonical_n(self) -> str:
        """Ring-independent text of n from its half-coordinates (U, V) in every ring.

        A plain integer when n is rational, otherwise (U+V*s)/2 with s = sqrt(-D).
        Text in terms of w that names different elements in the two omega
        conventions gives one text per distinct element, comma-separated.
        """
        texts = set()
        for e in self._n_by_D.values():
            U, V = e.half_coords()
            texts.add(str(U // 2) if V == 0 else f"({U}{V:+d}*s)/2")
        return ",".join(sorted(texts))

    def semantic_json(self) -> dict:
        # jobs and checkpoint_path do not affect results, so they are not hashed
        return {
            "D_list": list(self._n_by_D),
            "max_norm": self.max_norm,
            "k": self.k,
            "n": self.n,
            # every report groups its cliques into orbits; the key stays so that config
            # hashes, and with them older checkpoints, are unchanged
            "symmetry_prune": True,
        }

    def config_hash(self) -> str:
        # n is hashed in canonical form, so "-1" and "-1+0*w" share checkpoints
        blob = json.dumps({**self.semantic_json(), "n": self._canonical_n()}, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class FieldResult:
    """One searched field, as _run_field returns it and a campaign, its checkpoint and its report hold it.

    to_json, keyed in field order, is its one serialisation: checkpoint entry, report result, progress record.
    """

    D: int
    vertex_count: int
    edge_count: int
    cliques: list[dict]  # {"elems": representative, "orbit": [every member]}
    wall_time: float

    def clique_sets(self, ring: RingParams) -> set[frozenset[QuadInt]]:
        return {frozenset(elem_from_json(e, ring) for e in g) for rec in self.cliques for g in rec["orbit"]}

    def to_json(self) -> dict:
        # the fields are JSON values already, so a shallow dict serialises as a deep copy would
        return dict(vars(self))


@dataclass
class SearchReport:
    config: SearchConfig
    results: list[FieldResult]
    wall_time: float

    @property
    def total_cliques(self) -> int:
        return sum(len(rec["orbit"]) for r in self.results for rec in r.cliques)

    def sorted_cliques(self) -> list[tuple[int, tuple[QuadInt, ...]]]:
        """(D, elems) per clique, orbits expanded, elems by (norm, x, y); ordered by D, then elems."""
        out = []
        for r in sorted(self.results, key=lambda r: r.D):
            cliques = [tuple(sorted(s, key=elem_key)) for s in r.clique_sets(make_ring(r.D))]
            cliques.sort(key=_clique_key)
            out += [(r.D, c) for c in cliques]
        return out

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "config": {**self.config.semantic_json(), "jobs": self.config.jobs},
            "results": [r.to_json() for r in self.results],
            "total_cliques": self.total_cliques,
            "wall_time": self.wall_time,
        }


def _run_field(D: int, max_norm: int, k: int, n: QuadInt) -> FieldResult:
    """The FieldResult of field D, n in its ring: the graph, one clique per orbit from its roots, the orbit records."""
    t0 = time.monotonic()
    elems = enum_elements(n.ring, max_norm)
    g = build_graph(elems, n)
    reps = [tuple(map(elems.__getitem__, idx)) for idx in _clique_indices(g.fwd, k, g.roots)]
    return FieldResult(D, len(elems), g.edge_count, _group_orbits(reps, n), time.monotonic() - t0)


def _clique_key(c) -> tuple:
    """The order of cliques: by the elem_key of each element in turn."""
    return tuple(map(elem_key, c))


def _group_orbits(cliques: list[tuple[QuadInt, ...]], n: QuadInt) -> list[dict]:
    """Group cliques in lexicographic order into symmetry orbit records, re-verifying every member.

    An orbit is {C, -C, conj(C), -conj(C)} (conjugates only for rational n),
    and its record is the sorted orbit with its first member as
    representative.  Records follow the first clique of each orbit met.  The
    first met is the orbit's lexicographically smallest, both in find_cliques'
    full listing and in _run_field's listing from the graph's roots (an
    ordered sublist holding that clique), so both give the same records in
    the same order.  Every member is re-verified with verify_tuple, whether
    it was listed or not; a failure raises RuntimeError.
    """
    seen: set[tuple] = set()
    records: list[dict] = []
    for c in cliques:
        if _clique_key(c) in seen:
            continue
        orbit = sorted(tuple_orbit(make_tuple(n.ring, n, c)), key=lambda t: _clique_key(t.elems))
        for t in orbit:
            # report invariant: every recorded clique re-verifies
            if not verify_tuple(t).ok:
                raise RuntimeError(f"clique {t.elems} failed re-verification")
            seen.add(_clique_key(t.elems))
        members = [[elem_to_json(e) for e in t.elems] for t in orbit]
        records.append({"elems": members[0], "orbit": members})
    return records


def _atomic_write(path: str, write) -> None:
    """Call write(f) on path.tmp, fsync it, then rename it over path; a failure removes path.tmp, keeping path."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _atomic_write_json(path: str, payload: dict) -> None:
    """Write payload atomically as compact JSON, without whitespace: the one file format of checkpoint and report."""
    # json.dumps, unlike json.dump, uses the C encoder when there is no indent
    _atomic_write(path, lambda f: f.write(json.dumps(payload, separators=(",", ":"))))


def _load_checkpoint(cfg: SearchConfig, config_hash: str) -> dict[int, FieldResult]:
    """The FieldResults stored in cfg's checkpoint, by D, each accepted only when rebuilding it gives it back.

    The top level must hold the keys _save_checkpoint writes, a string version
    and a config equal to cfg.semantic_json() but for the text of n.  An entry is a
    FieldResult's to_json under the text of its D, one of cfg's fields, with int
    counts and a numeric wall_time.  Its representatives, decoded in the
    field's ring, must be k-subsets of the norm ball, and _group_orbits must
    rebuild, re-verifying every member, exactly the stored records.  Vertex
    and edge counts are taken as stored: checking them needs a rerun.
    """
    path = cfg.checkpoint_path
    if not path or not os.path.exists(path):
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on bytes that are not UTF-8
        raise ValueError(f"checkpoint {path}: not valid JSON ({exc})") from None
    top = ("schema", "version", "config_hash", "config", "completed")  # as _save_checkpoint writes them
    if not (
        isinstance(data, dict)
        and data.keys() == set(top)
        and isinstance(data["version"], str)
        and isinstance(data["completed"], dict)
    ):
        raise ValueError(
            f"checkpoint {path}: expected a JSON object of exactly the keys {', '.join(top)}, with a string version"
        )
    if data["schema"] != SCHEMA_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported schema {data['schema']}")
    config = data["config"]
    # config_hash ties n in canonical form, so the stored text of n may be another spelling of cfg.n
    if not (
        data["config_hash"] == config_hash
        and isinstance(config, dict)
        and isinstance(config.get("n"), str)
        and json.dumps({**config, "n": cfg.n}, sort_keys=True) == json.dumps(cfg.semantic_json(), sort_keys=True)
    ):
        raise ValueError(f"checkpoint {path} was written by a different configuration")
    completed = {}
    for key, res in data["completed"].items():
        try:
            r = FieldResult(**res)
            n = cfg._n_by_D[r.D]
            reps = [[elem_from_json(e, n.ring) for e in rec["elems"]] for rec in r.cliques]
            rebuilt = (
                key == str(r.D)
                and all(type(c) is int for c in (r.D, r.vertex_count, r.edge_count))
                and type(r.wall_time) in (int, float)
                and all(len(c) == cfg.k and all(e.norm() <= cfg.max_norm for e in c) for c in reps)
                and _group_orbits(reps, n) == r.cliques
            )
        except (KeyError, TypeError, ValueError, RuntimeError):
            rebuilt = False
        if not rebuilt:
            raise ValueError(f"checkpoint {path}: malformed 'completed' entry {key!r}: it does not rebuild as stored")
        completed[r.D] = r
    return completed


def _save_checkpoint(cfg: SearchConfig, config_hash: str, completed: dict[int, FieldResult]) -> None:
    """Rewrite the checkpoint, each FieldResult's to_json under the text of its D; config_hash is computed once."""
    if not cfg.checkpoint_path:
        return
    _atomic_write_json(
        cfg.checkpoint_path,
        {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "config_hash": config_hash,
            "config": cfg.semantic_json(),
            "completed": {str(D): r.to_json() for D, r in sorted(completed.items())},
        },
    )


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the fixed work of a field (ring, n, orbit records) costs about as much as scanning two x
_FIELD_BASE_COST = 2
# predicted cost (x scanned) that each worker of a pool needs for the pool to pay (see clamp_workers)
_WORKER_COST = 10_000
# chunks per worker at most: enough to even out the tail, few enough that checkpoint writes stay cheap
_CHUNKS_PER_WORKER = 4


def clamp_workers(jobs: int, costs: list[int], cpus: int) -> int:
    """Worker processes for a campaign; costs holds the field_cost of each pending field.

    min(jobs, pending fields, cpus, sum(costs) // _WORKER_COST), at least 1,
    so a pool of w workers needs a predicted total of at least
    w * _WORKER_COST.  A pool of 2 pays once it saves about as much wall
    time as the CPU time its workers add: over the 139 fields D <= 225 at
    k=5, on a shared 2-vCPU machine, that break-even fell, noisily, between
    predicted totals of 12,000 and 22,000 x (N = 300-576), and 2 * 10,000
    lies inside it.  At N = 224 (8,929 x) the pool saved a few milliseconds
    of wall time at best and took 40-50% more CPU.  The floor is a constant,
    not an option, and changes no answer.
    """
    return max(1, min(jobs, len(costs), cpus, sum(costs) // _WORKER_COST))


def field_cost(D: int, max_norm: int) -> int:
    """Predicted cost of one field, in witnesses x that build_graph scans; builds no element.

    Counts the x up to sign with norm(x) <= max_norm (x = 0 included) from the
    integer-square-root row bounds of _class_rows, plus a constant per field.
    build_graph's own bound, N + isqrt(norm(n)) with N the largest vertex
    norm, differs by a few x, which does not matter for ranking fields.
    """
    return _FIELD_BASE_COST + 1 + _half_ball_size(D, max_norm)


def _chunks(tasks: list[tuple], costs: list[int], workers: int) -> list[list[tuple]]:
    """Group the _run_field tasks into chunks of balanced cost, one checkpoint write each.

    costs[i] is the field_cost of tasks[i].  There are
    max(1, min(len(tasks), 4 * workers, sum(costs) // _WORKER_COST)) chunks,
    none for no task, so several chunks carry on average at least the
    _WORKER_COST of predicted work that clamp_workers asks of a worker, and a
    campaign predicted below 2 * _WORKER_COST is one chunk.  Longest
    processing time first (Graham, SIAM J. Appl. Math. 1969): tasks in order
    of falling cost, ties by D, each to the chunk with the least load so far,
    ties by chunk index.  The largest load then exceeds the smallest by at
    most the largest single cost, and the costliest fields start first, so
    they do not set the tail.
    """
    count = min(len(tasks), max(1, min(_CHUNKS_PER_WORKER * workers, sum(costs) // _WORKER_COST)))
    chunks: list[list[tuple]] = [[] for _ in range(count)]
    loads = [(0, c) for c in range(count)]  # a heap of (load, chunk index)
    for cost, task in sorted(zip(costs, tasks), key=lambda ct: (-ct[0], ct[1][0])):
        load, c = loads[0]
        chunks[c].append(task)
        heapq.heapreplace(loads, (load + cost, c))
    return chunks


def _run_chunk(chunk: list[tuple]) -> list[FieldResult]:
    """_run_field(*task) for each task of a chunk; the unit of work of a campaign."""
    return [_run_field(*task) for task in chunk]


def _field_results(chunks: list[list[tuple]], workers: int):
    """Yield one list of FieldResults per chunk, as each chunk completes.

    One worker runs the chunks in this process, in order; more run them in a
    process pool, in completion order.  A worker failure propagates.  Closing
    the generator early (the caller raised, or a checkpoint write failed)
    cancels the chunks not yet started and waits for the running ones.
    """
    if workers == 1:
        for chunk in chunks:
            yield _run_chunk(chunk)
        return
    # imported here: concurrent.futures.process pulls in multiprocessing, which one worker never needs
    from concurrent.futures import ProcessPoolExecutor, as_completed

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
        for fut in as_completed(futures):
            yield fut.result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_campaign(cfg: SearchConfig, progress=None) -> SearchReport:
    """Run the campaign in chunks of fields, checkpointing once per completed chunk.

    cfg was checked as it was built, and each field's task carries n as
    parsed then in the field's ring, so nothing here checks or parses again.
    Fields already present in a compatible checkpoint are skipped.  The
    pending fields are grouped by _chunks into cost-balanced chunks; each
    chunk's FieldResults pass through one loop, in completion order: every
    result is stored, the checkpoint is rewritten once, then each result's
    to_json, the dict of its checkpoint entry, is handed to progress.  A
    crash therefore loses at most the chunks in flight, one per worker, each
    about sum(costs) / chunks of predicted work, which is at least
    _WORKER_COST: the whole campaign when it is predicted below
    2 * _WORKER_COST.  Each pending field's field_cost is computed once and
    serves both the chunks and clamp_workers, which caps cfg.jobs by the
    pending fields, the usable CPUs and the predicted total cost (each
    worker needs _WORKER_COST of it).  With one worker the chunks run in
    this process, else in a process pool with one chunk per task; the merge
    is by ascending D and independent of completion order.  Leaving the
    loop early cancels the chunks not yet started.  The report holds the
    stored FieldResults by ascending D, and its config records cfg.jobs as
    requested, not the workers used.
    """
    t0 = time.monotonic()
    config_hash = cfg.config_hash()
    completed = _load_checkpoint(cfg, config_hash)
    tasks = [(D, cfg.max_norm, cfg.k, n) for D, n in cfg._n_by_D.items() if D not in completed]
    costs = [field_cost(D, cfg.max_norm) for D, *_ in tasks]
    workers = clamp_workers(cfg.jobs, costs, _usable_cpus())
    # closing() shuts the pool down as soon as the loop is left, not when the generator is freed
    with closing(_field_results(_chunks(tasks, costs, workers), workers)) as chunk_results:
        for results in chunk_results:
            for r in results:
                completed[r.D] = r
            _save_checkpoint(cfg, config_hash, completed)
            if progress:
                for r in results:
                    progress(r.to_json())

    return SearchReport(cfg, [completed[D] for D in cfg._n_by_D], time.monotonic() - t0)


def write_report(report: SearchReport, path: str) -> None:
    """Write the report as the checkpoint is written (_atomic_write_json); `search --json` prints it indented."""
    _atomic_write_json(path, report.to_json())


def write_clique_csv(report: SearchReport, path: str) -> None:
    """CSV export: one row per clique, columns D, k, elems..."""
    import csv

    rows = [[D, len(elems), *map(str, elems)] for D, elems in report.sorted_cliques()]
    _atomic_write(path, lambda f: csv.writer(f).writerows([["D", "k", "elems"], *rows]))
