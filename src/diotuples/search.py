"""Norm-bounded exhaustive search for D(n)-tuples across imaginary quadratic rings.

Tuples of size k are exactly the k-cliques of the compatibility graph whose
vertices are the nonzero elements within a norm bound and whose edges join
pairs {a, b} with a*b + n a square.  build_graph finds the edges from the
witnesses: for each candidate x it divides x**2 - n by the vertices whose norm
lies in a window of the sorted vertex norms and divides M = norm(x**2 - n),
one division per pair {a, -a} (the quotients are b and -b), so its cost
follows the number of x up to isqrt(N1*N2) + isqrt(norm(n)) (N1 >= N2 the two
largest vertex norms), not the number of vertex pairs.  The sparse graph is
stored as forward-neighbour sets, which find_cliques narrows into candidate
sets by set intersection.  A campaign groups its pending fields into chunks of
balanced predicted cost (field_cost, scheduled longest first), runs one chunk
per work unit and rewrites its compact, fsync'd JSON checkpoint once per chunk,
so a crash loses at most the chunks in flight; it resumes from the checkpoint.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import time
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import closing
from dataclasses import asdict, dataclass, fields
from math import isqrt
from operator import itemgetter

from . import __version__
from .quad_ring import (
    QuadInt,
    RingParams,
    elem_from_json,
    elem_key,
    elem_to_json,
    make_ring,
    parse_elem,
    sorted_ball,
    _div_half,
    _half_rows,
    _iter_half,
    _sqrt_half,
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
    "brute_force_tuples",
    "run_campaign",
    "clamp_workers",
    "field_cost",
    "load_report",
    "write_report",
    "write_clique_csv",
]

SCHEMA_VERSION = 1


def enum_elements(ring: RingParams, max_norm: int) -> list[QuadInt]:
    """All nonzero elements with norm <= max_norm, sorted by (norm, x, y)."""
    if max_norm < 1:
        raise ValueError("max_norm must be >= 1")
    return sorted_ball(ring, max_norm)


@dataclass
class CompatGraph:
    """Compatibility graph: fwd[i] is the set of neighbours j > i of vertex i."""

    ring: RingParams
    n: QuadInt
    vertices: list[QuadInt]
    fwd: list[set[int]]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.fwd))

    def edges(self) -> list[tuple[QuadInt, QuadInt]]:
        return [(self.vertices[i], self.vertices[j]) for i, f in enumerate(self.fwd) for j in sorted(f)]


def build_graph(elements, n: QuadInt) -> CompatGraph:
    """Edge {a, b} iff a*b + n is a square in O_K; enumerates witnesses x, not pairs.

    If a*b + n = x**2 then |x|**2 <= |a||b| + |n|, so norm(x) is at most
    isqrt(N1*N2) + isqrt(norm(n)) + 1 with N1 >= N2 the two largest vertex norms.
    For each such x up to sign (x = 0 included), w = x**2 - n must be a product
    a*b of vertices.  Taking norm(a) = m <= norm(b), m divides M = norm(w),
    m*m <= M, and M/m is a vertex norm, so M/N1 <= m: the candidate m form a
    window of the sorted vertex norms, and each is kept when m | M and M/m is
    a vertex norm.  The vertices a of such a norm m are tested for a | w by an
    exact division on half-coordinates (quad_ring's integer core), one division
    per pair {a, -a}: -a divides w exactly when a does, with quotient -b.  So
    each norm keeps one representative of each pair, the one in _iter_half's
    half-plane or the only one present, with the index of -a when -a is a vertex
    too; {a, b} and {-a, -b} are edges when b = w/a and -b are vertices.  Vertex
    lists that are not a norm ball work alike, because b is looked up by membership.

    Cost follows the number of x, about isqrt(N1*N2) + isqrt(norm(n)) elements
    times the width of each norm window, not the number of vertex pairs: a
    sparse list with one element of high norm scans as many x as the full ball.
    """
    ring = n.ring
    D = ring.D
    rows = []  # ((norm, x, y), u, v, element): the elem_key order, from one half_coords call
    for e in elements:
        if e.ring is not ring and e.ring != ring:
            raise ValueError("elements must live in the ring of n")
        if e.is_zero():
            raise ValueError("zero is not a valid vertex")
        u, v = e.half_coords()
        rows.append((((u * u + D * v * v) // 4, e.x, e.y), u, v, e))
    rows.sort(key=itemgetter(0))
    vs = [e for _, _, _, e in rows]
    index: dict[tuple[int, int], int] = {(u, v): i for i, (_, u, v, _) in enumerate(rows)}
    if len(index) != len(vs):  # one ring, so equal half-coordinates mean equal elements
        raise ValueError("duplicate vertices")
    # norm -> [(u, v, index of a, index of -a or None)], one representative a of each pair {a, -a}
    by_norm: dict[int, list[tuple[int, int, int, int | None]]] = {}
    for i, ((m, _, _), u, v, _) in enumerate(rows):
        if u > 0 or (u == 0 and v > 0):
            by_norm.setdefault(m, []).append((u, v, i, index.get((-u, -v))))
        elif (-u, -v) not in index:
            by_norm.setdefault(m, []).append((u, v, i, None))
    del rows  # the sort keys are not needed by the scan, which allocates the adjacency
    fwd: list[set[int]] = [set() for _ in vs]
    if len(vs) < 2:
        return CompatGraph(ring, n, vs, fwd)

    Un, Vn = n.half_coords()
    norms = sorted(by_norm)
    N1 = norms[-1]
    top = N1 * vs[-2].norm()  # N1 * N2: vs is sorted by norm first
    xmax = isqrt(top) + isqrt(n.norm()) + 1
    # x and -x give the same w: _iter_half yields one of each pair; x = 0 is a witness when a*b = -n
    for p, q in [(0, 0), *_iter_half(D, xmax)]:
        # w = x**2 - n = (WU + WV*s)/2
        WU = ((p * p - D * q * q) >> 1) - Un
        WV = p * q - Vn
        M = (WU * WU + D * WV * WV) >> 2
        if M == 0 or M > top:
            continue
        # m = norm(a) in the window ceil(M/N1) <= m <= isqrt(M)
        for m in norms[bisect_left(norms, -(-M // N1)) : bisect_right(norms, isqrt(M))]:
            if M % m or M // m not in by_norm:
                continue
            for u, v, i, ni in by_norm[m]:
                b = _div_half(D, WU, WV, u, v)
                if b is None:
                    continue
                # vs is sorted by norm first: norm(a) < norm(b) finds the edge only from a,
                # the lower index; equal norms (m*m = M) find it from both ends, kept once
                j = index.get(b)
                if j is not None and j > i:
                    fwd[i].add(j)
                if ni is not None:  # (-a) * (-b) = w
                    j = index.get((-b[0], -b[1]))
                    if j is not None and j > ni:
                        fwd[ni].add(j)
    return CompatGraph(ring, n, vs, fwd)


def find_cliques(g: CompatGraph, k: int) -> list[tuple[QuadInt, ...]]:
    """All k-cliques, each once, in lexicographic order of their (norm, x, y) vertex indices.

    Each grows from its lowest vertex i over the sorted fwd[i].  At each step
    the candidates adjacent to a new vertex j are fwd[j] & cand, one C-level
    set intersection (fwd[j] holds only indices > j, so these are exactly the
    later candidates adjacent to j), and the last vertex is emitted straight
    from that intersection.  Roots ascend and candidates are sorted, so the
    order is that of the plain candidate-list DFS.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    fwd = g.fwd
    vs = g.vertices
    if k == 2:
        return [(vs[i], vs[j]) for i, f in enumerate(fwd) for j in sorted(f)]
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], cand: list[int], cset: set[int]) -> None:
        # cand: the sorted indices after prefix[-1] adjacent to every vertex of prefix; cset: as a set
        need = k - len(prefix) - 1  # vertices still to add after the next one
        for j in cand:
            nxt = fwd[j] & cset
            if len(nxt) < need:
                continue
            if need == 1:
                out.extend((*prefix, j, l) for l in sorted(nxt))
            else:
                grow((*prefix, j), sorted(nxt), nxt)

    for i, f in enumerate(fwd):
        if len(f) >= k - 1:
            grow((i,), sorted(f), f)
    return [tuple(map(vs.__getitem__, idx)) for idx in out]


def brute_force_tuples(elements, k: int, n: QuadInt) -> list[tuple[QuadInt, ...]]:
    """Oracle for find_cliques: k-subsets whose pairs all carry witnesses.

    Subsets are enumerated in lexicographic order; each prefix carries the
    later indices compatible with all of its elements, so a prefix with a
    witness-less pair is never extended (a subset fails verification on that
    same pair, so nothing is lost); accepted subsets are re-passed through
    verify_tuple.  A pair is tested by a square root of a*b + n on
    half-coordinates (build_graph decides edges by exact division instead);
    no graph or adjacency is shared with build_graph or find_cliques.
    Intended for small inputs (<= ~200 elements).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    vs = sorted(elements, key=elem_key)
    if any(e.ring != n.ring for e in vs):
        raise ValueError("elements must live in the ring of n")
    cnt = len(vs)
    out: list[tuple[QuadInt, ...]] = []
    D = n.ring.D
    Un, Vn = n.half_coords()
    coords = [e.half_coords() for e in vs]

    def compatible(i: int, j: int) -> bool:
        (u1, v1), (u2, v2) = coords[i], coords[j]
        # a*b + n = (Un + P + (Vn + Q)*s)/2
        P = (u1 * u2 - D * v1 * v2) >> 1
        Q = (u1 * v2 + v1 * u2) >> 1
        return _sqrt_half(D, Un + P, Vn + Q) is not None

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

    rec([], list(range(cnt)))
    return out


@dataclass
class SearchConfig:
    """Campaign parameters; n is element text so one config spans many rings."""

    D_list: list[int]
    max_norm: int
    k: int
    n: str = "-1"
    symmetry_prune: bool = True
    jobs: int = 1
    checkpoint_path: str | None = None

    def validate(self) -> None:
        if self.max_norm < 1:
            raise ValueError("max_norm must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.D_list:
            raise ValueError("D_list must be nonempty")
        self._parsed_n()

    def _parsed_n(self) -> list[QuadInt]:
        """n parsed in the ring of every D; ValueError on a bad D or an n outside O_K."""
        out = []
        for D in sorted(set(self.D_list)):
            ring = make_ring(D)  # raises on non-squarefree D
            try:
                out.append(parse_elem(self.n, ring))
            except ValueError as exc:
                raise ValueError(f"n={self.n!r} is not an element of O_K for D={D}: {exc}") from None
        return out

    def _canonical_n(self) -> str:
        """Ring-independent text of n from its half-coordinates (U, V) in every ring.

        A plain integer when n is rational, otherwise (U+V*s)/2 with s = sqrt(-D).
        Text in terms of w that names different elements in the two omega
        conventions gives one text per distinct element, comma-separated.
        """
        texts = set()
        for e in self._parsed_n():
            U, V = e.half_coords()
            texts.add(str(U // 2) if V == 0 else f"({U}{V:+d}*s)/2")
        return ",".join(sorted(texts))

    def semantic_json(self) -> dict:
        # jobs and checkpoint_path do not affect results, so they are not hashed
        return {
            "D_list": sorted(set(self.D_list)),
            "max_norm": self.max_norm,
            "k": self.k,
            "n": self.n,
            "symmetry_prune": self.symmetry_prune,
        }

    def config_hash(self) -> str:
        # n is hashed in canonical form, so "-1" and "-1+0*w" share checkpoints
        blob = json.dumps({**self.semantic_json(), "n": self._canonical_n()}, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class FieldResult:
    D: int
    vertex_count: int
    edge_count: int
    cliques: list[dict]  # {"elems": [...]} plus "orbit": [[...]] when pruned
    wall_time: float

    def clique_sets(self, ring: RingParams) -> set[frozenset[QuadInt]]:
        out: set[frozenset[QuadInt]] = set()
        for rec in self.cliques:
            groups = rec.get("orbit", [rec["elems"]])
            for g in groups:
                out.add(frozenset(elem_from_json(e, ring) for e in g))
        return out

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class SearchReport:
    config: SearchConfig
    results: list[FieldResult]
    wall_time: float

    @property
    def total_cliques(self) -> int:
        total = 0
        for r in self.results:
            for rec in r.cliques:
                total += len(rec.get("orbit", [rec["elems"]]))
        return total

    def all_clique_sets(self) -> dict[int, set[frozenset[QuadInt]]]:
        return {r.D: r.clique_sets(make_ring(r.D)) for r in self.results}

    def sorted_cliques(self) -> list[tuple[int, tuple[QuadInt, ...]]]:
        """(D, elems) per clique, orbits expanded, elems by (norm, x, y); ordered by D, then elems."""
        out = []
        for r in sorted(self.results, key=lambda r: r.D):
            cliques = [tuple(sorted(s, key=elem_key)) for s in r.clique_sets(make_ring(r.D))]
            cliques.sort(key=lambda c: [elem_key(e) for e in c])
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


def _run_field(D: int, max_norm: int, k: int, n_text: str, symmetry_prune: bool) -> dict:
    ring = make_ring(D)
    n = parse_elem(n_text, ring)
    t0 = time.monotonic()
    elems = enum_elements(ring, max_norm)
    g = build_graph(elems, n)
    cliques = find_cliques(g, k)
    for c in cliques:
        # report invariant: every emitted clique re-verifies
        if not verify_tuple(make_tuple(ring, n, c)).ok:
            raise RuntimeError(f"clique {c} failed re-verification")
    if symmetry_prune:
        records = _group_orbits(cliques, n)
    else:
        records = [{"elems": [elem_to_json(e) for e in c]} for c in cliques]
    return {
        "D": D,
        "vertex_count": len(elems),
        "edge_count": g.edge_count,
        "cliques": records,
        "wall_time": time.monotonic() - t0,
    }


def _group_orbits(cliques: list[tuple[QuadInt, ...]], n: QuadInt) -> list[dict]:
    """Group the found cliques into symmetry orbits: representative + expansion."""
    seen: set[tuple] = set()
    records: list[dict] = []
    for c in cliques:
        key = tuple(elem_key(e) for e in c)
        if key in seen:
            continue
        orbit = sorted(
            (t.elems for t in tuple_orbit(make_tuple(n.ring, n, c))),
            key=lambda t: [elem_key(e) for e in t],
        )
        for f in orbit:
            seen.add(tuple(elem_key(e) for e in f))
        records.append(
            {
                "elems": [elem_to_json(e) for e in orbit[0]],
                "orbit": [[elem_to_json(e) for e in f] for f in orbit],
            }
        )
    return records


def _atomic_write_json(path: str, payload: dict, **dump_kw) -> None:
    """Write JSON to a temporary file, flush and fsync it, then rename it over path."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        # json.dumps, unlike json.dump, uses the C encoder when there is no indent
        f.write(json.dumps(payload, **dump_kw))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


_FIELD_KEYS = {f.name for f in fields(FieldResult)}


def _load_checkpoint(path: str | None, config_hash: str) -> dict[int, dict]:
    if not path or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict) or not isinstance(data.get("completed", {}), dict):
        raise ValueError(f"checkpoint {path}: expected a JSON object with an object 'completed'")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported schema {data.get('schema')}")
    if data.get("config_hash") != config_hash:
        raise ValueError(f"checkpoint {path} was written by a different configuration")
    completed = data.get("completed", {})
    for key, res in completed.items():
        # each entry is a FieldResult's JSON, stored under the text of its own D: int D and
        # counts, clique objects with an "elems" list and a numeric wall_time
        well_formed = (
            isinstance(res, dict)
            and res.keys() == _FIELD_KEYS
            and all(type(res[f]) is int for f in ("D", "vertex_count", "edge_count"))
            and type(res["wall_time"]) in (int, float)
            and isinstance(res["cliques"], list)
            and all(isinstance(rec, dict) and isinstance(rec.get("elems"), list) for rec in res["cliques"])
        )
        if not (well_formed and key == str(res["D"])):
            raise ValueError(f"checkpoint {path}: malformed 'completed' entry {key!r}")
    return {res["D"]: res for res in completed.values()}


def _save_checkpoint(cfg: SearchConfig, config_hash: str, completed: dict[int, dict]) -> None:
    """Rewrite the checkpoint as compact JSON; config_hash is computed once per campaign."""
    if not cfg.checkpoint_path:
        return
    _atomic_write_json(
        cfg.checkpoint_path,
        {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "config_hash": config_hash,
            "config": cfg.semantic_json(),
            "completed": {str(D): res for D, res in sorted(completed.items())},
        },
        separators=(",", ":"),
    )


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def clamp_workers(jobs: int, pending: int, cpus: int) -> int:
    """Worker processes for a campaign: min(jobs, pending fields, cpus), at least 1."""
    return max(1, min(jobs, pending, cpus))


# the fixed work of a field (ring, n, orbit records) costs about as much as scanning two x
_FIELD_BASE_COST = 2
# chunks per worker: enough to even out the tail, few enough that checkpoint writes stay cheap
_CHUNKS_PER_WORKER = 4


def field_cost(D: int, max_norm: int) -> int:
    """Predicted cost of one field, in witnesses x that build_graph scans; builds no element.

    Counts the x up to sign with norm(x) <= max_norm (x = 0 included) from the
    integer-square-root row bounds of _iter_half, plus a constant per field.
    build_graph's own bound, isqrt(N1*N2) + isqrt(norm(n)) + 1, differs by a
    few x, which does not matter for ranking fields.
    """
    return _FIELD_BASE_COST + 1 + sum(len(vs) for _, vs in _half_rows(D, max_norm))


def _chunks(tasks: list[tuple], workers: int) -> list[list[tuple]]:
    """Group the _run_field tasks into min(len(tasks), 4 * workers) chunks of balanced cost.

    Longest processing time first (Graham, SIAM J. Appl. Math. 1969): tasks in
    order of falling field_cost, ties by D, each to the chunk with the least
    load so far, ties by chunk index.  The largest load then exceeds the
    smallest by at most the largest single cost, and the costliest fields
    start first, so they do not set the tail.
    """
    count = min(len(tasks), _CHUNKS_PER_WORKER * workers)
    costs = {t: field_cost(t[0], t[1]) for t in tasks}
    chunks: list[list[tuple]] = [[] for _ in range(count)]
    loads = [(0, c) for c in range(count)]  # a heap of (load, chunk index)
    for task in sorted(tasks, key=lambda t: (-costs[t], t[0])):
        load, c = loads[0]
        chunks[c].append(task)
        heapq.heapreplace(loads, (load + costs[task], c))
    return chunks


def _run_chunk(chunk: list[tuple]) -> list[dict]:
    """_run_field(*task) for each task of a chunk; the unit of work of a campaign."""
    return [_run_field(*task) for task in chunk]


def _field_results(chunks: list[list[tuple]], workers: int):
    """Yield one list of _run_field results per chunk, as each chunk completes.

    One worker runs the chunks in this process, in order; more run them in a
    process pool, in completion order.  A worker failure propagates.  Closing
    the generator early (the caller raised, or a checkpoint write failed)
    cancels the chunks not yet started and waits for the running ones.
    """
    if workers == 1:
        for chunk in chunks:
            yield _run_chunk(chunk)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
        for fut in as_completed(futures):
            yield fut.result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_campaign(cfg: SearchConfig, progress=None) -> SearchReport:
    """Run the campaign in chunks of fields, checkpointing once per completed chunk.

    Fields already present in a compatible checkpoint are skipped.  The
    pending fields are grouped by _chunks into cost-balanced chunks; each
    chunk's results pass through one loop, in completion order: every result
    is stored, the checkpoint is rewritten once, then each result is handed
    to progress.  A crash therefore loses at most the chunks in flight.  The
    chunks run in this process when clamp_workers (cfg.jobs, capped by the
    pending fields and usable CPUs) gives one worker, else in a process pool
    with one chunk per task; the merge is by ascending D and independent of
    completion order.  Leaving the loop early cancels the chunks not yet started.
    """
    cfg.validate()
    t0 = time.monotonic()
    ds = sorted(set(cfg.D_list))
    config_hash = cfg.config_hash()
    completed = _load_checkpoint(cfg.checkpoint_path, config_hash)
    tasks = [(D, cfg.max_norm, cfg.k, cfg.n, cfg.symmetry_prune) for D in ds if D not in completed]
    workers = clamp_workers(cfg.jobs, len(tasks), _usable_cpus())
    # closing() shuts the pool down as soon as the loop is left, not when the generator is freed
    with closing(_field_results(_chunks(tasks, workers), workers)) as chunk_results:
        for results in chunk_results:
            for res in results:
                completed[res["D"]] = res
            _save_checkpoint(cfg, config_hash, completed)
            if progress:
                for res in results:
                    progress(res)

    results = [FieldResult(**completed[D]) for D in ds]
    return SearchReport(cfg, results, time.monotonic() - t0)


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def write_report(report: SearchReport, path: str) -> None:
    _atomic_write_json(path, report.to_json(), indent=1)


def write_clique_csv(report: SearchReport, path: str) -> None:
    """CSV export: one row per clique, columns D, k, elems..."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["D", "k", "elems"])
        for D, elems in report.sorted_cliques():
            writer.writerow([D, len(elems), *[str(e) for e in elems]])
