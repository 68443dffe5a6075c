"""Norm-bounded exhaustive search for D(n)-tuples across imaginary quadratic rings.

Tuples of size k are exactly the k-cliques of the compatibility graph whose
vertices are the nonzero elements within a norm bound and whose edges join
pairs {a, b} with a*b + n a square.  A campaign runs one field per work unit,
persists a JSON checkpoint after each field and is resumable.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

from . import __version__
from .quad_ring import (
    QuadInt,
    RingParams,
    elem_from_json,
    elem_key,
    elem_to_json,
    iter_elements,
    make_ring,
    parse_elem,
    _sqrt_half,
)
from .tuples import make_tuple, pair_witness, tuple_orbit, verify_tuple

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
    "load_report",
    "write_report",
    "write_clique_csv",
]

SCHEMA_VERSION = 1


def enum_elements(ring: RingParams, max_norm: int) -> list[QuadInt]:
    """All nonzero elements with norm <= max_norm, sorted by (norm, x, y)."""
    if max_norm < 1:
        raise ValueError("max_norm must be >= 1")
    return sorted(iter_elements(ring, max_norm), key=elem_key)


@dataclass
class CompatGraph:
    """Compatibility graph: adjacency stored as one bitmask per vertex."""

    ring: RingParams
    n: QuadInt
    vertices: list[QuadInt]
    adj: list[int]

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> list[tuple[QuadInt, QuadInt]]:
        out = []
        for i, m in enumerate(self.adj):
            m >>= i + 1
            j = i + 1
            while m:
                if m & 1:
                    out.append((self.vertices[i], self.vertices[j]))
                m >>= 1
                j += 1
        return out


def build_graph(elements, n: QuadInt) -> CompatGraph:
    """Edge {a, b} iff a*b + n is a square in O_K; an integer kernel on half-coordinates.

    For a = (u1 + v1*s)/2 and b = (u2 + v2*s)/2 with s = sqrt(-D), the shifted
    product w = a*b + n is (U + V*s)/2 with U = (u1*u2 - D*v1*v2)/2 + Un and
    V = (u1*v2 + v1*u2)/2 + Vn, and U**2 + D*V**2 = 4*norm(w) must be a perfect
    square for w to be one.  The root test is quad_ring's integer core, which
    rejects most pairs by a mod-64 residue table and isqrt before it
    reconstructs a root.  Vertices are paired by sign class
    {a, -a}: one product a*b decides {a, b} and {-a, -b} through a*b + n, and
    {a, -b} and {-a, b} through -a*b + n.
    """
    vs = sorted(elements, key=elem_key)
    ring = n.ring
    for e in vs:
        if e.ring != ring:
            raise ValueError("elements must live in the ring of n")
        if e.is_zero():
            raise ValueError("zero is not a valid vertex")
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate vertices")

    D, mode = ring.D, ring.omega_mode
    Un, Vn = n.half_coords()
    coords = [e.half_coords() for e in vs]
    index = {c: i for i, c in enumerate(coords)}
    # sign classes (u, v, i, j): vertex i = (u + v*s)/2 and j the index of its negative, or -1
    classes = []
    for i, (u, v) in enumerate(coords):
        j = index.get((-u, -v), -1)
        if j == -1 or i < j:
            classes.append((u, v, i, j))
    adj = [0] * len(vs)

    def link(i: int, j: int) -> None:
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    for c, (u1, v1, ia, ja) in enumerate(classes):
        Dv1 = D * v1
        # {a, -a}: w = -a**2 + n
        if ja >= 0 and _sqrt_half(D, mode, Un - ((u1 * u1 - Dv1 * v1) >> 1), Vn - u1 * v1) is not None:
            link(ia, ja)
        for u2, v2, ib, jb in classes[c + 1 :]:
            P = (u1 * u2 - Dv1 * v2) >> 1
            Q = (u1 * v2 + v1 * u2) >> 1
            if _sqrt_half(D, mode, Un + P, Vn + Q) is not None:
                link(ia, ib)
                if ja >= 0 and jb >= 0:
                    link(ja, jb)
            if (ja >= 0 or jb >= 0) and _sqrt_half(D, mode, Un - P, Vn - Q) is not None:
                if jb >= 0:
                    link(ia, jb)
                if ja >= 0:
                    link(ja, ib)
    return CompatGraph(ring, n, vs, adj)


def find_cliques(g: CompatGraph, k: int) -> list[tuple[QuadInt, ...]]:
    """All k-cliques, each once, by ordered DFS over vertices sorted by (norm, x, y)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    adj = g.adj
    cnt = len(g.vertices)
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], cand: int) -> None:
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        need = k - len(prefix) - 1
        m = cand
        while m:
            b = m & -m
            m ^= b
            j = b.bit_length() - 1
            nxt = cand & adj[j] & ~((b << 1) - 1)
            if nxt.bit_count() >= need:
                prefix.append(j)
                grow(prefix, nxt)
                prefix.pop()

    for i in range(cnt):
        high = adj[i] >> (i + 1) << (i + 1)
        if high.bit_count() >= k - 1:
            grow([i], high)
    return [tuple(g.vertices[i] for i in idx) for idx in out]


def brute_force_tuples(elements, k: int, n: QuadInt) -> list[tuple[QuadInt, ...]]:
    """Oracle for find_cliques: k-subsets whose pairs all carry witnesses.

    Subsets are enumerated in lexicographic order with early rejection of any
    prefix already containing a witness-less pair (a subset fails verification
    on that same pair, so nothing is lost); accepted subsets are re-passed
    through verify_tuple.  Pair witnesses are cached per call, by vertex index
    pair; no graph, adjacency or cache is shared with build_graph or
    find_cliques.  Intended for small inputs (<= ~200 elements).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    vs = sorted(elements, key=elem_key)
    cnt = len(vs)
    out: list[tuple[QuadInt, ...]] = []
    witnessed: dict[tuple[int, int], bool] = {}  # (i, j) with i < j -> pair has a witness

    def compatible(i: int, j: int) -> bool:
        hit = witnessed.get((i, j))
        if hit is None:
            hit = witnessed[i, j] = pair_witness(vs[i], vs[j], n) is not None
        return hit

    def rec(chosen: list[int], start: int) -> None:
        if len(chosen) == k:
            elems = tuple(vs[i] for i in chosen)
            if not verify_tuple(make_tuple(n.ring, n, elems)).ok:
                raise RuntimeError(f"subset {elems} has witnesses but fails verify_tuple")
            out.append(elems)
            return
        for j in range(start, cnt):
            if cnt - j < k - len(chosen):
                break
            if all(compatible(i, j) for i in chosen):
                chosen.append(j)
                rec(chosen, j + 1)
                chosen.pop()

    rec([], 0)
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
        return {
            "D": self.D,
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "cliques": self.cliques,
            "wall_time": self.wall_time,
        }


@dataclass
class SearchReport:
    config: SearchConfig
    results: list[FieldResult]
    wall_time: float
    schema: int = SCHEMA_VERSION
    version: str = __version__

    @property
    def total_cliques(self) -> int:
        total = 0
        for r in self.results:
            for rec in r.cliques:
                total += len(rec.get("orbit", [rec["elems"]]))
        return total

    def all_clique_sets(self) -> dict[int, set[frozenset[QuadInt]]]:
        return {r.D: r.clique_sets(make_ring(r.D)) for r in self.results}

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "version": self.version,
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


def _field_task(args: tuple) -> tuple[int, dict]:
    D, max_norm, k, n_text, symmetry_prune = args
    return D, _run_field(D, max_norm, k, n_text, symmetry_prune)


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1)
    os.replace(tmp, path)


def _load_checkpoint(cfg: SearchConfig) -> dict[int, dict]:
    path = cfg.checkpoint_path
    if not path or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported schema {data.get('schema')}")
    if data.get("config_hash") != cfg.config_hash():
        raise ValueError(f"checkpoint {path} was written by a different configuration")
    return {int(D): res for D, res in data.get("completed", {}).items()}


def _save_checkpoint(cfg: SearchConfig, completed: dict[int, dict]) -> None:
    if not cfg.checkpoint_path:
        return
    _atomic_write_json(
        cfg.checkpoint_path,
        {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "config_hash": cfg.config_hash(),
            "config": cfg.semantic_json(),
            "completed": {str(D): res for D, res in sorted(completed.items())},
        },
    )


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def clamp_workers(jobs: int, pending: int, cpus: int) -> int:
    """Worker processes for a campaign: min(jobs, pending fields, cpus), at least 1."""
    return max(1, min(jobs, pending, cpus))


def run_campaign(cfg: SearchConfig, progress=None) -> SearchReport:
    """Run the campaign field by field, checkpointing after each completed D.

    Fields already present in a compatible checkpoint are skipped.  Workers
    (clamp_workers: cfg.jobs, capped by the pending fields and usable CPUs)
    each own a single field; the merge is by ascending D and independent of
    completion order.
    """
    cfg.validate()
    t0 = time.monotonic()
    ds = sorted(set(cfg.D_list))
    completed = _load_checkpoint(cfg)
    pending = [D for D in ds if D not in completed]
    tasks = [(D, cfg.max_norm, cfg.k, cfg.n, cfg.symmetry_prune) for D in pending]

    workers = clamp_workers(cfg.jobs, len(tasks), _usable_cpus())
    if workers == 1:
        for task in tasks:
            D, res = _field_task(task)
            completed[D] = res
            _save_checkpoint(cfg, completed)
            if progress:
                progress(res)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_field_task, t) for t in tasks]
            for fut in as_completed(futures):
                D, res = fut.result()  # a worker failure propagates here
                completed[D] = res
                _save_checkpoint(cfg, completed)
                if progress:
                    progress(res)

    results = [FieldResult(**completed[D]) for D in ds]
    return SearchReport(cfg, results, time.monotonic() - t0)


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def write_report(report: SearchReport, path: str) -> None:
    _atomic_write_json(path, report.to_json())


def write_clique_csv(report: SearchReport, path: str) -> None:
    """CSV export: one row per clique, columns D, k, elems..."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["D", "k", "elems"])
        for r in report.results:
            ring = make_ring(r.D)
            for s in sorted(
                r.clique_sets(ring),
                key=lambda fs: sorted(elem_key(e) for e in fs),
            ):
                elems = sorted(s, key=elem_key)
                writer.writerow([r.D, len(elems), *[str(e) for e in elems]])
