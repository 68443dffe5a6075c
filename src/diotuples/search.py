"""Norm-bounded exhaustive search for D(n)-tuples across imaginary quadratic rings.

Tuples of size k are exactly the k-cliques of the compatibility graph whose
vertices are the nonzero elements within a norm bound and whose edges join
pairs {a, b} with a*b + n a square.  build_graph finds the edges by divisor
enumeration: for each candidate witness x it factors norm(x**2 - n) and
divides x**2 - n by the vertices whose norm is a divisor, so its cost follows
the number of x up to isqrt(N1*N2) + isqrt(norm(n)) (N1 >= N2 the two largest
vertex norms), not the number of vertex pairs.  A campaign runs one field per
work unit, persists a compact, fsync'd JSON checkpoint after each field and
is resumable.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from math import isqrt

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
    _div_half,
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


def _primes_upto(limit: int) -> list[int]:
    """Primes p <= limit, by a bytearray sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(2, limit + 1) if sieve[p]]


def _divisors(M: int, primes: list[int]) -> list[int]:
    """All divisors of M >= 1, by trial division over primes (which must reach isqrt(M))."""
    divs = [1]
    for p in primes:
        if p * p > M:
            break
        if M % p == 0:
            e = 0
            while M % p == 0:
                M //= p
                e += 1
            pk = [p**i for i in range(1, e + 1)]
            divs += [d * q for d in divs for q in pk]
    if M > 1:
        divs += [d * M for d in divs]
    return divs


def build_graph(elements, n: QuadInt) -> CompatGraph:
    """Edge {a, b} iff a*b + n is a square in O_K; enumerates witnesses x, not pairs.

    If a*b + n = x**2 then |x|**2 <= |a||b| + |n|, so norm(x) is at most
    isqrt(N1*N2) + isqrt(norm(n)) + 1 with N1 >= N2 the two largest vertex norms.
    For each such x up to sign (x = 0 included), w = x**2 - n must be a product
    a*b of vertices: norm(a) = m divides M = norm(w), with m*m <= M and m and
    M/m both vertex norms.  M is factored by trial division over sieved primes;
    for each such divisor m, every vertex a of norm m is tested for a | w by an
    exact division on half-coordinates (quad_ring's integer core), and {a, b}
    is an edge when b = w/a is another vertex.  Vertex lists that are not a
    norm ball work alike, because b is looked up by membership.

    Cost follows the number of x, about isqrt(N1*N2) + isqrt(norm(n)) elements
    times the trial division of each M, not the number of vertices: a sparse
    list with one element of high norm costs about as much as the full ball.
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
    adj = [0] * len(vs)
    if len(vs) < 2:
        return CompatGraph(ring, n, vs, adj)

    D, mode = ring.D, ring.omega_mode
    Un, Vn = n.half_coords()
    index: dict[tuple[int, int], int] = {}
    by_norm: dict[int, list[tuple[int, int, int]]] = {}  # norm -> [(u, v, index)]
    for i, e in enumerate(vs):
        u, v = c = e.half_coords()
        index[c] = i
        by_norm.setdefault((u * u + D * v * v) // 4, []).append((u, v, i))
    top = vs[-1].norm() * vs[-2].norm()  # N1 * N2: vs is sorted by norm first
    primes = _primes_upto(isqrt(top))
    xmax = isqrt(top) + isqrt(n.norm()) + 1
    # x and -x give the same w, so keep one of each pair, and x = 0 (a witness when a*b = -n)
    xs = [(p, q) for p, q in _iter_half(D, mode, xmax) if p > 0 or (p == 0 and q > 0)]
    xs.append((0, 0))
    for p, q in xs:
        # w = x**2 - n = (WU + WV*s)/2
        WU = ((p * p - D * q * q) >> 1) - Un
        WV = p * q - Vn
        M = (WU * WU + D * WV * WV) >> 2
        if M == 0 or M > top:
            continue
        for m in _divisors(M, primes):
            if m * m > M or m not in by_norm or M // m not in by_norm:
                continue
            for u, v, i in by_norm[m]:
                b = _div_half(D, mode, WU, WV, u, v)
                if b is not None:
                    j = index.get(b)
                    if j is not None and j != i:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
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
    through verify_tuple.  A pair is tested by a square root of a*b + n on
    half-coordinates (build_graph decides edges by exact division instead),
    and the verdicts are cached per call, by vertex index pair; no graph,
    adjacency or cache is shared with build_graph or find_cliques.  Intended
    for small inputs (<= ~200 elements).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    vs = sorted(elements, key=elem_key)
    if any(e.ring != n.ring for e in vs):
        raise ValueError("elements must live in the ring of n")
    cnt = len(vs)
    out: list[tuple[QuadInt, ...]] = []
    D, mode = n.ring.D, n.ring.omega_mode
    Un, Vn = n.half_coords()
    coords = [e.half_coords() for e in vs]
    witnessed: dict[tuple[int, int], bool] = {}  # (i, j) with i < j -> pair has a witness

    def compatible(i: int, j: int) -> bool:
        hit = witnessed.get((i, j))
        if hit is None:
            (u1, v1), (u2, v2) = coords[i], coords[j]
            # a*b + n = (Un + P + (Vn + Q)*s)/2
            P = (u1 * u2 - D * v1 * v2) >> 1
            Q = (u1 * v2 + v1 * u2) >> 1
            hit = witnessed[i, j] = _sqrt_half(D, mode, Un + P, Vn + Q) is not None
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


def _atomic_write_json(path: str, payload: dict, **dump_kw) -> None:
    """Write JSON to a temporary file, flush and fsync it, then rename it over path."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        # json.dumps, unlike json.dump, uses the C encoder when there is no indent
        f.write(json.dumps(payload, **dump_kw))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _load_checkpoint(path: str | None, config_hash: str) -> dict[int, dict]:
    if not path or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported schema {data.get('schema')}")
    if data.get("config_hash") != config_hash:
        raise ValueError(f"checkpoint {path} was written by a different configuration")
    return {int(D): res for D, res in data.get("completed", {}).items()}


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
    config_hash = cfg.config_hash()
    completed = _load_checkpoint(cfg.checkpoint_path, config_hash)
    pending = [D for D in ds if D not in completed]
    tasks = [(D, cfg.max_norm, cfg.k, cfg.n, cfg.symmetry_prune) for D in pending]

    workers = clamp_workers(cfg.jobs, len(tasks), _usable_cpus())
    if workers == 1:
        for task in tasks:
            D, res = _field_task(task)
            completed[D] = res
            _save_checkpoint(cfg, config_hash, completed)
            if progress:
                progress(res)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_field_task, t) for t in tasks]
            for fut in as_completed(futures):
                D, res = fut.result()  # a worker failure propagates here
                completed[D] = res
                _save_checkpoint(cfg, config_hash, completed)
                if progress:
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
        for r in report.results:
            ring = make_ring(r.D)
            for s in sorted(
                r.clique_sets(ring),
                key=lambda fs: sorted(elem_key(e) for e in fs),
            ):
                elems = sorted(s, key=elem_key)
                writer.writerow([r.D, len(elems), *[str(e) for e in elems]])
