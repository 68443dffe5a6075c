"""The benchmark's workloads: seeded inputs, one pass each, and answer checks.

Inputs are built here from the seed with the benchmark's own arithmetic; they
use neither the package's test helpers nor its oracles, so later changes to
tests cannot move them.  A pass calls the package's public functions through
their modules (so a tracer can wrap them) and turns every answer into an Item
that holds whether it matched the golden values, and for the items whose
latency is reported, how long it took.

A workload also returns its answer in the format of golden.json.  Margins and
precision bits are not part of any answer: numeric changes may move them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import traceback
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from random import Random
from time import perf_counter

from diotuples import bounds, quad_ring, search, tuples

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass
class Item:
    """One checked answer; latency_s is set for the items whose latency is reported.

    end is the perf_counter() reading when a latency item ended, where known.
    """

    ok: bool
    label: str
    latency_s: float | None = None
    end: float | None = None


def load_golden(size: str) -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)[size]


def _squarefree_upto(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if all(m % (p * p) for p in range(2, isqrt(m) + 1))]


def _norm(D: int, x: int, y: int) -> int:
    """Norm of x + y*omega, with omega = (1 + sqrt(-D))/2 when D = 3 (mod 4)."""
    if D % 4 == 3:
        return x * x + x * y + (D + 1) // 4 * y * y
    return x * x + D * y * y


def _coords(e) -> list[int]:
    return [e.x, e.y]


def _item(label: str, check, timed: bool = False) -> Item:
    """Run one answer check; an exception counts as a failed answer and is printed."""
    t0 = perf_counter()
    try:
        ok = bool(check())
    except Exception:  # the benchmark must keep counting after a failing call
        print(f"answer check {label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        ok = False
    t1 = perf_counter()
    return Item(ok, label, t1 - t0, t1) if timed else Item(ok, label)


# --- search: field-d1 and campaign-scan ------------------------------------


@dataclass(frozen=True)
class SearchInputs:
    D_list: tuple[int, ...]
    max_norm: int
    k: int
    jobs: int
    checkpoint: bool

    @property
    def n_items(self) -> int:
        return len(self.D_list)


# The seed has nothing to choose here: a field and its norm bound fix the
# search completely, and run_campaign orders fields itself.
SEARCH_SIZES = {
    "field-d1": {
        "full": SearchInputs((1,), 576, 4, 1, False),
        "tiny": SearchInputs((1,), 30, 3, 1, False),
    },
    "campaign-scan": {
        "full": SearchInputs(tuple(_squarefree_upto(225)), 224, 5, 2, True),
        "tiny": SearchInputs(tuple(_squarefree_upto(30)), 20, 4, 2, True),
    },
}


def clique_digest(report) -> str:
    """sha256 of the sorted, orbit-expanded clique sets of every field, as coordinates."""
    rows = []
    for r in report.results:
        for s in r.clique_sets(quad_ring.make_ring(r.D)):
            rows.append([r.D, sorted(_coords(e) for e in s)])
    blob = json.dumps(sorted(rows), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def search_pass(inp: SearchInputs, golden: dict, workdir: Path, traced: bool) -> tuple[list[Item], dict]:
    """run_campaign plus write_report, as `diotuples search` runs them; one item per field.

    Workers cannot be traced from outside, so a traced pass runs every field
    serially in this process (jobs=1).
    """
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        cfg = search.SearchConfig(
            D_list=list(inp.D_list),
            max_norm=inp.max_norm,
            k=inp.k,
            n="-1",
            jobs=1 if traced else inp.jobs,
            checkpoint_path=os.path.join(tmp, "checkpoint.json") if inp.checkpoint else None,
        )
        done: dict[int, float] = {}  # D -> when its result reached this process
        report = search.run_campaign(cfg, progress=lambda res: done.setdefault(res["D"], perf_counter()))
        search.write_report(report, os.path.join(tmp, "report.json"))
    fields = [
        [r.D, r.vertex_count, r.edge_count, len(r.clique_sets(quad_ring.make_ring(r.D)))]
        for r in report.results
    ]
    answer = {"fields": fields, "clique_sha256": clique_digest(report)}
    want = {row[0]: row for row in golden.get("fields", [])}
    whole = (
        [row[0] for row in fields] == sorted(want)
        and answer["clique_sha256"] == golden.get("clique_sha256")
    )
    items = [
        Item(whole and want.get(row[0]) == row, f"field D={row[0]}", r.wall_time, done.get(r.D))
        for row, r in zip(fields, report.results)
    ]
    return items, answer


# --- tuples-extend -----------------------------------------------------------


@dataclass(frozen=True)
class TuplesInputs:
    triples: tuple[tuple[str, object, object, object], ...]  # (label, a, b, c)
    z_norm_bound: int
    big: tuple[tuple[object, ...], ...]  # D(-1) quadruples in Z[i]; the 4th is c_+ of the rest

    @property
    def n_items(self) -> int:
        return len(self.triples) + len(self.big)


TUPLES_SIZES = {"full": (10**4, 4000), "tiny": (200, 20)}  # z-norm bound, big quadruples
FIB_K_MAX = 150  # F_{2k+3} products reach about 630 bits


def _fib(n: int) -> list[int]:
    f = [0, 1]
    while len(f) <= n:
        f.append(f[-1] + f[-2])
    return f


def _triple_label(D: int, elems) -> str:
    return f"D={D} [" + ", ".join(f"{e.x}{e.y:+d}w" for e in elems) + "]"


def build_tuples(seed: int, size: str) -> TuplesInputs:
    """The extend triples of the D=1 chain and `reproduce d3-triples`, plus seeded big quadruples.

    i*{F_2k, F_2k+2, F_2k+4, 4 F_2k+1 F_2k+2 F_2k+3} is a D(-1) quadruple in
    Z[i] because {F_2k, F_2k+2, F_2k+4, 4 F_2k+1 F_2k+2 F_2k+3} is a D(1)
    quadruple in Z; its negation is also its conjugate image.
    """
    z_bound, n_big = TUPLES_SIZES[size]
    r1, r3 = quad_ring.make_ring(1), quad_ring.make_ring(3)
    triples = []
    for a, b, c in ((1, 2, 5), (2, 5, 13), (2, 13, 25), (5, 13, 34)):
        t = tuple(quad_ring.QuadInt(r1, v, 0) for v in (a, b, c))
        triples.append((_triple_label(1, t), *t))
    w = quad_ring.QuadInt(r3, 0, 1)  # (1 + sqrt(-3))/2
    w_bar = quad_ring.QuadInt(r3, 1, -1)
    one = quad_ring.QuadInt(r3, 1, 0)
    for t in ((w, w_bar, one), (-w, -w_bar, -one)):
        triples.append((_triple_label(3, t), *t))

    rng = Random(f"tuples-extend:{seed}")
    fib = _fib(2 * FIB_K_MAX + 5)
    big = []
    for _ in range(n_big):
        k = rng.randint(1, FIB_K_MAX)
        sign = rng.choice((1, -1))
        vals = (fib[2 * k], fib[2 * k + 2], fib[2 * k + 4], 4 * fib[2 * k + 1] * fib[2 * k + 2] * fib[2 * k + 3])
        big.append(tuple(quad_ring.QuadInt(r1, 0, sign * v) for v in vals))
    return TuplesInputs(tuple(triples), z_bound, tuple(big))


def _gauss_mul(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _check_big(quad) -> bool:
    """verify_tuple passes with genuine witnesses, and c_+-(a, b, c) = {d, 0}."""
    ring = quad[0].ring
    rep = tuples.verify_tuple(tuples.make_tuple(ring, quad_ring.QuadInt(ring, -1, 0), quad))
    if not rep.ok or len(rep.pairs) != 6:
        return False
    for p in rep.pairs:
        ab = _gauss_mul((p.a.x, p.a.y), (p.b.x, p.b.y))
        if _gauss_mul((p.witness.x, p.witness.y), (p.witness.x, p.witness.y)) != (ab[0] - 1, ab[1]):
            return False
    pair = tuples.c_plus_minus(quad[0], quad[1], quad[2])
    return pair.c_plus == quad[3] and pair.c_minus.is_zero()


def tuples_pass(inp: TuplesInputs, golden: dict, workdir: Path, traced: bool) -> tuple[list[Item], dict]:
    want = golden.get("extensions", {})
    found = {}
    items = []
    for label, a, b, c in inp.triples:
        def check():
            ds = sorted(_coords(d) for d, _ in tuples.extend_triple(a, b, c, inp.z_norm_bound))
            found[label] = ds
            return ds == want.get(label)

        items.append(_item(f"extend {label}", check))
    for i, quad in enumerate(inp.big):
        items.append(_item(f"big quadruple {i}", lambda: _check_big(quad), timed=True))
    return items, {"extensions": found}


# --- bounds-suite ------------------------------------------------------------


@dataclass(frozen=True)
class BoundsInputs:
    gap_sets: tuple[tuple[object, object, object], ...]  # (a, b, c)
    jz_sets: tuple[tuple[object, object, object], ...]  # (a1, a2, T)
    witnesses: tuple[object, ...]  # PellWitness

    @property
    def n_items(self) -> int:
        return len(self.gap_sets) + len(JZ_BITS) * len(self.jz_sets) + len(self.witnesses) + 2


BOUNDS_SIZES = {"full": (4000, 40), "tiny": (20, 3)}  # gap-lemma sets, jz sets
GAP_RINGS = (1, 2, 3, 5, 7, 11, 163)
JZ_BITS = (128, 256, 1024)
GAP_NAMES = {"l < 1/2", "p <= sqrt(47/42)", "L > 1", "lambda < 1.8"}
THETA_QUADRUPLES = ((1, 2, 5, -24), (2, 5, 13, -480))  # the extensions found by extend_triple


def _draw_gap_set(D: int, rng: Random) -> tuple[int, int, int, int, int, int] | None:
    """Coordinates of (a, b, c) meeting the gap-lemma hypotheses exactly, or None."""
    ax, ay = rng.randrange(-10, 11), rng.randrange(-10, 11)
    na = _norm(D, ax, ay)
    if na < 4:
        return None
    bx, by = rng.randrange(-60, 61), rng.randrange(-60, 61)
    nb = _norm(D, bx, by)
    if not (4 * nb >= 9 * na and nb >= 484):
        return None
    cx = nb**8 + rng.randrange(1, 10**6)
    cy = 0 if rng.random() < 0.5 else rng.randrange(1, 50)
    if _norm(D, cx, cy) <= nb**16:
        return None
    return ax, ay, bx, by, cx, cy


def _int_root(ring, m: int):
    """A square root of the rational integer m in Z[i]."""
    s = isqrt(abs(m))
    if s * s != abs(m):
        raise ValueError(f"{m} is not a square in Z[i]")
    return quad_ring.QuadInt(ring, s, 0) if m >= 0 else quad_ring.QuadInt(ring, 0, s)


def _theta_witnesses() -> list:
    """Pell witnesses of the extend quadruples and their negation and conjugation images."""
    ring = quad_ring.make_ring(1)
    out = []
    for vals in THETA_QUADRUPLES:
        a, b, c, d = vals
        roots = [_int_root(ring, p * q - 1) for p, q in ((a, b), (a, c), (b, c), (a, d), (b, d), (c, d))]
        for neg in (1, -1):
            for conj in (False, True):
                elems = [quad_ring.QuadInt(ring, neg * v, 0) for v in vals]
                ws = [quad_ring.QuadInt(ring, r.x, -r.y) if conj else r for r in roots]
                out.append(tuples.PellWitness(*elems, *ws))
    return out


def build_bounds(seed: int, size: str) -> BoundsInputs:
    n_gap, n_jz = BOUNDS_SIZES[size]
    rng = Random(f"bounds-suite:{seed}")
    gap_sets = []
    while len(gap_sets) < n_gap:
        D = GAP_RINGS[len(gap_sets) % len(GAP_RINGS)]
        drawn = _draw_gap_set(D, rng)
        if drawn is None:
            continue
        ring = quad_ring.make_ring(D)
        ax, ay, bx, by, cx, cy = drawn
        gap_sets.append(
            (quad_ring.QuadInt(ring, ax, ay), quad_ring.QuadInt(ring, bx, by), quad_ring.QuadInt(ring, cx, cy))
        )
    jz_sets = tuple((-b, -a, a * b * c) for a, b, c in gap_sets[:n_jz])
    return BoundsInputs(tuple(gap_sets), jz_sets, tuple(_theta_witnesses()))


def _check_theta(w) -> bool:
    tc = bounds.theta_defect(w)
    ok = float(tc.defect1) <= float(tc.middle1) * (1 + 1e-20)
    ok = ok and float(tc.defect2) <= float(tc.middle2_symmetric) * (1 + 1e-20)
    if tc.hypotheses.all_hold:
        ok = ok and float(tc.middle1) <= float(tc.outer)
    return ok


def bounds_pass(inp: BoundsInputs, golden: dict, workdir: Path, traced: bool) -> tuple[list[Item], dict]:
    items = []
    for i, (a, b, c) in enumerate(inp.gap_sets):
        def check():
            out = bounds.gap_lemma_checks(a, b, c)
            return set(out) == GAP_NAMES and all(holds for holds, _, _ in out.values())

        items.append(_item(f"gap-lemma set {i}", check, timed=True))
    for i, (a1, a2, T) in enumerate(inp.jz_sets):
        for bits in JZ_BITS:
            def check():
                consts = bounds.jz_constants(a1, a2, T, bits)  # returns only once L > 1 is decided
                m_sq = max(_norm(a1.ring.D, a1.x, a1.y), _norm(a2.ring.D, a2.x, a2.y))
                return consts.precision_bits >= bits and consts.M_sq == m_sq

            items.append(_item(f"jz set {i} at {bits} bits", check))
    for i, w in enumerate(inp.witnesses):
        items.append(_item(f"theta witness {i}", lambda: _check_theta(w)))

    answer: dict = {}

    def check_chain():
        trace = bounds.chain_verify()
        answer["chain_operands"] = [
            [i, str(trace.steps[i].lhs), str(trace.steps[i].rhs)] for i in (0, 3, 4)
        ]
        return (
            trace.confirmed
            and len(trace.steps) == 6
            and answer["chain_operands"] == golden.get("chain_operands")
        )

    def check_threshold():
        answer["threshold"] = bounds.threshold_a22()
        return answer["threshold"] == golden.get("threshold")

    items.append(_item("chain_verify", check_chain))
    items.append(_item("threshold_a22", check_threshold))
    return items, answer


@dataclass(frozen=True)
class Workload:
    build: object  # (seed, size) -> inputs
    run_pass: object  # (inputs, golden, workdir, traced) -> (items, answer)


WORKLOADS = {
    "field-d1": Workload(lambda seed, size: SEARCH_SIZES["field-d1"][size], search_pass),
    "campaign-scan": Workload(lambda seed, size: SEARCH_SIZES["campaign-scan"][size], search_pass),
    "tuples-extend": Workload(build_tuples, tuples_pass),
    "bounds-suite": Workload(build_bounds, bounds_pass),
}
