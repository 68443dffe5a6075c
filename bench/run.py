"""Benchmark of the diotuples package: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One run builds the workload's inputs from the seed, times set-up, then runs
as many passes of the workload as fit in --seconds (at least one), and
checks every answer against bench/golden.json.  It prints a table of the
metrics with their units and sample counts to stderr, writes a record to
bench/out/, and prints one JSON line last on stdout:
{"correct", "attempted", "failed", "metrics"}.  Times are scaled by a probe
of the machine's speed taken around set-up and through each pass (SpeedProbe).
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 wraps
calls into the package and reports its per-layer metrics.  A run with a wrong
answer reports no timing and exits 1.  `--workload all` runs every workload
untraced and traced, prints both tables and writes the tracing overhead next
to them.  The package is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
PROBE_TABLE_SIZE = 64
PROBE_LOOKUPS = 40_000
PROBE_INTERVAL_S = 0.2
PROBE_PAD_S = 0.3  # an item's scale also takes the samples this close to its span
# A probe's CPU time on the machine the bounds were set on (2 shared vCPUs,
# Python 3.11) when it runs fast: scaled times read as that machine's seconds.
PROBE_NOMINAL_S = 0.0015

IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import diotuples.cli as m; print(m.__file__)"


def import_package():
    """Import diotuples from this checkout's src/, refusing any other copy."""
    if not (SRC / "diotuples" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources at {SRC / 'diotuples'}")
    sys.path.insert(0, str(SRC))
    import diotuples

    if not Path(diotuples.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: diotuples imported from {diotuples.__file__}, not {SRC}")
    return diotuples


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter importing diotuples.cli from src/."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    dt = perf_counter() - t0
    if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: fresh interpreter imported {proc.stdout.strip()}")
    return dt


class SpeedProbe:
    """CPU time of lookups in a small fixed dict, sampled through a pass: the machine's speed.

    On shared cores the speed of the same code drifts by tens of percent, at
    times twofold, over seconds to minutes, and CPU time drifts with wall
    time.  While `running`, a SIGALRM handler takes a sample every
    PROBE_INTERVAL_S in the measured thread itself, so the samples see the
    speed the pass saw.  Lookups in a small dict (interpreter dispatch, no
    allocation, no cache misses) followed the package's search, tuples and
    bounds code best among the loops tried, to within a few percent over 20-s
    windows where raw times moved by 0.1 to 0.7 of their median.
    Times are scaled by PROBE_NOMINAL_S over the mean sample of their pass,
    or over the samples in and around the span of timestamped items.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.table = dict.fromkeys(range(PROBE_TABLE_SIZE), 1)
        self.keys = [rng.randrange(PROBE_TABLE_SIZE) for _ in range(PROBE_LOOKUPS)]
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, CPU seconds)

    def sample(self, *_signal) -> None:
        table = self.table
        acc = 0
        t0 = time.thread_time()
        for k in self.keys:
            acc += table[k]
        self.samples.append((perf_counter(), time.thread_time() - t0))

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """PROBE_NOMINAL_S over the mean sample taken from start to end, or the nearest one."""
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        if not inside:  # a long call into native code held the handler off
            inside = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
        return PROBE_NOMINAL_S / statistics.mean(inside)

    def item_scale(self, latency: float, end: float) -> float:
        """The scale over an item's own span, widened by PROBE_PAD_S on each side."""
        return self.scale(end - latency - PROBE_PAD_S, end + PROBE_PAD_S)


def in_units(value: float, unit: str, scale: float) -> float:
    """A measured duration or rate in its metric's unit: ref_* units take the speed scale."""
    if unit.startswith("ref_"):
        return value * scale
    if unit.startswith("1/ref_"):
        return value / scale
    return value


def cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024  # ru_maxrss is in KiB on Linux


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the values at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(name, seed, seconds, trace, size="full", golden=None) -> dict:
    """One run: set-up samples, timed passes until `seconds` elapse, checked answers."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    if golden is None:
        golden = workloads.load_golden(size)[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "tmp"
    workdir.mkdir(exist_ok=True)

    probe = SpeedProbe()
    fresh_import_seconds()  # the first import in a checkout also compiles byte code
    setups, imports, setups_raw = [], [], []
    for _ in range(SETUP_REPS):
        mark = perf_counter()
        probe.sample()
        t_import = fresh_import_seconds()
        t0 = perf_counter()
        inputs = wl.build(seed, size)
        t_build = perf_counter() - t0
        probe.sample()
        scale = probe.scale(mark, perf_counter())
        setups_raw.append(t_import + t_build)
        setups.append((t_import + t_build) * scale)
        imports.append(t_import * scale)

    passes = []
    start = perf_counter()
    # Stop before a pass that would end after `seconds`, judged by the median pass so far.
    while not passes or perf_counter() - start + statistics.median(p["wall"] for p in passes) <= seconds:
        tracer = tracing.Tracer() if trace else None
        mark = perf_counter()
        probe.sample()
        cpu0, t0 = cpu_seconds(), perf_counter()
        try:
            with probe.running():
                if tracer:
                    with tracing.instrument(tracer):
                        items, answer = wl.run_pass(inputs, golden, workdir, True)
                else:
                    items, answer = wl.run_pass(inputs, golden, workdir, False)
        except Exception:  # a failing pass is counted, and the run goes on to report it
            traceback.print_exc()
            items, answer = [workloads.Item(False, "whole pass")] * inputs.n_items, {}
        wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
        probe.sample()
        scale = probe.scale(mark, perf_counter())
        latencies = [
            it.latency_s * (scale if it.end is None else probe.item_scale(it.latency_s, it.end))
            for it in items if it.latency_s is not None
        ]
        passes.append({"wall": wall, "cpu": cpu, "scale": scale, "latencies": latencies,
                       "items": items, "answer": answer, "tracer": tracer})
        if len(passes) == 1:
            # the high-water mark grows with later passes, so it is read after the first
            rss = peak_rss_mb()

    all_items = [it for p in passes for it in p["items"]]
    failed = [it.label for it in all_items if not it.ok]
    latencies = [x for p in passes for x in p["latencies"]]
    samples = {}  # name -> (value, number of samples); no timing without correct answers
    if trace and not failed:
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        per_pass = [dict(tracing.layer_metrics(p["tracer"]), **{"trace.wall_s": p["wall"]}) for p in passes]
        for key in per_pass[0]:
            values = [in_units(m[key], units[key], p["scale"]) for m, p in zip(per_pass, passes)]
            samples[key] = (statistics.median(values), len(values))
        samples["cli.import_s"] = (statistics.median(imports), len(imports))
    elif not failed:
        samples = {
            "wall_s": (statistics.median(p["wall"] * p["scale"] for p in passes), len(passes)),
            "cpu_s": (statistics.median(p["cpu"] * p["scale"] for p in passes), len(passes)),
            "item_p50_ms": (1e3 * statistics.median(latencies), len(latencies)),
            "item_p90_ms": (1e3 * percentile(latencies, 0.9), len(latencies)),
            "peak_rss_mb": (rss, 1),
            "setup_s": (statistics.median(setups), len(setups)),
        }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "environment": environment(),
        "correct": not failed,
        "attempted": len(all_items),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(all_items),
        "failed_items": failed[:20],
        "passes": len(passes),
        "setup_raw_s": setups_raw,
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_cpu_s": [p["cpu"] for p in passes],
        "pass_scale": [p["scale"] for p in passes],
        "probe_samples": len(probe.samples),
        "answer": passes[-1]["answer"],
        "samples": {k: {"value": v, "samples": n} for k, (v, n) in samples.items()},
    }
    if trace:
        last = passes[-1]["tracer"]
        record["span_summary"] = last.self_times()
        record["span_fields"] = list(tracing.SPAN_FIELDS)
        record["spans"] = [s for p in passes for s in p["tracer"].spans]
    return record


def print_table(record: dict, units: dict, file=sys.stderr) -> None:
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{record['passes']} pass(es), {record['attempted']} items, {record['failed']} failed "
        f"(fail_ratio {record['fail_ratio']:.4g})",
        file=file,
    )
    for name, rec in record["samples"].items():
        print(f"  {name:32s} {rec['value']:>16.6g} {units[name]:6s} n={rec['samples']}", file=file)


def write_record(record: dict, stem: str) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{stem}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return path


def main(argv=None) -> int:
    spec = load_spec()
    import_package()
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if set(names) != set(workloads.WORKLOADS):
        raise SystemExit("error: BENCHMARK.json and bench/workloads.py name different workloads")

    groups = {0: spec["end_to_end"], 1: spec["per_layer"]}
    units = {m["name"]: m["unit"] for g in groups.values() for m in g}

    if args.workload == "all":
        summary = {}
        for name in names:
            plain = run_workload(name, args.seed, args.seconds, 0)
            traced = run_workload(name, args.seed, args.seconds, 1)
            for rec in (plain, traced):
                print_table(rec, units, file=sys.stdout)
            traced.pop("spans", None)
            summary[name] = {"untraced": plain, "traced": traced}
            if plain["correct"] and traced["correct"]:
                wall, cpu = (plain["samples"][k]["value"] for k in ("wall_s", "cpu_s"))
                overhead = traced["samples"]["trace.wall_s"]["value"] - wall
                # a traced campaign runs its fields serially: set its traced wall against cpu_s too
                print(f"  tracing overhead: {overhead:+.4f} ref_s per pass against wall_s "
                      f"({overhead + wall - cpu:+.4f} ref_s against cpu_s)", file=sys.stdout)
                summary[name]["tracing_overhead_s"] = overhead
        path = write_record(summary, f"all_seed{args.seed}")
        print(f"wrote {path}")
        return 0 if all(s["untraced"]["correct"] and s["traced"]["correct"] for s in summary.values()) else 1

    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    declared = {m["name"] for m in groups[args.trace]}
    if record["correct"] and set(record["samples"]) != declared:
        raise SystemExit(f"error: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(record['samples']) ^ declared)}")
    write_record(record, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    print_table(record, units)
    metrics = {k: {"value": v["value"], "unit": units[k]} for k, v in record["samples"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
