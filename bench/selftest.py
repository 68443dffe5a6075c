"""Fast self-test of the benchmark itself; run: python3 bench/selftest.py

It runs every workload at its tiny size, untraced and traced, and checks that
each run is correct and reports exactly the metrics BENCHMARK.json declares.
It then corrupts one golden value per workload and checks that the run
reports the failure and no timing, checks that inputs repeat for a seed, and
checks that a copy of the benchmark without the package sources refuses to
run.  It exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
import tempfile

import run

run.import_package()
import workloads  # noqa: E402  (needs the package on sys.path)


def corrupt(name: str, golden: dict) -> None:
    """Change one golden value of the workload, in place."""
    if name == "field-d1":
        golden["fields"][0][2] += 1  # the edge count
    elif name == "campaign-scan":
        golden["clique_sha256"] = "0" * 64
    elif name == "tuples-extend":
        golden["extensions"][next(iter(golden["extensions"]))] = [[-25, 0]]
    else:
        golden["threshold"] += 1


def main() -> int:
    spec = run.load_spec()
    declared = {t: {m["name"] for m in spec[key]} for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    golden = workloads.load_golden("tiny")
    problems = []

    def expect(cond: bool, what: str) -> None:
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            rec = run.run_workload(name, seed=1, seconds=0, trace=trace, size="tiny")
            expect(rec["correct"] and rec["failed"] == 0 and rec["attempted"] > 0,
                   f"{name} trace={trace}: {rec['attempted']} items, all correct")
            expect(set(rec["samples"]) == declared[trace], f"{name} trace={trace}: declared metrics")

        bad = copy.deepcopy(golden[name])
        corrupt(name, bad)
        rec = run.run_workload(name, seed=1, seconds=0, trace=0, size="tiny", golden=bad)
        expect(not rec["correct"] and rec["failed"] > 0, f"{name}: corrupted golden value reported")

        wl = workloads.WORKLOADS[name]
        expect(repr(wl.build(7, "tiny")) == repr(wl.build(7, "tiny")), f"{name}: seed 7 repeats its inputs")

    # A directory with only BENCHMARK.json and bench/ must be refused without a result.
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.ROOT / "bench", f"{tmp}/bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "field-d1", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(), "run without package sources is refused")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
