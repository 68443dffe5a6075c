"""The benchmark's answer checks, run untraced at their tiny size.

Each workload of BENCHMARK.json builds its tiny inputs from seed 1 and runs
one pass in a temporary directory; every answer must match bench/golden.json.
This guards the package names and answers the benchmark relies on without
the cost of a timed run.  bench/ is read, never written: its module is
loaded without writing byte code.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        sys.modules[spec.name] = module  # dataclasses look their module up while the class body runs
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_pass_answers_match_golden(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    items, _ = wl.run_pass(wl.build(1, "tiny"), workloads.load_golden("tiny")[name], tmp_path, False)
    assert items and all(it.ok for it in items), [it.label for it in items if not it.ok]
