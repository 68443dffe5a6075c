"""The benchmark's answer checks, run at their tiny size, untraced and traced.

Each workload of BENCHMARK.json builds its tiny inputs from seed 1 and runs
one pass in a temporary directory; every answer must match bench/golden.json.
The traced pass runs inside bench/tracing.py's instrument, which must yield
exactly the per-layer metric names BENCHMARK.json declares and put back every
function it wrapped.  This guards the package names and answers the benchmark
relies on without the cost of a timed run.  bench/ is read, never written: its
modules are loaded without writing byte code.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from diotuples import bounds, search, tuples

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
# the per-layer metrics bench/run.py adds to layer_metrics: the import time and a traced pass's wall time
RUN_METRICS = {"cli.import_s", "trace.wall_s"}


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        sys.modules[spec.name] = module  # dataclasses look their module up while the class body runs
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def workloads():
    module = load_bench_module("workloads")
    yield module
    del sys.modules[module.__name__]


@pytest.fixture(scope="module")
def tracing():
    module = load_bench_module("tracing")
    yield module
    del sys.modules[module.__name__]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_pass_answers_match_golden(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    items, _ = wl.run_pass(wl.build(1, "tiny"), workloads.load_golden("tiny")[name], tmp_path, False)
    assert items and all(it.ok for it in items), [it.label for it in items if not it.ok]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_tiny_pass(workloads, tracing, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs, golden = wl.build(1, "tiny"), workloads.load_golden("tiny")[name]
    before = {module: dict(vars(module)) for module in (search, tuples, bounds)}
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        items, _ = wl.run_pass(inputs, golden, tmp_path, True)
    assert items and all(it.ok for it in items), [it.label for it in items if not it.ok]
    assert tr.spans, "the traced pass recorded no span"
    assert set(tracing.layer_metrics(tr)) | RUN_METRICS == {m["name"] for m in SPEC["per_layer"]}
    left = [
        f"{module.__name__}.{attr}"
        for module, attrs in before.items()
        for attr, value in vars(module).items()
        if attrs.get(attr) is not value
    ]
    assert not left, f"instrument left these attributes changed: {left}"
