"""The benchmark harness in bench/ still runs against the library.

bench/run.py is loaded as a module and driven the way its timed loop drives
it, on one pass of the gated workloads' op pools, so a library change that
breaks the harness or its checks fails here rather than in a benchmark run.
Its command line is also run as the benchmark runs it, for one second per
gated workload, so whatever raises outside the per-op checks (building the
pool, the child import, the timed loop) fails here too.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import olk

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SEED = 20261018


@pytest.fixture(scope="module")
def run():
    saved_path = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.path[:] = saved_path


@pytest.fixture
def bench(run, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return run


def test_large_n_pool_passes_its_checks(bench):
    pool = bench.build_pool(olk, "large-n", SEED)
    assert len(pool) == 36
    for op in pool:
        assert bench.check_op(olk, "large-n", op, op.call()) is None, op.kind


def test_profiles_theta_ops_pass_their_checks(bench):
    pool = bench.build_pool(olk, "profiles", SEED)
    thetas = [op for op in pool if op.kind == "theta"]
    assert len(thetas) == 8
    for op in thetas:
        assert bench.check_op(olk, "profiles", op, op.call()) is None, op.ref


def test_cli_cold_commands_pass_their_checks(bench):
    pool = bench.build_pool(olk, "cli-cold", SEED, 7)
    kinds = {op.kind for op in pool}
    assert kinds == {"cli." + c for c in ("norm", "dualnorm", "level",
                                          "kinterval", "theta", "witness",
                                          "holder")}
    for op in pool:
        assert bench.check_op(olk, "cli-cold", op, op.call()) is None, op.kind


def test_library_surface_used_by_the_harness(bench):
    serial = olk.verify_suite(seed=SEED, threads=1)
    assert serial["rows"] and not serial["violations"]
    assert bench.verify_determinism(olk, SEED, olk.verify_suite(seed=SEED))
    assert isinstance(olk.specio.dumps(serial), str)
    assert olk.verify.CASES
    tracing = sys.modules[bench.Tracer.__module__]
    for name in tracing.MODULES:
        importlib.import_module(f"olk.{name}")
    for cls in (olk.StepFunction, olk.FiniteSequence):
        assert "rearranged" in cls.__dict__ and "scaled" in cls.__dict__


@pytest.mark.parametrize("workload", ["large-n", "cli-cold"])
def test_benchmark_command_exits_cleanly(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
