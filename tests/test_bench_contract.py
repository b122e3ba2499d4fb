"""The benchmark harness in bench/ still runs against the library.

bench/run.py is loaded as a module and driven the way its timed loop drives
it, on one pass of the gated workloads' op pools, so a library change that
breaks the harness or its checks fails here rather than in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import olk

BENCH = Path(__file__).resolve().parent.parent / "bench"
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
