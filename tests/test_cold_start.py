"""Cold start: each command loads only the modules it runs.

`import olk` loads no submodule; a public name imports its home module on
first access.  The CLI imports the dual, level and verify modules inside the
commands that run them, and SciPy is imported inside the two convex oracles
only: profile modulars run on NumPy alone.  The module checks run in fresh
interpreters, where nothing else has imported anything yet.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import olk
from olk.rearrange import _split

# runs the argv lists of sys.argv[1] through olk.cli.run_command, then
# reports the exit codes and the modules loaded
COMMANDS_CHILD = r"""
import json, sys

import olk.cli

codes = [olk.cli.run_command(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""

BARE_CHILD = r"""
import json, sys

import olk

print(json.dumps(sorted(sys.modules)))
"""

# every command and a profile modular in each setting, which load no SciPy,
# then an oracle, which does
SCIPY_CHILD = r"""
import json, math, sys

import olk, olk.cli

codes = [olk.cli.run_command(argv) for argv in json.loads(sys.argv[1])]
phi = olk.PowerOrlicz(2.0, 0.5)
rho = [olk.rho_modular(phi, olk.HarmonicSeqWeight(), olk.LogSeqTail(0.5)),
       olk.rho_modular(phi, olk.StepWeight(((math.inf, 1.0),)),
                       olk.LogTailProfile(1.0))]
cold = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

p_value = olk.P_modular_oracle(
    phi, olk.StepWeight(((1.0, 4.0), (math.inf, 1.0))),
    olk.StepFunction(((4.0, 1.0), (3.0, 1.0))))
print(json.dumps({"codes": codes, "cold": cold, "rho": rho,
                  "p_value": p_value, "warm": "scipy" in sys.modules}))
"""

# both oracles on a tie-free sequence far above their piece limit
ORACLE_GUARD_CHILD = r"""
import json, sys, time

import olk

x = olk.FiniteSequence(tuple(1.0 + i / 4096 for i in range(2000)))
w = olk.HarmonicSeqWeight()
messages = []
start = time.perf_counter()
for oracle, phi in ((olk.P_modular_oracle, olk.PowerOrlicz(2.0, 0.5)),
                    (olk.orlicz_norm_dual_sup_oracle, olk.ExpOrlicz())):
    try:
        oracle(phi, w, x)
    except olk.DomainError as exc:
        messages.append(str(exc))
print(json.dumps({"messages": messages,
                  "seconds": time.perf_counter() - start,
                  "scipy": any(m.split(".")[0] == "scipy"
                               for m in sys.modules)}))
"""

# never loaded by a benched command: the property suite with its thread
# pool, and numpy.ma, which np.unique and np.union1d import on first use
NEVER = ("olk.verify", "concurrent.futures", "numpy.ma")
# the commands on primal norms run no dual-space code
PRIMAL = ("norm", "level", "kinterval", "theta")


def _child(script, *args):
    src = str(Path(olk.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env,
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _write(folder, name, payload):
    path = folder / f"{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """Each benched command on tied inputs, in both settings where it takes
    an element, so the layout merges tied entries and cuts step supports at
    the weight's breakpoints."""
    folder = tmp_path_factory.mktemp("cold")
    function = _write(folder, "function", {
        "setting": "function",
        "phi": {"family": "power", "r": 2.0, "scale": 0.5},
        "weight": {"kind": "step", "pieces": [[2.0, 2.0], ["inf", 0.5]]}})
    sequence = _write(folder, "sequence", {
        "setting": "sequence", "phi": {"family": "exp"},
        "weight": {"kind": "harmonic"}})
    flat = _write(folder, "flat", {
        "setting": "function", "phi": {"family": "flat_zero", "cutoff": 0.4},
        "weight": {"kind": "step", "pieces": [[2.0, 2.0], ["inf", 0.5]]}})
    exp = _write(folder, "exp", {
        "setting": "function", "phi": {"family": "exp"},
        "weight": {"kind": "step", "pieces": [[1.0, 2.0], ["inf", 1.0]]}})
    f = _write(folder, "f", {"kind": "step", "atoms": [
        [3.0, 0.5], [1.0, 1.5], [2.5, 0.25], [1.0, 0.25]]})
    g = _write(folder, "g", {"kind": "step", "atoms": [[0.5, 1.0]]})
    x = _write(folder, "x", {"kind": "sequence",
                             "entries": [2.0, 0.5, 2.0, 1.0, 0.5, 0.5]})
    y = _write(folder, "y", {"kind": "sequence", "entries": [1.0, 1.0, 0.25]})
    tail = _write(folder, "tail", {"kind": "log_tail", "amplitude": 0.4})

    def pair(command):
        return [[command, "--space", function, "--element", f],
                [command, "--space", sequence, "--element", x]]

    return {
        "norm": pair("norm"),
        # the conjugate side of FlatZeroOrlicz, in closed form
        "dualnorm": pair("dualnorm") + [
            ["dualnorm", "--space", flat, "--element", f]],
        "level": pair("level"),
        "kinterval": pair("kinterval") + [
            ["kinterval", "--space", flat, "--element", f]],
        "theta": [["theta", "--space", exp, "--element", tail]],
        "witness": [["witness", "--space", space, "--s", "0.5", "--u", "1.0"]
                    for space in (function, sequence)],
        "holder": [
            ["holder", "--space", function, "--element", f, "--against", g],
            ["holder", "--space", sequence, "--element", x, "--against", y]],
    }


@pytest.mark.parametrize("command", ["norm", "dualnorm", "level",
                                     "kinterval", "theta", "witness",
                                     "holder"])
def test_command_loads_only_what_it_runs(commands, command):
    argvs = commands[command]
    report = _child(COMMANDS_CHILD, json.dumps(argvs))
    assert report["codes"] == [0] * len(argvs)
    loaded = set(report["modules"])
    assert loaded.isdisjoint(NEVER)
    if command in PRIMAL:
        assert "olk.duality" not in loaded
    else:
        assert "olk.duality" in loaded


def test_import_olk_loads_no_submodule():
    loaded = _child(BARE_CHILD)
    assert "olk" in loaded
    assert not any(m.startswith("olk.") for m in loaded)
    assert not any(m.split(".")[0] == "numpy" for m in loaded)


def test_cli_commands_run_without_scipy(commands):
    argvs = [argv for group in commands.values() for argv in group]
    report = _child(SCIPY_CHILD, json.dumps(argvs))
    assert report["codes"] == [0] * len(argvs)
    assert report["cold"] == []
    assert all(0.0 < rho < float("inf") for rho in report["rho"])
    # an oracle loads it where it runs
    assert 0.0 < report["p_value"] < float("inf")
    assert report["warm"]


def test_oracles_refuse_large_layouts_before_loading_scipy():
    report = _child(ORACLE_GUARD_CHILD)
    limit = olk.norms.ORACLE_MAX_PIECES
    assert report["messages"] == [
        f"the oracle takes at most {limit} layout pieces, got 2000"] * 2
    assert report["seconds"] < 1.0
    assert not report["scipy"]


# ---------------------------------------------------------------------------
# the lazy namespace

def test_every_name_is_its_home_modules_object():
    for name in olk.__all__:
        if name == "__version__":
            continue
        value = getattr(olk, name)
        assert value.__module__.startswith("olk."), name
        assert getattr(importlib.import_module(value.__module__),
                       name) is value, name


def test_dir_covers_all():
    assert set(olk.__all__) <= set(dir(olk))
    assert {"norms", "duality", "verify"} <= set(dir(olk))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from olk import *", namespace)
    assert set(olk.__all__) <= set(namespace)
    assert namespace["luxemburg_norm"] is olk.norms.luxemburg_norm


def test_submodules_resolve():
    assert olk.norms.luxemburg_norm is olk.luxemburg_norm
    assert olk.solvers.__name__ == "olk.solvers"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        olk.nope
    assert not hasattr(olk, "decreasing_rearrangement")
    assert not hasattr(olk, "cumulative_weight")


# ---------------------------------------------------------------------------
# the layout's splitter without np.union1d

@pytest.mark.parametrize("cuts, points", [
    ([0.0, 1.0, 2.0, 3.5], [1.0, 2.0, 3.5, 9.0]),
    ([0.0, 0.5, 1.5], [0.5, 0.5, 1.0, 1.5]),
    ([0.0, 2.0], [0.0, 2.0]),
    ([0.0, 0.25, 0.75, 1.0], [0.25, 0.5, 0.75]),
])
def test_split_edges_match_union1d(cuts, points):
    cuts, points = np.array(cuts), np.array(points)
    edges, atom = _split(cuts, points)
    assert np.array_equal(edges, np.union1d(cuts, points[points < cuts[-1]]))
    assert np.array_equal(
        atom, np.searchsorted(cuts, edges[:-1], side="right") - 1)
