"""Cold start: `import olk` and the finite-element commands load no SciPy.

SciPy is imported inside the profile quadrature and the two convex oracles
only, so a process that runs neither pays nothing for it.  The check runs in
a fresh interpreter, where nothing else has imported SciPy yet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import olk

CHILD = r"""
import json, math, sys

import olk, olk.cli

commands = json.loads(sys.argv[1])
codes = [olk.cli.run_command(argv) for argv in commands]
cold = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

phi = olk.PowerOrlicz(2.0, 0.5)
rho = olk.rho_modular(phi, olk.HarmonicSeqWeight(), olk.LogSeqTail(0.5))
p_value = olk.P_modular_oracle(
    phi, olk.StepWeight(((1.0, 4.0), (math.inf, 1.0))),
    olk.StepFunction(((4.0, 1.0), (3.0, 1.0))))
print(json.dumps({"codes": codes, "cold": cold, "rho": rho,
                  "p_value": p_value, "warm": "scipy" in sys.modules}))
"""


def _write(folder, name, payload):
    path = folder / f"{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_commands_run_without_scipy(tmp_path):
    space = _write(tmp_path, "space", {
        "setting": "function",
        "phi": {"family": "power", "r": 2.0, "scale": 0.5},
        "weight": {"kind": "step", "pieces": [[2.0, 2.0], ["inf", 0.5]]}})
    flat_space = _write(tmp_path, "flat_space", {
        "setting": "function", "phi": {"family": "flat_zero", "cutoff": 0.4},
        "weight": {"kind": "step", "pieces": [[2.0, 2.0], ["inf", 0.5]]}})
    exp_space = _write(tmp_path, "exp_space", {
        "setting": "function", "phi": {"family": "exp"},
        "weight": {"kind": "step", "pieces": [[1.0, 2.0], ["inf", 1.0]]}})
    f = _write(tmp_path, "f", {"kind": "step",
                               "atoms": [[3.0, 0.5], [1.0, 1.5], [2.5, 0.25]]})
    g = _write(tmp_path, "g", {"kind": "step", "atoms": [[0.5, 1.0]]})
    tail = _write(tmp_path, "tail", {"kind": "log_tail", "amplitude": 0.4})
    commands = [
        ["norm", "--space", space, "--element", f],
        ["dualnorm", "--space", space, "--element", f],
        ["level", "--space", space, "--element", f],
        ["kinterval", "--space", space, "--element", f],
        # the conjugate side of FlatZeroOrlicz, in closed form
        ["dualnorm", "--space", flat_space, "--element", f],
        ["kinterval", "--space", flat_space, "--element", f],
        ["theta", "--space", exp_space, "--element", tail],
        ["witness", "--space", space, "--s", "0.5", "--u", "1.0"],
        ["holder", "--space", space, "--element", f, "--against", g],
    ]
    src = str(Path(olk.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)], env=env,
        capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(commands)
    assert report["cold"] == []
    # a profile quadrature and an oracle load it where they run
    assert 0.0 < report["rho"] < float("inf")
    assert 0.0 < report["p_value"] < float("inf")
    assert report["warm"]
