"""Command-line interface: subcommands, exit codes, reports, determinism."""

import json
import math
import subprocess
import sys

import pytest

import olk
from olk import cli, level as level_mod


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "schema": "olk/1",
        "phi": {"family": "power", "r": 2.0, "scale": 0.5},
        "weight": {"kind": "step", "pieces": [[2.0, 2.0], ["inf", 0.5]]},
        "setting": "function",
    }))
    return str(path)


@pytest.fixture
def unit_space_file(tmp_path):
    path = tmp_path / "unit_space.json"
    path.write_text(json.dumps({
        "schema": "olk/1",
        "phi": {"family": "power", "r": 2.0, "scale": 0.5},
        "weight": {"kind": "step", "pieces": [[10.0, 1.0]]},
        "setting": "function",
    }))
    return str(path)


@pytest.fixture
def element_file(tmp_path):
    path = tmp_path / "element.json"
    path.write_text(json.dumps({
        "schema": "olk/1",
        "kind": "step",
        "atoms": [[3.0, 0.5], [1.0, 1.5], [2.5, 0.25]],
    }))
    return str(path)


@pytest.fixture
def unit_element_file(tmp_path):
    path = tmp_path / "unit_element.json"
    path.write_text(json.dumps({
        "schema": "olk/1", "kind": "step", "atoms": [[1.0, 1.0]],
    }))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_norm_command_reports_both_norms(capsys, unit_space_file,
                                         unit_element_file):
    code, out, _ = run_cli(capsys, "norm", "--space", unit_space_file,
                           "--element", unit_element_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "olk/1"
    assert payload["luxemburg"] == pytest.approx(1.0 / math.sqrt(2.0),
                                                 rel=1e-9)
    assert payload["orlicz"] == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_norm_command_single_norm(capsys, unit_space_file, unit_element_file):
    code, out, _ = run_cli(capsys, "norm", "--space", unit_space_file,
                           "--element", unit_element_file,
                           "--norm", "luxemburg")
    assert code == 0
    payload = json.loads(out)
    assert "orlicz" not in payload


def test_dualnorm_command(capsys, unit_space_file, tmp_path):
    elem = tmp_path / "h.json"
    elem.write_text(json.dumps({"kind": "step", "atoms": [[1.0, 0.5]]}))
    code, out, _ = run_cli(capsys, "dualnorm", "--space", unit_space_file,
                           "--element", str(elem))
    assert code == 0
    payload = json.loads(out)
    assert payload["dual_luxemburg"] == pytest.approx(0.5, rel=1e-9)
    assert payload["dual_orlicz"] == pytest.approx(1.0, rel=1e-9)


def test_level_command_reports_intervals(capsys, space_file, element_file):
    code, out, _ = run_cli(capsys, "level", "--space", space_file,
                           "--element", element_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["setting"] == "function"
    ratios = [iv["ratio"] for iv in payload["intervals"]]
    assert ratios == sorted(ratios, reverse=True)
    assert payload["support_end"] == pytest.approx(2.25)


def test_kinterval_command(capsys, unit_space_file, unit_element_file):
    code, out, _ = run_cli(capsys, "kinterval", "--space", unit_space_file,
                           "--element", unit_element_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == pytest.approx(math.sqrt(2.0), rel=1e-7)
    assert payload["attained_norm"] == pytest.approx(math.sqrt(2.0),
                                                     rel=1e-9)


def test_kinterval_command_on_a_profile(capsys, tmp_path):
    space, elem = tmp_path / "space.json", tmp_path / "tail.json"
    space.write_text(json.dumps({
        "setting": "function", "phi": {"family": "power", "r": 3.0},
        "weight": {"kind": "power", "beta": 0.25}}))
    elem.write_text(json.dumps({"kind": "log_tail", "amplitude": 0.5}))
    code, out, _ = run_cli(capsys, "kinterval", "--space", str(space),
                           "--element", str(elem))
    assert code == 0
    payload = json.loads(out)
    ki = olk.k_interval(olk.PowerOrlicz(3.0), olk.PowerWeight(0.25),
                        olk.LogTailProfile(0.5))
    assert [payload[k] for k in ("lower", "upper", "attained_norm")] == \
        [ki.lower, ki.upper, ki.attained_norm]


def test_theta_command_finite_support(capsys, space_file, element_file):
    code, out, _ = run_cli(capsys, "theta", "--space", space_file,
                           "--element", element_file)
    assert code == 0
    assert json.loads(out)["theta"] == 0.0


def test_witness_command_emits_exact_fields(capsys, unit_space_file):
    code, out, _ = run_cli(capsys, "witness", "--space", unit_space_file,
                           "--s", "0.5", "--u", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"schema", "h", "s", "lux_side_norm",
                            "orlicz_side_norm", "additive_sum", "gap"}
    assert payload["gap"] == pytest.approx(0.1909830, abs=1e-6)
    assert payload["orlicz_side_norm"] == pytest.approx(0.8090170, abs=1e-6)
    assert payload["s"] == 0.5
    # the element is serialized in the wire format
    assert payload["h"]["kind"] == "step"


def test_holder_command(capsys, unit_space_file, unit_element_file, tmp_path):
    other = tmp_path / "g.json"
    other.write_text(json.dumps({"kind": "step", "atoms": [[0.5, 1.0]]}))
    code, out, _ = run_cli(capsys, "holder", "--space", unit_space_file,
                           "--element", unit_element_file,
                           "--against", str(other))
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfied"] is True
    assert payload["pairing"] <= payload[
        "bound_luxemburg_times_dual_orlicz"] + 1e-9


def test_csv_format(capsys, unit_space_file, unit_element_file):
    code, out, _ = run_cli(capsys, "norm", "--space", unit_space_file,
                           "--element", unit_element_file, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"


def test_report_alias_for_format(capsys, unit_space_file, unit_element_file):
    code, out, _ = run_cli(capsys, "norm", "--space", unit_space_file,
                           "--element", unit_element_file, "--report", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"


def test_out_writes_file(tmp_path, capsys, unit_space_file,
                         unit_element_file):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "norm", "--space", unit_space_file,
                           "--element", unit_element_file,
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema"] == "olk/1"


# ---------------------------------------------------------------------------
# error paths


def test_missing_file_exits_2(capsys, unit_space_file):
    code, _, err = run_cli(capsys, "norm", "--space", unit_space_file,
                           "--element", "/nonexistent/elem.json")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("which", ["--space", "--element"])
def test_non_utf8_input_exits_2(capsys, tmp_path, unit_space_file,
                                unit_element_file, which):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"kind": "step", "atoms": [], "note": "caf\xe9"}')
    argv = ["norm", "--space", unit_space_file, "--element",
            unit_element_file]
    argv[argv.index(which) + 1] = str(bad)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err


def test_unwritable_out_exits_2(capsys, tmp_path, unit_space_file,
                                unit_element_file):
    code, _, err = run_cli(capsys, "norm", "--space", unit_space_file,
                           "--element", unit_element_file,
                           "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 2
    assert "error:" in err


def test_invalid_space_exits_2(capsys, tmp_path, unit_element_file):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"phi": {"family": "nope"},
                               "weight": {"kind": "step",
                                          "pieces": [[1.0, 1.0]]},
                               "setting": "function"}))
    code, _, err = run_cli(capsys, "norm", "--space", str(bad),
                           "--element", unit_element_file)
    assert code == 2
    assert "error:" in err


def test_setting_mismatch_exits_2(capsys, unit_space_file, tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"kind": "sequence", "entries": [1.0]}))
    code, _, err = run_cli(capsys, "norm", "--space", unit_space_file,
                           "--element", str(seq))
    assert code == 2


def test_infeasible_witness_exits_2(capsys, unit_space_file):
    code, _, err = run_cli(capsys, "witness", "--space", unit_space_file,
                           "--s", "1.5", "--u", "1.0")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_small_slice_green(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "rearrange",
                           "--seed", "7", "--sizes", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["rows"]


@pytest.mark.parametrize("suite", ["nrms", "norms,nrms", ","])
def test_verify_unknown_suite_exits_2(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_verify_is_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", "--suite", "level", "--seed", "42",
                     "--out", str(out1)]) == 0
    assert cli.main(["verify", "--suite", "level", "--seed", "42",
                     "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_detects_injected_defect(capsys, monkeypatch):
    # negative control: a wrong level construction must turn rows red
    real = level_mod.level_sequence

    def broken(h, w):
        dec = real(h, w)
        # report every ratio ten percent high
        bad = [level_mod.LevelInterval(iv.lower, iv.upper, iv.ratio * 1.1,
                                       iv.h_mass * 1.1, iv.w_mass)
               for iv in dec.intervals]
        return level_mod.LevelDecomposition(
            intervals=tuple(bad), setting=dec.setting,
            support_end=dec.support_end, source=dec.source,
            weight=dec.weight)

    monkeypatch.setattr(level_mod, "level_sequence", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite",
                           "level.oracle_sequence", "--seed", "42")
    assert code == 3
    payload = json.loads(out)
    assert payload["violations"] > 0
    assert any(row["status"] == "violated" for row in payload["rows"])


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "orlicz",
                           "--seed", "5", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert "case_id" in header


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "olk.cli", "verify", "--suite",
         "rearrange.idempotent", "--seed", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["violations"] == 0


def test_no_arguments_shows_usage():
    proc = subprocess.run(
        [sys.executable, "-m", "olk.cli"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
