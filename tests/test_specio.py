"""Wire format: parsing, serialization, deterministic writers."""

import json
import math

import numpy as np
import pytest

import olk
from olk import cli, specio
from olk.errors import ValidationError

from conftest import rand_phi, rand_seq_weight, rand_step_weight


# ---------------------------------------------------------------------------
# round trips


PHI_EXAMPLES = [
    olk.PowerOrlicz(2.0, 0.5),
    olk.PowerOrlicz(1.5, 1.25),
    olk.ExpOrlicz(),
    olk.LogOrlicz(),
    olk.FlatZeroOrlicz(0.4),
    olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 0.5), (2.0, 2.0))),
]

WEIGHT_EXAMPLES = [
    olk.StepWeight(((2.0, 2.0), (math.inf, 0.5))),
    olk.StepWeight(((10.0, 1.0),)),
    olk.PowerWeight(0.5),
    olk.ConstantSeqWeight(2.0),
    olk.HarmonicSeqWeight(),
    olk.PowerSeqWeight(0.5),
    olk.ExplicitSeqWeight((2.0, 1.0, 0.5)),
]

ELEMENT_EXAMPLES = [
    olk.StepFunction(((3.0, 0.5), (1.0, 1.5))),
    olk.FiniteSequence((2.0, 1.0, 0.5)),
    olk.LogTailProfile(1.0),
    olk.PowerTailProfile(2.0, 3.0),
    olk.BandRestriction(olk.PowerTailProfile(1.0, 1.0), 0.25, 2.0),
    olk.BandComplement(olk.PowerTailProfile(1.0, 1.0), 0.25, 2.0),
    olk.LogSeqTail(0.75),
    olk.PowerSeqTail(2.0, 1.0),
    olk.ShiftedSeqTail(olk.PowerSeqTail(1.0, 1.0), 3),
]


@pytest.mark.parametrize("phi", PHI_EXAMPLES, ids=lambda p: type(p).__name__)
def test_orlicz_round_trip(phi):
    data = specio.serialize_orlicz(phi)
    back = specio.parse_orlicz(json.loads(specio.dumps(data)))
    for u in (0.25, 1.0, 3.0):
        assert back.value(u) == pytest.approx(phi.value(u), rel=1e-12)
    assert type(back) is type(phi)


@pytest.mark.parametrize("w", WEIGHT_EXAMPLES, ids=lambda w: type(w).__name__)
def test_weight_round_trip(w):
    data = specio.serialize_weight(w)
    back = specio.parse_weight(json.loads(specio.dumps(data)))
    assert type(back) is type(w)
    if isinstance(w, olk.profiles.Weight):
        for t in (0.5, 1.5):
            assert back.value(t) == pytest.approx(w.value(t), rel=1e-12)
    else:
        for i in (1, 3, 7):
            assert back.value(i) == pytest.approx(w.value(i), rel=1e-12)


@pytest.mark.parametrize("f", ELEMENT_EXAMPLES,
                         ids=lambda f: type(f).__name__)
def test_element_round_trip(f):
    data = specio.serialize_element(f)
    back = olk.parse_element(json.loads(specio.dumps(data)))
    assert type(back) is type(f)
    if isinstance(f, olk.StepFunction):
        assert back.atoms == f.atoms
    elif isinstance(f, olk.FiniteSequence):
        assert back.entries == f.entries
    elif isinstance(f, olk.profiles.DecreasingProfile):
        for t in (0.3, 1.0, 5.0):
            assert back.value(t) == pytest.approx(f.value(t), rel=1e-12)
    else:
        for i in (1, 2, 9):
            assert back.value(i) == pytest.approx(f.value(i), rel=1e-12)


def test_space_round_trip():
    spec = specio.SpaceSpec(
        phi=olk.PowerOrlicz(2.0, 0.5),
        weight=olk.StepWeight(((2.0, 2.0), (math.inf, 0.5))),
        setting="function",
    )
    data = specio.serialize_space(spec)
    back = olk.parse_space(json.loads(specio.dumps(data)))
    assert back.setting == "function"
    assert type(back.phi) is olk.PowerOrlicz
    assert back.weight.pieces == spec.weight.pieces


def test_space_files_with_a_tolerances_key_still_parse():
    # the key was once parsed and never read; it is now ignored like any
    # other unknown key
    data = {"setting": "sequence", "phi": {"family": "exp"},
            "weight": {"kind": "harmonic"}, "tolerances": {"rel": 1e-9}}
    spec = olk.parse_space(data)
    assert specio.serialize_space(spec) == {
        "setting": "sequence", "phi": {"family": "exp"},
        "weight": {"kind": "harmonic"}}


# ---------------------------------------------------------------------------
# float formatting and determinism


def test_float_formatting_preserves_precision():
    value = 0.8090169943749475
    data = {"x": value}
    assert json.loads(specio.dumps(data))["x"] == value


def test_float_types_survive_a_round_trip():
    values = [2.0, 1e16, np.float64(0.1), -0.0]
    back = json.loads(specio.dumps({"x": values}))["x"]
    assert back == values
    assert all(type(v) is float for v in back)
    assert specio.dumps(0.1) == "0.1"


def test_infinities_encoded_as_strings():
    out = specio.dumps({"a": math.inf, "b": -math.inf, "c": math.nan})
    parsed = json.loads(out)
    assert parsed == {"a": "inf", "b": "-inf", "c": "nan"}


@pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3), b"x"])
def test_dumps_rejects_unsupported_types(value):
    with pytest.raises(ValidationError) as info:
        specio.dumps({"rows": [value]})
    assert info.value.field == "payload"


def test_dumps_without_indent_is_compact():
    out = specio.dumps({"a": [1, 2.5, (True, None)], "b": {}}, indent=None)
    assert out == '{"a":[1,2.5,[true,null]],"b":{}}'


def test_dumps_is_deterministic_and_insertion_ordered():
    payload = {"z": 1.0, "a": [1, 2, {"k": math.inf}], "m": {"x": True}}
    one = specio.dumps(payload)
    two = specio.dumps(payload)
    assert one == two
    # insertion order preserved, not alphabetical
    assert one.index('"z"') < one.index('"a"') < one.index('"m"')


def test_dumps_csv_key_value_mode():
    out = specio.dumps_csv({"schema": "olk/1", "value": 1.5, "tenth": 0.1,
                            "top": math.inf})
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert "schema,olk/1" in lines
    assert any(line.startswith("value,1.5") for line in lines)
    # the JSON writer's float format
    assert "tenth,0.1" in lines
    assert "top,inf" in lines


def test_dumps_csv_rows_mode():
    payload = {"rows": [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}]}
    out = specio.dumps_csv(payload)
    lines = out.strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1].startswith("1,")


def _strict_loads(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", ["norm", "dualnorm", "level", "kinterval",
                                     "theta", "holder", "witness", "verify"])
def test_every_cli_report_is_strict_json(command, tmp_path, capsys):
    space, elem = tmp_path / "space.json", tmp_path / "elem.json"
    space.write_text(json.dumps({
        "setting": "function",
        "phi": {"family": "power", "r": 2.0, "scale": 0.5},
        "weight": {"kind": "step", "pieces": [[2.0, 2.0], ["inf", 0.5]]}}))
    elem.write_text(json.dumps({"kind": "step",
                                "atoms": [[3.0, 0.5], [1.0, 1.5]]}))
    files = ["--space", str(space), "--element", str(elem)]
    argv = {"holder": files + ["--against", str(elem)],
            "witness": ["--space", str(space), "--s", "0.5", "--u", "1.0"],
            "verify": ["--suite", "orlicz", "--seed", "5"]}.get(command, files)
    assert cli.main([command] + argv) == 0
    assert _strict_loads(capsys.readouterr().out)["schema"] == "olk/1"


# ---------------------------------------------------------------------------
# validation paths


def test_parse_element_unknown_kind():
    with pytest.raises(ValidationError) as info:
        olk.parse_element({"kind": "mystery"})
    assert "kind" in str(info.value)


def test_parse_orlicz_unknown_family():
    with pytest.raises(ValidationError) as info:
        specio.parse_orlicz({"family": "nope"})
    assert "family" in str(info.value)


def test_parse_element_setting_mismatch():
    with pytest.raises(ValidationError):
        olk.parse_element({"kind": "log_tail", "head": 1.0},
                          setting="sequence")
    with pytest.raises(ValidationError):
        olk.parse_element({"kind": "sequence", "entries": [1.0]},
                          setting="function")


def test_parse_space_weight_setting_mismatch():
    bad = {
        "schema": "olk/1",
        "phi": {"family": "exp"},
        "weight": {"kind": "harmonic"},
        "setting": "function",
    }
    with pytest.raises(ValidationError):
        olk.parse_space(bad)


def test_parse_space_reports_field_path():
    bad = {
        "schema": "olk/1",
        "phi": {"family": "power", "r": -2.0},
        "weight": {"kind": "constant"},
        "setting": "sequence",
    }
    with pytest.raises(ValidationError) as info:
        olk.parse_space(bad)
    assert "phi" in str(info.value)


def test_parse_weight_accepts_inf_string():
    w = specio.parse_weight(
        {"kind": "step", "pieces": [[2.0, 1.0], ["inf", 0.5]]})
    assert math.isinf(w.gamma)


def test_power_family_accepts_r_or_exponent_key():
    a = specio.parse_orlicz({"family": "power", "r": 2.0, "scale": 0.5})
    b = specio.parse_orlicz({"family": "power", "exponent": 2.0,
                             "scale": 0.5})
    assert a == b
    # serialization emits the short key
    assert "r" in specio.serialize_orlicz(a)


def test_conjugate_wrapper_round_trip():
    phi = olk.NumericConjugate(olk.ExpOrlicz())
    data = specio.serialize_orlicz(phi)
    back = specio.parse_orlicz(json.loads(specio.dumps(data)))
    # the parser may resolve the wrapper to a closed-form conjugate; only
    # the function values must survive the trip
    for u in (0.5, 2.0):
        assert back.value(u) == pytest.approx(phi.value(u), rel=1e-7)


@pytest.mark.parametrize("base", [
    pytest.param(olk.FlatZeroOrlicz(0.3), id="flat_zero"),
    pytest.param(olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 0.5), (2.0, 2.0))),
                 id="tabulated"),
])
def test_closed_form_conjugate_round_trip(base):
    conj = base.conjugate()
    data = specio.serialize_orlicz(conj)
    assert data == {"family": "conjugate_of",
                    "base": specio.serialize_orlicz(base)}
    back = specio.parse_orlicz(json.loads(specio.dumps(data)))
    assert type(back) is type(conj)
    assert back.base == base
    v = np.array([0.0, 0.25, 1.0, 1.25])
    assert np.array_equal(back.value(v), conj.value(v))
    assert np.array_equal(back.derivative(v), conj.derivative(v))
