"""Parsing and serialization of space and element descriptions.

Wire format is JSON with tagged unions.  A space fragment looks like

    {"setting": "function",
     "phi": {"family": "power", "r": 2.0, "scale": 0.5},
     "weight": {"kind": "step", "pieces": [[1.0, 1.0], ["inf", 0.5]]}}

and elements carry a "kind" tag.  Infinities are encoded as the strings
"inf" / "-inf" (and nan as "nan").  `dumps`, the writer for all CLI output,
is the standard json encoder: floats come out as their shortest round-trip
repr, so every emitted description re-parses to an equal object, and the
same payload always gives the same text.
"""

import json
import math
from dataclasses import dataclass

from .errors import ValidationError
from .orlicz import (Conjugate, ExpOrlicz, FlatZeroOrlicz, LogOrlicz,
                     OrliczFunction, PowerOrlicz, TabulatedOrlicz)
from .profiles import (BandComplement, BandRestriction, ConstantSeqWeight,
                       ExplicitSeqWeight, HarmonicSeqWeight, LogSeqTail,
                       LogTailProfile, PowerSeqTail, PowerSeqWeight,
                       PowerTailProfile, PowerWeight, ShiftedSeqTail,
                       StepWeight)
from .rearrange import FiniteSequence, StepFunction

__all__ = ["SpaceSpec", "SCHEMA", "parse_space", "parse_element",
           "serialize_space", "serialize_element", "serialize_orlicz",
           "serialize_weight", "dumps", "dumps_csv"]

SCHEMA = "olk/1"

_FUNCTION_WEIGHTS = {"step", "power"}
_SEQUENCE_WEIGHTS = {"constant", "harmonic", "power_seq", "explicit"}


@dataclass(frozen=True)
class SpaceSpec:
    """A fully described space: Orlicz function, weight, and setting."""

    phi: OrliczFunction
    weight: object
    setting: str


# ---------------------------------------------------------------------------
# reading

def _fail(message, path):
    raise ValidationError(message, field=path)


def _as_mapping(obj, path):
    if not isinstance(obj, dict):
        _fail("expected an object", path)
    return obj


def _get(obj, key, path, default=None, required=True):
    if key not in obj:
        if required:
            _fail(f"missing key '{key}'", path)
        return default
    return obj[key]


def _number(raw, path, *, allow_inf=False):
    if raw == "inf":
        value = math.inf
    elif raw == "-inf":
        value = -math.inf
    elif isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return _fail("expected a number", path)
    else:
        value = float(raw)
    if math.isnan(value):
        _fail("nan is not a valid value", path)
    if math.isinf(value) and not allow_inf:
        _fail("value must be finite", path)
    return value


def _pairs(raw, path, *, allow_inf_first=False):
    if not isinstance(raw, list):
        return _fail("expected a list of pairs", path)
    out = []
    for k, item in enumerate(raw):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            _fail("expected a [a, b] pair", f"{path}[{k}]")
        first = _number(item[0], f"{path}[{k}][0]",
                        allow_inf=allow_inf_first)
        second = _number(item[1], f"{path}[{k}][1]")
        out.append((first, second))
    return tuple(out)


def parse_orlicz(obj, path="phi"):
    obj = _as_mapping(obj, path)
    family = _get(obj, "family", path)
    if family == "power":
        exponent = obj.get("r", obj.get("exponent"))
        if exponent is None:
            _fail("missing key 'r'", path)
        return PowerOrlicz(_number(exponent, f"{path}.r"),
                           _number(_get(obj, "scale", path, 1.0,
                                        required=False), f"{path}.scale"))
    if family == "exp":
        return ExpOrlicz()
    if family == "log":
        return LogOrlicz()
    if family == "flat_zero":
        return FlatZeroOrlicz(_number(_get(obj, "cutoff", path, 0.4,
                                           required=False),
                                      f"{path}.cutoff"))
    if family == "tabulated":
        return TabulatedOrlicz(_pairs(_get(obj, "knots", path),
                                      f"{path}.knots"))
    if family == "conjugate_of":
        return parse_orlicz(_get(obj, "base", path),
                            f"{path}.base").conjugate()
    return _fail(f"unknown Orlicz family '{family}'", f"{path}.family")


def parse_weight(obj, path="weight", setting=None):
    obj = _as_mapping(obj, path)
    kind = _get(obj, "kind", path)
    if setting == "function" and kind not in _FUNCTION_WEIGHTS:
        _fail(f"weight kind '{kind}' does not fit the function setting",
              f"{path}.kind")
    if setting == "sequence" and kind not in _SEQUENCE_WEIGHTS:
        _fail(f"weight kind '{kind}' does not fit the sequence setting",
              f"{path}.kind")
    if kind == "step":
        pieces = _pairs(_get(obj, "pieces", path), f"{path}.pieces",
                        allow_inf_first=True)
        return StepWeight(pieces)
    if kind == "power":
        return PowerWeight(_number(_get(obj, "beta", path), f"{path}.beta"))
    if kind == "constant":
        return ConstantSeqWeight(_number(_get(obj, "level", path, 1.0,
                                              required=False),
                                         f"{path}.level"))
    if kind == "harmonic":
        return HarmonicSeqWeight()
    if kind == "power_seq":
        return PowerSeqWeight(_number(_get(obj, "beta", path),
                                      f"{path}.beta"))
    if kind == "explicit":
        head = _get(obj, "head", path)
        if not isinstance(head, list):
            return _fail("expected a list of numbers", f"{path}.head")
        return ExplicitSeqWeight(tuple(_number(x, f"{path}.head[{k}]")
                                       for k, x in enumerate(head)))
    return _fail(f"unknown weight kind '{kind}'", f"{path}.kind")


def parse_element(obj, path="element", setting=None):
    obj = _as_mapping(obj, path)
    kind = _get(obj, "kind", path)
    sequence_kinds = {"sequence", "log_seq_tail", "power_seq_tail",
                      "shifted_seq_tail"}
    if setting == "function" and kind in sequence_kinds:
        _fail(f"element kind '{kind}' does not fit the function setting",
              f"{path}.kind")
    if setting == "sequence" and kind not in sequence_kinds:
        _fail(f"element kind '{kind}' does not fit the sequence setting",
              f"{path}.kind")
    if kind == "step":
        atoms = _pairs(_get(obj, "atoms", path), f"{path}.atoms")
        gamma = _number(_get(obj, "gamma", path, math.inf, required=False),
                        f"{path}.gamma", allow_inf=True)
        return StepFunction(atoms, gamma)
    if kind == "sequence":
        entries = _get(obj, "entries", path)
        if not isinstance(entries, list):
            return _fail("expected a list of numbers", f"{path}.entries")
        return FiniteSequence(tuple(_number(x, f"{path}.entries[{k}]")
                                    for k, x in enumerate(entries)))
    if kind == "log_tail":
        return LogTailProfile(_number(_get(obj, "amplitude", path, 1.0,
                                           required=False),
                                      f"{path}.amplitude"))
    if kind == "power_tail":
        return PowerTailProfile(
            _number(_get(obj, "exponent", path), f"{path}.exponent"),
            _number(_get(obj, "amplitude", path, 1.0, required=False),
                    f"{path}.amplitude"))
    if kind == "band_restriction" or kind == "band_complement":
        base = parse_element(_get(obj, "base", path), f"{path}.base",
                             setting="function")
        lower = _number(_get(obj, "lower_value", path),
                        f"{path}.lower_value")
        upper = _number(_get(obj, "upper_value", path),
                        f"{path}.upper_value", allow_inf=True)
        cls = BandRestriction if kind == "band_restriction" else \
            BandComplement
        return cls(base, lower, upper)
    if kind == "log_seq_tail":
        return LogSeqTail(_number(_get(obj, "amplitude", path, 1.0,
                                       required=False),
                                  f"{path}.amplitude"))
    if kind == "power_seq_tail":
        return PowerSeqTail(
            _number(_get(obj, "exponent", path), f"{path}.exponent"),
            _number(_get(obj, "amplitude", path, 1.0, required=False),
                    f"{path}.amplitude"))
    if kind == "shifted_seq_tail":
        base = parse_element(_get(obj, "base", path), f"{path}.base",
                             setting="sequence")
        offset = _get(obj, "offset", path)
        if isinstance(offset, bool) or not isinstance(offset, int):
            _fail("expected an integer", f"{path}.offset")
        return ShiftedSeqTail(base, offset)
    return _fail(f"unknown element kind '{kind}'", f"{path}.kind")


def parse_space(obj, path="space"):
    obj = _as_mapping(obj, path)
    setting = _get(obj, "setting", path)
    if setting not in ("function", "sequence"):
        _fail("setting must be 'function' or 'sequence'", f"{path}.setting")
    phi = parse_orlicz(_get(obj, "phi", path), f"{path}.phi")
    weight = parse_weight(_get(obj, "weight", path), f"{path}.weight",
                          setting=setting)
    return SpaceSpec(phi, weight, setting)


# ---------------------------------------------------------------------------
# writing

def serialize_orlicz(phi):
    if isinstance(phi, PowerOrlicz):
        return {"family": "power", "r": phi.exponent, "scale": phi.scale}
    if isinstance(phi, ExpOrlicz):
        return {"family": "exp"}
    if isinstance(phi, LogOrlicz):
        return {"family": "log"}
    if isinstance(phi, FlatZeroOrlicz):
        return {"family": "flat_zero", "cutoff": phi.cutoff}
    if isinstance(phi, TabulatedOrlicz):
        return {"family": "tabulated",
                "knots": [list(k) for k in phi.knots]}
    if isinstance(phi, Conjugate):
        return {"family": "conjugate_of", "base": serialize_orlicz(phi.base)}
    raise ValidationError("cannot serialize this Orlicz function",
                          field="phi")


def serialize_weight(w):
    if isinstance(w, StepWeight):
        return {"kind": "step", "pieces": [list(p) for p in w.pieces]}
    if isinstance(w, PowerWeight):
        return {"kind": "power", "beta": w.beta}
    if isinstance(w, ConstantSeqWeight):
        return {"kind": "constant", "level": w.level}
    if isinstance(w, HarmonicSeqWeight):
        return {"kind": "harmonic"}
    if isinstance(w, PowerSeqWeight):
        return {"kind": "power_seq", "beta": w.beta}
    if isinstance(w, ExplicitSeqWeight):
        return {"kind": "explicit", "head": list(w.head_values)}
    raise ValidationError("cannot serialize this weight", field="weight")


def serialize_element(f):
    if isinstance(f, StepFunction):
        return {"kind": "step", "atoms": [list(a) for a in f.atoms],
                "gamma": f.gamma}
    if isinstance(f, FiniteSequence):
        return {"kind": "sequence", "entries": list(f.entries)}
    if isinstance(f, LogTailProfile):
        return {"kind": "log_tail", "amplitude": f.amplitude}
    if isinstance(f, PowerTailProfile):
        return {"kind": "power_tail", "exponent": f.exponent,
                "amplitude": f.amplitude}
    if isinstance(f, BandRestriction):
        return {"kind": "band_restriction",
                "base": serialize_element(f.base),
                "lower_value": f.lower_value, "upper_value": f.upper_value}
    if isinstance(f, BandComplement):
        return {"kind": "band_complement",
                "base": serialize_element(f.base),
                "lower_value": f.lower_value, "upper_value": f.upper_value}
    if isinstance(f, LogSeqTail):
        return {"kind": "log_seq_tail", "amplitude": f.amplitude}
    if isinstance(f, PowerSeqTail):
        return {"kind": "power_seq_tail", "exponent": f.exponent,
                "amplitude": f.amplitude}
    if isinstance(f, ShiftedSeqTail):
        return {"kind": "shifted_seq_tail", "base": serialize_element(f.base),
                "offset": f.offset}
    raise ValidationError("cannot serialize this element", field="element")


def serialize_space(spec):
    return {"setting": spec.setting,
            "phi": serialize_orlicz(spec.phi),
            "weight": serialize_weight(spec.weight)}


# ---------------------------------------------------------------------------
# deterministic JSON / CSV writers

def _plain(obj):
    """obj with tuples as lists, keys as strings and non-finite floats as
    "inf", "-inf" or "nan": what the json module writes as strict JSON."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, dict):
        return {str(key): _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    raise ValidationError(f"cannot serialize {type(obj).__name__}",
                          field="payload")


def dumps(obj, *, indent=2):
    """Deterministic JSON text: insertion-ordered keys, floats as their
    shortest round-trip repr; indent=None gives compact output."""
    return json.dumps(_plain(obj), ensure_ascii=False, allow_nan=False,
                      indent=indent,
                      separators=(",", ":") if indent is None else None)


def _csv_cell(value):
    if isinstance(value, float):
        return repr(float(value))
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            rows.extend(_flatten(value, f"{prefix}.{key}" if prefix
                                 else str(key)))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            rows.extend(_flatten(value, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, obj))
    return rows


def dumps_csv(payload):
    """Plot-ready CSV, one (key, value) row per scalar leaf.

    Lists of homogeneous dicts (report rows) become a table with a header.
    """
    if isinstance(payload, dict) and isinstance(payload.get("rows"), list) \
            and payload["rows"] \
            and all(isinstance(r, dict) for r in payload["rows"]):
        rows = payload["rows"]
        header = list(rows[0].keys())
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_csv_cell(row.get(col, ""))
                                  for col in header))
        return "\n".join(lines) + "\n"
    lines = ["key,value"]
    for key, value in _flatten(payload):
        lines.append(f"{_csv_cell(key)},{_csv_cell(value)}")
    return "\n".join(lines) + "\n"
