"""Batch command line: norms, dual norms, level decompositions, witnesses.

Space and element descriptions are JSON files (see specio).  Every report
is JSON by default (CSV with --format csv) and carries a top-level schema
tag.  Exit codes: 0 success, 2 validation failure, 3 when `verify` finds a
violated property.

The `dualnorm` subcommand reports norms in the Koethe dual of the described
space, so the dual modular runs on the conjugate of the space's Orlicz
function.

Each command imports the modules it runs when it runs, so a process that
computes a norm does not load the dual, level or verify modules.
"""

import argparse
import json
import sys

from . import specio
from .errors import OlkError, ValidationError
from .norms import k_interval, luxemburg_norm, orlicz_norm_amemiya, theta

__all__ = ["main", "run_command"]


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file: {exc}", field=what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}", field=what)


def _load_space(path):
    return specio.parse_space(_load_json(path, "space"))


def _load_element(path, setting):
    return specio.parse_element(_load_json(path, "element"),
                                setting=setting)


def _cmd_norm(args):
    space = _load_space(args.space)
    elem = _load_element(args.element, space.setting)
    payload = {}
    if args.norm in ("luxemburg", "both"):
        payload["luxemburg"] = luxemburg_norm(space.phi, space.weight, elem)
    if args.norm in ("orlicz", "both"):
        payload["orlicz"] = orlicz_norm_amemiya(space.phi, space.weight,
                                                elem)
    return payload, 0


def _cmd_dualnorm(args):
    from .duality import dual_luxemburg_norm, dual_orlicz_norm
    space = _load_space(args.space)
    elem = _load_element(args.element, space.setting)
    conj = space.phi.conjugate()
    payload = {}
    if args.norm in ("luxemburg", "both"):
        payload["dual_luxemburg"] = dual_luxemburg_norm(conj, space.weight,
                                                        elem)
    if args.norm in ("orlicz", "both"):
        payload["dual_orlicz"] = dual_orlicz_norm(conj, space.weight, elem)
    return payload, 0


def _cmd_level(args):
    from .level import level_function, level_sequence
    space = _load_space(args.space)
    elem = _load_element(args.element, space.setting).rearranged()
    if space.setting == "function":
        dec = level_function(elem, space.weight)
        breaks = [b for b in space.weight.breakpoints()
                  if b < dec.support_end]
    else:
        dec = level_sequence(elem, space.weight)
        breaks = []
    payload = {
        "setting": dec.setting,
        "support_end": dec.support_end,
        "intervals": [{"lower": iv.lower, "upper": iv.upper,
                       "ratio": iv.ratio, "h_mass": iv.h_mass,
                       "w_mass": iv.w_mass} for iv in dec.intervals],
        "weight_breakpoints": breaks,
    }
    return payload, 0


def _cmd_kinterval(args):
    space = _load_space(args.space)
    elem = _load_element(args.element, space.setting)
    ki = k_interval(space.phi, space.weight, elem)
    return {"lower": ki.lower, "upper": ki.upper,
            "attained_norm": ki.attained_norm}, 0


def _cmd_theta(args):
    space = _load_space(args.space)
    elem = _load_element(args.element, space.setting)
    value = theta(space.phi, space.weight, elem)
    return {"theta": value}, 0


def _cmd_witness(args):
    from .duality import non_m_ideal_witness
    space = _load_space(args.space)
    report = non_m_ideal_witness(space.phi, space.weight, args.s, args.u)
    payload = {
        "h": specio.serialize_element(report.h),
        "s": report.s,
        "lux_side_norm": report.lux_side_norm,
        "orlicz_side_norm": report.orlicz_side_norm,
        "additive_sum": report.additive_sum,
        "gap": report.gap,
    }
    return payload, 0


def _cmd_holder(args):
    from .duality import holder_check
    space = _load_space(args.space)
    f = _load_element(args.element, space.setting)
    h = _load_element(args.against, space.setting)
    report = holder_check(space.phi, space.weight, f, h)
    return dict(report), 0


def _cmd_verify(args):
    from .verify import verify_suite
    cases = None
    if args.suite and args.suite != "all":
        cases = [c.strip() for c in args.suite.split(",") if c.strip()]
    payload = verify_suite(seed=args.seed, sizes=args.sizes, cases=cases)
    return payload, (3 if payload["violations"] else 0)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="olk",
        description="Norms and duality computations in Orlicz-Lorentz "
                    "function and sequence spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, element=True):
        p.add_argument("--space", required=True,
                       help="path to a space description JSON file")
        if element:
            p.add_argument("--element", required=True,
                           help="path to an element description JSON file")
        p.add_argument("--format", "--report", dest="format",
                       choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None,
                       help="write the report here instead of stdout")

    p = sub.add_parser("norm", help="Luxemburg and Amemiya-form norms")
    common(p)
    p.add_argument("--norm", choices=("luxemburg", "orlicz", "both"),
                   default="both")
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("dualnorm", help="norms in the Koethe dual space")
    common(p)
    p.add_argument("--norm", choices=("luxemburg", "orlicz", "both"),
                   default="both")
    p.set_defaults(handler=_cmd_dualnorm)

    p = sub.add_parser("level", help="level decomposition of the element")
    common(p)
    p.set_defaults(handler=_cmd_level)

    p = sub.add_parser("kinterval",
                       help="scaling constants attaining the Amemiya form")
    common(p)
    p.set_defaults(handler=_cmd_kinterval)

    p = sub.add_parser("theta", help="finiteness threshold of the modular")
    common(p)
    p.set_defaults(handler=_cmd_theta)

    p = sub.add_parser("witness",
                       help="functional with a strictly positive norm gap")
    common(p, element=False)
    p.add_argument("--s", type=float, required=True,
                   help="singular part norm, in (0, 1)")
    p.add_argument("--u", type=float, required=True,
                   help="height of the element against the weight")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("holder", help="Hoelder bounds for a pairing")
    common(p)
    p.add_argument("--against", required=True,
                   help="path to the dual-side element JSON file")
    p.set_defaults(handler=_cmd_holder)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--suite", default="all",
                   help="'all' or a comma-separated list of case ids or "
                        "prefixes")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--sizes", type=int, default=None,
                   help="bound on random support sizes")
    p.add_argument("--format", "--report", dest="format",
                   choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _emit(payload, fmt, out_path):
    payload = {"schema": specio.SCHEMA, **payload}
    if fmt == "csv":
        text = specio.dumps_csv(payload)
    else:
        text = specio.dumps(payload) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write the report: {exc}",
                                  field="out")
    else:
        sys.stdout.write(text)


def run_command(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.handler(args)
        _emit(payload, args.format, args.out)
        return code
    except OlkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    return run_command(list(argv))


if __name__ == "__main__":
    sys.exit(main())
