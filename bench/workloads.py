"""Seeded op pools for the benchmark workloads.

Every op is built from plain-data specs (tuples of family names and numbers,
NumPy arrays of values) that the reference checker reads without touching
the library, plus the library objects built from those specs that the op
passes in.  The seed decides every number; the slot index alone decides the
op kind, the setting, the Orlicz family and the size n, so that two seeds
give pools of the same cost profile and any prefix of a pool holds every
kind in its share.  large-n also fixes the Orlicz parameters and the
weight per slot, for the same reason: the cost of a dual op follows the
number of level blocks, which the weight shapes more than the values do.
"""

import math
from dataclasses import dataclass, field

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Op:
    """One call into the library: fn(*args, **kwargs)."""

    kind: str
    fn: object
    args: tuple
    kwargs: dict = field(default_factory=dict)
    n: int = 0
    ref: dict = field(default_factory=dict)

    def call(self):
        return self.fn(*self.args, **self.kwargs)


# ---------------------------------------------------------------------------
# specs -> library objects

def make_phi(olk, spec):
    family = spec[0]
    if family == "power":
        return olk.PowerOrlicz(spec[1], spec[2])
    if family == "exp":
        return olk.ExpOrlicz()
    if family == "log":
        return olk.LogOrlicz()
    if family == "flat_zero":
        return olk.FlatZeroOrlicz(spec[1])
    if family == "tabulated":
        return olk.TabulatedOrlicz(spec[1])
    raise ValueError(family)


def make_weight(olk, spec):
    kind = spec[0]
    if kind == "step":
        return olk.StepWeight(spec[1])
    if kind == "power":
        return olk.PowerWeight(spec[1])
    if kind == "harmonic":
        return olk.HarmonicSeqWeight()
    if kind == "power_seq":
        return olk.PowerSeqWeight(spec[1])
    if kind == "explicit":
        return olk.ExplicitSeqWeight(spec[1])
    raise ValueError(kind)


def make_profile(olk, spec):
    kind = spec[0]
    if kind == "log_tail":
        return olk.LogTailProfile(spec[1])
    if kind == "power_tail":
        return olk.PowerTailProfile(spec[1], spec[2])
    if kind == "band":
        return olk.BandRestriction(make_profile(olk, spec[1]), spec[2],
                                   spec[3])
    if kind == "log_seq_tail":
        return olk.LogSeqTail(spec[1])
    if kind == "power_seq_tail":
        return olk.PowerSeqTail(spec[1], spec[2])
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# random parameters

def _dyadic(rng, lo, hi, size=None):
    """Multiples of 1/16 in [lo/16, hi/16]."""
    return rng.integers(lo, hi + 1, size=size) / 16.0


def _phi_spec(rng, family):
    if family == "power":
        return ("power", float(rng.choice([1.5, 2.0, 3.0])),
                float(_dyadic(rng, 4, 32)))
    if family == "flat_zero":
        return ("flat_zero", float(rng.choice([0.3, 0.35, 0.4, 0.45])))
    if family == "tabulated":
        slopes = np.sort(rng.uniform(0.2, 3.0, 4))
        ts = (0.0, 0.5, 1.0, 2.0, 4.0)
        ys = [0.0]
        for k, s in enumerate(slopes):
            ys.append(ys[-1] + float(s) * (ts[k + 1] - ts[k]))
        return ("tabulated", tuple(zip(ts, ys)))
    return (family,)


def _seq_weight_spec(rng):
    pick = int(rng.integers(0, 3))
    if pick == 0:
        return ("harmonic",)
    if pick == 1:
        return ("power_seq", float(_dyadic(rng, 0, 16)))
    head = np.sort(_dyadic(rng, 4, 32, int(rng.integers(1, 9))))[::-1]
    return ("explicit", tuple(float(x) for x in head))


def _step_weight_spec(rng, total):
    """StepWeight with 1-8 breakpoints inside [0, total)."""
    k = int(rng.integers(1, 9))
    cuts = np.sort(rng.uniform(0.02, 0.98, k)) * total
    lengths = np.diff(np.concatenate(([0.0], cuts)))
    levels = np.sort(rng.uniform(0.25, 4.0, k + 1))[::-1]
    pieces = [(float(ln), float(lv)) for ln, lv in zip(lengths, levels)
              if ln > 0.0]
    pieces.append((math.inf, float(levels[-1])))
    return ("step", tuple(pieces))


def _values(rng, n, dyadic):
    """Magnitudes stratified over [0.05, 4] (one uniform draw per n-th of
    the range, then shuffled) with random signs.  Stratifying keeps the
    sorted element, and so the level blocks that set the cost of a dual op,
    close to the same shape for every seed.  A dyadic draw snaps to
    multiples of 1/16, so ties merge when the element is rearranged."""
    u = (np.arange(n) + rng.random(n)) / n
    mags = (np.ceil(u * 64.0) / 16.0 if dyadic else 0.05 + 3.95 * u)
    mags = rng.permutation(mags)
    signs = np.where(rng.random(n) < 0.2, -1.0, 1.0)
    return mags * signs


# ---------------------------------------------------------------------------
# large-n

LARGE_COMBOS = [(kind, setting)
                for kind in ("luxemburg", "amemiya", "k_interval", "level",
                             "dual_luxemburg", "dual_orlicz")
                for setting in ("sequence", "step")]
ALL_FAMILIES = ("power", "exp", "log", "flat_zero", "tabulated")
N_FAMILIES = ("power", "exp", "log", "flat_zero")


def _log10_range(kind, setting, family):
    """Range of log10(n) per op class.

    Ops that evaluate a NumericConjugate (FlatZeroOrlicz duals and K(f))
    run a scalar bisection per element, and dual ops on step functions redo
    a Python-loop level decomposition per solver step (1-2 s at n = 10^3,
    10-20 s at n = 10^4 on a 2-core Intel Xeon virtual machine); their n is capped so a single
    op stays well inside one run.
    """
    dual = kind.startswith("dual_")
    if family == "flat_zero" and kind == "k_interval":
        return 0.3, 0.8
    if family == "flat_zero" and dual:
        return (1.0, 2.0) if setting == "sequence" else (0.3, 1.2)
    if dual and setting == "step":
        return 2.0, 3.0
    return 3.0, 4.0


def large_n_slot(olk, seed, j):
    combo = j % len(LARGE_COMBOS)
    turn = j // len(LARGE_COMBOS)
    kind, setting = LARGE_COMBOS[combo]
    families = (ALL_FAMILIES if kind in ("luxemburg", "amemiya")
                else N_FAMILIES)
    family = families[(turn + combo) % len(families)]
    lo, hi = _log10_range(kind, setting, family)
    u = (0.5 + turn * GOLDEN + combo * 0.3819) % 1.0
    n = max(2, int(round(10.0 ** (lo + (hi - lo) * u))))
    dyadic = (turn + combo) % 2 == 0

    # the slot fixes the shape (Orlicz parameters, the weight, the total
    # measure of a step function); the seed draws the element's values
    shape = np.random.default_rng([j])
    phi_spec = _phi_spec(shape, family)
    rng = np.random.default_rng([seed, j])
    values = _values(rng, n, dyadic)
    if setting == "sequence":
        measures = None
        weight_spec = _seq_weight_spec(shape)
        element = olk.FiniteSequence(tuple(values.tolist()))
    else:
        u = rng.permutation((np.arange(n) + rng.random(n)) / n)
        measures = np.ceil(u * 32.0) / 16.0 if dyadic else 0.01 + 0.99 * u
        weight_spec = _step_weight_spec(shape, 0.5 * n)
        element = olk.StepFunction(tuple(zip(values.tolist(),
                                             measures.tolist())))
    phi = make_phi(olk, phi_spec)
    weight = make_weight(olk, weight_spec)
    ref = {"phi": phi_spec, "weight": weight_spec, "values": values,
           "measures": measures}
    if kind == "luxemburg":
        return Op(kind, olk.luxemburg_norm, (phi, weight, element), n=n,
                  ref=ref)
    if kind == "amemiya":
        return Op(kind, olk.orlicz_norm_amemiya, (phi, weight, element),
                  n=n, ref=ref)
    if kind == "k_interval":
        return Op(kind, olk.k_interval, (phi, weight, element), n=n,
                  ref=ref)
    if kind == "level":
        ref["phi"] = None
        fn = level_op(olk, setting)
        return Op(kind, fn, (element, weight), n=n, ref=ref)
    # the dual modular runs on the conjugate, as the dualnorm command does
    ref["dual"] = True
    fn = (olk.dual_luxemburg_norm if kind == "dual_luxemburg"
          else olk.dual_orlicz_norm)
    return Op(kind, fn, (phi.conjugate(), weight, element), n=n, ref=ref)


def level_op(olk, setting):
    if setting == "sequence":
        def level_of_sequence(h, w):
            return olk.level_sequence(h.rearranged(), w)
        return level_of_sequence

    def level_of_step(h, w):
        return olk.level_function(h.rearranged(), w)
    return level_of_step


# ---------------------------------------------------------------------------
# profiles

PROFILE_KINDS = ("rho", "luxemburg", "amemiya", "theta", "remainder")
PROFILE_ELEMS = ("log_tail", "band", "log_seq_tail", "power_seq_tail")
PROFILE_PHIS = ("power", "exp", "log")


def _profile_ok(kind, elem, family):
    """The remainder of a band restriction is left out: it is another
    band wrapper around the same quadrature and costs 2-3 s per norm."""
    return not (kind == "remainder" and elem == "band")


PROFILE_PLAN = [(k, e, p)
                for i in range(len(PROFILE_KINDS) * len(PROFILE_ELEMS)
                               * len(PROFILE_PHIS))
                for k, e, p in [(PROFILE_KINDS[i % 5],
                                 PROFILE_ELEMS[(i // 5 + i) % 4],
                                 PROFILE_PHIS[(i // 20 + i) % 3])]
                if _profile_ok(k, e, p)]


def profiles_slot(olk, seed, j):
    kind, elem, family = PROFILE_PLAN[j % len(PROFILE_PLAN)]
    rng = np.random.default_rng([seed, j])
    phi_spec = _phi_spec(rng, family)
    beta = float(_dyadic(rng, 0, 8))
    if elem in ("log_tail", "band"):
        weight_spec = (("power", beta) if j % 2 else
                       ("step", ((float(rng.uniform(0.2, 2.0)), 2.0),
                                 (math.inf, 1.0))))
    elif elem == "log_seq_tail":
        weight_spec = ("harmonic",)
    else:
        weight_spec = ("power_seq", beta) if j % 2 else ("harmonic",)
    w_beta = weight_spec[1] if weight_spec[0] == "power" else 0.0
    if elem == "log_tail":
        # ExpOrlicz keeps the modular finite only below a / (1 - beta) = 1
        top = 0.6 * (1.0 - w_beta) if family == "exp" else 1.5
        prof = ("log_tail", float(rng.uniform(0.3, 1.0)) * top)
    elif elem == "band":
        if rng.random() < 0.5:
            base = ("log_tail", float(rng.uniform(0.3, 1.5)))
        else:
            base = ("power_tail", float(rng.uniform(0.5, 2.0)),
                    float(rng.uniform(0.3, 1.5)))
        prof = ("band", base, float(rng.uniform(0.05, 0.3)),
                float(rng.uniform(1.0, 4.0)))
    elif elem == "log_seq_tail":
        prof = ("log_seq_tail", float(rng.uniform(0.2, 1.5)))
    else:
        prof = ("power_seq_tail", float(rng.uniform(0.75, 1.0)),
                float(rng.uniform(0.2, 1.5)))
    phi = make_phi(olk, phi_spec)
    weight = make_weight(olk, weight_spec)
    f = make_profile(olk, prof)
    ref = {"phi": phi_spec, "weight": weight_spec, "profile": prof}
    if kind == "rho":
        return Op(kind, olk.rho_modular, (phi, weight, f), ref=ref)
    if kind == "luxemburg":
        return Op(kind, olk.luxemburg_norm, (phi, weight, f), ref=ref)
    if kind == "amemiya":
        return Op(kind, olk.orlicz_norm_amemiya, (phi, weight, f), ref=ref)
    if kind == "theta":
        return Op(kind, olk.theta, (phi, weight, f), ref=ref)
    m = int(rng.choice([2, 3, 4, 8]))
    ref["remainder"] = m
    return Op(kind, remainder_op(olk), (phi, weight, f, m), ref=ref)


def remainder_op(olk):
    def remainder_norm(phi, w, f, m):
        return olk.luxemburg_norm(phi, w, olk.truncation_remainder(f, m))
    return remainder_norm


# ---------------------------------------------------------------------------
# verify

def verify_slot(olk, seed, j):
    s = seed * 1000 + j
    return Op("verify_suite", olk.verify_suite, (), {"seed": s},
              ref={"seed": s})


# ---------------------------------------------------------------------------
# cli-cold: small JSON inputs, n <= 64

CLI_COMMANDS = ("norm", "dualnorm", "level", "kinterval", "theta",
                "witness", "holder")


def _cli_space(rng, setting):
    family = ("power", "exp", "log")[int(rng.integers(0, 3))]
    phi = _phi_spec(rng, family)
    if setting == "sequence":
        weight = _seq_weight_spec(rng)
    else:
        weight = _step_weight_spec(rng, float(rng.uniform(4.0, 16.0)))
    return phi, weight


def phi_json(spec):
    if spec[0] == "power":
        return {"family": "power", "r": spec[1], "scale": spec[2]}
    return {"family": spec[0]}


def weight_json(spec):
    kind = spec[0]
    if kind == "step":
        return {"kind": "step",
                "pieces": [[("inf" if math.isinf(a) else a), b]
                           for a, b in spec[1]]}
    if kind == "power":
        return {"kind": "power", "beta": spec[1]}
    if kind == "harmonic":
        return {"kind": "harmonic"}
    if kind == "power_seq":
        return {"kind": "power_seq", "beta": spec[1]}
    return {"kind": "explicit", "head": list(spec[1])}


def element_json(values, measures):
    if measures is None:
        return {"kind": "sequence", "entries": values.tolist()}
    return {"kind": "step",
            "atoms": [[float(v), float(m)] for v, m in zip(values, measures)],
            "gamma": "inf"}


def cli_slot(seed, j):
    """Plain-data description of one CLI op: argv pieces and JSON inputs."""
    command = CLI_COMMANDS[j % len(CLI_COMMANDS)]
    rng = np.random.default_rng([seed, j])
    setting = "sequence" if (j // len(CLI_COMMANDS)) % 2 else "function"
    if command == "theta":
        setting = "function"
    phi, weight = _cli_space(rng, setting)
    if command == "theta":
        phi, weight = ("exp",), ("step", ((1.0, 2.0), (math.inf, 1.0)))
    n = int(rng.integers(8, 65))
    dyadic = j % 2 == 0
    values = _values(rng, n, dyadic)
    measures = (None if setting == "sequence" else
                (_dyadic(rng, 1, 32, n) if dyadic
                 else rng.uniform(0.01, 1.0, n)))
    desc = {"command": command, "phi": phi, "weight": weight,
            "setting": setting, "values": values, "measures": measures}
    if command == "theta":
        desc["profile"] = ("log_tail", float(rng.uniform(0.2, 0.6)))
    if command == "holder":
        desc["against"] = _values(rng, n, dyadic)
    if command == "witness":
        desc["s"] = float(rng.choice([0.25, 0.5, 0.75]))
        desc["u"] = float(_dyadic(rng, 8, 32))
    return desc
