"""Modulars and norms on Orlicz-Lorentz function and sequence spaces.

The modular of an element f against an Orlicz function phi and a decreasing
weight w integrates phi(f*) w, with f* the decreasing rearrangement; sequence
elements use sums.  Two norms are derived from it:

* the Luxemburg (gauge) norm   inf{eps : modular(f / eps) <= 1}
* the Orlicz norm, computed through the Amemiya form
  inf_k (1 + modular(k f)) / k

The right derivative of the Amemiya objective in k is (Y(k) - 1) / k^2,
with Y(k) the Young side, the modular of k f under t p(t) - phi(t) =
phi*(p(t)).  Y does not decrease, so the infimum is attained on the compact
interval K(f) = [k_lower, k_upper] where Y crosses 1 (Hudzik & Maligranda,
Indag. Math. 2000); `orlicz_norm_amemiya` finds one such k as a root of Y,
and `k_interval` locates both ends, as roots of the same Y, by two solves
that share their probes.  For a TabulatedOrlicz on a finite element Y is a
step function of k, and its crossing of 1 is found exactly, among the k
where one value meets one knot.

Finite elements evaluate exactly as weighted sums.  Each norm lays a finite
element out once, by `rearrange.finite_layout`: the decreasing values of
f* split at the weight's breakpoints, or a sequence's runs of equal
entries, with the weight mass of each piece.  It divides the values by the
largest one and solves a scalar problem on those arrays: the modular of
c f is sum phi(c v_i) m_i, so no element is rebuilt inside a solver loop,
and norms come back multiplied by the divisor, which keeps every solve
inside its bracket at any magnitude.  The values were validated when the
element was built and the scalings stay finite, so each probe calls the
Orlicz function's bare kernel (phi._value, phi._young) under
_finite_modular's errstate, with no revalidation.

A parametric profile is laid out the same way, once per solve, on fixed
double-exponential nodes in x = log t (y = log i for a sequence past an
exact head): the log of f* and of the weight mass at each node, never
forming e^x, so the modular of c f is sum exp(log phi(c r_k) + l_k) through
the Orlicz function's log kernels, with no cut at either end.  It is +inf
exactly where c theta(f) >= 1, with theta(f) = inf{lam : modular(f / lam)
< inf} read in closed form by `_threshold` from the growth types of phi,
the weight (its `beta`) and f* at each end (its `ends`).  Where the nodes
cannot vouch for a sum, at a final bracket end of a solve (the two levels
of the step disagree, the outermost terms are not negligible, or a kink of
phi lies past the exact head of a sequence), the norm raises
UndecidedError rather than return it.  Profile norms are solved on f / s,
with s a representative value of f, as finite norms are on the layout
divided by its largest value.

SciPy is imported inside the two SLSQP oracles only, so every modular and
norm loads NumPy alone.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import solvers
from .errors import (ConvergenceError, DomainError, NotInSpaceError,
                     UndecidedError)
from .orlicz import TabulatedOrlicz
from .profiles import BandComplement, BandRestriction, ShiftedSeqTail
from .rearrange import (FiniteSequence, StepFunction, _check_weight,
                        element_setting, finite_layout)

__all__ = [
    "KInterval", "rho_modular", "luxemburg_norm", "orlicz_norm_amemiya",
    "k_interval", "orlicz_norm_dual_sup_oracle", "truncate",
    "truncation_remainder", "theta", "amemiya_pairing_report",
]

# The two SLSQP oracles solve dense programs whose cost grows about as the
# cube of the layout's piece count.  On tie-free inputs with phi(t) = t^2/2
# (2-core Xeon VM, SciPy 1.17) one solve took 0.07-0.55 s at 100 pieces,
# 0.4-3.7 s at 200, 0.6-4.7 s at 256 and 2.9-22 s at 400; every caller in
# this package, its tests and demos stays at 8 pieces or fewer.
ORACLE_MAX_PIECES = 256


def _check_oracle_size(layout):
    """DomainError when the layout has more pieces than an oracle takes."""
    n = layout.values.size
    if n > ORACLE_MAX_PIECES:
        raise DomainError(f"the oracle takes at most {ORACLE_MAX_PIECES} "
                          f"layout pieces, got {n}")


# ---------------------------------------------------------------------------
# exact modulars for finite data

def _finite_modular(psi, values, masses):
    """sum psi(values) masses, +inf when it overflows; psi may be an Orlicz
    kernel, which runs here under the errstate the public methods give."""
    if values.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        terms = psi(values) * masses
    total = float(np.sum(terms))
    return total if math.isfinite(total) else math.inf


# ---------------------------------------------------------------------------
# parametric profiles: the finiteness threshold and the DE layout

def _power_law(excess, b):
    """0 when t^-(1 + excess) log(t)^b is integrable at infinity, else inf."""
    return 0.0 if excess > 0.0 or (excess == 0.0 and b < -1.0) else math.inf


def _head_threshold(shape, a, kind, beta):
    """The end t -> 0, where the head of f* meets psi at infinity."""
    if shape == "bounded":
        return 0.0
    if shape == "log" and kind == "exp":
        return a / (1.0 - beta)
    if shape == "log" and isinstance(kind, tuple):
        return 0.0
    if isinstance(shape, float) and isinstance(kind, tuple):
        return _power_law(1.0 - shape * kind[0] - beta, kind[1])
    if (shape == "log" or isinstance(shape, float)) and kind in ("exp", "cap"):
        return math.inf
    raise UndecidedError(f"no convergence rule for the head {shape!r} "
                         f"under {kind!r}")


def _tail_threshold(shape, a, kind, beta):
    """The end t, i -> inf, where the tail of f* meets psi at 0."""
    if shape == "finite" or kind == "zero":
        return 0.0
    if shape == "inv_log" and kind == "flat":
        return a * (1.0 - beta)
    if shape == "inv_log" and isinstance(kind, tuple):
        return _power_law(kind[0] - 1.0, kind[1]) if beta == 1.0 else math.inf
    if isinstance(shape, float) and kind == "flat":
        return 0.0
    if isinstance(shape, float) and isinstance(kind, tuple):
        return _power_law(shape * kind[0] + beta - 1.0, kind[1])
    raise UndecidedError(f"no convergence rule for the tail {shape!r} "
                         f"under {kind!r}")


def _threshold(growth, weight, f):
    """inf{lam > 0 : the modular of f / lam under psi converges}, with
    growth the types of psi at 0 and at infinity: 0 when it converges at
    every scaling, inf when at none.  Critical cases diverge; a pairing
    outside these rules or without f.ends or weight.beta is undecided."""
    try:
        (head, a_head), (tail, a_tail) = f.ends
        beta = weight.beta
    except AttributeError as exc:
        raise UndecidedError(f"no growth type: {exc}") from None
    at_zero, at_infinity = growth
    return max(_head_threshold(head, a_head, at_infinity, beta),
               _tail_threshold(tail, a_tail, at_zero, beta))


# The nodes of a profile are its layout, as the pieces of a finite element
# are: double-exponential (DE) trapezoid nodes in x = log t (Takahasi & Mori,
# Publ. RIMS 9, 1974; Mori & Sugihara, J. Comput. Appl. Math. 127, 2001),
# tanh-sinh on each finite piece and exp-sinh on each half-line.  The step
# in s is _DE_STEP; the nodes of every other step are the level of twice
# that step, against which each solve checks its result.  A half-line
# reaches e^(pi/2 sinh 6) ~ e^317 from its end, for the algebraic decay in
# y = log i of a tail such as a / log i, and _REACH_TOL bounds the term of
# its outermost node.
_DE_STEP = 1.0 / 64.0
_HALF_LINE_S = np.arange(-288, 385) * _DE_STEP      # s in [-4.5, 6]
_PIECE_S = np.arange(-224, 225) * _DE_STEP          # s in [-3.5, 3.5]
_DE_TOL = 1e-10
_REACH_TOL = 1e-13
# a sequence is summed exactly over its first _SEQ_EXACT indices, or up to
# where its weight turns smooth or past a kink of psi below _SEQ_KINK_CAP;
# the rest is an exp-sinh integral in y = log i plus Gregory's end terms
# through the fourth difference (error ~ g^(5) / 60, here below 1e-14 of
# the tail)
_SEQ_EXACT = 256
_SEQ_KINK_CAP = 2**16
_GREGORY = np.array([965.0, -462.0, 336.0, -146.0, 27.0]) / 1440.0


def _de_block(s, x, log_jacobian, reaching):
    """(x, log weight, weight at twice the step, outermost-node mask) of
    one DE block on the grid s, whose first point lies on the grid of twice
    the step; the mask marks the last node of a block reaching to infinity."""
    coarse = np.where(np.arange(s.size) % 2 == 0, 2.0, 0.0)
    outer = np.zeros(s.size, dtype=bool)
    outer[-1] = reaching
    return x, math.log(_DE_STEP) + log_jacobian, coarse, outer


def _half_line(x0, side):
    """exp-sinh nodes x0 + side exp(pi/2 sinh s)."""
    s = _HALF_LINE_S
    e = 0.5 * math.pi * np.sinh(s)
    return _de_block(s, x0 + side * np.exp(e),
                     np.log(0.5 * math.pi * np.cosh(s)) + e, True)


def _finite_piece(a, b):
    """tanh-sinh nodes on [a, b]."""
    s = _PIECE_S
    u = 0.5 * math.pi * np.sinh(s)
    half = 0.5 * (b - a)
    log_cosh_u = np.abs(u) + np.log1p(np.exp(-2.0 * np.abs(u))) - math.log(2)
    return _de_block(s, 0.5 * (a + b) + half * np.tanh(u),
                     math.log(0.5 * math.pi * half) + np.log(np.cosh(s))
                     - 2.0 * log_cosh_u, False)


def _line_blocks(bounds, top):
    """DE blocks over (-inf, top], split at the sorted bounds below top."""
    if not bounds:
        return [_half_line(top, -1.0)]
    blocks = [_half_line(bounds[0], -1.0)]
    blocks += [_finite_piece(a, b) for a, b in zip(bounds, bounds[1:])]
    if math.isinf(top):
        return blocks + [_half_line(bounds[-1], 1.0)]
    return blocks + [_finite_piece(bounds[-1], top)]


@dataclass(frozen=True)
class _Nodes:
    """log f* and log weight mass at each node, with the node's sign (the
    Gregory end terms of a sequence are signed), its weight at the level of
    twice the step, the outermost node of each half-line, and whether every
    kink of psi is split; sum sign exp(log psi(c r) + log_mass) is the
    modular of c f."""

    log_r: np.ndarray
    log_mass: np.ndarray
    sign: np.ndarray
    coarse: np.ndarray
    outer: np.ndarray
    split: bool = True


def _join(blocks, log_r, log_mass_of):
    """(log f*, log mass, weight at twice the step, outermost mask) over
    the concatenated DE blocks."""
    x, log_w, coarse, outer = (np.concatenate(a) for a in zip(*blocks))
    return log_r(x), log_w + log_mass_of(x), coarse, outer


def _function_nodes(weight, f, cuts):
    supp = f.support_measure
    top = math.log(supp) if supp < math.inf else math.inf
    features = {0.0, *cuts, *f._log_kinks(),
                *(math.log(b) for b in weight.breakpoints() if b > 0.0)}
    bounds = sorted(x for x in features if -math.inf < x < top)
    log_r, log_mass, coarse, outer = _join(
        _line_blocks(bounds, top), f._log_star, weight._log_mass)
    return _Nodes(log_r, log_mass, np.ones_like(log_r), coarse, outer)


def _sequence_nodes(weight, f, head, split):
    """Exact terms i < head, Gregory's end terms at head .. head + 4 and the
    exp-sinh integral over [head, inf) in y = log i."""
    idx = np.arange(1.0, head + 5.0)
    mu = np.ones(idx.size)
    mu[head - 1:] = _GREGORY
    with np.errstate(divide="ignore"):
        head_r = np.log(f.value(idx))
        head_mass = np.log(weight.head(idx.size) * np.abs(mu))
    tail_r, tail_mass, coarse, outer = _join(
        [_half_line(math.log(head), 1.0)], f._log_star, weight._log_mass)
    sign = np.sign(mu)
    return _Nodes(np.concatenate((head_r, tail_r)),
                  np.concatenate((head_mass, tail_mass)),
                  np.concatenate((sign, np.ones_like(tail_r))),
                  np.concatenate((sign, coarse)),
                  np.concatenate((np.zeros(idx.size, dtype=bool), outer)),
                  split)


class _ProfileLayout:
    """The DE nodes of a parametric profile f against a weight, for the
    modulars of c f / scale, with scale a representative value of f.

    For a smooth phi the nodes are built once.  Where phi or its Young side
    has kinks (`phi._kinks`), the pieces are split where c f* / scale
    crosses each: at its level measure for a function, and for a sequence
    by summing exactly up to that index, so those nodes depend on c.
    """

    def __init__(self, phi, weight, f):
        self.kinks, self.weight, self.f = phi._kinks, weight, f
        self.scale = _profile_scale(f)
        self.log_scale = math.log(self.scale)
        self._fixed = None

    def nodes(self, log_c):
        """The nodes for the multiple e^log_c of f / scale."""
        if self._fixed is not None:
            return self._fixed
        levels = [k * self.scale * math.exp(-log_c) for k in self.kinks]
        weight, f = self.weight, self.f
        if f.setting == "function":
            nodes = _function_nodes(weight, f,
                                    [f._log_level(lam) for lam in levels])
        else:
            head, split = max(_SEQ_EXACT, weight._smooth_from), True
            for lam in levels:
                if f.value(float(_SEQ_KINK_CAP)) > lam:
                    split = False
                else:
                    head = max(head, f.level_count(lam) + 1)
            nodes = _sequence_nodes(weight, f, head, split)
        if not levels:
            self._fixed = nodes
        return nodes


class _ProfileModular:
    """c -> the modular of c f / scale under the log kernel log_psi of
    growth types growth, on a _ProfileLayout; +inf exactly where
    c theta(f / scale) >= 1, with theta from `_threshold`, read once.

    Each probe keeps its sum at both levels and its outermost terms, so
    `check` can confirm the ends of a solve's final bracket."""

    def __init__(self, layout, log_psi, growth):
        self.layout, self.log_psi, self.growth = layout, log_psi, growth
        self.seen = {}
        self._theta = None

    def __call__(self, c):
        layout = self.layout
        if self._theta is None:
            self._theta = _threshold(self.growth, layout.weight,
                                     layout.f) / layout.scale
        if c * self._theta >= 1.0:
            return math.inf
        log_c = math.log(c)
        nodes = layout.nodes(log_c)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.exp(self.log_psi(nodes.log_r + (log_c
                                                       - layout.log_scale))
                           + nodes.log_mass)
            fine = float(terms @ nodes.sign)
            coarse = float(terms @ nodes.coarse)
        reach = float(np.max(terms[nodes.outer], initial=0.0))
        self.seen[c] = (fine, coarse, reach, nodes.split)
        return fine if fine < math.inf else math.inf

    def check(self, c, side=0.0):
        """UndecidedError unless the nodes resolved the modular at c, and at
        the nearest probe beyond c on side (+1 above, -1 below), if any: the
        two levels agree to _DE_TOL, the outermost terms are below
        _REACH_TOL of the sum and every kink of psi was split."""
        beyond = [p for p in self.seen if (p - c) * side > 0.0]
        for p in [c] + ([min(beyond, key=lambda p: abs(p - c))]
                        if beyond else []):
            if p * self._theta >= 1.0:
                continue
            fine, coarse, reach, split = self.seen[p]
            if not (split and abs(fine - coarse) <= _DE_TOL * fine
                    and reach <= _REACH_TOL * fine):
                raise UndecidedError(
                    f"the DE nodes do not resolve the profile modular: "
                    f"{fine!r} at step {_DE_STEP}, {coarse!r} at twice "
                    f"it, outermost term {reach!r}"
                    + ("" if split else ", a kink of phi not split"))


# ---------------------------------------------------------------------------
# public modular and norms

def _finite_layout(weight, f):
    """The FiniteLayout of f*, None for a parametric profile; DomainError
    when f does not fit the weight's setting or domain."""
    if isinstance(f, (StepFunction, FiniteSequence)):
        return finite_layout(f.rearranged(), weight)
    _check_weight(element_setting(f), weight)
    if f.setting == "function" and f.support_measure > weight.gamma:
        raise DomainError("profile support exceeds the weight domain")
    return None


def rho_modular(phi, weight, f):
    """Modular of f: integral (or sum) of phi(f*) against the weight.

    Returns math.inf when the integral diverges.
    """
    layout = _finite_layout(weight, f)
    if layout is not None:
        return _finite_modular(phi._value, layout.values, layout.w_masses)
    return _profile_modular_at_one(_ProfileLayout(phi, weight, f),
                                   phi._log_value, phi.growth)


def _profile_modular_at_one(layout, log_psi, growth):
    """The checked modular of the profile itself under log_psi."""
    modular = _ProfileModular(layout, log_psi, growth)
    value = modular(layout.scale)
    modular.check(layout.scale)
    return value


def _unit_scalings(values, masses):
    """(modular_at, scale) with scale = values[0], the largest value, and
    modular_at(psi, c) = sum psi(c values / scale) masses; scale is 0 for
    an empty layout.  psi is an Orlicz kernel, such as phi._value.

    Norms of the layout are scale times norms of the layout divided by
    scale, whose largest value is 1, so every solve starts inside its
    bracket at any magnitude, and each solver step is one weighted sum.
    """
    if values.size == 0:
        return None, 0.0
    scale = float(values[0])
    unit = values / scale
    return (lambda psi, c: _finite_modular(psi, c * unit, masses)), scale


def _profile_scale(f):
    """A representative value of a profile: f*(t0) at t0 = 1, or at half
    the support when that is shorter; the first entry of a sequence."""
    if f.setting == "sequence":
        return float(f.value(1.0))
    return float(f.rearranged_value(min(1.0, 0.5 * f.support_measure)))


def _scalings(phi, weight, f, layout):
    """(value_at, young_at, scale): the modulars of c f / scale under phi
    and under its Young side t p(t) - phi(t), as functions of c, with scale
    0 for the zero element; layout is _finite_layout(weight, f).

    A finite element is laid out once and probed through the kernels
    phi._value and phi._young.  A profile is laid out once on its DE nodes,
    with scale a representative value of f, so its solves too start near
    the answer at any magnitude, and probed through the log kernels
    phi._log_value and phi._log_young; each is a _ProfileModular, whose
    final bracket the norms confirm by its `check`.
    """
    if layout is None:
        nodes = _ProfileLayout(phi, weight, f)
        return (_ProfileModular(nodes, phi._log_value, phi.growth),
                _ProfileModular(nodes, phi._log_young, phi.young_growth),
                nodes.scale)
    finite_at, scale = _unit_scalings(layout.values, layout.w_masses)
    value, young = phi._value, phi._young
    return (lambda c: finite_at(value, c), lambda c: finite_at(young, c),
            scale)


def luxemburg_norm(phi, weight, f, *, rel_tol=1e-10):
    """Gauge norm inf{eps : modular(f / eps) <= 1}."""
    layout = _finite_layout(weight, f)
    value_at, _, scale = _scalings(phi, weight, f, layout)
    if scale == 0.0:
        return 0.0
    try:
        eps = solvers.gauge_norm(value_at, rel_tol=rel_tol)
    except UndecidedError:
        raise
    except ConvergenceError as exc:
        raise NotInSpaceError(
            "no tested scaling has modular <= 1") from exc
    if layout is None and eps > 0.0:
        # the modular is <= 1 at c = 1 / eps and > 1 at the next probe above
        value_at.check(1.0 / eps, 1.0)
    return scale * eps


def orlicz_norm_amemiya(phi, weight, f, *, rel_tol=1e-10):
    """Orlicz norm through the Amemiya form inf_k (1 + modular(k f)) / k.

    The infimum is taken where the Young side, the modular of k f under
    t p(t) - phi(t), crosses 1.  For a TabulatedOrlicz with final slope b
    that side stays bounded; when it stays below 1 the objective decreases
    in k for ever and the norm is its limit b * integral (or sum) of f* w,
    computed exactly, not probed at a large k.  On a finite element that
    side is a step function of k, and `_tabulated_amemiya` finds the k
    where it crosses 1 exactly.
    """
    layout = _finite_layout(weight, f)
    if layout is not None and isinstance(phi, TabulatedOrlicz):
        return _tabulated_amemiya(phi, layout.values, layout.w_masses)
    value_at, young_at, scale = _scalings(phi, weight, f, layout)
    if scale == 0.0:
        return 0.0
    try:
        value = solvers.amemiya_norm(value_at, young_at, rel_tol=rel_tol)
    except UndecidedError:
        raise
    except ConvergenceError:
        # the Young side stayed below 1 up to the root-finder's cap; a
        # finite element under a TabulatedOrlicz was solved exactly above
        if not isinstance(phi, TabulatedOrlicz):
            raise
        slope = float(phi.derivative(phi.knots[-1][0]))
        # the identity grows as phi does here, as (1, 0) at both ends
        return slope * _profile_modular_at_one(
            value_at.layout, lambda log_u: log_u, phi.growth)
    if math.isinf(value):
        raise NotInSpaceError("no tested scaling has a finite modular")
    if layout is None:
        # the objective was read at the root's satisfying end k, and maybe
        # at the end below it; the Young side is >= 1 at k, < 1 below
        for k in value_at.seen:
            value_at.check(k)
        young_at.check(max(value_at.seen), -1.0)
    return scale * value


def _tabulated_amemiya(phi, values, masses):
    """The Amemiya norm of the layout (values, masses) under a
    TabulatedOrlicz, with one modular evaluation.

    On [t_j, t_{j+1}) the Young side t p(t) - phi(t) is the constant
    b_j = s_j t_j - y_j, with s_j the slope there (the last slope beyond
    the last knot), so Y(k) = sum b_{j(k u_i)} m_i, with u the values
    divided by the largest one, is a right-continuous step function that
    jumps by (b_j - b_{j-1}) m_i at k = t_j / u_i.  The objective falls
    while Y < 1 and does not fall after, so its minimum sits at the first
    crossing where the running sum of the sorted jumps reaches 1.  When
    no finite crossing reaches 1 the objective falls for ever, to its
    limit b sum v m, with b the final slope.
    """
    if values.size == 0:
        return 0.0
    scale = float(values[0])
    unit = values / scale
    ts, ys, slopes = phi._ts, phi._ys, phi._slopes
    young = slopes[np.minimum(np.arange(ts.size), slopes.size - 1)] * ts - ys
    with np.errstate(over="ignore"):
        crossings = (ts[1:, None] / unit).ravel()
    jumps = (np.diff(young)[:, None] * masses).ravel()
    # for each knot the crossings rise along the decreasing values, so the
    # stable sort merges ts.size - 1 sorted runs
    order = np.argsort(crossings, kind="stable")
    reached = np.flatnonzero(np.cumsum(jumps[order]) >= 1.0)
    k = float(crossings[order[reached[0]]]) if reached.size else math.inf
    if math.isinf(k):
        return scale * float(slopes[-1]) * float(np.sum(unit * masses))
    return scale * (1.0 + _finite_modular(phi._value, k * unit, masses)) / k


@dataclass(frozen=True)
class KInterval:
    """Scaling constants where the Amemiya objective attains the norm."""

    lower: float
    upper: float
    attained_norm: float


def k_interval(phi, weight, f):
    """K(f) = [k_lower, k_upper] for an N-function: where the Young side
    Y(k), the modular of k f under t p(t) - phi(t), turns >= 1 and > 1,
    each located by the root-finder on the layout divided by its largest
    value.

    The two solves walk the same probes until one meets a k where Y is
    exactly 1, so its values are kept by k and the strict solve
    evaluates it only where its path leaves the first one's."""
    if not phi.is_n_function:
        raise DomainError("K(f) requires an N-function")
    layout = _finite_layout(weight, f)
    if layout is None:
        raise DomainError("K(f) is computed for finite elements")
    modular_at, scale = _unit_scalings(layout.values, layout.w_masses)
    if scale == 0.0:
        raise DomainError("K(f) is undefined for the zero element")
    seen = {}

    def log_young_side(k):
        if k not in seen:
            total = modular_at(phi._young, k)
            seen[k] = math.log(total) if total > 0.0 else -math.inf
        return seen[k]

    _, lower = solvers.increasing_root(log_young_side, rel_tol=1e-13)
    _, upper = solvers.increasing_root(log_young_side, rel_tol=1e-13,
                                       strict=True)
    mid = 0.5 * (lower + upper)
    modular = modular_at(phi._value, mid)
    return KInterval(lower / scale, upper / scale,
                     scale * (1.0 + modular) / mid)


def amemiya_pairing_report(phi, weight, f):
    """Diagnostics tying the Orlicz norm to the pairing with p(k f*).

    Returns the attained scaling k, the weighted pairing
    sum f* p(k f*) w  (equal to the norm), and the Amemiya values.
    """
    ki = k_interval(phi, weight, f)
    k = 0.5 * (ki.lower + ki.upper)
    layout = _finite_layout(weight, f)
    values = layout.values
    slopes = phi.derivative(k * values)
    weighted = float(np.sum(values * slopes * layout.w_masses))
    modular = rho_modular(phi, weight, f.scaled(k))
    return {
        "k": k,
        "weighted_pairing": weighted,
        "amemiya_at_k": (1.0 + modular) / k,
        "orlicz_norm": orlicz_norm_amemiya(phi, weight, f),
        "attained_norm": ki.attained_norm,
    }


# ---------------------------------------------------------------------------
# independent supremum oracle for the Orlicz norm (sequence setting)

def _ball_boundary_scale(conj, w_head, g):
    """Largest beta with sum conj(beta g) w <= 1."""
    def inside(beta):
        total = float(np.sum(conj.value(beta * g) * w_head))
        return total if math.isfinite(total) else math.inf

    if inside(1.0) <= 1.0:
        start = 1.0
        while inside(start * 2.0) <= 1.0 and start < 2.0**40:
            start *= 2.0
        lo, hi = start, start * 2.0
    else:
        hi = 1.0
        while inside(hi) > 1.0:
            hi /= 2.0
        lo, hi = hi, hi * 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if inside(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def orlicz_norm_dual_sup_oracle(phi, weight, f):
    """Lower-bound estimate of the Orlicz norm by direct maximization of
    sum f*(i) g(i) w(i) over decreasing g with conjugate modular at most 1.

    The program is convex, so one SLSQP solve started from the constant
    sequence on the ball boundary finds its maximum.  The solver's point is
    repaired to a nonincreasing one and rescaled onto the ball, so the value
    returned is attained by a feasible g.  Kept independent of the
    scaling-constant theory so the two routes check each other.

    It has one unknown per run of equal entries of f*, a piece of the
    layout.  That leaves the maximum unchanged: replacing g on a run by its
    w-weighted mean keeps the objective, does not raise the conjugate
    modular (Jensen) and keeps g nonincreasing.

    Raises DomainError above ORACLE_MAX_PIECES pieces, before SciPy loads.
    """
    if not isinstance(f, FiniteSequence):
        raise DomainError("the supremum oracle works on finite sequences")
    layout = finite_layout(f.rearranged(), weight)
    _check_oracle_size(layout)
    values, w_head = layout.values, layout.w_masses
    n = values.size
    if n == 0:
        return 0.0
    from scipy import optimize
    coeffs = values * w_head
    conj = phi.conjugate()
    steps = np.eye(n) - np.eye(n, k=1)

    def modular_slack(x):
        return 1.0 - float(np.sum(conj.value(np.maximum(x, 0.0)) * w_head))

    def modular_jac(x):
        return -(conj.derivative(np.maximum(x, 0.0)) * w_head)

    start = _ball_boundary_scale(conj, w_head, np.ones(n)) * np.ones(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = optimize.minimize(
            lambda x: -float(coeffs @ x), start, jac=lambda x: -coeffs,
            method="SLSQP", bounds=[(0.0, None)] * n,
            constraints=[
                {"type": "ineq", "fun": modular_slack, "jac": modular_jac},
                {"type": "ineq", "fun": lambda x: steps @ x,
                 "jac": lambda x: steps},
            ],
            options={"maxiter": 300, "ftol": 1e-14})
    if not np.all(np.isfinite(res.x)):
        raise ConvergenceError("the supremum solve left the finite range")
    repaired = np.minimum.accumulate(np.maximum(res.x, 0.0))
    return float(coeffs @ (_ball_boundary_scale(conj, w_head, repaired)
                           * repaired))


# ---------------------------------------------------------------------------
# truncation and the finiteness threshold

def _check_truncation_index(n):
    if n != int(n) or n < 1:
        raise DomainError("truncation index must be an integer >= 1")
    return int(n)


def _step_band(f, n, inside):
    """The atoms of f with |value| in [1/n, n], or those outside it."""
    mags = np.abs(f._values)
    keep = ((1.0 / n <= mags) & (mags <= n)) == inside
    return StepFunction._from_arrays(f._values[keep], f._measures[keep],
                                     f.gamma)


def truncate(f, n):
    """Bounded order-continuous part of f at level n.

    Function elements keep the values inside [1/n, n]; sequences keep the
    first n positions.
    """
    n = _check_truncation_index(n)
    if isinstance(f, StepFunction):
        return _step_band(f, n, True)
    if isinstance(f, FiniteSequence):
        return FiniteSequence(f._array[:n])
    if element_setting(f) == "function":
        if n == 1:
            return StepFunction((), math.inf)
        return BandRestriction(f, 1.0 / n, float(n))
    idx = np.arange(1, n + 1)
    return FiniteSequence(tuple(float(x) for x in f.value(idx)))


def truncation_remainder(f, n):
    """f minus its truncation at level n, as an element."""
    n = _check_truncation_index(n)
    if isinstance(f, StepFunction):
        return _step_band(f, n, False)
    if isinstance(f, FiniteSequence):
        return FiniteSequence(np.concatenate((np.zeros(n), f._array[n:])))
    if element_setting(f) == "function":
        if n == 1:
            return f
        return BandComplement(f, 1.0 / n, float(n))
    return ShiftedSeqTail(f, n)


def theta(phi, weight, f):
    """Finiteness threshold inf{lam > 0 : modular(f / lam) < inf}.

    Read from the growth types by `_threshold`: a / (1 - beta) for a head
    a log(1/t) under ExpOrlicz, a (1 - beta) for a tail a / log i under
    FlatZeroOrlicz, else 0, or NotInSpaceError when no scaling converges.
    f is first checked against the weight as `rho_modular` checks it.
    """
    _finite_layout(weight, f)
    value = _threshold(phi.growth, weight, f)
    if math.isinf(value):
        raise NotInSpaceError("the modular diverges at every scaling")
    return value
