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

Parametric profiles are integrated by adaptive quadrature, through the
public scalar-safe phi.value and phi.young, after a log substitution, once
`_threshold` has found the integral convergent from the growth types of
psi, the weight (its `beta`) and f* at each end (its `ends`); the same
rule gives theta(f) = inf{lam : modular(f / lam) < inf} in closed form.
Their norms are solved on f / s, with s a representative value of f, as
finite norms are on the layout divided by its largest value.

SciPy is imported inside the quadrature and the dual-sup oracle only, so
work on finite elements loads NumPy alone.
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

_SEQ_HEAD = 200_000

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
# quadrature for parametric profiles

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


def _profile_modular(psi, w, profile):
    from scipy import integrate

    def integrand(x):
        if x > 700.0:
            return 0.0
        t = math.exp(x)
        if t == 0.0:
            return 0.0
        r = float(profile.rearranged_value(t))
        if not math.isfinite(r):
            return 0.0
        return float(psi(r)) * w.value(t) * t

    supp = profile.support_measure
    top = math.inf if math.isinf(supp) else math.log(supp)
    features = sorted({0.0} | {math.log(b) for b in (*w.breakpoints(),
                                                      *profile.breakpoints())
                               if b > 0.0})
    bounds = [-math.inf] + [x for x in features if x < top] + [top]
    total = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        piece, _ = integrate.quad(integrand, lo, hi, epsabs=1e-11,
                                  epsrel=1e-9, limit=400)
        total += piece
    return total


def _seq_profile_modular(psi, w, profile):
    from scipy import integrate
    idx = np.arange(1, _SEQ_HEAD + 1)
    with np.errstate(over="ignore"):
        terms = psi(profile.value(idx)) * w.head(_SEQ_HEAD)
    head = float(np.sum(terms))
    if not math.isfinite(head):
        return math.inf

    def term(y):
        if y > 700.0:
            return 0.0
        x = math.exp(y)
        return float(psi(float(profile.value(x))) * w.value(x) * x)

    tail, _ = integrate.quad(term, math.log(_SEQ_HEAD + 0.5), math.inf,
                             epsabs=1e-12, epsrel=1e-9, limit=200)
    return head + tail


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
    return _parametric_modular(phi.value, phi.growth, weight, f)


def _parametric_modular(psi, growth, weight, f):
    """The modular of a parametric profile f, checked by `_finite_layout`,
    under psi of the growth types growth, public and scalar-safe."""
    if _threshold(growth, weight, f) >= 1.0:
        return math.inf
    if f.setting == "function":
        return _profile_modular(psi, weight, f)
    return _seq_profile_modular(psi, weight, f)


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
    phi._value and phi._young.  A profile is rebuilt by f.scaled(c / scale)
    at each step, with scale a representative value of f, so its solves
    too start near the answer at any magnitude; its quadrature calls the
    public, scalar-safe phi.value and phi.young.
    """
    if layout is None:
        scale = _profile_scale(f)

        def at(psi, growth):
            return lambda c: _parametric_modular(psi, growth, weight,
                                                 f.scaled(c / scale))
        return (at(phi.value, phi.growth),
                at(phi.young, phi.young_growth), scale)
    finite_at, scale = _unit_scalings(layout.values, layout.w_masses)
    value, young = phi._value, phi._young
    return (lambda c: finite_at(value, c), lambda c: finite_at(young, c),
            scale)


def luxemburg_norm(phi, weight, f, *, rel_tol=1e-10):
    """Gauge norm inf{eps : modular(f / eps) <= 1}."""
    value_at, _, scale = _scalings(phi, weight, f, _finite_layout(weight, f))
    if scale == 0.0:
        return 0.0
    try:
        return scale * solvers.gauge_norm(value_at, rel_tol=rel_tol)
    except UndecidedError:
        raise
    except ConvergenceError as exc:
        raise NotInSpaceError(
            "no tested scaling has modular <= 1") from exc


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
        return scale * slope * _parametric_modular(
            lambda t: t, phi.growth, weight, f.scaled(1.0 / scale))
    if math.isinf(value):
        raise NotInSpaceError("no tested scaling has a finite modular")
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
