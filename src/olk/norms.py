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
and `k_interval` locates both ends independently, as roots of the
conjugate-side modular of p(k f*).

Finite elements evaluate exactly as weighted sums.  Each norm lays a finite
element out once, by `rearrange.finite_layout`: the decreasing values of
f* split at the weight's breakpoints, with the weight mass of each piece.
It divides the values by the largest one and solves a scalar problem on
those arrays: the modular of c f is sum phi(c v_i) m_i, so no element is
rebuilt inside a solver loop, and norms come back multiplied by the
divisor, which keeps every solve inside its bracket at any magnitude.

Parametric profiles are integrated by adaptive quadrature after a log
substitution, once `_threshold` has found the integral convergent from the
growth types of psi, the weight and f* at each end; the same rule gives
theta(f) = inf{lam : modular(f / lam) < inf} in closed form.  Their norms
are solved on f / s, with s a representative value of f, as finite norms
are on the layout divided by its largest value.

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
from .rearrange import (
    BandComplement, BandRestriction, ConstantSeqWeight, DecreasingProfile,
    DecreasingSeqProfile, ExplicitSeqWeight, FiniteSequence,
    HarmonicSeqWeight, LogSeqTail, LogTailProfile, PowerSeqTail,
    PowerSeqWeight, PowerTailProfile, PowerWeight, SequenceWeight,
    ShiftedSeqTail, StepFunction, StepWeight, Weight, finite_layout)

__all__ = [
    "KInterval", "rho_modular", "luxemburg_norm", "orlicz_norm_amemiya",
    "k_interval", "orlicz_norm_dual_sup_oracle", "truncate",
    "truncation_remainder", "theta", "amemiya_pairing_report",
]

_SEQ_HEAD = 200_000


# ---------------------------------------------------------------------------
# exact modulars for finite data

def _finite_modular(psi, values, masses):
    if values.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        terms = psi(values) * masses
    total = float(np.sum(terms))
    return total if math.isfinite(total) else math.inf


# ---------------------------------------------------------------------------
# quadrature for parametric profiles

def _ends(f):
    """The head (t -> 0) and the tail (t or i -> inf) of f*, each a pair
    (shape, amplitude a): "log" is a log(1/t), "inv_log" is a / log i, a
    float p is a t^-p, and "bounded" and "finite" mark a bounded head and
    a finite support."""
    f = getattr(f, "source", f)   # the rearranged view of a band wrapper
    if isinstance(f, (StepFunction, FiniteSequence, BandRestriction)):
        return ("bounded", 0.0), ("finite", 0.0)
    if isinstance(f, (BandComplement, ShiftedSeqTail)):
        return _ends(f.base)
    if isinstance(f, LogTailProfile):
        return ("log", f.amplitude), (1.0, f.amplitude)
    if isinstance(f, PowerTailProfile):
        end = (float(f.exponent), f.amplitude)
        return end, end
    if isinstance(f, PowerSeqTail):
        return ("bounded", 0.0), (float(f.exponent), f.amplitude)
    if isinstance(f, LogSeqTail):
        return ("bounded", 0.0), ("inv_log", f.amplitude)
    raise UndecidedError(f"no growth type for {type(f).__name__}")


def _beta(weight):
    """The exponent beta of a weight that is t^-beta at 0 and at infinity."""
    if isinstance(weight, (PowerWeight, PowerSeqWeight)):
        return weight.beta
    if isinstance(weight, HarmonicSeqWeight):
        return 1.0
    if isinstance(weight, (StepWeight, ConstantSeqWeight, ExplicitSeqWeight)):
        return 0.0
    raise UndecidedError(f"no growth type for {type(weight).__name__}")


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
    outside these rules raises UndecidedError."""
    (head, a_head), (tail, a_tail) = _ends(f)
    beta = _beta(weight)
    at_zero, at_infinity = growth
    return max(_head_threshold(head, a_head, at_infinity, beta),
               _tail_threshold(tail, a_tail, at_zero, beta))


def _profile_modular(psi, growth, w, profile):
    from scipy import integrate
    if w.gamma != math.inf and profile.support_measure > w.gamma:
        raise DomainError("profile support exceeds the weight domain")
    if _threshold(growth, w, profile) >= 1.0:
        return math.inf

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
    inner = getattr(profile, "source", profile)
    kink = getattr(inner, "_head", 0.0)
    features = sorted({0.0}
                      | {math.log(b) for b in w.breakpoints() if b > 0.0}
                      | ({math.log(kink)} if kink > 0.0 else set()))
    bounds = [-math.inf] + [x for x in features if x < top] + [top]
    total = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        piece, _ = integrate.quad(integrand, lo, hi, epsabs=1e-11,
                                  epsrel=1e-9, limit=400)
        total += piece
    return total


def _seq_profile_modular(psi, growth, w, profile):
    from scipy import integrate
    if _threshold(growth, w, profile) >= 1.0:
        return math.inf
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
        return float(psi(float(profile.value(x)))
                     * w.value_at_real(x) * x)

    tail, _ = integrate.quad(term, math.log(_SEQ_HEAD + 0.5), math.inf,
                             epsabs=1e-12, epsrel=1e-9, limit=200)
    return head + tail


# ---------------------------------------------------------------------------
# public modular and norms

def _finite_layout(weight, f):
    """The FiniteLayout of f*; None for a parametric profile."""
    if isinstance(f, (StepFunction, FiniteSequence)):
        return finite_layout(f.rearranged(), weight)
    return None


def rho_modular(phi, weight, f):
    """Modular of f: integral (or sum) of phi(f*) against the weight.

    Returns math.inf when the integral diverges.
    """
    return _modular(phi.value, phi.growth, weight, f)


def _modular(psi, growth, weight, f):
    """rho_modular with psi, of the growth types growth, for phi.value."""
    layout = _finite_layout(weight, f)
    if layout is not None:
        return _finite_modular(psi, layout.values, layout.w_masses)
    if isinstance(f, DecreasingProfile):
        if not isinstance(weight, Weight):
            raise DomainError("function elements need a function weight")
        return _profile_modular(psi, growth, weight, f)
    if isinstance(f, DecreasingSeqProfile):
        if not isinstance(weight, SequenceWeight):
            raise DomainError("sequence elements need a sequence weight")
        return _seq_profile_modular(psi, growth, weight, f)
    raise DomainError(f"unknown element type: {type(f).__name__}")


def _unit_scalings(values, masses):
    """(modular_at, scale) with scale = values[0], the largest value, and
    modular_at(psi, c) = sum psi(c values / scale) masses; scale is 0 for
    an empty layout.

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
    if isinstance(f, DecreasingSeqProfile):
        return float(f.value(1.0))
    return float(f.rearranged_value(min(1.0, 0.5 * f.support_measure)))


def _scalings(weight, f):
    """(modular_at, scale) with modular_at(psi, growth, c) the modular of
    c f / scale under psi, and scale 0 for the zero element.

    A finite element is laid out once; a profile is rebuilt by
    f.scaled(c / scale) at each step, with scale a representative value
    of f, so its solves too start near the answer at any magnitude.
    """
    layout = _finite_layout(weight, f)
    if layout is None:
        scale = _profile_scale(f)
        return ((lambda psi, growth, c:
                 _modular(psi, growth, weight, f.scaled(c / scale))), scale)
    finite_at, scale = _unit_scalings(layout.values, layout.w_masses)
    return (lambda psi, growth, c: finite_at(psi, c)), scale


def luxemburg_norm(phi, weight, f, *, rel_tol=1e-10):
    """Gauge norm inf{eps : modular(f / eps) <= 1}."""
    modular_at, scale = _scalings(weight, f)
    if scale == 0.0:
        return 0.0
    try:
        return scale * solvers.gauge_norm(
            lambda c: modular_at(phi.value, phi.growth, c), rel_tol=rel_tol)
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
    computed exactly, not probed at a large k.
    """
    modular_at, scale = _scalings(weight, f)
    if scale == 0.0:
        return 0.0
    try:
        value = solvers.amemiya_norm(
            lambda k: modular_at(phi.value, phi.growth, k),
            lambda k: modular_at(phi.young, phi.young_growth, k),
            rel_tol=rel_tol)
    except UndecidedError:
        raise
    except ConvergenceError:
        # the Young side stayed below 1 up to the root-finder's cap
        if not isinstance(phi, TabulatedOrlicz):
            raise
        slope = float(phi.derivative(phi.knots[-1][0]))
        # the identity grows as phi does here, as (1, 0) at both ends
        return scale * slope * modular_at(lambda t: t, phi.growth, 1.0)
    if math.isinf(value):
        raise NotInSpaceError("no tested scaling has a finite modular")
    return scale * value


@dataclass(frozen=True)
class KInterval:
    """Scaling constants where the Amemiya objective attains the norm."""

    lower: float
    upper: float
    attained_norm: float


def k_interval(phi, weight, f):
    """K(f) = [k_lower, k_upper] for an N-function: where the conjugate
    modular of p(k f*) turns >= 1 and > 1, each located by the root-finder
    on the layout divided by its largest value."""
    if not phi.is_n_function:
        raise DomainError("K(f) requires an N-function")
    layout = _finite_layout(weight, f)
    if layout is None:
        raise DomainError("K(f) is computed for finite elements")
    modular_at, scale = _unit_scalings(layout.values, layout.w_masses)
    if scale == 0.0:
        raise DomainError("K(f) is undefined for the zero element")
    conj = phi.conjugate()

    def log_conj_side(k):
        total = modular_at(lambda t: conj.value(phi.derivative(t)), k)
        return math.log(total) if total > 0.0 else -math.inf

    _, lower = solvers.increasing_root(log_conj_side, rel_tol=1e-13)
    _, upper = solvers.increasing_root(log_conj_side, rel_tol=1e-13,
                                       strict=True)
    mid = 0.5 * (lower + upper)
    modular = modular_at(phi.value, mid)
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
    """
    from scipy import optimize
    if not isinstance(f, FiniteSequence):
        raise DomainError("the supremum oracle works on finite sequences")
    layout = finite_layout(f.rearranged(), weight)
    values, w_head = layout.values, layout.w_masses
    n = values.size
    if n == 0:
        return 0.0
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


def truncate(f, n):
    """Bounded order-continuous part of f at level n.

    Function elements keep the values inside [1/n, n]; sequences keep the
    first n positions.
    """
    n = _check_truncation_index(n)
    if isinstance(f, StepFunction):
        kept = tuple((v, m) for v, m in f.atoms if 1.0 / n <= abs(v) <= n)
        return StepFunction(kept, f.gamma)
    if isinstance(f, FiniteSequence):
        return FiniteSequence(f.entries[:n])
    if isinstance(f, DecreasingProfile):
        if n == 1:
            return StepFunction((), math.inf)
        return BandRestriction(f, 1.0 / n, float(n))
    if isinstance(f, DecreasingSeqProfile):
        idx = np.arange(1, n + 1)
        return FiniteSequence(tuple(float(x) for x in f.value(idx)))
    raise DomainError(f"unknown element type: {type(f).__name__}")


def truncation_remainder(f, n):
    """f minus its truncation at level n, as an element."""
    n = _check_truncation_index(n)
    if isinstance(f, StepFunction):
        kept = tuple((v, m) for v, m in f.atoms
                     if not (1.0 / n <= abs(v) <= n))
        return StepFunction(kept, f.gamma)
    if isinstance(f, FiniteSequence):
        return FiniteSequence((0.0,) * n + f.entries[n:])
    if isinstance(f, DecreasingProfile):
        if n == 1:
            return f
        return BandComplement(f, 1.0 / n, float(n))
    if isinstance(f, DecreasingSeqProfile):
        return ShiftedSeqTail(f, n)
    raise DomainError(f"unknown element type: {type(f).__name__}")


def theta(phi, weight, f):
    """Finiteness threshold inf{lam > 0 : modular(f / lam) < inf}.

    Read from the growth types by `_threshold`: a / (1 - beta) for a head
    a log(1/t) under ExpOrlicz, a (1 - beta) for a tail a / log i under
    FlatZeroOrlicz, else 0, or NotInSpaceError when no scaling converges.
    """
    value = _threshold(phi.growth, weight, f)
    if math.isinf(value):
        raise NotInSpaceError("the modular diverges at every scaling")
    return value
