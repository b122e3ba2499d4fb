"""Modulars and norms on Orlicz-Lorentz function and sequence spaces.

The modular of an element f against an Orlicz function phi and a decreasing
weight w integrates phi(f*) w, with f* the decreasing rearrangement; sequence
elements use sums.  Two norms are derived from it:

* the Luxemburg (gauge) norm   inf{eps : modular(f / eps) <= 1}
* the Orlicz norm, computed through the Amemiya form
  inf_k (1 + modular(k f)) / k

For N-functions the Amemiya infimum is attained on a compact interval of
scaling constants K(f) = [k_lower, k_upper], located here by bisection on the
conjugate-side modular of p(k f*).

Finite elements evaluate exactly as weighted sums.  Parametric profiles are
integrated by adaptive quadrature after a log substitution; whether the
integral converges at its singular ends is decided first by a power-law
exponent fit at three scales, which also drives the finiteness threshold
theta(f) = inf{lam : modular(f / lam) < inf}.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from . import solvers
from .errors import (ConvergenceError, DomainError, NotInSpaceError,
                     UndecidedError)
from .rearrange import (BandRestriction, DecreasingProfile,
                        DecreasingSeqProfile, FiniteSequence, SequenceWeight,
                        StepFunction, Weight, element_setting)

__all__ = [
    "KInterval", "rho_modular", "luxemburg_norm", "orlicz_norm_amemiya",
    "k_interval", "orlicz_norm_dual_sup_oracle", "truncate",
    "truncation_remainder", "theta", "amemiya_pairing_report",
]

_SEQ_HEAD = 200_000


# ---------------------------------------------------------------------------
# exact modulars for finite data

def _step_layout(f, w):
    """Canonical values with their Lebesgue and weight masses."""
    canon = f.rearranged()
    values = np.array([v for v, _ in canon.atoms])
    measures = np.array([m for _, m in canon.atoms])
    if values.size and measures.sum() > w.gamma * (1 + 1e-12):
        raise DomainError("element support exceeds the weight domain")
    cuts = np.concatenate(([0.0], np.cumsum(measures)))
    w_masses = np.diff(w.cumulative(cuts))
    return values, measures, w_masses


def _seq_layout(f, w):
    canon = f.rearranged()
    values = np.array(canon.entries)
    return values, w.head(values.size)


def _finite_modular(phi, values, masses):
    if values.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        terms = phi.value(values) * masses
    total = float(np.sum(terms))
    return total if math.isfinite(total) else math.inf


# ---------------------------------------------------------------------------
# quadrature for parametric profiles

def _loglog_slope(sampler, scales):
    """Least-squares slope of log(sampler) against log(scale).

    Returns math.inf when the samples overflow, None when they vanish, and
    raises UndecidedError when the three points are visibly non-collinear.
    """
    ys = np.array([sampler(s) for s in scales], dtype=float)
    if np.any(~np.isfinite(ys)):
        return math.inf
    if np.any(ys <= 0.0):
        return None
    xs = np.log(np.asarray(scales))
    ls = np.log(ys)
    slope = np.polyfit(xs, ls, 1)[0]
    chord = ls[0] + (ls[2] - ls[0]) * (xs[1] - xs[0]) / (xs[2] - xs[0])
    if abs(ls[1] - chord) > 0.05 * (1.0 + abs(ls[1])):
        raise UndecidedError(
            "integrand is not close to a power law at the sampled scales")
    return float(slope)


def _profile_diverges(phi, w, profile):
    """Whether the modular integral of a function profile is infinite."""
    def g(t):
        return float(phi.value(float(profile.rearranged_value(t)))
                     * w.value(t))

    head = _loglog_slope(g, (1e-4, 1e-5, 1e-6))
    if head == math.inf or (head is not None and head <= -1.0):
        return True
    if math.isinf(profile.support_measure):
        tail = _loglog_slope(g, (1e4, 1e5, 1e6))
        if tail == math.inf or (tail is not None and tail >= -1.0):
            return True
    return False


def _seq_profile_diverges(phi, w, profile):
    def term(x):
        return float(phi.value(float(profile.value(x))) * w.value_at_real(x))

    tail = _loglog_slope(term, (1e4, 1e5, 1e6))
    if tail is None:
        return False
    return tail == math.inf or tail >= -1.0


def _profile_modular(phi, w, profile):
    if w.gamma != math.inf and profile.support_measure > w.gamma:
        raise DomainError("profile support exceeds the weight domain")
    if _profile_diverges(phi, w, profile):
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
        return float(phi.value(r)) * w.value(t) * t

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


def _seq_profile_modular(phi, w, profile):
    if _seq_profile_diverges(phi, w, profile):
        return math.inf
    idx = np.arange(1, _SEQ_HEAD + 1)
    with np.errstate(over="ignore"):
        terms = phi.value(profile.value(idx)) * w.head(_SEQ_HEAD)
    head = float(np.sum(terms))
    if not math.isfinite(head):
        return math.inf

    def term(y):
        if y > 700.0:
            return 0.0
        x = math.exp(y)
        return float(phi.value(float(profile.value(x)))
                     * w.value_at_real(x) * x)

    tail, _ = integrate.quad(term, math.log(_SEQ_HEAD + 0.5), math.inf,
                             epsabs=1e-12, epsrel=1e-9, limit=200)
    return head + tail


# ---------------------------------------------------------------------------
# public modular and norms

def rho_modular(phi, weight, f):
    """Modular of f: integral (or sum) of phi(f*) against the weight.

    Returns math.inf when the integral diverges.
    """
    if isinstance(f, StepFunction):
        if not isinstance(weight, Weight):
            raise DomainError("function elements need a function weight")
        values, _, w_masses = _step_layout(f, weight)
        return _finite_modular(phi, values, w_masses)
    if isinstance(f, FiniteSequence):
        if not isinstance(weight, SequenceWeight):
            raise DomainError("sequence elements need a sequence weight")
        values, w_head = _seq_layout(f, weight)
        return _finite_modular(phi, values, w_head)
    if isinstance(f, DecreasingProfile):
        if not isinstance(weight, Weight):
            raise DomainError("function elements need a function weight")
        return _profile_modular(phi, weight, f)
    if isinstance(f, DecreasingSeqProfile):
        if not isinstance(weight, SequenceWeight):
            raise DomainError("sequence elements need a sequence weight")
        return _seq_profile_modular(phi, weight, f)
    raise DomainError(f"unknown element type: {type(f).__name__}")


def _is_zero(f):
    if isinstance(f, StepFunction):
        return not f.rearranged().atoms
    if isinstance(f, FiniteSequence):
        return not f.rearranged().entries
    return False


def luxemburg_norm(phi, weight, f, *, rel_tol=1e-10):
    """Gauge norm inf{eps : modular(f / eps) <= 1}."""
    if _is_zero(f):
        return 0.0
    try:
        return solvers.gauge_norm(lambda c: rho_modular(phi, weight,
                                                        f.scaled(c)),
                                  rel_tol=rel_tol)
    except ConvergenceError as exc:
        raise NotInSpaceError(
            "no tested scaling has modular <= 1") from exc


def orlicz_norm_amemiya(phi, weight, f, *, rel_tol=1e-10):
    """Orlicz norm through the Amemiya form inf_k (1 + modular(k f)) / k.

    For functions that are not N-functions at infinity the infimum may only
    be approached as k grows; the value at the bracket cap is returned then.
    """
    if _is_zero(f):
        return 0.0

    def modular_at(k):
        return rho_modular(phi, weight, f.scaled(k))

    try:
        return solvers.amemiya_norm(modular_at, rel_tol=rel_tol)
    except ConvergenceError:
        probe = modular_at(2.0**50)
        if math.isfinite(probe):
            return (1.0 + probe) / 2.0**50
        raise NotInSpaceError("no tested scaling has a finite modular")


@dataclass(frozen=True)
class KInterval:
    """Scaling constants where the Amemiya objective attains the norm."""

    lower: float
    upper: float
    attained_norm: float


def k_interval(phi, weight, f):
    """K(f) = [k_lower, k_upper] for an N-function, located by bisection on
    the conjugate modular of p(k f*)."""
    if not phi.is_n_function:
        raise DomainError("K(f) requires an N-function")
    if _is_zero(f):
        raise DomainError("K(f) is undefined for the zero element")
    conj = phi.conjugate()
    if isinstance(f, StepFunction):
        values, _, masses = _step_layout(f, weight)
    elif isinstance(f, FiniteSequence):
        values, masses = _seq_layout(f, weight)
    else:
        raise DomainError("K(f) is computed for finite elements")

    def conj_side(k):
        with np.errstate(over="ignore"):
            terms = conj.value(phi.derivative(k * values)) * masses
        total = float(np.sum(terms))
        return total if math.isfinite(total) else math.inf

    lower = solvers.smallest_satisfying(lambda k: conj_side(k) >= 1.0,
                                        rel_tol=1e-13, abs_tol=1e-12)
    upper = solvers.smallest_satisfying(lambda k: conj_side(k) > 1.0,
                                        hint=lower, rel_tol=1e-13,
                                        abs_tol=1e-12)
    mid = 0.5 * (lower + upper)
    modular = rho_modular(phi, weight, f.scaled(mid))
    return KInterval(lower, upper, (1.0 + modular) / mid)


def amemiya_pairing_report(phi, weight, f):
    """Diagnostics tying the Orlicz norm to the pairing with p(k f*).

    Returns the attained scaling k, the weighted pairing
    sum f* p(k f*) w  (equal to the norm), the literal unweighted pairing
    sum f* p(k f*) recorded for reference, and the Amemiya values.
    """
    ki = k_interval(phi, weight, f)
    k = 0.5 * (ki.lower + ki.upper)
    if isinstance(f, StepFunction):
        values, measures, w_masses = _step_layout(f, weight)
    else:
        values, w_masses = _seq_layout(f, weight)
        measures = np.ones_like(values)
    slopes = phi.derivative(k * values)
    weighted = float(np.sum(values * slopes * w_masses))
    unweighted = float(np.sum(values * slopes * measures))
    modular = rho_modular(phi, weight, f.scaled(k))
    return {
        "k": k,
        "weighted_pairing": weighted,
        "unweighted_pairing": unweighted,
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
    if not isinstance(f, FiniteSequence):
        raise DomainError("the supremum oracle works on finite sequences")
    if _is_zero(f):
        return 0.0
    if not isinstance(weight, SequenceWeight):
        raise DomainError("sequence elements need a sequence weight")
    canon = f.rearranged()
    values = np.array(canon.entries)
    n = values.size
    w_head = weight.head(n)
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
    from .rearrange import BandComplement, ShiftedSeqTail
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


def theta(phi, weight, f, *, rel_tol=1e-3):
    """Finiteness threshold inf{lam > 0 : modular(f / lam) < inf}.

    Zero for every finite-support element.  For parametric profiles the
    modular's convergence is classified by the exponent fit and the boundary
    located by bisection; the result lam satisfies the guarantee that
    modular(f / (lam (1 + 5 rel_tol))) is classified finite and
    modular(f / (lam (1 - 5 rel_tol))) divergent.
    """
    if isinstance(f, (StepFunction, FiniteSequence)):
        return 0.0
    if isinstance(getattr(f, "source", f), BandRestriction):
        return 0.0
    if isinstance(f, DecreasingProfile):
        def diverges(lam):
            return _profile_diverges(phi, weight, f.scaled(1.0 / lam))
    elif isinstance(f, DecreasingSeqProfile):
        def diverges(lam):
            return _seq_profile_diverges(phi, weight, f.scaled(1.0 / lam))
    else:
        raise DomainError(f"unknown element type: {type(f).__name__}")

    try:
        boundary = solvers.smallest_satisfying(
            lambda lam: not diverges(lam), rel_tol=rel_tol)
    except ConvergenceError as exc:
        raise NotInSpaceError(
            "modular divergent at every tested scaling") from exc
    if boundary <= 2.0 * solvers.FLOOR:
        return 0.0
    if diverges(boundary * (1.0 + 5.0 * rel_tol)) or \
            not diverges(boundary * (1.0 - 5.0 * rel_tol)):
        raise UndecidedError(
            "threshold guarantee failed at the bisection boundary")
    return boundary
