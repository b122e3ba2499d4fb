"""Orlicz functions: analytic families, right derivatives and convex conjugates.

An Orlicz function here is convex on [0, inf) with value 0 at 0 and positive
values elsewhere.  The N-function families additionally satisfy
phi(t)/t -> 0 at 0 and phi(t)/t -> inf at infinity, which makes the convex
conjugate phi*(v) = sup_u [u v - phi(u)] another N-function and the right
derivatives p and q of the pair mutually inverse in the generalized sense.

Families:

* PowerOrlicz      scale * t**exponent, exponent > 1
* ExpOrlicz        exp(t) - t - 1
* LogOrlicz        (1 + t) log(1 + t) - t, the conjugate of ExpOrlicz
* FlatZeroOrlicz   exp(-1/t) near zero with a convex quadratic continuation;
                   all derivatives vanish at 0, so the doubling condition
                   fails near zero
* TabulatedOrlicz  piecewise-linear convex interpolation of knot data; not an
                   N-function at infinity (linear tail)

Values and derivatives accept scalars or numpy arrays of nonnegative numbers.
Instances are treated as immutable; the conjugate is computed once and cached.

`growth` and `young_growth` give the types of phi and of u p(u) - phi(u)
at 0 and at infinity: (r, b) is u^r l^b with l = log(1/u) at 0 and log u
at infinity, (0, 0) a bounded function; "exp" and "flat" grow as exp(u)
and exp(-1/u), "zero" vanishes near 0 and "cap" is +inf beyond a point.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import solvers
from .errors import ConvergenceError, DomainError, ValidationError

__all__ = [
    "OrliczFunction", "PowerOrlicz", "ExpOrlicz", "LogOrlicz",
    "FlatZeroOrlicz", "TabulatedOrlicz", "young_gap", "delta2_classify",
]


def _as_array(u):
    arr = np.asarray(u, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
        raise DomainError("arguments must be finite and nonnegative")
    return arr


def _like(arr, template):
    if np.isscalar(template) or getattr(template, "ndim", 1) == 0:
        return float(arr)
    return arr


# below this argument exp(u) - u - 1 and (1 + u) log(1 + u) - u, which are
# u^2 / 2 to leading order, lose to cancellation about eps / u of relative
# precision; their Taylor series at 0, coefficients of u^2, u^3, ..., take
# over there, cut where the next term is below 2^-60 of the first
_SERIES_BELOW = 2.0**-5
_EXP_SERIES = tuple(1.0 / math.factorial(k) for k in range(2, 11))
_LOG_SERIES = tuple((-1.0)**k / (k * (k - 1)) for k in range(2, 14))


def _small_by_series(arr, out, coeffs):
    """out, with the entries where arr < _SERIES_BELOW replaced by the
    series u^2 (c_0 + c_1 u + ...) of the same function."""
    small = arr < _SERIES_BELOW
    if not small.any():
        return out
    out = np.asarray(out)
    u = arr[small]
    tail = coeffs[-1]
    for c in coeffs[-2:0:-1]:
        tail = tail * u + c
    out[small] = coeffs[0] * (u * u) + tail * u * (u * u)
    return out


def _conjugate_type(kind, at_zero):
    """Growth type of phi* at one end from that of phi there."""
    if isinstance(kind, tuple) and kind[0] > 1.0:
        r, b = kind
        return (r / (r - 1.0), -b / (r - 1.0))
    if kind == (1.0, 0.0):
        # phi* = 0 up to the first slope, +inf beyond the last
        return "zero" if at_zero else "cap"
    return {"exp": (1.0, 1.0), (1.0, 1.0): "exp",
            "flat": (1.0, -1.0), (1.0, -1.0): "flat"}.get(kind)


def _young_type(kind, at_zero):
    """Growth type of u p(u) - phi(u) at one end from that of phi there."""
    if kind == (1.0, 0.0):
        return "zero" if at_zero else (0.0, 0.0)
    if isinstance(kind, tuple) and kind[0] == 1.0:
        return (1.0, kind[1] - 1.0)
    return kind


class OrliczFunction:
    """Common surface: value, right derivative, conjugate, growth types."""

    is_n_function = True
    tol_abs = 1e-10
    tol_rel = 1e-8
    growth = (None, None)   # unknown at both ends

    @property
    def young_growth(self):
        return (_young_type(self.growth[0], True),
                _young_type(self.growth[1], False))

    def value(self, u):
        raise NotImplementedError

    def derivative(self, u):
        """Right derivative; nondecreasing and right-continuous."""
        raise NotImplementedError

    def young(self, u):
        """u p(u) - phi(u), which is phi*(p(u)) by Young's equality;
        nondecreasing, and +inf where either term overflows."""
        arr = _as_array(u)
        with np.errstate(over="ignore", invalid="ignore"):
            out = arr * self.derivative(arr) - self.value(arr)
        return _like(np.where(np.isnan(out), np.inf, out), u)

    def conjugate(self):
        """The convex conjugate as another OrliczFunction."""
        cached = self.__dict__.get("_conjugate_cache")
        if cached is None:
            cached = self._build_conjugate()
            self.__dict__["_conjugate_cache"] = cached
        return cached

    def _build_conjugate(self):
        return NumericConjugate(self)


@dataclass(eq=True)
class PowerOrlicz(OrliczFunction):
    exponent: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        if not (self.exponent > 1.0 and math.isfinite(self.exponent)):
            raise ValidationError("exponent must be finite and > 1",
                                  field="phi.exponent")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValidationError("scale must be finite and > 0",
                                  field="phi.scale")
        self.growth = ((self.exponent, 0.0), (self.exponent, 0.0))

    def value(self, u):
        arr = _as_array(u)
        return _like(self.scale * arr**self.exponent, u)

    def derivative(self, u):
        arr = _as_array(u)
        return _like(self.scale * self.exponent * arr**(self.exponent - 1.0), u)

    def _build_conjugate(self):
        r = self.exponent
        dual_r = r / (r - 1.0)
        dual_scale = (r * self.scale)**(-dual_r / r) / dual_r
        partner = PowerOrlicz(exponent=dual_r, scale=dual_scale)
        partner.__dict__["_conjugate_cache"] = self
        return partner


@dataclass(eq=True)
class ExpOrlicz(OrliczFunction):
    """exp(t) - t - 1; doubling fails at infinity, holds near zero."""

    growth = ((2.0, 0.0), "exp")

    def value(self, u):
        arr = _as_array(u)
        with np.errstate(over="ignore"):
            out = np.expm1(arr) - arr
        return _like(_small_by_series(arr, out, _EXP_SERIES), u)

    def derivative(self, u):
        arr = _as_array(u)
        with np.errstate(over="ignore"):
            out = np.expm1(arr)
        return _like(out, u)

    def _build_conjugate(self):
        partner = LogOrlicz()
        partner.__dict__["_conjugate_cache"] = self
        return partner


@dataclass(eq=True)
class LogOrlicz(OrliczFunction):
    """(1 + t) log(1 + t) - t; doubling holds everywhere."""

    growth = ((2.0, 0.0), (1.0, 1.0))

    def value(self, u):
        arr = _as_array(u)
        out = (1.0 + arr) * np.log1p(arr) - arr
        return _like(_small_by_series(arr, out, _LOG_SERIES), u)

    def derivative(self, u):
        arr = _as_array(u)
        return _like(np.log1p(arr), u)

    def _build_conjugate(self):
        partner = ExpOrlicz()
        partner.__dict__["_conjugate_cache"] = self
        return partner


@dataclass(eq=True)
class FlatZeroOrlicz(OrliczFunction):
    """exp(-1/t) for t <= cutoff, then the matching convex quadratic.

    exp(-1/t) is convex on (0, 1/2]; the cutoff must stay in that range.
    Value, slope and curvature are matched at the cutoff, so the function is
    C^2 and the quadratic tail keeps phi(t)/t -> inf.  Near zero the function
    is flatter than any power, hence phi(2t)/phi(t) = exp(1/(2t)) is
    unbounded and the doubling condition fails at zero.
    """

    cutoff: float = 0.4
    growth = ("flat", (2.0, 0.0))

    def __post_init__(self):
        if not (0.0 < self.cutoff < 0.5):
            raise ValidationError("cutoff must lie in (0, 0.5)",
                                  field="phi.cutoff")
        t = self.cutoff
        self._f_c = math.exp(-1.0 / t)
        self._p_c = self._f_c / t**2
        self._curv = self._f_c * (1.0 - 2.0 * t) / t**4
        grid = np.linspace(1e-3, 4.0 * t, 2001)
        slopes = np.diff(self.value(grid)) / np.diff(grid)
        if np.any(np.diff(slopes) < -1e-12):
            raise ValidationError("construction is not convex",
                                  field="phi.cutoff")

    def value(self, u):
        arr = _as_array(u)
        with np.errstate(divide="ignore"):
            head = np.exp(-1.0 / np.maximum(arr, 1e-300))
        d = arr - self.cutoff
        tail = self._f_c + self._p_c * d + 0.5 * self._curv * d * d
        return _like(np.where(arr <= self.cutoff, head, tail), u)

    def derivative(self, u):
        arr = _as_array(u)
        with np.errstate(divide="ignore"):
            safe = np.maximum(arr, 1e-300)
            head = np.exp(-1.0 / safe) / safe**2
        tail = self._p_c + self._curv * (arr - self.cutoff)
        return _like(np.where(arr <= self.cutoff, head, tail), u)


@dataclass(eq=True)
class TabulatedOrlicz(OrliczFunction):
    """Piecewise-linear convex interpolation of (t, value) knots.

    Knots must start at (0, 0) and have strictly increasing abscissae and
    nondecreasing chord slopes with the first slope positive.  Beyond the
    last knot the final slope continues, so phi(t)/t stays bounded and the
    function is not an N-function at infinity; conjugate evaluation beyond
    the final slope raises ConvergenceError.
    """

    knots: tuple = ((0.0, 0.0), (1.0, 1.0))
    is_n_function = False
    growth = ((1.0, 0.0), (1.0, 0.0))

    def __post_init__(self):
        knots = tuple((float(t), float(y)) for t, y in self.knots)
        if len(knots) < 2:
            raise ValidationError("need at least two knots", field="phi.knots")
        if knots[0] != (0.0, 0.0):
            raise ValidationError("first knot must be (0, 0)",
                                  field="phi.knots")
        ts = np.array([t for t, _ in knots])
        ys = np.array([y for _, y in knots])
        if np.any(np.diff(ts) <= 0.0):
            raise ValidationError("knot abscissae must strictly increase",
                                  field="phi.knots")
        slopes = np.diff(ys) / np.diff(ts)
        if slopes[0] <= 0.0 or np.any(np.diff(slopes) < -1e-12):
            raise ValidationError(
                "knot values must be convex with positive initial slope",
                field="phi.knots")
        self.knots = knots
        self._ts = ts
        self._ys = ys
        self._slopes = slopes

    def value(self, u):
        arr = _as_array(u)
        inside = np.interp(arr, self._ts, self._ys)
        beyond = self._ys[-1] + self._slopes[-1] * (arr - self._ts[-1])
        return _like(np.where(arr <= self._ts[-1], inside, beyond), u)

    def derivative(self, u):
        arr = _as_array(u)
        seg = np.searchsorted(self._ts, arr, side="right") - 1
        seg = np.clip(seg, 0, len(self._slopes) - 1)
        return _like(self._slopes[seg], u)


@dataclass(eq=True)
class NumericConjugate(OrliczFunction):
    """Conjugate computed from the base function's right derivative.

    value(v) finds the smallest u with p(u) >= v and returns u*v - phi(u);
    derivative(v) is the generalized inverse sup{u : p(u) <= v}, the
    smallest u with p(u) > v.  Both solve log p(u) = log v with the
    package's root-finder, all entries of an array in lockstep, one
    vectorised call of the base derivative per step.  Used for families
    without a closed-form partner.
    """

    base: OrliczFunction

    def __post_init__(self):
        self.is_n_function = self.base.is_n_function
        self.growth = (_conjugate_type(self.base.growth[0], True),
                       _conjugate_type(self.base.growth[1], False))

    def _boundaries(self, targets, strict):
        """Smallest u with p(u) > target (strict) or p(u) >= target, per
        entry."""
        with np.errstate(divide="ignore"):
            log_targets = np.log(targets)

        def excess(u, idx):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.log(self.base.derivative(u)) - log_targets[idx]

        _, hi = solvers.increasing_roots(excess, targets.size,
                                         rel_tol=self.base.tol_rel * 1e-4,
                                         strict=strict)
        return hi

    def value(self, v):
        arr = _as_array(v)
        flat = np.atleast_1d(arr).ravel()
        u = np.zeros_like(flat)
        positive = flat != 0.0
        try:
            u[positive] = self._boundaries(flat[positive], strict=False)
        except ConvergenceError as exc:
            raise ConvergenceError(
                "conjugate undefined: the derivative never reaches "
                f"{flat.max():g}; the base function is not an N-function at "
                "infinity") from exc
        out = u * flat - self.base.value(u)
        return _like(out.reshape(np.shape(arr)), v)

    def derivative(self, v):
        arr = _as_array(v)
        flat = np.atleast_1d(arr).ravel()
        # q(0) = sup{u : p(u) <= 0} = 0, which the solve would miss where
        # p(u) underflows to 0 above it
        out = np.zeros_like(flat)
        positive = flat != 0.0
        out[positive] = self._boundaries(flat[positive], strict=True)
        return _like(out.reshape(np.shape(arr)), v)

    def young(self, v):
        """phi(q(v)), which Young's equality makes v q(v) - phi*(v): one
        solve instead of the two that value and derivative take."""
        return self.base.value(self.derivative(v))

    def _build_conjugate(self):
        return self.base


def young_gap(phi, u, v):
    """phi(u) + phi*(v) - u*v; nonnegative, zero exactly when v = p(u)."""
    return phi.value(u) + phi.conjugate().value(v) - np.asarray(u) * np.asarray(v)


def delta2_classify(phi):
    """Doubling-condition report for one Orlicz function.

    Returns a dict with boolean keys "global", "at_infinity", "at_zero",
    true at an end of growth type (r, b) or "zero"; a float "K_estimate",
    the supremum of phi(2u)/phi(u) over a grid of the range on which the
    strongest true condition is quoted; and "heuristic", False, as no
    condition is sampled.
    """
    at_zero, at_infinity = (isinstance(kind, tuple) or kind == "zero"
                            for kind in phi.growth)
    return {"global": at_zero and at_infinity, "at_infinity": at_infinity,
            "at_zero": at_zero, "K_estimate": _doubling_constant(phi),
            "heuristic": False}


def _doubling_constant(phi):
    if isinstance(phi, PowerOrlicz):
        return 2.0**phi.exponent
    floor = 0.0
    base = phi.base if isinstance(phi, NumericConjugate) else None
    if isinstance(base, FlatZeroOrlicz):
        grid = np.logspace(-6, 3, 181)
    elif isinstance(base, TabulatedOrlicz):
        grid = np.logspace(-8, math.log10(base._slopes[-1] / 2.0), 161)
    elif isinstance(phi, (NumericConjugate, ExpOrlicz)):
        grid = np.logspace(-8, 0, 161)
    elif isinstance(phi, LogOrlicz):
        grid = np.logspace(-8, 8, 321)
    elif isinstance(phi, FlatZeroOrlicz):
        grid = np.logspace(math.log10(phi.cutoff), 8, 161)
    elif isinstance(phi, TabulatedOrlicz):
        lo = max(phi._ts[1] * 1e-3, 1e-12)
        grid = np.logspace(math.log10(lo), math.log10(phi._ts[-1] * 10.0),
                           201)
        floor = 2.0
    else:
        raise DomainError(f"unknown Orlicz family: {type(phi).__name__}")
    lo, hi = phi.value(grid), phi.value(2.0 * grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lo > 0.0, hi / np.maximum(lo, 1e-300), np.inf)
    return float(max(np.max(ratio), floor))
