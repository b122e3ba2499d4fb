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

Every family has its conjugate in closed form: PowerOrlicz, ExpOrlicz and
LogOrlicz pair among themselves, FlatZeroOrlicz gives FlatZeroConjugate (the
lower Lambert W branch below the cutoff's slope, linear above it) and
TabulatedOrlicz gives TabulatedConjugate (piecewise linear, knots and slopes
swapped).  NumericConjugate solves for the conjugate of any Orlicz function
from its derivative, one scalar root per entry; it is the default for
functions outside the catalog and the independent route the closed forms are
checked against.

The public value, derivative and young validate their argument, take scalars
or numpy arrays of finite nonnegative numbers and give back the same kind.
Each runs a trusted array kernel, _value, _derivative or _young, under
np.errstate(over="ignore"); the kernels check nothing, and the solves on
finite elements call them at every probe under the same errstate.  The
profile layouts call the log kernels _log_value and _log_young, log phi(u)
and log young(u) taken at log u, whose values span more than a float
holds: each is computed from its kernel where that gives a normal float,
and past that, for the catalog families, from the family's leading form,
exact to rounding there.  A subclass that overrides a public method but
not its kernel gets a kernel that calls the override, and the log kernels
call the kernels, so every solve runs the same function; past the float
range a subclass of a catalog family keeps its family's leading form.
Instances are immutable; the conjugate is cached.

`_kinks` lists the arguments where phi or its Young side is not smooth: the
inner knots of a TabulatedOrlicz and the cutoff of a FlatZeroOrlicz.

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
    # two reductions; a NaN fails both comparisons
    if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
        raise DomainError("arguments must be finite and nonnegative")
    return arr


def _like(arr, template):
    if np.isscalar(template) or getattr(template, "ndim", 1) == 0:
        return float(arr)
    return arr


# exp(u) - 1 - u and (1 + u) log(1 + u) - u are u^2 / 2 to leading order,
# so their closed forms lose to cancellation the rounding error of expm1(u)
# or log1p(u), up to 1 / (2u) ulp of the result.  Below u = 1 both are
# summed from series with positive terms instead, within 2 ulp:
# exp(u) - 1 - u = u^2 / 2! + u^3 / 3! + ..., and with w = log(1 + u) and
# d = u - w (exact), (1 + u) w - u = w^2 / 2 + (w d - w^3 / 3! - w^4 / 4!
# - ...), which is u w - (exp(w) - 1 - w) and so, like Young's equality it
# comes from, insensitive to the rounding of w to first order.  Each series
# is cut where the next term at u = 1 (w = log 2) is below 2^-60 of the
# first.  From u = 1 up, (1 + u) log(1 + u) - u is evaluated in that Young
# form u w - (exp(w) - 1 - w) too, within 3 ulp and monotone; the closed
# form carries the rounding of w with weight 1 + u.
_SERIES_BELOW = 1.0
_EXP_SERIES = tuple(1.0 / math.factorial(k) for k in range(2, 20))
_LOG_TAIL = _EXP_SERIES[1:16]


def _half_square(log_u):
    """log(u^2 / 2), the leading term of exp(u) - 1 - u, (1 + u) log(1 + u)
    - u and both their Young sides at 0."""
    return 2.0 * log_u - math.log(2.0)


def _series(u, coeffs):
    """c_0 u^2 + (c_1 u + c_2 u^2 + ...) u^2, the leading term added last."""
    tail = np.full_like(u, coeffs[-1])
    for c in coeffs[-2:0:-1]:
        tail *= u
        tail += c
    tail *= u
    square = u * u
    tail *= square
    tail += coeffs[0] * square
    return tail


def _exp_minus_linear(arr):
    """exp(u) - 1 - u for an array of u >= 0; +inf where it overflows."""
    small = arr < _SERIES_BELOW
    if small.all():
        return _series(arr, _EXP_SERIES)
    out = np.expm1(arr) - arr
    if small.any():
        out[small] = _series(arr[small], _EXP_SERIES)
    return out


def _log_minus_linear(arr):
    """(1 + u) log(1 + u) - u for an array of u >= 0; +inf where it
    overflows."""
    w = np.log1p(arr)
    small = arr < _SERIES_BELOW
    if small.all():
        return _log_by_series(arr, w)
    out = arr * w - _exp_minus_linear(w)
    if small.any():
        out[small] = _log_by_series(arr[small], w[small])
    return out


def _log_by_series(u, w):
    d = u - w
    return 0.5 * (w * w) + (w * d - _series(w, _LOG_TAIL) * w)


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


_LOG_TINY = math.log(np.finfo(float).tiny)


def _log_kernel(kernel, log_u, small=None, large=None):
    """log kernel(u) at u = e^log_u, for an array log_u: directly where the
    kernel's value is a normal float, else small(log_u) where it is below
    (underflows) and large(log_u) where it overflows; +inf at u = +inf
    when large is not given."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = np.exp(log_u)
        finite = u < math.inf
        out = np.log(kernel(np.where(finite, u, 0.0)))
        out[~finite] = math.inf
        for replace, where in ((small, out < _LOG_TINY),
                               (large, out == math.inf)):
            if replace is not None and where.any():
                out[where] = replace(log_u[where])
    return out


def _calling(name):
    """A kernel that runs the public method name."""
    def kernel(self, arr):
        return getattr(self, name)(arr)
    return kernel


class OrliczFunction:
    """Common surface: value, right derivative, conjugate, growth types."""

    is_n_function = True
    growth = (None, None)   # unknown at both ends
    _kinks = ()

    def __init_subclass__(cls, **kwargs):
        # an override of a public method without its kernel gets a kernel
        # that calls it; the public methods run the nearest kernel a class
        # defined itself (_value_impl, ...), so super() does not recurse
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        for name in ("value", "derivative", "young"):
            kernel = "_" + name
            if kernel in own:
                setattr(cls, kernel + "_impl", own[kernel])
            elif name in own:
                setattr(cls, kernel, _calling(name))

    @property
    def young_growth(self):
        return (_young_type(self.growth[0], True),
                _young_type(self.growth[1], False))

    def value(self, u):
        arr = _as_array(u)
        with np.errstate(over="ignore"):
            out = self._value_impl(arr)
        return _like(out, u)

    def derivative(self, u):
        """Right derivative; nondecreasing and right-continuous."""
        arr = _as_array(u)
        with np.errstate(over="ignore"):
            out = self._derivative_impl(arr)
        return _like(out, u)

    def young(self, u):
        """u p(u) - phi(u), which is phi*(p(u)) by Young's equality;
        nondecreasing, and +inf where either term overflows."""
        arr = _as_array(u)
        with np.errstate(over="ignore"):
            out = self._young_impl(arr)
        return _like(out, u)

    def _value(self, arr):
        raise NotImplementedError

    def _derivative(self, arr):
        raise NotImplementedError

    def _young(self, arr):
        # inf - inf, where both terms overflow, is +inf
        with np.errstate(invalid="ignore"):
            out = arr * self._derivative(arr) - self._value(arr)
        return np.where(np.isnan(out), np.inf, out)

    _value_impl, _derivative_impl, _young_impl = _value, _derivative, _young

    def _log_value(self, log_u):
        return _log_kernel(self._value, log_u)

    def _log_young(self, log_u):
        return _log_kernel(self._young, log_u)

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

    def _value(self, arr):
        return self.scale * arr**self.exponent

    def _derivative(self, arr):
        return self.scale * self.exponent * arr**(self.exponent - 1.0)

    def _log_value(self, log_u):
        def power(x):
            return math.log(self.scale) + self.exponent * x
        return _log_kernel(self._value, log_u, power, power)

    def _log_young(self, log_u):
        def power(x):
            return (math.log((self.exponent - 1.0) * self.scale)
                    + self.exponent * x)
        return _log_kernel(self._young, log_u, power, power)

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

    _value = staticmethod(_exp_minus_linear)
    _derivative = staticmethod(np.expm1)

    # u^2 / 2 where they underflow; e^u and (u - 1) e^u past u = 709
    def _log_value(self, log_u):
        return _log_kernel(self._value, log_u, _half_square, np.exp)

    def _log_young(self, log_u):
        def large(x):
            u = np.exp(x)
            return u + np.log(u - 1.0)
        return _log_kernel(self._young, log_u, _half_square, large)

    def _build_conjugate(self):
        partner = LogOrlicz()
        partner.__dict__["_conjugate_cache"] = self
        return partner


@dataclass(eq=True)
class LogOrlicz(OrliczFunction):
    """(1 + t) log(1 + t) - t; doubling holds everywhere."""

    growth = ((2.0, 0.0), (1.0, 1.0))

    _value = staticmethod(_log_minus_linear)
    _derivative = staticmethod(np.log1p)

    # u^2 / 2 where they underflow; u (log u - 1) and u past u = 1e307
    def _log_value(self, log_u):
        return _log_kernel(self._value, log_u, _half_square,
                           lambda x: x + np.log(x - 1.0))

    def _log_young(self, log_u):
        return _log_kernel(self._young, log_u, _half_square, lambda x: x)

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

    The construction is convex exactly when the curvature at the cutoff is
    positive.  Below a cutoff of about 1/745 exp(-1/cutoff) underflows to 0,
    the function would vanish on [cutoff, inf), and ValidationError is
    raised.
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
        if not self._curv > 0.0:
            raise ValidationError("exp(-1/cutoff) underflows: the "
                                  "construction is not strictly convex",
                                  field="phi.cutoff")
        self._kinks = (t,)

    # exp(-1/u) and exp(-1/u) (1/u - 1) where they underflow; both are
    # curv u^2 / 2 to rounding where they overflow
    def _log_value(self, log_u):
        return _log_kernel(self._value, log_u, lambda x: -np.exp(-x),
                           self._log_half_curv)

    def _log_young(self, log_u):
        def small(x):
            v = np.exp(-x)
            return np.where(v < math.inf, np.log(v - 1.0) - v, -math.inf)
        return _log_kernel(self._young, log_u, small, self._log_half_curv)

    def _log_half_curv(self, log_u):
        return math.log(0.5 * self._curv) + 2.0 * log_u

    def _value(self, arr):
        with np.errstate(divide="ignore"):
            head = np.exp(-1.0 / np.maximum(arr, 1e-300))
        d = arr - self.cutoff
        tail = self._f_c + self._p_c * d + 0.5 * self._curv * d * d
        return np.where(arr <= self.cutoff, head, tail)

    def _derivative(self, arr):
        with np.errstate(divide="ignore", over="ignore"):
            safe = np.maximum(arr, 1e-300)
            # 0, not 0 / 0, where safe^2 underflows; past the cutoff the
            # head is discarded, also where safe^2 overflows
            head = np.exp(-1.0 / safe) / np.maximum(safe**2, 1e-300)
        tail = self._p_c + self._curv * (arr - self.cutoff)
        return np.where(arr <= self.cutoff, head, tail)

    def _build_conjugate(self):
        return FlatZeroConjugate(self)


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
        self._kinks = tuple(ts[1:-1].tolist())

    def _value(self, arr):
        inside = np.interp(arr, self._ts, self._ys)
        beyond = self._ys[-1] + self._slopes[-1] * (arr - self._ts[-1])
        return np.where(arr <= self._ts[-1], inside, beyond)

    def _derivative(self, arr):
        seg = np.searchsorted(self._ts, arr, side="right") - 1
        seg = np.clip(seg, 0, len(self._slopes) - 1)
        return self._slopes[seg]

    # linear at both ends; the Young side is constant from the last knot on
    def _log_value(self, log_u):
        return _log_kernel(
            self._value, log_u, lambda x: math.log(self._slopes[0]) + x,
            lambda x: math.log(self._slopes[-1]) + x)

    def _log_young(self, log_u):
        return _log_kernel(self._young,
                           np.minimum(log_u, math.log(self._ts[-1])))

    def _build_conjugate(self):
        return TabulatedConjugate(self)


@dataclass(eq=True)
class Conjugate(OrliczFunction):
    """The convex conjugate of `base`.

    Its growth types follow from the base's, `young(v)` is phi(q(v)), which
    Young's equality makes v q(v) - phi*(v), and `conjugate()` gives the base
    back.  Subclasses supply value(v) = sup_u [u v - phi(u)] and derivative
    q(v) = sup{u : p(u) <= v}, the smallest u with p(u) > v.
    """

    base: OrliczFunction

    def __post_init__(self):
        self.is_n_function = self.base.is_n_function
        self.growth = (_conjugate_type(self.base.growth[0], True),
                       _conjugate_type(self.base.growth[1], False))

    def _young(self, arr):
        return self.base._value(self._derivative(arr))

    def _build_conjugate(self):
        return self.base


# the relative tolerance in u of NumericConjugate's solves
_CONJUGATE_REL_TOL = 1e-12


class NumericConjugate(Conjugate):
    """Conjugate computed from the base function's right derivative.

    value(v) finds the smallest u with p(u) >= v and returns u*v - phi(u);
    derivative(v) finds the smallest u with p(u) > v.  Both solve
    log p(u) = log v with the package's root-finder, one scalar solve per
    array entry, to within _CONJUGATE_REL_TOL relative in u.  The default
    conjugate of a family without a closed-form partner, and the
    independent route against which the closed forms are checked.
    """

    def _boundaries(self, targets, strict):
        """Smallest u with p(u) > target (strict) or p(u) >= target, per
        entry of a flat array; 0 for a zero target."""
        out = np.zeros_like(targets)
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, target in enumerate(targets.tolist()):
                # q(0) = sup{u : p(u) <= 0} = 0, which the solve would miss
                # where p(u) underflows to 0 above it
                if target == 0.0:
                    continue
                log_target = np.log(target)
                _, out[k] = solvers.increasing_root(
                    lambda u: np.log(self.base.derivative(u)) - log_target,
                    rel_tol=_CONJUGATE_REL_TOL, strict=strict)
        return out

    def _value(self, arr):
        flat = np.atleast_1d(arr).ravel()
        try:
            u = self._boundaries(flat, strict=False)
        except ConvergenceError as exc:
            raise ConvergenceError(
                "conjugate undefined: the derivative never reaches "
                f"{flat.max():g}; the base function is not an N-function at "
                "infinity") from exc
        out = u * flat - self.base._value(u)
        return out.reshape(np.shape(arr))

    def _derivative(self, arr):
        out = self._boundaries(np.atleast_1d(arr).ravel(), strict=True)
        return out.reshape(np.shape(arr))


# -W_{-1}(-e^-m) for m >= 1, the root y >= 1 of y - log y = m (Corless et
# al., "On the Lambert W function", Adv. Comput. Math. 5, 1996): Halley
# steps from the branch-point series in s = sqrt(2 (1 - e^(1 - m))) below
# m = 2 and from the asymptotic L1 - L2 + L2 / L1 above it; each entry
# stops once |y - log y - m| <= _LAMBERT_TOL * y, within a few rounding
# errors of evaluating it, three steps at most from either start
_BRANCH_SERIES = (221.0 / 8505.0, 769.0 / 17280.0, 43.0 / 540.0,
                  11.0 / 72.0, 1.0 / 3.0, 1.0, 1.0)
_LAMBERT_TOL = 2.0**-51
_LAMBERT_STEPS = 8


def _lower_branch(m):
    s = np.sqrt(np.maximum(-2.0 * np.expm1(1.0 - m), 0.0))
    near = np.zeros_like(s)
    for c in _BRANCH_SERIES:
        near = near * s + c
    log_m = np.log(m)
    y = np.where(m < 2.0, near, m + log_m + log_m / m)
    for _ in range(_LAMBERT_STEPS):
        h = y - np.log(y) - m
        open_ = np.abs(h) > _LAMBERT_TOL * y
        if not open_.any():
            return y
        slope = 1.0 - 1.0 / y
        step = 2.0 * h * slope / (2.0 * slope * slope - h / (y * y))
        y = np.where(open_, np.maximum(y - step, 1.0), y)
    raise ConvergenceError("Lambert W iteration did not converge")


class FlatZeroConjugate(Conjugate):
    """Conjugate of FlatZeroOrlicz in closed form.

    p is continuous and increasing, so q(v) is the u with p(u) = v and
    q(0) = 0.  Below p(cutoff), e^(-1/u) / u^2 = v gives u = 1 / z with
    z = -2 W_{-1}(-sqrt(v) / 2); above it p is linear and so is q.  Then
    phi*(v) = v q(v) - phi(q(v)) and young(v) = phi(q(v)).
    """

    def _inverse(self, arr):
        base = self.base
        flat = np.atleast_1d(arr)
        # the linear branch everywhere, the head overwritten below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            u = base.cutoff + (flat - base._p_c) / base._curv
        head = (flat > 0.0) & (flat <= base._p_c)
        if head.any():
            m = math.log(2.0) - 0.5 * np.log(flat[head])
            # clipped, so rounding cannot put q past the linear branch's
            # start and break its monotonicity at p(cutoff)
            u[head] = np.minimum(0.5 / _lower_branch(m), base.cutoff)
        u[flat == 0.0] = 0.0
        if u.size and not u.max() < math.inf:
            raise ConvergenceError(
                f"conjugate undefined: q({flat.max():g}) overflows")
        return u.reshape(np.shape(arr))

    def _derivative(self, arr):
        return self._inverse(arr)

    def _value(self, arr):
        """v q(v) - phi(q(v)), +inf where both terms overflow."""
        u = self._inverse(arr)
        with np.errstate(invalid="ignore"):
            out = arr * u - self.base._value(u)
        return np.where(np.isnan(out), np.inf, out)


class TabulatedConjugate(Conjugate):
    """Conjugate of TabulatedOrlicz in closed form.

    With knots (t_j, y_j) and chord slopes s_1 < s_2 < ... < s_n, phi* is
    piecewise linear with the roles swapped: phi*(v) = v t_j - y_j for v in
    [s_j, s_{j+1}] (s_0 = 0), q(v) = t_j for v in [s_j, s_{j+1}), and
    phi* = +inf beyond s_n, where value raises ConvergenceError, as
    derivative and young do from s_n on.
    """

    def _knot(self, v, strict):
        """Index of the first knot where p(u) > v (strict) or >= v."""
        slopes = self.base._slopes
        j = np.searchsorted(slopes, v, side="right" if strict else "left")
        if np.any(j == slopes.size):
            raise ConvergenceError(
                "conjugate undefined: the derivative never reaches "
                f"{np.max(v):g}; the base function is not an N-function at "
                "infinity")
        return j

    def _value(self, arr):
        j = self._knot(arr, strict=False)
        return arr * self.base._ts[j] - self.base._ys[j]

    def _derivative(self, arr):
        return self.base._ts[self._knot(arr, strict=True)]


def young_gap(phi, u, v):
    """phi(u) + phi*(v) - u*v; nonnegative, zero exactly when v = p(u)."""
    return phi.value(u) + phi.conjugate().value(v) - np.asarray(u) * np.asarray(v)


def delta2_classify(phi):
    """Doubling-condition report for one Orlicz function.

    Returns a dict with boolean keys "global", "at_infinity", "at_zero",
    read exactly from phi.growth: an end of growth type (r, b) or "zero"
    satisfies the doubling condition there; an "exp", "flat" or "cap" end
    fails it.
    """
    at_zero, at_infinity = (isinstance(kind, tuple) or kind == "zero"
                            for kind in phi.growth)
    return {"global": at_zero and at_infinity, "at_infinity": at_infinity,
            "at_zero": at_zero}
