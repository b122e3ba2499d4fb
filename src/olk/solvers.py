"""Scalar solvers shared across the package.

Every norm is the root of one nondecreasing function of a scaling, so one
bracketed root-finder serves them all: `increasing_root` finds where a
scalar function fn(c) turns nonnegative, on Python floats, one call of fn
per step (`NumericConjugate`, the numeric route to a conjugate, calls it
once per array entry).  It works in x = log2 of the scaling, where the
modulars of power-like functions are close to linear, and runs ITP
(Oliveira & Takahashi, "An enhancement of the bisection method average
performance preserving minmax optimality", ACM TOMS 47(1), 2020): a
regula falsi step, truncated toward the midpoint and projected into a
shrinking radius around it, so it never takes more than two steps beyond
what bisection would, and on smooth functions converges superlinearly.
On a step function it runs at bisection's rate; the one left to it is the
Young side of a `TabulatedOrlicz` on a parametric profile, since on a
finite element `norms` finds that root exactly.

The two norm engines instantiate it: `gauge_norm` on the log of the
modular and `amemiya_norm` on the Young side of the Amemiya form.
"""

import math

import numpy as np

from .errors import ConvergenceError

CAP = 2.0**60

# log2 of the probes of the bracket walk, taken from 1 toward CAP or 2^-60
_WALK = (2.0, 4.0, 8.0, 16.0, 32.0, 60.0)
# -log2 of the probes below 2^-60, for a function still satisfied there
_DEEP = (120.0, 240.0, 480.0, 960.0)


def _exp2(x):
    # np.exp2, not 2.0 ** x or math.exp2: they differ from it in the last
    # bit for some x, and the probes (frozen in tests/test_solvers.py) and
    # results are np.exp2's
    return float(np.exp2(x))


def increasing_root(fn, *, rel_tol=1e-10, strict=False):
    """Where the nondecreasing function fn(c), c > 0, turns nonnegative.

    fn is satisfied at c when fn(c) >= 0 (> 0 if strict); NaN counts as
    unsatisfied and infinite values are legal.  The bracket is found by a
    walk from c = 1 through c = 2^+-2, 2^+-4, ..., 2^+-32, 2^+-60,
    continued below 2^-60 through 2^-120, 2^-240, 2^-480, 2^-960 while fn
    is still satisfied, and narrowed by ITP in x = log2 c.

    Returns floats (lo, hi), the final bracket: fn is satisfied at hi and
    not at lo, and hi - lo <= rel_tol * hi, so hi is the smallest
    satisfying argument to within rel_tol.  The bound holds up to a few
    units in the last place of x = log2 c, where the bracket is narrowed,
    and of c, where it is mapped back; the first matters only where
    rel_tol nears the spacing of x (1e-13 at |x| near 1000).  A function
    still satisfied at 2^-960 gives lo = hi = 0, the infimum of its
    satisfying arguments.  Raises ConvergenceError if fn is not satisfied
    at CAP.
    """
    def probe(x):
        y = float(fn(_exp2(x)))
        return y, (y > 0.0 if strict else y >= 0.0)

    # lo, f_lo: unsatisfied end and its value; hi, f_hi: satisfied end
    lo = hi = 0.0
    y, down = probe(0.0)
    f_lo = f_hi = y     # c = 1 is one end; the walk sets the other
    steps = _WALK + _DEEP if down else _WALK
    for step in steps:
        x = -step if down else step
        y, sat = probe(x)
        if sat:
            hi, f_hi = x, y
        else:
            lo, f_lo = x, y
        if sat != down:
            break
    else:
        if not down:
            raise ConvergenceError(
                f"function not satisfied at any argument up to {CAP:g}")
        return 0.0, 0.0

    # ITP with kappa1 = 0.1 / (initial width), kappa2 = 2, n0 = 2
    tol = math.log2(1.0 + rel_tol)
    n_max = float(np.ceil(np.log2((hi - lo) / tol))) + 2.0
    kappa = 0.1 / (hi - lo)
    j = 0
    while hi - lo > tol and n_max > j:
        width = hi - lo
        half = 0.5 * width
        mid = lo + half
        falsi = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
        if not math.isfinite(falsi):
            falsi = mid
        sigma = float((mid > falsi) - (mid < falsi))
        delta = kappa * (width * width)
        target = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
        radius = tol * 0.5 * _exp2(n_max - j) - half
        x = target if abs(target - mid) <= radius else mid - sigma * radius
        # a point within tol / 2 of an end, as where the function is known
        # only to rounding near the root, is moved to tol / 2 inside it, so
        # each step shrinks the bracket by tol / 2 at least
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        y, sat = probe(x)
        if sat:
            hi, f_hi = x, y
        else:
            lo, f_lo = x, y
        j += 1
    return _exp2(lo), _exp2(hi)


def _log(value):
    return math.log(value) if value > 0.0 else -math.inf


def gauge_norm(modular_at, *, rel_tol=1e-10):
    """inf{eps > 0 : modular_at(1/eps) <= 1} for a scaling-monotone modular.

    modular_at(c) must evaluate the modular of c*f and may return math.inf.
    Solves log modular_at(1/eps) = 0 and returns the satisfying bracket
    end, so the modular at the result is <= 1.
    """
    _, hi = increasing_root(lambda eps: -_log(modular_at(1.0 / eps)),
                            rel_tol=rel_tol)
    return hi


def amemiya_norm(modular_at, young_at, *, rel_tol=1e-10):
    """inf_{k > 0} (1 + modular_at(k)) / k, found as a root.

    young_at(k) must evaluate the Young side sum (k v p(k v) - phi(k v)) m
    of the same element: the right derivative of the objective is
    (young_at(k) - 1) / k^2 and young_at is nondecreasing, so the infimum
    sits where young_at crosses 1 (the K(f) condition of Hudzik and
    Maligranda).  The objective is evaluated at the satisfying end of the
    root's bracket, or at the other end where the modular is infinite
    beyond the root.  Returns math.inf when both are infinite, or when
    young_at is >= 1 at every probed k.  Raises ConvergenceError when
    young_at stays below 1 up to CAP.
    """
    lo, hi = increasing_root(lambda k: _log(young_at(k)), rel_tol=rel_tol)
    if hi == 0.0:
        # the objective rises for all k > 0: its infimum is its limit
        # 1 / k at k -> 0
        return math.inf
    value = (1.0 + modular_at(hi)) / hi
    if math.isinf(value) and lo < hi:
        value = (1.0 + modular_at(lo)) / lo
    return value
