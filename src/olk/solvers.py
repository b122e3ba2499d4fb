"""Scalar solvers shared across the package.

Every norm is the root of one nondecreasing function of a scaling, so one
bracketed root-finder serves them all: `increasing_roots` solves many such
functions at once in lockstep (`NumericConjugate`, the numeric route to a
conjugate, solves one per array entry), and `increasing_root` is its size-1
form for the scalar norm solves.  It works in x = log2 of the scaling,
where the modulars of power-like functions are close to linear, and runs ITP
(Oliveira & Takahashi, "An enhancement of the bisection method average
performance preserving minmax optimality", ACM TOMS 47(1), 2020): a
regula falsi step, truncated toward the midpoint and projected into a
shrinking radius around it, so it never takes more than two steps beyond
what bisection would, and on smooth functions converges superlinearly.
On a step function (the Young side of a piecewise-linear phi) it runs at
bisection's rate.

The two norm engines instantiate it: `gauge_norm` on the log of the
modular and `amemiya_norm` on the Young side of the Amemiya form.
"""

import math

import numpy as np

from .errors import ConvergenceError

CAP = 2.0**60

# log2 of the probes of the bracket walk, taken from 1 toward CAP or 2^-60
_WALK = (2.0, 4.0, 8.0, 16.0, 32.0, 60.0)
# -log2 of the probes below 2^-60, for functions still satisfied there
_DEEP = (120.0, 240.0, 480.0, 960.0)


def increasing_roots(fn, size, *, rel_tol=1e-10, strict=False):
    """Where each of `size` nondecreasing functions turns nonnegative.

    fn(c, idx) returns, for each k, the value at c[k] > 0 of function
    number idx[k].  Function i is satisfied at c when its value there is
    >= 0 (> 0 if strict); NaN counts as unsatisfied and infinite values
    are legal.  Each bracket is found by a walk from c = 1 through
    c = 2^±2, 2^±4, ..., 2^±32, 2^±60, continued below 2^-60 through
    2^-120, 2^-240, 2^-480, 2^-960 for functions still satisfied there,
    and narrowed by ITP in x = log2 c.  All functions step in lockstep,
    one call of fn per step on those whose bracket is still open, and the
    arithmetic is element-wise, so entry i of the result is what the call
    with size 1 returns for function i alone.

    Returns arrays (lo, hi), the final brackets: function i is satisfied
    at hi[i] and not at lo[i], and hi[i] - lo[i] <= rel_tol * hi[i], so
    hi is the smallest satisfying argument to within rel_tol.  An entry
    still satisfied at 2^-960 has lo = hi = 0, the infimum of its
    satisfying arguments.  Raises ConvergenceError if a function is not
    satisfied at CAP.
    """
    def satisfied(y):
        return y > 0.0 if strict else y >= 0.0

    # a, fa: unsatisfied end and its value; b, fb: satisfied end
    a = np.zeros(size)
    b = np.zeros(size)
    y = fn(np.ones(size), np.arange(size))
    sat = satisfied(y)
    fa = np.where(sat, np.nan, y)
    fb = np.where(sat, y, np.nan)
    down = sat

    def walk(steps, walking):
        for step in steps:
            if not walking.size:
                break
            x = np.where(down[walking], -step, step)
            y = fn(np.exp2(x), walking)
            sat = satisfied(y)
            now_b, now_a = walking[sat], walking[~sat]
            b[now_b], fb[now_b] = x[sat], y[sat]
            a[now_a], fa[now_a] = x[~sat], y[~sat]
            walking = walking[sat == down[walking]]
        return walking

    walking = walk(_WALK, np.arange(size))
    if not np.all(down[walking]):
        raise ConvergenceError(
            f"function not satisfied at any argument up to {CAP:g}")
    walking = walk(_DEEP, walking)
    a[walking] = b[walking] = -np.inf

    # ITP with kappa1 = 0.1 / (initial width), kappa2 = 2, n0 = 2, on the
    # open brackets only; lo, hi, f_lo, f_hi, ... hold their entries idx
    tol = math.log2(1.0 + rel_tol)
    with np.errstate(invalid="ignore"):
        idx = np.flatnonzero(b - a > tol)
    lo, hi, f_lo, f_hi = a[idx], b[idx], fa[idx], fb[idx]
    n_max = np.ceil(np.log2((hi - lo) / tol)) + 2.0
    kappa = 0.1 / (hi - lo)
    j = 0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        while idx.size:
            half = 0.5 * (hi - lo)
            mid = lo + half
            falsi = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
            falsi = np.where(np.isfinite(falsi), falsi, mid)
            sigma = np.sign(mid - falsi)
            delta = kappa * (hi - lo) ** 2
            target = np.where(delta <= np.abs(mid - falsi),
                              falsi + sigma * delta, mid)
            radius = tol * 0.5 * np.exp2(n_max - j) - half
            x = np.where(np.abs(target - mid) <= radius, target,
                         mid - sigma * radius)
            # a point within tol / 2 of an end, as where the function is
            # known only to rounding near the root, is moved to tol / 2
            # inside it, so each step shrinks the bracket by tol / 2 at least
            x = np.minimum(np.maximum(x, lo + 0.5 * tol), hi - 0.5 * tol)
            y = fn(np.exp2(x), idx)
            sat = satisfied(y)
            lo, f_lo = np.where(sat, lo, x), np.where(sat, f_lo, y)
            hi, f_hi = np.where(sat, x, hi), np.where(sat, y, f_hi)
            j += 1
            still = (hi - lo > tol) & (n_max > j)
            if not still.all():
                done = ~still
                a[idx[done]], b[idx[done]] = lo[done], hi[done]
                idx, lo, hi, f_lo, f_hi, n_max, kappa = (
                    arr[still] for arr in (idx, lo, hi, f_lo, f_hi, n_max,
                                           kappa))
    return np.exp2(a), np.exp2(b)


def increasing_root(fn, *, rel_tol=1e-10, strict=False):
    """`increasing_roots` for one scalar function fn(c): floats (lo, hi)."""
    lo, hi = increasing_roots(lambda c, _: np.array([fn(float(c[0]))]), 1,
                              rel_tol=rel_tol, strict=strict)
    return float(lo[0]), float(hi[0])


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
