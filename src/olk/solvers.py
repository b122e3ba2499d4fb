"""Scalar solvers shared across the package.

Monotone bisection (also run element-wise over an array of predicates in
lockstep), golden-section minimization, bracket expansion and the two norm
engines (gauge and Amemiya style) that the norm modules instantiate
with concrete modulars.
"""

import math

import numpy as np

from .errors import ConvergenceError

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

CAP = 2.0**60
FLOOR = 2.0**-60


def smallest_satisfying(predicate, *, hint=1.0, rel_tol=1e-10, abs_tol=0.0,
                        cap=CAP, floor=FLOOR):
    """Boundary of a monotone predicate: smallest x > 0 with predicate(x).

    predicate must be False on (0, x0) and True on [x0, inf).  Returns the
    upper end of the final bracket, so the result satisfies the predicate.
    Raises ConvergenceError if no x <= cap satisfies it; returns floor if
    every probed x >= floor does.
    """
    x = float(hint)
    if predicate(x):
        hi, lo = x, x / 2.0
        while predicate(lo):
            hi, lo = lo, lo / 2.0
            if lo < floor:
                return floor
    else:
        lo, hi = x, x * 2.0
        while not predicate(hi):
            lo, hi = hi, hi * 2.0
            if hi > cap:
                raise ConvergenceError(
                    f"predicate not satisfied for any argument up to {cap:g}")
    while hi - lo > max(abs_tol, rel_tol * abs(hi)):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


def smallest_satisfying_each(predicate, size, *, rel_tol=1e-10):
    """`smallest_satisfying` for `size` monotone predicates at once.

    predicate(x, idx) returns a boolean array: whether predicate number
    idx[k] holds at x[k], for each k.  All predicates walk their brackets
    in lockstep and then bisect in lockstep, one predicate call per step,
    with the scalar routine's arithmetic and its default hint, cap and
    floor, so entry i of the result equals
    smallest_satisfying(predicate i, rel_tol=rel_tol).  Raises
    ConvergenceError if any predicate fails for every x <= CAP.
    """
    lo = np.ones(size)
    down = predicate(lo, np.arange(size))
    hi = np.where(down, lo, 2.0 * lo)
    lo = np.where(down, 0.5 * lo, lo)
    floored = np.zeros(size, dtype=bool)
    walking = np.arange(size)
    while walking.size:
        d = down[walking]
        sat = predicate(np.where(d, lo[walking], hi[walking]), walking)
        shift_down = walking[d & sat]
        hi[shift_down] = lo[shift_down]
        lo[shift_down] *= 0.5
        floored[shift_down] = lo[shift_down] < FLOOR
        shift_up = walking[~d & ~sat]
        lo[shift_up] = hi[shift_up]
        hi[shift_up] *= 2.0
        if np.any(hi[shift_up] > CAP):
            raise ConvergenceError(
                f"predicate not satisfied for any argument up to {CAP:g}")
        walking = np.concatenate((shift_down[~floored[shift_down]],
                                  shift_up))
    while True:
        wide = np.flatnonzero(~floored & (hi - lo > rel_tol * np.abs(hi)))
        if not wide.size:
            break
        mid = 0.5 * (lo[wide] + hi[wide])
        sat = predicate(mid, wide)
        hi[wide[sat]] = mid[sat]
        lo[wide[~sat]] = mid[~sat]
    hi[floored] = FLOOR
    return hi


def bracket_minimum(objective, *, hint=1.0, grow=2.0, cap=CAP, floor=FLOOR):
    """Geometric three-point bracket (a, b, c) with f(b) <= f(a), f(b) <= f(c).

    objective may return math.inf on part of its domain; the walk treats an
    infinite value as uphill.  Raises ConvergenceError if no finite value is
    found or the walk runs off the allowed range.
    """
    b = float(hint)
    fb = objective(b)
    while not math.isfinite(fb):
        b /= grow
        if b < floor:
            raise ConvergenceError("objective infinite on the probed range")
        fb = objective(b)
    a, fa = b / grow, objective(b / grow)
    c, fc = b * grow, objective(b * grow)
    while fa < fb:
        if a <= floor:
            raise ConvergenceError("minimum ran off the lower range end")
        b, c, fb, fc = a, b, fa, fb
        a = a / grow
        fa = objective(a)
    while fc < fb:
        if c >= cap:
            raise ConvergenceError("minimum ran off the upper range end")
        a, b, fa, fb = b, c, fb, fc
        c = c * grow
        fc = objective(c)
    return a, b, c


def golden_section_min(objective, lo, hi, *, rel_tol=1e-10, max_iter=300):
    """Golden-section minimum of a unimodal objective on [lo, hi].

    Returns (argmin, value).  Infinite objective values are legal and compare
    as uphill.
    """
    a, b = float(lo), float(hi)
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(max_iter):
        if b - a <= rel_tol * max(abs(a), abs(b), 1e-300):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = objective(x2)
    if f1 <= f2:
        return x1, f1
    return x2, f2


def gauge_norm(modular_at, *, rel_tol=1e-10):
    """inf{eps > 0 : modular_at(1/eps) <= 1} for a scaling-monotone modular.

    modular_at(c) must evaluate the modular of c*f and may return math.inf.
    Returns the upper bracket end, so the modular at the result is <= 1.
    """
    return smallest_satisfying(lambda eps: modular_at(1.0 / eps) <= 1.0,
                               rel_tol=rel_tol)


def amemiya_norm(modular_at, *, rel_tol=1e-10):
    """inf_{k > 0} (1 + modular_at(k)) / k via bracketed golden section."""
    def objective(k):
        value = modular_at(k)
        if not math.isfinite(value):
            return math.inf
        return (1.0 + value) / k

    a, b, c = bracket_minimum(objective)
    _, value = golden_section_min(objective, a, c, rel_tol=rel_tol)
    return value

