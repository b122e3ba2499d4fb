"""Dual modulars, dual norms, and singular-functional norm formulas.

The Koethe dual of an Orlicz-Lorentz space is described by the modular

    P(h) = inf { integral of phi(h* / v) v : v >= 0, V(t) <= W(t) for all t }

where V, W are the running integrals of v and the weight.  The infimum is
attained when v is the level function of h* with respect to w, which turns
P into the finite sum  sum_j phi(R_j) W_j  over the maximal level intervals
(ratio R_j, weight mass W_j).  `P_modular` evaluates that formula;
`P_modular_oracle` minimizes the defining convex program directly with one
SLSQP solve so the two routes can be compared.

Norms of bounded functionals built from a dual element h and a singular
part of norm s obey an asymmetric pair of formulas: against the Orlicz
(Amemiya) norm the functional norm is the plain sum of the parts, while
against the Luxemburg norm it is the gauge

    inf { lam > 0 : P(h / lam) + s / lam <= 1 }

which can fall strictly below the sum of the parts.  `non_m_ideal_witness`
constructs elements h = u w on an initial segment that exhibit a strictly
positive gap, certifying that the order-continuous part is not an M-ideal
once the space contains singular functionals.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from . import level as level_mod
from . import solvers
from .errors import (ConvergenceError, DomainError, InfeasibleParameterError,
                     NotInSpaceError)
from .norms import luxemburg_norm, orlicz_norm_amemiya, rho_modular, _is_zero
from .rearrange import (FiniteSequence, SequenceWeight, StepFunction, Weight,
                        StepWeight)

__all__ = [
    "YoungWitness", "FunctionalNormReport", "P_modular", "P_modular_oracle",
    "dual_luxemburg_norm", "dual_orlicz_norm", "young_witness",
    "rearranged_pairing", "functional_norm_luxemburg_side",
    "functional_norm_orlicz_side", "functional_norm_report",
    "non_m_ideal_witness", "holder_check",
]


# ---------------------------------------------------------------------------
# the dual modular through the level formula

def P_modular(phi, weight, h):
    """Dual modular of h: sum of phi(ratio) * weight mass over the maximal
    level intervals of h* with respect to the weight."""
    if not phi.is_n_function:
        raise DomainError("the level formula for P requires an N-function")
    if isinstance(h, StepFunction):
        if not isinstance(weight, Weight):
            raise DomainError("function elements need a function weight")
        canon = h.rearranged()
        if not canon.atoms:
            return 0.0
        dec = level_mod.level_function(canon, weight)
    elif isinstance(h, FiniteSequence):
        if not isinstance(weight, SequenceWeight):
            raise DomainError("sequence elements need a sequence weight")
        canon = h.rearranged()
        if not canon.entries:
            return 0.0
        dec = level_mod.level_sequence(canon, weight)
    else:
        raise DomainError("P is computed for finite elements")
    total = 0.0
    with np.errstate(over="ignore"):
        for iv in dec.intervals:
            total += float(phi.value(iv.ratio)) * iv.w_mass
    return total if math.isfinite(total) else math.inf


# ---------------------------------------------------------------------------
# direct minimization oracle

def _pieces(h, weight):
    """Constant-value pieces of h* refined at weight breakpoints.

    Returns (h_masses, w_caps) where w_caps are the running weight
    integrals at the piece right endpoints.
    """
    if isinstance(h, StepFunction):
        canon = h.rearranged()
        values = [v for v, _ in canon.atoms]
        cuts = np.cumsum([m for _, m in canon.atoms])
        end = float(cuts[-1])
        grid = sorted({float(c) for c in cuts}
                      | {b for b in weight.breakpoints() if b < end})
        masses, rights = [], []
        left = 0.0
        k = 0
        for right in grid:
            while cuts[k] <= left + 1e-18:
                k += 1
            masses.append(values[k] * (right - left))
            rights.append(right)
            left = right
        caps = weight.cumulative(np.array(rights))
        return np.array(masses), np.asarray(caps, dtype=float)
    canon = h.rearranged()
    values = np.array(canon.entries)
    caps = np.cumsum(weight.head(values.size))
    return values, caps


def P_modular_oracle(phi, weight, h):
    """Value of the defining minimization for P, found numerically.

    Minimizes sum phi(H_i / v_i) v_i over piece masses v dominated by the
    weight in running integral.  The program is convex, so one SLSQP solve
    started from the weight mass of each piece finds its minimum.  The
    solver's point is scaled back into the constraint set, so the value
    returned is attained by a feasible v.  Independent of the level-function
    route.
    """
    if not phi.is_n_function:
        raise DomainError("the dual modular requires an N-function")
    if _is_zero(h):
        return 0.0
    h_mass, caps = _pieces(h, weight)
    keep = h_mass > 0.0
    h_mass, caps = h_mass[keep], caps[keep]
    n = h_mass.size
    # the unknowns are u = v / (weight mass of each piece): all of order one,
    # which keeps SLSQP's steps and constraint residuals well scaled
    w_masses = np.diff(np.concatenate(([0.0], caps)))
    cum = np.tril(np.ones((n, n))) * w_masses

    def objective(u):
        v = w_masses * u
        with np.errstate(over="ignore"):
            total = float(np.sum(phi.value(h_mass / v) * v))
        return max(total, 1e-300)

    # minimizing log(objective) has the same minimizer, with gradients of
    # moderate size even when the gauge takes astronomically large values
    def log_gradient(u):
        x = h_mass / (w_masses * u)
        with np.errstate(over="ignore", invalid="ignore"):
            g = phi.value(x) - x * phi.derivative(x)
        return np.where(np.isfinite(g), g, -1e300) * w_masses / objective(u)

    floor = 1e-12 * max(float(caps[-1]), 1.0) / w_masses
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = optimize.minimize(
            lambda u: math.log(objective(u)),
            np.maximum(1.0, 2.0 * floor),
            jac=log_gradient,
            method="SLSQP",
            bounds=[(lo, None) for lo in floor],
            constraints=[{"type": "ineq",
                          "fun": lambda u: caps - cum @ u,
                          "jac": lambda u: -cum}],
            options={"maxiter": 300, "ftol": 1e-14})
    running = cum @ res.x
    if not (np.all(np.isfinite(res.x))
            and np.max(running - caps) <= 1e-8 * (caps[-1] + 1.0)):
        raise ConvergenceError(
            "the minimizer left the running-sum constraint")
    return objective(min(1.0, float(np.min(caps / running))) * res.x)


# ---------------------------------------------------------------------------
# dual norms

def dual_luxemburg_norm(phi, weight, h, *, rel_tol=1e-12):
    """Gauge norm inf{eps : P(h / eps) <= 1} on the dual modular."""
    if _is_zero(h):
        return 0.0
    try:
        return solvers.gauge_norm(lambda c: P_modular(phi, weight,
                                                      h.scaled(c)),
                                  rel_tol=rel_tol)
    except ConvergenceError as exc:
        raise NotInSpaceError("no tested scaling has P <= 1") from exc


def dual_orlicz_norm(phi, weight, h, *, rel_tol=1e-12):
    """Amemiya-form norm inf_k (1 + P(k h)) / k on the dual modular."""
    if _is_zero(h):
        return 0.0
    return solvers.amemiya_norm(lambda k: P_modular(phi, weight,
                                                    h.scaled(k)),
                                rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# Young equality witness

@dataclass(frozen=True)
class YoungWitness:
    """Competitor v certifying that the level function attains P.

    The two modulars agree:  level_modular = P through the level formula and
    young_modular = integral of conj(h / v) v over the original layout.  The
    companion pair checks the induced equality for the conjugate derivative,
    computed once directly and once through a rearrangement.
    """

    h: object
    v: object
    decomposition: object
    level_modular: float
    young_modular: float
    companion_direct: float
    companion_rearranged: float


def _witness_layout(h):
    if isinstance(h, StepFunction):
        values = [v for v, _ in h.atoms]
        masses = [m for _, m in h.atoms]
        if any(v <= 0.0 for v in values):
            raise DomainError("witness construction needs positive values")
        return values, masses
    if isinstance(h, FiniteSequence):
        entries = list(h.entries)
        while entries and entries[-1] == 0.0:
            entries.pop()
        if any(x <= 0.0 for x in entries):
            raise DomainError(
                "witness construction needs positive values on the support")
        return entries, [1.0] * len(entries)
    raise DomainError("the witness is built for finite elements")


def _ratio_by_value(dec, canon):
    """Map each distinct element value to the ratio of its level interval."""
    out = {}
    if isinstance(canon, StepFunction):
        cuts = np.concatenate(([0.0], np.cumsum([m for _, m in canon.atoms])))
        spans = list(zip([v for v, _ in canon.atoms], cuts, cuts[1:]))
    else:
        spans = [(v, float(i), float(i + 1))
                 for i, v in enumerate(canon.entries)]
    for value, left, right in spans:
        home = None
        for iv in dec.intervals:
            if iv.lower <= left + 1e-12 and right <= iv.upper + 1e-12:
                home = iv
                break
        if home is None:
            raise ConvergenceError(
                "level interval endpoints strayed from value boundaries")
        out[value] = home.ratio
    return out


def young_witness(phi, weight, h):
    """Build the optimal competitor v for P over h and check both equalities.

    v is constant on each piece of h, equal to the value divided by the
    ratio of the level interval containing that piece in rearranged order.
    """
    if not phi.is_n_function:
        raise DomainError("the witness requires an N-function")
    conj = phi.conjugate()
    values, masses = _witness_layout(h)
    if not values:
        raise DomainError("the witness is undefined for the zero element")
    sequence = isinstance(h, FiniteSequence)
    canon = (FiniteSequence(tuple(values)) if sequence else
             StepFunction(tuple(zip(values, masses)), h.gamma)).rearranged()
    if sequence:
        dec = level_mod.level_sequence(canon, weight)
    else:
        dec = level_mod.level_function(canon, weight)
    ratio_of = _ratio_by_value(dec, canon)
    ratios = np.array([ratio_of[v] for v in values])
    vals = np.array(values)
    mass = np.array(masses)
    v_layout = vals / ratios

    level_modular = P_modular(conj, weight, h)
    young_modular = float(np.sum(conj.value(ratios) * v_layout * mass))
    q_ratios = conj.derivative(ratios)
    companion_direct = float(np.sum(phi.value(q_ratios) * v_layout * mass))
    if sequence:
        q_elem = FiniteSequence(tuple(float(x) for x in q_ratios))
        companion_rearranged = rho_modular(phi, weight, q_elem)
        v_elem = FiniteSequence(tuple(float(x) for x in v_layout))
    else:
        q_elem = StepFunction(tuple(zip((float(x) for x in q_ratios), masses)),
                              h.gamma)
        companion_rearranged = rho_modular(phi, weight, q_elem)
        v_elem = StepFunction(tuple(zip((float(x) for x in v_layout), masses)),
                              h.gamma)
    witness = YoungWitness(h, v_elem, dec, level_modular, young_modular,
                           companion_direct, companion_rearranged)
    scale = max(abs(level_modular), 1.0)
    if abs(level_modular - young_modular) > 1e-8 * scale or \
            abs(companion_direct - companion_rearranged) > 1e-8 * scale:
        raise ConvergenceError("witness equalities drifted beyond tolerance")
    return witness


# ---------------------------------------------------------------------------
# pairings and Hoelder bounds

def rearranged_pairing(f, h):
    """Integral of f* h* against plain measure (no weight)."""
    if isinstance(f, FiniteSequence) and isinstance(h, FiniteSequence):
        a = np.array(f.rearranged().entries)
        b = np.array(h.rearranged().entries)
        n = min(a.size, b.size)
        return float(a[:n] @ b[:n])
    if isinstance(f, StepFunction) and isinstance(h, StepFunction):
        fa = f.rearranged().atoms
        ha = h.rearranged().atoms
        cuts = sorted({0.0}
                      | set(np.cumsum([m for _, m in fa]))
                      | set(np.cumsum([m for _, m in ha])))
        total = 0.0
        for left, right in zip(cuts, cuts[1:]):
            mid = 0.5 * (left + right)
            fv = _step_value_at(fa, mid)
            hv = _step_value_at(ha, mid)
            total += fv * hv * (right - left)
        return total
    raise DomainError("the pairing is computed for finite elements of one "
                      "setting")


def _step_value_at(atoms, t):
    edge = 0.0
    for value, measure in atoms:
        edge += measure
        if t < edge:
            return value
    return 0.0


def holder_check(phi, weight, f, h, *, rel_tol=1e-9):
    """Hoelder inequality in both norm pairings.

    The rearranged pairing is bounded by the Luxemburg norm of f times the
    Amemiya-form dual norm of h, and by the Amemiya norm of f times the
    gauge-form dual norm of h.  Returns the pairing, both products, and
    whether the bounds hold up to rel_tol slack.
    """
    conj = phi.conjugate()
    pairing = float(rearranged_pairing(f, h))
    lux_orlicz = float(luxemburg_norm(phi, weight, f)
                       * dual_orlicz_norm(conj, weight, h))
    orlicz_lux = float(orlicz_norm_amemiya(phi, weight, f)
                       * dual_luxemburg_norm(conj, weight, h))
    slack = rel_tol * max(1.0, abs(pairing))
    return {
        "pairing": pairing,
        "bound_luxemburg_times_dual_orlicz": lux_orlicz,
        "bound_orlicz_times_dual_luxemburg": orlicz_lux,
        "satisfied": bool(pairing <= lux_orlicz + slack
                          and pairing <= orlicz_lux + slack),
    }


# ---------------------------------------------------------------------------
# norms of functionals with a singular part

def functional_norm_luxemburg_side(phi, weight, h, s):
    """Norm of the functional (h, s) against the Amemiya norm: the parts
    add up."""
    _check_singular_part(s)
    return dual_orlicz_norm(phi.conjugate(), weight, h) + s


def functional_norm_orlicz_side(phi, weight, h, s, *, rel_tol=1e-12):
    """Norm of the functional (h, s) against the Luxemburg norm:
    inf{lam : P(h / lam) + s / lam <= 1}."""
    _check_singular_part(s)
    conj = phi.conjugate()
    if _is_zero(h) and s == 0.0:
        return 0.0

    def within(lam):
        return P_modular(conj, weight, h.scaled(1.0 / lam)) + s / lam

    return solvers.smallest_satisfying(lambda lam: within(lam) <= 1.0,
                                       rel_tol=rel_tol)


def _check_singular_part(s):
    if not (isinstance(s, (int, float)) and math.isfinite(s) and s >= 0.0):
        raise DomainError("the singular part must be a finite nonnegative "
                          "number")


@dataclass(frozen=True)
class FunctionalNormReport:
    """Both norm formulas for the functional (h, s), with their difference.

    additive_sum is the gauge-side value the parts would give if they added
    up; gap = additive_sum - orlicz_side_norm is zero exactly when they do.
    """

    h: object
    s: float
    lux_side_norm: float
    orlicz_side_norm: float
    additive_sum: float
    gap: float
    extras: dict = field(default_factory=dict, compare=False, repr=False)


def functional_norm_report(phi, weight, h, s, **extras):
    _check_singular_part(s)
    conj = phi.conjugate()
    lux_side = dual_orlicz_norm(conj, weight, h) + s
    orlicz_side = functional_norm_orlicz_side(phi, weight, h, s)
    additive = dual_luxemburg_norm(conj, weight, h) + s
    return FunctionalNormReport(h, s, lux_side, orlicz_side, additive,
                                additive - orlicz_side, dict(extras))


def _increasing_inverse(fn, target, *, hint=1.0):
    return solvers.smallest_satisfying(lambda x: fn(x) >= target, hint=hint,
                                       rel_tol=1e-13)


def non_m_ideal_witness(phi, weight, s, u):
    """Construct h = u w on an initial segment whose functional (h, s) has a
    strictly positive gap between the additive sum and the gauge norm.

    The segment length is chosen so the gauge-side dual norm of h equals
    1 - s exactly.  Sequence weights cannot hit that target for arbitrary u,
    so u is adjusted to the nearest value that makes a whole prefix work;
    the value used is reported under extras["u_used"].
    """
    if not (0.0 < s < 1.0):
        raise InfeasibleParameterError("the singular part must lie in (0, 1)")
    if not (isinstance(u, (int, float)) and math.isfinite(u) and u > 0.0):
        raise InfeasibleParameterError("the height u must be positive")
    conj = phi.conjugate()
    extras = {"u_requested": float(u)}

    if isinstance(weight, SequenceWeight):
        target = 1.0 / float(conj.value(u / (1.0 - s)))
        n0 = 1
        while weight.prefix(n0) < target and n0 < 10**7:
            n0 *= 2
        if weight.prefix(n0) < target:
            raise InfeasibleParameterError(
                "u is too small: no tested prefix reaches the target")
        lo, hi = max(n0 // 2, 1), n0
        while lo < hi:
            mid = (lo + hi) // 2
            if weight.prefix(mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        candidates = [n for n in (lo - 1, lo) if n >= 1]
        n0 = min(candidates, key=lambda n: abs(weight.prefix(n) - target))
        prefix = weight.prefix(n0)
        u_used = (1.0 - s) * _increasing_inverse(
            lambda x: float(conj.value(x)), 1.0 / prefix, hint=u / (1.0 - s))
        head = weight.head(n0)
        h = FiniteSequence(tuple(float(u_used * wv) for wv in head))
        extras.update(n0=n0, u_used=u_used)
    elif isinstance(weight, StepWeight):
        target = 1.0 / float(conj.value(u / (1.0 - s)))
        if math.isfinite(weight.gamma):
            total = weight.cumulative(weight.gamma)
            if target > total * (1.0 + 1e-12):
                raise InfeasibleParameterError(
                    "u is too small: the required segment exceeds the domain")
        t0 = weight.inverse_cumulative(target)
        u_used = float(u)
        atoms = []
        start = 0.0
        for length, lvl in weight.pieces:
            if start >= t0:
                break
            span = min(length, t0 - start)
            atoms.append((u_used * lvl, span))
            start += span
        h = StepFunction(tuple(atoms), weight.gamma)
        extras.update(t0=t0, u_used=u_used)
    else:
        raise DomainError("the witness construction supports step and "
                          "sequence weights")

    predual_norm = dual_luxemburg_norm(conj, weight, h)
    p_value = P_modular(conj, weight, h)
    extras.update(predual_norm=predual_norm, p_value=p_value,
                  predual_norm_target=1.0 - s)
    if abs(predual_norm - (1.0 - s)) > 1e-8:
        raise ConvergenceError("witness normalization missed its target")
    if not p_value < (1.0 - s) * (1.0 - 1e-12):
        raise ConvergenceError(
            "witness modular must sit strictly below the norm")
    report = functional_norm_report(phi, weight, h, s, **extras)
    if not report.gap > 0.0:
        raise ConvergenceError("witness gap must be strictly positive")
    return report
