"""Dual modulars, dual norms, and singular-functional norm formulas.

The Koethe dual of an Orlicz-Lorentz space is described by the modular

    P(h) = inf { integral of phi(h* / v) v : v >= 0, V(t) <= W(t) for all t }

where V, W are the running integrals of v and the weight.  The infimum is
attained when v is the level function of h* with respect to w, which turns
P into the finite sum  sum_j phi(R_j) W_j  over the maximal level intervals
(ratio R_j, weight mass W_j).  `P_modular` evaluates that formula;
`P_modular_oracle` minimizes the defining convex program directly with one
SLSQP solve so the two routes can be compared; it is the one place here
that imports SciPy.

Every finite element is read through the layout of
`rearrange.finite_layout`: h* split at the weight's breakpoints, or a
sequence's runs of equal entries.  The dual modulars, the dual norms and
the Young witness run the level module's one pool-adjacent-violators merge
on its pieces; the oracle shares only the piece list with them, never the
merge.  The rearranged pairing cuts the shorter of two step supports at the
other's edges with the same splitter.

Scaling h by c keeps the level intervals and multiplies every ratio by c,
so the dual norms decompose h once per call and solve a scalar problem on
the (R_j, W_j) arrays, P(c h) = sum_j phi(c R_j) W_j, with the ratios
divided by the largest one so the solve starts inside its bracket at any
magnitude.

A bounded functional on Lambda_{phi,w} built from a dual element h and a
singular part of norm s has a norm that depends on the norm of the space:
with the Luxemburg norm on Lambda_{phi,w} the parts add up (h then carries
the dual Orlicz norm), while with the Orlicz (Amemiya) norm on
Lambda_{phi,w} the functional norm is the gauge

    inf { lam > 0 : P(h / lam) + s / lam <= 1 }

(at s = 0 the dual Luxemburg norm of h), which can fall strictly below the
sum of the parts.  `non_m_ideal_witness` constructs elements h = u w on an
initial segment that exhibit a strictly positive gap, certifying that the
order-continuous part is not an M-ideal once the space contains singular
functionals.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import level as level_mod
from . import solvers
from .errors import (ConvergenceError, DomainError, InfeasibleParameterError,
                     NotInSpaceError)
from .norms import (_check_oracle_size, _finite_modular, _finite_scalings,
                    luxemburg_norm, orlicz_norm_amemiya, rho_modular)
from .profiles import SequenceWeight, StepWeight
from .rearrange import (FiniteSequence, StepFunction, _split, _step_cuts,
                        finite_layout)

__all__ = [
    "YoungWitness", "FunctionalNormReport", "P_modular", "P_modular_oracle",
    "dual_luxemburg_norm", "dual_orlicz_norm", "young_witness",
    "rearranged_pairing", "functional_norm_luxemburg_side",
    "functional_norm_orlicz_side", "functional_norm_report",
    "non_m_ideal_witness", "holder_check",
]


# ---------------------------------------------------------------------------
# the dual modular through the level formula

def _level_masses(phi, weight, h):
    """Ratios R_j (nonincreasing) and weight masses W_j of the maximal level
    intervals of h* with respect to the weight; empty for the zero element,
    for which phi need not be an N-function.

    Scaling h by c keeps the intervals and multiplies every ratio by c, so
    one decomposition serves every scaling: P(c h) = sum phi(c R_j) W_j.
    """
    layout = finite_layout(h.rearranged(), weight)
    if layout.values.size and not phi.is_n_function:
        raise DomainError("the level formula for P requires an N-function")
    _, _, h_masses, w_masses = level_mod._level_blocks(layout)
    return h_masses / w_masses, w_masses


def P_modular(phi, weight, h):
    """Dual modular of h: sum of phi(ratio) * weight mass over the maximal
    level intervals of h* with respect to the weight."""
    return _finite_modular(phi._value, *_level_masses(phi, weight, h))


# ---------------------------------------------------------------------------
# direct minimization oracle

def P_modular_oracle(phi, weight, h):
    """Value of the defining minimization for P, found numerically.

    Minimizes sum phi(H_i / v_i) v_i over piece masses v dominated by the
    weight in running integral.  The program is convex, so one SLSQP solve
    started from the weight mass of each piece finds its minimum.  The
    solver's point is scaled back into the constraint set, so the value
    returned is attained by a feasible v.  Independent of the level-function
    route: it shares the pieces of the layout, not the merge.

    A sequence piece is a run of equal entries, with one unknown.  That
    leaves the minimum unchanged: replacing v on a run by its mean does not
    raise the objective (v -> phi(c / v) v is convex), keeps the running
    sum at the run's ends and, as W is concave along the run, keeps it
    below W inside.

    Raises DomainError above norms.ORACLE_MAX_PIECES pieces, before SciPy
    loads.
    """
    if not phi.is_n_function:
        raise DomainError("the dual modular requires an N-function")
    layout = finite_layout(h.rearranged(), weight)
    _check_oracle_size(layout)
    h_mass = layout.h_masses
    keep = h_mass > 0.0
    h_mass, caps = h_mass[keep], layout.cumulative[1:][keep]
    n = h_mass.size
    if n == 0:
        return 0.0
    from scipy import optimize
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
    P_at, _, scale = _finite_scalings(phi, *_level_masses(phi, weight, h))
    if scale == 0.0:
        return 0.0
    try:
        return scale * solvers.gauge_norm(P_at, rel_tol=rel_tol)
    except ConvergenceError as exc:
        raise NotInSpaceError("no tested scaling has P <= 1") from exc


def dual_orlicz_norm(phi, weight, h, *, rel_tol=1e-12):
    """Amemiya-form norm inf_k (1 + P(k h)) / k on the dual modular, taken
    where the Young side sum (k R_j p(k R_j) - phi(k R_j)) W_j crosses 1."""
    P_at, young_at, scale = _finite_scalings(
        phi, *_level_masses(phi, weight, h))
    if scale == 0.0:
        return 0.0
    return scale * solvers.amemiya_norm(P_at, young_at, rel_tol=rel_tol)


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
        if np.any(h._values <= 0.0):
            raise DomainError("witness construction needs positive values")
        return h._values, h._measures
    if isinstance(h, FiniteSequence):
        support = np.flatnonzero(h._array)
        entries = h._array[:support[-1] + 1 if support.size else 0]
        if np.any(entries <= 0.0):
            raise DomainError(
                "witness construction needs positive values on the support")
        return entries, np.ones(entries.size)
    raise DomainError("the witness is built for finite elements")


def young_witness(phi, weight, h):
    """Build the optimal competitor v for P over h and check both equalities.

    v is constant on each piece of h, equal to the value divided by the
    ratio of the level interval containing that piece in rearranged order;
    each piece of the layout finds its interval by its index in the merge.
    """
    if not phi.is_n_function:
        raise DomainError("the witness requires an N-function")
    conj = phi.conjugate()
    vals, mass = _witness_layout(h)
    if not vals.size:
        raise DomainError("the witness is undefined for the zero element")
    sequence = isinstance(h, FiniteSequence)
    canon = h.rearranged()
    layout = finite_layout(canon, weight)
    blocks = level_mod._level_blocks(layout)
    dec = level_mod._decomposition(layout, blocks, canon, weight)
    # the pieces of one atom share a weight level or step down it, so they
    # fall into one block: each value takes the ratio of its pieces' block
    piece_values = layout.values.tolist()
    firsts, ends, h_masses, w_masses = blocks
    ratio_of = {}
    for first, end, ratio in zip(firsts.tolist(), ends.tolist(),
                                 (h_masses / w_masses).tolist()):
        ratio_of.update(dict.fromkeys(piece_values[first:end], ratio))
    ratios = np.array([ratio_of[v] for v in vals.tolist()])
    v_layout = vals / ratios

    level_modular = P_modular(conj, weight, h)
    young_modular = float(np.sum(conj.value(ratios) * v_layout * mass))
    q_ratios = conj.derivative(ratios)
    companion_direct = float(np.sum(phi.value(q_ratios) * v_layout * mass))
    if sequence:
        q_elem = FiniteSequence(q_ratios)
        companion_rearranged = rho_modular(phi, weight, q_elem)
        v_elem = FiniteSequence(v_layout)
    else:
        q_elem = StepFunction._from_arrays(q_ratios, mass, h.gamma)
        companion_rearranged = rho_modular(phi, weight, q_elem)
        v_elem = StepFunction._from_arrays(v_layout, mass, h.gamma)
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
        a = f.rearranged()._array
        b = h.rearranged()._array
        n = min(a.size, b.size)
        return float(a[:n] @ b[:n])
    if isinstance(f, StepFunction) and isinstance(h, StepFunction):
        fv, fc = _step_cuts(f.rearranged())
        hv, hc = _step_cuts(h.rearranged())
        if fc[-1] > hc[-1]:
            fv, fc, hv, hc = hv, hc, fv, fc
        # pieces of the shorter support, cut at the other element's edges
        edges, i = _split(fc, hc)
        j = np.searchsorted(hc, edges[:-1], side="right") - 1
        return float(np.sum(fv[i] * hv[j] * np.diff(edges)))
    raise DomainError("the pairing is computed for finite elements of one "
                      "setting")


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
    """Norm of the functional (h, s) on Lambda_{phi,w} with the Luxemburg
    norm: the parts add up (the dual Orlicz norm of h, plus s)."""
    _check_singular_part(s)
    return dual_orlicz_norm(phi.conjugate(), weight, h) + s


def functional_norm_orlicz_side(phi, weight, h, s, *, rel_tol=1e-12):
    """Norm of the functional (h, s) on Lambda_{phi,w} with the Orlicz
    (Amemiya) norm: the gauge inf{lam : P(h / lam) + s / lam <= 1} (the dual
    Luxemburg norm of h when s = 0)."""
    _check_singular_part(s)
    conj = phi.conjugate()
    ratios, masses = _level_masses(conj, weight, h)
    # lam lies between max(dual norm of h, s) and their sum, so lam / scale
    # does not grow or shrink with the magnitude of (h, s) and the solve
    # starts inside its bracket
    scale = max(float(ratios[0]) if ratios.size else 0.0, s)
    if scale == 0.0:
        return 0.0
    unit, s_unit = ratios / scale, s / scale
    return scale * solvers.gauge_norm(
        lambda c: _finite_modular(conj._value, c * unit, masses) + c * s_unit,
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
    lux_side = functional_norm_luxemburg_side(phi, weight, h, s)
    orlicz_side = functional_norm_orlicz_side(phi, weight, h, s)
    additive = dual_luxemburg_norm(phi.conjugate(), weight, h) + s
    return FunctionalNormReport(h, s, lux_side, orlicz_side, additive,
                                additive - orlicz_side, dict(extras))


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
        # the smallest c with conj(c u / (1 - s)) >= 1 / prefix
        _, c = solvers.increasing_root(
            lambda c: float(conj.value(c * u / (1.0 - s))) * prefix - 1.0,
            rel_tol=1e-13)
        u_used = c * u
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
