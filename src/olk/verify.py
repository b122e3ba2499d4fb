"""Randomized verification suite over every module's stated properties.

Each case draws small random instances (dyadic rationals, so ratio
comparisons are exact in floating point), computes a named discrepancy, and
reports a row {case_id, quantity, inputs, value, tolerance, status}.  The
inputs field is a digest of the serialized instance, enough to reproduce it.

Level decompositions are checked against an independent oracle: the greedy
maximal-slope chain of the cumulative mass graph (the least concave
majorant), a different algorithm from the production stack merge.  The dual
modular is checked against direct minimization.  All randomness is derived
from a per-case seed sequence, so reports are byte-identical for a fixed
seed regardless of execution order; cases may run concurrently.
"""

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import level as level_mod
from . import specio
from .duality import (P_modular, P_modular_oracle, functional_norm_report,
                      holder_check, non_m_ideal_witness, young_witness)
from .errors import UndecidedError
from .norms import (amemiya_pairing_report, k_interval, luxemburg_norm,
                    orlicz_norm_amemiya, orlicz_norm_dual_sup_oracle,
                    rho_modular, theta)
from .orlicz import (ExpOrlicz, LogOrlicz, NumericConjugate, PowerOrlicz,
                     young_gap)
from .rearrange import (ConstantSeqWeight, ExplicitSeqWeight, FiniteSequence,
                        HarmonicSeqWeight, PowerSeqWeight, StepFunction,
                        StepWeight, disjoint_sum, distribution,
                        equimeasurable)

__all__ = ["verify_suite", "CASES"]

CASES = []


def _case(case_id):
    def register(fn):
        CASES.append((case_id, fn))
        return fn
    return register


# ---------------------------------------------------------------------------
# random instance generators (dyadic rationals)

def _dyadic(rng, lo, hi, size=None):
    """Multiples of 1/16 drawn uniformly from [lo/16, hi/16]."""
    return rng.integers(lo, hi + 1, size=size) / 16.0


def _rand_phi(rng):
    pick = int(rng.integers(0, 4))
    if pick == 0:
        return PowerOrlicz(2.0, 0.5)
    if pick == 1:
        exponent = float(rng.integers(3, 7)) / 2.0
        return PowerOrlicz(exponent, float(_dyadic(rng, 4, 32)))
    if pick == 2:
        return ExpOrlicz()
    return LogOrlicz()


def _rand_step(rng, size, *, top=64):
    n = int(rng.integers(1, max(size, 1) + 1))
    values = _dyadic(rng, 1, top, n)
    measures = _dyadic(rng, 1, 32, n)
    return StepFunction(tuple(zip(values.tolist(), measures.tolist())))


def _rand_seq(rng, size, *, top=64):
    n = int(rng.integers(1, max(size, 1) + 1))
    values = _dyadic(rng, 1, top, n)
    return FiniteSequence(tuple(values.tolist()))


def _rand_weight(rng):
    n = int(rng.integers(1, 4))
    levels = np.sort(_dyadic(rng, 2, 64, n))[::-1]
    lengths = _dyadic(rng, 4, 32, n)
    pieces = list(zip(lengths.tolist(), levels.tolist()))
    pieces.append((math.inf, float(levels[-1]) / 2.0))
    return StepWeight(tuple(pieces))


def _rand_seq_weight(rng):
    pick = int(rng.integers(0, 4))
    if pick == 0:
        return ConstantSeqWeight(float(_dyadic(rng, 8, 32)))
    if pick == 1:
        return HarmonicSeqWeight()
    if pick == 2:
        return PowerSeqWeight(float(rng.integers(0, 16)) / 16.0)
    head = np.sort(_dyadic(rng, 4, 32, int(rng.integers(1, 5))))[::-1]
    return ExplicitSeqWeight(tuple(head.tolist()))


def _rand_instance(rng, size):
    if int(rng.integers(0, 2)) == 0:
        return _rand_phi(rng), _rand_weight(rng), _rand_step(rng, size)
    return _rand_phi(rng), _rand_seq_weight(rng), _rand_seq(rng, size)


def _digest(**parts):
    payload = {}
    for key, value in parts.items():
        if hasattr(value, "value") and hasattr(value, "conjugate"):
            payload[key] = specio.serialize_orlicz(value)
        elif hasattr(value, "cumulative") or hasattr(value, "prefix"):
            payload[key] = specio.serialize_weight(value)
        elif hasattr(value, "rearranged"):
            payload[key] = specio.serialize_element(value)
        else:
            payload[key] = value
    text = specio.dumps(payload, indent=None)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


# ---------------------------------------------------------------------------
# independent level oracle: greedy maximal-slope chain

def _oracle_blocks(h_masses, w_masses):
    """Blocks (start, end, ratio) of the least concave majorant of the
    cumulative (W, H) graph; ties extend to the longest chord."""
    H = np.concatenate(([0.0], np.cumsum(h_masses)))
    W = np.concatenate(([0.0], np.cumsum(w_masses)))
    blocks = []
    i = 0
    n = len(h_masses)
    while i < n:
        best_j, best_r = i + 1, -math.inf
        for j in range(i + 1, n + 1):
            r = (H[j] - H[i]) / (W[j] - W[i])
            if r >= best_r:
                best_j, best_r = j, max(r, best_r)
        blocks.append((i, best_j, best_r))
        i = best_j
    return blocks


def _oracle_level_function(h, w):
    canon = h.rearranged()
    values = [v for v, _ in canon.atoms]
    cuts = np.cumsum([m for _, m in canon.atoms])
    end = float(cuts[-1])
    grid = sorted({float(c) for c in cuts}
                  | {b for b in w.breakpoints() if b < end})
    h_masses, w_masses, rights = [], [], []
    left = 0.0
    k = 0
    for right in grid:
        while cuts[k] <= left + 1e-18:
            k += 1
        h_masses.append(values[k] * (right - left))
        w_masses.append(w.cumulative(right) - w.cumulative(left))
        rights.append(right)
        left = right
    edges = [0.0] + rights
    return [(edges[a], edges[b], r)
            for a, b, r in _oracle_blocks(h_masses, w_masses)]


def _oracle_level_sequence(h, w):
    canon = h.rearranged()
    values = np.array(canon.entries)
    w_masses = w.head(values.size)
    return [(float(a), float(b), r)
            for a, b, r in _oracle_blocks(values, w_masses)]


def _compare_blocks(got, want):
    if len(got) != len(want):
        return 1.0
    worst = 0.0
    for g, t in zip(got, want):
        worst = max(worst, abs(g[0] - t[0]), abs(g[1] - t[1]),
                    _rel(g[2], t[2]))
    return worst


# ---------------------------------------------------------------------------
# cases: Orlicz functions

@_case("orlicz.conjugate_duality")
def _conjugate_duality(rng, size):
    out = []
    for _ in range(3):
        phi = _rand_phi(rng)
        numeric = NumericConjugate(phi.conjugate())
        points = np.sort(_dyadic(rng, 1, 64, 5))
        worst = max(_rel(float(numeric.value(float(u))),
                         float(phi.value(float(u)))) for u in points)
        out.append(("double_conjugate_matches",
                    _digest(phi=phi, points=points.tolist()), worst, 1e-6))
    return out


@_case("orlicz.young_gap")
def _young_gap_case(rng, size):
    out = []
    for _ in range(3):
        phi = _rand_phi(rng)
        us = _dyadic(rng, 1, 48, 4)
        vs = _dyadic(rng, 1, 48, 4)
        floor_gap = min(float(young_gap(phi, u, v))
                        for u in us for v in vs)
        out.append(("gap_nonnegative", _digest(phi=phi, us=us.tolist(),
                                               vs=vs.tolist()),
                    max(0.0, -floor_gap), 1e-10))
        eq = max(abs(float(young_gap(phi, u, float(phi.derivative(u)))))
                 / max(float(phi.value(u)), 1.0) for u in us)
        out.append(("equality_at_derivative", _digest(phi=phi,
                                                      us=us.tolist()),
                    eq, 1e-9))
    return out


@_case("orlicz.derivative_monotone")
def _derivative_monotone(rng, size):
    out = []
    for _ in range(3):
        phi = _rand_phi(rng)
        grid = np.sort(_dyadic(rng, 1, 128, 12))
        slopes = phi.derivative(grid)
        drop = float(np.max(np.diff(slopes) * -1.0, initial=0.0))
        out.append(("slope_nondecreasing", _digest(phi=phi,
                                                   grid=grid.tolist()),
                    max(0.0, drop), 1e-12))
    return out


@_case("orlicz.inverse_composition")
def _inverse_composition(rng, size):
    out = []
    for _ in range(3):
        phi = _rand_phi(rng)
        conj = phi.conjugate()
        us = np.sort(_dyadic(rng, 1, 48, 6))
        worst = max(_rel(float(conj.derivative(float(phi.derivative(u)))),
                         float(u)) for u in us)
        out.append(("conjugate_slope_inverts", _digest(phi=phi,
                                                       us=us.tolist()),
                    worst, 1e-8))
    return out


# ---------------------------------------------------------------------------
# cases: rearrangement

@_case("rearrange.idempotent")
def _idempotent(rng, size):
    out = []
    for _ in range(4):
        f = (_rand_step(rng, size) if int(rng.integers(0, 2)) == 0
             else _rand_seq(rng, size))
        once = f.rearranged()
        twice = once.rearranged()
        out.append(("rearrange_twice_equals_once", _digest(f=f),
                    0.0 if once == twice else 1.0, 0.5))
    return out


@_case("rearrange.equimeasurable")
def _equimeasurable_case(rng, size):
    out = []
    for _ in range(4):
        f = (_rand_step(rng, size) if int(rng.integers(0, 2)) == 0
             else _rand_seq(rng, size))
        ok = (equimeasurable(f, f.rearranged())
              and equimeasurable(f, f.scaled(-1.0)))
        out.append(("rearrangement_is_equimeasurable", _digest(f=f),
                    0.0 if ok else 1.0, 0.5))
    return out


@_case("rearrange.distribution_monotone")
def _distribution_monotone(rng, size):
    out = []
    for _ in range(4):
        f = (_rand_step(rng, size) if int(rng.integers(0, 2)) == 0
             else _rand_seq(rng, size))
        lams = np.sort(_dyadic(rng, 1, 80, 8))
        ds = [distribution(f, float(lam)) for lam in lams]
        worst = max((ds[i + 1] - ds[i] for i in range(len(ds) - 1)),
                    default=0.0)
        out.append(("distribution_nonincreasing",
                    _digest(f=f, lams=lams.tolist()), max(0.0, worst),
                    1e-12))
    return out


@_case("rearrange.mass_preserved")
def _mass_preserved(rng, size):
    out = []
    for _ in range(4):
        f = _rand_step(rng, size)
        before = sum(m for v, m in f.atoms if v != 0.0)
        after = f.rearranged().total_measure
        out.append(("support_measure_preserved", _digest(f=f),
                    abs(before - after), 1e-12))
    return out


# ---------------------------------------------------------------------------
# cases: level functions

@_case("level.oracle_function")
def _level_oracle_function(rng, size):
    out = []
    for _ in range(5):
        h = _rand_step(rng, size)
        w = _rand_weight(rng)
        dec = level_mod.level_function(h.rearranged(), w)
        got = [(iv.lower, iv.upper, iv.ratio) for iv in dec.intervals]
        want = _oracle_level_function(h, w)
        out.append(("blocks_match_concave_majorant", _digest(h=h, w=w),
                    _compare_blocks(got, want), 1e-9))
    return out


@_case("level.oracle_sequence")
def _level_oracle_sequence(rng, size):
    out = []
    for _ in range(5):
        h = _rand_seq(rng, size)
        w = _rand_seq_weight(rng)
        dec = level_mod.level_sequence(h.rearranged(), w)
        got = [(iv.lower, iv.upper, iv.ratio) for iv in dec.intervals]
        want = _oracle_level_sequence(h, w)
        out.append(("blocks_match_concave_majorant", _digest(h=h, w=w),
                    _compare_blocks(got, want), 1e-9))
    return out


@_case("level.idempotent")
def _level_idempotent(rng, size):
    out = []
    for _ in range(4):
        h = _rand_step(rng, size)
        w = _rand_weight(rng)
        dec = level_mod.level_function(h.rearranged(), w)
        atoms = []
        for iv in dec.intervals:
            edges = sorted({iv.lower, iv.upper}
                           | {b for b in w.breakpoints()
                              if iv.lower < b < iv.upper})
            for left, right in zip(edges, edges[1:]):
                atoms.append((iv.ratio * w.value(0.5 * (left + right)),
                              right - left))
        level_elem = StepFunction(tuple(atoms)).rearranged()
        again = level_mod.level_function(level_elem, w)
        ts = [0.5 * (iv.lower + iv.upper) for iv in dec.intervals]
        worst = max(_rel(level_mod.evaluate_level(dec, t),
                         level_mod.evaluate_level(again, t)) for t in ts)
        out.append(("level_of_level_is_itself", _digest(h=h, w=w), worst,
                    1e-9))
    return out


@_case("level.profile_monotone")
def _level_profile_monotone(rng, size):
    out = []
    for _ in range(4):
        h = _rand_step(rng, size)
        w = _rand_weight(rng)
        dec = level_mod.level_function(h.rearranged(), w)
        ratios = [iv.ratio for iv in dec.intervals]
        rise = max((ratios[i + 1] - ratios[i]
                    for i in range(len(ratios) - 1)), default=0.0)
        out.append(("block_ratios_strictly_decreasing", _digest(h=h, w=w),
                    max(0.0, rise), 1e-12))
    return out


@_case("level.mass_preserved")
def _level_mass_preserved(rng, size):
    out = []
    for _ in range(4):
        h = _rand_step(rng, size)
        w = _rand_weight(rng)
        canon = h.rearranged()
        dec = level_mod.level_function(canon, w)
        total_h = sum(v * m for v, m in canon.atoms)
        total_level = sum(iv.ratio * iv.w_mass for iv in dec.intervals)
        gaps = [abs(a.upper - b.lower)
                for a, b in zip(dec.intervals, dec.intervals[1:])]
        contiguity = max(gaps, default=0.0) + abs(dec.intervals[0].lower)
        out.append(("mass_preserved", _digest(h=h, w=w),
                    _rel(total_h, total_level), 1e-12))
        out.append(("blocks_contiguous", _digest(h=h, w=w), contiguity,
                    1e-12))
    return out


# ---------------------------------------------------------------------------
# cases: norms

@_case("norms.sandwich")
def _sandwich(rng, size):
    out = []
    for _ in range(4):
        phi, w, f = _rand_instance(rng, size)
        lux = luxemburg_norm(phi, w, f)
        orl = orlicz_norm_amemiya(phi, w, f)
        low = max(0.0, lux - orl)
        high = max(0.0, orl - 2.0 * lux)
        out.append(("luxemburg_below_orlicz", _digest(phi=phi, w=w, f=f),
                    low / max(lux, 1e-12), 1e-9))
        out.append(("orlicz_below_twice_luxemburg",
                    _digest(phi=phi, w=w, f=f), high / max(lux, 1e-12),
                    1e-9))
    return out


@_case("norms.unit_ball")
def _unit_ball(rng, size):
    out = []
    for _ in range(4):
        phi, w, f = _rand_instance(rng, size)
        lux = luxemburg_norm(phi, w, f)
        value = rho_modular(phi, w, f.scaled(1.0 / lux))
        out.append(("modular_at_unit_scale", _digest(phi=phi, w=w, f=f),
                    max(0.0, value - 1.0), 1e-9))
    return out


@_case("norms.amemiya_constant_on_k")
def _amemiya_constant(rng, size):
    out = []
    for _ in range(3):
        phi, w, f = _rand_instance(rng, size)
        ki = k_interval(phi, w, f)
        orl = orlicz_norm_amemiya(phi, w, f)
        worst = _rel(ki.attained_norm, orl)
        for frac in (0.0, 0.5, 1.0):
            k = ki.lower + frac * (ki.upper - ki.lower)
            value = (1.0 + rho_modular(phi, w, f.scaled(k))) / k
            worst = max(worst, _rel(value, orl))
        out.append(("objective_flat_on_attainment_interval",
                    _digest(phi=phi, w=w, f=f), worst, 1e-7))
    return out


@_case("norms.pairing_identity")
def _pairing_identity(rng, size):
    out = []
    for _ in range(3):
        phi, w, f = _rand_instance(rng, size)
        report = amemiya_pairing_report(phi, w, f)
        out.append(("weighted_pairing_equals_amemiya",
                    _digest(phi=phi, w=w, f=f),
                    _rel(report["weighted_pairing"],
                         report["amemiya_at_k"]), 1e-7))
    return out


@_case("norms.dual_sup_oracle")
def _dual_sup(rng, size):
    out = []
    for _ in range(3):
        phi = _rand_phi(rng)
        w = _rand_seq_weight(rng)
        f = _rand_seq(rng, min(size, 8))
        orl = orlicz_norm_amemiya(phi, w, f)
        sup = orlicz_norm_dual_sup_oracle(phi, w, f)
        out.append(("supremum_attains_amemiya", _digest(phi=phi, w=w, f=f),
                    _rel(sup, orl), 1e-8))
    return out


@_case("norms.homogeneity")
def _homogeneity(rng, size):
    out = []
    for _ in range(3):
        phi, w, f = _rand_instance(rng, size)
        c = float(_dyadic(rng, 4, 48))
        lux = luxemburg_norm(phi, w, f)
        lux_scaled = luxemburg_norm(phi, w, f.scaled(c))
        ki = k_interval(phi, w, f)
        ki_scaled = k_interval(phi, w, f.scaled(c))
        worst = max(_rel(lux_scaled, c * lux),
                    _rel(ki_scaled.lower * c, ki.lower),
                    _rel(ki_scaled.upper * c, ki.upper))
        out.append(("norm_and_k_scale", _digest(phi=phi, w=w, f=f, c=c),
                    worst, 1e-8))
    return out


@_case("norms.orthogonal_subadditive")
def _orthogonal_subadditive(rng, size):
    out = []
    for _ in range(3):
        phi = _rand_phi(rng)
        w = _rand_weight(rng)
        f = _rand_step(rng, size)
        g = _rand_step(rng, size)
        both = disjoint_sum(f, g)
        lf = luxemburg_norm(phi, w, f)
        lg = luxemburg_norm(phi, w, g)
        lb = luxemburg_norm(phi, w, both)
        over = max(0.0, lb - (lf + lg))
        under = max(0.0, max(lf, lg) - lb)
        out.append(("disjoint_sum_subadditive", _digest(phi=phi, w=w, f=f,
                                                        g=g),
                    max(over, under) / max(lb, 1e-12), 1e-9))
    return out


@_case("norms.rearrangement_invariant")
def _rearrangement_invariant(rng, size):
    out = []
    for _ in range(3):
        phi = _rand_phi(rng)
        w = _rand_weight(rng)
        f = _rand_step(rng, size)
        atoms = []
        for v, m in f.atoms:
            atoms.extend([(v, m / 2.0), (v, m / 2.0)])
        order = rng.permutation(len(atoms))
        shuffled = StepFunction(tuple(atoms[i] for i in order))
        worst = _rel(luxemburg_norm(phi, w, f),
                     luxemburg_norm(phi, w, shuffled))
        out.append(("norm_depends_only_on_rearrangement",
                    _digest(phi=phi, w=w, f=f), worst, 1e-11))
    return out


@_case("norms.theta_finite_support")
def _theta_finite(rng, size):
    out = []
    for _ in range(4):
        phi, w, f = _rand_instance(rng, size)
        out.append(("threshold_zero_on_finite_support",
                    _digest(phi=phi, w=w, f=f), theta(phi, w, f), 1e-12))
    return out


# ---------------------------------------------------------------------------
# cases: duality

@_case("duality.p_oracle_agreement")
def _p_oracle(rng, size):
    out = []
    for _ in range(3):
        phi = _rand_phi(rng)
        if int(rng.integers(0, 2)) == 0:
            w, h = _rand_weight(rng), _rand_step(rng, size)
        else:
            w, h = _rand_seq_weight(rng), _rand_seq(rng, size)
        formula = P_modular(phi, w, h)
        direct = P_modular_oracle(phi, w, h)
        out.append(("level_formula_attains_minimum", _digest(phi=phi, w=w,
                                                             h=h),
                    _rel(formula, direct), 1e-8))
    return out


@_case("duality.young_witness_identities")
def _young_witness_case(rng, size):
    out = []
    for _ in range(3):
        phi = _rand_phi(rng)
        if int(rng.integers(0, 2)) == 0:
            w, h = _rand_weight(rng), _rand_step(rng, size)
        else:
            w, h = _rand_seq_weight(rng), _rand_seq(rng, size)
        wit = young_witness(phi, w, h)
        scale = max(abs(wit.level_modular), 1.0)
        worst = max(abs(wit.level_modular - wit.young_modular),
                    abs(wit.companion_direct
                        - wit.companion_rearranged)) / scale
        out.append(("equalities_hold", _digest(phi=phi, w=w, h=h), worst,
                    1e-9))
    return out


@_case("duality.orlicz_side_bound")
def _orlicz_side_bound(rng, size):
    out = []
    for _ in range(3):
        phi = _rand_phi(rng)
        if int(rng.integers(0, 2)) == 0:
            w, h = _rand_weight(rng), _rand_step(rng, size)
        else:
            w, h = _rand_seq_weight(rng), _rand_seq(rng, size)
        s = float(_dyadic(rng, 2, 14))
        report = functional_norm_report(phi, w, h, s)
        over = max(0.0, report.orlicz_side_norm - report.additive_sum)
        neg = max(0.0, -report.gap)
        chain = max(0.0, report.additive_sum - report.lux_side_norm)
        out.append(("gauge_norm_at_most_additive", _digest(phi=phi, w=w,
                                                           h=h, s=s),
                    max(over, neg, chain) / max(report.additive_sum, 1e-12),
                    1e-9))
    return out


@_case("duality.witness_gap_positive")
def _witness_gap(rng, size):
    out = []
    for _ in range(3):
        phi = _rand_phi(rng)
        w = (_rand_weight(rng) if int(rng.integers(0, 2)) == 0
             else _rand_seq_weight(rng))
        s = float(rng.integers(1, 4)) / 4.0
        u = float(_dyadic(rng, 8, 32))
        report = non_m_ideal_witness(phi, w, s, u)
        out.append(("gap_strictly_positive",
                    _digest(phi=phi, w=w, s=s, u=u),
                    max(0.0, 1e-12 - report.gap), 1e-12))
    return out


@_case("duality.holder_bounds")
def _holder(rng, size):
    out = []
    for _ in range(3):
        phi = _rand_phi(rng)
        if int(rng.integers(0, 2)) == 0:
            w = _rand_weight(rng)
            f, h = _rand_step(rng, size), _rand_step(rng, size)
        else:
            w = _rand_seq_weight(rng)
            f, h = _rand_seq(rng, size), _rand_seq(rng, size)
        report = holder_check(phi, w, f, h)
        worst = max(0.0,
                    report["pairing"]
                    - report["bound_luxemburg_times_dual_orlicz"],
                    report["pairing"]
                    - report["bound_orlicz_times_dual_luxemburg"])
        out.append(("pairing_below_both_products",
                    _digest(phi=phi, w=w, f=f, h=h),
                    worst / max(report["pairing"], 1e-12), 1e-9))
    return out


@_case("duality.g_monotone")
def _g_monotone(rng, size):
    out = []
    for _ in range(3):
        h = _rand_step(rng, size)
        w = _rand_weight(rng)
        dec = level_mod.level_function(h.rearranged(), w)
        end = dec.intervals[-1].upper
        grid = np.linspace(0.0, end, 33)[:-1]
        values = [level_mod.evaluate_level(dec, float(t)) for t in grid]
        rise = max((values[i + 1] - values[i]
                    for i in range(len(values) - 1)), default=0.0)
        out.append(("level_function_nonincreasing", _digest(h=h, w=w),
                    max(0.0, rise), 1e-12))
    return out


# ---------------------------------------------------------------------------
# runner

def _run_case(entry, seed, sizes):
    index, (case_id, fn) = entry
    rng = np.random.default_rng([seed, index])
    rows = []
    try:
        results = fn(rng, sizes)
    except UndecidedError as exc:
        return [{"case_id": case_id, "quantity": "case",
                 "inputs": "-", "value": math.nan, "tolerance": math.nan,
                 "status": "inconclusive", "note": str(exc)}]
    for quantity, digest, value, tolerance in results:
        status = "ok" if value <= tolerance else "violated"
        rows.append({"case_id": case_id, "quantity": quantity,
                     "inputs": digest, "value": float(value),
                     "tolerance": float(tolerance), "status": status})
    return rows


def verify_suite(seed=42, sizes=None, cases=None, threads=None):
    """Run the property suite; deterministic for a fixed seed.

    sizes bounds the random support sizes (default 6).  cases, if given,
    selects case ids or dotted prefixes.  Thread count is capped by the
    OLK_THREADS environment variable.
    """
    sizes = 6 if sizes is None else int(sizes)
    selected = []
    for index, (case_id, fn) in enumerate(CASES):
        if cases is not None:
            wanted = any(case_id == c or case_id.startswith(c + ".")
                         or case_id.split(".")[0] == c for c in cases)
            if not wanted:
                continue
        selected.append((index, (case_id, fn)))
    if threads is None:
        threads = min(8, max(len(selected), 1))
    env_cap = os.environ.get("OLK_THREADS")
    if env_cap:
        threads = max(1, min(threads, int(env_cap)))
    if threads <= 1:
        chunks = [_run_case(entry, seed, sizes) for entry in selected]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda e: _run_case(e, seed, sizes),
                                   selected))
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["case_id"], r["quantity"], r["inputs"]))
    violations = sum(r["status"] == "violated" for r in rows)
    inconclusive = sum(r["status"] == "inconclusive" for r in rows)
    return {"seed": int(seed), "sizes": sizes, "cases": len(selected),
            "rows": rows, "violations": violations,
            "inconclusive": inconclusive}
