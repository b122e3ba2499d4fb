"""Dual modular, dual norms, Young witnesses, and functional norms with a
singular part."""

import math

import numpy as np
import pytest

import olk
from olk.errors import (ConvergenceError, DomainError,
                        InfeasibleParameterError, ValidationError)

from conftest import (dyadic, rand_phi, rand_seq, rand_seq_weight, rand_step,
                      rand_step_weight)


# ---------------------------------------------------------------------------
# dual modular


def test_dual_modular_flattens_before_applying_gauge(quad_phi):
    # h = (5, 2) against w = 1: already decreasing ratios, so the dual
    # modular is the plain modular of the ratios
    w = olk.StepWeight(((math.inf, 1.0),))
    h = olk.StepFunction(((5.0, 1.0), (2.0, 1.0)))
    expected = quad_phi.value(5.0) + quad_phi.value(2.0)
    assert olk.P_modular(quad_phi, w, h) == pytest.approx(expected, rel=1e-12)


def test_dual_modular_merges_increasing_ratio_blocks(quad_phi):
    # equal values with decreasing weight force a single merged block
    h = olk.FiniteSequence((1.0, 1.0))
    w = olk.ExplicitSeqWeight((2.0, 1.0))
    ratio = 2.0 / 3.0
    expected = quad_phi.value(ratio) * 3.0
    assert olk.P_modular(quad_phi, w, h) == pytest.approx(expected, rel=1e-12)


def test_dual_modular_rejects_non_n_function():
    flat = olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)))
    w = olk.StepWeight(((math.inf, 1.0),))
    h = olk.StepFunction(((1.0, 1.0),))
    with pytest.raises(DomainError):
        olk.P_modular(flat, w, h)


def test_one_support_check_for_every_finite_route():
    # a support longer than the weight's domain by less than the slack the
    # StepFunction constructor allows is accepted everywhere; one longer
    # than that is rejected everywhere with the same error
    phi = olk.PowerOrlicz(2.0, 0.5)
    w = olk.StepWeight(((1.0, 1.0),))
    routes = (lambda h: olk.luxemburg_norm(phi, w, h),
              lambda h: olk.level_function(h.rearranged(), w),
              lambda h: olk.P_modular(phi, w, h),
              lambda h: olk.P_modular_oracle(phi, w, h),
              lambda h: olk.dual_luxemburg_norm(phi, w, h))
    inside = olk.StepFunction(((1.0, 1.0 + 1e-13),), 1.0)
    for route in routes:
        route(inside)
    assert olk.P_modular(phi, w, inside) == pytest.approx(
        olk.P_modular_oracle(phi, w, inside), rel=1e-8)
    outside = olk.StepFunction(((1.0, 1.0 + 1e-9),))
    for route in routes:
        with pytest.raises(DomainError,
                           match="element support exceeds the weight domain"):
            route(outside)


def test_dual_modular_matches_descent_oracle():
    rng = np.random.default_rng(41)
    for _ in range(30):
        phi = rand_phi(rng)
        if int(rng.integers(0, 2)):
            h, w = rand_step(rng, max_atoms=4), rand_step_weight(rng)
        else:
            h, w = rand_seq(rng, max_len=5), rand_seq_weight(rng)
        formula = olk.P_modular(phi, w, h)
        if formula == 0.0 or not math.isfinite(formula):
            continue
        direct = olk.P_modular_oracle(phi, w, h)
        assert direct == pytest.approx(formula, rel=1e-8)


def test_descent_oracle_on_a_huge_exponential_modular():
    # P is about 2.4e10 here, with piece weight masses from 0.016 to 0.23;
    # SLSQP on the unscaled masses v stops about 2e-6 below the formula
    phi = olk.ExpOrlicz()
    w = olk.StepWeight(((1.875, 0.125), (math.inf, 0.0625)))
    h = olk.StepFunction(((0.375, 0.375), (0.25, 0.4375), (2.625, 1.9375),
                          (3.5, 0.125), (1.9375, 0.1875)))
    formula = olk.P_modular(phi, w, h)
    assert formula > 1e10
    assert olk.P_modular_oracle(phi, w, h) == pytest.approx(formula,
                                                            rel=1e-8)


def test_dual_modular_convexity(quad_phi):
    w = olk.StepWeight(((2.0, 2.0), (math.inf, 0.5)))
    h = olk.StepFunction(((3.0, 0.5), (1.0, 1.5)))
    p_half = olk.P_modular(quad_phi, w, h.scaled(0.5))
    p_full = olk.P_modular(quad_phi, w, h)
    # strict convexity through the origin
    assert p_half < 0.5 * p_full


# ---------------------------------------------------------------------------
# dual norms


def test_dual_gauge_norm_anchor(quad_phi, lebesgue_weight):
    # indicator of (0, 1/2] with value 1: level ratio 1 on a mass-1/2 block
    h = olk.StepFunction(((1.0, 0.5),))
    assert olk.dual_luxemburg_norm(
        quad_phi, lebesgue_weight, h) == pytest.approx(0.5, rel=1e-9)
    assert olk.dual_orlicz_norm(
        quad_phi, lebesgue_weight, h) == pytest.approx(1.0, rel=1e-9)


def test_dual_norms_sandwich(quad_phi):
    rng = np.random.default_rng(42)
    for _ in range(25):
        h, w = rand_step(rng), rand_step_weight(rng)
        if not h.rearranged().atoms:
            continue
        lux = olk.dual_luxemburg_norm(quad_phi, w, h)
        orl = olk.dual_orlicz_norm(quad_phi, w, h)
        assert lux <= orl * (1.0 + 1e-9)
        assert orl <= 2.0 * lux * (1.0 + 1e-9)


def test_rearranged_pairing_value():
    f = olk.StepFunction(((2.0, 1.0), (1.0, 1.0)))
    h = olk.StepFunction(((3.0, 0.5), (1.0, 1.5)))
    # f* = (2,1),(1,1); h* = (3,.5),(1,1.5):
    # integral = 2*3*0.5 + 2*1*0.5 + 1*1*1 = 5
    assert olk.rearranged_pairing(f, h) == pytest.approx(5.0, rel=1e-12)


def _brute_pairing(f, h):
    # f* and h* by sorting the atoms, evaluated at the midpoint of every
    # piece of the merged grid of both elements' edges
    def decreasing(g):
        atoms = sorted(((abs(v), m) for v, m in g.atoms if v != 0.0),
                       reverse=True)
        edges = np.cumsum([m for _, m in atoms]).tolist()
        return [v for v, _ in atoms], edges

    def at(values, edges, t):
        for value, edge in zip(values, edges):
            if t < edge:
                return value
        return 0.0

    fv, fe = decreasing(f)
    hv, he = decreasing(h)
    grid = sorted({0.0} | set(fe) | set(he))
    return sum(at(fv, fe, 0.5 * (a + b)) * at(hv, he, 0.5 * (a + b))
               * (b - a) for a, b in zip(grid, grid[1:]))


def test_rearranged_pairing_matches_brute_force_on_merged_grid():
    # few distinct magnitudes with both signs, so values tie across atoms
    # and across the two elements; supports of unequal length
    rng = np.random.default_rng(47)
    for _ in range(200):
        pair = []
        for _ in range(2):
            n = int(rng.integers(1, 9))
            mags = rng.choice([0.5, 1.0, 1.5, 2.0], n)
            signs = np.where(rng.random(n) < 0.3, -1.0, 1.0)
            lens = dyadic(rng, 1 / 16, 2.0, n)
            pair.append(olk.StepFunction(tuple(
                (float(v), float(m)) for v, m in zip(mags * signs, lens))))
        f, h = pair
        want = _brute_pairing(f, h)
        assert olk.rearranged_pairing(f, h) == pytest.approx(want, rel=1e-12)
        assert olk.rearranged_pairing(h, f) == pytest.approx(want, rel=1e-12)


def test_holder_bounds_hold_and_types_are_plain(quad_phi):
    w = olk.HarmonicSeqWeight()
    f = olk.FiniteSequence((2.0, 1.5, 0.5))
    h = olk.FiniteSequence((1.0, 0.5, 0.25))
    report = olk.holder_check(quad_phi, w, f, h)
    assert report["satisfied"] is True
    assert type(report["pairing"]) is float
    assert type(report["bound_luxemburg_times_dual_orlicz"]) is float
    assert type(report["bound_orlicz_times_dual_luxemburg"]) is float
    assert report["pairing"] <= report["bound_luxemburg_times_dual_orlicz"]
    assert report["pairing"] <= report["bound_orlicz_times_dual_luxemburg"]


# ---------------------------------------------------------------------------
# Young witnesses


def test_young_witness_identities_on_anchor(quad_phi):
    w = olk.StepWeight(((2.0, 2.0), (math.inf, 0.5)))
    h = olk.StepFunction(((3.0, 0.5), (1.0, 1.5), (2.5, 0.25)))
    wit = olk.young_witness(quad_phi, w, h)
    assert wit.young_modular == pytest.approx(wit.level_modular, rel=1e-12)
    assert wit.companion_rearranged == pytest.approx(
        wit.companion_direct, rel=1e-12)


def test_young_witness_identities_randomized():
    rng = np.random.default_rng(43)
    done = 0
    while done < 40:
        phi = rand_phi(rng)
        if int(rng.integers(0, 2)):
            h, w = rand_step(rng, max_atoms=5), rand_step_weight(rng)
        else:
            h, w = rand_seq(rng, max_len=5), rand_seq_weight(rng)
        try:
            wit = olk.young_witness(phi, w, h)
        except (ConvergenceError, DomainError):
            continue
        scale = max(1.0, abs(wit.level_modular))
        assert abs(wit.young_modular - wit.level_modular) <= 1e-9 * scale
        scale2 = max(1.0, abs(wit.companion_direct))
        assert abs(wit.companion_rearranged
                   - wit.companion_direct) <= 1e-9 * scale2
        done += 1


def test_young_witness_rejects_empty(quad_phi, lebesgue_weight):
    with pytest.raises((ConvergenceError, DomainError, ValidationError)):
        olk.young_witness(quad_phi, lebesgue_weight, olk.StepFunction(()))


# ---------------------------------------------------------------------------
# functional norms with a singular part


def test_functional_norm_additive_on_amemiya_side(quad_phi, lebesgue_weight):
    h = olk.StepFunction(((1.0, 0.5),))
    for s in (0.0, 0.25, 0.5):
        lux_side = olk.functional_norm_luxemburg_side(
            quad_phi, lebesgue_weight, h, s)
        parts = olk.dual_orlicz_norm(quad_phi, lebesgue_weight, h) + s
        assert lux_side == parts  # exact: built additively


def test_functional_norm_orlicz_side_below_additive(quad_phi):
    rng = np.random.default_rng(44)
    w = olk.StepWeight(((math.inf, 1.0),))
    for _ in range(25):
        h = rand_step(rng, max_atoms=3)
        if not h.rearranged().atoms:
            continue
        s = float(dyadic(rng, 1 / 16, 0.9))
        report = olk.functional_norm_report(quad_phi, w, h, s)
        additive = report.additive_sum
        assert report.orlicz_side_norm <= additive * (1.0 + 1e-10)
        assert report.gap == pytest.approx(
            additive - report.orlicz_side_norm, abs=1e-12)
        # strict gap whenever both parts are present
        assert report.gap > 0.0


def test_functional_norm_orlicz_side_equality_without_singular_part(
        quad_phi, lebesgue_weight):
    h = olk.StepFunction(((2.0, 0.5), (1.0, 0.5)))
    report = olk.functional_norm_report(quad_phi, lebesgue_weight, h, 0.0)
    assert report.gap == pytest.approx(0.0, abs=1e-8)
    assert report.orlicz_side_norm == pytest.approx(
        olk.dual_luxemburg_norm(quad_phi, lebesgue_weight, h), rel=1e-8)


def test_functional_norm_pure_singular_part(quad_phi, lebesgue_weight):
    z = olk.StepFunction(())
    report = olk.functional_norm_report(quad_phi, lebesgue_weight, z, 0.5)
    assert report.lux_side_norm == pytest.approx(0.5)
    assert report.orlicz_side_norm == pytest.approx(0.5, rel=1e-10)
    assert report.gap == pytest.approx(0.0, abs=1e-10)


def test_functional_norm_rejects_negative_singular_part(
        quad_phi, lebesgue_weight):
    h = olk.StepFunction(((1.0, 0.5),))
    with pytest.raises(DomainError):
        olk.functional_norm_report(quad_phi, lebesgue_weight, h, -0.1)


# ---------------------------------------------------------------------------
# the dichotomy witness


def test_witness_anchor_values(quad_phi, finite_lebesgue_weight):
    report = olk.non_m_ideal_witness(quad_phi, finite_lebesgue_weight,
                                     0.5, 1.0)
    assert report.extras["predual_norm"] == pytest.approx(0.5, abs=1e-9)
    assert report.extras["p_value"] == pytest.approx(0.25, abs=1e-9)
    assert report.orlicz_side_norm == pytest.approx(0.8090170, abs=1e-6)
    assert report.gap == pytest.approx(0.1909830, abs=1e-6)
    # the dual modular stays strictly below the room left by the singular
    # part, which is what breaks norm additivity
    assert report.extras["p_value"] < (1.0 - 0.5)
    assert report.gap > 0.0


def test_witness_random_feasible_parameters(quad_phi, finite_lebesgue_weight):
    rng = np.random.default_rng(45)
    for _ in range(20):
        s = float(rng.uniform(0.05, 0.9))
        u = float(rng.uniform(0.1, 3.0))
        try:
            report = olk.non_m_ideal_witness(quad_phi, finite_lebesgue_weight,
                                             s, u)
        except InfeasibleParameterError:
            continue
        assert report.gap > 0.0
        assert report.extras["p_value"] < (1.0 - s)
        assert report.extras["predual_norm"] == pytest.approx(
            1.0 - s, abs=1e-8)


def test_witness_sequence_setting_snaps_parameters(quad_phi):
    w = olk.HarmonicSeqWeight()
    report = olk.non_m_ideal_witness(quad_phi, w, 0.5, 1.0)
    assert report.gap > 0.0
    assert "n0" in report.extras
    assert report.extras["predual_norm"] == pytest.approx(0.5, abs=1e-8)
    # the snapped height is recorded next to the requested one
    assert report.extras["u_requested"] == 1.0
    assert report.extras["u_used"] > 0.0


def test_witness_rejects_bad_singular_part(quad_phi, finite_lebesgue_weight):
    for s in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(InfeasibleParameterError):
            olk.non_m_ideal_witness(quad_phi, finite_lebesgue_weight, s, 1.0)


def test_witness_infeasible_on_small_domain(quad_phi):
    # a small height needs a large cumulative weight mass, which a tiny
    # domain cannot supply
    w = olk.StepWeight(((0.01, 1.0),))
    with pytest.raises(InfeasibleParameterError):
        olk.non_m_ideal_witness(quad_phi, w, 0.5, 0.01)
