"""Gauge and Amemiya norms, the K-interval, modulars, and the scaling
threshold.

Frozen reference values in this file were produced by independent runs of
the corresponding routines at tighter tolerances and cross-checked against
closed forms where available.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import olk
from olk.errors import DomainError, NotInSpaceError, UndecidedError
from olk.rearrange import DecreasingProfile

from conftest import (dyadic, rand_phi, rand_seq, rand_seq_weight, rand_step,
                      rand_step_weight)


# ---------------------------------------------------------------------------
# modular values


def test_modular_of_step_is_weighted_sum(quad_phi):
    w = olk.StepWeight(((2.0, 2.0), (math.inf, 0.5)))
    f = olk.StepFunction(((2.0, 1.0), (1.0, 2.0)))
    # rearranged: value 2 on [0,1) (w=2), value 1 on [1,3) (w mass 2+0.5)
    expected = quad_phi.value(2.0) * 2.0 + quad_phi.value(1.0) * 2.5
    assert olk.rho_modular(quad_phi, w, f) == pytest.approx(
        expected, rel=1e-12)


def test_modular_of_sequence_uses_weight_head(quad_phi):
    w = olk.ExplicitSeqWeight((2.0, 1.0, 0.5))
    f = olk.FiniteSequence((1.0, 3.0))
    expected = quad_phi.value(3.0) * 2.0 + quad_phi.value(1.0) * 1.0
    assert olk.rho_modular(quad_phi, w, f) == pytest.approx(
        expected, rel=1e-12)


def test_modular_of_log_tail_profile_quadrature():
    # with phi(t) = t^2/2 and f(t) = log(1+1/t), the weighted modular over
    # w = 1 is 0.5 * int_0^inf log(1+1/t)^2 dt = pi^2/6
    phi = olk.PowerOrlicz(2.0, 0.5)
    w = olk.StepWeight(((math.inf, 1.0),))
    f = olk.LogTailProfile(1.0)
    assert olk.rho_modular(phi, w, f) == pytest.approx(
        math.pi**2 / 6.0, rel=1e-8)


def test_modular_divergence_detected():
    # the square of log(1 + 1/t) is integrable at both ends (its modular is
    # pi^2/6 above); the square of t^(-1/4) is not integrable at infinity
    phi = olk.PowerOrlicz(2.0, 0.5)
    w = olk.StepWeight(((math.inf, 1.0),))
    assert math.isfinite(olk.rho_modular(phi, w, olk.LogTailProfile(1.0)))
    fat = olk.PowerTailProfile(0.25, 1.0)
    assert math.isinf(olk.rho_modular(phi, w, fat))


def test_modular_of_zero_is_zero(quad_phi, lebesgue_weight):
    assert olk.rho_modular(quad_phi, lebesgue_weight,
                           olk.StepFunction(())) == 0.0


# ---------------------------------------------------------------------------
# closed-form anchors


def test_gauge_norm_anchor(quad_phi, lebesgue_weight):
    # phi(t)=t^2/2, w=1: gauge of the unit indicator is 1/sqrt(2)
    f = olk.StepFunction(((1.0, 1.0),))
    assert olk.luxemburg_norm(quad_phi, lebesgue_weight, f) == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-9)


def test_amemiya_norm_anchor(quad_phi, lebesgue_weight):
    f = olk.StepFunction(((1.0, 1.0),))
    assert olk.orlicz_norm_amemiya(
        quad_phi, lebesgue_weight, f) == pytest.approx(
            math.sqrt(2.0), rel=1e-9)


def test_k_interval_anchor(quad_phi, lebesgue_weight):
    f = olk.StepFunction(((1.0, 1.0),))
    ki = olk.k_interval(quad_phi, lebesgue_weight, f)
    assert ki.lower == pytest.approx(math.sqrt(2.0), rel=1e-8)
    assert ki.upper == pytest.approx(math.sqrt(2.0), rel=1e-8)
    assert ki.attained_norm == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_sequence_norm_anchor(quad_phi):
    # single unit entry, unit weight: same constants as the unit indicator
    w = olk.ConstantSeqWeight(1.0)
    f = olk.FiniteSequence((1.0,))
    assert olk.luxemburg_norm(quad_phi, w, f) == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-9)
    assert olk.orlicz_norm_amemiya(quad_phi, w, f) == pytest.approx(
        math.sqrt(2.0), rel=1e-9)


ZETA_3 = 1.2020569031595942


@pytest.mark.parametrize("c", [1e-25, 1e25])
def test_profile_norms_are_homogeneous_at_extreme_magnitudes(c):
    # phi(t) = t^2, so the gauge norm is sqrt(modular) and the Amemiya form
    # twice that.  The band keeps 1/t on [1/2, 4], rearranged to 1/(s + 1/2)
    # on [0, 7/2): against w = 2 on [0, 1), then 1, the modular is 37/12.
    # The power tail 1/i against the harmonic weight has modular zeta(3).
    phi = olk.PowerOrlicz(2.0, 1.0)
    w = olk.StepWeight(((1.0, 2.0), (math.inf, 1.0)))
    band = olk.BandRestriction(olk.PowerTailProfile(1.0, 1.0), 0.25, 2.0)
    assert math.sqrt(37.0 / 12.0) == pytest.approx(1.7559422921, rel=1e-10)
    assert olk.luxemburg_norm(phi, w, band.scaled(c)) / c == pytest.approx(
        1.7559422921, rel=1e-8)
    assert olk.orlicz_norm_amemiya(phi, w, band.scaled(c)) / c == \
        pytest.approx(3.5118845843, rel=1e-8)
    tail = olk.PowerSeqTail(1.0, 1.0).scaled(c)
    hw = olk.HarmonicSeqWeight()
    assert olk.luxemburg_norm(phi, hw, tail) / c == pytest.approx(
        math.sqrt(ZETA_3), rel=1e-8)
    assert olk.orlicz_norm_amemiya(phi, hw, tail) / c == pytest.approx(
        2.0 * math.sqrt(ZETA_3), rel=1e-8)


def test_log_tail_gauge_norm_frozen_value():
    phi = olk.ExpOrlicz()
    w = olk.StepWeight(((math.inf, 1.0),))
    f = olk.LogTailProfile(1.0)
    assert olk.luxemburg_norm(phi, w, f) == pytest.approx(
        1.7625687581021339, rel=1e-8)


# ---------------------------------------------------------------------------
# norm properties


def test_zero_element_has_zero_norm(quad_phi, lebesgue_weight):
    z = olk.StepFunction(())
    assert olk.luxemburg_norm(quad_phi, lebesgue_weight, z) == 0.0
    assert olk.orlicz_norm_amemiya(quad_phi, lebesgue_weight, z) == 0.0


@settings(max_examples=40, derandomize=True, deadline=None)
@given(c=st.floats(0.0625, 16.0), seed=st.integers(0, 10_000))
def test_gauge_norm_is_positively_homogeneous(c, seed):
    rng = np.random.default_rng(seed)
    phi = rand_phi(rng)
    f = rand_step(rng)
    w = rand_step_weight(rng)
    if not f.rearranged().atoms:
        return
    base = olk.luxemburg_norm(phi, w, f)
    scaled = olk.luxemburg_norm(phi, w, f.scaled(c))
    assert scaled == pytest.approx(c * base, rel=1e-8)


FINITE_NORMS = (olk.luxemburg_norm, olk.orlicz_norm_amemiya,
                olk.dual_luxemburg_norm, olk.dual_orlicz_norm)


@pytest.mark.parametrize("x", [1e-200, 1e200])
def test_finite_norms_hold_at_extreme_magnitudes(x):
    # phi(t) = t^2, w_1 = 1: the gauge norms of (x,) are x, the Amemiya-form
    # norms 2x, both far outside the solvers' [2^-60, 2^60] brackets
    phi = olk.PowerOrlicz(2.0, 1.0)
    w = olk.HarmonicSeqWeight()
    f = olk.FiniteSequence((x,))
    assert olk.luxemburg_norm(phi, w, f) == pytest.approx(x, rel=1e-9)
    assert olk.orlicz_norm_amemiya(phi, w, f) == pytest.approx(2 * x,
                                                               rel=1e-9)
    assert olk.dual_luxemburg_norm(phi, w, f) == pytest.approx(x, rel=1e-9)
    assert olk.dual_orlicz_norm(phi, w, f) == pytest.approx(2 * x, rel=1e-9)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(exponent=st.floats(-150.0, 150.0), seed=st.integers(0, 10_000))
def test_finite_norms_are_homogeneous_at_every_magnitude(exponent, seed):
    rng = np.random.default_rng(seed)
    phi = rand_phi(rng)
    if int(rng.integers(0, 2)):
        f, w = rand_step(rng), rand_step_weight(rng)
    else:
        f, w = rand_seq(rng), rand_seq_weight(rng)
    s = float(dyadic(rng, 0.0, 2.0))
    c = 10.0**exponent
    for norm in FINITE_NORMS:
        assert norm(phi, w, f.scaled(c)) == pytest.approx(
            c * norm(phi, w, f), rel=1e-8)
    assert olk.functional_norm_orlicz_side(
        phi, w, f.scaled(c), c * s) == pytest.approx(
            c * olk.functional_norm_orlicz_side(phi, w, f, s), rel=1e-8)
    ki, ki_scaled = (olk.k_interval(phi, w, g) for g in (f, f.scaled(c)))
    assert ki_scaled.lower == pytest.approx(ki.lower / c, rel=1e-8)
    assert ki_scaled.upper == pytest.approx(ki.upper / c, rel=1e-8)
    assert ki_scaled.attained_norm == pytest.approx(c * ki.attained_norm,
                                                    rel=1e-8)


@pytest.mark.parametrize("norm", FINITE_NORMS)
@pytest.mark.parametrize("setting", ["step", "sequence"])
def test_norms_lay_out_and_decompose_once(monkeypatch, norm, setting):
    rng = np.random.default_rng(80)
    if setting == "step":
        f, w = rand_step(rng, max_atoms=40), rand_step_weight(rng)
    else:
        f, w = rand_seq(rng, max_len=40), rand_seq_weight(rng)
    calls = {"rearranged": 0, "level": 0}

    def counting(original, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for cls in (olk.StepFunction, olk.FiniteSequence):
        monkeypatch.setattr(cls, "rearranged",
                            counting(cls.rearranged, "rearranged"))
    for name in ("level_function", "level_sequence"):
        monkeypatch.setattr(olk.level, name,
                            counting(getattr(olk.level, name), "level"))
    counts = []
    for rel_tol in (1e-4, 1e-12):
        calls.update(rearranged=0, level=0)
        norm(olk.PowerOrlicz(2.0, 0.5), w, f, rel_tol=rel_tol)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["rearranged"] == 1 and counts[0]["level"] <= 1


FAMILIES = (olk.PowerOrlicz(2.5, 0.75), olk.ExpOrlicz(), olk.LogOrlicz(),
            olk.FlatZeroOrlicz(0.35))


@pytest.mark.parametrize("norm", FINITE_NORMS)
@pytest.mark.parametrize("setting", ["step", "sequence"])
def test_norms_take_few_modular_evaluations(monkeypatch, norm, setting):
    # the root-finder needs at most 16 weighted sums per norm on smooth
    # N-functions; the dual norms run on the conjugate, as the dualnorm
    # command does
    evaluations = [0]
    real = olk.norms._finite_modular

    def counting(*args):
        evaluations[0] += 1
        return real(*args)

    monkeypatch.setattr(olk.norms, "_finite_modular", counting)
    dual = norm in (olk.dual_luxemburg_norm, olk.dual_orlicz_norm)
    rng = np.random.default_rng(81)
    worst = 0
    for _ in range(6):
        if setting == "step":
            f, w = rand_step(rng, max_atoms=40), rand_step_weight(rng)
        else:
            f, w = rand_seq(rng, max_len=40), rand_seq_weight(rng)
        for phi in FAMILIES:
            for rel_tol in (1e-10, 1e-12):
                evaluations[0] = 0
                norm(phi.conjugate() if dual else phi, w, f, rel_tol=rel_tol)
                worst = max(worst, evaluations[0])
    assert 0 < worst <= 16


@pytest.mark.parametrize("x", [1e-30, 1e30])
def test_k_interval_holds_at_extreme_magnitudes(x):
    # phi(t) = t^2, w_1 = 1: K((x,)) = {1 / x}, where the Amemiya objective
    # attains 2x
    phi = olk.PowerOrlicz(2.0, 1.0)
    ki = olk.k_interval(phi, olk.HarmonicSeqWeight(), olk.FiniteSequence((x,)))
    assert ki.lower == pytest.approx(1.0 / x, rel=1e-9)
    assert ki.upper == pytest.approx(1.0 / x, rel=1e-9)
    assert ki.attained_norm == pytest.approx(2.0 * x, rel=1e-9)


def test_amemiya_norm_of_tabulated_takes_the_linear_tail_limit():
    # slopes 0.5, 0.75: t p(t) - phi(t) is 0.25 beyond the last knot, so the
    # Young side stays at most 0.25 (1 + 1/2) < 1 and the infimum is the
    # limit 0.75 (1 * 1 + 0.5 * 0.5), not attained at any k
    w = olk.HarmonicSeqWeight()
    f = olk.FiniteSequence((1.0, 0.5))
    linear = olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 0.5), (2.0, 1.25)))
    assert olk.orlicz_norm_amemiya(linear, w, f) == pytest.approx(
        0.9375, rel=1e-14)
    # slopes 1, 2: the Young side reaches 1 and the infimum is attained
    attained = olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)))
    assert olk.orlicz_norm_amemiya(attained, w, f) == pytest.approx(
        2.25, rel=1e-9)


def test_norm_sandwich_and_unit_ball():
    rng = np.random.default_rng(77)
    for _ in range(80):
        phi = rand_phi(rng)
        if int(rng.integers(0, 2)):
            f, w = rand_step(rng), rand_step_weight(rng)
        else:
            f, w = rand_seq(rng), rand_seq_weight(rng)
        if not f.rearranged().atoms if hasattr(f, "atoms") else False:
            continue
        lux = olk.luxemburg_norm(phi, w, f)
        if lux == 0.0:
            continue
        orl = olk.orlicz_norm_amemiya(phi, w, f)
        assert lux <= orl * (1.0 + 1e-9)
        assert orl <= 2.0 * lux * (1.0 + 1e-9)
        assert olk.rho_modular(phi, w, f.scaled(1.0 / lux)) <= 1.0 + 1e-8


def test_norm_is_rearrangement_invariant(quad_phi):
    w = olk.StepWeight(((1.0, 2.0), (math.inf, 1.0)))
    f = olk.StepFunction(((1.0, 0.5), (3.0, 0.75), (1.0, 0.25)))
    g = f.rearranged()
    # halve one atom into two equal pieces: same rearrangement class
    split = olk.StepFunction(((1.0, 0.5), (3.0, 0.375), (3.0, 0.375),
                              (1.0, 0.25)))
    n1 = olk.luxemburg_norm(quad_phi, w, f)
    assert olk.luxemburg_norm(quad_phi, w, g) == pytest.approx(n1, rel=1e-10)
    assert olk.luxemburg_norm(quad_phi, w, split) == pytest.approx(
        n1, rel=1e-10)


def test_orthogonal_additivity_is_subadditive(quad_phi):
    w = olk.StepWeight(((math.inf, 1.0),))
    rng = np.random.default_rng(78)
    for _ in range(20):
        f, g = rand_step(rng), rand_step(rng)
        s = olk.disjoint_sum(f, g)
        ns = olk.luxemburg_norm(quad_phi, w, s)
        nf = olk.luxemburg_norm(quad_phi, w, f)
        ng = olk.luxemburg_norm(quad_phi, w, g)
        assert ns <= nf + ng + 1e-9
        assert ns >= max(nf, ng) - 1e-9


def test_not_in_space_raises():
    phi = olk.PowerOrlicz(2.0, 0.5)
    w = olk.StepWeight(((math.inf, 1.0),))
    fat = olk.PowerTailProfile(0.25, 1.0)  # t^{-1/4} tail: no scaling helps
    with pytest.raises(NotInSpaceError):
        olk.luxemburg_norm(phi, w, fat)


# ---------------------------------------------------------------------------
# K-interval and pairing diagnostics


def test_amemiya_objective_constant_across_k_interval():
    rng = np.random.default_rng(79)
    checked = 0
    while checked < 15:
        phi = rand_phi(rng)
        if int(rng.integers(0, 2)):
            f, w = rand_step(rng), rand_step_weight(rng)
        else:
            f, w = rand_seq(rng), rand_seq_weight(rng)
        try:
            ki = olk.k_interval(phi, w, f)
        except (olk.ConvergenceError, DomainError):
            continue
        orl = olk.orlicz_norm_amemiya(phi, w, f)
        for k in (ki.lower, 0.5 * (ki.lower + ki.upper), ki.upper):
            val = (1.0 + olk.rho_modular(phi, w, f.scaled(k))) / k
            assert val == pytest.approx(orl, rel=1e-8)
        checked += 1


def test_pairing_report_identity(quad_phi, lebesgue_weight):
    f = olk.StepFunction(((2.0, 0.5), (1.0, 1.0)))
    report = olk.amemiya_pairing_report(quad_phi, lebesgue_weight, f)
    # the weighted pairing at the attaining k reproduces the Amemiya value
    assert report["amemiya_at_k"] == pytest.approx(
        report["orlicz_norm"], rel=1e-8)
    assert report["weighted_pairing"] == pytest.approx(
        report["amemiya_at_k"], rel=1e-6)
    assert set(report) == {"k", "weighted_pairing", "amemiya_at_k",
                           "orlicz_norm", "attained_norm"}


def test_dual_sup_oracle_matches_amemiya(quad_phi):
    w = olk.HarmonicSeqWeight()
    f = olk.FiniteSequence((2.0, 1.5, 0.5))
    orl = olk.orlicz_norm_amemiya(quad_phi, w, f)
    sup = olk.orlicz_norm_dual_sup_oracle(quad_phi, w, f)
    assert sup == pytest.approx(orl, rel=1e-6)


# ---------------------------------------------------------------------------
# scaling threshold


def test_theta_zero_for_finite_elements(quad_phi, lebesgue_weight):
    f = olk.StepFunction(((4.0, 0.5),))
    assert olk.theta(quad_phi, lebesgue_weight, f) == 0.0
    s = olk.FiniteSequence((3.0, 1.0))
    assert olk.theta(quad_phi, olk.ConstantSeqWeight(1.0), s) == 0.0


def test_theta_zero_for_banded_profile(quad_phi, lebesgue_weight):
    band = olk.BandRestriction(olk.PowerTailProfile(1.0, 1.0), 0.25, 2.0)
    assert olk.theta(quad_phi, lebesgue_weight, band) == 0.0


def test_theta_of_log_tail_under_exponential_gauge(lebesgue_weight):
    # the log tail needs scaling exactly below 1 before the exponential
    # modular becomes finite
    phi = olk.ExpOrlicz()
    f = olk.LogTailProfile(1.0)
    th = olk.theta(phi, lebesgue_weight, f)
    assert th == pytest.approx(1.0, abs=0.05)


def test_theta_scales_with_amplitude():
    phi = olk.FlatZeroOrlicz()
    w = olk.ConstantSeqWeight(1.0)
    f = olk.LogSeqTail(0.75)
    th = olk.theta(phi, w, f)
    assert th == pytest.approx(0.75, abs=0.04)


LEBESGUE = olk.StepWeight(((math.inf, 1.0),))
THETA_TABLE = [
    (olk.ExpOrlicz(), LEBESGUE, olk.LogTailProfile(1.0), 1.0),
    (olk.ExpOrlicz(), olk.PowerWeight(0.5), olk.LogTailProfile(0.3), 0.6),
    (olk.ExpOrlicz(), olk.StepWeight(((1.0, 2.0), (math.inf, 1.0))),
     olk.LogTailProfile(0.4), 0.4),
    (olk.ExpOrlicz(), LEBESGUE,
     olk.truncation_remainder(olk.LogTailProfile(1.0), 4), 1.0),
    (olk.FlatZeroOrlicz(), olk.ConstantSeqWeight(1.0), olk.LogSeqTail(0.75),
     0.75),
    (olk.FlatZeroOrlicz(), olk.ConstantSeqWeight(1.0),
     olk.ShiftedSeqTail(olk.LogSeqTail(0.75), 3), 0.75),
    (olk.FlatZeroOrlicz(), olk.PowerSeqWeight(0.5), olk.LogSeqTail(0.75),
     0.375),
    (olk.ExpOrlicz(), olk.PowerSeqWeight(0.25), olk.PowerSeqTail(0.8), 0.0),
    (olk.ExpOrlicz(), olk.HarmonicSeqWeight(), olk.LogSeqTail(1.0), 0.0),
    (olk.PowerOrlicz(2.0, 0.5), LEBESGUE, olk.LogTailProfile(1.0), 0.0),
]


@pytest.mark.parametrize("phi, w, f, expected", THETA_TABLE)
def test_theta_closed_form(phi, w, f, expected):
    assert olk.theta(phi, w, f) == expected


@pytest.mark.parametrize("phi, w, f, expected", THETA_TABLE)
@pytest.mark.parametrize("k", [-40, -3, 5, 60])
def test_theta_is_exactly_homogeneous(phi, w, f, expected, k):
    assert olk.theta(phi, w, f.scaled(2.0**k)) == 2.0**k * expected


@pytest.mark.parametrize("phi", [olk.PowerOrlicz(2.0, 0.5), olk.ExpOrlicz()])
def test_theta_of_a_fat_power_tail_is_not_in_space(phi):
    with pytest.raises(NotInSpaceError):
        olk.theta(phi, LEBESGUE, olk.PowerTailProfile(0.3))


class _Unlisted(DecreasingProfile):
    """exp(-t): a profile with no growth types."""

    def __init__(self, amplitude=1.0):
        self.amplitude = amplitude

    def value(self, t):
        return self.amplitude * np.exp(-np.asarray(t, dtype=float))

    def scaled(self, c):
        return _Unlisted(self.amplitude * c)


@pytest.mark.parametrize("fn", [olk.rho_modular, olk.luxemburg_norm,
                                olk.orlicz_norm_amemiya, olk.theta])
def test_profile_outside_the_catalog_is_undecided(fn):
    with pytest.raises(UndecidedError):
        fn(olk.PowerOrlicz(2.0, 0.5), LEBESGUE, _Unlisted())


def test_theta_below_gauge_norm(lebesgue_weight):
    # the threshold never exceeds the gauge norm
    phi = olk.ExpOrlicz()
    f = olk.LogTailProfile(1.0)
    th = olk.theta(phi, lebesgue_weight, f)
    lux = olk.luxemburg_norm(phi, lebesgue_weight, f)
    assert th <= lux + 1e-9


# ---------------------------------------------------------------------------
# truncation remainders approach the threshold


REMAINDER_GAUGE = {
    2: 1.610542744048871,
    4: 1.4263368640094995,
    8: 1.2557941261911765,
    16: 1.1485574329271913,
    32: 1.0864028925425373,
}

REMAINDER_AMEMIYA = {
    2: 2.98082033044958,
    4: 2.436607292207642,
    8: 1.842886915142111,
    16: 1.4545593930733953,
    32: 1.2476421408244915,
}


def test_remainder_norms_match_frozen_values(lebesgue_weight):
    phi = olk.ExpOrlicz()
    f = olk.LogTailProfile(1.0)
    for n, expected in REMAINDER_GAUGE.items():
        rem = olk.truncation_remainder(f, n)
        assert olk.luxemburg_norm(phi, lebesgue_weight, rem) == pytest.approx(
            expected, rel=1e-8)
    for n, expected in REMAINDER_AMEMIYA.items():
        rem = olk.truncation_remainder(f, n)
        assert olk.orlicz_norm_amemiya(
            phi, lebesgue_weight, rem) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("n", [709, 710, 1000, 2**20, 2**40])
def test_log_tail_truncation_past_the_expm1_overflow(n, lebesgue_weight):
    # the level measure at lam = n is e^-n / (1 - e^-n), below 1e-307 here
    f = olk.LogTailProfile(1.0)
    kept, rem = olk.truncate(f, n), olk.truncation_remainder(f, n)
    assert kept.support_measure == pytest.approx(
        1.0 / math.expm1(1.0 / n), rel=1e-12)
    assert 0.0 <= rem.level_measure(float(n)) < 1e-307
    assert olk.theta(olk.ExpOrlicz(), lebesgue_weight, rem) == 1.0


def test_remainder_norms_decrease_toward_threshold(lebesgue_weight):
    phi = olk.ExpOrlicz()
    f = olk.LogTailProfile(1.0)
    th = olk.theta(phi, lebesgue_weight, f)
    gauge = [REMAINDER_GAUGE[n] for n in (2, 4, 8, 16, 32)]
    amemiya = [REMAINDER_AMEMIYA[n] for n in (2, 4, 8, 16, 32)]
    for seq in (gauge, amemiya):
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert all(v > th for v in seq)
    # extrapolating the slowly-converging gauge tail confirms the limit is
    # the threshold: Aitken acceleration moves the estimate well inside the
    # plain sequence values
    x0, x1, x2 = gauge[-3:]
    accel = x2 - (x2 - x1) ** 2 / ((x2 - x1) - (x1 - x0))
    assert abs(accel - th) < abs(gauge[-1] - th)
    assert accel == pytest.approx(th, abs=0.05)
