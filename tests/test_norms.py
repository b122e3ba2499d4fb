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
from olk import solvers
from olk.errors import DomainError, NotInSpaceError, UndecidedError
from olk.norms import _unit_scalings
from olk.profiles import DecreasingProfile
from olk.rearrange import finite_layout

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
        math.pi**2 / 6.0, rel=1e-12)


def test_modular_divergence_detected():
    # the square of log(1 + 1/t) is integrable at both ends (its modular is
    # pi^2/6 above); the square of t^(-1/4) is not integrable at infinity
    phi = olk.PowerOrlicz(2.0, 0.5)
    w = olk.StepWeight(((math.inf, 1.0),))
    assert math.isfinite(olk.rho_modular(phi, w, olk.LogTailProfile(1.0)))
    fat = olk.PowerTailProfile(0.25, 1.0)
    assert math.isinf(olk.rho_modular(phi, w, fat))


# rho_modular values frozen as float.hex: the DE nodes split their range at
# the weight's breakpoints and at the kinks breakpoints() reports, here the
# band head, so equal bits pin those pieces.  Each lies within 1e-15 of a
# 30-digit mpmath quadrature of the same integral (or of the series, summed
# to i = 999 and continued by Euler-Maclaurin): 1.5898775769795122742,
# 21.654231664188301325, 0.98805696908695624918, 0.52557519069003678406,
# 5.4393934642322665062 and 0.23745937165280417868
TWO_BREAKPOINTS = olk.StepWeight(((0.5, 3.0), (1.5, 2.0), (math.inf, 1.0)))
BAND_MODULARS = [
    (olk.BandRestriction(olk.PowerTailProfile(0.75, 0.8), 0.25, 2.0),
     "0x1.97023785c54e9p+0"),
    (olk.BandComplement(olk.PowerTailProfile(0.75, 0.8), 0.25, 2.0),
     "0x1.5a77bb9f1b24cp+4"),
    (olk.BandRestriction(olk.LogTailProfile(0.7), 0.25, 2.0),
     "0x1.f9e29a61a070ep-1"),
    (olk.BandComplement(olk.LogTailProfile(0.7), 0.25, 2.0),
     "0x1.0d1830ff34918p-1"),
]


@pytest.mark.parametrize("view", ["wrapper", "rearranged"])
@pytest.mark.parametrize("f, frozen", BAND_MODULARS, ids=[
    "restrict-power", "complement-power", "restrict-log", "complement-log"])
def test_band_modular_quadrature_pieces_are_frozen(f, frozen, view):
    g = f.rearranged() if view == "rearranged" else f
    assert olk.rho_modular(olk.LogOrlicz(), TWO_BREAKPOINTS, g) \
        == float.fromhex(frozen)


@pytest.mark.parametrize("phi, f, frozen", [
    (olk.FlatZeroOrlicz(), olk.ShiftedSeqTail(olk.LogSeqTail(1.5), 3),
     "0x1.5c1f05c3bd09cp+2"),
    (olk.PowerOrlicz(2.0, 0.5),
     olk.ShiftedSeqTail(olk.PowerSeqTail(0.8, 1.2), 3),
     "0x1.e651195b05203p-3"),
], ids=["log-tail", "power-tail"])
def test_shifted_tail_modular_is_frozen(phi, f, frozen):
    assert olk.rho_modular(phi, olk.PowerSeqWeight(0.5), f) \
        == float.fromhex(frozen)


# a (-gamma - digamma(1 - a)), the modular of a log(1 + 1/t) under exp(u)
# - u - 1 and w = 1, by mpmath at 40 digits; at a = 1 - 1e-6 and 1 - 1e-12
# the nodes may not resolve it, and then the library must say so
DIGAMMA_ANCHORS = [
    (0.5, math.log(2.0)),
    (0.9, 8.8618853479585895411),
    (0.999, 998.99835791064185884),
    (1.0 - 1e-6, 999998.99996959940426),
    (1.0 - 1e-12, 1000022122208.5028311),
]


@pytest.mark.parametrize("a, exact", DIGAMMA_ANCHORS)
def test_log_tail_modular_matches_digamma_anchor(a, exact, lebesgue_weight):
    f = olk.LogTailProfile(a)
    if a < 0.9999:
        assert olk.rho_modular(olk.ExpOrlicz(), lebesgue_weight, f) == \
            pytest.approx(exact, rel=1e-9)
        return
    try:
        value = olk.rho_modular(olk.ExpOrlicz(), lebesgue_weight, f)
    except UndecidedError:
        return
    assert value == pytest.approx(exact, rel=1e-9)


def test_log_seq_tail_modular_matches_the_reference_quadrature():
    # bench/reference.py's Gauss-Legendre value for the seed-1 slot 15 of
    # the profiles pool, whose tail the library once cut at log i = 700
    phi = olk.PowerOrlicz(1.5, 1.9375)
    f = olk.LogSeqTail(1.1371561710740203)
    assert olk.rho_modular(phi, olk.HarmonicSeqWeight(), f) == \
        pytest.approx(9.583370034510956, rel=1e-10)


@pytest.mark.parametrize("phi, f", [
    # (1 / log i)^1.02 / i: the tail decays too slowly for the nodes' reach
    (olk.PowerOrlicz(1.02), olk.LogSeqTail(1.0)),
    # the knot 1e-12 is crossed near i = 1e6, past the exact head
    (olk.TabulatedOrlicz(((0.0, 0.0), (1e-12, 1e-12), (1.0, 2.0))),
     olk.PowerSeqTail(2.0)),
], ids=["reach", "kink"])
def test_unresolved_profile_modular_is_undecided(phi, f):
    with pytest.raises(UndecidedError):
        olk.rho_modular(phi, olk.HarmonicSeqWeight(), f)


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


class _CountedPower(olk.PowerOrlicz):
    """A PowerOrlicz recording the argument of each call of its Young side."""

    def __post_init__(self):
        super().__post_init__()
        self.calls = []

    def young(self, u):
        self.calls.append(np.asarray(u).tolist())
        return super().young(u)


@pytest.mark.parametrize("exponent, scale, w, f, meets_one", [
    pytest.param(3.0, 1.0, olk.HarmonicSeqWeight(),
                 olk.FiniteSequence((3.0, -1.25, 1.25, 0.5, 0.0, 0.1875)),
                 False, id="3.0-1.0-False"),
    # Y(k) = 1.125 k^2.5 (8/9) rounds to exactly 1 at the first probe, k = 1
    pytest.param(2.5, 0.75, olk.ConstantSeqWeight(8.0 / 9.0),
                 olk.FiniteSequence((3.0,)), True, id="2.5-0.75-True"),
])
def test_k_interval_strict_solve_reuses_the_first_solves_probes(
        exponent, scale, w, f, meets_one):
    # the two solves, unmemoised, on the Young side
    layout = finite_layout(f.rearranged(), w)
    modular_at, unit_scale = _unit_scalings(layout.values, layout.w_masses)
    solves = []
    for strict in (False, True):
        counted = _CountedPower(exponent, scale)

        def log_young_side(k):
            total = modular_at(counted.young, k)
            return math.log(total) if total > 0.0 else -math.inf
        bracket = solvers.increasing_root(log_young_side, rel_tol=1e-13,
                                          strict=strict)
        solves.append((bracket, counted.calls))
    (first, probes), (second, strict_probes) = solves
    # where a probe meets a Young side of exactly 1 the two paths part
    assert (probes != strict_probes) == meets_one

    phi = _CountedPower(exponent, scale)
    ki = olk.k_interval(phi, w, f)
    distinct = {tuple(v) for v in probes + strict_probes}
    assert len(phi.calls) == len(distinct)
    assert ki.lower == first[1] / unit_scale
    assert ki.upper == second[1] / unit_scale


def test_k_interval_of_a_tiny_measure_step():
    # p(k) overflows at the probe k = 2^16, where the Young side must read
    # +inf, not fail; the Orlicz norm is attained on K(f)
    phi = olk.ExpOrlicz()
    w = olk.StepWeight(((math.inf, 1.0),))
    f = olk.StepFunction(((1.0, 1e-200),))
    ki = olk.k_interval(phi, w, f)
    norm = olk.orlicz_norm_amemiya(phi, w, f)
    assert ki.lower == pytest.approx(454.4002433240928, rel=1e-12)
    assert ki.attained_norm == pytest.approx(norm, rel=1e-12)


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
    root = math.sqrt(37.0 / 12.0)
    assert olk.luxemburg_norm(phi, w, band.scaled(c),
                              rel_tol=1e-13) / c == pytest.approx(
        root, rel=1e-12)
    assert olk.orlicz_norm_amemiya(phi, w, band.scaled(c),
                                   rel_tol=1e-13) / c == pytest.approx(
        2.0 * root, rel=1e-12)
    tail = olk.PowerSeqTail(1.0, 1.0).scaled(c)
    hw = olk.HarmonicSeqWeight()
    assert olk.luxemburg_norm(phi, hw, tail, rel_tol=1e-13) / c == \
        pytest.approx(math.sqrt(ZETA_3), rel=1e-12)
    assert olk.orlicz_norm_amemiya(phi, hw, tail, rel_tol=1e-13) / c == \
        pytest.approx(2.0 * math.sqrt(ZETA_3), rel=1e-12)


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


@pytest.mark.parametrize("setting", ["step", "sequence"])
def test_finite_solves_validate_no_probe(monkeypatch, setting):
    # the element is validated when it is built; the solves probe the bare
    # Orlicz kernels, so no probe revalidates its argument
    validations = [0]
    real = olk.orlicz._as_array

    def counting(u):
        validations[0] += 1
        return real(u)

    monkeypatch.setattr(olk.orlicz, "_as_array", counting)
    rng = np.random.default_rng(23)
    for _ in range(3):
        if setting == "step":
            f, w = rand_step(rng, max_atoms=40), rand_step_weight(rng)
        else:
            f, w = rand_seq(rng, max_len=40), rand_seq_weight(rng)
        for phi in FAMILIES:
            conj = phi.conjugate()
            for norm, on in ((olk.luxemburg_norm, phi),
                             (olk.orlicz_norm_amemiya, phi),
                             (olk.k_interval, phi),
                             (olk.dual_luxemburg_norm, conj),
                             (olk.dual_orlicz_norm, conj)):
                validations[0] = 0
                norm(on, w, f)
                assert validations[0] == 0, (norm.__name__, on)


class _PublicOnlyPower(olk.OrliczFunction):
    """c t^r through the public methods alone, as a user might write it."""

    def __init__(self, r, c):
        self.r, self.c = r, c
        self.growth = ((r, 0.0), (r, 0.0))

    def value(self, u):
        return self.c * np.asarray(u, dtype=float)**self.r

    def derivative(self, u):
        return self.c * self.r * np.asarray(u, dtype=float)**(self.r - 1.0)


@pytest.mark.parametrize("setting", ["step", "sequence"])
def test_a_subclass_with_only_public_methods_solves_as_the_catalog(setting):
    # its kernels fall back to its public value and derivative, which
    # compute what PowerOrlicz's kernels do, so every norm agrees exactly
    rng = np.random.default_rng(29)
    user, catalog = _PublicOnlyPower(2.5, 0.75), olk.PowerOrlicz(2.5, 0.75)
    for _ in range(4):
        if setting == "step":
            f, w = rand_step(rng, max_atoms=20), rand_step_weight(rng)
        else:
            f, w = rand_seq(rng, max_len=20), rand_seq_weight(rng)
        for norm in (olk.rho_modular, olk.luxemburg_norm,
                     olk.orlicz_norm_amemiya, olk.k_interval,
                     olk.P_modular, olk.dual_luxemburg_norm,
                     olk.dual_orlicz_norm):
            assert norm(user, w, f) == norm(catalog, w, f), norm.__name__


class _DoubledExp(olk.ExpOrlicz):
    """Twice ExpOrlicz, by overrides of the public value and derivative."""

    def value(self, u):
        return 2.0 * super().value(u)

    def derivative(self, u):
        return 2.0 * super().derivative(u)


class _PublicOnlyDoubledExp(olk.OrliczFunction):
    """Twice ExpOrlicz through the public methods alone."""

    growth = olk.ExpOrlicz.growth

    def value(self, u):
        return 2.0 * olk.ExpOrlicz().value(u)

    def derivative(self, u):
        return 2.0 * olk.ExpOrlicz().derivative(u)


@pytest.mark.parametrize("setting", ["step", "sequence"])
def test_a_subclass_that_changes_phi_gets_the_generic_young_side(setting):
    # ExpOrlicz's closed Young side is written for its own phi; the
    # subclass gets u p(u) - phi(u) of the phi it computes, as a plain
    # subclass with the same public methods does, so every result agrees
    # exactly
    user, plain = _DoubledExp(), _PublicOnlyDoubledExp()
    u = np.geomspace(1e-3, 50.0, 200)
    assert user.young(u).tolist() == plain.young(u).tolist()
    assert user.young(u) == pytest.approx(2.0 * olk.ExpOrlicz().young(u),
                                          rel=1e-13)
    rng = np.random.default_rng(31)
    for _ in range(4):
        if setting == "step":
            f, w = rand_step(rng, max_atoms=20), rand_step_weight(rng)
        else:
            f, w = rand_seq(rng, max_len=20), rand_seq_weight(rng)
        for norm in (olk.orlicz_norm_amemiya, olk.k_interval):
            assert norm(user, w, f) == norm(plain, w, f), norm.__name__


def _pass_through(phi):
    """phi in a subclass whose public value and derivative only pass
    through, as a counting wrapper's do."""
    cls = type(phi)
    sub = type("PassThrough" + cls.__name__, (cls,), {
        "value": lambda self, u: cls.value(self, u),
        "derivative": lambda self, u: cls.derivative(self, u)})
    clone = object.__new__(sub)
    clone.__dict__.update(phi.__dict__)
    return clone


@pytest.mark.parametrize("setting", ["step", "sequence"])
@pytest.mark.parametrize("phi", [
    olk.ExpOrlicz(), olk.LogOrlicz(), olk.FlatZeroOrlicz(0.35),
    olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 0.5), (3.0, 4.5)))],
    ids=["exp", "log", "flat-zero", "tabulated"])
def test_a_pass_through_override_keeps_the_closed_young_side(phi, setting):
    # its phi and p agree with the family's everywhere, so the finite
    # Amemiya, K(f) and dual Orlicz solves probe the family's closed Young
    # side and every result is bit-identical; the last two need an
    # N-function
    user = _pass_through(phi)
    norms = (olk.orlicz_norm_amemiya, olk.k_interval, olk.dual_orlicz_norm)
    u = np.concatenate([[0.0], np.geomspace(1e-300, 1e300, 601)])
    assert user.young(u).tolist() == phi.young(u).tolist()
    rng = np.random.default_rng(37)
    for _ in range(4):
        if setting == "step":
            f, w = rand_step(rng, max_atoms=20), rand_step_weight(rng)
        else:
            f, w = rand_seq(rng, max_len=20), rand_seq_weight(rng)
        for norm in norms[:None if phi.is_n_function else 1]:
            assert norm(user, w, f) == norm(phi, w, f), norm.__name__


class _ExpPlusSquareAboveTen(olk.ExpOrlicz):
    """ExpOrlicz plus (u - 10)^2 from u = 10 on, by overrides of the public
    value and derivative."""

    def value(self, u):
        d = np.maximum(np.asarray(u) - 10.0, 0.0)
        return super().value(u) + d * d

    def derivative(self, u):
        return super().derivative(u) + 2.0 * np.maximum(np.asarray(u) - 10.0,
                                                        0.0)


def test_the_closed_young_side_holds_only_where_an_override_agrees():
    # up to u = 10 phi and p are ExpOrlicz's bit for bit, past it they
    # are not, and there the Young side is u p(u) - phi(u) of the subclass
    user, family = _ExpPlusSquareAboveTen(), olk.ExpOrlicz()
    u = np.geomspace(1e-3, 30.0, 400)
    got, below = user.young(u), u <= 10.0
    assert got[below].tolist() == family.young(u[below]).tolist()
    above = u[~below]
    want = above * user.derivative(above) - user.value(above)
    assert got[~below].tolist() == want.tolist()
    assert not np.array_equal(got, family.young(u))


class _DoubledPower(olk.PowerOrlicz):
    """Twice PowerOrlicz, by an override of the public value alone."""

    def value(self, u):
        return 2.0 * super().value(u)


def test_a_catalog_subclass_overriding_value_runs_it_on_every_path():
    # the finite solves probe the kernel _value, the profile layouts the log
    # kernel _log_value; both must run the override, whose values are
    # exactly those of PowerOrlicz(2.5, 1.5)
    user, same = _DoubledPower(2.5, 0.75), olk.PowerOrlicz(2.5, 1.5)
    w = olk.StepWeight(((1.0, 2.0), (math.inf, 1.0)))
    hw = olk.HarmonicSeqWeight()
    for weight, f in ((w, olk.StepFunction(((2.0, 1.0), (1.0, 2.0)))),
                      (hw, olk.FiniteSequence((3.0, -1.25, 0.5))),
                      (w, olk.BandRestriction(olk.PowerTailProfile(1.0, 1.0),
                                              0.25, 2.0)),
                      (hw, olk.PowerSeqTail(1.0, 1.0))):
        for norm in (olk.rho_modular, olk.luxemburg_norm):
            assert norm(user, weight, f) == norm(same, weight, f), \
                (norm.__name__, f)


class _PassThroughExp(olk.ExpOrlicz):
    """ExpOrlicz through an override of the public value, as a counting
    wrapper has."""

    def value(self, u):
        return super().value(u)


@pytest.mark.parametrize("norm", [olk.rho_modular, olk.luxemburg_norm,
                                  olk.orlicz_norm_amemiya])
def test_a_pass_through_override_keeps_the_profile_norms(norm):
    # the nodes of a log head reach past the float range of exp, where the
    # subclass keeps its family's leading form
    f = olk.LogTailProfile(0.5)
    assert norm(_PassThroughExp(), LEBESGUE, f) == \
        norm(olk.ExpOrlicz(), LEBESGUE, f)


class _SuperOnly(olk.OrliczFunction):
    def value(self, u):
        return super().value(u)


def test_an_override_that_calls_the_base_method_is_not_implemented():
    phi, w = _SuperOnly(), olk.HarmonicSeqWeight()
    with pytest.raises(NotImplementedError):
        phi.value(1.0)
    with pytest.raises(NotImplementedError):
        olk.rho_modular(phi, w, olk.FiniteSequence((1.0,)))


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
        2.25, rel=1e-14)
    # on a profile the root-finder looks for the root: the band keeps 1/t
    # on [1/2, 4), so under w = 1 the Young side stays at most 0.25 * 3.5
    # and the norm is the limit 0.75 log 8; under w = 2 it reaches 1
    band = olk.BandRestriction(olk.PowerTailProfile(1.0, 1.0), 0.25, 2.0)
    assert olk.orlicz_norm_amemiya(
        linear, olk.StepWeight(((math.inf, 1.0),)), band) == pytest.approx(
            0.75 * math.log(8.0), rel=1e-8)
    assert olk.orlicz_norm_amemiya(
        linear, olk.StepWeight(((math.inf, 2.0),)), band) < \
        2.0 * 0.75 * math.log(8.0)


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


class _UnlistedWeight(olk.profiles.Weight):
    """1 / (1 + t): a weight with no growth type."""

    def value(self, t):
        return 1.0 / (1.0 + np.asarray(t, dtype=float))

    def cumulative(self, t):
        return np.log1p(np.asarray(t, dtype=float))


@pytest.mark.parametrize("fn", [olk.rho_modular, olk.luxemburg_norm,
                                olk.orlicz_norm_amemiya, olk.theta])
def test_weight_outside_the_catalog_is_undecided(fn):
    with pytest.raises(UndecidedError):
        fn(olk.PowerOrlicz(2.0, 0.5), _UnlistedWeight(), olk.LogTailProfile())


@pytest.mark.parametrize("f, w", [
    (olk.LogTailProfile(1.0), olk.HarmonicSeqWeight()),
    (olk.LogSeqTail(1.0), olk.StepWeight(((1.0, 2.0), (math.inf, 1.0)))),
    (olk.StepFunction(((1.0, 1.0),)), olk.HarmonicSeqWeight()),
    # gamma = 4 is shorter than the profile's infinite support
    (olk.LogTailProfile(1.0), olk.StepWeight(((1.0, 2.0), (3.0, 1.0)))),
], ids=["profile-sequence-weight", "tail-function-weight",
        "step-sequence-weight", "profile-longer-than-gamma"])
def test_theta_checks_the_weight_as_the_modular_does(f, w):
    phi = olk.ExpOrlicz()
    with pytest.raises(DomainError) as modular:
        olk.rho_modular(phi, w, f)
    with pytest.raises(DomainError) as threshold:
        olk.theta(phi, w, f)
    assert str(threshold.value) == str(modular.value)


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


# the Luxemburg norms at n = 256 and 4096: roots of 30-digit mpmath
# quadratures of the head integral over t = e^-y in [0, e^-n / (1 - e^-n))
# and of the tail past the band
FAR_REMAINDER_GAUGE = {256: 1.0163934288452576, 4096: 1.0015779980546191}


def test_far_remainder_norms_match_mpmath(lebesgue_weight):
    f = olk.LogTailProfile(1.0)
    for n, expected in FAR_REMAINDER_GAUGE.items():
        rem = olk.truncation_remainder(f, n)
        assert olk.luxemburg_norm(olk.ExpOrlicz(), lebesgue_weight,
                                  rem) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("m, expected", [
    # the values above 2 of the band come first, then those below 1/2
    (2, 0.7139264092890494),
    # only the values below 1/3, on a support that ends with the band's
    (3, 0.33214529092995704),
])
def test_remainder_of_a_band_keeps_its_support(m, expected):
    # roots of SciPy quadratures (epsrel 1e-13) of the modular of f* written
    # out piece by piece, under (1 + u) log(1 + u) - u and w = t^-1/4
    band = olk.BandRestriction(olk.LogTailProfile(1.2), 0.1, 2.5)
    rem = olk.truncation_remainder(band, m)
    assert olk.luxemburg_norm(olk.LogOrlicz(), olk.PowerWeight(0.25),
                              rem) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("n", [746, 4096])
def test_band_head_below_the_least_float_stays_unbounded(n):
    # the head e^-n / (1 - e^-n) underflows to 0, and f* at 0 must still
    # exceed n, as must f* at t = e^-(n + 1), given in log coordinates; the
    # kept band stays at most n
    f = olk.LogTailProfile(1.0)
    rem = olk.truncation_remainder(f, n)
    assert rem.rearranged_value(0.0) > n
    assert rem.rearranged().value(0.0) > n
    assert rem._log_star(np.array([-n - 1.0]))[0] > math.log(n)
    assert olk.truncate(f, n).rearranged_value(0.0) == n


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
