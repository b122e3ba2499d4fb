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
    """A PowerOrlicz recording the argument of each call of its Young side,
    and counting the calls of its log kernel, one per profile probe."""

    def __post_init__(self):
        super().__post_init__()
        self.calls = []
        self.log_calls = 0

    def young(self, u):
        self.calls.append(np.asarray(u).tolist())
        return super().young(u)

    def _log_young(self, log_u):
        self.log_calls += 1
        return super()._log_young(log_u)


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
    # the two solves, unmemoised, on the Young side sum young(k v / v_0) m
    # of the layout, in plain NumPy
    layout = finite_layout(f.rearranged(), w)
    unit_scale = float(layout.values[0])
    unit = layout.values / unit_scale
    solves = []
    for strict in (False, True):
        counted = _CountedPower(exponent, scale)

        def log_young_side(k):
            total = float(np.sum(counted.young(k * unit) * layout.w_masses))
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


def test_k_interval_on_a_profile_reuses_the_first_solves_probes(
        monkeypatch):
    # the Young side of a profile keeps its sums by k, so the strict solve,
    # which here walks the first one's probes again, evaluates none anew
    probes = []
    real = solvers.increasing_root

    def recording(fn, **kwargs):
        def logged(c):
            probes.append(c)
            return fn(c)
        return real(logged, **kwargs)

    monkeypatch.setattr(solvers, "increasing_root", recording)
    phi = _CountedPower(2.0, 1.0)
    olk.k_interval(phi, olk.PowerWeight(0.0), olk.LogTailProfile(1.0))
    assert phi.log_calls == len(set(probes)) < len(probes)


# K(f) of a profile under c u^p: the Young side is (p - 1) phi, so
# Y(k) = (p - 1) k^p rho(f) and both ends are ((p - 1) rho(f))^(-1/p)
PROFILES_IN_SPACE = [
    (olk.PowerWeight(0.0), olk.LogTailProfile(0.5)),
    (olk.PowerWeight(0.0), olk.LogTailProfile(1.0)),
    (olk.HarmonicSeqWeight(), olk.PowerSeqTail(1.0)),
]
PROFILE_IDS = ["log-tail-0.5", "log-tail-1", "power-seq-tail-1"]


@pytest.mark.parametrize("exponent", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("w, f", PROFILES_IN_SPACE, ids=PROFILE_IDS)
def test_k_interval_of_a_profile_under_a_power_is_the_closed_form(
        exponent, w, f):
    phi = olk.PowerOrlicz(exponent)
    ki = olk.k_interval(phi, w, f)
    want = ((exponent - 1.0) * olk.rho_modular(phi, w, f))**(-1.0 / exponent)
    assert ki.lower == pytest.approx(want, rel=1e-12)
    assert ki.upper == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("phi", [olk.ExpOrlicz(), olk.LogOrlicz()],
                         ids=["exp", "log"])
@pytest.mark.parametrize("w, f", PROFILES_IN_SPACE + [
    (olk.HarmonicSeqWeight(), olk.LogSeqTail(1.0)),
    (TWO_BREAKPOINTS,
     olk.BandRestriction(olk.PowerTailProfile(0.75, 0.8), 0.25, 2.0)),
], ids=PROFILE_IDS + ["log-seq-tail-1", "band"])
def test_k_interval_of_a_profile_attains_the_orlicz_norm(phi, w, f):
    ki = olk.k_interval(phi, w, f)
    assert ki.attained_norm == pytest.approx(
        olk.orlicz_norm_amemiya(phi, w, f), rel=1e-10)


@pytest.mark.parametrize("w, f", [
    # Y is +inf at every k: t^-0.3 squared is not integrable at infinity,
    # and neither is (1 / log i)^2 against i^-0.5
    (olk.PowerWeight(0.0), olk.PowerTailProfile(0.3)),
    (olk.PowerSeqWeight(0.5), olk.LogSeqTail(1.0)),
], ids=["power-tail", "log-seq-tail"])
def test_k_interval_of_a_profile_outside_the_space_is_not_in_space(w, f):
    phi = olk.PowerOrlicz(2.0)
    for norm in (olk.orlicz_norm_amemiya, olk.k_interval):
        with pytest.raises(NotInSpaceError,
                           match="no tested scaling has a finite modular"):
            norm(phi, w, f)


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


# Finite results frozen as float.hex: the Luxemburg and Amemiya norms, the
# ends and attained norm of K(f), both dual norms on the conjugate and the
# Orlicz-side functional norm with singular part s.  They were made by
# running these routines on these instances at commit fe8701f, before the
# finite and profile solves shared one scaled-modular protocol; the solves
# run the same kernels on the same c * unit arrays, so no bit may move.
# The instances cover every family, TabulatedOrlicz on its exact Amemiya
# path and its linear-tail limit, steps and sequences, ties, and
# magnitudes near 2^+-900 (s scales with them); a TabulatedOrlicz has no
# K(f) and no dual norm, so it pins two results.
BIG, SMALL = 2.0**900, 2.0**-900
TABULATED = olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 0.5), (3.0, 4.5)))
FINITE_BITS = [
    ("power-step", olk.PowerOrlicz(2.5, 0.75), TWO_BREAKPOINTS,
     olk.StepFunction(((2.0, 1.0), (-3.5, 0.25), (0.75, 2.0))), 0.5,
     ("0x1.c4122fc1c3510p+1", "0x1.bb0f34322adcdp+2", "0x1.ed0e79e8178efp-3",
      "0x1.ed0e79e8178efp-3", "0x1.bb0f34322adcdp+2", "0x1.4778402f160e4p+0",
      "0x1.40f12050e2164p+1", "0x1.99ee8e443a5fdp+0")),
    ("power-seq-ties", olk.PowerOrlicz(1.5), olk.HarmonicSeqWeight(),
     olk.FiniteSequence((3.0, -1.25, 1.25, 0.5, 0.0, 1.25, 0.1875)), 0.5,
     ("0x1.cb2c8ebd8ff9ap+1", "0x1.b1e46d32ae2e4p+2", "0x1.c52053e8d2a83p-2",
      "0x1.c52053e8d2a83p-2", "0x1.b1e46d32ae2e5p+2", "0x1.1ca1ecc808df6p+1",
      "0x1.0cf5fc06ae0c9p+2", "0x1.33a4ea6c03e43p+1")),
    ("exp-step-ties", olk.ExpOrlicz(),
     olk.StepWeight(((1.0, 2.0), (math.inf, 1.0))),
     olk.StepFunction(((1.5, 0.5), (0.5, 1.0), (1.5, 0.75), (-0.5, 0.25))),
     0.5,
     ("0x1.e1486fc318bfap+0", "0x1.ddbe25f4d9e98p+1", "0x1.ebe92d6671581p-2",
      "0x1.ebe92d6671581p-2", "0x1.ddbe25f4d9e97p+1", "0x1.b874c6d0ae876p-1",
      "0x1.b5c76c05b7edap+0", "0x1.2afe28dc6c991p+0")),
    ("exp-seq", olk.ExpOrlicz(), olk.PowerSeqWeight(0.5),
     olk.FiniteSequence((0.25, 2.0, -1.0, 0.625)), 0.5,
     ("0x1.e0255538989c9p+0", "0x1.dab0aff1ba566p+1", "0x1.e3816a22d1398p-2",
      "0x1.e3816a22d1398p-2", "0x1.dab0aff1ba567p+1", "0x1.881b9d19d6dddp+0",
      "0x1.84ded38756f21p+1", "0x1.d477e12e62a30p+0")),
    ("log-step", olk.LogOrlicz(), TWO_BREAKPOINTS,
     olk.StepFunction(((4.0, 0.125), (1.0, 3.0), (0.0625, 1.0))), 0.5,
     ("0x1.07aeca13f50a7p+1", "0x1.05d110d57a2bbp+2", "0x1.1dd0e55b1077bp-1",
      "0x1.1dd0e55b1077bp-1", "0x1.05d110d57a2bap+2", "0x1.3a0ab2f4f3840p+0",
      "0x1.383a7f768f650p+1", "0x1.7a0ab806cbb09p+0")),
    ("log-seq-ties", olk.LogOrlicz(), olk.ConstantSeqWeight(0.75),
     olk.FiniteSequence((2.0, 2.0, 0.5, -2.0, 0.5)), 0.5,
     ("0x1.e6966baffa8cdp+0", "0x1.e3112f7d333abp+1", "0x1.369d9a88cecb5p-1",
      "0x1.369d9a88cecb5p-1", "0x1.e3112f7d333abp+1", "0x1.a8b950887db01p+1",
      "0x1.a5826fc4afe80p+2", "0x1.c5e8989277e9ep+1")),
    ("flat-zero-step", olk.FlatZeroOrlicz(0.35),
     olk.StepWeight(((2.0, 1.5), (math.inf, 0.5))),
     olk.StepFunction(((1.25, 1.0), (0.25, 2.0), (3.0, 0.5))), 0.5,
     ("0x1.2a08b68f5862ap+1", "0x1.29f37dd11b514p+2", "0x1.ad3dd3ddb549fp-2",
      "0x1.ad3dd3ddb549fp-2", "0x1.29f37dd11b513p+2", "0x1.59635d2c9d743p+0",
      "0x1.58f9af998212cp+1", "0x1.a3874f5ea6cb5p+0")),
    ("flat-zero-seq", olk.FlatZeroOrlicz(0.35),
     olk.ExplicitSeqWeight((2.0, 1.0, 0.5)),
     olk.FiniteSequence((1.0, 0.5, 0.25, 2.0)), 0.5,
     ("0x1.28fb80c0abea8p+1", "0x1.28aff6ea8b7d5p+2", "0x1.a594827507b3cp-2",
      "0x1.a594827507b3cp-2", "0x1.28aff6ea8b7d4p+2", "0x1.3dfe7b580768fp+0",
      "0x1.3d643ec58cc56p+1", "0x1.8a5266fa8a65fp+0")),
    ("tabulated-step", TABULATED, TWO_BREAKPOINTS,
     olk.StepFunction(((2.0, 1.0), (0.5, 0.5), (2.0, 0.25))), 0.5,
     ("0x1.a000000000032p+1", "0x1.5000000000000p+2")),
    ("tabulated-seq", TABULATED, olk.HarmonicSeqWeight(),
     olk.FiniteSequence((1.0, 0.5, 3.0, 0.5)), 0.5,
     ("0x1.47777777bb764p+1", "0x1.3955555555555p+2")),
    ("tabulated-limit",
     olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 0.5), (2.0, 1.25))),
     olk.HarmonicSeqWeight(), olk.FiniteSequence((1.0, 0.5)), 0.5,
     ("0x1.6666666673e32p-1", "0x1.e000000000000p-1")),
    ("power-seq-big", olk.PowerOrlicz(3.0, 0.5), olk.HarmonicSeqWeight(),
     olk.FiniteSequence((1.5 * BIG, -BIG, 0.25 * BIG)), 0.5 * BIG,
     ("0x1.3f498cac8720dp+900", "0x1.2db524f6f65e4p+901",
      "0x1.45d34ddde6fd5p-901", "0x1.45d34ddde6fd5p-901",
      "0x1.2db524f6f65e4p+901", "0x1.85372d71f2529p+900",
      "0x1.6fc91f73fe0c4p+901", "0x1.dee34aa700ff4p+900")),
    ("exp-step-small", olk.ExpOrlicz(),
     olk.StepWeight(((1.0, 2.0), (math.inf, 1.0))),
     olk.StepFunction(((3.0 * SMALL, 0.5), (SMALL, 1.5))), 0.5 * SMALL,
     ("0x1.653db033ca2b9p-899", "0x1.612bcf2f04484p-898",
      "0x1.44e6267151e33p+898", "0x1.44e6267151f51p+898",
      "0x1.612bcf2f04484p-898", "0x1.221b3bc44e1fep-900",
      "0x1.1fde99d41b130p-899", "0x1.6fc67dd794363p-900")),
    ("log-seq-big", olk.LogOrlicz(), olk.HarmonicSeqWeight(),
     olk.FiniteSequence((BIG, 0.5 * BIG, 0.5 * BIG)), 0.5 * BIG,
     ("0x1.51c96fd1e20b7p+899", "0x1.4e195c6edcc40p+900",
      "0x1.d135746c35ce2p-900", "0x1.d135746c35ce2p-900",
      "0x1.4e195c6edcc40p+900", "0x1.39b5b564eead9p+900",
      "0x1.36b55dc863024p+901", "0x1.77b2060a38205p+900")),
]


@pytest.mark.parametrize("phi, w, f, s, frozen",
                         [case[1:] for case in FINITE_BITS],
                         ids=[case[0] for case in FINITE_BITS])
def test_finite_results_are_frozen(phi, w, f, s, frozen):
    got = [olk.luxemburg_norm(phi, w, f), olk.orlicz_norm_amemiya(phi, w, f)]
    if phi.is_n_function:
        ki = olk.k_interval(phi, w, f)
        conj = phi.conjugate()
        got += [ki.lower, ki.upper, ki.attained_norm,
                olk.dual_luxemburg_norm(conj, w, f),
                olk.dual_orlicz_norm(conj, w, f),
                olk.functional_norm_orlicz_side(phi, w, f, s)]
    assert [x.hex() for x in got] == list(frozen)


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


def test_pairing_report_is_for_finite_elements(monkeypatch):
    # the pairing reads the finite layout, so a profile is refused before
    # any solve runs
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(solvers, "increasing_root", no_solve)
    with pytest.raises(DomainError, match="expected a finite element"):
        olk.amemiya_pairing_report(olk.PowerOrlicz(2.0), olk.PowerWeight(0.0),
                                   olk.LogTailProfile(1.0))


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
