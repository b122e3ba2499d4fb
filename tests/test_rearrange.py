"""Decreasing rearrangements, measurable elements, and weights."""

import math
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import olk
from olk.errors import DomainError, UndecidedError, ValidationError

from conftest import dyadic, rand_seq, rand_step


# ---------------------------------------------------------------------------
# step functions


def test_step_rearranged_sorts_and_merges():
    f = olk.StepFunction(((1.0, 0.5), (3.0, 0.25), (1.0, 1.0)))
    r = f.rearranged()
    assert r.atoms == ((3.0, 0.25), (1.0, 1.5))
    assert r.is_canonical


def test_step_rearranged_drops_zero_values():
    f = olk.StepFunction(((0.0, 2.0), (1.0, 1.0)))
    assert f.rearranged().atoms == ((1.0, 1.0),)


def test_step_total_measure():
    f = olk.StepFunction(((2.0, 0.5), (1.0, 0.25)))
    assert f.total_measure == pytest.approx(0.75)


def test_step_scaling():
    f = olk.StepFunction(((2.0, 0.5), (1.0, 0.25)))
    g = f.scaled(2.0)
    assert g.atoms == ((4.0, 0.5), (2.0, 0.25))


def test_step_signed_values_rearrange_by_magnitude():
    f = olk.StepFunction(((-3.0, 0.5), (1.0, 1.0)))
    assert f.rearranged().atoms == ((3.0, 0.5), (1.0, 1.0))


def test_step_rejects_bad_atoms():
    with pytest.raises(ValidationError):
        olk.StepFunction(((1.0, -1.0),))
    with pytest.raises(ValidationError):
        olk.StepFunction(((math.inf, 1.0),))
    with pytest.raises(ValidationError):
        olk.StepFunction(((1.0, 5.0),), gamma=2.0)


@pytest.mark.parametrize("atoms, field, message", [
    (((1.0, 1.0), (math.inf, 1.0)), "atoms[1]", "value must be finite"),
    (((1.0, 1.0), (1.0, -1.0)), "atoms[1]", "measure must be finite"),
    (((math.nan, -1.0),), "atoms[0]", "value must be finite"),
    (((1.0, 1.0), (2.0, math.nan), (math.inf, 1.0)), "atoms[1]",
     "measure must be finite"),
    (((1.0, 1.0), (1.0, 2.0, 3.0)), "atoms[1]", "pair of numbers"),
    (((1.0, 1.0), 3.0), "atoms[1]", "pair of numbers"),
    (((1.0,), (math.inf, 1.0)), "atoms[0]", "pair of numbers"),
    (((1.0, 1.0), ("x", 1.0)), "atoms[1]", "pair of numbers"),
    (((1.0, -1.0), (1.0,)), "atoms[0]", "measure must be finite"),
    (((1.0, 1.0), (1.0, 1.0), (1.0, 2.0, 3.0), (1.0,)), "atoms[2]",
     "pair of numbers"),
], ids=["value", "measure", "value-first", "first-index", "triple",
        "scalar", "single", "string", "bad-measure-before-non-pair",
        "first-non-pair"])
def test_step_names_the_first_bad_atom(atoms, field, message):
    with pytest.raises(ValidationError) as info:
        olk.StepFunction(atoms)
    assert info.value.field == field
    assert message in str(info.value)


def test_sequence_rejects_non_finite_entries():
    with pytest.raises(ValidationError) as info:
        olk.FiniteSequence((1.0, 2.0, math.inf))
    assert info.value.field == "entries"
    with pytest.raises(ValidationError):
        olk.FiniteSequence((1.0, 2.0)).scaled(1e308)
    with pytest.raises(ValidationError):
        olk.StepFunction(((2.0, 1.0),)).scaled(1e308)


def test_finite_elements_read_like_frozen_dataclasses():
    f = olk.StepFunction([(1, 2), (3.0, 0.0), (-0.5, 0.25)])
    assert f.atoms == ((1.0, 2.0), (-0.5, 0.25))
    assert repr(f) == ("StepFunction(atoms=((1.0, 2.0), (-0.5, 0.25)), "
                       "gamma=inf)")
    g = olk.StepFunction(((1.0, 2.0), (-0.5, 0.25)))
    assert f == g and hash(f) == hash(g) and f != g.scaled(2.0)
    assert f != olk.StepFunction(f.atoms, gamma=10.0)
    s = olk.FiniteSequence([2, 0.0, -1.5])
    assert s.entries == (2.0, 0.0, -1.5)
    assert repr(s) == "FiniteSequence(entries=(2.0, 0.0, -1.5))"
    assert s == olk.FiniteSequence(s.entries) and hash(s) == hash((s.entries,))
    assert s != olk.FiniteSequence((2.0, 0.0))
    with pytest.raises(FrozenInstanceError):
        f.gamma = 1.0
    with pytest.raises(FrozenInstanceError):
        s.entries = ()


def test_norms_and_level_functions_leave_the_tuples_unbuilt():
    # the solvers read the arrays; the tuple view is built only on request
    phi = olk.PowerOrlicz(2.0, 1.0)
    seq = olk.FiniteSequence((3.0, -1.0, 2.0, 2.0, 0.0))
    canon = seq.rearranged()
    w = olk.HarmonicSeqWeight()
    olk.luxemburg_norm(phi, w, seq)
    olk.dual_luxemburg_norm(phi, w, seq)
    olk.level_sequence(canon, w)
    step = olk.StepFunction(((3.0, 0.5), (-1.0, 1.0), (3.0, 0.25)))
    canon_step = step.rearranged()
    sw = olk.StepWeight(((1.0, 2.0), (math.inf, 1.0)))
    olk.luxemburg_norm(phi, sw, step)
    olk.dual_luxemburg_norm(phi, sw, step)
    olk.level_function(canon_step, sw)
    assert "entries" not in vars(seq) and "entries" not in vars(canon)
    assert "atoms" not in vars(step) and "atoms" not in vars(canon_step)
    assert canon.entries == (3.0, 2.0, 2.0, 1.0)
    assert "entries" in vars(canon)


def _reference_step_rearranged(atoms):
    """The tuple sort-and-merge that the arrays replaced: zero-measure
    atoms dropped, a stable sort by -|value|, ties merged left to right."""
    pairs = sorted(((abs(v), m) for v, m in atoms if v != 0.0 and m > 0.0),
                   key=lambda p: -p[0])
    merged = []
    for value, measure in pairs:
        if merged and merged[-1][0] == value:
            merged[-1][1] += measure
        else:
            merged.append([value, measure])
    return tuple((v, m) for v, m in merged)


def _tied_values(rng, n, distinct):
    """n signed values drawn from a few magnitudes in 2^-900 ... 2^900 and
    zero, so long runs tie."""
    palette = np.ldexp(rng.uniform(0.5, 1.0, distinct),
                       rng.integers(-900, 901, distinct))
    return (rng.choice(np.append(palette, 0.0), n)
            * rng.choice([-1.0, 1.0], n))


# Hypothesis draws the shape; a seeded generator draws full-precision
# measures, whose sums over a tied run round differently in another order
_SHAPES = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
               distinct=st.integers(1, 5))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(spread=st.sampled_from([0, 60, 900]), **_SHAPES)
def test_step_rearranged_matches_the_tuple_reference(seed, n, distinct,
                                                      spread):
    rng = np.random.default_rng(seed)
    values = _tied_values(rng, n, distinct)
    measures = (np.ldexp(rng.uniform(0.5, 1.0, n),
                         rng.integers(-spread, spread + 1, n))
                * (rng.random(n) < 0.9))
    atoms = tuple(zip(values.tolist(), measures.tolist()))
    r = olk.StepFunction(atoms).rearranged()
    assert r.atoms == _reference_step_rearranged(atoms)
    assert r.is_canonical


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 200),
       tied=st.booleans())
def test_step_rearranged_orders_atoms_as_a_stable_argsort(seed, n, tied):
    # tie-free input skips the tie-order sort and the merge; both kinds
    # must give the atoms of a stable argsort, ties added left to right
    rng = np.random.default_rng(seed)
    if tied:
        values = _tied_values(rng, n, 3)
    else:
        values = (rng.permutation(np.arange(1.0, n + 1.0))
                  * rng.choice([-1.0, 1.0], n) * 2.0**rng.integers(-60, 61))
    measures = rng.uniform(0.5, 1.0, n)
    r = olk.StepFunction(tuple(zip(values.tolist(),
                                   measures.tolist()))).rearranged()
    mags = np.abs(values)
    order = np.argsort(-mags, kind="stable")
    merged = []
    for k in order[mags[order] > 0.0].tolist():
        if merged and merged[-1][0] == mags[k]:
            merged[-1][1] += measures[k]
        else:
            merged.append([mags[k], measures[k]])
    assert r._values.tolist() == [v for v, _ in merged]
    assert r._measures.tolist() == [m for _, m in merged]
    if not tied:
        assert r._values.size == n


@settings(max_examples=100, derandomize=True, deadline=None)
@given(**_SHAPES)
def test_sequence_rearranged_matches_the_tuple_reference(seed, n, distinct):
    entries = _tied_values(np.random.default_rng(seed), n, distinct).tolist()
    reference = sorted((abs(x) for x in entries), reverse=True)
    while reference and reference[-1] == 0.0:
        reference.pop()
    r = olk.FiniteSequence(entries).rearranged()
    assert r.entries == tuple(reference)
    assert r.is_canonical


def test_distribution_function_of_step():
    f = olk.StepFunction(((3.0, 0.5), (1.0, 1.5)))
    assert olk.distribution(f, 0.5) == pytest.approx(2.0)
    assert olk.distribution(f, 1.0) == pytest.approx(0.5)
    assert olk.distribution(f, 2.5) == pytest.approx(0.5)
    assert olk.distribution(f, 3.0) == 0.0


def test_rearrangement_is_equimeasurable_with_original():
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = rand_step(rng)
        assert olk.equimeasurable(f, f.rearranged())


def test_rearrangement_idempotent():
    rng = np.random.default_rng(12)
    for _ in range(25):
        r = rand_step(rng).rearranged()
        assert r.rearranged().atoms == r.atoms


def test_disjoint_sum_measures_add():
    f = olk.StepFunction(((2.0, 1.0),))
    g = olk.StepFunction(((1.0, 0.5),))
    s = olk.disjoint_sum(f, g)
    assert s.total_measure == pytest.approx(1.5)
    assert olk.distribution(s, 0.5) == pytest.approx(1.5)
    assert olk.distribution(s, 1.5) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        olk.disjoint_sum(olk.StepFunction(f.atoms, 1.25),
                         olk.StepFunction(((1.0, 0.5),), 1.25))


def test_disjoint_sum_of_sequences():
    f = olk.FiniteSequence((1.0, 0.0, -2.0))
    g = olk.FiniteSequence((0.0, 3.0))
    assert olk.disjoint_sum(f, g).entries == (1.0, 3.0, -2.0)
    assert olk.disjoint_sum(g, f).entries == (1.0, 3.0, -2.0)
    assert olk.distribution(olk.disjoint_sum(f, g), 1.5) == 2
    with pytest.raises(DomainError):
        olk.disjoint_sum(f, olk.FiniteSequence((0.5,)))


# ---------------------------------------------------------------------------
# finite sequences


def test_sequence_rearranged_sorts_descending():
    f = olk.FiniteSequence((1.0, 3.0, 2.0, 0.0, 2.0))
    assert f.rearranged().entries == (3.0, 2.0, 2.0, 1.0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(entries=st.lists(st.floats(0.0, 16.0), min_size=0, max_size=8))
def test_sequence_rearranged_is_permutation_of_positive_part(entries):
    f = olk.FiniteSequence(tuple(entries))
    r = f.rearranged()
    assert sorted(r.entries) == sorted(v for v in entries if v > 0.0)
    assert all(a >= b for a, b in zip(r.entries, r.entries[1:]))


def test_sequence_support():
    assert olk.FiniteSequence((2.0, 1.0, 3.0)).support == 3
    assert olk.FiniteSequence((2.0, 0.0, 3.0)).support == 2
    assert olk.FiniteSequence(()).support == 0


def test_element_setting_dispatch():
    assert olk.element_setting(olk.StepFunction(((1.0, 1.0),))) == "function"
    assert olk.element_setting(olk.FiniteSequence((1.0,))) == "sequence"
    assert olk.element_setting(olk.LogTailProfile(1.0)) == "function"
    assert olk.element_setting(olk.LogSeqTail(1.0)) == "sequence"


# ---------------------------------------------------------------------------
# decreasing profiles


def test_log_tail_profile_values():
    f = olk.LogTailProfile(1.0)
    # value(t) = log(1 + 1/t), so the level set {f > lam} has measure
    # 1/(e^lam - 1)
    t = 1.0 / math.expm1(2.0)
    assert f.value(t) == pytest.approx(2.0, rel=1e-12)
    assert f.level_measure(2.0) == pytest.approx(t, rel=1e-12)
    assert f.value(1.0) >= f.value(2.0)


def test_log_tail_profile_at_zero_is_silent():
    f = olk.LogTailProfile(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f.value(0.0) == math.inf
        assert f.value(5e-324) == math.inf
        values = f.value(np.array([0.0, 1e-310, 1.0]))
    assert values[0] == values[1] == math.inf
    assert values[2] == pytest.approx(math.log(2.0), rel=1e-12)


def test_power_tail_profile_values():
    f = olk.PowerTailProfile(2.0, 3.0)
    t = 4.0
    assert f.rearranged_value(t) == pytest.approx(3.0 * t**-2.0, rel=1e-12)
    assert f.level_measure(3.0 * t**-2.0) == pytest.approx(t, rel=1e-12)


def test_band_restriction_keeps_value_band():
    base = olk.PowerTailProfile(1.0, 1.0)  # values 1/t
    band = olk.BandRestriction(base, 0.25, 2.0)
    # the band [0.25, 2) lives on original positions [0.5, 4)
    assert band.support_measure == pytest.approx(3.5)
    assert band.value(0.25) == 0.0          # head value 4 is above the band
    assert band.value(1.0) == pytest.approx(1.0, rel=1e-12)
    assert band.value(8.0) == 0.0           # tail value 1/8 is below
    # rearranged view slides the band to start at the origin
    assert band.rearranged_value(1.0) == pytest.approx(
        base.value(1.5), rel=1e-12)
    assert band.rearranged_value(5.0) == 0.0


def test_band_complement_is_pointwise_complement():
    base = olk.PowerTailProfile(1.0, 1.0)
    band = olk.BandRestriction(base, 0.25, 2.0)
    comp = olk.BandComplement(base, 0.25, 2.0)
    for t in (0.1, 0.5, 1.0, 3.9, 4.0, 9.0):
        assert band.value(t) + comp.value(t) == pytest.approx(
            base.value(t), rel=1e-12)


def test_band_level_measures_complement():
    base = olk.PowerTailProfile(1.0, 1.0)
    band = olk.BandRestriction(base, 0.25, 2.0)
    comp = olk.BandComplement(base, 0.25, 2.0)
    for lam in (0.1, 0.25, 0.5, 2.0, 3.0):
        assert band.level_measure(lam) + comp.level_measure(
            lam) == pytest.approx(base.level_measure(lam), rel=1e-12)


EQUIMEASURABLE_PROFILES = [
    olk.LogTailProfile(1.0),
    olk.PowerTailProfile(1.0, 1.0),
    olk.BandRestriction(olk.PowerTailProfile(1.0, 1.0), 0.25, 2.0),
    olk.BandComplement(olk.LogTailProfile(1.0), 0.25, 4.0),
    olk.PowerSeqTail(1.0),
    olk.ShiftedSeqTail(olk.LogSeqTail(0.5), 3),
]


@pytest.mark.parametrize("f", EQUIMEASURABLE_PROFILES,
                         ids=lambda f: type(f).__name__)
def test_profile_is_equimeasurable_with_its_rearranged_view(f):
    assert olk.equimeasurable(f, f.rearranged()) is True
    assert olk.equimeasurable(f.rearranged(), f) is True
    assert olk.equimeasurable(f, f) is True


def test_profile_and_finite_element_are_never_equimeasurable():
    # a finite element's distribution takes finitely many values
    step = olk.StepFunction(((2.0, 0.5), (1.0, 1.0)))
    band = olk.BandRestriction(olk.PowerTailProfile(1.0, 1.0), 0.25, 2.0)
    for f in (olk.LogTailProfile(1.0), band, band.rearranged()):
        assert olk.equimeasurable(f, step) is False
        assert olk.equimeasurable(step, f) is False
    seq = olk.FiniteSequence((1.0, 0.5))
    assert olk.equimeasurable(olk.PowerSeqTail(1.0), seq) is False
    assert olk.equimeasurable(seq, olk.PowerSeqTail(1.0)) is False


@pytest.mark.parametrize("f, g", [
    (olk.ShiftedSeqTail(olk.PowerSeqTail(1.0), 0), olk.PowerSeqTail(1.0)),
    (olk.PowerTailProfile(1.0, 1.0), olk.PowerTailProfile(1.0, 2.0)),
    (olk.BandRestriction(olk.PowerTailProfile(1.0, 1.0), 0.25, 2.0),
     olk.PowerTailProfile(1.0, 1.0)),
])
def test_other_profile_pairs_are_undecided(f, g):
    # no sampled levels: a pair the exact rules do not cover raises
    with pytest.raises(UndecidedError):
        olk.equimeasurable(f, g)


def test_equimeasurable_rejects_mixed_settings():
    with pytest.raises(DomainError):
        olk.equimeasurable(olk.LogTailProfile(1.0), olk.PowerSeqTail(1.0))


def test_log_tail_level_measure_underflows_instead_of_overflowing():
    f = olk.LogTailProfile(1.0)
    # the form 1 / expm1(lam) overflows past lam = 709.78
    assert olk.distribution(f, 1.0) == pytest.approx(1.0 / math.expm1(1.0),
                                                     rel=1e-15)
    assert 0.0 < olk.distribution(f, 700.0) < 1e-303
    assert olk.distribution(f, 710.0) == pytest.approx(math.exp(-710.0),
                                                       rel=1e-12)
    assert olk.distribution(f, 1e6) == 0.0
    assert olk.distribution(f, 1e-12) == pytest.approx(1e12, rel=1e-11)


def test_profile_scaling():
    f = olk.LogTailProfile(1.0)
    g = f.scaled(2.0)
    assert g.value(1.0) == pytest.approx(2.0 * f.value(1.0), rel=1e-12)


def test_seq_tail_values():
    f = olk.LogSeqTail(1.0)
    assert f.value(5) == pytest.approx(1.0 / math.log(6.0), rel=1e-12)
    assert f.value(5) >= f.value(6)
    g = olk.PowerSeqTail(2.0, 1.0)
    assert g.value(4) == pytest.approx(4.0**-2.0, rel=1e-12)
    assert g.level_count(1.0 / 16.0) == 3  # strictly above the level


def test_shifted_seq_tail_drops_head():
    base = olk.PowerSeqTail(1.0, 1.0)
    shifted = olk.ShiftedSeqTail(base, 3)
    assert shifted.value(1) == pytest.approx(base.value(4), rel=1e-12)


# ---------------------------------------------------------------------------
# weights


def test_step_weight_cumulative_and_inverse():
    # pieces are (length, level): level 2 on [0,2), then 0.5 forever
    w = olk.StepWeight(((2.0, 2.0), (math.inf, 0.5)))
    assert w.cumulative(1.0) == pytest.approx(2.0)
    assert w.cumulative(2.0) == pytest.approx(4.0)
    assert w.cumulative(4.0) == pytest.approx(5.0)
    assert w.inverse_cumulative(2.0) == pytest.approx(1.0)
    assert w.inverse_cumulative(4.5) == pytest.approx(3.0)
    assert w.breakpoints() == (2.0,)
    assert w.value(1.0) == 2.0 and w.value(3.0) == 0.5


def test_step_weight_requires_nonincreasing_levels():
    with pytest.raises(ValidationError):
        olk.StepWeight(((1.0, 1.0), (math.inf, 2.0)))


def test_step_weight_infinite_length_only_last():
    with pytest.raises(ValidationError):
        olk.StepWeight(((math.inf, 1.0), (1.0, 0.5)))


def test_finite_step_weight_has_finite_domain():
    w = olk.StepWeight(((10.0, 1.0),))
    assert w.gamma == 10.0
    with pytest.raises(DomainError):
        w.cumulative(11.0)


def test_power_weight_cumulative():
    w = olk.PowerWeight(0.5)  # w(t) = t^{-1/2}, W(t) = 2 sqrt(t)
    assert w.value(4.0) == pytest.approx(0.5)
    assert w.cumulative(4.0) == pytest.approx(4.0)
    assert w.inverse_cumulative(4.0) == pytest.approx(4.0)


def test_power_weight_rejects_non_integrable_exponent():
    with pytest.raises(ValidationError):
        olk.PowerWeight(1.0)
    with pytest.raises(ValidationError):
        olk.PowerWeight(-0.5)


def test_sequence_weights_prefix():
    w = olk.HarmonicSeqWeight()
    assert w.value(1) == 1.0
    assert w.value(3) == pytest.approx(1.0 / 3.0)
    assert w.prefix(3) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0)
    c = olk.ConstantSeqWeight(2.0)
    assert c.prefix(5) == pytest.approx(10.0)
    p = olk.PowerSeqWeight(0.5)
    assert p.value(4) == pytest.approx(0.5)
    e = olk.ExplicitSeqWeight((2.0, 1.0, 0.5))
    assert e.prefix(2) == pytest.approx(3.0)
    # beyond the explicit head the last level continues
    assert e.value(7) == pytest.approx(0.5)


def test_explicit_seq_weight_requires_nonincreasing():
    with pytest.raises(ValidationError):
        olk.ExplicitSeqWeight((1.0, 2.0))


# ---------------------------------------------------------------------------
# truncation helpers


def test_truncate_step_keeps_mid_band():
    f = olk.StepFunction(((4.0, 0.5), (0.2, 1.0)))
    t = olk.truncate(f, 3)
    # 4.0 > 3 is cut, 0.2 < 1/3 is cut
    assert t.rearranged().atoms == ()
    # bounds are inclusive: 0.2 == 1/5 stays at n = 5
    t2 = olk.truncate(f, 5)
    assert t2.rearranged().atoms == ((4.0, 0.5), (0.2, 1.0))
    assert olk.truncation_remainder(f, 5).rearranged().atoms == ()


def test_truncation_remainder_complements(quad_phi, lebesgue_weight):
    rng = np.random.default_rng(21)
    for _ in range(10):
        f = rand_step(rng)
        n = int(rng.integers(1, 6))
        kept = olk.truncate(f, n)
        rest = olk.truncation_remainder(f, n)
        total = (olk.rho_modular(quad_phi, lebesgue_weight, kept)
                 + olk.rho_modular(quad_phi, lebesgue_weight, rest))
        whole = olk.rho_modular(quad_phi, lebesgue_weight, f)
        assert total == pytest.approx(whole, rel=1e-9, abs=1e-12)


def test_truncate_sequence_keeps_head():
    f = olk.FiniteSequence((5.0, 3.0, 1.0))
    assert olk.truncate(f, 2).rearranged().entries == (5.0, 3.0)
    assert olk.truncation_remainder(f, 2).rearranged().entries == (1.0,)
    assert olk.truncation_remainder(f, 2).entries == (0.0, 0.0, 1.0)
    # beyond the support the remainder is n zeros
    assert olk.truncation_remainder(f, 5).entries == (0.0,) * 5
    assert olk.truncate(f, 5).entries == f.entries
