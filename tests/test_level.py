"""Level decompositions: flattening an element onto ratio-constant blocks.

The independent oracle here reconstructs the decomposition from the least
concave majorant of the cumulative mass graph (W(t), H(t)) via a monotone
convex-hull scan, which is a different algorithm from the library's
stack-merge construction.
"""

import math

import numpy as np
import pytest

import olk
from olk.errors import DomainError

from conftest import rand_seq, rand_step, rand_step_weight, rand_seq_weight


# ---------------------------------------------------------------------------
# hull-based oracle


def _hull_ratios(wcum, hcum):
    """Slopes of the least concave majorant of the points
    (wcum[i], hcum[i]), i = 0..m, as (ratio, w_span) blocks."""
    pts = [(0.0, 0.0)] + list(zip(wcum, hcum))
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop the middle point when it lies on or below the chord
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1) * (
                    1.0 + 1e-15):
                hull.pop()
            else:
                break
        hull.append(p)
    blocks = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        blocks.append(((y2 - y1) / (x2 - x1), x2 - x1))
    return blocks


def _sequence_cumulatives(h, w):
    vals = np.asarray(h.rearranged().entries)
    n = len(vals)
    wts = np.array([w.value(i) for i in range(1, n + 1)])
    return np.cumsum(wts), np.cumsum(vals)


def _step_cumulatives(h, w):
    r = h.rearranged()
    cuts = set()
    pos = 0.0
    for _, m in r.atoms:
        pos += m
        cuts.add(pos)
    for b in w.breakpoints():
        if 0.0 < b < pos:
            cuts.add(b)
    cuts = sorted(cuts)
    wcum, hcum = [], []
    for t in cuts:
        wcum.append(w.cumulative(t))
        # unweighted integral of h* up to t
        total, left = 0.0, 0.0
        for v, m in r.atoms:
            right = min(left + m, t)
            if right > left:
                total += v * (right - left)
            left += m
            if left >= t:
                break
        hcum.append(total)
    return np.array(wcum), np.array(hcum)


# ---------------------------------------------------------------------------
# fixed examples


def test_level_of_decreasing_steps_is_identity(lebesgue_weight):
    h = olk.StepFunction(((5.0, 1.0), (2.0, 1.0))).rearranged()
    dec = olk.level_function(h, lebesgue_weight)
    assert [(iv.lower, iv.upper, iv.ratio) for iv in dec.intervals] == [
        (0.0, 1.0, 5.0), (1.0, 2.0, 2.0)]
    assert olk.evaluate_level(dec, 0.5) == 5.0
    assert olk.evaluate_level(dec, 1.5) == 2.0
    assert olk.evaluate_level(dec, 3.0) == 0.0


def test_level_merges_blocks_with_equal_ratio():
    h = olk.FiniteSequence((1.0, 1.0)).rearranged()
    w = olk.ExplicitSeqWeight((2.0, 1.0))
    dec = olk.level_sequence(h, w)
    assert len(dec.intervals) == 1
    iv = dec.intervals[0]
    assert (iv.lower, iv.upper) == (0, 2)
    assert iv.ratio == pytest.approx(2.0 / 3.0)
    # the level values follow the weight inside the block
    assert olk.evaluate_level(dec, 1) == pytest.approx(4.0 / 3.0)
    assert olk.evaluate_level(dec, 2) == pytest.approx(2.0 / 3.0)


def test_sequence_interval_ends_are_ints():
    # the ends index positions, and `olk level` prints them as integers
    rng = np.random.default_rng(37)
    for _ in range(20):
        h = rand_seq(rng).rearranged()
        dec = olk.level_sequence(h, rand_seq_weight(rng))
        assert type(dec.support_end) is int
        for iv in dec.intervals:
            assert type(iv.lower) is int and type(iv.upper) is int
            assert type(iv.ratio) is float


def test_level_respects_weight_breakpoints():
    h = olk.StepFunction(((3.0, 0.5), (1.0, 1.5), (2.5, 0.25))).rearranged()
    w = olk.StepWeight(((2.0, 2.0), (math.inf, 0.5)))
    dec = olk.level_function(h, w)
    ratios = [iv.ratio for iv in dec.intervals]
    assert ratios == sorted(ratios, reverse=True)
    assert dec.support_end == pytest.approx(2.25)


def test_level_interval_reads_as_before():
    # a named tuple with the repr and hash of the frozen dataclass it
    # replaced; its fields cannot be assigned
    iv = olk.LevelInterval(0.0, 1.5, 2.0, 3.0, 1.5)
    assert repr(iv) == ("LevelInterval(lower=0.0, upper=1.5, ratio=2.0, "
                        "h_mass=3.0, w_mass=1.5)")
    assert hash(iv) == hash((0.0, 1.5, 2.0, 3.0, 1.5))
    assert iv == olk.LevelInterval(lower=0.0, upper=1.5, ratio=2.0,
                                   h_mass=3.0, w_mass=1.5)
    with pytest.raises(AttributeError):
        iv.ratio = 1.0


def test_evaluate_level_at_every_edge():
    # a function interval holds [lower, upper), a sequence interval
    # (lower, upper]; h0 is zero past the support
    rng = np.random.default_rng(41)
    for _ in range(20):
        h = rand_step(rng, max_atoms=12).rearranged()
        dec = olk.level_function(h, rand_step_weight(rng))
        w = dec.weight
        for iv in dec.intervals:
            for t in (iv.lower, math.nextafter(iv.upper, -math.inf)):
                assert olk.evaluate_level(dec, t) == iv.ratio * w.value(t)
        if dec.support_end < w.gamma:
            assert olk.evaluate_level(dec, dec.support_end) == 0.0

        h = rand_seq(rng, max_len=12).rearranged()
        dec = olk.level_sequence(h, rand_seq_weight(rng))
        w = dec.weight
        for iv in dec.intervals:
            for i in (iv.lower + 1, iv.upper):
                assert olk.evaluate_level(dec, i) == iv.ratio * w.value(i)
        assert olk.evaluate_level(dec, dec.support_end + 1) == 0.0


def test_level_requires_canonical_input(lebesgue_weight):
    messy = olk.StepFunction(((1.0, 1.0), (2.0, 1.0)))
    with pytest.raises(DomainError):
        olk.level_function(messy, lebesgue_weight)


# ---------------------------------------------------------------------------
# oracle agreement


def test_sequence_level_matches_hull_oracle():
    rng = np.random.default_rng(31)
    for _ in range(120):
        h = rand_seq(rng).rearranged()
        if not h.entries:
            continue
        w = rand_seq_weight(rng)
        dec = olk.level_sequence(h, w)
        wcum, hcum = _sequence_cumulatives(h, w)
        expected = _hull_ratios(wcum, hcum)
        got = [(iv.ratio, iv.w_mass) for iv in dec.intervals]
        assert len(got) == len(expected)
        for (r1, s1), (r2, s2) in zip(got, expected):
            assert r1 == pytest.approx(r2, rel=1e-9)
            assert s1 == pytest.approx(s2, rel=1e-9)


def test_function_level_matches_hull_oracle():
    rng = np.random.default_rng(32)
    for _ in range(120):
        h = rand_step(rng).rearranged()
        if not h.atoms:
            continue
        w = rand_step_weight(rng)
        dec = olk.level_function(h, w)
        wcum, hcum = _step_cumulatives(h, w)
        expected = _hull_ratios(wcum, hcum)
        got = [(iv.ratio, iv.w_mass) for iv in dec.intervals]
        assert len(got) == len(expected), (h, w.pieces)
        for (r1, s1), (r2, s2) in zip(got, expected):
            assert r1 == pytest.approx(r2, rel=1e-9)
            assert s1 == pytest.approx(s2, rel=1e-9)


# ---------------------------------------------------------------------------
# structural invariants


def test_level_blocks_tile_support_and_preserve_mass():
    rng = np.random.default_rng(33)
    for _ in range(60):
        h = rand_step(rng).rearranged()
        if not h.atoms:
            continue
        w = rand_step_weight(rng)
        dec = olk.level_function(h, w)
        # contiguous tiling from zero to the support end
        assert dec.intervals[0].lower == 0.0
        for a, b in zip(dec.intervals, dec.intervals[1:]):
            assert a.upper == pytest.approx(b.lower)
        assert dec.intervals[-1].upper == pytest.approx(dec.support_end)
        # strictly decreasing ratios (maximal blocks are merged)
        ratios = [iv.ratio for iv in dec.intervals]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        # mass bookkeeping: block h-mass equals ratio times block w-mass,
        # and total mass is preserved
        for iv in dec.intervals:
            assert iv.h_mass == pytest.approx(iv.ratio * iv.w_mass, rel=1e-9)
        total = sum(iv.h_mass for iv in dec.intervals)
        _, hcum = _step_cumulatives(h, w)
        assert total == pytest.approx(float(hcum[-1]), rel=1e-9)


def test_level_is_idempotent_on_sequences():
    rng = np.random.default_rng(34)
    for _ in range(40):
        h = rand_seq(rng).rearranged()
        if not h.entries:
            continue
        w = rand_seq_weight(rng)
        dec = olk.level_sequence(h, w)
        # feed the level values back in as an element; the level element is
        # already nonincreasing, so this is canonical up to rounding
        n = dec.intervals[-1].upper
        flat = olk.FiniteSequence(tuple(
            olk.evaluate_level(dec, i) for i in range(1, n + 1)))
        again = olk.level_sequence(flat.rearranged(), w)
        for i in range(1, n + 1):
            assert olk.evaluate_level(again, i) == pytest.approx(
                olk.evaluate_level(dec, i), rel=1e-9)


def test_level_dominates_prefix_mass():
    # the level element has everywhere-dominating running h-mass
    rng = np.random.default_rng(35)
    for _ in range(40):
        h = rand_seq(rng).rearranged()
        if not h.entries:
            continue
        w = rand_seq_weight(rng)
        dec = olk.level_sequence(h, w)
        wcum, hcum = _sequence_cumulatives(h, w)
        n = len(h.entries)
        level_vals = np.array(
            [olk.evaluate_level(dec, i) for i in range(1, n + 1)])
        level_cum = np.cumsum(level_vals)
        assert np.all(level_cum >= hcum - 1e-9 * np.maximum(1.0, hcum))
        assert level_cum[-1] == pytest.approx(float(hcum[-1]), rel=1e-9)
