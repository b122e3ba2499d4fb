"""Sequences with tied entries: one layout piece per run of equal entries.

`rearrange.finite_layout` gives a run of equal entries of f* one piece,
with the run's weights added left to right.  Every route that reads the
layout is checked here against a per-position computation made in the test
or in `olk.verify`, which never merges runs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import olk
from olk.rearrange import finite_layout
from olk.verify import _oracle_level_sequence

SEQ_WEIGHTS = (olk.ConstantSeqWeight(0.75), olk.HarmonicSeqWeight(),
               olk.PowerSeqWeight(0.5),
               olk.ExplicitSeqWeight((2.0, 1.5, 1.5, 0.25)))
PHIS = (olk.PowerOrlicz(2.0), olk.PowerOrlicz(1.5, 0.5), olk.ExpOrlicz(),
        olk.LogOrlicz())


def _tied_sequence(rng, n, distinct):
    """n entries drawn from `distinct` dyadic magnitudes, zeros and signs
    included, so the rearrangement has at most `distinct` runs."""
    mags = np.unique(rng.integers(1, 97, distinct)) / 16.0
    entries = rng.choice(np.concatenate((mags, [0.0])), n)
    signs = np.where(rng.random(n) < 0.2, -1.0, 1.0)
    return olk.FiniteSequence(entries * signs)


def test_tie_free_layout_is_the_per_entry_layout():
    w = olk.HarmonicSeqWeight()
    h = olk.FiniteSequence((3.0, 2.5, 0.75, 0.5, 0.0625))
    layout = finite_layout(h, w)
    n = h._array.size
    assert layout.values is h._array
    for got, want in ((layout.lengths, np.ones(n)),
                      (layout.w_masses, w.head(n)),
                      (layout.edges, np.arange(n + 1)),
                      (layout.cumulative,
                       np.concatenate(([0.0], np.cumsum(w.head(n)))))):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_a_run_of_equal_entries_is_one_piece():
    w = olk.HarmonicSeqWeight()
    h = olk.FiniteSequence((2.0, 2.0, 2.0, 1.0, 0.5, 0.5))
    layout = finite_layout(h, w)
    weights = w.head(6)
    assert layout.values.tolist() == [2.0, 1.0, 0.5]
    assert layout.lengths.tolist() == [3.0, 1.0, 2.0]
    assert layout.edges.tolist() == [0, 3, 4, 6]
    # the run's weights added left to right
    assert layout.w_masses.tolist() == [weights[0] + weights[1] + weights[2],
                                        weights[3], weights[4] + weights[5]]
    running = np.concatenate(([0.0], np.cumsum(weights)))
    assert layout.cumulative.tolist() == running[[0, 3, 4, 6]].tolist()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2000),
       distinct=st.integers(1, 8), weight=st.sampled_from(SEQ_WEIGHTS),
       phi=st.sampled_from(PHIS))
def test_runs_agree_with_per_position_sums(seed, n, distinct, weight, phi):
    h = _tied_sequence(np.random.default_rng(seed), n, distinct)
    canon = h.rearranged()
    x = canon._array
    if not x.size:
        return
    per_position = float(np.sum(phi.value(x) * weight.head(x.size)))
    assert olk.rho_modular(phi, weight, h) == pytest.approx(per_position,
                                                            rel=1e-13)
    got = olk.level_sequence(canon, weight).intervals
    want = _oracle_level_sequence(canon, weight)
    assert [(iv.lower, iv.upper) for iv in got] == [(a, b)
                                                    for a, b, _ in want]
    for iv, (_, _, ratio) in zip(got, want):
        assert iv.ratio == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("seed, n, distinct", [(3, 12, 3), (5, 300, 5),
                                               (8, 1500, 8)])
@pytest.mark.parametrize("weight", SEQ_WEIGHTS[1:3])
def test_oracles_agree_on_tied_sequences(seed, n, distinct, weight):
    phi = olk.PowerOrlicz(2.0)
    h = _tied_sequence(np.random.default_rng(seed), n, distinct)
    assert olk.P_modular(phi, weight, h) == pytest.approx(
        olk.P_modular_oracle(phi, weight, h), rel=1e-8)
    assert olk.orlicz_norm_amemiya(phi, weight, h) == pytest.approx(
        olk.orlicz_norm_dual_sup_oracle(phi, weight, h), rel=1e-8)


# ---------------------------------------------------------------------------
# the exact Amemiya root of a TabulatedOrlicz

def _brute_force_amemiya(phi, x, masses):
    """min over k = t_j / x_i of (1 + sum phi(k x_i) m_i) / k, per position,
    and the limit b sum x m at k -> inf (b the final slope), which is the
    infimum when the Young side never reaches 1."""
    ts = np.array([t for t, _ in phi.knots[1:]])
    candidates = np.unique((ts[:, None] / x).ravel())
    best = min((1.0 + math.fsum(phi.value(k * x) * masses)) / k
               for k in candidates.tolist())
    slope = float(phi.derivative(phi.knots[-1][0]))
    return min(best, slope * math.fsum(x * masses))


TABULATED = olk.TabulatedOrlicz(((0.0, 0.0), (0.5, 0.125), (1.0, 0.5),
                                 (2.0, 1.75), (4.0, 6.0)))
LINEAR_TAIL = olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 0.5), (2.0, 1.25)))


@pytest.mark.parametrize("phi, w, f", [
    # ties, under every sequence weight kind
    *((TABULATED, w, olk.FiniteSequence((3.0, 3.0, 1.25, 1.25, 1.25, 0.5,
                                         0.0625, 0.0625)))
      for w in SEQ_WEIGHTS),
    (TABULATED, olk.HarmonicSeqWeight(),
     olk.FiniteSequence(np.linspace(0.01, 9.0, 200))),
    # a step element, atoms split at the weight's breakpoints
    (TABULATED, olk.StepWeight(((0.5, 3.0), (1.25, 1.5), (math.inf, 0.5))),
     olk.StepFunction(((2.0, 0.375), (0.75, 0.5), (5.0, 0.25),
                       (0.75, 0.625)))),
    # the Young side is 1/4 from k = 1 and reaches 1 only at k = 1e20,
    # beyond the root-finder's cap 2^60
    (LINEAR_TAIL, olk.ConstantSeqWeight(1.0),
     olk.FiniteSequence((1.0, 1e-20, 1e-20, 1e-20))),
    # it never reaches 1: the infimum is the limit
    (LINEAR_TAIL, olk.HarmonicSeqWeight(), olk.FiniteSequence((1.0, 0.5))),
])
def test_tabulated_amemiya_is_the_brute_force_minimum(phi, w, f):
    canon = f.rearranged()
    if isinstance(canon, olk.FiniteSequence):
        x, masses = canon._array, w.head(canon._array.size)
    else:
        layout = finite_layout(canon, w)
        x, masses = layout.values, layout.w_masses
    want = _brute_force_amemiya(phi, x, masses)
    assert olk.orlicz_norm_amemiya(phi, w, f) == pytest.approx(want,
                                                               rel=1e-14)
