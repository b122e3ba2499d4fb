"""Level functions of decreasing data relative to a decreasing weight.

For decreasing step data h and weight w, the level function h0 replaces h on
each maximal "level interval" by a constant multiple of w: on such an
interval (a, b) the ratio

    R(a, b) = integral of h over (a, b) / integral of w over (a, b)

dominates every proper prefix ratio R(a, t), and h0 = R(a, b) * w there.
Outside the maximal intervals h0 = h.  The profile h0 / w is nonincreasing
and each interval preserves the h-mass.

The decomposition runs on the layout of `rearrange.finite_layout`, whose
pieces carry a single (value, weight level) pair each: atoms split at the
weight's breakpoints, or one piece per run of equal sequence entries.  A
run needs no inner edge: w does not increase along it, so the ratio of each
entry in it is at least that of the entry before, and the per-entry sweep
would merge the whole run into one block.  A pool-adjacent-violators
sweep pushes the pieces left to right and merges a new piece into its
predecessor while the predecessor's ratio does not exceed the newcomer's
(ties merge).  Ratio comparisons cross-multiply the masses, so
data with exactly representable products compares exactly.  The sweep is
one Python loop; it returns the blocks as four array columns (first piece,
end piece, h mass, weight mass), which the dual norms and the Young witness
read through `_level_blocks` without building a LevelInterval per block.

The sequence variant replaces integrals by sums over index blocks (a, b] =
{a + 1, ..., b}.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .rearrange import FiniteSequence, StepFunction, finite_layout

__all__ = ["LevelInterval", "LevelDecomposition", "level_function",
           "level_sequence", "evaluate_level"]


class LevelInterval(NamedTuple):
    """One maximal level interval; sequence intervals cover (lower, upper]."""

    lower: float
    upper: float
    ratio: float
    h_mass: float
    w_mass: float


@dataclass(frozen=True)
class LevelDecomposition:
    intervals: tuple
    setting: str            # "function" or "sequence"
    support_end: float      # h and h0 vanish beyond this point
    source: object
    weight: object

    def value(self, t):
        return evaluate_level(self, t)


def _merge_blocks(h_masses, w_masses):
    """PAVA sweep over piece masses: the columns (first, end, h_mass,
    w_mass) of the blocks, each of which holds the pieces first, ...,
    end - 1."""
    firsts, hs, ws = [], [], []
    for k, (h_new, w_new) in enumerate(zip(h_masses, w_masses)):
        first = k
        # merge while ratio(top) <= ratio(new), compared exactly via
        # cross-multiplication
        while hs and hs[-1] * w_new <= h_new * ws[-1]:
            first = firsts.pop()
            h_new += hs.pop()
            w_new += ws.pop()
        firsts.append(first)
        hs.append(h_new)
        ws.append(w_new)
    ends = firsts[1:] + [len(h_masses)] if firsts else []
    return (np.array(firsts, dtype=np.intp), np.array(ends, dtype=np.intp),
            np.array(hs, dtype=float), np.array(ws, dtype=float))


def _level_blocks(layout):
    """Maximal level intervals of a FiniteLayout with positive h mass, as
    the columns (first piece, end piece, h mass, weight mass); ratios
    nonincreasing."""
    columns = _merge_blocks(layout.h_masses.tolist(),
                            layout.w_masses.tolist())
    keep = columns[2] > 0.0
    return tuple(column[keep] for column in columns)


def _decomposition(layout, blocks, h, w):
    """LevelDecomposition of canonical h from its layout and level blocks;
    ends are Python floats, or ints in the sequence setting."""
    firsts, ends, h_masses, w_masses = blocks
    edges = layout.edges
    intervals = tuple(map(LevelInterval, edges[firsts].tolist(),
                          edges[ends].tolist(),
                          (h_masses / w_masses).tolist(), h_masses.tolist(),
                          w_masses.tolist()))
    return LevelDecomposition(intervals, h.setting, edges[-1].item(), h, w)


def _level(h, w, kind):
    if not isinstance(h, kind):
        raise DomainError(f"expected a {kind.__name__}")
    if not h.is_canonical:
        raise DomainError(
            "input must be in canonical decreasing form; rearrange first")
    layout = finite_layout(h, w)
    return _decomposition(layout, _level_blocks(layout), h, w)


def level_function(h, w):
    """Level decomposition of a canonical step function against a weight."""
    return _level(h, w, StepFunction)


def level_sequence(h, w):
    """Level decomposition of a canonical finite sequence against a weight."""
    return _level(h, w, FiniteSequence)


def evaluate_level(dec, t):
    """h0 at a point of the domain; zero beyond the support."""
    if dec.setting == "function":
        gamma = dec.weight.gamma
        if not (0.0 <= t < gamma):
            raise DomainError("argument outside [0, gamma)")
        for block in dec.intervals:
            if block.lower <= t < block.upper:
                return block.ratio * dec.weight.value(t)
        return 0.0
    index = int(t)
    if index != t or index < 1:
        raise DomainError("sequence positions are integers >= 1")
    for block in dec.intervals:
        if block.lower < index <= block.upper:
            return block.ratio * dec.weight.value(index)
    return 0.0
