"""Finite elements and the rearrangement operations on every element.

Elements come in two settings.  Function-setting elements live on [0, gamma)
with Lebesgue measure: finite step functions (value, measure) here, and the
parametric decreasing profiles of `profiles`.  Sequence-setting elements are
finite sequences here and the parametric decreasing tails of `profiles`,
indexed from 1.
"""

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DomainError, UndecidedError, ValidationError

__all__ = [
    "StepFunction", "FiniteSequence",
    "distribution", "equimeasurable", "disjoint_sum", "element_setting",
    "FiniteLayout", "finite_layout",
]


# ---------------------------------------------------------------------------
# finite elements
#
# A finite element holds its data as read-only float arrays, validated,
# sorted and merged by NumPy.  The tuple fields `atoms` and `entries` are a
# view, built from the arrays on first read and cached; equality, hashing
# and reprs see the same values as the tuples.

class _FrozenElement:
    """Refuses attribute assignment, as a frozen dataclass does."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _hold(instance, **fields):
    """Store fields on a finite element, arrays made read-only; no checks."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    instance.__dict__.update(fields)
    return instance


def _is_pair(atom):
    try:
        return len(atom) == 2 and np.fromiter(atom, float, 2).size == 2
    except (TypeError, ValueError):
        return False


def _atom_arrays(atoms):
    """Values and measures of (value, measure) atoms as two float arrays.

    ValidationError names the first atom that is not a pair of numbers, or
    whose value or measure is bad, whichever comes first.
    """
    atoms = tuple(atoms)
    try:
        pairs = set(map(len, atoms)) <= {2}
        if pairs:
            flat = np.fromiter(chain.from_iterable(atoms), float,
                               2 * len(atoms))
    except (TypeError, ValueError):
        pairs = False
    if not pairs:
        k = next(k for k, atom in enumerate(atoms) if not _is_pair(atom))
        _check_atoms(*_atom_arrays(atoms[:k]))
        raise ValidationError("atom must be a (value, measure) pair of "
                              "numbers", field=f"atoms[{k}]")
    values, measures = flat.reshape(-1, 2).T.copy()
    return values, measures


def _check_atoms(values, measures):
    """Raise ValidationError at the first atom with a bad value or measure;
    within one atom the value is reported first."""
    bad_value = ~np.isfinite(values)
    bad = bad_value | ~(measures >= 0.0) | ~np.isfinite(measures)
    if bad.any():
        k = int(np.argmax(bad))
        if bad_value[k]:
            raise ValidationError("atom value must be finite",
                                  field=f"atoms[{k}]")
        raise ValidationError("atom measure must be finite and >= 0",
                              field=f"atoms[{k}]")


def _merge_ties(values, measures, starts):
    """Each run of equal values, starting at the indices starts, merged into
    one atom whose measure adds the run's measures left to right."""
    lengths = np.diff(np.append(starts, values.size))
    sums = measures[starts]
    tied = np.flatnonzero(lengths > 1)
    # np.add.reduceat does not add left to right; accumulate does, so the
    # runs of each length are added as the rows of one matrix (the lengths
    # are deduplicated in Python: np.unique would import numpy.ma)
    for length in sorted(set(lengths[tied].tolist())):
        runs = tied[lengths[tied] == length]
        rows = measures[starts[runs, None] + np.arange(length)]
        sums[runs] = np.add.accumulate(rows, axis=1)[:, -1]
    return values[starts], sums


class StepFunction(_FrozenElement):
    """Finite linear combination of indicators, given as (value, measure) atoms.

    Atoms are abstract disjoint sets; only values and measures matter.  The
    domain reference gamma bounds the total measure.  Atoms of measure 0
    are dropped.
    """

    setting = "function"
    ends = ("bounded", 0.0), ("finite", 0.0)

    def __init__(self, atoms=(), gamma=math.inf):
        self._check_and_hold(*_atom_arrays(atoms), gamma)

    @classmethod
    def _from_arrays(cls, values, measures, gamma):
        """StepFunction(zip(values, measures), gamma) from float arrays,
        which the element keeps and makes read-only."""
        return object.__new__(cls)._check_and_hold(values, measures, gamma)

    def _check_and_hold(self, values, measures, gamma):
        _check_atoms(values, measures)
        if not (gamma > 0.0):
            raise ValidationError("gamma must be positive", field="gamma")
        positive = measures > 0.0
        if not positive.all():
            values, measures = values[positive], measures[positive]
        if sum(measures.tolist()) > gamma * (1.0 + 1e-12):
            raise ValidationError("total atom measure exceeds gamma",
                                  field="atoms")
        return _hold(self, _values=values, _measures=measures, gamma=gamma)

    @cached_property
    def atoms(self):
        return tuple(zip(self._values.tolist(), self._measures.tolist()))

    def __repr__(self):
        return f"StepFunction(atoms={self.atoms!r}, gamma={self.gamma!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (np.array_equal(self._values, other._values)
                and np.array_equal(self._measures, other._measures)
                and self.gamma == other.gamma)

    def __hash__(self):
        return hash((self.atoms, self.gamma))

    @property
    def total_measure(self):
        return sum(self._measures.tolist())

    def rearranged(self):
        """Canonical form: positive values strictly decreasing, equal merged."""
        mags = np.abs(self._values)
        nonzero = np.flatnonzero(mags)
        order = nonzero[np.argsort(-mags[nonzero])]
        values = mags[order]
        new = np.concatenate(([True], values[1:] != values[:-1]))[:values.size]
        # the order of a stable sort: input order inside each run of equal
        # values (NumPy's stable argsort costs about 5x more here)
        order = np.sort(np.cumsum(new) * mags.size + order) % mags.size
        values, measures = _merge_ties(values, self._measures[order],
                                       np.flatnonzero(new))
        return _hold(object.__new__(StepFunction), _values=values,
                     _measures=measures, gamma=self.gamma)

    @property
    def is_canonical(self):
        values = self._values
        return bool(np.all(values > 0.0) and np.all(values[:-1] > values[1:]))

    def scaled(self, c):
        with np.errstate(over="ignore"):   # an infinite value raises below
            values = c * self._values
        return StepFunction._from_arrays(values, self._measures, self.gamma)


class FiniteSequence(_FrozenElement):
    """Finitely supported sequence; position i holds entries[i - 1]."""

    setting = "sequence"
    ends = ("bounded", 0.0), ("finite", 0.0)

    def __init__(self, entries=()):
        self._check_and_hold(np.fromiter(entries, float))

    def _check_and_hold(self, array):
        if not np.isfinite(array).all():
            raise ValidationError("entries must be finite", field="entries")
        return _hold(self, _array=array)

    @cached_property
    def entries(self):
        return tuple(self._array.tolist())

    def __repr__(self):
        return f"FiniteSequence(entries={self.entries!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self._array, other._array)

    def __hash__(self):
        return hash((self.entries,))

    @property
    def support(self):
        return int(np.count_nonzero(self._array))

    def rearranged(self):
        mags = np.abs(self._array)
        return _hold(object.__new__(FiniteSequence),
                     _array=-np.sort(-mags[mags > 0.0]))

    @property
    def is_canonical(self):
        entries = self._array
        return bool(np.all(entries > 0.0)
                    and np.all(entries[:-1] >= entries[1:]))

    def scaled(self, c):
        with np.errstate(over="ignore"):   # an infinite entry raises below
            array = c * self._array
        return object.__new__(FiniteSequence)._check_and_hold(array)


# ---------------------------------------------------------------------------
# operations

def element_setting(f):
    """"function" or "sequence", as the element's `setting` reads."""
    try:
        return f.setting
    except AttributeError:
        raise DomainError(
            f"unknown element type: {type(f).__name__}") from None


def _check_weight(setting, w):
    """DomainError unless the weight w belongs to the setting."""
    if w.setting != setting:
        raise DomainError(f"{setting} elements need a {setting} weight")


def distribution(f, lam):
    """Measure (or count) of {|f| > lam} for lam > 0."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError("lambda must be positive and finite")
    if isinstance(f, StepFunction):
        return sum(f._measures[np.abs(f._values) > lam].tolist())
    if isinstance(f, FiniteSequence):
        return int(np.count_nonzero(np.abs(f._array) > lam))
    if element_setting(f) == "function":
        return f.level_measure(lam)
    return f.level_count(lam)


def equimeasurable(f, g, *, tol=1e-9):
    """Whether f and g share a distribution; same setting required.

    Two finite elements are compared through their rearrangements, entry by
    entry within tol.  A profile is decided exactly or not at all: True when
    both sides rearrange to the same profile (a band wrapper and its
    rearranged view share level_measure), False when the other side is a
    finite element, whose distribution takes finitely many values where a
    profile's takes infinitely many, and UndecidedError for any other pair.
    """
    if element_setting(f) != element_setting(g):
        raise DomainError("elements live in different settings")
    finite_types = (StepFunction, FiniteSequence)
    f_finite, g_finite = (isinstance(h, finite_types) for h in (f, g))
    if f_finite and g_finite:
        fa, ga = f.rearranged(), g.rearranged()
        if isinstance(f, StepFunction):
            return (_all_close(fa._values, ga._values, tol)
                    and _all_close(fa._measures, ga._measures, tol))
        return _all_close(fa._array, ga._array, tol)
    if f_finite or g_finite:
        return False
    if f.rearranged() == g.rearranged():
        return True
    raise UndecidedError("equimeasurability of these profiles is not "
                         "decided exactly")


def _all_close(a, b, tol):
    """Equal lengths, and math.isclose(x, y, rel_tol=tol, abs_tol=tol) at
    every position."""
    return a.size == b.size and bool(np.all(
        np.abs(a - b) <= np.maximum(tol * np.maximum(np.abs(a), np.abs(b)),
                                    tol)))


# ---------------------------------------------------------------------------
# the layout of a finite element

@dataclass(frozen=True, eq=False)
class FiniteLayout:
    """h* of a canonical finite element, split at the weight's breakpoints.

    Piece k holds the value values[k] on [edges[k], edges[k + 1]), with
    length lengths[k] and weight mass w_masses[k]; cumulative[k] is the
    running weight W(edges[k]).  A sequence has one piece per run of equal
    entries, between integer edges: its length is the run length and its
    weight mass the run's weights added left to right.
    """

    values: np.ndarray
    lengths: np.ndarray
    w_masses: np.ndarray
    edges: np.ndarray
    cumulative: np.ndarray

    @property
    def h_masses(self):
        return self.values * self.lengths


def _step_cuts(h):
    """Values of the atoms of a step function and their edges from 0."""
    return h._values, np.concatenate(([0.0], np.cumsum(h._measures)))


def _split(cuts, points):
    """Edges of [0, cuts[-1]) cut at cuts and at the points inside, with
    the index k of the atom [cuts[k], cuts[k + 1]) that holds each piece.

    The edges are np.union1d's, by the same sort and first-of-equal mask,
    without the numpy.ma import that np.union1d makes on first use."""
    edges = np.sort(np.concatenate((cuts, points[points < cuts[-1]])))
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    return edges, np.searchsorted(cuts, edges[:-1], side="right") - 1


def finite_layout(h, w):
    """The FiniteLayout of a canonical StepFunction or FiniteSequence.

    Raises DomainError for a weight of the other setting and for a step
    function longer than the weight's domain, with the slack the
    StepFunction constructor allows against its own gamma.
    """
    if isinstance(h, StepFunction):
        _check_weight("function", w)
        values, cuts = _step_cuts(h)
        if cuts[-1] > w.gamma * (1.0 + 1e-12):
            raise DomainError("element support exceeds the weight domain")
        edges, atom = _split(cuts, np.asarray(w.breakpoints(), dtype=float))
        cumulative = w.cumulative(edges)
        return FiniteLayout(values[atom], np.diff(edges),
                            np.diff(cumulative), edges, cumulative)
    if isinstance(h, FiniteSequence):
        _check_weight("sequence", w)
        values = h._array
        n = values.size
        w_masses = w.head(n)
        cumulative = np.concatenate(([0.0], np.cumsum(w_masses)))
        starts = np.flatnonzero(np.concatenate(
            ([True], values[1:] != values[:-1])))[:n]
        if starts.size == n:
            return FiniteLayout(values, np.ones(n), w_masses,
                                np.arange(n + 1), cumulative)
        values, w_masses = _merge_ties(values, w_masses, starts)
        edges = np.append(starts, n)
        return FiniteLayout(values, np.diff(edges).astype(float), w_masses,
                            edges, cumulative[edges])
    raise DomainError("expected a finite element (StepFunction or "
                      f"FiniteSequence), got {type(h).__name__}")


def disjoint_sum(f, g):
    """Sum of two elements with disjoint supports."""
    if isinstance(f, StepFunction) and isinstance(g, StepFunction):
        if f.gamma != g.gamma:
            raise DomainError("domain references differ")
        return StepFunction._from_arrays(
            np.concatenate((f._values, g._values)),
            np.concatenate((f._measures, g._measures)), f.gamma)
    if isinstance(f, FiniteSequence) and isinstance(g, FiniteSequence):
        n = max(f._array.size, g._array.size)
        a, b = (np.pad(x._array, (0, n - x._array.size)) for x in (f, g))
        if np.any((a != 0.0) & (b != 0.0)):
            raise DomainError("supports overlap")
        return _hold(object.__new__(FiniteSequence), _array=a + b)
    raise DomainError("disjoint sums are defined for finite elements only")
