"""Measurable elements, decreasing weights and rearrangement operations.

Elements come in two settings.  Function-setting elements live on [0, gamma)
with Lebesgue measure: finite step functions (value, measure) and a small
catalog of parametric decreasing profiles with closed-form distribution
functions.  Sequence-setting elements are finite sequences and parametric
decreasing tails indexed from 1.

Weights are strictly positive and nonincreasing with divergent total mass;
constructors reject anything else.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndecidedError, ValidationError

__all__ = [
    "StepFunction", "FiniteSequence",
    "LogTailProfile", "PowerTailProfile", "BandRestriction", "BandComplement",
    "PowerSeqTail", "LogSeqTail", "ShiftedSeqTail",
    "StepWeight", "PowerWeight",
    "ConstantSeqWeight", "HarmonicSeqWeight", "PowerSeqWeight",
    "ExplicitSeqWeight",
    "distribution", "decreasing_rearrangement", "equimeasurable",
    "cumulative_weight", "disjoint_sum", "element_setting",
    "FiniteLayout", "finite_layout",
]


# ---------------------------------------------------------------------------
# finite elements

@dataclass(frozen=True)
class StepFunction:
    """Finite linear combination of indicators, given as (value, measure) atoms.

    Atoms are abstract disjoint sets; only values and measures matter.  The
    domain reference gamma bounds the total measure.
    """

    atoms: tuple = ()
    gamma: float = math.inf

    def __post_init__(self):
        cleaned = []
        for k, atom in enumerate(self.atoms):
            value, measure = float(atom[0]), float(atom[1])
            if not math.isfinite(value):
                raise ValidationError("atom value must be finite",
                                      field=f"atoms[{k}]")
            if not (measure >= 0.0) or not math.isfinite(measure):
                raise ValidationError("atom measure must be finite and >= 0",
                                      field=f"atoms[{k}]")
            if measure > 0.0:
                cleaned.append((value, measure))
        if not (self.gamma > 0.0):
            raise ValidationError("gamma must be positive", field="gamma")
        total = sum(m for _, m in cleaned)
        if total > self.gamma * (1.0 + 1e-12):
            raise ValidationError("total atom measure exceeds gamma",
                                  field="atoms")
        object.__setattr__(self, "atoms", tuple(cleaned))

    @property
    def total_measure(self):
        return sum(m for _, m in self.atoms)

    def rearranged(self):
        """Canonical form: positive values strictly decreasing, equal merged."""
        pairs = sorted(((abs(v), m) for v, m in self.atoms if v != 0.0),
                       key=lambda p: -p[0])
        merged = []
        for value, measure in pairs:
            if merged and merged[-1][0] == value:
                merged[-1][1] += measure
            else:
                merged.append([value, measure])
        return StepFunction(tuple((v, m) for v, m in merged), self.gamma)

    @property
    def is_canonical(self):
        values = [v for v, _ in self.atoms]
        return all(v > 0.0 for v in values) and all(
            a > b for a, b in zip(values, values[1:]))

    def scaled(self, c):
        return StepFunction(tuple((c * v, m) for v, m in self.atoms),
                            self.gamma)


@dataclass(frozen=True)
class FiniteSequence:
    """Finitely supported sequence; position i holds entries[i - 1]."""

    entries: tuple = ()

    def __post_init__(self):
        cleaned = tuple(float(x) for x in self.entries)
        if any(not math.isfinite(x) for x in cleaned):
            raise ValidationError("entries must be finite", field="entries")
        object.__setattr__(self, "entries", cleaned)

    @property
    def support(self):
        return sum(1 for x in self.entries if x != 0.0)

    def rearranged(self):
        values = sorted((abs(x) for x in self.entries), reverse=True)
        while values and values[-1] == 0.0:
            values.pop()
        return FiniteSequence(tuple(values))

    @property
    def is_canonical(self):
        return all(x > 0.0 for x in self.entries) and all(
            a >= b for a, b in zip(self.entries, self.entries[1:]))

    def scaled(self, c):
        return FiniteSequence(tuple(c * x for x in self.entries))


# ---------------------------------------------------------------------------
# parametric function-setting profiles, all strictly decreasing on (0, inf)

class DecreasingProfile:
    """Decreasing nonnegative function on (0, inf) with closed-form layers."""

    def value(self, t):
        raise NotImplementedError

    def level_measure(self, lam):
        """Lebesgue measure of {t : value(t) > lam}."""
        raise NotImplementedError

    def rearranged_value(self, t):
        return self.value(t)

    @property
    def support_measure(self):
        return math.inf

    def scaled(self, c):
        raise NotImplementedError

    def rearranged(self):
        return self


@dataclass(frozen=True)
class LogTailProfile(DecreasingProfile):
    """amplitude * log(1 + 1/t); unbounded head, slowly decaying tail."""

    amplitude: float = 1.0

    def __post_init__(self):
        if not (self.amplitude > 0.0 and math.isfinite(self.amplitude)):
            raise ValidationError("amplitude must be positive",
                                  field="amplitude")

    def value(self, t):
        # t = 0 or a subnormal t overflows 1/t to inf, and log1p(inf) = inf
        # is the right value there
        with np.errstate(divide="ignore", over="ignore"):
            return self.amplitude * np.log1p(1.0 / np.asarray(t, dtype=float))

    def level_measure(self, lam):
        if lam <= 0.0:
            raise DomainError("level must be positive")
        # e^-x / (1 - e^-x) = 1 / expm1(x), without overflow for x > 709
        x = lam / self.amplitude
        return math.exp(-x) / -math.expm1(-x)

    def scaled(self, c):
        return LogTailProfile(self.amplitude * c)


@dataclass(frozen=True)
class PowerTailProfile(DecreasingProfile):
    """amplitude * t**(-exponent)."""

    exponent: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not (self.exponent > 0.0 and math.isfinite(self.exponent)):
            raise ValidationError("exponent must be positive",
                                  field="exponent")
        if not (self.amplitude > 0.0 and math.isfinite(self.amplitude)):
            raise ValidationError("amplitude must be positive",
                                  field="amplitude")

    def value(self, t):
        return self.amplitude * np.asarray(t, dtype=float)**(-self.exponent)

    def level_measure(self, lam):
        if lam <= 0.0:
            raise DomainError("level must be positive")
        return (self.amplitude / lam)**(1.0 / self.exponent)

    def scaled(self, c):
        return PowerTailProfile(self.exponent, self.amplitude * c)


def _band_edges(base, lower_value, upper_value):
    if not 0.0 < lower_value < upper_value:
        raise ValidationError("band needs 0 < lower < upper", field="band")
    head = base.level_measure(upper_value)
    head_plus_band = base.level_measure(lower_value)
    return head, head_plus_band


@dataclass(frozen=True)
class BandRestriction(DecreasingProfile):
    """The part of a profile with values inside [lower_value, upper_value].

    Bounded with finite-measure support; this is the order-continuous piece
    a value-band truncation keeps.
    """

    base: DecreasingProfile
    lower_value: float
    upper_value: float

    def __post_init__(self):
        head, outer = _band_edges(self.base, self.lower_value,
                                  self.upper_value)
        object.__setattr__(self, "_head", head)
        object.__setattr__(self, "_outer", outer)

    @property
    def support_measure(self):
        return self._outer - self._head

    def value(self, t):
        arr = np.asarray(t, dtype=float)
        inside = (arr >= self._head) & (arr < self._outer)
        vals = np.where(inside, self.base.value(np.maximum(arr, 1e-300)), 0.0)
        return vals if np.ndim(t) else float(vals)

    def rearranged_value(self, t):
        arr = np.asarray(t, dtype=float)
        vals = np.where(arr < self.support_measure,
                        self.base.value(arr + self._head), 0.0)
        return vals if np.ndim(t) else float(vals)

    def level_measure(self, lam):
        if lam <= 0.0:
            raise DomainError("level must be positive")
        if lam >= self.upper_value:
            return 0.0
        if lam < self.lower_value:
            return self.support_measure
        return self.base.level_measure(lam) - self._head

    def scaled(self, c):
        return BandRestriction(self.base.scaled(c), c * self.lower_value,
                               c * self.upper_value)

    def rearranged(self):
        return _SlidProfile(self)


@dataclass(frozen=True)
class BandComplement(DecreasingProfile):
    """A profile with one value band removed: the head above upper_value plus
    the tail below lower_value."""

    base: DecreasingProfile
    lower_value: float
    upper_value: float

    def __post_init__(self):
        head, outer = _band_edges(self.base, self.lower_value,
                                  self.upper_value)
        object.__setattr__(self, "_head", head)
        object.__setattr__(self, "_outer", outer)

    def value(self, t):
        arr = np.asarray(t, dtype=float)
        keep = (arr < self._head) | (arr >= self._outer)
        vals = np.where(keep, self.base.value(np.maximum(arr, 1e-300)), 0.0)
        return vals if np.ndim(t) else float(vals)

    def rearranged_value(self, t):
        arr = np.asarray(t, dtype=float)
        gap = self._outer - self._head
        shifted = np.where(arr < self._head, arr, arr + gap)
        return self.base.value(np.maximum(shifted, 1e-300))

    def level_measure(self, lam):
        if lam <= 0.0:
            raise DomainError("level must be positive")
        if lam >= self.upper_value:
            return self.base.level_measure(lam)
        if lam < self.lower_value:
            return self.base.level_measure(lam) - (self._outer - self._head)
        return self._head

    def scaled(self, c):
        return BandComplement(self.base.scaled(c), c * self.lower_value,
                              c * self.upper_value)

    def rearranged(self):
        return _SlidProfile(self)


@dataclass(frozen=True)
class _SlidProfile(DecreasingProfile):
    """Rearranged view of a band wrapper; equimeasurable with its source."""

    source: DecreasingProfile

    def value(self, t):
        return self.source.rearranged_value(t)

    def rearranged_value(self, t):
        return self.source.rearranged_value(t)

    def level_measure(self, lam):
        return self.source.level_measure(lam)

    @property
    def support_measure(self):
        return self.source.support_measure

    def scaled(self, c):
        return _SlidProfile(self.source.scaled(c))


# ---------------------------------------------------------------------------
# parametric sequence-setting tails

class DecreasingSeqProfile:
    """Decreasing positive tail indexed from 1; value accepts real arguments
    so asymptotic probes can evaluate between integers."""

    def value(self, i):
        raise NotImplementedError

    def level_count(self, lam):
        raise NotImplementedError

    def scaled(self, c):
        raise NotImplementedError

    def rearranged(self):
        return self


def _count_below(s):
    # number of integers i >= 1 with i < s
    if s <= 1.0:
        return 0
    floor = math.floor(s)
    return int(floor) - 1 if floor == s else int(floor)


@dataclass(frozen=True)
class PowerSeqTail(DecreasingSeqProfile):
    """amplitude * i**(-exponent)."""

    exponent: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not (self.exponent > 0.0 and math.isfinite(self.exponent)):
            raise ValidationError("exponent must be positive",
                                  field="exponent")
        if not (self.amplitude > 0.0 and math.isfinite(self.amplitude)):
            raise ValidationError("amplitude must be positive",
                                  field="amplitude")

    def value(self, i):
        return self.amplitude * np.asarray(i, dtype=float)**(-self.exponent)

    def level_count(self, lam):
        if lam <= 0.0:
            raise DomainError("level must be positive")
        return _count_below((self.amplitude / lam)**(1.0 / self.exponent))

    def scaled(self, c):
        return PowerSeqTail(self.exponent, self.amplitude * c)


@dataclass(frozen=True)
class LogSeqTail(DecreasingSeqProfile):
    """amplitude / log(i + 1)."""

    amplitude: float = 1.0

    def __post_init__(self):
        if not (self.amplitude > 0.0 and math.isfinite(self.amplitude)):
            raise ValidationError("amplitude must be positive",
                                  field="amplitude")

    def value(self, i):
        return self.amplitude / np.log1p(np.asarray(i, dtype=float))

    def level_count(self, lam):
        if lam <= 0.0:
            raise DomainError("level must be positive")
        return _count_below(math.expm1(self.amplitude / lam))

    def scaled(self, c):
        return LogSeqTail(self.amplitude * c)


@dataclass(frozen=True)
class ShiftedSeqTail(DecreasingSeqProfile):
    """base evaluated from offset + 1 onward; the remainder of a head cut."""

    base: DecreasingSeqProfile
    offset: int

    def __post_init__(self):
        if self.offset < 0 or self.offset != int(self.offset):
            raise ValidationError("offset must be a nonnegative integer",
                                  field="offset")

    def value(self, i):
        return self.base.value(np.asarray(i, dtype=float) + self.offset)

    def level_count(self, lam):
        return max(self.base.level_count(lam) - self.offset, 0)

    def scaled(self, c):
        return ShiftedSeqTail(self.base.scaled(c), self.offset)


# ---------------------------------------------------------------------------
# weights, function setting

class Weight:
    """Strictly positive nonincreasing weight on [0, gamma); W(inf) = inf."""

    gamma = math.inf

    def value(self, t):
        raise NotImplementedError

    def cumulative(self, t):
        raise NotImplementedError

    def breakpoints(self):
        """Interior jump points of the weight, as a tuple."""
        return ()

    def inverse_cumulative(self, target):
        raise NotImplementedError


@dataclass(frozen=True)
class StepWeight(Weight):
    """Piecewise-constant weight given as (length, level) pieces.

    The pieces tile [0, gamma) in order; the last length may be inf.  Levels
    must be positive and nonincreasing.
    """

    pieces: tuple

    def __post_init__(self):
        if not self.pieces:
            raise ValidationError("need at least one piece", field="pieces")
        cleaned = []
        for k, piece in enumerate(self.pieces):
            length, level = float(piece[0]), float(piece[1])
            if not (length > 0.0):
                raise ValidationError("length must be positive",
                                      field=f"pieces[{k}]")
            if math.isinf(length) and k != len(self.pieces) - 1:
                raise ValidationError("only the last length may be infinite",
                                      field=f"pieces[{k}]")
            if not (level > 0.0 and math.isfinite(level)):
                raise ValidationError("level must be positive and finite",
                                      field=f"pieces[{k}]")
            cleaned.append((length, level))
        levels = [lv for _, lv in cleaned]
        if any(a < b for a, b in zip(levels, levels[1:])):
            raise ValidationError("levels must be nonincreasing",
                                  field="pieces")
        object.__setattr__(self, "pieces", tuple(cleaned))
        starts = np.concatenate(
            ([0.0], np.cumsum([ln for ln, _ in cleaned])))
        masses = np.concatenate(
            ([0.0], np.cumsum([ln * lv for ln, lv in cleaned])))
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_masses", masses)
        object.__setattr__(self, "_levels", np.array(levels))

    @property
    def gamma(self):
        return float(self._starts[-1])

    def _segment(self, t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > self.gamma * (1 + 1e-12)):
            raise DomainError("argument outside [0, gamma]")
        idx = np.searchsorted(self._starts, arr, side="right") - 1
        return arr, np.clip(idx, 0, len(self.pieces) - 1)

    def value(self, t):
        arr, idx = self._segment(t)
        out = self._levels[idx]
        return out if np.ndim(t) else float(out)

    def cumulative(self, t):
        arr, idx = self._segment(t)
        out = self._masses[idx] + self._levels[idx] * (arr - self._starts[idx])
        return out if np.ndim(t) else float(out)

    def breakpoints(self):
        return tuple(s for s in self._starts[1:-1] if math.isfinite(s))

    def inverse_cumulative(self, target):
        if target < 0.0:
            raise DomainError("target mass must be nonnegative")
        total = float(self._masses[-1])
        if target > total:
            raise DomainError("target mass exceeds the total weight mass")
        idx = int(np.searchsorted(self._masses, target, side="right") - 1)
        idx = min(idx, len(self.pieces) - 1)
        return float(self._starts[idx]
                     + (target - self._masses[idx]) / self._levels[idx])


@dataclass(frozen=True)
class PowerWeight(Weight):
    """t**(-beta) on [0, inf); beta in [0, 1) keeps W finite at finite t."""

    beta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.beta < 1.0):
            raise ValidationError("beta must lie in [0, 1)", field="beta")

    def value(self, t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            raise DomainError("argument must be nonnegative")
        if self.beta == 0.0:
            out = np.ones_like(arr)
        else:
            with np.errstate(divide="ignore"):
                out = np.maximum(arr, 1e-300)**(-self.beta)
        return out if np.ndim(t) else float(out)

    def cumulative(self, t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            raise DomainError("argument must be nonnegative")
        out = arr**(1.0 - self.beta) / (1.0 - self.beta)
        return out if np.ndim(t) else float(out)

    def inverse_cumulative(self, target):
        if target < 0.0:
            raise DomainError("target mass must be nonnegative")
        return ((1.0 - self.beta) * target)**(1.0 / (1.0 - self.beta))


# ---------------------------------------------------------------------------
# weights, sequence setting

class SequenceWeight:
    """Strictly positive nonincreasing sequence weight with divergent sums."""

    def value(self, i):
        raise NotImplementedError

    def head(self, n):
        """First n weights as an array."""
        return np.asarray(self.value(np.arange(1, n + 1)), dtype=float)

    def prefix(self, n):
        if n < 0 or n != int(n):
            raise DomainError("prefix length must be a nonnegative integer")
        if n == 0:
            return 0.0
        return float(self.head(int(n)).sum())

    def value_at_real(self, x):
        """Continuous extension used by asymptotic probes."""
        return self.value(x)


@dataclass(frozen=True)
class ConstantSeqWeight(SequenceWeight):
    level: float = 1.0

    def __post_init__(self):
        if not (self.level > 0.0 and math.isfinite(self.level)):
            raise ValidationError("level must be positive and finite",
                                  field="level")

    def value(self, i):
        arr = np.asarray(i, dtype=float)
        out = np.full_like(arr, self.level)
        return out if np.ndim(i) else float(out)

    def prefix(self, n):
        if n < 0 or n != int(n):
            raise DomainError("prefix length must be a nonnegative integer")
        return self.level * float(n)


@dataclass(frozen=True)
class HarmonicSeqWeight(SequenceWeight):
    def value(self, i):
        arr = np.asarray(i, dtype=float)
        out = 1.0 / arr
        return out if np.ndim(i) else float(out)


@dataclass(frozen=True)
class PowerSeqWeight(SequenceWeight):
    """i**(-beta) with beta in [0, 1]; sums diverge on the whole range."""

    beta: float

    def __post_init__(self):
        if not (0.0 <= self.beta <= 1.0):
            raise ValidationError("beta must lie in [0, 1]", field="beta")

    def value(self, i):
        arr = np.asarray(i, dtype=float)
        out = arr**(-self.beta)
        return out if np.ndim(i) else float(out)


@dataclass(frozen=True)
class ExplicitSeqWeight(SequenceWeight):
    """Explicit head values continued by a constant tail at the last value."""

    head_values: tuple

    def __post_init__(self):
        cleaned = tuple(float(x) for x in self.head_values)
        if not cleaned:
            raise ValidationError("need at least one value",
                                  field="head_values")
        if any(not (x > 0.0 and math.isfinite(x)) for x in cleaned):
            raise ValidationError("values must be positive and finite",
                                  field="head_values")
        if any(a < b for a, b in zip(cleaned, cleaned[1:])):
            raise ValidationError("values must be nonincreasing",
                                  field="head_values")
        object.__setattr__(self, "head_values", cleaned)

    def value(self, i):
        arr = np.asarray(i, dtype=float)
        if np.any(arr < 1.0):
            raise DomainError("indices start at 1")
        idx = np.minimum(arr, len(self.head_values)).astype(int) - 1
        out = np.asarray(self.head_values)[idx]
        return out if np.ndim(i) else float(out)


# ---------------------------------------------------------------------------
# operations

def element_setting(f):
    """"function" or "sequence", by element type."""
    if isinstance(f, (StepFunction, DecreasingProfile)):
        return "function"
    if isinstance(f, (FiniteSequence, DecreasingSeqProfile)):
        return "sequence"
    raise DomainError(f"unknown element type: {type(f).__name__}")


def distribution(f, lam):
    """Measure (or count) of {|f| > lam} for lam > 0."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError("lambda must be positive and finite")
    if isinstance(f, StepFunction):
        return sum(m for v, m in f.atoms if abs(v) > lam)
    if isinstance(f, FiniteSequence):
        return sum(1 for x in f.entries if abs(x) > lam)
    if isinstance(f, DecreasingProfile):
        return f.level_measure(lam)
    if isinstance(f, DecreasingSeqProfile):
        return f.level_count(lam)
    raise DomainError(f"unknown element type: {type(f).__name__}")


def decreasing_rearrangement(f):
    """Canonical decreasing representative, equimeasurable with |f|."""
    return f.rearranged()


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
            if len(fa.atoms) != len(ga.atoms):
                return False
            return all(
                math.isclose(v1, v2, rel_tol=tol, abs_tol=tol)
                and math.isclose(m1, m2, rel_tol=tol, abs_tol=tol)
                for (v1, m1), (v2, m2) in zip(fa.atoms, ga.atoms))
        return len(fa.entries) == len(ga.entries) and all(
            math.isclose(a, b, rel_tol=tol, abs_tol=tol)
            for a, b in zip(fa.entries, ga.entries))
    if f_finite or g_finite:
        return False
    if f.rearranged() == g.rearranged():
        return True
    raise UndecidedError("equimeasurability of these profiles is not "
                         "decided exactly")


def cumulative_weight(w, t):
    """W(t) for function weights; prefix sum for sequence weights."""
    if isinstance(w, Weight):
        return w.cumulative(t)
    if isinstance(w, SequenceWeight):
        return w.prefix(t)
    raise DomainError(f"unknown weight type: {type(w).__name__}")


# ---------------------------------------------------------------------------
# the layout of a finite element

@dataclass(frozen=True, eq=False)
class FiniteLayout:
    """h* of a canonical finite element, split at the weight's breakpoints.

    Piece k holds the value values[k] on [edges[k], edges[k + 1]), with
    length lengths[k] and weight mass w_masses[k]; cumulative[k] is the
    running weight W(edges[k]).  A sequence has one piece per entry, of
    length 1 between integer edges.
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
    pairs = np.array(h.atoms, dtype=float).reshape(-1, 2)
    return pairs[:, 0], np.concatenate(([0.0], np.cumsum(pairs[:, 1])))


def _split(cuts, points):
    """Edges of [0, cuts[-1]) cut at cuts and at the points inside, with
    the index k of the atom [cuts[k], cuts[k + 1]) that holds each piece."""
    edges = np.union1d(cuts, points[points < cuts[-1]])
    return edges, np.searchsorted(cuts, edges[:-1], side="right") - 1


def finite_layout(h, w):
    """The FiniteLayout of a canonical StepFunction or FiniteSequence.

    Raises DomainError for a weight of the other setting and for a step
    function longer than the weight's domain, with the slack the
    StepFunction constructor allows against its own gamma.
    """
    if isinstance(h, StepFunction):
        if not isinstance(w, Weight):
            raise DomainError("function elements need a function weight")
        values, cuts = _step_cuts(h)
        if cuts[-1] > w.gamma * (1.0 + 1e-12):
            raise DomainError("element support exceeds the weight domain")
        edges, atom = _split(cuts, np.asarray(w.breakpoints(), dtype=float))
        cumulative = w.cumulative(edges)
        return FiniteLayout(values[atom], np.diff(edges),
                            np.diff(cumulative), edges, cumulative)
    if isinstance(h, FiniteSequence):
        if not isinstance(w, SequenceWeight):
            raise DomainError("sequence elements need a sequence weight")
        values = np.array(h.entries, dtype=float)
        w_masses = w.head(values.size)
        return FiniteLayout(values, np.ones(values.size), w_masses,
                            np.arange(values.size + 1),
                            np.concatenate(([0.0], np.cumsum(w_masses))))
    raise DomainError("expected a finite element (StepFunction or "
                      f"FiniteSequence), got {type(h).__name__}")


def disjoint_sum(f, g):
    """Sum of two elements with disjoint supports."""
    if isinstance(f, StepFunction) and isinstance(g, StepFunction):
        if f.gamma != g.gamma:
            raise DomainError("domain references differ")
        return StepFunction(f.atoms + g.atoms, f.gamma)
    if isinstance(f, FiniteSequence) and isinstance(g, FiniteSequence):
        n = max(len(f.entries), len(g.entries))
        a = list(f.entries) + [0.0] * (n - len(f.entries))
        b = list(g.entries) + [0.0] * (n - len(g.entries))
        if any(x != 0.0 and y != 0.0 for x, y in zip(a, b)):
            raise DomainError("supports overlap")
        return FiniteSequence(tuple(x + y for x, y in zip(a, b)))
    raise DomainError("disjoint sums are defined for finite elements only")
