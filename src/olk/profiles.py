"""Parametric decreasing profiles, sequence tails and weights.

Weights are strictly positive and nonincreasing.  A sequence weight's sums
diverge; a function weight may stop at a finite gamma, as
StepWeight(((1, 2), (3, 1))) does at gamma = 4, with W(gamma) = 5.

Each class gives its `setting`, "function" or "sequence"; a weight its
`beta`, for t^-beta at 0 and at infinity; a profile or tail the kinks of f*
by `breakpoints()` and its `ends`, the head (t -> 0) and the tail (t or
i -> inf) of f*, each a pair (shape, amplitude a): "log" is a log(1/t),
"inv_log" is a / log i, a float p is a t^-p, and "bounded" and "finite"
mark a bounded head and a finite support.  The base classes leave `ends`
and `beta` unset: a class outside the catalog has no growth type.

For the layouts `norms` lays these out on, each also works in log
coordinates, x = log t (y = log i), without forming e^x where it leaves the
float range: `_log_star(x)` is log f*(e^x) for an array x, `_log_level(lam)`
the log of the measure where f* falls to lam and `_log_kinks()` the logs of
its kinks; a weight's `_log_mass(x)` is log(t w(t)) at t = e^x.  A band
keeps its head in log form, so a head below the least float stays a head.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError


def _check_positive(profile, *names):
    """ValidationError at the first named field not positive and finite."""
    for name in names:
        x = getattr(profile, name)
        if not (x > 0.0 and math.isfinite(x)):
            raise ValidationError(f"{name} must be positive", field=name)


# ---------------------------------------------------------------------------
# parametric function-setting profiles, all strictly decreasing on (0, inf)

class DecreasingProfile:
    """Decreasing nonnegative function on (0, inf) with closed-form layers."""

    setting = "function"

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

    def breakpoints(self):
        """Interior kinks of f*, as a tuple."""
        return ()

    def _log_kinks(self):
        return tuple(math.log(b) for b in self.breakpoints() if b > 0.0)

    def _log_star(self, x):
        with np.errstate(over="ignore", divide="ignore"):
            return np.log(self.rearranged_value(np.exp(x)))

    def _log_level(self, lam):
        measure = self.level_measure(lam)
        return math.log(measure) if measure > 0.0 else -math.inf


@dataclass(frozen=True)
class LogTailProfile(DecreasingProfile):
    """amplitude * log(1 + 1/t); unbounded head, slowly decaying tail."""

    amplitude: float = 1.0

    def __post_init__(self):
        _check_positive(self, "amplitude")

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

    def _log_level(self, lam):
        x = lam / self.amplitude
        return -x - math.log(-math.expm1(-x))

    def _log_star(self, x):
        # log(a log1p(e^-x)); past x = 700 log1p(e^-x) is e^-x to rounding
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            near = np.log(np.logaddexp(0.0, -x))
        return math.log(self.amplitude) + np.where(x > 700.0, -x, near)

    @property
    def ends(self):
        return ("log", self.amplitude), (1.0, self.amplitude)

    def scaled(self, c):
        return LogTailProfile(self.amplitude * c)


@dataclass(frozen=True)
class PowerTailProfile(DecreasingProfile):
    """amplitude * t**(-exponent)."""

    exponent: float
    amplitude: float = 1.0

    def __post_init__(self):
        _check_positive(self, "exponent", "amplitude")

    def value(self, t):
        return self.amplitude * np.asarray(t, dtype=float)**(-self.exponent)

    def level_measure(self, lam):
        if lam <= 0.0:
            raise DomainError("level must be positive")
        return (self.amplitude / lam)**(1.0 / self.exponent)

    def _log_level(self, lam):
        return (math.log(self.amplitude) - math.log(lam)) / self.exponent

    def _log_star(self, x):
        return math.log(self.amplitude) - self.exponent * np.asarray(x, float)

    @property
    def ends(self):
        end = (float(self.exponent), self.amplitude)
        return end, end

    def scaled(self, c):
        return PowerTailProfile(self.exponent, self.amplitude * c)


@dataclass(frozen=True)
class _Band(DecreasingProfile):
    """The value band [lower_value, upper_value] of a profile, on [_head,
    _outer); f* has its kink at _head, whose log _log_head stays finite
    where _head underflows to 0."""

    base: DecreasingProfile
    lower_value: float
    upper_value: float

    def __post_init__(self):
        if not 0.0 < self.lower_value < self.upper_value:
            raise ValidationError("band needs 0 < lower < upper", field="band")
        object.__setattr__(self, "_head",
                           self.base.level_measure(self.upper_value))
        object.__setattr__(self, "_log_head",
                           self.base._log_level(self.upper_value))
        object.__setattr__(self, "_outer",
                           self.base.level_measure(self.lower_value))

    def breakpoints(self):
        return (self._head,)

    def _log_kinks(self):
        return (self._log_head,)

    def _below_head(self, arr):
        with np.errstate(divide="ignore"):
            return np.log(arr) < self._log_head

    def _base_value(self, arr, rearranged=False):
        # the base at t = 0 is its supremum, +inf for the catalog heads
        with np.errstate(divide="ignore"):
            if rearranged:
                return self.base.rearranged_value(arr)
            return self.base.value(arr)

    def scaled(self, c):
        return type(self)(self.base.scaled(c), c * self.lower_value,
                          c * self.upper_value)

    def rearranged(self):
        return _SlidProfile(self)


class BandRestriction(_Band):
    """The part of a profile with values inside [lower_value, upper_value].

    Bounded with finite-measure support; this is the order-continuous piece
    a value-band truncation keeps.
    """

    ends = ("bounded", 0.0), ("finite", 0.0)

    @property
    def support_measure(self):
        return self._outer - self._head

    def value(self, t):
        arr = np.asarray(t, dtype=float)
        inside = ~self._below_head(arr) & (arr < self._outer)
        vals = np.where(inside, self._base_value(arr), 0.0)
        return vals if np.ndim(t) else float(vals)

    def rearranged_value(self, t):
        # capped at upper_value, which base(0 + _head) exceeds where _head
        # underflows to 0
        arr = np.asarray(t, dtype=float)
        vals = np.where(arr < self.support_measure,
                        np.minimum(self._base_value(arr + self._head, True),
                                   self.upper_value), 0.0)
        return vals if np.ndim(t) else float(vals)

    def _log_star(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < math.log(self.support_measure),
                        self.base._log_star(np.logaddexp(x, self._log_head)),
                        -math.inf)

    def level_measure(self, lam):
        if lam <= 0.0:
            raise DomainError("level must be positive")
        if lam >= self.upper_value:
            return 0.0
        if lam < self.lower_value:
            return self.support_measure
        return self.base.level_measure(lam) - self._head


class BandComplement(_Band):
    """A profile with one value band removed: the head above upper_value plus
    the tail below lower_value."""

    @property
    def ends(self):
        return self.base.ends

    @property
    def support_measure(self):
        return self.base.support_measure - (self._outer - self._head)

    def value(self, t):
        arr = np.asarray(t, dtype=float)
        keep = self._below_head(arr) | (arr >= self._outer)
        vals = np.where(keep, self._base_value(arr), 0.0)
        return vals if np.ndim(t) else float(vals)

    def rearranged_value(self, t):
        arr = np.asarray(t, dtype=float)
        gap = self._outer - self._head
        return self._base_value(np.where(self._below_head(arr), arr,
                                         arr + gap), True)

    def _log_star(self, x):
        x = np.asarray(x, dtype=float)
        log_gap = math.log(self._outer - self._head)
        return np.where(x < self._log_head, self.base._log_star(x),
                        self.base._log_star(np.logaddexp(x, log_gap)))

    def level_measure(self, lam):
        if lam <= 0.0:
            raise DomainError("level must be positive")
        if lam >= self.upper_value:
            return self.base.level_measure(lam)
        if lam < self.lower_value:
            return self.base.level_measure(lam) - (self._outer - self._head)
        return self._head

    def _log_level(self, lam):
        if lam >= self.upper_value:
            return self.base._log_level(lam)
        if lam >= self.lower_value:
            return self._log_head
        return super()._log_level(lam)


@dataclass(frozen=True)
class _SlidProfile(DecreasingProfile):
    """Rearranged view of a band wrapper; equimeasurable with its source."""

    source: DecreasingProfile

    @property
    def ends(self):
        return self.source.ends

    def breakpoints(self):
        return self.source.breakpoints()

    def _log_kinks(self):
        return self.source._log_kinks()

    def _log_star(self, x):
        return self.source._log_star(x)

    def _log_level(self, lam):
        return self.source._log_level(lam)

    def value(self, t):
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

    setting = "sequence"

    def value(self, i):
        raise NotImplementedError

    def level_count(self, lam):
        raise NotImplementedError

    def _log_star(self, y):
        with np.errstate(over="ignore", divide="ignore"):
            return np.log(self.value(np.exp(y)))

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
        _check_positive(self, "exponent", "amplitude")

    def value(self, i):
        return self.amplitude * np.asarray(i, dtype=float)**(-self.exponent)

    def level_count(self, lam):
        if lam <= 0.0:
            raise DomainError("level must be positive")
        return _count_below((self.amplitude / lam)**(1.0 / self.exponent))

    def _log_star(self, y):
        return math.log(self.amplitude) - self.exponent * np.asarray(y, float)

    @property
    def ends(self):
        return ("bounded", 0.0), (float(self.exponent), self.amplitude)

    def scaled(self, c):
        return PowerSeqTail(self.exponent, self.amplitude * c)


@dataclass(frozen=True)
class LogSeqTail(DecreasingSeqProfile):
    """amplitude / log(i + 1)."""

    amplitude: float = 1.0

    def __post_init__(self):
        _check_positive(self, "amplitude")

    def value(self, i):
        return self.amplitude / np.log1p(np.asarray(i, dtype=float))

    def level_count(self, lam):
        if lam <= 0.0:
            raise DomainError("level must be positive")
        return _count_below(math.expm1(self.amplitude / lam))

    def _log_star(self, y):
        return math.log(self.amplitude) - np.log(np.logaddexp(0.0, y))

    @property
    def ends(self):
        return ("bounded", 0.0), ("inv_log", self.amplitude)

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

    @property
    def ends(self):
        return self.base.ends

    def value(self, i):
        return self.base.value(np.asarray(i, dtype=float) + self.offset)

    def _log_star(self, y):
        with np.errstate(divide="ignore"):
            log_offset = np.log(float(self.offset))
        return self.base._log_star(np.logaddexp(y, log_offset))

    def level_count(self, lam):
        return max(self.base.level_count(lam) - self.offset, 0)

    def scaled(self, c):
        return ShiftedSeqTail(self.base.scaled(c), self.offset)


# ---------------------------------------------------------------------------
# weights, function setting

class Weight:
    """Strictly positive nonincreasing weight on [0, gamma)."""

    setting = "function"
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

    def _log_mass(self, x):
        with np.errstate(over="ignore", divide="ignore"):
            return x + np.log(self.value(np.exp(x)))


@dataclass(frozen=True)
class StepWeight(Weight):
    """Piecewise-constant weight given as (length, level) pieces.

    The pieces tile [0, gamma) in order; the last length may be inf.  Levels
    must be positive and nonincreasing.
    """

    pieces: tuple
    beta = 0.0

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

    def _log_mass(self, x):
        return (1.0 - self.beta) * np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# weights, sequence setting

class SequenceWeight:
    """Strictly positive nonincreasing sequence weight with divergent sums.

    value takes real arguments too, and is smooth from index _smooth_from
    on."""

    setting = "sequence"
    _smooth_from = 1

    def value(self, i):
        raise NotImplementedError

    def _log_mass(self, y):
        with np.errstate(over="ignore", divide="ignore"):
            return y + np.log(self.value(np.exp(y)))

    def head(self, n):
        """First n weights as an array."""
        return np.asarray(self.value(np.arange(1, n + 1)), dtype=float)

    def prefix(self, n):
        if n < 0 or n != int(n):
            raise DomainError("prefix length must be a nonnegative integer")
        if n == 0:
            return 0.0
        return float(self.head(int(n)).sum())


@dataclass(frozen=True)
class ConstantSeqWeight(SequenceWeight):
    level: float = 1.0
    beta = 0.0

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
    beta = 1.0

    def value(self, i):
        arr = np.asarray(i, dtype=float)
        out = 1.0 / arr
        return out if np.ndim(i) else float(out)

    def _log_mass(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))


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

    def _log_mass(self, y):
        return (1.0 - self.beta) * np.asarray(y, dtype=float)


@dataclass(frozen=True)
class ExplicitSeqWeight(SequenceWeight):
    """Explicit head values continued by a constant tail at the last value."""

    head_values: tuple
    beta = 0.0

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
        object.__setattr__(self, "_smooth_from", len(cleaned))

    def value(self, i):
        arr = np.asarray(i, dtype=float)
        if np.any(arr < 1.0):
            raise DomainError("indices start at 1")
        idx = np.minimum(arr, len(self.head_values)).astype(int) - 1
        out = np.asarray(self.head_values)[idx]
        return out if np.ndim(i) else float(out)

