"""Young-pair behaviour of the convex gauge families."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import olk
from olk import orlicz, solvers
from olk.errors import ConvergenceError, DomainError, ValidationError

from conftest import dyadic, rand_phi

FAMILIES = [
    olk.PowerOrlicz(2.0, 0.5),
    olk.PowerOrlicz(1.5, 1.0),
    olk.PowerOrlicz(3.0, 0.25),
    olk.ExpOrlicz(),
    olk.LogOrlicz(),
    olk.FlatZeroOrlicz(),
]


# ---------------------------------------------------------------------------
# pointwise values and closed forms


def test_power_value_closed_form():
    phi = olk.PowerOrlicz(2.0, 0.5)
    assert phi.value(2.0) == 2.0
    assert phi.value(0.0) == 0.0
    assert phi.derivative(3.0) == pytest.approx(3.0, rel=1e-15)


def test_power_conjugate_closed_form():
    # conjugate of t^2/2 is t^2/2 again
    phi = olk.PowerOrlicz(2.0, 0.5)
    conj = phi.conjugate()
    assert conj.value(2.0) == pytest.approx(2.0, rel=1e-14)
    # conjugate of t^3 has exponent 3/2
    cubic = olk.PowerOrlicz(3.0, 1.0).conjugate()
    for u in (0.5, 1.0, 2.0):
        direct = max(u * v - v**3 for v in np.linspace(0.0, 10.0, 400001))
        assert cubic.value(u) == pytest.approx(direct, rel=1e-6)


def test_exp_and_log_are_mutual_conjugates():
    exp_phi = olk.ExpOrlicz()
    log_phi = olk.LogOrlicz()
    for u in (0.25, 1.0, 3.0):
        assert exp_phi.conjugate().value(u) == pytest.approx(
            log_phi.value(u), rel=1e-12)
        assert log_phi.conjugate().value(u) == pytest.approx(
            exp_phi.value(u), rel=1e-12)


def test_exp_value():
    phi = olk.ExpOrlicz()
    assert phi.value(1.0) == pytest.approx(math.e - 2.0, rel=1e-15)
    assert phi.value(0.0) == 0.0


def _decimal_reference(kind, u):
    # exp(u) - u - 1 and (1 + u) log(1 + u) - u to 50 significant digits:
    # the working precision covers the cancellation of about 2 log10(1/u)
    # digits
    with localcontext() as ctx:
        ctx.prec = 50 + max(0, int(-2.0 * math.log10(u)))
        d = Decimal(u)
        if kind == "exp":
            return d.exp() - d - 1
        return (1 + d) * (1 + d).ln() - d


@pytest.mark.parametrize("phi", [olk.ExpOrlicz(), olk.LogOrlicz()],
                         ids=["exp", "log"])
def test_small_argument_values_within_4_ulp(phi):
    kind = "exp" if isinstance(phi, olk.ExpOrlicz) else "log"
    us = np.concatenate([np.logspace(-300.0, -2.0, 300),
                         np.geomspace(1e-3, 1e-2, 100)])
    got = phi.value(us)
    for u, value in zip(us.tolist(), got.tolist()):
        want = _decimal_reference(kind, u)
        ulps = abs(Decimal(value) - want) / Decimal(math.ulp(float(want)))
        assert ulps <= 4, (u, value)
        assert phi.value(u) == value


@pytest.mark.parametrize("phi", [olk.ExpOrlicz(), olk.LogOrlicz()],
                         ids=["exp", "log"])
def test_values_within_2_ulp_up_to_one(phi):
    kind = "exp" if isinstance(phi, olk.ExpOrlicz) else "log"
    rng = np.random.default_rng(3)
    us = np.concatenate([np.logspace(-300.0, 0.0, 301),
                         np.sort(rng.uniform(2.0**-6, 1.0, 1000)),
                         2.0**-5 * (1.0 + np.arange(-50, 51) * 2.0**-52)])
    got = phi.value(us)
    for u, value in zip(us.tolist(), got.tolist()):
        want = _decimal_reference(kind, u)
        ulps = abs(Decimal(value) - want) / Decimal(math.ulp(float(want)))
        assert ulps <= 2, (u, value)


def test_log_values_within_3_ulp_above_one():
    # the rounding of w = log(1 + u) must not be carried with weight 1 + u
    phi = olk.LogOrlicz()
    rng = np.random.default_rng(5)
    us = np.concatenate([np.geomspace(1.0, 1e300, 601),
                         np.sort(rng.uniform(1.0, 4.0, 1000)),
                         np.exp(rng.uniform(0.0, 690.0, 400))])
    got = phi.value(us)
    for u, value in zip(us.tolist(), got.tolist()):
        want = _decimal_reference("log", u)
        ulps = abs(Decimal(value) - want) / Decimal(math.ulp(float(want)))
        assert ulps <= 3, (u, value)


@pytest.mark.parametrize("phi", [olk.ExpOrlicz(), olk.LogOrlicz()],
                         ids=["exp", "log"])
@pytest.mark.parametrize("switch", [2.0**-5, 1.0, math.e - 1.0])
def test_values_are_monotone_across_the_series_switches(phi, switch):
    # 2^-5, where the short series used to hand over to the closed forms,
    # 1, where the series hand over now, and e - 1, where log(1 + u) = 1
    # moves the Young form of LogOrlicz onto the exp closed form; 4000
    # consecutive floats each
    steps = np.arange(-2000, 2000)
    below = switch - np.maximum(-steps, 0) * math.ulp(switch / 2.0)
    above = switch + np.maximum(steps, 0) * math.ulp(switch)
    grid = np.where(steps < 0, below, above)
    values = phi.value(grid)
    assert np.all(np.diff(values) >= 0.0)
    assert np.unique(values).size > 2500


def test_small_argument_anchor_values():
    # all three read 0.0 or twice the true value through the cancelling
    # closed forms
    want = pytest.approx(5e-41, rel=1e-12, abs=0.0)
    assert olk.LogOrlicz().value(1e-20) == want
    assert olk.ExpOrlicz().value(1e-20) == want
    assert olk.NumericConjugate(olk.ExpOrlicz()).value(1e-20) == want


def test_flat_zero_vanishes_near_origin_but_not_identically():
    phi = olk.FlatZeroOrlicz(cutoff=0.4)
    # extremely flat at the origin: below any power
    assert phi.value(0.01) < 0.01**10
    assert phi.value(1.0) > 0.0
    # still convex and increasing past the cutoff
    assert phi.value(2.0) > phi.value(1.0) > phi.value(0.5)


# (cutoff, values and slopes at (cutoff / 2, cutoff, 2 cutoff, 1, 3)),
# frozen: the convexity check on the cutoff must not move any value
FLAT_ZERO_FROZEN = [
    (0.05, (4.248354255291589e-18, 2.061153622438558e-09,
            4.142918781101501e-07, 0.00013471906191620653,
            0.0012939118591756517),
     (6.797366808466541e-15, 8.244614489754229e-07, 1.5664767530533038e-05,
      0.00028279027699857007, 0.0008764025202608748)),
    (0.3, (0.0012726338013398079, 0.035673993347252395, 0.23386284527643236,
           0.744749663582763, 7.527212596270258),
     (0.05656150228176924, 0.39637770385835996, 0.9248813090028398,
      1.6295527825288132, 5.1529101501586805)),
    (0.4, (0.006737946999085467, 0.0820849986238988, 0.33860061932358254,
           0.5053357727783768, 3.5835232211745804),
     (0.16844867497713664, 0.5130312413993674, 0.7695468620990511,
      0.8978046724488928, 2.1803827759473107)),
    (0.45, (0.01174362845702136, 0.10836802322189586, 0.3759433892018856,
            0.4426720607178831, 2.3322166204778103),
     (0.23197290779301452, 0.5351507319599795, 0.6540731168399749,
      0.680500313479974, 1.2090442462799535)),
    (0.4999, (0.018300989308320748, 0.13528114912404, 0.40595170476755515,
              0.40606001631442956, 1.4900420640482277),
     (0.2929329904119771, 0.5413411112870303, 0.5415576910474972,
      0.5415577776967312, 0.5424242700370668)),
]


@pytest.mark.parametrize("cutoff, values, slopes", FLAT_ZERO_FROZEN,
                         ids=[str(row[0]) for row in FLAT_ZERO_FROZEN])
def test_flat_zero_construction_keeps_its_values(cutoff, values, slopes):
    phi = olk.FlatZeroOrlicz(cutoff)
    u = np.array([0.5 * cutoff, cutoff, 2.0 * cutoff, 1.0, 3.0])
    np.testing.assert_allclose(phi.value(u), values, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(phi.derivative(u), slopes, rtol=1e-15,
                               atol=0.0)
    # a positive curvature at the cutoff makes the construction convex
    grid = np.linspace(1e-3, 4.0 * cutoff, 2001)
    chords = np.diff(phi.value(grid)) / np.diff(grid)
    assert np.all(np.diff(chords) >= -1e-12)


def test_flat_zero_slope_is_finite_and_quiet_at_huge_arguments():
    # the discarded head squares u; a RuntimeWarning fails the suite
    phi = olk.FlatZeroOrlicz(0.4)
    u = np.array([1.0, 1e200, 1e300])
    tail = phi._p_c + phi._curv * (u - 0.4)
    assert phi.derivative(u).tolist() == tail.tolist()
    assert phi.derivative(1e300) == tail[2]


@pytest.mark.parametrize("phi, overflows", [
    (olk.PowerOrlicz(3.0), (True, True)),
    (olk.ExpOrlicz(), (True, True)),
    (olk.LogOrlicz(), (False, False)),
    (olk.FlatZeroOrlicz(0.4), (True, False)),
], ids=["power", "exp", "log", "flat_zero"])
def test_overflowing_values_are_quiet_infinities(phi, overflows):
    # value and slope at u = 1e160 and 1e300: inf where the exact result
    # exceeds the float range, finite otherwise; a RuntimeWarning fails
    # the suite
    u = np.array([1e160, 1e300])
    for fn, overflow in zip((phi.value, phi.derivative), overflows):
        out = fn(u)
        assert np.all(np.isinf(out) if overflow else np.isfinite(out))
        assert np.all(out > 0.0)
        assert fn(1e300) == out[1]


@pytest.mark.parametrize("cutoff", [0.001, 1.0 / 746.0, 1e-10])
def test_flat_zero_rejects_an_underflowing_cutoff(cutoff):
    # exp(-1/cutoff) underflows to 0, so the function would be identically
    # 0 on [cutoff, inf)
    with pytest.raises(ValidationError):
        olk.FlatZeroOrlicz(cutoff)


def test_flat_zero_accepts_a_small_cutoff_that_does_not_underflow():
    phi = olk.FlatZeroOrlicz(0.002)
    assert phi.value(1.0) > 0.0
    assert phi.derivative(1.0) > 0.0


def test_tabulated_is_piecewise_linear_and_not_n_function():
    phi = olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 0.5), (2.0, 2.0)))
    assert not phi.is_n_function
    assert phi.value(0.5) == pytest.approx(0.25, rel=1e-15)
    assert phi.value(1.5) == pytest.approx(1.25, rel=1e-15)


def test_tabulated_rejects_nonconvex_knots():
    with pytest.raises(ValidationError):
        olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 2.0), (2.0, 2.5)))


def test_power_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        olk.PowerOrlicz(1.0, 1.0)  # linear is not allowed
    with pytest.raises(ValidationError):
        olk.PowerOrlicz(2.0, -1.0)


def test_value_rejects_negative_argument():
    with pytest.raises(DomainError):
        olk.PowerOrlicz(2.0, 0.5).value(-1.0)


# ---------------------------------------------------------------------------
# trusted kernels and the validating public methods

_CATALOG = [olk.PowerOrlicz(2.5, 0.75), olk.ExpOrlicz(), olk.LogOrlicz(),
            olk.FlatZeroOrlicz(0.35),
            olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 0.5), (3.0, 4.5)))]
KERNEL_FAMILIES = _CATALOG + [phi.conjugate() for phi in _CATALOG]

# 0, subnormals, the normal range and magnitudes up to 1e308
_KERNEL_ARGS = st.lists(
    st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                               1e-300, 1.0, 1e300, 1e308]),
              st.floats(min_value=0.0, max_value=1e308)),
    min_size=1, max_size=8)


@pytest.mark.parametrize("phi", KERNEL_FAMILIES,
                         ids=lambda phi: type(phi).__name__)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(entries=_KERNEL_ARGS)
def test_kernels_overflow_to_inf_without_nan_or_warning(phi, entries):
    # the finite solves probe the kernels under errstate(over="ignore"),
    # unchecked: every entry must come out nonnegative, +inf where it
    # overflows, never NaN and never with a RuntimeWarning
    arr = np.array(entries)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error", RuntimeWarning)
        for kernel in (phi._value, phi._derivative, phi._young):
            try:
                out = kernel(arr)
            except ConvergenceError:
                continue    # a conjugate beyond the base's last slope
            assert out.dtype == np.float64 and out.shape == arr.shape
            assert (out >= 0.0).all()    # NaN fails too


# log u from -inf over 1e-3 .. 1e6 in magnitude, both signs
_LOG_ARGS = np.concatenate(([-np.inf], -np.logspace(6, -3, 200), [0.0],
                            np.logspace(-3, 6, 200)))


@pytest.mark.parametrize("phi", _CATALOG, ids=lambda phi: type(phi).__name__)
def test_log_kernels_are_monotone_and_match_the_kernels(phi):
    # the profile layouts read log phi and log young at log u over the whole
    # float range: no NaN or warning, nondecreasing across the hand-overs
    # to the leading forms, and the log of the public method in between
    for log_kernel, public in ((phi._log_value, phi.value),
                               (phi._log_young, phi.young)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = log_kernel(_LOG_ARGS)
        assert not np.isnan(out).any()
        prev, nxt = out[:-1], out[1:]
        assert ((nxt >= prev) | np.isclose(nxt, prev, rtol=1e-15)).all()
        middle = np.abs(_LOG_ARGS) <= 5.0
        with np.errstate(divide="ignore"):
            direct = np.log(public(np.exp(_LOG_ARGS[middle])))
        assert out[middle] == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("log_kernel, log_u, expected", [
    (olk.PowerOrlicz(2.5, 0.75)._log_value, 1e6, math.log(0.75) + 2.5e6),
    (olk.PowerOrlicz(2.5, 0.75)._log_young, -1e6, math.log(1.125) - 2.5e6),
    (olk.ExpOrlicz()._log_value, math.log(800.0), 800.0),
    (olk.ExpOrlicz()._log_young, math.log(800.0), 800.0 + math.log(799.0)),
    (olk.ExpOrlicz()._log_value, -800.0, -1600.0 - math.log(2.0)),
    (olk.LogOrlicz()._log_value, 1e4, 1e4 + math.log(1e4 - 1.0)),
    (olk.FlatZeroOrlicz(0.35)._log_value, -7.0, -math.exp(7.0)),
    (olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 0.5), (3.0, 4.5)))._log_young,
     1e6, math.log(3.0 * 2.0 - 4.5)),
], ids=["power", "power-young", "exp", "exp-young", "exp-small", "log",
        "flat-small", "tabulated-young"])
def test_log_kernels_take_the_leading_forms_past_the_float_range(
        log_kernel, log_u, expected):
    assert log_kernel(np.array([log_u]))[0] == pytest.approx(expected,
                                                             rel=1e-14)


@pytest.mark.parametrize("phi", KERNEL_FAMILIES,
                         ids=lambda phi: type(phi).__name__)
def test_kernel_values_overflow_to_inf(phi):
    # each value at 1e308 overflows, but TabulatedConjugate's, which is
    # undefined beyond the base's last slope
    arr = np.array([1e308])
    with np.errstate(over="ignore"):
        if isinstance(phi, olk.orlicz.TabulatedConjugate):
            with pytest.raises(ConvergenceError):
                phi._value(arr)
        else:
            assert phi._value(arr).tolist() == [math.inf]


@pytest.mark.parametrize("phi", KERNEL_FAMILIES,
                         ids=lambda phi: type(phi).__name__)
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_public_methods_reject_what_the_kernels_trust(phi, bad):
    for method in (phi.value, phi.derivative, phi.young):
        for arg in (bad, np.array([1.0, bad])):
            with pytest.raises(DomainError):
                method(arg)


# ---------------------------------------------------------------------------
# convexity / monotonicity invariants


@pytest.mark.parametrize("phi", FAMILIES, ids=lambda p: type(p).__name__)
def test_derivative_is_nondecreasing(phi):
    grid = np.linspace(0.01, 6.0, 200)
    dv = np.array([phi.derivative(float(t)) for t in grid])
    assert np.all(np.diff(dv) >= -1e-12 * np.maximum(1.0, dv[:-1]))


@pytest.mark.parametrize("phi", FAMILIES, ids=lambda p: type(p).__name__)
def test_value_is_convex_on_samples(phi):
    grid = np.linspace(0.0, 5.0, 101)
    vals = np.array([phi.value(float(t)) for t in grid])
    mids = 0.5 * (vals[:-2] + vals[2:])
    assert np.all(vals[1:-1] <= mids + 1e-12 * np.maximum(1.0, mids))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(u=st.floats(0.0, 8.0), v=st.floats(0.0, 8.0),
       idx=st.integers(0, len(FAMILIES) - 1))
def test_young_inequality_holds(u, v, idx):
    phi = FAMILIES[idx]
    assert olk.young_gap(phi, u, v) >= -1e-9


@pytest.mark.parametrize("phi", FAMILIES[:5], ids=lambda p: type(p).__name__)
def test_young_equality_at_derivative(phi):
    # at v = phi'(u) the inequality is tight
    for u in (0.25, 1.0, 2.5):
        v = phi.derivative(u)
        gap = olk.young_gap(phi, u, v)
        scale = max(1.0, phi.value(u) + phi.conjugate().value(v))
        assert abs(gap) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# numeric conjugate agreement


def test_numeric_conjugate_matches_closed_forms():
    rng = np.random.default_rng(7)
    for _ in range(10):
        phi = rand_phi(rng)
        numeric = olk.NumericConjugate(phi)
        closed = phi.conjugate()
        for u in (0.1, 0.5, 1.0, 2.0, 4.0):
            assert numeric.value(u) == pytest.approx(
                closed.value(u), rel=1e-7, abs=1e-10)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_numeric_conjugate_matches_closed_form_at_tiny_arguments(r):
    # the maximiser q(v) lies far below 2^-60 (down to about 1e-200), where
    # the root-finder's walk goes on instead of returning its floor
    phi = olk.PowerOrlicz(r, 0.5)
    numeric, closed = olk.NumericConjugate(phi), phi.conjugate()
    for v in (1e-30, 1e-60, 1e-100):
        assert numeric.value(v) == pytest.approx(closed.value(v), rel=1e-8,
                                                 abs=0.0)
        assert numeric.derivative(v) == pytest.approx(closed.derivative(v),
                                                      rel=1e-8, abs=0.0)


@pytest.mark.parametrize("base", [
    pytest.param(olk.PowerOrlicz(1.5, 0.5), id="1.5"),
    pytest.param(olk.PowerOrlicz(2.0, 0.5), id="2.0"),
    pytest.param(olk.PowerOrlicz(3.0, 0.5), id="3.0"),
    pytest.param(olk.FlatZeroOrlicz(0.4), id="flat_zero"),
])
def test_numeric_conjugate_derivative_at_zero_is_zero(base):
    # sup{u : p(u) <= 0} = 0; for r = 3, p(u) = 1.5 u^2 underflows to 0
    # below about 1e-162, and e^(-1/u) / u^2 of the flat-zero function
    # below about 1.3e-3, where a solve for the crossing would stop
    numeric = olk.NumericConjugate(base)
    assert numeric.derivative(0.0) == 0.0
    assert numeric.young(0.0) == 0.0
    assert numeric.value(0.0) == 0.0
    assert numeric.derivative(np.array([0.0, 1e-3]))[0] == 0.0


def test_numeric_conjugate_arrays_match_per_entry_solves():
    base = olk.FlatZeroOrlicz(0.4)
    conj = olk.NumericConjugate(base)
    v = np.array([0.0, 1e-300, 1e-5, 0.3, 1.0, 7.5, 1e3])

    def boundary(target, strict):
        def excess(u):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.log(base.derivative(u)) - np.log(target)
        _, hi = solvers.increasing_root(
            excess, rel_tol=orlicz._CONJUGATE_REL_TOL, strict=strict)
        return hi

    # reference: the scalar solve per entry, to be matched bit for bit
    argmax = [0.0 if x == 0.0 else boundary(x, False) for x in v]
    values = [u * x - base.value(u) for u, x in zip(argmax, v)]
    slopes = [0.0 if x == 0.0 else boundary(x, True) for x in v]
    assert np.array_equal(conj.value(v), np.array(values))
    assert np.array_equal(conj.derivative(v), np.array(slopes))
    assert conj.value(float(v[3])) == values[3]


@pytest.mark.parametrize("cutoff", [0.3, 0.35, 0.4, 0.45])
def test_numeric_conjugate_attains_young_equality(cutoff):
    # phi(u) + phi*(p(u)) = u p(u) on the flat head, the quadratic tail and
    # across the cutoff
    base = olk.FlatZeroOrlicz(cutoff)
    conj = olk.NumericConjugate(base)
    u = np.logspace(-3.0, 3.0, 121)
    slopes = base.derivative(u)
    np.testing.assert_allclose(base.value(u) + conj.value(slopes),
                               u * slopes, rtol=1e-10, atol=0.0)


def test_numeric_conjugate_array_beyond_last_slope_raises():
    conj = olk.NumericConjugate(
        olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0))))
    v = np.array([0.5, 1.5, 2.5])
    with pytest.raises(ConvergenceError):
        conj.value(v)
    with pytest.raises(ConvergenceError):
        conj.derivative(v)


def test_double_conjugate_recovers_original():
    phi = olk.ExpOrlicz()
    back = olk.NumericConjugate(olk.NumericConjugate(phi))
    for u in (0.25, 1.0, 2.0):
        assert back.value(u) == pytest.approx(phi.value(u), rel=1e-6)


# ---------------------------------------------------------------------------
# closed-form conjugates

TABULATED = olk.TabulatedOrlicz(((0.0, 0.0), (0.5, 0.25), (1.0, 1.0),
                                 (2.0, 3.0), (3.0, 6.0)))
CLOSED_BASES = [
    pytest.param(olk.FlatZeroOrlicz(0.05), id="flat_zero_0.05"),
    pytest.param(olk.FlatZeroOrlicz(0.4), id="flat_zero_0.4"),
    pytest.param(olk.FlatZeroOrlicz(0.4999), id="flat_zero_0.4999"),
    pytest.param(TABULATED, id="tabulated"),
]


def _probe(base):
    """v = 0, then a spread below the last slope of a tabulated function,
    or across the head and tail of a flat-zero one."""
    if isinstance(base, olk.TabulatedOrlicz):
        top = base.derivative(base.knots[-1][0])
        return np.concatenate(([0.0], np.linspace(0.01, 0.99, 99) * top,
                               base.derivative(np.array([0.0, 0.5, 1.0]))))
    return np.concatenate(([0.0], np.geomspace(1e-300, 1e3, 400)))


@pytest.mark.parametrize("cutoff", [0.05, 0.3, 0.45, 0.49, 0.4999])
def test_flat_zero_conjugate_inverts_the_derivative(cutoff):
    phi = olk.FlatZeroOrlicz(cutoff)
    conj = phi.conjugate()
    assert type(conj).__name__ == "FlatZeroConjugate"
    v = np.geomspace(1e-300, 1e3, 4001)
    u = conj.derivative(v)
    assert np.all(np.abs(phi.derivative(u) / v - 1.0) <= 1e-12)
    assert np.all(np.diff(u) > 0.0)
    # p(0) = 0 and 0 p(0) - phi(0) = 0, also where u^2 underflows
    assert phi.derivative(0.0) == phi.young(0.0) == 0.0
    assert phi.derivative(np.array([0.0, 1e-200])).tolist() == [0.0, 0.0]
    # the head ends at the cutoff, where the linear tail starts
    assert conj.derivative(phi.derivative(cutoff)) == pytest.approx(
        cutoff, rel=1e-6)


def test_flat_zero_conjugate_at_float_overflow():
    # phi* grows like v^2 / (2 phi''(u)) on the quadratic tail: +inf once
    # v q(v) overflows; q itself raises where it leaves the floats, as the
    # numeric solve raises beyond its cap
    conj = olk.FlatZeroOrlicz(0.05).conjugate()
    assert conj.value(1e150) == pytest.approx(1.6846e303, rel=1e-4)
    assert conj.value(np.array([1.0, 1e200])).tolist()[1] == math.inf
    with pytest.raises(ConvergenceError):
        conj.derivative(1e308)


@pytest.mark.parametrize("base", CLOSED_BASES)
def test_closed_conjugate_matches_numeric_within_its_tolerance(base):
    # the numeric solve returns the upper end of a bracket 1e-12 wide
    # (relative) around q(v); u v - phi(u) moves by |v - p(u)| times that
    # (to second order where p is continuous), and young = phi(q) by the
    # elasticity u p(u) / phi(u) times it
    closed, numeric = base.conjugate(), olk.NumericConjugate(base)
    v = _probe(base)
    q, q_num = closed.derivative(v), numeric.derivative(v)
    np.testing.assert_allclose(q, q_num, rtol=1.1e-12, atol=0.0)
    value, value_num = closed.value(v), numeric.value(v)
    slack = np.abs(v - base.derivative(q_num)) * q_num
    assert np.all(np.abs(value - value_num)
                  <= 1.1e-12 * slack + 1e-15 * np.abs(value_num) + 1e-307)
    with np.errstate(divide="ignore", invalid="ignore"):
        elasticity = np.where(q > 0.0, q * base.derivative(q)
                              / base.value(q), 1.0)
    young, young_num = closed.young(v), numeric.young(v)
    assert np.all(np.abs(young - young_num)
                  <= 1.1e-12 * (1.0 + elasticity) * np.abs(young_num))


@pytest.mark.parametrize("base", CLOSED_BASES)
def test_closed_conjugate_scalar_and_array_agree(base):
    conj = base.conjugate()
    v = _probe(base)[::7]
    for name in ("value", "derivative", "young"):
        array = getattr(conj, name)(v)
        assert array.shape == v.shape
        scalars = [getattr(conj, name)(float(x)) for x in v]
        assert all(isinstance(x, float) for x in scalars)
        assert np.array_equal(np.array(scalars), array), name
        assert np.array_equal(getattr(conj, name)(v.reshape(-1, 1)),
                              array.reshape(-1, 1)), name


@pytest.mark.parametrize("base", CLOSED_BASES)
def test_closed_conjugate_at_zero_and_back(base):
    conj = base.conjugate()
    assert conj.derivative(0.0) == 0.0
    assert conj.value(0.0) == 0.0
    assert conj.young(0.0) == 0.0
    assert conj.conjugate() is base
    numeric = olk.NumericConjugate(base)
    assert conj.growth == numeric.growth
    assert conj.young_growth == numeric.young_growth
    assert conj.is_n_function is numeric.is_n_function
    assert olk.delta2_classify(conj) == olk.delta2_classify(numeric)


def test_tabulated_conjugate_raises_beyond_the_last_slope():
    closed, numeric = TABULATED.conjugate(), olk.NumericConjugate(TABULATED)
    last = float(TABULATED.derivative(3.0))
    # phi* is finite up to the last slope and +inf beyond it; q and young
    # need a u with p(u) > v, which exists only below it
    for conj in (closed, numeric):
        assert conj.value(last) == pytest.approx(last * 2.0 - 3.0, rel=1e-12)
        for v in (last, np.array([0.5, last])):
            with pytest.raises(ConvergenceError):
                conj.derivative(v)
            with pytest.raises(ConvergenceError):
                conj.young(v)
        for v in (last * (1.0 + 1e-9), np.array([0.5, last + 1.0])):
            with pytest.raises(ConvergenceError):
                conj.value(v)


def test_tabulated_conjugate_swaps_knots_and_slopes():
    conj = TABULATED.conjugate()
    # slopes 0.5, 1.5, 2, 3 at knots 0, 0.5, 1, 2, 3
    v = np.array([0.25, 0.5, 1.0, 1.5, 1.75, 2.0, 2.5])
    assert conj.derivative(v).tolist() == [0.0, 0.5, 0.5, 1.0, 1.0, 2.0, 2.0]
    assert conj.value(v).tolist() == [0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0]
    assert conj.young(v).tolist() == [0.0, 0.25, 0.25, 1.0, 1.0, 3.0, 3.0]


# ---------------------------------------------------------------------------
# growth classification


def test_delta2_classification():
    assert olk.delta2_classify(olk.PowerOrlicz(2.0, 0.5))["global"] is True
    report = olk.delta2_classify(olk.ExpOrlicz())
    assert report["at_infinity"] is False
    assert report["at_zero"] is True
    assert olk.delta2_classify(olk.LogOrlicz())["global"] is True


@pytest.mark.parametrize("phi, at_zero, at_infinity", [
    (olk.PowerOrlicz(2.0, 0.5), True, True),
    (olk.ExpOrlicz(), True, False),
    (olk.LogOrlicz(), True, True),
    (olk.FlatZeroOrlicz(), False, True),
    (olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0))), True, True),
    # phi* of a tabulated phi is +inf beyond the last slope
    (olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 1.0),
                          (2.0, 3.0))).conjugate(), True, False),
    (olk.FlatZeroOrlicz().conjugate(), True, True),
])
def test_delta2_follows_the_growth_types(phi, at_zero, at_infinity):
    report = olk.delta2_classify(phi)
    assert report["at_zero"] is at_zero
    assert report["at_infinity"] is at_infinity
    assert report["global"] is (at_zero and at_infinity)


@pytest.mark.parametrize("phi", FAMILIES + [
    olk.PowerOrlicz(3.0, 1.0).conjugate(), olk.FlatZeroOrlicz().conjugate(),
    olk.NumericConjugate(olk.PowerOrlicz(3.0, 1.0)),
    olk.TabulatedOrlicz(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0))).conjugate(),
], ids=lambda phi: type(phi).__name__)
def test_delta2_reports_only_the_three_exact_booleans(phi):
    # no sampled doubling constant: every key is read from phi.growth
    report = olk.delta2_classify(phi)
    assert set(report) == {"global", "at_infinity", "at_zero"}
    assert all(type(value) is bool for value in report.values())


def test_conjugate_growth_of_flat_zero_at_zero():
    # phi* of exp(-1/u) is v / log(1/v) near 0, its Young function
    # v / log(1/v)^2: the ratios below tend to 1 as v -> 0
    conj = olk.FlatZeroOrlicz().conjugate()
    assert conj.growth[0] == (1.0, -1.0)
    assert conj.young_growth[0] == (1.0, -2.0)
    v = 1e-100
    ell = math.log(1.0 / v)
    assert conj.value(v) * ell / v == pytest.approx(1.0, abs=0.06)
    assert conj.young(v) * ell**2 / v == pytest.approx(1.0, abs=0.1)

