"""Tests of the benchmark's own reference checker and result plumbing.

Run with:  python3 -m pytest bench
The checker is tested against closed forms and hand-worked examples, never
against the library it checks.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as R  # noqa: E402
import run  # noqa: E402


def test_power_closed_forms_match_the_generic_solvers():
    rng = np.random.default_rng(0)
    v = np.sort(rng.uniform(0.1, 3.0, 50))[::-1]
    m = rng.uniform(0.2, 1.0, 50)
    spec = ("power", 2.5, 0.75)
    lux, ame = R.layout_norms(spec, v, m)
    assert R.rel(lux, R.gauge(lambda c: R.modular(spec, v, m, c))) < 1e-12
    assert R.rel(ame, R.amemiya(lambda k: R.modular(spec, v, m, k))) < 1e-12


def test_power_conjugate_is_the_supremum():
    spec = ("power", 3.0, 0.5)
    conj = R.conjugate_spec(spec)
    t = np.linspace(0.0, 20.0, 400001)
    for s in (0.3, 1.0, 4.0):
        brute = float(np.max(s * t - R.phi_value(spec, t)))
        assert R.rel(float(R.orlicz_value(conj, s)), brute) < 1e-8


def test_numeric_conjugate_of_flat_zero_is_the_supremum():
    spec = ("flat_zero", 0.4)
    conj = R.conjugate_spec(spec)
    t = np.linspace(1e-4, 10.0, 400001)
    for s in (0.05, 0.7, 3.0):
        brute = float(np.max(s * t - R.phi_value(spec, t)))
        assert R.rel(float(R.orlicz_value(conj, np.array([s]))[0]),
                     brute) < 1e-7


def test_exp_and_log_are_conjugate():
    s = np.array([0.1, 1.0, 5.0])
    t = np.linspace(0.0, 10.0, 200001)
    brute = [float(np.max(x * t - R.phi_value(("exp",), t))) for x in s]
    got = R.orlicz_value(R.conjugate_spec(("exp",)), s)
    assert np.allclose(got, brute, rtol=1e-8)


def test_level_function_of_the_readme_example():
    # h = 4 on [0, 1), 3 on [1, 2); w = 4 on [0, 1), 1 beyond: the first
    # ratio 1 is below the second 3, so both merge into ratio 7 / 5
    ref = {"values": np.array([4.0, 3.0]), "measures": np.array([1.0, 1.0]),
           "weight": ("step", ((1.0, 4.0), (math.inf, 1.0)))}
    per_piece, edges, ratios, masses = R.level_blocks(ref)
    assert list(edges) == [1.0, 2.0]
    assert ratios.tolist() == [1.4]
    assert masses.tolist() == [5.0]
    assert per_piece.tolist() == [1.4, 1.4]


def test_level_blocks_split_at_weight_breakpoints_and_merge_ties():
    ref = {"values": np.array([2.0, -2.0, 1.0]),
           "measures": np.array([0.5, 0.5, 2.0]),
           "weight": ("step", ((1.5, 1.0), (math.inf, 0.5)))}
    per_piece, edges, ratios, masses = R.level_blocks(ref)
    assert edges.tolist() == [1.0, 1.5, 3.0]
    # ratios 2 | 1 | 2: the last piece rises above the second, so they merge
    assert ratios.tolist() == [2.0, (0.5 + 1.5 * 1.0) / (0.5 + 0.75)]
    assert np.all(np.diff(ratios) < 0)


def test_sequence_level_blocks_are_a_concave_majorant():
    rng = np.random.default_rng(3)
    ref = {"values": rng.uniform(0.1, 2.0, 200), "measures": None,
           "weight": ("harmonic",)}
    _, _, ratios, masses = R.level_blocks(ref)
    h = np.sort(ref["values"])[::-1]
    assert np.all(np.diff(ratios) < 0)
    assert R.rel(float(np.sum(ratios * masses)), float(h.sum())) < 1e-12


def test_profile_modular_of_log_tail_is_pi_squared_over_three():
    # integral over (0, inf) of log(1 + 1/t)^2 dt = pi^2 / 3
    ref = {"phi": ("power", 2.0, 1.0), "weight": ("power", 0.0),
           "profile": ("log_tail", 1.0)}
    assert R.rel(R.ProfileModular(ref)(1.0), math.pi**2 / 3.0) < 1e-10


def test_profile_modular_of_power_seq_tail_is_zeta():
    # sum of (i^-1)^2 * 1 = zeta(2) with the constant weight i^0
    ref = {"phi": ("power", 2.0, 1.0), "weight": ("power_seq", 0.0),
           "profile": ("power_seq_tail", 1.0, 1.0)}
    assert R.rel(R.ProfileModular(ref)(1.0), math.pi**2 / 6.0) < 1e-10


def test_profile_modular_of_log_seq_tail_with_its_slow_tail():
    # sum over i of (0.7 / log(i + 1))^1.5 / i; the value comes from a
    # 30-digit mpmath quadrature of the tail beyond i = 20000
    ref = {"phi": ("power", 1.5, 1.0), "weight": ("harmonic",),
           "profile": ("log_seq_tail", 0.7)}
    assert R.rel(R.ProfileModular(ref)(1.0), 2.388875066485539) < 1e-9


def test_band_restriction_has_finite_support():
    base = ("power_tail", 1.0, 1.0)
    fstar, end, _ = R.profile_rearranged(("band", base, 0.5, 2.0))
    # {1/t > 2} = (0, 0.5) and {1/t >= 0.5} = (0, 2]: the band is t in
    # [0.5, 2), slid to [0, 1.5)
    assert end == pytest.approx(1.5)
    assert float(fstar(np.array(0.0))) == pytest.approx(2.0)
    assert float(fstar(np.array(1.6))) == 0.0


def test_theta_closed_forms():
    assert R.profile_theta({"profile": ("log_tail", 0.3), "phi": ("exp",),
                            "weight": ("power", 0.25)}) == pytest.approx(0.4)
    assert R.profile_theta({"profile": ("log_tail", 0.3),
                            "phi": ("power", 2.0, 1.0),
                            "weight": ("power", 0.0)}) == 0.0
    ok = {"profile": ("log_tail", 0.3), "phi": ("exp",),
          "weight": ("power", 0.0)}
    assert R.check_profile("theta", ok, 0.3 * (1 + 4e-3)) is None
    assert R.check_profile("theta", ok, 0.3 * (1 + 6e-3)) is not None


def test_check_finite_flags_a_wrong_norm():
    ref = {"phi": ("power", 2.0, 1.0), "weight": ("harmonic",),
           "values": np.array([3.0, -4.0]), "measures": None}
    # S = 16 * 1 + 9 / 2 = 20.5
    assert R.check_finite("luxemburg", ref, math.sqrt(20.5)) is None
    assert R.check_finite("luxemburg", ref, math.sqrt(20.5) * 1.001)
    assert R.check_finite("amemiya", ref, 2.0 * math.sqrt(20.5)) is None


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([1.0] * 10) is None
    value, pct = run.tail(list(range(1, 101)))
    assert value == 90 and pct == 90.0


def test_tail_of_whole_passes_does_not_depend_on_their_number():
    pool = list(range(1, 41))
    one = run.tail(pool, window=40)
    assert one == (30, 75.0)
    assert run.tail(pool * 3, window=40) == one
    assert run.tail(pool * 2, window=80) == run.tail(pool * 5, window=80)
    assert run.tail(pool[:20], window=40) is None


def test_statistics_use_whole_passes_only():
    loop = run.Loop(pool=[None] * 3)
    loop.times = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 9.0]
    loop.pass_end = [1.0, 3.0, 6.0, 7.0, 9.0, 12.0, 21.0]
    loop.elapsed = 21.0
    assert run.whole_passes(loop) == (loop.times[:6], 12.0, 2)
    loop.times, loop.pass_end = loop.times[:2], loop.pass_end[:2]
    loop.elapsed = 3.0
    assert run.whole_passes(loop) == (loop.times, 3.0, 0)


def test_benchmark_json_matches_the_reported_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _, _ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == \
        [unit for _, unit, _ in run.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb"}
