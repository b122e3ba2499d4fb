"""End-to-end acceptance checks.

Each test covers one acceptance criterion, enforces its runtime budget, and
emits a single PASS/FAIL line (collected again in the terminal summary).
Tolerances are stated inline next to each assertion.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import olk
from olk import cli

from conftest import record_acceptance


@contextmanager
def criterion(number, label, budget_s):
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        elapsed = time.perf_counter() - start
        record_acceptance(number, label, False,
                          f"failed after {elapsed:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed <= budget_s
    detail = info["detail"]
    sep = ", " if detail else ""
    record_acceptance(number, label, ok,
                      f"{detail}{sep}{elapsed:.1f}s of {budget_s:.0f}s budget")
    assert ok, f"runtime {elapsed:.1f}s exceeded the {budget_s:.0f}s budget"


THREE_FAMILIES = ("power", "exp", "log")


def _analytic_phi(rng, families=THREE_FAMILIES):
    pick = families[int(rng.integers(0, len(families)))]
    if pick == "power":
        r = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        return olk.PowerOrlicz(r, float(rng.integers(4, 33)) / 16.0)
    if pick == "exp":
        return olk.ExpOrlicz()
    return olk.LogOrlicz()


def test_dual_modular_formula_matches_descent_oracle():
    rng = np.random.default_rng(2024_01)
    with criterion(1, "dual modular formula vs descent oracle", 60.0) as info:
        checked, worst = 0, 0.0
        while checked < 200:
            n = int(rng.integers(1, 7))
            values = rng.integers(0, 129, size=n) / 16.0       # [0, 8]
            wts = np.sort(rng.integers(2, 65, size=n))[::-1] / 16.0
            h = olk.FiniteSequence(tuple(float(v) for v in values))
            if not h.rearranged().entries:
                continue
            w = olk.ExplicitSeqWeight(tuple(float(x) for x in wts))
            phi = _analytic_phi(rng)
            formula = olk.P_modular(phi, w, h)
            if not math.isfinite(formula) or formula == 0.0:
                continue
            direct = olk.P_modular_oracle(phi, w, h)
            rel = abs(direct - formula) / abs(formula)
            worst = max(worst, rel)
            assert rel <= 1e-8, (h, w, type(phi).__name__, formula, direct)
            checked += 1
        info["detail"] = f"{checked} instances, worst rel {worst:.2e}"


def test_norm_sandwich_and_unit_ball():
    rng = np.random.default_rng(2024_02)
    with criterion(2, "norm sandwich and unit ball", 30.0) as info:
        checked = 0
        while checked < 500:
            phi = _analytic_phi(rng)
            if int(rng.integers(0, 2)):
                n = int(rng.integers(1, 6))
                atoms = tuple(
                    (float(rng.integers(1, 97)) / 16.0,
                     float(rng.integers(1, 33)) / 16.0)
                    for _ in range(n))
                f = olk.StepFunction(atoms)
                lengths = rng.integers(4, 33, size=2) / 16.0
                levels = np.sort(rng.integers(4, 49, size=2))[::-1] / 16.0
                w = olk.StepWeight((
                    (float(lengths[0]), float(levels[0])),
                    (math.inf, float(levels[1]))))
            else:
                n = int(rng.integers(1, 7))
                f = olk.FiniteSequence(tuple(
                    float(rng.integers(1, 97)) / 16.0 for _ in range(n)))
                w = olk.HarmonicSeqWeight() if int(rng.integers(0, 2)) \
                    else olk.ConstantSeqWeight(
                        float(rng.integers(4, 33)) / 16.0)
            lux = olk.luxemburg_norm(phi, w, f)
            if lux == 0.0:
                continue
            orl = olk.orlicz_norm_amemiya(phi, w, f)
            assert lux <= orl * (1.0 + 1e-9)
            assert orl <= 2.0 * lux * (1.0 + 1e-9)
            assert olk.rho_modular(phi, w, f.scaled(1.0 / lux)) <= 1.0 + 1e-8
            checked += 1
        info["detail"] = f"{checked} instances"


def test_amemiya_value_constant_on_k_interval_and_dual_sup_oracle():
    rng = np.random.default_rng(2024_03)
    with criterion(3, "Amemiya value on the K-interval and dual-sup oracle",
                   120.0) as info:
        k_checked, worst_k = 0, 0.0
        attempts = 0
        while k_checked < 60 and attempts < 400:
            attempts += 1
            phi = _analytic_phi(rng)
            if int(rng.integers(0, 2)):
                n = int(rng.integers(1, 6))
                f = olk.StepFunction(tuple(
                    (float(rng.integers(1, 97)) / 16.0,
                     float(rng.integers(1, 33)) / 16.0)
                    for _ in range(n)))
                w = olk.StepWeight(((1.0, 2.0), (math.inf, 0.5)))
            else:
                n = int(rng.integers(1, 7))
                f = olk.FiniteSequence(tuple(
                    float(rng.integers(1, 97)) / 16.0 for _ in range(n)))
                w = olk.HarmonicSeqWeight()
            try:
                ki = olk.k_interval(phi, w, f)
            except olk.ConvergenceError:
                continue
            orl = olk.orlicz_norm_amemiya(phi, w, f)
            for k in (ki.lower, 0.5 * (ki.lower + ki.upper), ki.upper):
                val = (1.0 + olk.rho_modular(phi, w, f.scaled(k))) / k
                rel = abs(val - orl) / orl
                worst_k = max(worst_k, rel)
                assert rel <= 1e-8, (f, type(phi).__name__, k, val, orl)
            k_checked += 1
        assert k_checked >= 60

        sup_checked, worst_sup = 0, 0.0
        while sup_checked < 20:
            phi = _analytic_phi(rng)
            n = int(rng.integers(1, 9))
            f = olk.FiniteSequence(tuple(
                float(rng.integers(1, 97)) / 16.0 for _ in range(n)))
            w = (olk.HarmonicSeqWeight() if int(rng.integers(0, 2))
                 else olk.PowerSeqWeight(0.5))
            orl = olk.orlicz_norm_amemiya(phi, w, f)
            sup = olk.orlicz_norm_dual_sup_oracle(phi, w, f)
            rel = abs(orl - sup) / orl
            worst_sup = max(worst_sup, rel)
            assert rel <= 1e-8, (f, type(phi).__name__, orl, sup)
            sup_checked += 1
        info["detail"] = (f"{k_checked} K-interval checks "
                          f"(worst rel {worst_k:.1e}), "
                          f"{sup_checked} dual-sup checks "
                          f"(worst rel {worst_sup:.1e})")


def test_young_equality_witness_identities():
    rng = np.random.default_rng(2024_04)
    with criterion(4, "Young equality witness identities", 30.0) as info:
        checked, worst = 0, 0.0
        while checked < 200:
            phi = _analytic_phi(rng)
            if int(rng.integers(0, 2)):
                n = int(rng.integers(1, 6))
                h = olk.StepFunction(tuple(
                    (float(rng.integers(1, 97)) / 16.0,
                     float(rng.integers(1, 33)) / 16.0)
                    for _ in range(n)))
                w = olk.StepWeight(((2.0, 2.0), (math.inf, 0.5)))
            else:
                n = int(rng.integers(1, 6))
                h = olk.FiniteSequence(tuple(
                    float(rng.integers(1, 97)) / 16.0 for _ in range(n)))
                w = olk.HarmonicSeqWeight()
            try:
                wit = olk.young_witness(phi, w, h)
            except (olk.ConvergenceError, olk.DomainError):
                continue
            scale1 = max(1.0, abs(wit.level_modular))
            rel1 = abs(wit.young_modular - wit.level_modular) / scale1
            scale2 = max(1.0, abs(wit.companion_direct))
            rel2 = abs(wit.companion_rearranged
                       - wit.companion_direct) / scale2
            worst = max(worst, rel1, rel2)
            assert rel1 <= 1e-9, (h, type(phi).__name__)
            assert rel2 <= 1e-9, (h, type(phi).__name__)
            checked += 1
        info["detail"] = f"{checked} instances, worst rel {worst:.2e}"


def test_closed_form_norm_anchors():
    with criterion(5, "closed-form norm anchors", 1.0) as info:
        phi = olk.PowerOrlicz(2.0, 0.5)
        w = olk.StepWeight(((math.inf, 1.0),))
        f = olk.StepFunction(((1.0, 1.0),))
        lux = olk.luxemburg_norm(phi, w, f)
        orl = olk.orlicz_norm_amemiya(phi, w, f)
        assert abs(lux - 1.0 / math.sqrt(2.0)) <= 1e-9
        assert abs(orl - math.sqrt(2.0)) <= 1e-9
        info["detail"] = (f"gauge {lux:.12f} vs 2^-1/2, "
                          f"Amemiya {orl:.12f} vs 2^1/2")


def test_norm_gap_witness_with_singular_part():
    rng = np.random.default_rng(2024_06)
    with criterion(6, "norm-gap witness with a singular part", 10.0) as info:
        phi = olk.PowerOrlicz(2.0, 0.5)
        w = olk.StepWeight(((10.0, 1.0),))
        report = olk.non_m_ideal_witness(phi, w, 0.5, 1.0)
        assert abs(report.extras["predual_norm"] - 0.5) <= 1e-9
        assert abs(report.extras["p_value"] - 0.25) <= 1e-9
        assert abs(report.orlicz_side_norm - 0.8090170) <= 1e-6
        assert abs(report.gap - 0.1909830) <= 1e-6
        # strictness: the dual modular of h sits strictly below the room the
        # singular part leaves, and the norms genuinely fail to add
        assert report.extras["p_value"] < 0.5
        assert report.orlicz_side_norm < report.additive_sum
        randomized = 0
        while randomized < 50:
            s = float(rng.uniform(0.02, 0.95))
            u = float(rng.uniform(0.05, 4.0))
            try:
                rep = olk.non_m_ideal_witness(phi, w, s, u)
            except olk.InfeasibleParameterError:
                continue
            assert rep.gap > 0.0, (s, u)
            randomized += 1
        info["detail"] = (f"anchor gap {report.gap:.7f}, "
                          f"{randomized} random (s, u) pairs all gapped")


def test_functional_norm_additivity_on_the_gauge_side():
    rng = np.random.default_rng(2024_07)
    with criterion(7, "functional norm additivity and one-sided bound",
                   30.0) as info:
        phi = olk.PowerOrlicz(2.0, 0.5)
        w = olk.StepWeight(((math.inf, 1.0),))
        checked = 0
        equality_cases = 0
        while checked < 100:
            n = int(rng.integers(1, 4))
            h = olk.StepFunction(tuple(
                (float(rng.integers(1, 49)) / 16.0,
                 float(rng.integers(1, 17)) / 16.0)
                for _ in range(n)))
            s = 0.0 if checked % 5 == 0 else float(rng.integers(1, 15)) / 16.0
            lux_side = olk.functional_norm_luxemburg_side(phi, w, h, s)
            parts = olk.dual_orlicz_norm(phi.conjugate(), w, h) + s
            assert lux_side == parts  # additive by construction, exact
            orlicz_side = olk.functional_norm_orlicz_side(phi, w, h, s)
            other_sum = olk.dual_luxemburg_norm(phi.conjugate(), w, h) + s
            assert orlicz_side <= other_sum * (1.0 + 1e-8)
            if s == 0.0:
                assert abs(orlicz_side - other_sum) <= 1e-8 * max(
                    1.0, other_sum)
                equality_cases += 1
            else:
                assert orlicz_side < other_sum - 1e-8 * other_sum
            checked += 1
        info["detail"] = (f"{checked} pairs, {equality_cases} exact-equality "
                          f"cases at zero singular part")


def test_scaling_threshold_and_truncation_remainders():
    with criterion(8, "scaling threshold and truncation remainders",
                   60.0) as info:
        phi = olk.ExpOrlicz()
        w = olk.StepWeight(((math.inf, 1.0),))
        f = olk.LogTailProfile(1.0)
        th = olk.theta(phi, w, f)
        assert abs(th - 1.0) <= 0.05
        gauge, amemiya = [], []
        for n in (2, 4, 8, 16, 32):
            rem = olk.truncation_remainder(f, n)
            gauge.append(olk.luxemburg_norm(phi, w, rem))
            amemiya.append(olk.orlicz_norm_amemiya(phi, w, rem))
        for seq in (gauge, amemiya):
            # monotone decrease toward the threshold, always from above
            assert all(a > b for a, b in zip(seq, seq[1:])), seq
            assert all(v > th for v in seq), (seq, th)
        # finite-support elements sit inside the order-continuous part
        rng = np.random.default_rng(2024_08)
        finite_zero = 0
        for _ in range(10):
            n = int(rng.integers(1, 6))
            g = olk.StepFunction(tuple(
                (float(rng.integers(1, 97)) / 16.0,
                 float(rng.integers(1, 33)) / 16.0)
                for _ in range(n)))
            assert olk.theta(phi, w, g) == 0.0
            finite_zero += 1
        band = olk.BandRestriction(olk.PowerTailProfile(1.0, 1.0), 0.25, 4.0)
        assert olk.theta(phi, w, band) == 0.0
        info["detail"] = (f"theta {th:.4f} in 1.00+-0.05, remainders "
                          f"{gauge[0]:.3f}->{gauge[-1]:.3f} (gauge) and "
                          f"{amemiya[0]:.3f}->{amemiya[-1]:.3f} (Amemiya) "
                          f"decreasing above theta, {finite_zero + 1} finite "
                          f"elements at exactly zero")


def test_verify_report_is_deterministic(tmp_path):
    with criterion(9, "byte-identical verify reports", 600.0) as info:
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli.main(["verify", "--seed", "42",
                         "--out", str(first)]) == 0
        assert cli.main(["verify", "--seed", "42",
                         "--out", str(second)]) == 0
        b1, b2 = first.read_bytes(), second.read_bytes()
        assert b1 == b2
        payload = json.loads(b1)
        assert payload["violations"] == 0
        info["detail"] = (f"{len(payload['rows'])} rows, "
                          f"{len(b1)} bytes, identical across runs")
