import math

import numpy as np
import pytest
from scipy.optimize import linprog

import bellbox as bb
from bellbox import lp
from bellbox.errors import (
    AlphabetMismatch,
    EfficiencyOutOfRange,
    SignallingTarget,
    ZeroCoincidence,
)
from bellbox.polytope import _vertex_data
from conftest import random_behavior, random_local_model

S2 = bb.Scenario(2, 2)
S3 = bb.Scenario(3, 3)

# Symmetric detection threshold of the maximally CHSH-violating two-qubit
# behavior; classic closed form.
CHSH_THRESHOLD = 2.0 * (math.sqrt(2.0) - 1.0)

# Regression constant for the 3-setting chained-Wigner target (singlet at
# 120/0/60 degrees, B swapped), strict mode, computed once by this LP +
# bisection at tol_eta=1e-4: 0.8164978..., consistent with sqrt(2/3).
CHAINED_THRESHOLD = 0.8165


# Weak-mode thresholds in closed form: CHSH at Tsirelson angles and the
# chained-Wigner target.
CHSH_WEAK_THRESHOLD = 2.0**-0.25
CHAINED_WEAK_THRESHOLD = math.sqrt(2.0 / 3.0)


def singlet4() -> bb.Behavior:
    plan = bb.MeasurementPlan.from_degrees((0.0, 45.0, 90.0, 135.0), (22.5, 67.5, 112.5, 157.5))
    return bb.behavior_from_state(bb.SINGLET, plan)


@pytest.fixture
def lp_calls(monkeypatch):
    """Every result lp.solve_standard_form returns while the test runs."""
    seen = []
    solve = lp.solve_standard_form

    def spy(*args, **kwargs):
        seen.append(solve(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(lp, "solve_standard_form", spy)
    return seen


def tsirelson_target() -> bb.Behavior:
    # Singlet angles reaching S = 2*sqrt(2) for the (+,+,+,-) pattern:
    # every correlator -cos(theta_a - theta_b) is +1/sqrt(2) except the
    # subtracted one.
    plan = bb.MeasurementPlan(
        (0.0, math.pi / 2.0), (-3.0 * math.pi / 4.0, 3.0 * math.pi / 4.0)
    )
    behavior = bb.behavior_from_state(bb.SINGLET, plan)
    s_value = bb.evaluate_functional(bb.chsh_functional(), behavior)
    assert s_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    return behavior


class TestApplyFairSampling:
    def test_eta_one_embeds(self, chained_target):
        q = bb.apply_fair_sampling(chained_target, 1.0, 1.0)
        assert q.scenario == S3.with_no_click()
        np.testing.assert_array_equal(q.p[:, :, :2, :2], chained_target.p)
        assert q.p[:, :, 2, :].sum() == 0.0
        assert q.p[:, :, :, 2].sum() == 0.0

    def test_eta_zero_all_null(self):
        q = bb.apply_fair_sampling(bb.uniform_behavior(S3), 0.0, 0.0)
        assert np.all(q.p[:, :, 2, 2] == 1.0)

    def test_uniform_half(self):
        q = bb.apply_fair_sampling(bb.uniform_behavior(S3), 0.5, 0.5)
        assert q.p[0, 0, 0, 0] == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_efficiency_range(self):
        with pytest.raises(EfficiencyOutOfRange):
            bb.apply_fair_sampling(bb.uniform_behavior(S3), 1.5, 0.5)

    def test_ternary_input_rejected(self):
        ternary = bb.uniform_behavior(S3.with_no_click())
        with pytest.raises(AlphabetMismatch):
            bb.apply_fair_sampling(ternary, 0.5, 0.5)


class TestPostSelect:
    def test_round_trip(self):
        rng = np.random.default_rng(14)
        for eta in (0.1, 0.5, 1.0):
            for _ in range(20):
                behavior = random_behavior(rng, S2)
                selected, rates = bb.post_select(
                    bb.apply_fair_sampling(behavior, eta, eta)
                )
                assert np.abs(selected.p - behavior.p).max() <= 1e-12
                np.testing.assert_allclose(rates, eta * eta, atol=1e-12)

    def test_zero_coincidence(self):
        q = bb.apply_fair_sampling(bb.uniform_behavior(S3), 0.0, 0.0)
        with pytest.raises(ZeroCoincidence) as info:
            bb.post_select(q)
        assert (info.value.alpha, info.value.beta) == (0, 0)


class TestConstructLoopholeModel:
    def test_local_target_full_efficiency(self):
        rng = np.random.default_rng(19)
        target = bb.model_behavior(
            random_local_model(rng, bb.enumerate_strategies(S3)), S3
        )
        model = bb.construct_loophole_model(target, 1.0, "strict")
        assert model is not None
        # No mass may sit on no-click outcomes at eta = 1.
        q = bb.model_behavior(model, S3.with_no_click())
        assert q.p[:, :, 2, :].max() <= 1e-9
        assert q.p[:, :, :, 2].max() <= 1e-9

    def test_chained_target_half_efficiency(self, chained_target):
        model = bb.construct_loophole_model(chained_target, 0.5, "strict")
        assert model is not None
        q = bb.model_behavior(model, S3.with_no_click())
        selected, rates = bb.post_select(q)
        assert np.abs(selected.p - chained_target.p).max() <= 1e-8
        np.testing.assert_allclose(rates, 0.25, atol=1e-9)
        clicks_a = q.p[:, :, :2, :].sum(axis=(2, 3))
        clicks_b = q.p[:, :, :, :2].sum(axis=(2, 3))
        assert np.abs(clicks_a - 0.5).max() <= 1e-9
        assert np.abs(clicks_b - 0.5).max() <= 1e-9

    def test_chained_target_near_one_infeasible(self, chained_target):
        assert bb.construct_loophole_model(chained_target, 0.999, "strict") is None

    def test_weak_mode_is_no_harder(self, chained_target):
        assert bb.construct_loophole_model(chained_target, 0.5, "weak") is not None

    def test_signalling_target_rejected(self):
        rng = np.random.default_rng(44)
        with pytest.raises(SignallingTarget):
            bb.construct_loophole_model(random_behavior(rng, S2), 0.5)

    def test_ternary_target_rejected(self):
        with pytest.raises(AlphabetMismatch):
            bb.construct_loophole_model(
                bb.uniform_behavior(S2.with_no_click()), 0.5
            )


class TestCriticalEfficiency:
    def test_local_target_threshold_one(self):
        result = bb.critical_efficiency(bb.uniform_behavior(S2))
        assert result.eta_star == 1.0
        assert result.bisection_trace == ((0.0, True), (1.0, True))
        assert result.feasible_model is not None

    def test_chsh_threshold(self):
        result = bb.critical_efficiency(tsirelson_target(), mode="strict", tol_eta=1e-3)
        assert result.eta_star == pytest.approx(CHSH_THRESHOLD, abs=1e-3)

    def test_chained_threshold_regression(self, chained_target):
        result = bb.critical_efficiency(chained_target, mode="strict", tol_eta=1e-3)
        assert 0.0 < result.eta_star < 1.0
        assert result.eta_star == pytest.approx(CHAINED_THRESHOLD, abs=1e-3)

    def test_trace_is_monotone(self, chained_target):
        result = bb.critical_efficiency(chained_target, mode="strict", tol_eta=1e-2)
        feasible = [eta for eta, ok in result.bisection_trace if ok]
        infeasible = [eta for eta, ok in result.bisection_trace if not ok]
        assert max(feasible) < min(infeasible)
        assert max(feasible) <= result.eta_star <= min(infeasible)

    def test_feasible_model_reproduces_target(self, chained_target):
        result = bb.critical_efficiency(chained_target, mode="strict", tol_eta=5e-2)
        eta = max(eta for eta, ok in result.bisection_trace if ok)
        q = bb.model_behavior(result.feasible_model, S3.with_no_click())
        selected, rates = bb.post_select(q)
        assert np.abs(selected.p - chained_target.p).max() <= 1e-8
        np.testing.assert_allclose(rates, eta * eta, atol=1e-9)

    def test_tol_eta_validation(self, chained_target):
        with pytest.raises(ValueError):
            bb.critical_efficiency(chained_target, tol_eta=0.5)
        with pytest.raises(ValueError):
            bb.critical_efficiency(chained_target, tol_eta=0.0)

    @pytest.mark.parametrize("mode", ["strict", "weak"])
    @pytest.mark.parametrize("tol_eta", [1e-10, 1e-300])
    def test_tol_eta_below_range(self, mode, tol_eta):
        with pytest.raises(ValueError, match=r"outside \[1e-9, 0.1\]"):
            bb.critical_efficiency(tsirelson_target(), mode=mode, tol_eta=tol_eta)

    @pytest.mark.parametrize("mode", ["strict", "weak"])
    def test_finest_tol_eta_keeps_the_bracket(self, mode):
        result = bb.critical_efficiency(tsirelson_target(), mode=mode, tol_eta=1e-9)
        lo = max(eta for eta, ok in result.bisection_trace if ok)
        hi = min(eta for eta, ok in result.bisection_trace if not ok)
        assert 0.0 < hi - lo <= 1e-9
        assert lo < result.eta_star < hi

    def test_threshold_json(self):
        result = bb.critical_efficiency(bb.uniform_behavior(S2))
        data = bb.threshold_to_json_dict(result)
        assert data == {"eta_star": 1.0, "mode": "strict", "trace": [[0.0, True], [1.0, True]]}


def assert_weak_model(result: bb.ThresholdResult, target: bb.Behavior) -> None:
    """The weak model sits at eta*: it post-selects to the target at rate eta*^2."""
    assert result.feasible_model.weights.min() > 1e-12
    q = bb.model_behavior(result.feasible_model, target.scenario.with_no_click())
    selected, rates = bb.post_select(q)
    assert np.abs(selected.p - target.p).max() <= 1e-9
    np.testing.assert_allclose(rates, result.eta_star**2, atol=1e-9)


class TestWeakThreshold:
    @pytest.mark.parametrize(
        "name, expected", [("chsh", CHSH_WEAK_THRESHOLD), ("chained", CHAINED_WEAK_THRESHOLD)]
    )
    def test_closed_forms(self, chained_target, name, expected):
        target = tsirelson_target() if name == "chsh" else chained_target
        result = bb.critical_efficiency(target, mode="weak", tol_eta=1e-3)
        assert result.eta_star == pytest.approx(expected, abs=1e-7)
        assert_weak_model(result, target)

    def test_singlet4_matches_highs(self):
        target = singlet4()
        result = bb.critical_efficiency(target, mode="weak")
        # The same LP, min 1'r s.t. M_coinc r = p, r >= 0, by HiGHS.
        _, matrix = _vertex_data(bb.Scenario(4, 4).with_no_click())
        coincidence = matrix.reshape(-1, 4, 4, 3, 3)[:, :, :, :2, :2].reshape(matrix.shape[0], -1).T
        reference = linprog(
            np.ones(matrix.shape[0]), A_eq=coincidence, b_eq=target.p.ravel(),
            bounds=(0, None), method="highs",
        )
        assert reference.status == 0
        assert result.eta_star == pytest.approx(math.sqrt(1.0 / reference.fun), abs=1e-7)
        assert_weak_model(result, target)

    @pytest.mark.parametrize("tol_eta", [1e-3, 1e-2])
    def test_bracket_ends_are_certified(self, chained_target, tol_eta):
        for target in (tsirelson_target(), chained_target):
            result = bb.critical_efficiency(target, mode="weak", tol_eta=tol_eta)
            (zero, one, (lo, low_ok), (hi, high_ok)) = result.bisection_trace
            assert (zero, one, low_ok, high_ok) == ((0.0, True), (1.0, False), True, False)
            assert 0.0 < hi - lo <= tol_eta
            assert lo < result.eta_star < hi
            assert result.eta_star == pytest.approx(0.5 * (lo + hi), abs=1e-15)
            assert bb.construct_loophole_model(target, lo, "weak") is not None
            assert bb.construct_loophole_model(target, hi, "weak") is None

    def test_one_lp_per_search(self, lp_calls, chained_target):
        bb.critical_efficiency(chained_target, mode="weak")
        assert len(lp_calls) == 1
        bb.critical_efficiency(bb.uniform_behavior(S2), mode="weak")
        assert len(lp_calls) == 2

    def test_local_target(self):
        result = bb.critical_efficiency(bb.uniform_behavior(S3), mode="weak")
        assert result.eta_star == 1.0
        assert result.bisection_trace == ((0.0, True), (1.0, True))
        assert_weak_model(result, bb.uniform_behavior(S3))

    def test_target_checks(self):
        with pytest.raises(AlphabetMismatch):
            bb.critical_efficiency(bb.uniform_behavior(S2.with_no_click()), mode="weak")
        with pytest.raises(SignallingTarget):
            bb.critical_efficiency(random_behavior(np.random.default_rng(44), S2), mode="weak")


def test_strict_trace_keeps_its_probes_without_the_eta_zero_lp(lp_calls, chained_target):
    # The trace bisection gave before eta=0 stopped costing an LP.
    result = bb.critical_efficiency(chained_target, mode="strict", tol_eta=1e-2)
    assert result.bisection_trace == (
        (0.0, True), (1.0, False), (0.5, True), (0.75, True), (0.875, False),
        (0.8125, True), (0.84375, False), (0.828125, False), (0.8203125, False),
    )
    assert result.eta_star == 0.81640625
    assert len(lp_calls) == len(result.bisection_trace) - 1


def test_strict_model_falls_back_to_never_click(monkeypatch, chained_target):
    # With every probe infeasible, the model left is the never-click
    # strategy that certifies eta = 0.
    monkeypatch.setattr(bb.detection, "_loophole_lp", lambda *args: None)
    result = bb.critical_efficiency(chained_target, mode="strict", tol_eta=0.1)
    assert result.bisection_trace == (
        (0.0, True), (1.0, False), (0.5, False), (0.25, False), (0.125, False), (0.0625, False),
    )
    (never_click,) = result.feasible_model.strategies
    assert (never_click.f_a, never_click.f_b) == ((2, 2, 2), (2, 2, 2))
    np.testing.assert_array_equal(result.feasible_model.weights, [1.0])
