import math
from dataclasses import replace

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
from conftest import random_behavior, random_local_model, vertex_data

S2 = bb.Scenario(2, 2)
S3 = bb.Scenario(3, 3)

# Strict thresholds in closed form: the symmetric detection threshold of the
# maximally CHSH-violating two-qubit behavior, 2/(1+sqrt 2) (Garg & Mermin,
# PRD 35:3831, 1987), and sqrt(2/3) for the 3-setting chained-Wigner target
# (singlet at 120/0/60 degrees, B swapped), the same as its weak threshold.
CHSH_THRESHOLD = 2.0 * (math.sqrt(2.0) - 1.0)
CHAINED_THRESHOLD = math.sqrt(2.0 / 3.0)


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

    def test_binary_input_unchanged(self):
        behavior = random_behavior(np.random.default_rng(15), S3)
        selected, rates = bb.post_select(behavior)
        assert selected.scenario == S3
        np.testing.assert_allclose(selected.p, behavior.p, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(rates, 1.0, rtol=0.0, atol=1e-12)

    def test_mixed_alphabets(self):
        # A misses (three symbols), B always clicks (two symbols).
        behavior = random_behavior(np.random.default_rng(16), S2)
        q = bb.apply_fair_sampling(behavior, 0.6, 1.0)
        mixed = bb.Scenario(2, 2, bb.Alphabet.PLUS_MINUS_NULL, bb.Alphabet.PLUS_MINUS)
        selected, rates = bb.post_select(bb.Behavior(mixed, q.p[:, :, :, :2]))
        assert selected.scenario == S2
        np.testing.assert_allclose(selected.p, behavior.p, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(rates, 0.6, rtol=0.0, atol=1e-12)

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

    def test_strict_model_need_not_be_a_fair_sampling_one(self):
        # A strict model matches the coincidences and each side's click rate,
        # not the outcomes a side reports when only it clicks: at eta = 0.85 a
        # strict model exists, yet the fair-sampled table is nonlocal.
        turn = math.radians(30.0)
        state = bb.parse_state_spec(f"amps:{math.cos(turn)!r},0,0,0,0,0,{math.sin(turn)!r},0")
        target = bb.behavior_from_state(state, bb.MeasurementPlan.from_degrees((339.8, 45.7), (311.3, 21.4)))
        assert bb.critical_efficiency(target, mode="strict").eta_star == pytest.approx(0.8909, abs=1e-4)
        model = bb.construct_loophole_model(target, 0.85, "strict")
        assert model is not None
        q = bb.model_behavior(model, S2.with_no_click())
        np.testing.assert_allclose(bb.post_select(q)[1], 0.85**2, atol=1e-9)
        np.testing.assert_allclose(q.p[:, :, :2, :].sum(axis=(2, 3)), 0.85, atol=1e-9)
        fair = bb.apply_fair_sampling(target, 0.85, 0.85)
        assert bb.classify(fair).kind is bb.ClassificationKind.WEAKLY_NONLOCAL
        assert np.abs(q.p - fair.p).max() > 1e-3

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
        assert result.eta_star == pytest.approx(CHSH_THRESHOLD, abs=1e-9)

    def test_chained_threshold_regression(self, chained_target):
        result = bb.critical_efficiency(chained_target, mode="strict", tol_eta=1e-3)
        assert 0.0 < result.eta_star < 1.0
        assert result.eta_star == pytest.approx(CHAINED_THRESHOLD, abs=1e-9)

    def test_trace_is_monotone(self, chained_target):
        result = bb.critical_efficiency(chained_target, mode="strict", tol_eta=1e-2)
        feasible = [eta for eta, ok in result.bisection_trace if ok]
        infeasible = [eta for eta, ok in result.bisection_trace if not ok]
        assert max(feasible) < min(infeasible)
        assert max(feasible) <= result.eta_star <= min(infeasible)

    def test_feasible_model_reproduces_target(self, chained_target):
        # The strict model sits at eta*: coincidence rate eta*^2 for every
        # setting pair and click rate eta* for every setting on each side.
        for target in (tsirelson_target(), chained_target):
            result = bb.critical_efficiency(target, mode="strict", tol_eta=5e-2)
            eta = result.eta_star
            q = bb.model_behavior(result.feasible_model, target.scenario.with_no_click())
            selected, rates = bb.post_select(q)
            assert np.abs(selected.p - target.p).max() <= 1e-8
            np.testing.assert_allclose(rates, eta * eta, atol=1e-9)
            np.testing.assert_allclose(q.p[:, :, :2, :].sum(axis=(2, 3)), eta, atol=1e-9)
            np.testing.assert_allclose(q.p[:, :, :, :2].sum(axis=(2, 3)), eta, atol=1e-9)

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
        _, matrix = vertex_data(bb.Scenario(4, 4).with_no_click())
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
        with pytest.raises(ValueError, match="unknown constraint mode 'bogus'"):
            bb.critical_efficiency(bb.uniform_behavior(S2), mode="bogus")


def click_rows(strategies, sa: int, sb: int) -> np.ndarray:
    """C_a over C_b, by a loop over the strategies."""
    rows = [[s.f_a[x] != 2 for s in strategies] for x in range(sa)]
    rows += [[s.f_b[y] != 2 for s in strategies] for y in range(sb)]
    return np.array(rows, dtype=float)


def highs_strict_feasible(target: bb.Behavior, eta: float) -> bool:
    """The strict loophole LP at eta by HiGHS."""
    strategies, matrix = vertex_data(target.scenario.with_no_click())
    sa, sb = target.scenario.settings_a, target.scenario.settings_b
    rows = [matrix.reshape(-1, sa, sb, 3, 3)[:, :, :, :2, :2].reshape(len(strategies), -1).T]
    rows += [click_rows(strategies, sa, sb), np.ones((1, len(strategies)))]
    rhs = [eta * eta * target.p.ravel(), np.full(sa + sb, eta), np.ones(1)]
    reference = linprog(
        np.zeros(len(strategies)), A_eq=np.vstack(rows),
        b_eq=np.concatenate(rhs), bounds=(0, None), method="highs",
    )
    assert reference.status in (0, 2)
    return reference.status == 0


@pytest.mark.parametrize("settings", [(2, 2), (2, 3), (3, 2)])
def test_click_rows_match_the_strategies(settings):
    scenario = bb.Scenario(*settings)
    strict, strict_price = bb.detection._loophole_lp(scenario)
    strategies, matrix = vertex_data(scenario.with_no_click())
    cells = np.prod(settings) * 4
    weak, weak_price = strict[:cells], strict_price  # the weak LP's rows and price
    np.testing.assert_array_equal(strict[cells:], click_rows(strategies, *settings))
    # The click-click rows are the vertex matrix's click-click columns, and
    # the weak rows are exactly those.
    coincidence = matrix.reshape(-1, *settings, 3, 3)[:, :, :, :2, :2].reshape(len(strategies), -1).T
    np.testing.assert_array_equal(strict[:cells], coincidence)
    np.testing.assert_array_equal(weak, coincidence)
    y = np.random.default_rng(3).normal(size=len(strict))
    np.testing.assert_allclose(strict_price(y), y @ strict, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(weak_price(y[:cells]), y[:cells] @ weak, rtol=0.0, atol=1e-12)
    # Never-click, the padding strategy, decodes last.
    never = bb.polytope._strategies(scenario.with_no_click(), [len(strategies) - 1])
    assert never == (bb.LocalStrategy((2,) * settings[0], (2,) * settings[1]),)


def test_both_modes_share_one_row_set(monkeypatch):
    # A weak and then a strict search cache one row set: the weak LP's
    # matrix is a view of its click-click block, the strict LPs' the set.
    target = tsirelson_target()
    matrices = []
    solve = lp.solve_standard_form

    def spy(a_eq, *args, **kwargs):
        matrices.append(a_eq)
        return solve(a_eq, *args, **kwargs)

    monkeypatch.setattr(lp, "solve_standard_form", spy)
    bb.detection._loophole_lp.cache_clear()
    bb.critical_efficiency(target, mode="weak")
    bb.critical_efficiency(target, mode="strict")
    assert bb.detection._loophole_lp.cache_info().currsize == 1
    rows, _ = bb.detection._loophole_lp(target.scenario)
    weak, weak_again, *strict = matrices  # the strict search starts from the weak LP
    for matrix in (weak, weak_again):
        assert matrix.shape == (target.p.size, rows.shape[1])
        assert np.shares_memory(matrix, rows)
        np.testing.assert_array_equal(matrix, rows[: target.p.size])
    assert strict and all(matrix is rows for matrix in strict)


class TestStrictThreshold:
    def test_lp_counts(self, lp_calls, chained_target):
        # The weak LP gives the first upper bound.  At CHSH's weak eta* the
        # strict LP is infeasible, and its Farkas cut lands on eta*; the
        # chained target's strict eta* is its weak one.
        result = bb.critical_efficiency(tsirelson_target(), mode="strict")
        assert [r.status for r in lp_calls] == [lp.OPTIMAL, lp.INFEASIBLE, lp.OPTIMAL]
        assert result.bisection_trace[:2] == ((0.0, True), (1.0, False))
        lp_calls.clear()
        bb.critical_efficiency(chained_target, mode="strict")
        assert [r.status for r in lp_calls] == [lp.OPTIMAL, lp.OPTIMAL]
        lp_calls.clear()
        assert bb.critical_efficiency(bb.uniform_behavior(S2)).bisection_trace == ((0.0, True), (1.0, True))
        assert len(lp_calls) == 1

    @pytest.mark.parametrize("start, statuses", [(0.84, "ooo"), (0.9, "oiioo")])
    def test_dual_cuts_reach_eta_star_from_a_looser_bound(self, monkeypatch, lp_calls, chained_target,
                                                          start, statuses):
        # From the weak eta* the chained target stops at once.  Started
        # higher, LP(0.84) is feasible with u w(u) = 1.058 > 1, so its duals
        # make the cut (from 0.9, two Farkas cuts come first).
        weak = bb.detection._weak_threshold
        monkeypatch.setattr(
            bb.detection, "_weak_threshold", lambda *args: replace(weak(*args), eta_star=start)
        )
        result = bb.critical_efficiency(chained_target, mode="strict")
        assert "".join(r.status[0] for r in lp_calls) == statuses
        assert result.eta_star == pytest.approx(CHAINED_THRESHOLD, abs=1e-9)

    @pytest.mark.parametrize("cut", ["none", "to zero"])
    def test_a_cut_leaving_no_positive_eta_raises(self, monkeypatch, chained_target, cut):
        # Bisection fell back to eta* = 0 and the never-click strategy when
        # every probe failed.  But eta* > 0 for every nonsignalling target
        # (one-cell and one-sided strategies reach any small eta), so a cut
        # that excludes nothing, or everything down to eta = 0, is lost
        # accuracy and raises.
        solve = lp.solve_standard_form
        coincidence_rows = chained_target.p.size

        def infeasible_past_the_weak_lp(a, b, *args, **kwargs):
            if a.shape[0] == coincidence_rows:
                return solve(a, b, *args, **kwargs)
            farkas = np.zeros(a.shape[0])
            if cut == "to zero":
                farkas[0] = 1.0  # y'b = eta * p[0]: positive at every eta > 0
            return lp.SimplexResult(lp.INFEASIBLE, None, None, 1.0, farkas, (0, 0))

        monkeypatch.setattr(lp, "solve_standard_form", infeasible_past_the_weak_lp)
        with pytest.raises(ArithmeticError, match="cut"):
            bb.critical_efficiency(chained_target, mode="strict")

    def test_feasibility_flips_once_on_a_grid(self, chained_target):
        # In either mode the feasible efficiencies form the interval [0, eta*].
        grid = np.linspace(0.0, 1.0, 41)
        for mode in ("strict", "weak"):
            for target in (tsirelson_target(), chained_target):
                eta_star = bb.critical_efficiency(target, mode=mode).eta_star
                feasible = [bb.construct_loophole_model(target, eta, mode) is not None for eta in grid]
                assert feasible == list(grid <= eta_star)

    def test_singlet4_probes_against_highs(self):
        # The strict probe on the 4x4 singlet at eta = 0.5 once ran into the
        # simplex pivot limit; its eta* is 0.8469.
        target = singlet4()
        model = bb.construct_loophole_model(target, 0.5, "strict")
        assert model is not None
        q = bb.model_behavior(model, target.scenario.with_no_click())
        selected, rates = bb.post_select(q)
        assert np.abs(selected.p - target.p).max() <= 1e-9
        np.testing.assert_allclose(rates, 0.25, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(q.p[:, :, :2, :].sum(axis=(2, 3)), 0.5, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(q.p[:, :, :, :2].sum(axis=(2, 3)), 0.5, rtol=0.0, atol=1e-9)
        assert highs_strict_feasible(target, 0.5)
        assert bb.construct_loophole_model(target, 0.9, "strict") is None
        assert not highs_strict_feasible(target, 0.9)

    def test_turned_singlet4_against_highs(self):
        # The 4x4 singlet turned by 37 degrees: its strict search rebuilds the
        # basis inverse on a small pivot (lp._SMALL_PIVOT) 9 times, and without
        # the rebuild it raises ArithmeticError.  Turning both sides changes the
        # behavior only by rounding, so eta* is the unturned singlet's.
        plan = bb.MeasurementPlan.from_degrees((37.0, 82.0, 127.0, 172.0), (59.5, 104.5, 149.5, 194.5))
        target = bb.behavior_from_state(bb.SINGLET, plan)
        result = bb.critical_efficiency(target, mode="strict")
        assert result.eta_star == pytest.approx(0.8468985317829479, abs=1e-9)
        (_, _, (lo, _), (hi, _)) = result.bisection_trace
        assert highs_strict_feasible(target, lo)
        assert not highs_strict_feasible(target, hi)

    def test_noisy_singlets_against_highs(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            # Chained-Bell angles (CHSH for n = 2), each analyzer turned by up
            # to 10 degrees, at visibility 0.85 to 1.
            n = 2 + trial % 2
            angles = 90.0 / n * np.arange(2 * n).reshape(n, 2).T + rng.uniform(-10.0, 10.0, (2, n))
            plan = bb.MeasurementPlan.from_degrees(*angles)
            v = rng.uniform(0.85, 1.0)
            target = bb.validate_behavior(
                bb.Scenario(n, n), v * bb.behavior_from_state(bb.SINGLET, plan).p + (1.0 - v) / 4.0
            )
            weak = bb.critical_efficiency(target, mode="weak")
            strict = bb.critical_efficiency(target, mode="strict")
            assert strict.eta_star <= weak.eta_star < 1.0
            (_, _, (lo, _), (hi, _)) = strict.bisection_trace
            assert lo < strict.eta_star < hi
            assert bb.construct_loophole_model(target, lo, "strict") is not None
            assert bb.construct_loophole_model(target, hi, "strict") is None
            assert highs_strict_feasible(target, lo)
            assert not highs_strict_feasible(target, hi)
