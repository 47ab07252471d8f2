import itertools

import numpy as np
import pytest

import bellbox as bb
from bellbox.errors import AlphabetMismatch, SchemaError, SignallingInput, SizeLimit
from conftest import random_behavior, random_local_model

S3 = bb.Scenario(3, 3)
S2 = bb.Scenario(2, 2)
S3T = S3.with_no_click()


class TestEnumeration:
    def test_counts(self):
        assert len(bb.enumerate_strategies(S3)) == 64  # 2^3 * 2^3
        assert len(bb.enumerate_strategies(S2)) == 16  # 2^2 * 2^2
        assert len(bb.enumerate_strategies(S3T)) == 729  # 3^3 * 3^3
        assert bb.strategy_count(S3T) == 729

    def test_order_is_lexicographic_fa_then_fb(self):
        strategies = bb.enumerate_strategies(S2)
        assert strategies[0] == bb.LocalStrategy((0, 0), (0, 0))
        assert strategies[1] == bb.LocalStrategy((0, 0), (0, 1))
        assert strategies[4] == bb.LocalStrategy((0, 1), (0, 0))
        assert strategies[-1] == bb.LocalStrategy((1, 1), (1, 1))

    def test_size_limit(self, monkeypatch):
        # One cap for every entry point, checked before a strategy (let alone
        # a vertex matrix) is built: 2^20 binary 10x10 strategies and 3^14
        # three-outcome 7x7 ones are both over 10**6.
        def no_strategies(*args):
            raise AssertionError("strategies enumerated past the cap")

        monkeypatch.setattr(bb.polytope, "LocalStrategy", no_strategies)
        assert bb.polytope.STRATEGY_CAP == 10**6
        s10 = bb.Scenario(10, 10)
        zero = bb.BellFunctional(s10, np.zeros(s10.shape), 0.0, bb.Direction.AT_LEAST)
        uniform10 = bb.uniform_behavior(s10)
        uniform7 = bb.uniform_behavior(bb.Scenario(7, 7))
        calls = [
            lambda: bb.enumerate_strategies(s10),
            lambda: bb.functional_vertex_bounds(zero),
            lambda: bb.classify(uniform10),
            lambda: bb.local_visibility(uniform10),
        ]
        for mode in ("strict", "weak"):
            calls.append(lambda mode=mode: bb.construct_loophole_model(uniform7, 0.5, mode))
            calls.append(lambda mode=mode: bb.critical_efficiency(uniform7, mode))
        for call in calls:
            with pytest.raises(SizeLimit, match=r"(1048576|4782969) strategies exceed the cap of 1000000"):
                call()


class TestStrategyBehavior:
    def test_constant_strategy(self):
        b = bb.strategy_behavior(bb.LocalStrategy((0, 0, 0), (1, 1, 1)), S3)
        assert np.all(b.p[:, :, 0, 1] == 1.0)
        assert b.p.sum() == 9.0

    def test_every_strategy_is_nonsignalling(self):
        for strategy in bb.enumerate_strategies(S2):
            assert bb.nonsignalling_defect(bb.strategy_behavior(strategy, S2)) == 0.0

    def test_one_entry_per_block(self):
        b = bb.strategy_behavior(bb.LocalStrategy((0, 1), (1, 0)), S2)
        assert np.all(b.p.sum(axis=(2, 3)) == 1.0)
        assert np.all((b.p == 0.0) | (b.p == 1.0))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            bb.strategy_behavior(bb.LocalStrategy((0, 2, 0), (0, 0, 0)), S3)
        with pytest.raises(AlphabetMismatch):
            bb.strategy_behavior(bb.LocalStrategy((0, 0), (0, 0)), S3)


class TestModelBehavior:
    def test_single_strategy(self):
        strategy = bb.LocalStrategy((0, 1, 0), (1, 1, 0))
        model = bb.LocalModel((strategy,), np.array([1.0]))
        np.testing.assert_array_equal(
            bb.model_behavior(model, S3).p, bb.strategy_behavior(strategy, S3).p
        )

    def test_uniform_mixture_gives_uniform_behavior(self):
        strategies = bb.enumerate_strategies(S3)
        model = bb.LocalModel(tuple(strategies), np.full(64, 1.0 / 64.0))
        np.testing.assert_allclose(
            bb.model_behavior(model, S3).p, bb.uniform_behavior(S3).p, atol=1e-15
        )

    def test_half_half_perfect_correlation(self):
        model = bb.LocalModel(
            (
                bb.LocalStrategy((0, 0, 0), (0, 0, 0)),
                bb.LocalStrategy((1, 1, 1), (1, 1, 1)),
            ),
            np.array([0.5, 0.5]),
        )
        b = bb.model_behavior(model, S3)
        assert np.all(b.p[:, :, 0, 0] == 0.5)
        assert np.all(b.p[:, :, 1, 1] == 0.5)
        assert np.all(b.p[:, :, 0, 1] == 0.0)

    def test_weight_invariants_enforced(self):
        strategy = bb.LocalStrategy((0, 0, 0), (0, 0, 0))
        with pytest.raises(SchemaError):
            bb.LocalModel((strategy,), np.array([0.9]))
        with pytest.raises(SchemaError):
            bb.LocalModel((strategy, strategy), np.array([1.5, -0.5]))

    def test_weight_messages_print_plain_numbers(self):
        strategy = bb.LocalStrategy((0, 0, 0), (0, 0, 0))
        with pytest.raises(SchemaError, match=r"^weights sum to 0\.5, expected 1$"):
            bb.LocalModel((strategy,), np.array([0.5]))
        with pytest.raises(SchemaError, match=r"^negative weight -0\.5$"):
            bb.LocalModel((strategy, strategy), np.array([1.5, -0.5]))


class TestVertexBounds:
    def test_wigner_literal_min(self):
        bounds = bb.functional_vertex_bounds(bb.wigner_literal(0))
        assert bounds.min == -1.0
        # The reported argmin really achieves the minimum.
        b = bb.strategy_behavior(bounds.argmin, S3)
        assert bb.evaluate_functional(bb.wigner_literal(0), b) == -1.0

    def test_chsh_max(self):
        bounds = bb.functional_vertex_bounds(bb.chsh_functional())
        assert bounds.max == 2.0
        assert bounds.min == -2.0

    def test_all_zero(self):
        f = bb.BellFunctional(S3, np.zeros(S3.shape), 0.0, bb.Direction.AT_LEAST)
        bounds = bb.functional_vertex_bounds(f)
        assert (bounds.min, bounds.max) == (0.0, 0.0)

    def test_matches_plain_enumeration(self):
        # Independent brute force for a random functional.
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=S3.shape)
        f = bb.BellFunctional(S3, coeffs, 0.0, bb.Direction.AT_LEAST)
        values = [
            bb.evaluate_functional(f, bb.strategy_behavior(s, S3))
            for s in bb.enumerate_strategies(S3)
        ]
        bounds = bb.functional_vertex_bounds(f)
        assert bounds.min == pytest.approx(min(values), abs=1e-12)
        assert bounds.max == pytest.approx(max(values), abs=1e-12)


class TestLocalDecomposition:
    def test_explicit_models_round_trip(self):
        rng = np.random.default_rng(17)
        strategies = bb.enumerate_strategies(S3)
        for _ in range(50):
            model = random_local_model(rng, strategies)
            behavior = bb.model_behavior(model, S3)
            recovered = bb.classify(behavior).decomposition
            assert recovered is not None
            reproduced = bb.model_behavior(recovered, S3)
            assert np.abs(reproduced.p - behavior.p).max() <= 1e-8

    def test_uniform_is_local(self):
        assert bb.classify(bb.uniform_behavior(S3)).decomposition is not None

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_no_roundoff_weights(self, size):
        # Sparse mixtures leave degenerate bases, whose basic weights of
        # 1e-34 to 2e-16 are roundoff of an exact zero.
        scenario = bb.Scenario(size, size)
        rng = np.random.default_rng(11 + size)
        strategies = bb.enumerate_strategies(scenario)
        for _ in range(20):
            behavior = bb.model_behavior(random_local_model(rng, strategies), scenario)
            model = bb.classify(behavior).decomposition
            assert model.weights.min() > 1e-12
            reproduced = bb.model_behavior(model, scenario)
            assert np.abs(reproduced.p - behavior.p).max() <= bb.polytope.DEFAULT_TOL

    def test_chained_target_is_not_local(self, chained_target):
        # Cross-check: the chained Wigner value is -1/8, below the local 0.
        value = bb.evaluate_functional(bb.wigner_chained(1, 2, 0), chained_target)
        assert value == pytest.approx(-0.125, abs=1e-12)
        assert bb.classify(chained_target).decomposition is None


class TestClassify:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, 0.2])
    def test_tol_outside_range_rejected(self, tol):
        uniform = bb.uniform_behavior(S3)
        with pytest.raises(ValueError, match="outside"):
            bb.classify(uniform, tol=tol)
        with pytest.raises(ValueError, match="outside"):
            bb.local_visibility(uniform, tol=tol)

    @pytest.mark.parametrize("tol", [1e-9, 0.01, 0.05, 0.1])
    def test_tol_in_range_accepted(self, tol):
        uniform = bb.uniform_behavior(S3)
        assert bb.classify(uniform, tol=tol).kind is bb.ClassificationKind.LOCAL
        assert bb.local_visibility(uniform, tol=tol) == 1.0

    def test_uniform_local(self):
        verdict = bb.classify(bb.uniform_behavior(S3))
        assert verdict.kind is bb.ClassificationKind.LOCAL
        assert verdict.decomposition is not None
        assert verdict.witness is None

    def test_pr_box_weakly_nonlocal(self, pr_box):
        assert bb.nonsignalling_defect(pr_box) == 0.0
        verdict = bb.classify(pr_box)
        assert verdict.kind is bb.ClassificationKind.WEAKLY_NONLOCAL
        assert verdict.witness is not None and verdict.decomposition is None

    def test_signalling_copy(self):
        table = np.zeros(S2.shape)
        for alpha in range(2):
            for beta in range(2):
                table[alpha, beta, beta, 0] = 1.0  # a copies beta, b constant
        verdict = bb.classify(bb.validate_behavior(S2, table))
        assert verdict.kind is bb.ClassificationKind.SIGNALLING
        assert verdict.defect == 1.0
        assert verdict.witness is None and verdict.decomposition is None

    def test_witness_soundness(self, pr_box, chained_target):
        for behavior in (pr_box, chained_target):
            verdict = bb.classify(behavior)
            witness = verdict.witness
            bounds = bb.functional_vertex_bounds(witness)
            assert witness.reference_bound == bounds.min
            value = bb.evaluate_functional(witness, behavior)
            assert value < bounds.min - 1e-9
            assert np.abs(witness.coefficients).max() == pytest.approx(1.0)

    def test_classify_invariant_under_relabel(self, pr_box, chained_target):
        rng = np.random.default_rng(23)
        samples = [
            pr_box,
            chained_target,
            bb.uniform_behavior(S3),
            random_behavior(rng, S2),  # generic block tables are signalling
        ]
        for behavior in samples:
            kind = bb.classify(behavior).kind
            n_a = behavior.scenario.outcomes_a.size
            swapped = bb.relabel_outputs(behavior, "A", tuple(reversed(range(n_a))))
            assert bb.classify(swapped).kind is kind

    def test_single_setting_scenario_never_weakly_nonlocal(self):
        rng = np.random.default_rng(31)
        s1 = bb.Scenario(1, 1)
        for _ in range(20):
            verdict = bb.classify(random_behavior(rng, s1))
            assert verdict.kind is bb.ClassificationKind.LOCAL


class TestLocalVisibility:
    def test_local_behavior_gives_one(self):
        rng = np.random.default_rng(41)
        strategies = bb.enumerate_strategies(S3)
        for _ in range(5):
            behavior = bb.model_behavior(random_local_model(rng, strategies), S3)
            assert bb.local_visibility(behavior) == pytest.approx(1.0, abs=1e-9)

    def test_pr_box_half(self, pr_box):
        # The CHSH facet pins the PR box: 4v <= 2.
        assert bb.local_visibility(pr_box) == pytest.approx(0.5, abs=1e-9)

    def test_chained_target_strictly_inside(self, chained_target):
        v = bb.local_visibility(chained_target)
        assert 0.0 < v < 1.0
        # At visibility v the mixed behavior is local, slightly above it is not.
        uniform = bb.uniform_behavior(S3)
        mixed = bb.validate_behavior(S3, v * chained_target.p + (1 - v) * uniform.p)
        assert bb.classify(mixed).kind is bb.ClassificationKind.LOCAL
        above = min(v + 1e-4, 1.0)
        mixed_above = bb.validate_behavior(
            S3, above * chained_target.p + (1 - above) * uniform.p
        )
        assert bb.classify(mixed_above).kind is bb.ClassificationKind.WEAKLY_NONLOCAL

    def test_monotone_under_mixing_toward_noise(self, pr_box, chained_target):
        for behavior in (pr_box, chained_target):
            uniform = bb.uniform_behavior(behavior.scenario)
            base = bb.local_visibility(behavior)
            for v in (0.2, 0.6, 0.9):
                mixed = bb.validate_behavior(
                    behavior.scenario, v * behavior.p + (1 - v) * uniform.p
                )
                assert bb.local_visibility(mixed) >= base - 1e-9

    def test_signalling_input_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(SignallingInput):
            bb.local_visibility(random_behavior(rng, S2))


class TestLocalModelJson:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        model = random_local_model(rng, bb.enumerate_strategies(S3))
        data = bb.local_model_to_json_dict(model, S3)
        back = bb.local_model_from_json_dict(data, S3)
        np.testing.assert_array_equal(
            bb.model_behavior(back, S3).p, bb.model_behavior(model, S3).p
        )

    def test_bad_weights_rejected_on_load(self):
        data = {"strategies": [{"fa": ["+", "+", "+"], "fb": ["+", "+", "+"]}], "weights": [0.7]}
        with pytest.raises(SchemaError):
            bb.local_model_from_json_dict(data, S3)

    @pytest.mark.parametrize("weights", [[float("nan")], [0.5, float("nan")]])
    def test_nan_weights_rejected(self, weights):
        strategy = {"fa": ["+", "+", "+"], "fb": ["+", "+", "+"]}
        data = {"strategies": [strategy] * len(weights), "weights": weights}
        with pytest.raises(SchemaError):
            bb.local_model_from_json_dict(data, S3)

    def test_unknown_field_rejected(self):
        data = {"strategies": [], "weights": [], "note": "x"}
        with pytest.raises(SchemaError):
            bb.local_model_from_json_dict(data, S3)

    def test_ternary_symbols(self):
        model = bb.LocalModel(
            (bb.LocalStrategy((0, 1, 2), (2, 2, 2)),), np.array([1.0])
        )
        data = bb.local_model_to_json_dict(model, S3T)
        assert data["strategies"][0]["fa"] == ["+", "-", "0"]
        back = bb.local_model_from_json_dict(data, S3T)
        assert back.strategies[0] == model.strategies[0]
