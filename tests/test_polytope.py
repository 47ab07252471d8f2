import gc
import itertools
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.optimize import linprog

import bellbox as bb
from bellbox.errors import AlphabetMismatch, SchemaError, SignallingInput, SizeLimit
from bellbox.polytope import _locality_lp, _strategies, _table_price
from conftest import decode_local_model, random_behavior, random_local_model, strategy_behavior, vertex_data

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
        b = strategy_behavior(bb.LocalStrategy((0, 0, 0), (1, 1, 1)), S3)
        assert np.all(b.p[:, :, 0, 1] == 1.0)
        assert b.p.sum() == 9.0

    def test_every_strategy_is_nonsignalling(self):
        for strategy in bb.enumerate_strategies(S2):
            assert bb.nonsignalling_defect(strategy_behavior(strategy, S2)) == 0.0

    def test_one_entry_per_block(self):
        b = strategy_behavior(bb.LocalStrategy((0, 1), (1, 0)), S2)
        assert np.all(b.p.sum(axis=(2, 3)) == 1.0)
        assert np.all((b.p == 0.0) | (b.p == 1.0))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            strategy_behavior(bb.LocalStrategy((0, 2, 0), (0, 0, 0)), S3)
        with pytest.raises(AlphabetMismatch):
            strategy_behavior(bb.LocalStrategy((0, 0), (0, 0)), S3)


class TestModelBehavior:
    def test_single_strategy(self):
        strategy = bb.LocalStrategy((0, 1, 0), (1, 1, 0))
        model = bb.LocalModel((strategy,), np.array([1.0]))
        expected = np.zeros(S3.shape)
        for alpha, beta in itertools.product(range(3), repeat=2):
            expected[alpha, beta, strategy.f_a[alpha], strategy.f_b[beta]] = 1.0
        np.testing.assert_array_equal(bb.model_behavior(model, S3).p, expected)

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
        with pytest.raises(SchemaError, match="^2 weights for 1 strategies$"):
            bb.LocalModel((strategy,), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("weights", [[float("nan")], [0.5, float("nan")]])
    def test_nan_weights_rejected(self, weights):
        strategy = bb.LocalStrategy((0, 0, 0), (0, 0, 0))
        with pytest.raises(SchemaError):
            bb.LocalModel((strategy,) * len(weights), np.array(weights))

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
        b = strategy_behavior(bounds.argmin, S3)
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
            bb.evaluate_functional(f, strategy_behavior(s, S3))
            for s in bb.enumerate_strategies(S3)
        ]
        bounds = bb.functional_vertex_bounds(f)
        assert bounds.min == pytest.approx(min(values), abs=1e-12)
        assert bounds.max == pytest.approx(max(values), abs=1e-12)


VALUE_SCENARIOS = [bb.Scenario(n, n) for n in (2, 3, 4, 5)] + [
    bb.Scenario(n, n).with_no_click() for n in (2, 3, 4)
] + [bb.Scenario(2, 3), bb.Scenario(3, 2).with_no_click()]


@pytest.mark.parametrize(
    "scenario", VALUE_SCENARIOS, ids=lambda s: f"{s.settings_a}x{s.settings_b}-{s.outcomes_a.size}"
)
def test_strategy_values_match_the_vertex_matrix(scenario):
    # The side-factor product against the oracle's vertex matrix, stacked from
    # each strategy's own behavior table; the strategies decoded from their
    # indices must be the oracle's, in its order, and the cached LP rows the
    # oracle's exactly: the cells for membership, the cells less the uniform
    # behavior for visibility.
    strategies, matrix = vertex_data(scenario)
    assert _strategies(scenario, range(bb.strategy_count(scenario))) == tuple(strategies)
    assert bb.enumerate_strategies(scenario) == strategies
    cells, _, u = _locality_lp(scenario, False)
    np.testing.assert_array_equal(cells, matrix.T)
    shifted, _, _ = _locality_lp(scenario, True)
    np.testing.assert_array_equal(shifted, matrix.T - u[:, None])
    rng = np.random.default_rng(17)
    for table in (rng.normal(size=scenario.shape), rng.integers(-3, 4, size=scenario.shape)):
        values = _table_price(scenario)(table.ravel())
        np.testing.assert_allclose(values, matrix @ table.ravel(), rtol=0.0, atol=1e-12)


def test_rows_are_written_in_place():
    # The binary 6x6 membership rows (144 x 4096) are written into the one
    # array that holds them, so building them peaks near its size, not at
    # twice it.  The cache is bypassed, so the build is fresh.
    tracemalloc.start()
    try:
        rows, _, _ = _locality_lp.__wrapped__(bb.Scenario(6, 6), False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * rows.nbytes


def test_vertex_bounds_of_a_binary_9x10_functional():
    # 2^19 strategies, of which only the argmin and argmax are decoded.  Their
    # own behaviors must attain min and max, and those must be the extrema
    # of an independent oracle: for each f_a, B's best outcome per setting is
    # chosen setting by setting.
    scenario = bb.Scenario(9, 10)
    coeffs = np.random.default_rng(910).normal(size=scenario.shape)
    f = bb.BellFunctional(scenario, coeffs, 0.0, bb.Direction.AT_LEAST)
    bounds = bb.functional_vertex_bounds(f)
    for strategy, value in ((bounds.argmin, bounds.min), (bounds.argmax, bounds.max)):
        reached = bb.evaluate_functional(f, strategy_behavior(strategy, scenario))
        assert reached == pytest.approx(value, rel=0.0, abs=1e-12)
    f_a = np.array(list(itertools.product(range(2), repeat=9)))
    per_b = coeffs[np.arange(9), :, f_a, :].sum(axis=1)  # (f_a, beta, b)
    assert bounds.min == pytest.approx(per_b.min(axis=2).sum(axis=1).min(), rel=0.0, abs=1e-12)
    assert bounds.max == pytest.approx(per_b.max(axis=2).sum(axis=1).max(), rel=0.0, abs=1e-12)


def test_decoded_strategies_are_shared_but_not_kept():
    # Models that name the same strategy share one decoded object, and no
    # cache keeps it once the last model holding it is gone.
    strategies = (bb.LocalStrategy((0, 1, 0), (1, 1, 0)), bb.LocalStrategy((1, 0, 0), (0, 1, 1)))
    behavior = bb.model_behavior(bb.LocalModel(strategies, np.array([0.25, 0.75])), S3)
    first, second = bb.classify(behavior).decomposition, bb.classify(behavior).decomposition
    assert set(first.strategies) == set(strategies)
    assert all(x is y for x, y in zip(first.strategies, second.strategies))
    decoded = weakref.ref(first.strategies[0])
    del first, second
    gc.collect()
    assert decoded() is None


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


def noisy_singlet(rng: np.random.Generator, n: int, visibility: float) -> bb.Behavior:
    """The singlet at random analyzer angles, mixed with uniform noise."""
    plan = bb.MeasurementPlan.from_degrees(rng.uniform(0, 360, n), rng.uniform(0, 360, n))
    p = visibility * bb.behavior_from_state(bb.SINGLET, plan).p + (1.0 - visibility) / 4.0
    return bb.validate_behavior(bb.Scenario(n, n), p)


class TestLocalVisibility:
    def test_local_behavior_gives_one(self):
        rng = np.random.default_rng(41)
        strategies = bb.enumerate_strategies(S3)
        for _ in range(5):
            behavior = bb.model_behavior(random_local_model(rng, strategies), S3)
            assert bb.local_visibility(behavior) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("scenario", [S2, S3])
    def test_local_behaviors_give_exactly_one(self, scenario):
        # With the LP's v clipped to [0, 1], 5 of these 2x2 and 24 of these
        # 3x3 mixtures read 1 - 1e-16 to 1 - 3e-15.
        rng = np.random.default_rng(3)
        strategies = bb.enumerate_strategies(scenario)
        for _ in range(60):
            behavior = bb.model_behavior(random_local_model(rng, strategies), scenario)
            assert bb.local_visibility(behavior) == 1.0

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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_noisy_singlets_match_highs(self, n):
        # HiGHS solves max v s.t. v (p - u) + u = A x, 1'x = 1 implied, v <= 1
        # on the oracle's vertex matrix: the v-column LP, not the gauge LP.
        rng = np.random.default_rng(100 + n)
        _, matrix = vertex_data(bb.Scenario(n, n))
        for _ in range(6):
            b = noisy_singlet(rng, n, rng.uniform(0.55, 1.0))
            u = bb.uniform_behavior(b.scenario).p.ravel()
            reference = linprog(
                np.append(np.zeros(len(matrix)), -1.0),
                A_eq=np.hstack([matrix.T, (u - b.p.ravel())[:, None]]), b_eq=u,
                bounds=[(0, None)] * len(matrix) + [(0, 1)], method="highs",
            )
            assert reference.status == 0
            assert bb.local_visibility(b) == pytest.approx(reference.x[-1], abs=1e-9)

    @pytest.mark.parametrize("tol", [0.01, 0.1])
    def test_estimated_singlets_get_a_visibility_or_signalling_input(self, tol):
        # Tallies of 10^5 runs per setting pair are signalling by a few 1e-3,
        # and the gauge LP's residual may then exceed tol: the input is not
        # nonsignalling within tol.  Otherwise the estimate's visibility is
        # never 0 and not below the exact one by more than the sampling noise
        # (tol lets it read high).
        rng = np.random.default_rng(5)
        answered = 0
        for n in (2, 3, 4):
            for _ in range(8):
                exact = noisy_singlet(rng, n, rng.uniform(0.7, 1.0))
                counts = [rng.multinomial(10**5, block.ravel()) for block in exact.p.reshape(n * n, 4)]
                estimate = bb.validate_behavior(exact.scenario, np.reshape(counts, exact.p.shape) / 10**5)
                try:
                    v = bb.local_visibility(estimate, tol=tol)
                except SignallingInput:
                    continue
                answered += 1
                assert 0.0 < v <= 1.0
                assert v >= bb.local_visibility(exact) - 0.01
        assert answered


class TestLocalModelJson:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        model = random_local_model(rng, bb.enumerate_strategies(S3))
        data = bb.local_model_to_json_dict(model, S3)
        assert data["weights"] == model.weights.tolist()
        back = decode_local_model(data, S3)
        np.testing.assert_array_equal(
            bb.model_behavior(back, S3).p, bb.model_behavior(model, S3).p
        )

    @pytest.mark.parametrize(
        "scenario",
        [S2, S3, S3T, bb.Scenario(2, 3, bb.Alphabet.PLUS_MINUS, bb.Alphabet.PLUS_MINUS_NULL)],
        ids=["binary-2x2", "binary-3x3", "ternary-3x3", "mixed-2x3"],
    )
    def test_written_document_schema(self, scenario):
        # The file holds exactly the documented fields, with the JSON types a reader expects.
        rng = np.random.default_rng(scenario.settings_a * 10 + scenario.settings_b)
        model = random_local_model(rng, bb.enumerate_strategies(scenario))
        data = bb.local_model_to_json_dict(model, scenario)
        assert set(data) == {"strategies", "weights"}
        assert all(type(w) is float for w in data["weights"])
        assert len(data["strategies"]) == len(data["weights"])
        for entry, strategy in zip(data["strategies"], model.strategies):
            assert set(entry) == {"fa", "fb"}
            assert len(entry["fa"]) == scenario.settings_a and len(entry["fb"]) == scenario.settings_b
            assert set(entry["fa"]) <= set(scenario.outcomes_a.symbols)
            assert set(entry["fb"]) <= set(scenario.outcomes_b.symbols)
            assert (tuple(entry["fa"]), tuple(entry["fb"])) == strategy.symbols(scenario)
        assert json.loads(json.dumps(data)) == data

    def test_ternary_symbols(self):
        model = bb.LocalModel(
            (bb.LocalStrategy((0, 1, 2), (2, 2, 2)),), np.array([1.0])
        )
        data = bb.local_model_to_json_dict(model, S3T)
        assert data["strategies"][0]["fa"] == ["+", "-", "0"]
        back = decode_local_model(data, S3T)
        assert back.strategies[0] == model.strategies[0]
