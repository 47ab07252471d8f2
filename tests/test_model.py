import itertools

import numpy as np
import pytest

import bellbox as bb
from bellbox.errors import (
    BadNormalization,
    BadPermutation,
    BadSignPattern,
    DuplicateSetting,
    NegativeEntry,
    ScenarioMismatch,
    SchemaError,
    SettingOutOfRange,
    ShapeMismatch,
)

S3 = bb.Scenario(3, 3)
S2 = bb.Scenario(2, 2)


def deterministic_table(f_a, f_b, scenario=S3):
    """Brute-force oracle: build a deterministic behavior table by loops."""
    table = np.zeros(scenario.shape)
    for alpha in range(scenario.settings_a):
        for beta in range(scenario.settings_b):
            table[alpha, beta, f_a[alpha], f_b[beta]] = 1.0
    return table


class TestScenario:
    def test_defaults(self):
        assert S3.shape == (3, 3, 2, 2)
        assert S3.is_binary()

    def test_rejects_zero_settings(self):
        with pytest.raises(bb.BellBoxError):
            bb.Scenario(0, 3)

    def test_with_no_click(self):
        extended = S3.with_no_click()
        assert extended.shape == (3, 3, 3, 3)
        assert extended.outcomes_a.symbols == ("+", "-", "0")


class TestValidateBehavior:
    def test_uniform_is_valid(self):
        b = bb.validate_behavior(S3, np.full(S3.shape, 0.25))
        assert b.p.shape == S3.shape

    def test_negative_entry(self):
        table = np.full(S3.shape, 0.25)
        table[0, 0, 0, 0] = -0.1
        table[0, 0, 0, 1] = 0.6
        with pytest.raises(NegativeEntry):
            bb.validate_behavior(S3, table)

    def test_bad_normalization(self):
        table = np.full(S3.shape, 0.25)
        table[1, 1] = 0.225  # block sums to 0.9
        with pytest.raises(BadNormalization):
            bb.validate_behavior(S3, table)

    @pytest.mark.parametrize("cells", [(0, 0, 0, 0), Ellipsis])
    def test_nan_entries_rejected(self, cells):
        table = np.full(S3.shape, 0.25)
        table[cells] = np.nan
        with pytest.raises(BadNormalization):
            bb.validate_behavior(S3, table)

    def test_messages_print_plain_numbers(self):
        table = np.full((2, 2, 2, 2), 0.25)
        table[0, 0, 1, 1], table[0, 0, 0, 0] = -0.3, 0.8
        with pytest.raises(NegativeEntry) as negative:
            bb.validate_behavior(bb.Scenario(2, 2), table)
        assert str(negative.value) == "entry -0.3 at (0, 0, 1, 1) is negative"
        with pytest.raises(BadNormalization) as unnormalized:
            bb.validate_behavior(bb.Scenario(2, 2), np.full((2, 2, 2, 2), np.nan))
        assert str(unnormalized.value) == "block (0, 0) sums to nan (off by nan)"

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            bb.validate_behavior(S3, np.full((2, 2, 2, 2), 0.25))

    def test_entries_stored_unmodified(self):
        table = np.full(S3.shape, 0.25)
        table[0, 0] = [[0.25 + 4e-13, 0.25], [0.25, 0.25 - 4e-13]]
        b = bb.validate_behavior(S3, table)
        assert b.p[0, 0, 0, 0] == 0.25 + 4e-13

    def test_table_is_read_only(self):
        b = bb.uniform_behavior(S3)
        with pytest.raises(ValueError):
            b.p[0, 0, 0, 0] = 1.0


class TestSideMarginal:
    def test_uniform(self):
        b = bb.uniform_behavior(S3)
        np.testing.assert_allclose(bb.side_marginal(b, "A", 0, 2), [0.5, 0.5])

    def test_deterministic_all_plus(self):
        b = bb.validate_behavior(S3, deterministic_table((0, 0, 0), (1, 1, 1)))
        np.testing.assert_allclose(bb.side_marginal(b, "A", 1, 1), [1.0, 0.0])
        np.testing.assert_allclose(bb.side_marginal(b, "B", 1, 1), [0.0, 1.0])

    def test_singlet_marginals_maximally_mixed(self):
        # Oracle-verified in test_quantum: singlet marginals are (1/2, 1/2).
        plan = bb.MeasurementPlan((0.3, 1.1, 2.5), (0.0, 0.7, 1.9))
        b = bb.behavior_from_state(bb.SINGLET, plan)
        for side, own, other in (("A", 0, 1), ("A", 2, 0), ("B", 1, 2)):
            np.testing.assert_allclose(
                bb.side_marginal(b, side, own, other), [0.5, 0.5], atol=1e-12
            )

    def test_setting_out_of_range(self):
        with pytest.raises(SettingOutOfRange):
            bb.side_marginal(bb.uniform_behavior(S3), "A", 3, 0)


class TestNonsignallingDefect:
    def test_uniform_zero(self):
        assert bb.nonsignalling_defect(bb.uniform_behavior(S3)) == 0.0

    def test_a_reads_beta(self):
        # a is "+" exactly when beta = 0; b constant "+".
        table = np.zeros(S3.shape)
        for alpha in range(3):
            for beta in range(3):
                table[alpha, beta, 0 if beta == 0 else 1, 0] = 1.0
        b = bb.validate_behavior(S3, table)
        assert bb.nonsignalling_defect(b) == 1.0

    def test_quantum_behaviors_nonsignalling(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            plan = bb.MeasurementPlan(rng.random(3) * 7, rng.random(3) * 7)
            state = bb.SINGLET if rng.random() < 0.5 else bb.PHI_PLUS
            b = bb.behavior_from_state(state, plan)
            assert bb.nonsignalling_defect(b) <= 1e-12


class TestEvaluateFunctional:
    def test_wigner_literal_on_uniform(self):
        value = bb.evaluate_functional(bb.wigner_literal(0), bb.uniform_behavior(S3))
        assert value == pytest.approx(0.25, abs=1e-15)

    def test_wigner_literal_reaches_minus_one(self):
        # Direct table evaluation oracle: f_a = (+,-,-), f_b = (+,-,+) fires
        # only the subtracted (0,1,+,-) cell.
        table = deterministic_table((0, 1, 1), (0, 1, 0))
        oracle = (
            table[1, 2, 0, 1] + table[2, 0, 0, 1] - table[0, 1, 0, 1]
        )
        assert oracle == -1.0
        b = bb.validate_behavior(S3, table)
        assert bb.evaluate_functional(bb.wigner_literal(0), b) == -1.0

    def test_all_zero_functional(self):
        f = bb.BellFunctional(S3, np.zeros(S3.shape), 0.0, bb.Direction.AT_LEAST)
        assert bb.evaluate_functional(f, bb.uniform_behavior(S3)) == 0.0

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatch):
            bb.evaluate_functional(bb.wigner_literal(0), bb.uniform_behavior(S2))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        f = bb.wigner_chained(0, 1, 2)
        for _ in range(25):
            raw_p = rng.random(S3.shape)
            raw_p /= raw_p.sum(axis=(2, 3), keepdims=True)
            raw_q = rng.random(S3.shape)
            raw_q /= raw_q.sum(axis=(2, 3), keepdims=True)
            lam = rng.random()
            p = bb.validate_behavior(S3, raw_p)
            q = bb.validate_behavior(S3, raw_q)
            mix = bb.validate_behavior(S3, lam * raw_p + (1 - lam) * raw_q)
            expected = lam * bb.evaluate_functional(f, p) + (1 - lam) * bb.evaluate_functional(f, q)
            assert bb.evaluate_functional(f, mix) == pytest.approx(expected, abs=1e-12)


class TestWignerLiteral:
    def test_k0_cells(self):
        f = bb.wigner_literal(0)
        expected = np.zeros(S3.shape)
        expected[1, 2, 0, 1] = 1.0
        expected[2, 0, 0, 1] = 1.0
        expected[0, 1, 0, 1] = -1.0
        np.testing.assert_array_equal(f.coefficients, expected)
        assert f.reference_bound == 0.0
        assert f.direction is bb.Direction.AT_LEAST

    def test_k1_cells(self):
        f = bb.wigner_literal(1)
        expected = np.zeros(S3.shape)
        expected[2, 0, 0, 1] = 1.0
        expected[0, 1, 0, 1] = 1.0
        expected[1, 2, 0, 1] = -1.0
        np.testing.assert_array_equal(f.coefficients, expected)

    def test_k3_rejected(self):
        with pytest.raises(SettingOutOfRange):
            bb.wigner_literal(3)

    def test_each_shift_has_a_minus_one_vertex(self):
        # Brute force over all 64 deterministic strategies.
        for k in range(3):
            f = bb.wigner_literal(k)
            values = [
                bb.evaluate_functional(
                    f, bb.validate_behavior(S3, deterministic_table(fa, fb))
                )
                for fa in itertools.product(range(2), repeat=3)
                for fb in itertools.product(range(2), repeat=3)
            ]
            assert min(values) == -1.0


class TestWignerChained:
    def test_cells(self):
        f = bb.wigner_chained(1, 2, 0)
        expected = np.zeros(S3.shape)
        expected[1, 2, 0, 1] = 1.0
        expected[2, 0, 0, 1] = 1.0
        expected[1, 0, 0, 1] = -1.0
        np.testing.assert_array_equal(f.coefficients, expected)

    def test_uniform_value(self):
        value = bb.evaluate_functional(bb.wigner_chained(1, 2, 0), bb.uniform_behavior(S3))
        assert value == pytest.approx(0.25, abs=1e-15)

    def test_nonnegative_on_correlated_vertices(self):
        # Brute force: all 8 strategies with f_b = f_a, all index triples.
        for i, j, k in itertools.permutations(range(3), 3):
            f = bb.wigner_chained(i, j, k)
            for fa in itertools.product(range(2), repeat=3):
                b = bb.validate_behavior(S3, deterministic_table(fa, fa))
                assert bb.evaluate_functional(f, b) >= 0.0

    def test_duplicate_setting(self):
        with pytest.raises(DuplicateSetting):
            bb.wigner_chained(1, 1, 2)

    def test_out_of_range(self):
        with pytest.raises(SettingOutOfRange):
            bb.wigner_chained(0, 1, 3)


class TestChsh:
    def test_uniform_value_zero(self):
        value = bb.evaluate_functional(bb.chsh_functional(), bb.uniform_behavior(S2))
        assert value == 0.0

    def test_all_plus_strategy_reaches_two(self):
        # All correlators are +1, so S = 1 + 1 + 1 - 1 = 2.
        table = deterministic_table((0, 0), (0, 0), S2)
        b = bb.validate_behavior(S2, table)
        assert bb.evaluate_functional(bb.chsh_functional((1, 1, 1, -1)), b) == 2.0

    def test_all_positive_pattern_rejected(self):
        with pytest.raises(BadSignPattern):
            bb.chsh_functional((1, 1, 1, 1))

    def test_two_negatives_rejected(self):
        with pytest.raises(BadSignPattern):
            bb.chsh_functional((1, -1, 1, -1))

    def test_embeds_into_larger_scenarios(self):
        f = bb.chsh_functional(scenario=S3)
        assert f.scenario == S3
        assert np.all(f.coefficients[2, :] == 0.0)
        assert np.all(f.coefficients[:, 2] == 0.0)
        assert bb.evaluate_functional(f, bb.uniform_behavior(S3)) == 0.0


class TestRelabelOutputs:
    def test_identity(self):
        b = bb.uniform_behavior(S3)
        np.testing.assert_array_equal(bb.relabel_outputs(b, "A", (0, 1)).p, b.p)

    def test_swap_twice_is_identity(self):
        rng = np.random.default_rng(3)
        raw = rng.random(S3.shape)
        raw /= raw.sum(axis=(2, 3), keepdims=True)
        b = bb.validate_behavior(S3, raw)
        twice = bb.relabel_outputs(bb.relabel_outputs(b, "B", (1, 0)), "B", (1, 0))
        np.testing.assert_array_equal(twice.p, b.p)

    def test_singlet_equal_angles_swapped(self):
        # Singlet has p(+,+) = 0 at equal settings; after swapping B's
        # outputs the zero moves to p(+,-).
        plan = bb.MeasurementPlan((0.2, 1.0, 2.2), (0.2, 1.0, 2.2))
        swapped = bb.relabel_outputs(bb.behavior_from_state(bb.SINGLET, plan), "B", (1, 0))
        for setting in range(3):
            assert swapped.p[setting, setting, 0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_defect_invariant_under_relabel(self):
        rng = np.random.default_rng(9)
        raw = rng.random(S3.shape)
        raw /= raw.sum(axis=(2, 3), keepdims=True)
        b = bb.validate_behavior(S3, raw)
        swapped = bb.relabel_outputs(b, "A", (1, 0))
        assert bb.nonsignalling_defect(swapped) == pytest.approx(
            bb.nonsignalling_defect(b), abs=1e-15
        )

    def test_bad_permutation(self):
        with pytest.raises(BadPermutation):
            bb.relabel_outputs(bb.uniform_behavior(S3), "A", (0, 0))


class TestBehaviorJson:
    def test_round_trip(self, chained_target):
        data = bb.behavior_to_json_dict(chained_target)
        back = bb.behavior_from_json_dict(data)
        assert back.scenario == chained_target.scenario
        np.testing.assert_array_equal(back.p, chained_target.p)

    def test_unknown_field_rejected(self):
        data = bb.behavior_to_json_dict(bb.uniform_behavior(S3))
        data["comment"] = "nope"
        with pytest.raises(SchemaError):
            bb.behavior_from_json_dict(data)

    def test_missing_field_rejected(self):
        data = bb.behavior_to_json_dict(bb.uniform_behavior(S3))
        del data["p"]
        with pytest.raises(SchemaError):
            bb.behavior_from_json_dict(data)

    def test_unknown_alphabet_rejected(self):
        data = bb.behavior_to_json_dict(bb.uniform_behavior(S3))
        data["outcomes_a"] = ["up", "down"]
        with pytest.raises(SchemaError):
            bb.behavior_from_json_dict(data)

    def test_estimate_companions_tolerated_on_request(self):
        data = bb.behavior_to_json_dict(bb.uniform_behavior(S3))
        data["stderr"] = data["p"]
        back = bb.behavior_from_json_dict(data, ignore=("stderr", "totals"))
        np.testing.assert_array_equal(back.p, bb.uniform_behavior(S3).p)
