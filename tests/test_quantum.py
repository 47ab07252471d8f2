import math

import numpy as np
import pytest

import bellbox as bb
from bellbox.errors import PlanMismatch


def dm_joint_probability(state: bb.PureTwoQubitState, theta_a, theta_b, a, b):
    """Density-matrix oracle: p = Tr(rho * Pi_a(theta_a) x Pi_b(theta_b)).

    Projectors are built from the observable cos(theta) Z + sin(theta) X
    directly, independent of the eigenvector route used by the library.
    """
    psi = state.amplitudes().reshape(4, 1)
    rho = psi @ psi.conj().T

    def projector(theta, outcome):
        z = np.array([[1.0, 0.0], [0.0, -1.0]])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        observable = math.cos(theta) * z + math.sin(theta) * x
        sign = 1.0 if outcome == 0 else -1.0
        return (np.eye(2) + sign * observable) / 2.0

    joint = np.kron(projector(theta_a, a), projector(theta_b, b))
    return float(np.real(np.trace(rho @ joint)))


class TestStates:
    def test_presets_are_normalized(self):
        for state in (bb.SINGLET, bb.PHI_PLUS):
            norm = sum(abs(c) ** 2 for c in state.amplitudes().ravel())
            assert norm == pytest.approx(1.0, abs=1e-15)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            bb.PureTwoQubitState(1.0, 1.0, 0.0, 0.0)

    def test_unnormalized_message(self):
        with pytest.raises(ValueError) as error:
            bb.PureTwoQubitState(1, 1, 0, 0)
        assert str(error.value) == "state norm^2 is 2.0, expected 1 within 1e-12"

    def test_parse_state_spec(self):
        assert bb.parse_state_spec("singlet") == bb.SINGLET
        assert bb.parse_state_spec("phi_plus") == bb.PHI_PLUS
        s = bb.parse_state_spec("amps:0,0,0.70710678118654752,0,-0.70710678118654752,0,0,0")
        assert s.c01 == pytest.approx(math.sqrt(0.5))
        with pytest.raises(ValueError):
            bb.parse_state_spec("bell")
        with pytest.raises(ValueError):
            bb.parse_state_spec("amps:1,2,3")


class TestBehaviorFromState:
    def test_matches_density_matrix_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            state = bb.PureTwoQubitState(*amps)
            plan = bb.MeasurementPlan(rng.random(2) * 7 - 3, rng.random(3) * 7 - 3)
            behavior = bb.behavior_from_state(state, plan)
            for alpha, theta_a in enumerate(plan.angles_a):
                for beta, theta_b in enumerate(plan.angles_b):
                    for a in range(2):
                        for b in range(2):
                            oracle = dm_joint_probability(state, theta_a, theta_b, a, b)
                            assert behavior.p[alpha, beta, a, b] == pytest.approx(
                                oracle, abs=1e-12
                            )

    def test_singlet_perfect_anticorrelation(self):
        plan = bb.MeasurementPlan((0.4, 1.3, 2.9), (0.4, 1.3, 2.9))
        behavior = bb.behavior_from_state(bb.SINGLET, plan)
        for setting in range(3):
            assert behavior.p[setting, setting, 0, 0] == pytest.approx(0.0, abs=1e-12)
            assert behavior.p[setting, setting, 1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_singlet_opposite_angles(self):
        # Angle difference pi flips the anticorrelation: p(+,+) = 1/2,
        # which the density-matrix oracle confirms.
        plan = bb.MeasurementPlan((0.0,), (math.pi,))
        behavior = bb.behavior_from_state(bb.SINGLET, plan)
        oracle = dm_joint_probability(bb.SINGLET, 0.0, math.pi, 0, 0)
        assert oracle == pytest.approx(0.5, abs=1e-12)
        assert behavior.p[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_nonsignalling(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            state = bb.PureTwoQubitState(*amps)
            plan = bb.MeasurementPlan(rng.random(3) * 6, rng.random(3) * 6)
            assert bb.nonsignalling_defect(bb.behavior_from_state(state, plan)) <= 1e-12

    def test_empty_plan_rejected(self):
        with pytest.raises(PlanMismatch):
            bb.MeasurementPlan((), (0.0,))


class TestSingletJoint:
    def test_zero_separation(self):
        np.testing.assert_allclose(
            bb.singlet_joint(0.0), [[0.0, 0.5], [0.5, 0.0]], atol=1e-15
        )

    def test_pi_separation(self):
        np.testing.assert_allclose(
            bb.singlet_joint(math.pi), [[0.5, 0.0], [0.0, 0.5]], atol=1e-15
        )

    def test_pi_third(self):
        assert bb.singlet_joint(math.pi / 3)[0, 0] == pytest.approx(0.125, abs=1e-15)

    def test_cross_check_against_state_route(self):
        # Two independent implementations agree cell by cell on 100 plans.
        rng = np.random.default_rng(8)
        for _ in range(100):
            plan = bb.MeasurementPlan(rng.random(3) * 10 - 5, rng.random(3) * 10 - 5)
            behavior = bb.behavior_from_state(bb.SINGLET, plan)
            for alpha, theta_a in enumerate(plan.angles_a):
                for beta, theta_b in enumerate(plan.angles_b):
                    closed_form = bb.singlet_joint(theta_a - theta_b)
                    np.testing.assert_allclose(
                        behavior.p[alpha, beta], closed_form, atol=1e-12
                    )


class TestSingletSymmetries:
    def test_rotational_covariance(self):
        rng = np.random.default_rng(21)
        base = bb.MeasurementPlan(rng.random(3), rng.random(3))
        reference = bb.behavior_from_state(bb.SINGLET, base)
        for offset in (0.3, 1.7, -2.4):
            shifted = bb.MeasurementPlan(
                tuple(t + offset for t in base.angles_a),
                tuple(t + offset for t in base.angles_b),
            )
            rotated = bb.behavior_from_state(bb.SINGLET, shifted)
            np.testing.assert_allclose(rotated.p, reference.p, atol=1e-12)

    def test_marginals_maximally_mixed(self):
        rng = np.random.default_rng(22)
        plan = bb.MeasurementPlan(rng.random(3) * 6, rng.random(3) * 6)
        behavior = bb.behavior_from_state(bb.SINGLET, plan)
        for alpha in range(3):
            for beta in range(3):
                np.testing.assert_allclose(
                    bb.side_marginal(behavior, "A", alpha, beta), [0.5, 0.5], atol=1e-12
                )
                np.testing.assert_allclose(
                    bb.side_marginal(behavior, "B", beta, alpha), [0.5, 0.5], atol=1e-12
                )


class TestPhiPlus:
    def test_correlator_is_cosine(self):
        # E(theta_a, theta_b) = cos(theta_a - theta_b) for the phi_plus
        # state in the x-z plane; checked against the density-matrix oracle.
        rng = np.random.default_rng(30)
        for _ in range(10):
            ta, tb = rng.random(2) * 6 - 3
            plan = bb.MeasurementPlan((ta,), (tb,))
            p = bb.behavior_from_state(bb.PHI_PLUS, plan).p[0, 0]
            e_value = p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0]
            assert e_value == pytest.approx(math.cos(ta - tb), abs=1e-12)
            oracle = sum(
                sign * dm_joint_probability(bb.PHI_PLUS, ta, tb, a, b)
                for (a, b), sign in (((0, 0), 1), ((1, 1), 1), ((0, 1), -1), ((1, 0), -1))
            )
            assert e_value == pytest.approx(oracle, abs=1e-12)
