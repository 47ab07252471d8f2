import functools
import itertools

import numpy as np
import pytest

import bellbox as bb


@pytest.fixture(scope="session")
def chained_target() -> bb.Behavior:
    """Singlet at angles (120, 0, 60) degrees on both sides, B outputs swapped.

    The reference nonlocal behavior: its chained Wigner value at (1, 2, 0)
    is exactly -1/8.
    """
    plan = bb.MeasurementPlan.from_degrees([120.0, 0.0, 60.0], [120.0, 0.0, 60.0])
    behavior = bb.behavior_from_state(bb.SINGLET, plan)
    return bb.relabel_outputs(behavior, "B", (1, 0))


@pytest.fixture(scope="session")
def pr_box() -> bb.Behavior:
    """Maximally nonlocal nonsignalling box: a xor b = alpha and beta."""
    scenario = bb.Scenario(2, 2)
    table = np.zeros(scenario.shape)
    for alpha in range(2):
        for beta in range(2):
            for a in range(2):
                for b in range(2):
                    if (a ^ b) == (alpha & beta):
                        table[alpha, beta, a, b] = 0.5
    return bb.validate_behavior(scenario, table)


def random_behavior(rng: np.random.Generator, scenario: bb.Scenario) -> bb.Behavior:
    """A random behavior: independent random distribution per block."""
    raw = rng.random(scenario.shape) + 1e-3
    raw /= raw.sum(axis=(2, 3), keepdims=True)
    return bb.validate_behavior(scenario, raw)


def random_local_model(
    rng: np.random.Generator, strategies: list[bb.LocalStrategy], max_support: int = 8
) -> bb.LocalModel:
    """A random sparse mixture over the given strategy list."""
    support = rng.integers(1, max_support + 1)
    picks = rng.choice(len(strategies), size=support, replace=False)
    weights = rng.dirichlet(np.ones(support))
    return bb.LocalModel(tuple(strategies[i] for i in picks), weights)


def decode_local_model(data: dict, scenario: bb.Scenario) -> bb.LocalModel:
    """A local-model document, as ``local_model_to_json_dict`` writes it, read back."""
    strategies = tuple(
        bb.LocalStrategy(tuple(map(scenario.outcomes_a.symbols.index, entry["fa"])),
                         tuple(map(scenario.outcomes_b.symbols.index, entry["fb"])))
        for entry in data["strategies"]
    )
    return bb.LocalModel(strategies, data["weights"])


def strategy_behavior(strategy: bb.LocalStrategy, scenario: bb.Scenario) -> bb.Behavior:
    """The deterministic product behavior of one strategy, as a one-strategy model."""
    return bb.model_behavior(bb.LocalModel((strategy,), np.ones(1)), scenario)


@functools.lru_cache(maxsize=None)
def vertex_data(scenario: bb.Scenario) -> tuple[list[bb.LocalStrategy], np.ndarray]:
    """Oracle: every strategy, lexicographic by f_a then f_b, and the vertex
    matrix whose row i is strategy i's flattened behavior table, stacked from
    ``model_behavior``.  Both are independent of the side factors that the
    package's LP rows and strategies come from.  Read-only; callers must not
    write to it."""
    ka, kb = scenario.outcomes_a.size, scenario.outcomes_b.size
    strategies = [
        bb.LocalStrategy(fa, fb)
        for fa in itertools.product(range(ka), repeat=scenario.settings_a)
        for fb in itertools.product(range(kb), repeat=scenario.settings_b)
    ]
    matrix = np.array([strategy_behavior(s, scenario).p.ravel() for s in strategies])
    matrix.flags.writeable = False
    return strategies, matrix
