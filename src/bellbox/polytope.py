"""Deterministic local strategies, their mixtures, and locality tests.

A deterministic local strategy assigns one outcome per setting on each side;
mixtures of the strategies' product behaviors form the local polytope.
Membership is decided by linear-programming feasibility over the strategy
weights.  When membership fails, the phase-1 dual supplies a separating
functional (a Farkas certificate) that doubles as a Bell-type witness:
it evaluates strictly below its own minimum over all deterministic
strategies on the tested behavior.

Classification of a behavior is three-way:

* signalling -- some output marginal depends on the distant input;
* local      -- a convex combination of deterministic local strategies
                reproduces the table;
* weakly nonlocal -- nonsignalling yet outside the local polytope, i.e.
                nonlocal without any possibility of signalling.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import AlphabetMismatch, SchemaError, SignallingInput, SizeLimit
from .model import (
    Behavior,
    BellFunctional,
    Direction,
    Scenario,
    _check_fields,
    nonsignalling_defect,
    uniform_behavior,
)

# Most deterministic strategies any enumeration, and so any LP, may take.
STRATEGY_CAP = 10**6

# Feasibility threshold for the membership LP (phase-1 objective), two
# orders above accumulation error at this problem scale.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class LocalStrategy:
    """One deterministic transfer function: outcome index per setting, per side."""

    f_a: tuple[int, ...]
    f_b: tuple[int, ...]

    def symbols(self, scenario: Scenario) -> tuple[tuple[str, ...], tuple[str, ...]]:
        sym_a = scenario.outcomes_a.symbols
        sym_b = scenario.outcomes_b.symbols
        return (
            tuple(sym_a[i] for i in self.f_a),
            tuple(sym_b[i] for i in self.f_b),
        )


@dataclass(frozen=True, eq=False)
class LocalModel:
    """A probability distribution over deterministic local strategies."""

    strategies: tuple[LocalStrategy, ...]
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        w = np.asarray(self.weights, dtype=float).copy()
        if w.ndim != 1 or w.size != len(self.strategies):
            raise SchemaError(
                f"{w.size} weights for {len(self.strategies)} strategies"
            )
        if w.size and w.min() < -1e-12:
            raise SchemaError(f"negative weight {float(w.min())!r}")
        if not abs(w.sum() - 1.0) <= 1e-12:  # NaN weights fail here too
            raise SchemaError(f"weights sum to {float(w.sum())!r}, expected 1")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


class ClassificationKind(enum.Enum):
    LOCAL = "Local"
    WEAKLY_NONLOCAL = "WeaklyNonlocal"
    SIGNALLING = "Signalling"


@dataclass(frozen=True, eq=False)
class Classification:
    """Locality verdict for one behavior.

    ``decomposition`` is present exactly when the kind is LOCAL;
    ``witness`` exactly when WEAKLY_NONLOCAL.  ``defect`` always carries the
    nonsignalling defect of the tested behavior.
    """

    kind: ClassificationKind
    witness: BellFunctional | None
    decomposition: LocalModel | None
    defect: float


def strategy_count(scenario: Scenario) -> int:
    return (
        scenario.outcomes_a.size**scenario.settings_a
        * scenario.outcomes_b.size**scenario.settings_b
    )


def enumerate_strategies(scenario: Scenario) -> list[LocalStrategy]:
    """All deterministic local strategies, lexicographic by f_a then f_b.

    Raises SizeLimit when there are more than ``STRATEGY_CAP`` of them.
    """
    count = strategy_count(scenario)
    if count > STRATEGY_CAP:
        raise SizeLimit(f"{count} strategies exceed the cap of {STRATEGY_CAP}")
    ka, kb = scenario.outcomes_a.size, scenario.outcomes_b.size
    return [
        LocalStrategy(fa, fb)
        for fa in itertools.product(range(ka), repeat=scenario.settings_a)
        for fb in itertools.product(range(kb), repeat=scenario.settings_b)
    ]


def _check_strategy(strategy: LocalStrategy, scenario: Scenario) -> None:
    ka, kb = scenario.outcomes_a.size, scenario.outcomes_b.size
    if len(strategy.f_a) != scenario.settings_a or len(strategy.f_b) != scenario.settings_b:
        raise AlphabetMismatch("strategy does not cover every setting of the scenario")
    if any(not 0 <= o < ka for o in strategy.f_a) or any(not 0 <= o < kb for o in strategy.f_b):
        raise AlphabetMismatch("strategy outcome outside the scenario's alphabets")


def strategy_behavior(strategy: LocalStrategy, scenario: Scenario) -> Behavior:
    """The deterministic product behavior of one strategy."""
    return model_behavior(LocalModel((strategy,), np.ones(1)), scenario)


def model_behavior(model: LocalModel, scenario: Scenario) -> Behavior:
    """Convex combination of the strategies' behaviors."""
    table = np.zeros(scenario.shape)
    alphas = np.arange(scenario.settings_a)[:, None]
    betas = np.arange(scenario.settings_b)[None, :]
    for strategy, weight in zip(model.strategies, model.weights):
        _check_strategy(strategy, scenario)
        fa = np.asarray(strategy.f_a)
        fb = np.asarray(strategy.f_b)
        table[alphas, betas, fa[:, None], fb[None, :]] += weight
    return Behavior(scenario, table)


@functools.lru_cache(maxsize=32)
def _vertex_data(scenario: Scenario) -> tuple[tuple[LocalStrategy, ...], np.ndarray]:
    """All strategies plus the matrix of their flattened behavior tables.

    Every LP builds on this, so its enumeration checks the strategy cap for all.
    """
    strategies = enumerate_strategies(scenario)
    fa = np.array([s.f_a for s in strategies])  # (n, settings_a)
    fb = np.array([s.f_b for s in strategies])
    ind_a = fa[:, :, None] == np.arange(scenario.outcomes_a.size)  # (n, sa, ka)
    ind_b = fb[:, :, None] == np.arange(scenario.outcomes_b.size)
    matrix = np.einsum("exa,eyb->exyab", ind_a * 1.0, ind_b * 1.0)
    matrix = matrix.reshape(len(strategies), -1)
    matrix.flags.writeable = False
    return tuple(strategies), matrix


@dataclass(frozen=True, eq=False)
class VertexBounds:
    """Exact extrema of a functional over all deterministic local strategies."""

    min: float
    max: float
    argmin: LocalStrategy
    argmax: LocalStrategy


def functional_vertex_bounds(f: BellFunctional) -> VertexBounds:
    """Brute-force the functional over every deterministic strategy.

    By linearity the extrema bound the functional over every LocalModel,
    so this is the oracle for local bounds.
    """
    strategies, matrix = _vertex_data(f.scenario)
    values = matrix @ f.coefficients.ravel()
    imin = int(values.argmin())
    imax = int(values.argmax())
    return VertexBounds(float(values[imin]), float(values[imax]), strategies[imin], strategies[imax])


def _solution_model(
    weights: np.ndarray, strategies: tuple[LocalStrategy, ...]
) -> LocalModel:
    # Solver output hygiene: clamp pivot-roundoff negatives, drop weights of
    # pure roundoff (at most the 1e-12 LocalModel checks against) and
    # renormalize, so the LocalModel invariants hold exactly.
    w = np.maximum(weights, 0.0)
    w /= w.sum()
    keep = np.nonzero(w > 1e-12)[0]
    return LocalModel(tuple(strategies[i] for i in keep), w[keep] / w[keep].sum())


def _membership_lp(b: Behavior, tol: float) -> tuple[LocalModel | None, np.ndarray | None]:
    strategies, matrix = _vertex_data(b.scenario)
    result = lp.solve_standard_form(matrix.T, b.p.ravel(), feas_tol=tol)
    if result.status == lp.INFEASIBLE:
        return None, result.farkas
    return _solution_model(result.x, strategies), None


def _witness_from_certificate(b: Behavior, certificate: np.ndarray) -> BellFunctional:
    # The certificate y satisfies y.p > 0 >= y.vertex for every vertex;
    # negate so the witness under-runs its own vertex minimum on b, and
    # rescale to max-coefficient 1 so witnesses are comparable across runs.
    coeffs = -certificate.reshape(b.scenario.shape)
    coeffs = coeffs / np.abs(coeffs).max()
    probe = BellFunctional(b.scenario, coeffs, 0.0, Direction.AT_LEAST)
    bound = functional_vertex_bounds(probe).min
    return BellFunctional(b.scenario, coeffs, bound, Direction.AT_LEAST)


def _check_tol(tol: float) -> None:
    if not 0.0 < tol <= 0.1:
        raise ValueError(f"tol {tol!r} outside (0, 0.1]")


def classify(b: Behavior, tol: float = DEFAULT_TOL) -> Classification:
    """Sort a behavior into signalling / local / weakly nonlocal.

    Signalling when the nonsignalling defect exceeds ``tol``; otherwise
    local iff the membership LP finds a decomposition, a distribution over
    deterministic strategies that reproduces ``b`` within ``tol`` per cell;
    otherwise weakly nonlocal, with a witness functional whose value on
    ``b`` undercuts its brute-force minimum over deterministic strategies.
    ``tol`` must lie in (0, 0.1].
    """
    _check_tol(tol)
    defect = nonsignalling_defect(b)
    if defect > tol:
        return Classification(ClassificationKind.SIGNALLING, None, None, defect)
    model, certificate = _membership_lp(b, tol)
    if model is not None:
        return Classification(ClassificationKind.LOCAL, None, model, defect)
    witness = _witness_from_certificate(b, certificate)
    return Classification(ClassificationKind.WEAKLY_NONLOCAL, witness, None, defect)


def local_visibility(b: Behavior, tol: float = DEFAULT_TOL) -> float:
    """Largest v in [0, 1] with v*b + (1-v)*uniform still local.

    Single LP with the visibility as an extra variable.  Returns 1 for
    behaviors that are already local; requires a nonsignalling input.
    ``tol`` must lie in (0, 0.1].
    """
    _check_tol(tol)
    defect = nonsignalling_defect(b)
    if defect > tol:
        raise SignallingInput(f"nonsignalling defect {defect:.3g} exceeds tol {tol:.3g}")
    _, matrix = _vertex_data(b.scenario)
    n = matrix.shape[0]
    u = uniform_behavior(b.scenario).p.ravel()
    direction = b.p.ravel() - u
    cells = matrix.shape[1]
    # Columns: strategy weights, v, slack for v <= 1.
    a_eq = np.zeros((cells + 1, n + 2))
    a_eq[:cells, :n] = matrix.T
    a_eq[:cells, n] = -direction
    a_eq[cells, n] = 1.0
    a_eq[cells, n + 1] = 1.0
    rhs = np.concatenate([u, [1.0]])
    cost = np.zeros(n + 2)
    cost[n] = -1.0  # maximize v
    result = lp.solve_standard_form(a_eq, rhs, cost, feas_tol=tol)
    if result.status != lp.OPTIMAL:  # pragma: no cover - v=0 is always feasible
        raise ArithmeticError(f"visibility LP ended {result.status}")
    return float(min(max(result.x[n], 0.0), 1.0))


# ---------------------------------------------------------------------------
# LocalModel file format (JSON)
# ---------------------------------------------------------------------------

_MODEL_KEYS = {"strategies", "weights"}


def local_model_to_json_dict(model: LocalModel, scenario: Scenario) -> dict:
    strategies = []
    for strategy in model.strategies:
        sym_a, sym_b = strategy.symbols(scenario)
        strategies.append({"fa": list(sym_a), "fb": list(sym_b)})
    return {"strategies": strategies, "weights": model.weights.tolist()}


def local_model_from_json_dict(data: dict, scenario: Scenario) -> LocalModel:
    """Parse the LocalModel file schema; weights are validated on load."""
    _check_fields(data, _MODEL_KEYS, "local model")
    strategies = []
    for entry in data["strategies"]:
        if not isinstance(entry, dict) or set(entry) != {"fa", "fb"}:
            raise SchemaError(f"malformed strategy entry {entry!r}")
        strategy = LocalStrategy(
            tuple(scenario.outcomes_a.index(s) for s in entry["fa"]),
            tuple(scenario.outcomes_b.index(s) for s in entry["fb"]),
        )
        _check_strategy(strategy, scenario)
        strategies.append(strategy)
    try:
        weights = np.asarray(data["weights"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed weights: {exc}") from exc
    return LocalModel(tuple(strategies), weights)
