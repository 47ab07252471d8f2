"""Deterministic local strategies, their mixtures, and locality tests.

A deterministic local strategy assigns one outcome per setting on each side;
mixtures of the strategies' product behaviors form the local polytope.
Membership is decided by linear-programming feasibility over the strategy
weights.  When membership fails, the phase-1 dual supplies a separating
functional (a Farkas certificate) that doubles as a Bell-type witness:
it evaluates strictly below its own minimum over all deterministic
strategies on the tested behavior.

The local visibility (Kaszlikowski et al., PRL 85:4418, 2000), the largest
v with v b + (1-v) u local for the uniform u, is 1/w for the gauge LP
w = min 1'r s.t. sum_j r_j (a_j - u) = b - u, r >= 0, over the strategy
tables a_j.  Every LP's rows are the prices of the unit vectors.

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
import weakref
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import AlphabetMismatch, SchemaError, SignallingInput, SizeLimit
from .model import (
    Behavior,
    BellFunctional,
    Direction,
    Scenario,
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
    return list(_strategies(scenario, range(strategy_count(scenario))))


def _check_strategy(strategy: LocalStrategy, scenario: Scenario) -> None:
    ka, kb = scenario.outcomes_a.size, scenario.outcomes_b.size
    if len(strategy.f_a) != scenario.settings_a or len(strategy.f_b) != scenario.settings_b:
        raise AlphabetMismatch("strategy does not cover every setting of the scenario")
    if any(not 0 <= o < ka for o in strategy.f_a) or any(not 0 <= o < kb for o in strategy.f_b):
        raise AlphabetMismatch("strategy outcome outside the scenario's alphabets")


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
def _side_factors(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """One one-hot factor per side, S_a and S_b, which fix the strategy order.

    Row i of S_a is [f_a(alpha) == a] over (alpha, a) for the i-th f_a in
    lexicographic order, likewise S_b, so the table of strategy
    i * kb^sb + j is the outer product of row i of S_a and row j of S_b.
    Every LP and every decoded strategy builds on this, so it checks the
    strategy cap for all, before it allocates anything.
    """
    count = strategy_count(scenario)
    if count > STRATEGY_CAP:
        raise SizeLimit(f"{count} strategies exceed the cap of {STRATEGY_CAP}")
    factors = []
    for settings, outcomes in ((scenario.settings_a, scenario.outcomes_a.size),
                               (scenario.settings_b, scenario.outcomes_b.size)):
        f = np.array(list(itertools.product(range(outcomes), repeat=settings)))
        factor = (f[:, :, None] == np.arange(outcomes)).reshape(len(f), -1) * 1.0
        factor.flags.writeable = False
        factors.append(factor)
    return factors[0], factors[1]


# Decoded strategies by (scenario, index), held only by the models that name
# them: models kept side by side share one object per strategy between them.
_decoded: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _strategies(scenario: Scenario, indices) -> tuple[LocalStrategy, ...]:
    """The strategies at ``indices`` in the side factors' order: strategy
    i * len(S_b) + j sets on each side the outcome its factor row marks."""
    side_a, side_b = _side_factors(scenario)
    indices = np.asarray(indices, dtype=np.intp)
    i, j = np.divmod(indices, len(side_b))
    f_a = side_a.reshape(len(side_a), scenario.settings_a, -1).argmax(axis=2)[i].tolist()
    f_b = side_b.reshape(len(side_b), scenario.settings_b, -1).argmax(axis=2)[j].tolist()
    return tuple(_decoded.setdefault((scenario, k), LocalStrategy(tuple(a), tuple(b)))
                 for k, a, b in zip(indices.tolist(), f_a, f_b))


def _table_price(scenario: Scenario, tables: np.ndarray | None = None):
    """The price y -> y @ A of LP rows that are table functionals on the
    strategies: row i holds the values of table ``tables[i]`` (flattened) on
    every strategy, or with ``tables=None`` row i is cell i (A is the vertex
    matrix's transpose); a y of k entries prices the first k rows.  y @ A is
    the values of the one table y @ tables, laid out as T[(alpha, a), (beta,
    b)]: S_a T S_b' over the side factors, no m x n product.
    """
    side_a, side_b = _side_factors(scenario)
    side_b = side_b.T
    sa, sb, ka, kb = scenario.shape
    layout = (sa * ka, sb * kb)
    # Cell order (alpha, beta, a, b) -> (alpha, a, beta, b).
    order = np.arange(sa * sb * ka * kb).reshape(sa, sb, ka, kb).transpose(0, 2, 1, 3).ravel()
    rows = None if tables is None else np.ascontiguousarray(tables[:, order])

    def price(y: np.ndarray) -> np.ndarray:
        t = (y[order] if rows is None else y @ rows[: y.size]).reshape(layout)
        return np.dot(np.dot(side_a, t), side_b).ravel()

    return price


def _priced_rows(price, m: int) -> np.ndarray:
    """The m LP rows that agree with ``price``, y -> y @ rows: row i is price(e_i),
    written in place.  Read-only and column-contiguous, as the simplex reads A."""
    rows = np.empty((m, price(np.zeros(m)).size), order="F")
    for i, e in enumerate(np.eye(m)):
        rows[i] = price(e)
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=64)
def _locality_lp(scenario: Scenario, gauge: bool):
    """Membership LP rows, one per cell (the vertex matrix's transpose), or
    with ``gauge`` the visibility rows, the cells less the uniform behavior
    u; then their price and u."""
    cell_price = _table_price(scenario)
    u = uniform_behavior(scenario).p.ravel()
    price = (lambda y: cell_price(y) - y @ u) if gauge else cell_price
    return _priced_rows(price, u.size), price, u


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
    values = _table_price(f.scenario)(f.coefficients.ravel())  # its value on each strategy
    imin, imax = int(values.argmin()), int(values.argmax())
    argmin, argmax = _strategies(f.scenario, (imin, imax))
    return VertexBounds(float(values[imin]), float(values[imax]), argmin, argmax)


def _solution_model(weights: np.ndarray, scenario: Scenario) -> LocalModel:
    # Solver output hygiene: clamp pivot-roundoff negatives, drop weights of
    # pure roundoff (at most the 1e-12 LocalModel checks against) and
    # renormalize, so the LocalModel invariants hold exactly.
    w = np.maximum(weights, 0.0)
    w /= w.sum()
    keep = np.nonzero(w > 1e-12)[0]
    return LocalModel(_strategies(scenario, keep), w[keep] / w[keep].sum())


def _membership_lp(b: Behavior, tol: float) -> tuple[LocalModel | None, np.ndarray | None]:
    rows, price, _ = _locality_lp(b.scenario, False)
    result = lp.solve_standard_form(rows, b.p.ravel(), feas_tol=tol, price=price)
    if result.status == lp.INFEASIBLE:
        return None, result.farkas
    return _solution_model(result.x, b.scenario), None


def _witness_from_certificate(b: Behavior, certificate: np.ndarray) -> BellFunctional:
    # The certificate y satisfies y.p > 0 >= y.vertex for every vertex;
    # negate so the witness under-runs its own vertex minimum on b, and
    # rescale to max-coefficient 1 so witnesses are comparable across runs.
    coeffs = -certificate.reshape(b.scenario.shape)
    coeffs = coeffs / np.abs(coeffs).max()
    bound = float(_table_price(b.scenario)(coeffs.ravel()).min())  # its minimum over the strategies
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

    The gauge of b - u in the cone of the strategy tables a_j less the
    uniform behavior u: v b + (1-v) u is local iff b - u = sum_j r_j (a_j - u)
    for some r >= 0 with 1'r <= 1/v.  One LP, w = min 1'r over those r, gives
    v = 1/w, and exactly 1 when w <= 1 + ``tol``, so for behaviors that are
    already local.  Requires a nonsignalling input: a defect above ``tol``,
    or an LP residual above ``tol`` (b - u outside the cone's span), raises
    SignallingInput.  ``tol`` must lie in (0, 0.1].
    """
    _check_tol(tol)
    defect = nonsignalling_defect(b)
    if defect > tol:
        raise SignallingInput(f"nonsignalling defect {defect:.3g} exceeds tol {tol:.3g}")
    rows, price, u = _locality_lp(b.scenario, True)
    result = lp.solve_standard_form(
        rows, b.p.ravel() - u, np.ones(rows.shape[1]), feas_tol=tol, price=price
    )
    if result.status != lp.OPTIMAL:  # 1'r >= 0 bounds the LP, so it is infeasible
        residual = result.infeasibility
        raise SignallingInput(f"visibility LP residual {residual:.3g} exceeds tol {tol:.3g}")
    return 1.0 if result.objective <= 1.0 + tol else 1.0 / result.objective


# ---------------------------------------------------------------------------
# LocalModel file format (JSON), written only
# ---------------------------------------------------------------------------


def local_model_to_json_dict(model: LocalModel, scenario: Scenario) -> dict:
    """Serialize in the documented local-model file schema."""
    strategies = []
    for strategy in model.strategies:
        sym_a, sym_b = strategy.symbols(scenario)
        strategies.append({"fa": list(sym_a), "fb": list(sym_b)})
    return {"strategies": strategies, "weights": model.weights.tolist()}
