"""Two-party black-box scenarios, behaviors, and Bell functionals.

The central value is the conditional probability table p(alpha, beta -> a, b):
the chance that the left station outputs ``a`` and the right station outputs
``b`` given input settings ``alpha`` and ``beta``.  Tables are stored as
4-index float64 arrays in the fixed axis order (alpha, beta, a, b); outcome
index 0 is "+", index 1 is "-", and, on three-symbol alphabets, index 2 is
"0" (no detection).

All types here are immutable after construction and validated on
construction; out-of-tolerance tables are rejected, never repaired.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    BadNormalization,
    BadPermutation,
    BadSignPattern,
    DuplicateSetting,
    NegativeEntry,
    ScenarioMismatch,
    ScenarioTooSmall,
    SchemaError,
    SettingOutOfRange,
    ShapeMismatch,
)

# Validation tolerance for probability tables.  Everything is desk-scale
# float64, so 1e-12 dominates the accumulation error budget.
PROB_ATOL = 1e-12

NO_CLICK = "0"

Side = Literal["A", "B"]


class Alphabet(enum.Enum):
    """Outcome alphabet of one station."""

    PLUS_MINUS = ("+", "-")
    PLUS_MINUS_NULL = ("+", "-", NO_CLICK)

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.value

    @property
    def size(self) -> int:
        return len(self.value)

    def index(self, symbol: str) -> int:
        try:
            return self.value.index(symbol)
        except ValueError:
            raise AlphabetMismatch(f"symbol {symbol!r} not in alphabet {self.value}") from None

    @classmethod
    def from_symbols(cls, symbols: Sequence[str]) -> "Alphabet":
        for member in cls:
            if tuple(symbols) == member.value:
                return member
        raise SchemaError(f"unknown outcome alphabet {list(symbols)!r}")


def _check_side(side: str) -> None:
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")


@dataclass(frozen=True)
class Scenario:
    """Port structure of the box: setting counts and outcome alphabets."""

    settings_a: int = 3
    settings_b: int = 3
    outcomes_a: Alphabet = Alphabet.PLUS_MINUS
    outcomes_b: Alphabet = Alphabet.PLUS_MINUS

    def __post_init__(self):
        if self.settings_a < 1 or self.settings_b < 1:
            raise ScenarioTooSmall(
                f"need at least one setting per side, got "
                f"({self.settings_a}, {self.settings_b})"
            )
        if not isinstance(self.outcomes_a, Alphabet) or not isinstance(self.outcomes_b, Alphabet):
            raise AlphabetMismatch("outcome alphabets must be Alphabet members")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """Table shape in the canonical (alpha, beta, a, b) order."""
        return (self.settings_a, self.settings_b, self.outcomes_a.size, self.outcomes_b.size)

    def alphabet(self, side: Side) -> Alphabet:
        _check_side(side)
        return self.outcomes_a if side == "A" else self.outcomes_b

    def is_binary(self) -> bool:
        return (
            self.outcomes_a is Alphabet.PLUS_MINUS
            and self.outcomes_b is Alphabet.PLUS_MINUS
        )

    def with_no_click(self) -> "Scenario":
        """Same settings, both alphabets extended by the no-detection symbol."""
        return Scenario(
            self.settings_a,
            self.settings_b,
            Alphabet.PLUS_MINUS_NULL,
            Alphabet.PLUS_MINUS_NULL,
        )


def _frozen_table(raw, shape, what: str) -> np.ndarray:
    table = np.asarray(raw, dtype=float)
    if table.shape != shape:
        raise ShapeMismatch(f"{what} shape {table.shape} does not match scenario shape {shape}")
    table = table.copy()
    table.flags.writeable = False
    return table


def _index(flat, shape: tuple[int, ...]) -> tuple[int, ...]:
    """A flat index as a tuple of Python ints, which print plainly in messages."""
    return tuple(int(i) for i in np.unravel_index(int(flat), shape))


@dataclass(frozen=True, eq=False)
class Behavior:
    """A validated conditional probability table over one scenario.

    Entries are stored exactly as given (no renormalization); construction
    raises if any entry is below ``-PROB_ATOL`` or any (alpha, beta) block
    sums outside ``1 +/- PROB_ATOL``.
    """

    scenario: Scenario
    p: np.ndarray

    def __post_init__(self):
        table = _frozen_table(self.p, self.scenario.shape, "behavior table")
        if table.min() < -PROB_ATOL:
            idx = _index(table.argmin(), table.shape)
            raise NegativeEntry(f"entry {float(table[idx])!r} at {idx} is negative")
        block_sums = table.sum(axis=(2, 3))
        worst = np.abs(block_sums - 1.0).max()
        if not worst <= PROB_ATOL:  # NaN entries fail here too
            idx = _index(np.abs(block_sums - 1.0).argmax(), block_sums.shape)
            raise BadNormalization(
                f"block {idx} sums to {float(block_sums[idx])!r} (off by {worst:.3g})"
            )
        object.__setattr__(self, "p", table)


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """A linear functional over behaviors with a reference bound.

    ``direction`` states the side of the bound that local models satisfy:
    AT_LEAST means every local behavior evaluates >= reference_bound,
    AT_MOST means <=.
    """

    scenario: Scenario
    coefficients: np.ndarray
    reference_bound: float
    direction: "Direction"

    def __post_init__(self):
        table = _frozen_table(self.coefficients, self.scenario.shape, "coefficient table")
        object.__setattr__(self, "coefficients", table)
        object.__setattr__(self, "reference_bound", float(self.reference_bound))


class Direction(enum.Enum):
    AT_LEAST = "AtLeast"
    AT_MOST = "AtMost"


def _check_setting(value: int, count: int, name: str) -> None:
    if not 0 <= value < count:
        raise SettingOutOfRange(f"{name}={value} out of range [0, {count})")


def validate_behavior(scenario: Scenario, raw) -> Behavior:
    """Validate a raw 4-index table and wrap it as a Behavior.

    Raises ShapeMismatch, NegativeEntry, or BadNormalization; never rescales.
    """
    return Behavior(scenario, raw)


def uniform_behavior(scenario: Scenario) -> Behavior:
    """The maximally mixed behavior: every outcome pair equally likely."""
    ka, kb = scenario.outcomes_a.size, scenario.outcomes_b.size
    table = np.full(scenario.shape, 1.0 / (ka * kb))
    return Behavior(scenario, table)


def side_marginal(b: Behavior, side: Side, own_setting: int, other_setting: int) -> np.ndarray:
    """Outcome distribution of one side at (own_setting, other_setting)."""
    _check_side(side)
    if side == "A":
        _check_setting(own_setting, b.scenario.settings_a, "alpha")
        _check_setting(other_setting, b.scenario.settings_b, "beta")
        return b.p[own_setting, other_setting].sum(axis=1)
    _check_setting(own_setting, b.scenario.settings_b, "beta")
    _check_setting(other_setting, b.scenario.settings_a, "alpha")
    return b.p[other_setting, own_setting].sum(axis=0)


def nonsignalling_defect(b: Behavior) -> float:
    """How strongly either side's marginal depends on the distant setting.

    Returns the maximum, over sides, own settings, and pairs of remote
    settings, of the L-infinity distance between the side's outcome
    marginals.  Zero means no output marginal reacts to the distant input,
    i.e. the behavior cannot be used to signal.
    """
    pa = b.p.sum(axis=3)  # (alpha, beta, a)
    pb = b.p.sum(axis=2)  # (alpha, beta, b)
    defect_a = np.abs(pa[:, :, None, :] - pa[:, None, :, :]).max() if b.scenario.settings_b > 1 else 0.0
    defect_b = np.abs(pb[:, None, :, :] - pb[None, :, :, :]).max() if b.scenario.settings_a > 1 else 0.0
    return float(max(defect_a, defect_b))


def evaluate_functional(f: BellFunctional, b: Behavior) -> float:
    """Element-wise inner product of the coefficient table with the behavior."""
    if f.scenario != b.scenario:
        raise ScenarioMismatch("functional and behavior built for different scenarios")
    return float(np.sum(f.coefficients * b.p))


def _require_binary(scenario: Scenario, min_settings: int) -> None:
    if not scenario.is_binary():
        raise AlphabetMismatch("this functional requires binary outcomes on both sides")
    if scenario.settings_a < min_settings or scenario.settings_b < min_settings:
        raise ScenarioTooSmall(
            f"need at least {min_settings} settings per side, got "
            f"({scenario.settings_a}, {scenario.settings_b})"
        )


def wigner_literal(k: int, scenario: Scenario | None = None) -> BellFunctional:
    """The three-term Wigner inequality, cyclic shift ``k`` of the settings.

    For k=0 the nonzero coefficients are +1 at (1,2,+,-), +1 at (2,0,+,-)
    and -1 at (0,1,+,-); k=1 and k=2 shift every setting label cyclically.
    The bound is 0 with direction AT_LEAST.

    Note the subtracted term uses setting order (0,1), not (1,0).  As a bare
    functional this form reaches -1 on some deterministic local strategies
    (it presumes perfectly correlated outcomes), so it is not by itself a
    locality test; see :func:`wigner_chained` and polytope membership.
    """
    if scenario is None:
        scenario = Scenario()
    if k not in (0, 1, 2):
        raise SettingOutOfRange(f"cyclic shift k={k} out of range {{0, 1, 2}}")
    _require_binary(scenario, 3)
    coeffs = np.zeros(scenario.shape)
    for i, j, sign in (
        ((1 + k) % 3, (2 + k) % 3, 1.0),
        ((2 + k) % 3, (0 + k) % 3, 1.0),
        ((0 + k) % 3, (1 + k) % 3, -1.0),
    ):
        coeffs[i, j, 0, 1] = sign
    return BellFunctional(scenario, coeffs, 0.0, Direction.AT_LEAST)


def wigner_chained(i: int, j: int, k: int, scenario: Scenario | None = None) -> BellFunctional:
    """Index-chained Wigner form: +(i,j,+,-) +(j,k,+,-) -(i,k,+,-) >= 0.

    With the subtracted term's settings chained through the added terms,
    every deterministic strategy whose two sides agree setting-by-setting
    satisfies the bound, which is the perfect-correlation premise of the
    usual derivation.
    """
    if scenario is None:
        scenario = Scenario()
    _require_binary(scenario, 3)
    for name, value in (("i", i), ("j", j), ("k", k)):
        _check_setting(value, min(scenario.settings_a, scenario.settings_b), name)
    if len({i, j, k}) != 3:
        raise DuplicateSetting(f"settings ({i}, {j}, {k}) must be distinct")
    coeffs = np.zeros(scenario.shape)
    coeffs[i, j, 0, 1] += 1.0
    coeffs[j, k, 0, 1] += 1.0
    coeffs[i, k, 0, 1] -= 1.0
    return BellFunctional(scenario, coeffs, 0.0, Direction.AT_LEAST)


def chsh_functional(
    sign_pattern: Sequence[float] = (1, 1, 1, -1),
    scenario: Scenario | None = None,
) -> BellFunctional:
    """CHSH combination of correlators over settings {0,1} on each side.

    S = sum over (alpha, beta) of sign * E(alpha, beta) with
    E = p(+,+) + p(-,-) - p(+,-) - p(-,+).  The sign pattern is given in
    block order (0,0), (0,1), (1,0), (1,1) and must contain exactly one
    negative sign.  Local bound 2, direction AT_MOST.
    """
    if scenario is None:
        scenario = Scenario(2, 2)
    _require_binary(scenario, 2)
    signs = tuple(sign_pattern)
    if len(signs) != 4 or any(s not in (1, -1, 1.0, -1.0) for s in signs):
        raise BadSignPattern(f"expected four signs +-1, got {sign_pattern!r}")
    if sum(1 for s in signs if s < 0) != 1:
        raise BadSignPattern("exactly one sign in the CHSH pattern must be negative")
    coeffs = np.zeros(scenario.shape)
    correlator = np.array([[1.0, -1.0], [-1.0, 1.0]])  # +1 when outcomes agree
    for pos, (alpha, beta) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        coeffs[alpha, beta] = signs[pos] * correlator
    return BellFunctional(scenario, coeffs, 2.0, Direction.AT_MOST)


def relabel_outputs(b: Behavior, side: Side, perm: Sequence[int]) -> Behavior:
    """Permute one side's outcome labels; outcome i becomes perm[i]."""
    _check_side(side)
    size = b.scenario.alphabet(side).size
    perm = tuple(int(x) for x in perm)
    if sorted(perm) != list(range(size)):
        raise BadPermutation(f"{perm!r} is not a permutation of 0..{size - 1}")
    source = np.argsort(perm)  # new index -> old index
    if side == "A":
        table = b.p[:, :, source, :]
    else:
        table = b.p[:, :, :, source]
    return Behavior(b.scenario, table)


# ---------------------------------------------------------------------------
# JSON file formats: the checks behavior, tally and local-model files share
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = {"settings_a", "settings_b", "outcomes_a", "outcomes_b"}


def _check_fields(data, keys: set[str], what: str, ignore: Sequence[str] = ()) -> None:
    """A ``what`` document is a JSON object with exactly ``keys``, plus any of ``ignore``."""
    if not isinstance(data, dict):
        raise SchemaError(f"{what} document must be a JSON object")
    unknown = set(data) - keys - set(ignore)
    if unknown:
        raise SchemaError(f"unknown fields in {what} document: {sorted(unknown)}")
    missing = keys - set(data)
    if missing:
        raise SchemaError(f"missing fields in {what} document: {sorted(missing)}")


def _scenario_to_json(scenario: Scenario) -> dict:
    return {
        "settings_a": scenario.settings_a,
        "settings_b": scenario.settings_b,
        "outcomes_a": list(scenario.outcomes_a.symbols),
        "outcomes_b": list(scenario.outcomes_b.symbols),
    }


def _scenario_from_json(data: dict, what: str, **arrays) -> tuple:
    """The scenario of a checked ``what`` document, then each ``key=dtype`` field as an array."""
    try:
        scenario = Scenario(
            int(data["settings_a"]),
            int(data["settings_b"]),
            Alphabet.from_symbols(data["outcomes_a"]),
            Alphabet.from_symbols(data["outcomes_b"]),
        )
        return (scenario, *(np.asarray(data[key], dtype=dtype) for key, dtype in arrays.items()))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed {what} document: {exc}") from exc


_BEHAVIOR_KEYS = _SCENARIO_KEYS | {"p"}


def behavior_to_json_dict(b: Behavior) -> dict:
    """Serialize in the documented behavior file schema."""
    return {**_scenario_to_json(b.scenario), "p": b.p.tolist()}


def behavior_from_json_dict(data: dict, ignore: Sequence[str] = ()) -> Behavior:
    """Parse the behavior file schema; unknown fields are rejected.

    ``ignore`` names companion keys that may ride along in derived files
    (the estimate file adds "stderr" and "totals"); anything else unknown
    raises SchemaError.
    """
    _check_fields(data, _BEHAVIOR_KEYS, "behavior", ignore)
    scenario, table = _scenario_from_json(data, "behavior", p=float)
    return Behavior(scenario, table)
