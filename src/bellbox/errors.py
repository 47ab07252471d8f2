"""Exception types shared across the package.

Error classes are named after the contract violation they signal, so callers
can catch precisely the failure mode they care about.  All inherit from
:class:`BellBoxError`.
"""


class BellBoxError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(BellBoxError):
    """A probability or coefficient table does not match the scenario shape."""


class NegativeEntry(BellBoxError):
    """A probability entry is below zero beyond tolerance."""


class BadNormalization(BellBoxError):
    """Some setting-pair block does not sum to one within tolerance."""


class SettingOutOfRange(BellBoxError):
    """A setting index is outside the scenario's range."""


class ScenarioMismatch(BellBoxError):
    """Two objects built for different scenarios were combined."""


class ScenarioTooSmall(BellBoxError):
    """The scenario lacks the settings required by the construction."""


class DuplicateSetting(BellBoxError):
    """Setting indices that must be distinct coincide."""


class BadPermutation(BellBoxError):
    """An outcome relabeling is not a permutation of the alphabet."""


class AlphabetMismatch(BellBoxError):
    """An operation requires a different outcome alphabet than supplied."""


class SchemaError(BellBoxError):
    """A JSON document does not follow the documented file format."""


class SizeLimit(BellBoxError):
    """An input exceeds a size cap: 10**6 strategies, or 2**16 setting pairs in a run log."""


class SignallingInput(BellBoxError):
    """The operation requires a nonsignalling behavior."""


class SignallingTarget(BellBoxError):
    """A detection-model target behavior is signalling."""


class EfficiencyOutOfRange(BellBoxError):
    """A detector efficiency lies outside [0, 1]."""


class ZeroCoincidence(BellBoxError):
    """Post-selection hit a setting pair with no coincidence mass."""

    def __init__(self, alpha: int, beta: int):
        super().__init__(f"no coincidence mass at setting pair ({alpha}, {beta})")
        self.alpha = alpha
        self.beta = beta


class MixedScenario(BellBoxError):
    """Counts or run-log indices do not fit the scenario they are tallied in."""


class EmptySettingPair(BellBoxError):
    """A tally block has no runs, so no estimate exists for it."""

    def __init__(self, alpha: int, beta: int):
        super().__init__(f"no runs recorded at setting pair ({alpha}, {beta})")
        self.alpha = alpha
        self.beta = beta


class PlanMismatch(BellBoxError):
    """A measurement plan has no angle on some side."""
