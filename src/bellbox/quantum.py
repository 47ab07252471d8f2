"""Behaviors of a two-qubit entangled source under planar spin measurements.

Settings are measurement angles in the x-z plane of the Bloch sphere: the
projector pair for angle theta is onto the +1/-1 eigenvectors of
cos(theta) Z + sin(theta) X.  Spin-1/2 conventions are used throughout
(period 2*pi in the analyzer angle); polarizer angles from photon setups
must be doubled before use.

All probabilities are plain float64 with nothing claimed below 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PlanMismatch
from .model import Behavior, Scenario

_NORM_ATOL = 1e-12


@dataclass(frozen=True)
class PureTwoQubitState:
    """Four complex amplitudes in the product basis 00, 01, 10, 11."""

    c00: complex
    c01: complex
    c10: complex
    c11: complex

    def __post_init__(self):
        for name in ("c00", "c01", "c10", "c11"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        norm = float(sum(abs(c) ** 2 for c in self.amplitudes().ravel()))
        if abs(norm - 1.0) > _NORM_ATOL:
            raise ValueError(f"state norm^2 is {norm!r}, expected 1 within {_NORM_ATOL}")

    def amplitudes(self) -> np.ndarray:
        """Amplitudes as a (2, 2) array indexed (first qubit, second qubit)."""
        return np.array([[self.c00, self.c01], [self.c10, self.c11]])


_SQRT_HALF = math.sqrt(0.5)

SINGLET = PureTwoQubitState(0.0, _SQRT_HALF, -_SQRT_HALF, 0.0)
PHI_PLUS = PureTwoQubitState(_SQRT_HALF, 0.0, 0.0, _SQRT_HALF)


def parse_state_spec(text: str) -> PureTwoQubitState:
    """Parse the CLI-facing state spec.

    Accepts "singlet", "phi_plus", or
    "amps:re00,im00,re01,im01,re10,im10,re11,im11".
    """
    if text == "singlet":
        return SINGLET
    if text == "phi_plus":
        return PHI_PLUS
    if text.startswith("amps:"):
        parts = text[len("amps:") :].split(",")
        if len(parts) != 8:
            raise ValueError(f"amps spec needs 8 numbers, got {len(parts)}")
        values = [float(p) for p in parts]
        return PureTwoQubitState(
            complex(values[0], values[1]),
            complex(values[2], values[3]),
            complex(values[4], values[5]),
            complex(values[6], values[7]),
        )
    raise ValueError(f"unknown state spec {text!r}")


@dataclass(frozen=True)
class MeasurementPlan:
    """One measurement angle (radians) per setting on each side."""

    angles_a: tuple[float, ...]
    angles_b: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "angles_a", tuple(float(x) for x in self.angles_a))
        object.__setattr__(self, "angles_b", tuple(float(x) for x in self.angles_b))
        if not self.angles_a or not self.angles_b:
            raise PlanMismatch("a measurement plan needs at least one angle per side")

    @classmethod
    def from_degrees(cls, angles_a: Sequence[float], angles_b: Sequence[float]) -> "MeasurementPlan":
        return cls(
            tuple(math.radians(x) for x in angles_a),
            tuple(math.radians(x) for x in angles_b),
        )


def _eigenvector_table(angles: Sequence[float]) -> np.ndarray:
    """(settings, outcome, component) table of projector eigenvectors."""
    half = np.asarray(angles, dtype=float) / 2.0
    plus = np.stack([np.cos(half), np.sin(half)], axis=-1)
    minus = np.stack([-np.sin(half), np.cos(half)], axis=-1)
    return np.stack([plus, minus], axis=1)


def behavior_from_state(state: PureTwoQubitState, plan: MeasurementPlan) -> Behavior:
    """Joint outcome probabilities of the state under the plan's projectors.

    p(alpha, beta, a, b) = |<v_a(theta_alpha) x v_b(theta_beta) | psi>|^2,
    on the binary scenario with one setting per angle.  The result is a
    valid nonsignalling behavior; non-finite angles raise BadNormalization.
    """
    scenario = Scenario(len(plan.angles_a), len(plan.angles_b))
    va = _eigenvector_table(plan.angles_a)
    vb = _eigenvector_table(plan.angles_b)
    amp = np.einsum("xai,ybj,ij->xyab", va, vb, state.amplitudes())
    return Behavior(scenario, np.abs(amp) ** 2)


def singlet_joint(delta: float) -> np.ndarray:
    """Closed-form singlet outcome table at analyzer separation ``delta``.

    Returns the 2x2 array [[p(+,+), p(+,-)], [p(-,+), p(-,-)]] with
    p(+,+) = p(-,-) = (1 - cos delta)/4 and p(+,-) = p(-,+) =
    (1 + cos delta)/4.  Kept deliberately independent of
    :func:`behavior_from_state` so the two can cross-check each other.
    """
    anti = (1.0 + math.cos(delta)) / 4.0
    corr = (1.0 - math.cos(delta)) / 4.0
    return np.array([[corr, anti], [anti, corr]])
