"""Imperfect detection, post-selection, and detection-loophole models.

Two pictures of an inefficient detector are implemented side by side:

* fair sampling -- each station clicks independently of everything with
  probability eta; :func:`apply_fair_sampling` pushes a binary behavior to
  the three-outcome alphabet and :func:`post_select` inverts it.

* strategy-dependent detection -- the hidden strategy may decide whether a
  station clicks.  :func:`construct_loophole_model` searches, by LP
  feasibility over all three-outcome deterministic local strategies, for a
  local model whose coincidence statistics reproduce a target behavior at
  a given efficiency.  In "strict" mode the model's click rates must also
  be eta for every setting, so from the observable singles and coincidence
  rates it is indistinguishable from a fair-sampling experiment.

:func:`critical_efficiency` finds the threshold below which the loophole can
mimic the target.  Strict mode bisects the efficiency axis against that
feasibility.  Weak mode is exact: feasibility at eta is linear in
t = eta^2, and its Charnes-Cooper form is the single LP
min 1'r s.t. M_coinc r = target, r >= 0, whose optimum is 1/t*.  Either way
eta=0 needs no LP, since the never-click strategy reproduces an empty
coincidence block.

The no-detection outcome is always the last outcome index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import lp
from .errors import (
    AlphabetMismatch,
    EfficiencyOutOfRange,
    SignallingTarget,
    ZeroCoincidence,
)
from .model import Behavior, Scenario, nonsignalling_defect
from .polytope import DEFAULT_TOL, LocalModel, LocalStrategy, _solution_model, _vertex_data

ConstraintMode = Literal["strict", "weak"]

BISECT_TOL_DEFAULT = 1e-3
BISECT_MAX_ITER = 30


@dataclass(frozen=True, eq=False)
class ThresholdResult:
    """Outcome of a critical-efficiency search.

    ``eta_star`` is exactly 1.0 for local targets.  In strict mode it is the
    midpoint of the final bisection bracket, ``feasible_model`` is the
    loophole model found at the largest feasible probe, and the trace lists
    every probe in order.  In weak mode ``eta_star`` is the exact threshold
    eta* from one LP and ``feasible_model`` the loophole model at eta*; the
    trace is (0, True), (1, False) and the bracket eta* -/+ tol_eta/2
    (True, False), its upper end clipped at 1.  The bracket's ends are
    certified, not probed: below eta* the model mixed with the never-click
    strategy works, and above it the LP's optimum rules every model out.
    """

    eta_star: float
    mode: ConstraintMode
    feasible_model: LocalModel
    bisection_trace: tuple[tuple[float, bool], ...]


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise EfficiencyOutOfRange(f"efficiency {eta!r} outside [0, 1]")


def _require_binary_behavior(b: Behavior, what: str) -> None:
    if not b.scenario.is_binary():
        raise AlphabetMismatch(f"{what} must have binary outcomes on both sides")


def apply_fair_sampling(b: Behavior, eta_a: float, eta_b: float) -> Behavior:
    """Embed a binary behavior into the three-outcome alphabet.

    Each side clicks independently with its efficiency, regardless of
    setting and outcome; missed clicks land on the no-detection outcome.
    """
    _require_binary_behavior(b, "fair-sampling input")
    _check_eta(eta_a)
    _check_eta(eta_b)
    extended = b.scenario.with_no_click()
    table = np.zeros(extended.shape)
    marg_a = b.p.sum(axis=3)  # (alpha, beta, a)
    marg_b = b.p.sum(axis=2)  # (alpha, beta, b)
    table[:, :, :2, :2] = eta_a * eta_b * b.p
    table[:, :, :2, 2] = eta_a * (1.0 - eta_b) * marg_a
    table[:, :, 2, :2] = (1.0 - eta_a) * eta_b * marg_b
    table[:, :, 2, 2] = (1.0 - eta_a) * (1.0 - eta_b)
    return Behavior(extended, table)


def post_select(q: Behavior) -> tuple[Behavior, np.ndarray]:
    """Condition on both stations clicking.

    Returns the renormalized binary behavior plus the per-setting-pair
    coincidence rates.  Raises ZeroCoincidence when a setting pair has no
    coincidence mass to condition on.
    """
    ka = 2 if q.scenario.outcomes_a.size == 3 else q.scenario.outcomes_a.size
    kb = 2 if q.scenario.outcomes_b.size == 3 else q.scenario.outcomes_b.size
    joint = q.p[:, :, :ka, :kb]
    rates = joint.sum(axis=(2, 3))
    bad = np.argwhere(rates <= 1e-12)
    if bad.size:
        raise ZeroCoincidence(int(bad[0, 0]), int(bad[0, 1]))
    binary = Scenario(q.scenario.settings_a, q.scenario.settings_b)
    return Behavior(binary, joint / rates[:, :, None, None]), rates


def _coincidence_block(target: Behavior) -> tuple[tuple[LocalStrategy, ...], np.ndarray]:
    """Three-outcome strategies and the rows of their click-click cells."""
    strategies, matrix = _vertex_data(target.scenario.with_no_click())
    sa, sb = target.scenario.settings_a, target.scenario.settings_b
    cell_table = np.arange(sa * sb * 9).reshape(sa, sb, 3, 3)
    return strategies, matrix[:, cell_table[:, :, :2, :2].ravel()].T


def _loophole_lp(target: Behavior, eta: float, mode: ConstraintMode) -> LocalModel | None:
    strategies, coincidence = _coincidence_block(target)
    n = len(strategies)
    sa, sb = target.scenario.settings_a, target.scenario.settings_b

    # Coincidence block: model mass on (a, b) clicks equals eta^2 * target.
    rows = [coincidence]
    rhs = [eta * eta * target.p.ravel()]

    if mode == "strict":
        # Observable click rates pinned to eta for every setting on each side.
        fa = np.array([s.f_a for s in strategies])
        fb = np.array([s.f_b for s in strategies])
        rows.append((fa != 2).T * 1.0)  # (settings_a, n)
        rhs.append(np.full(sa, eta))
        rows.append((fb != 2).T * 1.0)
        rhs.append(np.full(sb, eta))

    rows.append(np.ones((1, n)))
    rhs.append(np.ones(1))

    result = lp.solve_standard_form(
        np.vstack(rows), np.concatenate(rhs), feas_tol=DEFAULT_TOL
    )
    if result.status == lp.INFEASIBLE:
        return None
    return _solution_model(result.x, strategies)


def _check_target(target: Behavior, mode: ConstraintMode) -> None:
    _require_binary_behavior(target, "loophole target")
    if mode not in ("strict", "weak"):
        raise ValueError(f"unknown constraint mode {mode!r}")
    defect = nonsignalling_defect(target)
    if defect > DEFAULT_TOL:
        raise SignallingTarget(f"target defect {defect:.3g} exceeds {DEFAULT_TOL:.0e}")


def construct_loophole_model(
    target: Behavior, eta: float, mode: ConstraintMode = "strict"
) -> LocalModel | None:
    """Local three-outcome model reproducing ``target`` after post-selection.

    The LP constrains the model's click-click block to eta^2 * target for
    every setting pair ("weak" mode); "strict" mode additionally pins each
    side's click probability to eta for every setting.  Returns None when
    no such model exists at this efficiency.
    """
    _check_eta(eta)
    _check_target(target, mode)
    return _loophole_lp(target, eta, mode)


def _weak_threshold(target: Behavior, tol_eta: float) -> ThresholdResult:
    # A weak model at eta is q >= 0 with M_coinc q = eta^2 p and 1'q = 1.
    # Each strategy clicks on both sides for a setting pair or not, so
    # 1'r >= 1 whenever M_coinc r = p; r = q / eta^2 turns the largest
    # feasible eta^2 into 1 / min 1'r, and q = r / 1'r is the model there.
    strategies, coincidence = _coincidence_block(target)
    result = lp.solve_standard_form(
        coincidence, target.p.ravel(), np.ones(len(strategies)), feas_tol=DEFAULT_TOL
    )
    if result.status != lp.OPTIMAL:  # pragma: no cover - one-cell strategies reach any p
        raise ArithmeticError(f"weak threshold LP ended {result.status}")
    model = _solution_model(result.x, strategies)
    if result.objective <= 1.0 + DEFAULT_TOL:
        return ThresholdResult(1.0, "weak", model, ((0.0, True), (1.0, True)))
    eta = math.sqrt(1.0 / result.objective)
    lo, hi = eta - 0.5 * tol_eta, min(eta + 0.5 * tol_eta, 1.0)
    while hi - lo > tol_eta:  # roundoff must not widen the bracket
        lo = math.nextafter(lo, eta)
    return ThresholdResult(eta, "weak", model, ((0.0, True), (1.0, False), (lo, True), (hi, False)))


def critical_efficiency(
    target: Behavior,
    mode: ConstraintMode = "strict",
    tol_eta: float = BISECT_TOL_DEFAULT,
) -> ThresholdResult:
    """The efficiency threshold below which the loophole works.

    eta=0 is always feasible, through the never-click strategy, and eta=1
    exactly when the target itself is local (then the threshold is 1).
    Weak mode solves one LP for the exact threshold and reports a bracket
    of width ``tol_eta`` around it.  Strict mode probes eta=1 and then
    bisects the bracket to ``tol_eta``, capped at 30 iterations.
    """
    if not 0.0 < tol_eta <= 0.1:
        raise ValueError(f"tol_eta {tol_eta!r} outside (0, 0.1]")
    _check_target(target, mode)
    if mode == "weak":
        return _weak_threshold(target, tol_eta)
    trace: list[tuple[float, bool]] = [(0.0, True)]

    def probe(eta: float) -> LocalModel | None:
        model = construct_loophole_model(target, eta, mode)
        trace.append((eta, model is not None))
        return model

    model_one = probe(1.0)
    if model_one is not None:
        return ThresholdResult(1.0, mode, model_one, tuple(trace))

    never_click = LocalStrategy((2,) * target.scenario.settings_a, (2,) * target.scenario.settings_b)
    lo, hi = 0.0, 1.0
    best = LocalModel((never_click,), np.ones(1))
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= tol_eta:
            break
        mid = 0.5 * (lo + hi)
        model = probe(mid)
        if model is not None:
            lo, best = mid, model
        else:
            hi = mid
    return ThresholdResult(0.5 * (lo + hi), mode, best, tuple(trace))


def threshold_to_json_dict(result: ThresholdResult) -> dict:
    """Serialize in the documented threshold file schema (model excluded)."""
    return {
        "eta_star": result.eta_star,
        "mode": result.mode,
        "trace": [[eta, feasible] for eta, feasible in result.bisection_trace],
    }
