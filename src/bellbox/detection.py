"""Imperfect detection, post-selection, and detection-loophole models.

Two pictures of an inefficient detector are implemented side by side:

* fair sampling -- each station clicks independently of everything with
  probability eta; :func:`apply_fair_sampling` pushes a binary behavior to
  the three-outcome alphabet and :func:`post_select` inverts it.

* strategy-dependent detection -- the hidden strategy may decide whether a
  station clicks.  :func:`construct_loophole_model` looks, over all
  three-outcome deterministic local strategies, for a local model whose
  coincidence statistics reproduce a target behavior at a given
  efficiency.  In "strict" mode the model's click rates must also be eta
  for every setting, so it matches a fair-sampling experiment's coincidences
  and each side's click rate, but not the outcomes a side reports when only
  it clicks, which fair sampling also fixes: a strict model can exist at an
  eta where the fair-sampled table is nonlocal.

Both modes ask one question of one LP, LP(u): w(u) = min 1'r s.t.
M_coinc r = u p, r >= 0 (plus C_a r = 1, C_b r = 1 in strict mode).  A model
q at efficiency u is such an r = q / u with 1'r <= 1/u, since the
never-click strategy, a zero column, pads the mass; so u is feasible iff
u w(u) <= 1, and u r padded with never-click is the model.
:func:`construct_loophole_model` solves LP(eta).

:func:`critical_efficiency` finds the threshold below which the loophole
can mimic the target, exactly in both modes.  Weak mode solves LP(1) once:
w is linear in u there, so eta*^2 = 1 / w(1).  Strict mode starts from
the weak threshold and cuts it down with the duals or Farkas vectors of
LP(u) (Kelley's cutting planes; see ``_strict_threshold``), a few LPs in
all.  Either way eta=0 needs no LP, since the never-click strategy
reproduces an empty coincidence block.

The no-detection outcome is always the last outcome index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
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
from .polytope import DEFAULT_TOL, LocalModel, _priced_rows, _solution_model, _table_price

ConstraintMode = Literal["strict", "weak"]

TOL_ETA_DEFAULT = 1e-3


@dataclass(frozen=True, eq=False)
class ThresholdResult:
    """Outcome of a critical-efficiency search.

    ``eta_star`` is the exact threshold eta*, and exactly 1.0 for local
    targets; ``feasible_model`` is the loophole model at eta*.  The trace
    is (0, True), (1, False) and the bracket eta* -/+ tol_eta/2 (True, False), its upper
    end clipped at 1; for a local target it is (0, True), (1, True).  The
    bracket's ends are certified, not probed: the feasible efficiencies
    form the interval [0, eta*], and above eta* the LPs' optima and Farkas
    vectors rule every model out.
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
    joint = q.p[:, :, :2, :2]  # the clicks: every alphabet begins +, -
    rates = joint.sum(axis=(2, 3))
    bad = np.argwhere(rates <= 1e-12)
    if bad.size:
        raise ZeroCoincidence(int(bad[0, 0]), int(bad[0, 1]))
    binary = Scenario(q.scenario.settings_a, q.scenario.settings_b)
    return Behavior(binary, joint / rates[:, :, None, None]), rates


@functools.lru_cache(maxsize=32)
def _loophole_lp(scenario: Scenario):
    """LP(u)'s rows for a binary scenario, on the three-outcome strategies of
    its no-click extension (never-click is the last), and their price: one
    row per click-click cell (alpha, beta, a, b), then the click rows C_a (1
    where f_a(alpha) != 2) and C_b, each stated as the table whose values on
    the strategies are the row.  Weak mode reads the click-click block."""
    sa, sb = scenario.settings_a, scenario.settings_b
    cells = np.eye(sa * sb * 9).reshape(sa, sb, 3, 3, -1)
    clicks_a = cells[:, 0, :2, :].sum(axis=(1, 2))  # A clicks at alpha, read at beta = 0
    clicks_b = cells[0, :, :, :2].sum(axis=(1, 2))
    tables = np.vstack([cells[:, :, :2, :2].reshape(-1, cells.shape[-1]), clicks_a, clicks_b])
    price = _table_price(scenario.with_no_click(), tables)
    return _priced_rows(price, len(tables)), price


def _threshold_lp(target: Behavior, u: float, mode: ConstraintMode) -> lp.SimplexResult:
    """LP(u) of the module docstring on the cached loophole rows."""
    rows, price = _loophole_lp(target.scenario)
    rows = rows[: target.p.size] if mode == "weak" else rows
    rhs = np.concatenate([u * target.p.ravel(), np.ones(len(rows) - target.p.size)])
    return lp.solve_standard_form(rows, rhs, np.ones(rows.shape[1]), feas_tol=DEFAULT_TOL, price=price)


def _feasible(result: lp.SimplexResult, u: float) -> bool:
    return result.status == lp.OPTIMAL and u * result.objective <= 1.0 + DEFAULT_TOL


def _padded_model(result: lp.SimplexResult, u: float, scenario: Scenario) -> LocalModel:
    """The model u r of LP(u)'s optimum r, its mass made up to 1 by the
    never-click strategy (the last one)."""
    weights = u * result.x
    weights[-1] += max(1.0 - weights.sum(), 0.0)
    return _solution_model(weights, scenario.with_no_click())


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

    The model's click-click block is eta^2 * target for every setting pair
    ("weak" mode); "strict" mode additionally pins each side's click
    probability to eta for every setting.  One LP, the threshold LP at
    u = eta, decides; returns None when no such model exists.
    """
    _check_eta(eta)
    _check_target(target, mode)
    result = _threshold_lp(target, eta, mode)
    if not _feasible(result, eta):
        return None
    return _padded_model(result, eta, target.scenario)


def _certified_trace(eta: float, tol_eta: float) -> tuple[tuple[float, bool], ...]:
    """(0, True), (1, False) and the bracket eta -/+ tol_eta/2, its upper end
    clipped at 1 and never wider than tol_eta after roundoff."""
    lo, hi = eta - 0.5 * tol_eta, min(eta + 0.5 * tol_eta, 1.0)
    while hi - lo > tol_eta:
        lo = math.nextafter(lo, eta)
    return ((0.0, True), (1.0, False), (lo, True), (hi, False))


def _weak_threshold(target: Behavior, tol_eta: float) -> ThresholdResult:
    # Weak LP(u) has no click rows, so w(u) = u w(1) and u is feasible iff
    # u^2 w(1) <= 1: eta* = 1 / sqrt(w(1)), one LP.  LP(eta*)'s optimum is
    # eta* r, so the model at eta* is r / w(1), which needs no pad (w(1) >= 1:
    # each strategy clicks on both sides for a setting pair or not).
    # The strategies that click at one setting per side are unit columns of
    # M_coinc, so r = p on them is the solver's starting basis: phase 1 makes
    # no pivot.
    result = _threshold_lp(target, 1.0, "weak")
    if result.status != lp.OPTIMAL:  # pragma: no cover - one-cell strategies reach any p
        raise ArithmeticError(f"weak threshold LP ended {result.status}")
    model = _solution_model(result.x, target.scenario.with_no_click())
    if _feasible(result, 1.0):
        return ThresholdResult(1.0, "weak", model, ((0.0, True), (1.0, True)))
    eta = math.sqrt(1.0 / result.objective)
    return ThresholdResult(eta, "weak", model, _certified_trace(eta, tol_eta))


def _strict_threshold(target: Behavior, tol_eta: float) -> ThresholdResult:
    # Every strict model is a weak one, and a weak model at eta=1 clicks
    # always, so the weak eta* is an upper bound that is exact when it is 1.
    weak = _weak_threshold(target, tol_eta)
    if weak.eta_star == 1.0:
        return replace(weak, mode="strict")
    # LP(u)'s right-hand side is b0 + u b1, so any dual y of it gives
    # w(u') >= a + b u' with a = y'b0, b = y'b1, and every u' with
    # b u'^2 + a u' > 1 fails; a Farkas vector rules out a + b u' > 0.  The
    # feasible u form an interval [0, eta*] (a model at u mixed with
    # one-sided strategies and never-click gives one at any u' < u), so
    # stepping down to the smallest u each cut allows reaches eta* from above.
    k, clicks = target.p.size, target.scenario.settings_a + target.scenario.settings_b
    b0 = np.concatenate([np.zeros(k), np.ones(clicks)])
    b1 = np.concatenate([target.p.ravel(), np.zeros(clicks)])
    u = weak.eta_star
    while True:
        result = _threshold_lp(target, u, "strict")
        if _feasible(result, u):
            break
        if result.status == lp.OPTIMAL:
            a, b = float(result.duals @ b0), float(result.duals @ b1)
            root = a * a + 4.0 * b  # b u^2 + a u = 1 first at u = 2 / (a + sqrt(root))
            step = 2.0 / (a + math.sqrt(root)) if b > 0.0 or (a > 0.0 and root >= 0.0) else math.nan
        else:
            a, b = float(result.farkas @ b0), float(result.farkas @ b1)
            step = -a / b if b > 0.0 else math.nan
        if not 0.0 < step < u:
            raise ArithmeticError(f"strict threshold cut at eta={u!r} gave {step!r}")
        u = step
    model = _padded_model(result, u, target.scenario)
    return ThresholdResult(u, "strict", model, _certified_trace(u, tol_eta))


def critical_efficiency(
    target: Behavior,
    mode: ConstraintMode = "strict",
    tol_eta: float = TOL_ETA_DEFAULT,
) -> ThresholdResult:
    """The efficiency threshold below which the loophole works.

    eta=0 is always feasible, through the never-click strategy, and eta=1
    exactly when the target itself is local (then the threshold is 1).
    Weak mode solves one LP for the exact threshold.  Strict mode starts
    from the weak threshold and refines it by dual cutting planes (Kelley,
    J. SIAM 8:703, 1960), one LP per cut, to the exact threshold; two or
    three LPs in all for the CHSH and 3x3 chained targets.  Both report a
    bracket of width ``tol_eta`` around eta*, and ``tol_eta`` must lie in
    [1e-9, 0.1] so the bracket ends stay apart in floating point.
    """
    if not 1e-9 <= tol_eta <= 0.1:
        raise ValueError(f"tol_eta {tol_eta!r} outside [1e-9, 0.1]")
    _check_target(target, mode)
    if mode == "weak":
        return _weak_threshold(target, tol_eta)
    return _strict_threshold(target, tol_eta)


def threshold_to_json_dict(result: ThresholdResult) -> dict:
    """Serialize in the documented threshold file schema (model excluded)."""
    return {
        "eta_star": result.eta_star,
        "mode": result.mode,
        "trace": [[eta, feasible] for eta, feasible in result.bisection_trace],
    }
