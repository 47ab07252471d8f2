"""Independent reference answers: closed forms and scipy's HiGHS solver.

Nothing here calls bellbox.  Strategy matrices are enumerated afresh and
every LP goes to ``scipy.optimize.linprog(method="highs")``, so a verdict
that agrees with these functions agrees with a second solver.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# HiGHS works to a primal feasibility tolerance of 1e-7.  A residual above
# RESIDUAL_OUTSIDE means "outside the polytope", below RESIDUAL_INSIDE
# "inside"; bellbox's own feasibility threshold (1e-9) sits between them.
RESIDUAL_INSIDE = 1e-7
RESIDUAL_OUTSIDE = 1e-6


def singlet_table(angles_a_deg, angles_b_deg) -> np.ndarray:
    """p(alpha, beta, a, b) of the singlet: (1 -/+ cos delta) / 4."""
    delta = np.radians(np.subtract.outer(angles_a_deg, angles_b_deg))
    corr = (1.0 - np.cos(delta)) / 4.0
    anti = (1.0 + np.cos(delta)) / 4.0
    return np.stack([np.stack([corr, anti], -1), np.stack([anti, corr], -1)], -2)


def nonsignalling_defect(p: np.ndarray) -> float:
    pa = p.sum(axis=3)
    pb = p.sum(axis=2)
    return float(max(np.ptp(pa, axis=1).max(), np.ptp(pb, axis=0).max()))


def chi_square(totals: np.ndarray) -> tuple[float, float]:
    """Pearson statistics of a settings histogram: uniformity, independence."""
    h = np.asarray(totals, dtype=float)
    n = h.sum()
    uniform = ((h - n / h.size) ** 2 / (n / h.size)).sum()
    product = h.sum(axis=1, keepdims=True) * h.sum(axis=0, keepdims=True) / n
    return float(uniform), float(((h - product) ** 2 / product).sum())


def linprog(*args, **kwargs):
    from scipy.optimize import linprog as highs  # imported late: the timed passes never need scipy

    return highs(*args, **kwargs)


def strategies(settings: int, outcomes: int) -> np.ndarray:
    return np.array(list(itertools.product(range(outcomes), repeat=settings)), dtype=int)


@functools.lru_cache(maxsize=16)
def vertex_matrix(sa: int, sb: int, ka: int, kb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cells, strategies) matrix of deterministic behaviors, plus f_a, f_b per column.

    Cached: callers must not write to the returned arrays.
    """
    fa, fb = strategies(sa, ka), strategies(sb, kb)
    ind_a = (fa[:, :, None] == np.arange(ka)).astype(float)  # (na, sa, ka)
    ind_b = (fb[:, :, None] == np.arange(kb)).astype(float)
    m = np.einsum("ixa,jyb->xyabij", ind_a, ind_b).reshape(sa * sb * ka * kb, -1)
    cols_a = np.repeat(fa, len(fb), axis=0)
    cols_b = np.tile(fb, (len(fa), 1))
    return m, cols_a, cols_b


def membership_residual(p: np.ndarray) -> float:
    """Smallest L1 distance between p and a mixture of local strategies."""
    sa, sb, ka, kb = p.shape
    m, _, _ = vertex_matrix(sa, sb, ka, kb)
    cells, n = m.shape
    a_eq = np.hstack([m, np.eye(cells), -np.eye(cells)])
    cost = np.concatenate([np.zeros(n), np.ones(2 * cells)])
    res = linprog(cost, A_eq=a_eq, b_eq=p.ravel(), bounds=(0, None), method="highs")
    if res.status != 0:
        raise ArithmeticError(f"HiGHS membership LP ended with status {res.status}")
    return float(res.fun)


def local_visibility(p: np.ndarray) -> float:
    """Largest v in [0, 1] with v*p + (1-v)*uniform local."""
    sa, sb, ka, kb = p.shape
    m, _, _ = vertex_matrix(sa, sb, ka, kb)
    u = np.full(p.size, 1.0 / (ka * kb))
    a_eq = np.hstack([m, -(p.ravel() - u)[:, None]])
    cost = np.zeros(m.shape[1] + 1)
    cost[-1] = -1.0
    bounds = [(0, None)] * m.shape[1] + [(0, 1)]
    res = linprog(cost, A_eq=a_eq, b_eq=u, bounds=bounds, method="highs")
    if res.status != 0:
        raise ArithmeticError(f"HiGHS visibility LP ended with status {res.status}")
    return float(res.x[-1])


def loophole_feasible(target: np.ndarray, eta: float, mode: str) -> bool:
    """Is there a three-outcome local model whose click-click block is eta^2 * target?"""
    sa, sb = target.shape[:2]
    m, fa, fb = vertex_matrix(sa, sb, 3, 3)
    coincidence = m.reshape(sa, sb, 3, 3, -1)[:, :, :2, :2].reshape(-1, m.shape[1])
    rows = [coincidence]
    rhs = [eta * eta * target.ravel()]
    if mode == "strict":
        rows += [(fa != 2).T.astype(float), (fb != 2).T.astype(float)]
        rhs += [np.full(sa, eta), np.full(sb, eta)]
    rows.append(np.ones((1, m.shape[1])))
    rhs.append(np.ones(1))
    res = linprog(
        np.zeros(m.shape[1]), A_eq=np.vstack(rows), b_eq=np.concatenate(rhs),
        bounds=(0, None), method="highs",
    )
    if res.status not in (0, 2):
        raise ArithmeticError(f"HiGHS loophole LP ended with status {res.status}")
    return res.status == 0


CHSH_STRICT_ETA = 2.0 / (1.0 + math.sqrt(2.0))  # Garg & Mermin 1987
