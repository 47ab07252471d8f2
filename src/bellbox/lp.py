"""Two-phase revised simplex for equality-form linear programs.

Solves  min c'x  subject to  A x = b,  x >= 0.  The solver keeps an explicit
m x m basis inverse and the basic solution, and prices every column straight
from the caller's A, which it neither copies nor writes.  Each pivot costs
at most one m x n vector-matrix product plus O(m^2) work, and the working
memory beyond A is O(m^2 + n), so the loophole LPs (tens of rows, thousands
of columns) stay cheap.

Phase 1 picks the entering column by Bland's smallest-index rule (the
lowest column index with a negative reduced cost).  Phase 2 uses Dantzig's
rule (the most negative reduced cost, lowest index on ties) and falls back
to Bland's after ``_STALL`` consecutive degenerate pivots, until the next
pivot that moves the solution; Bland's rule cannot cycle, so neither can
the mix.  Both phases take the minimum-ratio leaving row, tie-broken by the
lowest basic-variable index, so every solve is deterministic.

Phase 1 starts from a crash basis (Bixby, ORSA J. Comput. 4:267, 1992):
row i takes the lowest column of A whose only nonzero entry is a_ij, with
b_i / a_ij >= 0, and every other row its artificial s_i e_i, s_i the sign
of b_i.  So the starting basis is diagonal, x_B = b_i / a_ij or |b_i|, and
columns and duals come out in the caller's row signs.  Phase 1 minimizes
the sum of the artificials left, so an LP whose rows all crash (such as the
weak loophole threshold LP, whose one-cell strategies are unit columns)
takes no phase-1 pivot.  An artificial that leaves the basis never returns:
both phases price only the n columns of A.  If the phase-1 optimum exceeds
``feas_tol`` the program is infeasible and the phase-1 dual y = c_B B^-1 is
a Farkas witness: y'A <= 0 (up to tolerance) and y'b = c_B x_B > 0, since
crash columns cost nothing and price at zero.  Otherwise
remaining basic artificials are pivoted out; one that cannot be (its row is
linearly dependent on the others) stays basic at zero, and its row takes no
part in any later ratio test.  Phase 2 then optimizes the real objective.

The inverse is updated in place at each pivot and rebuilt from A only when
the chosen pivot element is small, since that element may be roundoff the
updates have piled up.  Every optimal point and infeasibility certificate is
also checked against A before it is returned (the point against A x = b, the
certificate against y'A <= 0 < y'b), so a basis inverse wrecked by roundoff
raises ArithmeticError rather than giving a wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 200_000
# Column entries and reduced costs within _PIVOT_TOL of zero count as zero.
_PIVOT_TOL = 1e-10
# Roundoff piles up in the updated basis inverse, and on degenerate LPs an
# entry that is zero in exact arithmetic can grow past _PIVOT_TOL; pivoting on
# it wrecks the inverse.  So a pivot element below _SMALL_PIVOT is first
# recomputed from a basis inverse rebuilt from A.
_SMALL_PIVOT = 1e-6
# Each answer is also checked against A itself before it is returned.  Sound
# solves of the package's LPs stay below 1e-10 in every checked quantity; a
# wrecked inverse misses by many orders of magnitude more.
_LOST = 1e-7
# Columns are priced this many at a time, up to the first block that holds an
# entering column: on the loophole LPs Bland's entering index is mostly in
# the first tenth of the columns, and a slice of A stays in cache.
_PRICE_BLOCK = 512
# Phase 2 falls back from Dantzig's to Bland's entering rule after this many
# degenerate pivots in a row, which rules out cycling.  A pivot is degenerate
# when its step, x_p / column_p, is at most _STEP_TOL.
_STALL = 50
_STEP_TOL = 1e-12


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of one solve.

    ``x`` and ``objective`` are set when status is "optimal";
    ``farkas`` is set when status is "infeasible"; ``infeasibility``
    always carries the phase-1 optimum.  ``pivots`` counts the pivots of
    phase 1 (artificials driven out included) and of phase 2.
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    infeasibility: float
    farkas: np.ndarray | None
    pivots: tuple[int, int]


def solve_standard_form(a_eq, b_eq, cost=None, *, feas_tol: float = 1e-9) -> SimplexResult:
    """Solve min cost'x s.t. a_eq x = b_eq, x >= 0.

    ``cost=None`` means a pure feasibility problem (phase 1 only, then the
    zero objective is trivially optimal at the feasible point found).
    ``a_eq`` is only read, so a read-only array is passed without a copy.
    """
    a = np.asarray(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float).ravel()
    if a.ndim != 2 or a.shape[0] != b.size:
        raise ValueError(f"constraint shapes disagree: A {a.shape}, b {b.shape}")
    m, n = a.shape
    c = np.zeros(n) if cost is None else np.array(cost, dtype=float).ravel()
    if c.size != n:
        raise ValueError(f"cost length {c.size} != number of columns {n}")

    # Phase 1: unit cost on the artificials, which never re-enter.
    basis = _Basis(a, b)
    status, phase1_pivots, y = _iterate(basis, np.concatenate([np.zeros(n), np.ones(m)]))
    if status != OPTIMAL:  # pragma: no cover - phase 1 is bounded below by 0
        raise ArithmeticError("phase 1 reported unbounded; numerical breakdown")
    phase1 = float(np.sum(basis.x[basis.index >= n]))
    if phase1 > feas_tol:
        if (y @ a).max(initial=0.0) > _LOST or y @ b <= 0.0:
            raise ArithmeticError("simplex lost accuracy: invalid Farkas certificate")
        return SimplexResult(INFEASIBLE, None, None, phase1, y, (phase1_pivots, 0))
    if basis.x.min(initial=0.0) < -_LOST:
        raise ArithmeticError("simplex lost accuracy: negative basic solution")

    # Pivot leftover basic artificials out on any original column; a row with
    # no eligible column is redundant and is retired from the ratio tests.
    for row in range(m):
        if basis.index[row] < n:
            continue
        tableau_row = basis.inv[row] @ a
        eligible = np.nonzero((np.abs(tableau_row) > _PIVOT_TOL) & basis.nonbasic[:n])[0]
        if eligible.size:
            q = int(eligible[0])
            basis.pivot(row, q, basis.column(q))
            phase1_pivots += 1
        else:
            basis.live[row] = False

    # Pivoting out an artificial that phase 1 left positive (by at most
    # feas_tol) can push basic values below zero, and phase 2 keeps them there;
    # x is checked for sign only when that did not happen.
    signed = basis.x.min(initial=0.0) >= -_LOST

    # Phase 2 on the original columns with the real objective.
    status, phase2_pivots, y = _iterate(basis, np.concatenate([c, np.zeros(m)]), dantzig=True)
    pivots = (phase1_pivots, phase2_pivots)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, phase1, None, pivots)

    real = basis.index < n
    basic = basis.index[real]
    x = np.zeros(n)
    x[basic] = basis.x[real]
    # x must solve A x = b as closely as phase 1 claimed, and the duals must
    # price the basic columns at zero.
    if (
        (signed and x.min(initial=0.0) < -_LOST)
        or np.abs(a @ x - b).max(initial=0.0) > feas_tol + _LOST
        or np.abs(c[basic] - y @ a[:, basic]).max(initial=0.0) > _LOST
    ):
        raise ArithmeticError("simplex lost accuracy: basic solution fails its checks")
    return SimplexResult(OPTIMAL, x, float(c @ x), phase1, None, pivots)


class _Basis:
    """Basis inverse B^-1, basic solution x_B and basic indices over [A | diag(s)].

    Column j < n is ``A[:, j]``; column n + i is the artificial s_i e_i, with
    s_i the sign of b_i, and once it leaves the basis it never comes back.
    The starting basis is the crash basis: the artificial of row i only
    where no unit column of A can start basic in row i at x_i >= 0.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        m, self.n = a.shape
        self.a, self.b = a, b
        self.signs = np.where(b < 0.0, -1.0, 1.0)
        diagonal = self.signs.copy()
        self.index = np.arange(self.n, self.n + m)
        # Crash: a column of A whose one nonzero a_ij has b_i / a_ij >= 0
        # replaces artificial i, the lowest such column per row.
        (unit,) = np.nonzero(np.count_nonzero(a, axis=0) == 1)
        _, rows = np.nonzero(a[:, unit].T)
        entries = a[rows, unit]
        fits = b[rows] / entries >= 0.0
        rows, first = np.unique(rows[fits], return_index=True)
        self.index[rows] = unit[fits][first]
        diagonal[rows] = entries[fits][first]
        self.inv = np.diag(1.0 / diagonal)
        self.x = b / diagonal
        self.nonbasic = np.ones(self.n + m, dtype=bool)
        self.nonbasic[self.index] = False
        self.live = np.ones(m, dtype=bool)

    def column(self, q: int) -> np.ndarray:
        return self.inv @ self.a[:, q]

    def refactor(self) -> None:
        """Rebuild B^-1 and x_B from A and the basic indices."""
        real = self.index < self.n
        basis_matrix = np.zeros_like(self.inv)
        basis_matrix[:, real] = self.a[:, self.index[real]]
        artificial = np.nonzero(~real)[0]
        rows = self.index[artificial] - self.n
        basis_matrix[rows, artificial] = self.signs[rows]
        try:
            self.inv = np.linalg.inv(basis_matrix)
        except np.linalg.LinAlgError:
            raise ArithmeticError("simplex lost accuracy: singular basis") from None
        self.x = self.inv @ self.b

    def pivot(self, p: int, q: int, column: np.ndarray) -> None:
        inv_p = self.inv[p] / column[p]
        x_p = self.x[p] / column[p]
        self.inv -= np.outer(column, inv_p)
        self.x -= column * x_p
        self.inv[p] = inv_p
        self.x[p] = x_p
        self.nonbasic[self.index[p]] = True
        self.nonbasic[q] = False
        self.index[p] = q


def _iterate(basis: _Basis, cost: np.ndarray, dantzig: bool = False) -> tuple[str, int, np.ndarray]:
    """Pivots on the columns of A until optimal or unbounded; returns the
    status, the pivot count and the final duals.  The entering rule is
    Bland's, or with ``dantzig`` Dantzig's until ``_STALL`` degenerate
    pivots in a row."""
    degenerate = 0
    for pivots in range(_MAX_PIVOTS):
        duals = cost[basis.index] @ basis.inv
        if dantzig and degenerate < _STALL:
            q = _most_negative(basis, cost, duals)
        else:
            q = _first_negative(basis, cost, duals)
        if q is None:
            return OPTIMAL, pivots, duals
        column = basis.column(q)
        p = _leaving_row(basis, column)
        if p is not None and abs(column[p]) < _SMALL_PIVOT:
            basis.refactor()
            column = basis.column(q)
            p = _leaving_row(basis, column)
        if p is None:
            return UNBOUNDED, pivots, duals
        degenerate = degenerate + 1 if basis.x[p] <= _STEP_TOL * column[p] else 0
        basis.pivot(p, q, column)
    raise ArithmeticError("simplex pivot limit exceeded")


def _leaving_row(basis: _Basis, column: np.ndarray) -> int | None:
    """Minimum-ratio row for the entering column, or None when it is unbounded."""
    rows = np.nonzero((column > _PIVOT_TOL) & basis.live)[0]
    if rows.size == 0:
        return None
    ratios = basis.x[rows] / column[rows]
    best = ratios.min()
    ties = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
    return int(ties[np.argmin(basis.index[ties])])  # Bland: smallest basic index


def _first_negative(basis: _Basis, cost: np.ndarray, duals: np.ndarray) -> int | None:
    """Bland's entering column: the lowest nonbasic index with a reduced cost
    below -_PIVOT_TOL, or None."""
    for start in range(0, basis.n, _PRICE_BLOCK):
        stop = min(start + _PRICE_BLOCK, basis.n)
        reduced = cost[start:stop] - duals @ basis.a[:, start:stop]
        hits = np.nonzero((reduced < -_PIVOT_TOL) & basis.nonbasic[start:stop])[0]
        if hits.size:
            return start + int(hits[0])
    return None


def _most_negative(basis: _Basis, cost: np.ndarray, duals: np.ndarray) -> int | None:
    """Dantzig's entering column: the nonbasic index with the most negative
    reduced cost (the lowest such index on ties), if that cost is below
    -_PIVOT_TOL, else None."""
    reduced = cost[: basis.n] - duals @ basis.a
    reduced[~basis.nonbasic[: basis.n]] = 0.0
    q = int(np.argmin(reduced))
    return q if reduced[q] < -_PIVOT_TOL else None
