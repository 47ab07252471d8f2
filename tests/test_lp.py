"""The simplex engine against scipy.optimize.linprog as an oracle."""

import numpy as np
import pytest
from scipy.optimize import linprog

import bellbox as bb
from bellbox import lp
from conftest import vertex_data


def scipy_solve(a, b, c):
    return linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")


def test_random_feasible_programs_match_scipy():
    rng = np.random.default_rng(42)
    for trial in range(40):
        m, n = rng.integers(2, 8), rng.integers(3, 14)
        a = rng.normal(size=(m, n))
        x0 = np.abs(rng.normal(size=n))  # guarantees feasibility
        b = a @ x0
        c = rng.normal(size=n)
        reference = scipy_solve(a, b, c)
        if reference.status == 3:  # unbounded: the solver has no such outcome and raises
            with pytest.raises(ArithmeticError, match="no row limits"):
                lp.solve_standard_form(a, b, c)
        else:
            assert reference.status == 0
            result = lp.solve_standard_form(a, b, c)
            assert result.status == lp.OPTIMAL, f"trial {trial}"
            assert result.objective == pytest.approx(reference.fun, abs=1e-7)
            np.testing.assert_allclose(a @ result.x, b, atol=1e-8)
            assert result.x.min() >= -1e-9


def test_random_infeasible_programs_yield_farkas_certificates():
    rng = np.random.default_rng(7)
    found = 0
    for _ in range(60):
        m, n = rng.integers(3, 9), rng.integers(2, 6)
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m) * 3
        reference = scipy_solve(a, b, np.zeros(n))
        result = lp.solve_standard_form(a, b)
        if reference.status == 2:
            found += 1
            assert result.status == lp.INFEASIBLE
            y = result.farkas
            # Farkas: y'A <= 0 (up to tolerance) while y'b > 0.
            assert (y @ a).max() <= 1e-7
            assert y @ b > 1e-9
        else:
            assert result.status == lp.OPTIMAL
            np.testing.assert_allclose(a @ result.x, b, atol=1e-8)
    assert found >= 10  # the sweep actually exercised infeasible cases


def test_duals_match_highs_marginals():
    # A nondegenerate program: x has m positive entries and every other
    # column a positive reduced cost, so the optimal basis and its duals
    # are unique.
    rng = np.random.default_rng(11)
    m, n = 5, 12
    a = rng.normal(size=(m, n))
    b = a @ np.abs(rng.normal(size=n))
    c = np.abs(rng.normal(size=n))
    reference = scipy_solve(a, b, c)
    assert reference.status == 0
    assert np.count_nonzero(reference.x > 1e-6) == m
    reduced = c - reference.eqlin.marginals @ a
    assert np.sort(reduced)[m] > 1e-6
    result = lp.solve_standard_form(a, b, c)
    assert result.status == lp.OPTIMAL
    np.testing.assert_allclose(result.duals, reference.eqlin.marginals, atol=1e-9)
    assert result.duals @ b == pytest.approx(result.objective, abs=1e-9)


def test_unbounded_detection():
    # min -x1 with x1 - x2 = 0: push both up forever.  There is no unbounded
    # outcome, so the column that no row limits raises.
    with pytest.raises(ArithmeticError, match="no row limits entering column 1"):
        lp.solve_standard_form([[1.0, -1.0]], [0.0], [-1.0, 0.0])


def beale():
    """Beale's classic cycling example in standard form with slacks: (A, b, c)."""
    a = np.array(
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.50, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.00, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    return a, np.array([0.0, 0.0, 1.0]), np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])


def test_degenerate_cycling_prone_program():
    # The slacks crash into the starting basis, so phase 1 is empty, and
    # phase 2 starts at the vertex where Dantzig's rule cycles: 50 degenerate
    # pivots, then Bland's rule must end at the scipy optimum.
    a, b, c = beale()
    reference = scipy_solve(a, b, c)
    result = lp.solve_standard_form(a, b, c)
    assert result.status == lp.OPTIMAL
    assert result.objective == pytest.approx(reference.fun, abs=1e-9)
    assert result.pivots == (0, 54)


def test_redundant_rows_are_handled():
    # Second row is twice the first: phase 1 must drop it, not fail.
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    result = lp.solve_standard_form(a, b, [1.0, 0.0])
    assert result.status == lp.OPTIMAL
    assert result.objective == pytest.approx(0.0, abs=1e-12)
    assert result.pivots == (1, 1)  # the redundant row's artificial stays basic
    np.testing.assert_allclose(a @ result.x, b, atol=1e-12)


def test_feasibility_only_solve():
    a = np.array([[1.0, 2.0, 0.5]])
    b = np.array([1.0])
    result = lp.solve_standard_form(a, b)
    assert result.status == lp.OPTIMAL
    assert result.infeasibility <= 1e-9
    np.testing.assert_allclose(a @ result.x, b, atol=1e-12)


def test_shape_validation():
    with pytest.raises(ValueError):
        lp.solve_standard_form([[1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        lp.solve_standard_form([[1.0, 2.0]], [1.0], [1.0])


def singlet(angles_a, angles_b) -> bb.Behavior:
    plan = bb.MeasurementPlan.from_degrees(angles_a, angles_b)
    return bb.behavior_from_state(bb.SINGLET, plan)


@pytest.fixture
def solves(monkeypatch):
    """Every (A, b, result) that lp.solve_standard_form sees while the test runs."""
    seen = []
    solve = lp.solve_standard_form

    def spy(a_eq, b_eq, *args, **kwargs):
        result = solve(a_eq, b_eq, *args, **kwargs)
        seen.append((np.asarray(a_eq), np.asarray(b_eq), result))
        return result

    monkeypatch.setattr(lp, "solve_standard_form", spy)
    return seen


@pytest.fixture
def entering(monkeypatch):
    """(entering column, n) for every pivot a solve makes while the test runs."""
    seen = []
    update = lp._Basis.pivot

    def spy(basis, p, q, column):
        seen.append((q, basis.n))
        update(basis, p, q, column)

    monkeypatch.setattr(lp._Basis, "pivot", spy)
    return seen


def assert_no_artificial_enters(entering):
    # An artificial (column n + i) that leaves the basis never comes back.
    assert entering
    assert all(q < n for q, n in entering)


def test_pinned_pivot_counts(solves, entering, chained_target):
    # Per-phase pivot counts on a weak and a strict loophole probe and a 4x4
    # membership LP: the pivot rule, not just the verdict, is pinned.  The
    # weak probe's crash basis is feasible, so phase 1 makes no pivot, and
    # its verdict comes from the optimum's mass (0.9 w(0.9) > 1).  The
    # membership LP has no unit column, so its crash basis is all artificial.
    chsh = singlet((0.0, 90.0), (45.0, 135.0))
    assert bb.construct_loophole_model(chsh, 0.9, "weak") is None
    assert bb.construct_loophole_model(chained_target, 0.8, "strict") is not None
    angles = np.random.default_rng(2024).uniform(0.0, 360.0, 8)
    p = 0.7 * singlet(angles[:4], angles[4:]).p + 0.075
    assert bb.classify(bb.validate_behavior(bb.Scenario(4, 4), p)).kind == bb.ClassificationKind.LOCAL
    statuses = [(result.status, result.pivots) for _, _, result in solves]
    assert statuses == [
        (lp.OPTIMAL, (0, 16)),
        (lp.OPTIMAL, (846, 63)),
        (lp.OPTIMAL, (273, 0)),
    ]
    # The same two probe LPs, min 1'r, by HiGHS.
    for a, b, result in solves[:2]:
        reference = scipy_solve(a, b, np.ones(a.shape[1]))
        assert reference.status == 0
        assert result.objective == pytest.approx(reference.fun, abs=1e-9)
    assert 0.9 * solves[0][2].objective > 1.0 + 1e-9
    assert_no_artificial_enters(entering)


def assert_farkas(result, a, b):
    y = result.farkas
    assert (y @ a).max() <= 1e-9
    assert y @ b > 0.0


def random_program(rng, kind):
    """A seeded (A, b, c) of one of three kinds, chosen by ``kind``."""
    m, n = int(rng.integers(2, 9)), int(rng.integers(3, 16))
    a = rng.normal(size=(m, n))
    if kind == 0:  # feasible, bounded below by a nonnegative cost
        return a, a @ np.abs(rng.normal(size=n)), np.abs(rng.normal(size=n))
    if kind == 1:  # feasible, often unbounded
        return a, a @ np.abs(rng.normal(size=n)), rng.normal(size=n)
    a = rng.normal(size=(n + 2, m))  # more rows than columns: mostly infeasible
    return a, rng.normal(size=n + 2) * 3, rng.normal(size=m)


def solve_against_highs(a, b, c) -> str:
    """Solve, check status, optimum or Farkas certificate against HiGHS, and return HiGHS's status.

    A program HiGHS finds unbounded must raise ArithmeticError: the solver has no unbounded outcome.
    """
    reference = scipy_solve(a, b, c)
    if reference.status == 3:
        with pytest.raises(ArithmeticError, match="no row limits"):
            lp.solve_standard_form(a, b, c)
        return "unbounded"
    result = lp.solve_standard_form(a, b, c)
    expected = {0: lp.OPTIMAL, 2: lp.INFEASIBLE}[reference.status]
    assert result.status == expected
    if expected == lp.OPTIMAL:
        assert result.objective == pytest.approx(reference.fun, abs=1e-9)
    elif expected == lp.INFEASIBLE:
        assert_farkas(result, a, b)
    return expected


def test_random_programs_agree_with_highs(entering):
    rng = np.random.default_rng(2718)
    seen = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, "unbounded": 0}
    for trial in range(90):
        seen[solve_against_highs(*random_program(rng, trial % 3))] += 1
    assert min(seen.values()) >= 5  # every outcome was exercised
    assert_no_artificial_enters(entering)


@pytest.mark.parametrize("mode", ["strict", "weak"])
@pytest.mark.parametrize("size", [2, 3])
def test_loophole_programs_agree_with_highs(solves, entering, chained_target, size, mode):
    # Each probe solves min 1'r over its LP: the optimum, or in strict mode
    # the Farkas certificate, must match HiGHS.  The weak LP always has a
    # solution (its one-cell strategies reach any target), so there the
    # optimum's mass alone rules an efficiency out.
    target = singlet((0.0, 90.0), (45.0, 135.0)) if size == 2 else chained_target
    found = [bb.construct_loophole_model(target, eta, mode) is not None for eta in (0.5, 0.82, 0.95)]
    assert found[0] and not found[2]
    for a, b, result in solves:
        reference = scipy_solve(a, b, np.ones(a.shape[1]))
        assert reference.status in (0, 2)
        assert result.status == (lp.OPTIMAL if reference.status == 0 else lp.INFEASIBLE)
        if result.status == lp.OPTIMAL:
            assert result.objective == pytest.approx(reference.fun, abs=1e-9)
        else:
            assert_farkas(result, a, b)
    expected = {lp.OPTIMAL, lp.INFEASIBLE} if mode == "strict" else {lp.OPTIMAL}
    assert {result.status for _, _, result in solves} == expected
    assert_no_artificial_enters(entering)


def test_read_only_input_accepted_and_caller_arrays_untouched():
    _, matrix = vertex_data(bb.Scenario(2, 2))
    assert not matrix.flags.writeable
    p = singlet((0.0, 90.0), (45.0, 135.0)).p.ravel()
    result = lp.solve_standard_form(matrix.T, p)
    assert result.status == lp.INFEASIBLE
    assert_farkas(result, matrix.T, p)

    # Negative right-hand sides make the solver flip rows; the caller's
    # arrays must come back exactly as they went in.
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 9))
    b = a @ np.abs(rng.normal(size=9))
    c = np.abs(rng.normal(size=9))
    assert (b < 0).any()
    copies = a.copy(), b.copy(), c.copy()
    result = lp.solve_standard_form(a, b, c)
    assert result.status == lp.OPTIMAL
    for before, after in zip(copies, (a, b, c)):
        np.testing.assert_array_equal(before, after)


def noisy_singlet(n, visibility, angles_a, angles_b) -> bb.Behavior:
    plan = bb.MeasurementPlan.from_degrees(angles_a, angles_b)
    p = visibility * bb.behavior_from_state(bb.SINGLET, plan).p + (1.0 - visibility) / 4.0
    return bb.validate_behavior(bb.Scenario(n, n), p)


def visibility_with_a_v_column(b: bb.Behavior) -> lp.SimplexResult:
    """max v s.t. A x - v (p - u) = u, v + s = 1, over the oracle's vertex matrix
    A, dense-priced: visibility as one LP with v and its slack as columns."""
    _, matrix = vertex_data(b.scenario)
    cells, n = matrix.shape[1], matrix.shape[0]
    u = bb.uniform_behavior(b.scenario).p.ravel()
    a = np.zeros((cells + 1, n + 2))
    a[:cells, :n] = matrix.T
    a[:cells, n] = u - b.p.ravel()
    a[cells, n:] = 1.0
    cost = np.zeros(n + 2)
    cost[n] = -1.0
    return lp.solve_standard_form(a, np.append(u, 1.0), cost)


def test_small_pivot_rebuilds_the_inverse(monkeypatch):
    # A 5x5 visibility LP, with v as a column, degenerate enough that roundoff
    # in the updated basis inverse grows into a pivot element below
    # _SMALL_PIVOT.  No membership LP among thousands of seeded 3x3-6x6
    # classifies takes that path, nor any gauge visibility LP (local_visibility)
    # among 506 seeded 2x2-6x6 noisy singlets.  The strict loophole search on
    # the 4x4 singlet turned by 37 degrees rebuilds 9 times, and raises
    # ArithmeticError without the rebuild; test_detection.py's
    # test_turned_singlet4_against_highs pins its eta*.  Neither benchmark
    # corpus runs that search.
    rebuilds = []
    refactor = lp._Basis.refactor

    def spy(basis):
        rebuilds.append(basis.n)
        refactor(basis)

    monkeypatch.setattr(lp._Basis, "refactor", spy)
    b = noisy_singlet(5, 0.798, (7.5, 19.1, 228.5, 138.6, 125.2), (254.9, 310.7, 217.2, 270.7, 230.4))
    result = visibility_with_a_v_column(b)
    assert result.status == lp.OPTIMAL
    assert rebuilds
    assert -result.objective == pytest.approx(0.967855784246429, abs=1e-9)  # HiGHS
    assert bb.local_visibility(b) == pytest.approx(0.967855784246429, abs=1e-9)
    # A 4x4 visibility LP that once grew a 7e-9 pivot element; the tableau
    # solver hit its pivot limit on it.  HiGHS gives 0.93387677351981.
    b = noisy_singlet(4, 0.777, (151.2, 90.0, 63.5, 49.8), (90.2, 133.9, 299.2, 211.3))
    assert bb.local_visibility(b) == pytest.approx(0.9338767735198097, abs=1e-9)


def with_unit_columns(rng, a, c, count):
    """A and c with ``count`` columns added that have one nonzero entry each, of
    random row, sign and scale, shuffled in among the columns of A."""
    m, n = a.shape
    units = np.zeros((m, count))
    units[rng.integers(0, m, count), np.arange(count)] = rng.choice([-1.0, 1.0], count) * rng.uniform(0.5, 2.0, count)
    order = rng.permutation(n + count)
    return np.hstack([a, units])[:, order], np.concatenate([c, np.abs(rng.normal(size=count))])[order]


def crashed_rows(a, b) -> np.ndarray:
    """Rows whose starting basic column is a column of A, not an artificial."""
    return lp._Basis(a, b).index < a.shape[1]


def test_crash_basis_starts_from_unit_columns():
    # Row 0 (b > 0): columns 0 and 4 fit, column 3 has the wrong sign; the
    # lowest fit wins.  Row 1 (b < 0): column 1 has the wrong sign, so the
    # artificial -e_1 starts.  Row 2 (b = 0): column 5 fits with either sign.
    a = np.array(
        [
            [2.0, 0.0, 1.0, -1.0, 4.0, 0.0],
            [0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, -3.0],
        ]
    )
    b = np.array([3.0, -2.0, 0.0])
    basis = lp._Basis(a, b)
    np.testing.assert_array_equal(basis.index, [0, 7, 5])
    np.testing.assert_array_equal(basis.x, [1.5, 2.0, 0.0])
    np.testing.assert_array_equal(basis.inv, np.diag([0.5, -1.0, -1.0 / 3.0]))


def test_crash_programs_agree_with_highs(entering):
    # Random programs with unit columns added: some rows crash, others keep
    # their artificial, with b_i of either sign or zero.
    rng = np.random.default_rng(31)
    seen = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, "unbounded": 0}
    mixed = 0
    for trial in range(90):
        a, b, c = random_program(rng, trial % 3)
        b[rng.integers(0, b.size)] *= trial % 2  # a zero b_i in every other program
        a, c = with_unit_columns(rng, a, c, int(rng.integers(1, b.size + 1)))
        crashed = crashed_rows(a, b)
        mixed += bool(crashed.any() and not crashed.all())
        seen[solve_against_highs(a, b, c)] += 1
    assert min(seen.values()) >= 5
    assert mixed >= 45
    assert_no_artificial_enters(entering)


def test_weak_threshold_lp_skips_phase_1(solves, chained_target):
    # Every row of min 1'r s.t. M_coinc r = p has a one-cell strategy as its
    # unit column, and p >= 0, so phase 1 has nothing to do.
    targets = [
        singlet((0.0, 90.0), (45.0, 135.0)),
        chained_target,
        singlet((0.0, 45.0, 90.0, 135.0), (22.5, 67.5, 112.5, 157.5)),
    ]
    for target in targets:
        bb.critical_efficiency(target, mode="weak")
    assert len(solves) == 3
    for a, b, result in solves:
        assert crashed_rows(a, b).all()
        assert result.status == lp.OPTIMAL and result.pivots[0] == 0
        c = np.ones(a.shape[1])
        assert result.objective == pytest.approx(scipy_solve(a, b, c).fun, abs=1e-9)


def test_rebuilt_inverse_keeps_the_artificial_signs(monkeypatch):
    # Rebuild B^-1 from A before every pivot, while the artificials of rows
    # with b_i < 0 and the crashed columns (of either sign) are still basic;
    # the answers must stay HiGHS's.
    monkeypatch.setattr(lp, "_SMALL_PIVOT", np.inf)
    rng = np.random.default_rng(11)
    units = np.random.default_rng(12)
    signed = crashed = 0
    for trial in range(30):
        m, n = int(rng.integers(2, 7)), int(rng.integers(3, 10))
        if trial % 2:
            a = rng.normal(size=(m, n))
            b, c = a @ np.abs(rng.normal(size=n)), np.abs(rng.normal(size=n))
        else:
            a = rng.normal(size=(n + 2, m))
            b, c = rng.normal(size=n + 2) * 3, np.abs(rng.normal(size=m))
        signed += bool((b < 0).any())
        if trial % 3:
            a, c = with_unit_columns(units, a, c, int(units.integers(1, a.shape[0] + 1)))
            crashed += bool((crashed_rows(a, b) & (b < 0)).any())
        reference = scipy_solve(a, b, c)
        result = lp.solve_standard_form(a, b, c)
        assert result.status == {0: lp.OPTIMAL, 2: lp.INFEASIBLE}[reference.status], f"trial {trial}"
        if result.status == lp.OPTIMAL:
            assert result.objective == pytest.approx(reference.fun, abs=1e-9)
        else:
            assert_farkas(result, a, b)
    assert signed >= 20
    assert crashed >= 8


def corrupt_inverse_at(monkeypatch, pivot: int) -> None:
    """Make the given pivot leave a wrong basis inverse, as roundoff can."""
    calls = []
    update = lp._Basis.pivot

    def corrupting(basis, p, q, column):
        update(basis, p, q, column)
        calls.append(q)
        if len(calls) == pivot:
            basis.inv[0] += 0.1

    monkeypatch.setattr(lp._Basis, "pivot", corrupting)


@pytest.mark.parametrize("pivot", range(1, 8))
def test_wrecked_inverse_raises_instead_of_answering(monkeypatch, pivot):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 10))
    b = a @ np.abs(rng.normal(size=10))
    c = np.abs(rng.normal(size=10))
    assert lp.solve_standard_form(a, b, c).pivots == (5, 2)
    corrupt_inverse_at(monkeypatch, pivot)
    with pytest.raises(ArithmeticError, match="lost accuracy"):
        lp.solve_standard_form(a, b, c)


@pytest.mark.parametrize("pivot", range(1, 4))
def test_wrecked_inverse_gives_no_farkas_certificate(monkeypatch, pivot):
    rng = np.random.default_rng(2)
    a = rng.normal(size=(9, 4))
    b = rng.normal(size=9) * 3
    result = lp.solve_standard_form(a, b)
    assert (result.status, result.pivots) == (lp.INFEASIBLE, (3, 0))
    corrupt_inverse_at(monkeypatch, pivot)
    with pytest.raises(ArithmeticError, match="lost accuracy"):
        lp.solve_standard_form(a, b)


def test_loose_tolerance_accepts_a_slightly_nonlocal_behavior():
    # CHSH 2.0011: outside the local polytope by less than tol = 0.01.  The
    # artificial phase 1 leaves positive is pivoted out, which takes some
    # basic values below zero; that is no loss of accuracy.
    noisy = 0.7075 * singlet((0.0, 90.0), (45.0, 135.0)).p + 0.2925 / 4.0
    behavior = bb.validate_behavior(bb.Scenario(2, 2), noisy)
    assert bb.classify(behavior).kind == bb.ClassificationKind.WEAKLY_NONLOCAL
    assert bb.classify(behavior, tol=0.01).kind == bb.ClassificationKind.LOCAL
    _, matrix = vertex_data(bb.Scenario(2, 2))
    result = lp.solve_standard_form(matrix.T, noisy.ravel(), feas_tol=0.01)
    assert result.status == lp.OPTIMAL
    assert 0.0 < result.infeasibility <= 0.01
    assert result.x.min() < -1e-7


def test_degenerate_phase2_falls_back_to_bland(monkeypatch):
    # From the slack basis Dantzig's rule cycles on Beale's example, so phase
    # 2 must switch to Bland's rule; the optimum must still be HiGHS's.
    rules = []

    def logged(name):
        rule = getattr(lp, name)

        def pick(*args):
            rules.append(name)
            return rule(*args)

        return pick

    for name in ("_first_negative", "_most_negative"):
        monkeypatch.setattr(lp, name, logged(name))
    a, b, c = beale()
    result = lp.solve_standard_form(a, b, c)
    assert result.status == lp.OPTIMAL
    assert result.objective == pytest.approx(scipy_solve(a, b, c).fun, abs=1e-9)
    phase2 = rules[rules.index("_most_negative"):]
    assert phase2.count("_first_negative") > 0
    assert len(phase2) == result.pivots[1] + 1


def run_every_builder(chained_target):
    """One call into each of the package's LP builders: membership (a nonlocal
    and a local behavior, 3x3 and 4x4), visibility, the weak threshold LP
    (3x3 and 4x4), the strict threshold LPs, and the probe in both modes."""
    chsh = singlet((0.0, 90.0), (45.0, 135.0))
    singlet4 = singlet((0.0, 45.0, 90.0, 135.0), (22.5, 67.5, 112.5, 157.5))
    bb.classify(chained_target)
    bb.classify(noisy_singlet(4, 0.6, (151.2, 90.0, 63.5, 49.8), (90.2, 133.9, 299.2, 211.3)))
    bb.local_visibility(chained_target)
    bb.critical_efficiency(chained_target, mode="weak")
    bb.critical_efficiency(singlet4, mode="weak")
    bb.critical_efficiency(chsh, mode="strict")
    bb.construct_loophole_model(chained_target, 0.8, "strict")
    bb.construct_loophole_model(chsh, 0.9, "weak")


def test_builder_prices_match_the_dense_product(monkeypatch, chained_target):
    # Every builder prices its columns through the strategies' side factors;
    # the price must be y @ A for any y, not only for the duals a solve meets.
    seen = []
    solve = lp.solve_standard_form

    def spy(a_eq, b_eq, cost=None, **kwargs):
        seen.append((np.asarray(a_eq), kwargs.get("price")))
        return solve(a_eq, b_eq, cost, **kwargs)

    monkeypatch.setattr(lp, "solve_standard_form", spy)
    run_every_builder(chained_target)
    assert len(seen) == 10
    rng = np.random.default_rng(8)
    for a, price in seen:
        assert price is not None
        for _ in range(5):
            y = rng.normal(size=a.shape[0])
            np.testing.assert_allclose(price(y), y @ a, rtol=0.0, atol=1e-12)


def wrong_prices(a):
    """Prices that are not y @ A: zero, negated, and the right values on the wrong columns."""
    order = np.random.default_rng(a.shape[1]).permutation(a.shape[1])
    return {
        "zero": lambda y: np.zeros(a.shape[1]),
        "negated": lambda y: -(y @ a),
        "shuffled": lambda y: (y @ a)[order],
    }


def agrees_with_highs(a, b, c, result) -> None:
    reference = scipy_solve(a, b, c)
    assert result.status == {0: lp.OPTIMAL, 2: lp.INFEASIBLE}[reference.status]
    if result.status == lp.OPTIMAL:
        assert result.objective == pytest.approx(reference.fun, abs=1e-9)
    elif result.status == lp.INFEASIBLE:
        assert_farkas(result, a, b)


@pytest.mark.parametrize("wrong", ["zero", "negated", "shuffled"])
def test_a_wrong_price_raises_or_answers_right(monkeypatch, chained_target, wrong):
    # Only the entering rules read the price; the answers are checked against
    # A.  So a wrong price may cost pivots or raise ArithmeticError, but what
    # comes back is HiGHS's answer.  The pivot limit is cut so that a price
    # that never finds the optimum gives up quickly.
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 3000)
    solve = lp.solve_standard_form
    outcomes = []

    def wrongly_priced(a_eq, b_eq, cost=None, *, feas_tol=1e-9, price=None):
        a = np.asarray(a_eq)
        c = np.zeros(a.shape[1]) if cost is None else np.asarray(cost)
        try:
            result = solve(a, b_eq, cost, feas_tol=feas_tol, price=wrong_prices(a)[wrong])
        except ArithmeticError:
            outcomes.append("raised")
            raise
        agrees_with_highs(a, np.asarray(b_eq), c, result)
        outcomes.append(result.status)
        return result

    monkeypatch.setattr(lp, "solve_standard_form", wrongly_priced)
    with pytest.raises(ArithmeticError):
        run_every_builder(chained_target)
    assert outcomes[-1] == "raised"

    monkeypatch.setattr(lp, "solve_standard_form", solve)
    rng = np.random.default_rng(4)
    for trial in range(60):
        a, b, c = random_program(rng, trial % 3)
        if scipy_solve(a, b, c).status == 3:  # unbounded: there is no such outcome, so it raises
            with pytest.raises(ArithmeticError):
                lp.solve_standard_form(a, b, c, price=wrong_prices(a)[wrong])
            continue
        try:
            result = lp.solve_standard_form(a, b, c, price=wrong_prices(a)[wrong])
        except ArithmeticError:
            outcomes.append("raised")
            continue
        agrees_with_highs(a, b, c, result)
        outcomes.append(result.status)
    assert outcomes.count("raised") >= 10


def test_a_wrong_price_cannot_claim_an_unbounded_program():
    # min x0 s.t. x0 - x1 = 0 is optimal at 0 from its crash basis {x0}.  A
    # negated price makes x1 look improving, and its column has no positive
    # entry, so the solver must raise rather than answer.
    a, b, c = np.array([[1.0, -1.0]]), np.array([0.0]), np.array([1.0, 0.0])
    assert lp.solve_standard_form(a, b, c).objective == 0.0
    with pytest.raises(ArithmeticError, match="no row limits entering column 1"):
        lp.solve_standard_form(a, b, c, price=lambda y: -(y @ a))
