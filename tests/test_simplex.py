import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recbid.simplex import solve_lp


def test_box_corner():
    r = solve_lp([1, 1], [[1, 1]], ["<="], [3], [0, 0], [2, 2])
    assert r.status == "optimal"
    assert abs(r.objective - 3.0) < 1e-9


def test_equality_with_lower_bound():
    r = solve_lp([1, 0], [[1, 1]], ["="], [2], [0, 0.5], [10, 10])
    assert r.status == "optimal"
    assert abs(r.objective - 1.5) < 1e-9
    assert np.allclose(r.x, [1.5, 0.5])


def test_infeasible_detected():
    r = solve_lp([1], [[1]], ["<="], [-1], [0], [5])
    assert r.status == "infeasible"


def test_unbounded_detected():
    r = solve_lp([1], [[1]], [">="], [1], [0], [np.inf])
    assert r.status == "unbounded"


def test_minimize():
    r = solve_lp([1, 1], [[1, 1]], [">="], [2], [0, 0], [5, 5], maximize=False)
    assert r.status == "optimal"
    assert abs(r.objective - 2.0) < 1e-9


def test_negative_lower_bounds():
    r = solve_lp([1, -1], [[1, 1]], ["<="], [1], [-3, -2], [4, 4])
    assert r.status == "optimal"
    # x0 max given x1 at its lower bound
    assert abs(r.objective - (3 + 2)) < 1e-9


def test_fixed_variable_equality():
    # second variable pinned by equal bounds
    r = solve_lp([1, 1], [[1, 1]], ["<="], [5], [0, 2], [9, 2])
    assert r.status == "optimal"
    assert abs(r.objective - 5.0) < 1e-9


def vertex_enumeration(c, A, senses, b, lb, ub):
    """Exhaustive oracle: best objective over all basic feasible points.

    Candidate points are intersections of n active constraints drawn from
    rows (as equalities) and variable bounds.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    m, n = A.shape
    planes = [(A[i], b[i]) for i in range(m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e.copy(), lb[j]))
        if np.isfinite(ub[j]):
            planes.append((e.copy(), ub[j]))

    def feasible(x):
        if np.any(x < lb - 1e-8) or np.any(x > ub + 1e-8):
            return False
        lhs = A @ x
        for i, sense in enumerate(senses):
            if sense == "<=" and lhs[i] > b[i] + 1e-8:
                return False
            if sense == ">=" and lhs[i] < b[i] - 1e-8:
                return False
            if sense == "=" and abs(lhs[i] - b[i]) > 1e-8:
                return False
        return True

    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        M = np.array([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, rhs)
        if feasible(x):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


def random_bounded_lp(rng):
    """A small feasible LP with boxed variables and mixed row senses."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 5))
    A = rng.normal(size=(m, n)).round(2)
    lb = rng.uniform(-2.0, 0.0, n).round(2)
    ub = lb + rng.uniform(0.5, 3.0, n).round(2)
    x0 = rng.uniform(lb, ub)
    senses = [str(rng.choice(["<=", ">=", "="])) for _ in range(m)]
    b = A @ x0
    for i, s in enumerate(senses):
        if s == "<=":
            b[i] += rng.uniform(0.0, 1.0)
        elif s == ">=":
            b[i] -= rng.uniform(0.0, 1.0)
    c = rng.normal(size=n).round(2)
    return c, A, senses, b, lb, ub


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 100_000))
def test_matches_vertex_enumeration_on_random_bounded_lps(seed):
    c, A, senses, b, lb, ub = random_bounded_lp(np.random.default_rng(seed))
    mine = solve_lp(c, A, senses, b, lb, ub)
    assert mine.status == "optimal"
    best = vertex_enumeration(c, A, senses, b, lb, ub)
    assert best is not None
    assert abs(mine.objective - best) <= 1e-8 * max(1.0, abs(best))


def test_reduced_costs_sign_at_optimum():
    # max x + 2y st x + y <= 1: y basic, x at lower with rc = -1
    r = solve_lp([1, 2], [[1, 1]], ["<="], [1], [0, 0], [5, 5])
    assert r.status == "optimal"
    assert abs(r.objective - 2.0) < 1e-9
    assert r.reduced_costs[0] <= 1e-9


def test_requires_finite_lower_bounds():
    with pytest.raises(ValueError, match="finite"):
        solve_lp([1], [[1]], ["<="], [1], [-np.inf], [1])


@pytest.mark.parametrize("sense", ["<", "==", "", "=>"])
def test_unknown_sense_refused_with_its_row(sense):
    A, b, lb, ub = [[1, 0], [0, 1], [1, 1]], [1, 1, 1], [0, 0], [2, 2]
    want = rf"^row 1: unknown sense {re.escape(repr(sense))}$"
    with pytest.raises(ValueError, match=want):
        solve_lp([1, 1], A, ["<=", sense, "bad"], b, lb, ub)
    parent = solve_lp([1, 1], A, ["<=", ">=", "="], b, lb, ub)
    with pytest.raises(ValueError, match=want):
        solve_lp([1, 1], A, [">=", sense, "="], b, lb, ub, basis=parent.basis)


def assert_optimal_point(res, A, senses, b, lb, ub, tol=1e-7):
    """Rows and bounds hold to ``tol``; reduced costs have optimal signs."""
    x, rc = res.x, res.reduced_costs
    assert np.all(x >= lb - tol) and np.all(x <= ub + tol)
    lhs = np.asarray(A) @ x
    for i, sense in enumerate(senses):
        if sense != ">=":
            assert lhs[i] <= b[i] + tol
        if sense != "<=":
            assert lhs[i] >= b[i] - tol
    at_lb, at_ub = x <= lb + 1e-9, x >= ub - 1e-9
    assert np.all(rc[at_lb & ~at_ub] <= 1e-9)
    assert np.all(rc[at_ub & ~at_lb] >= -1e-9)
    assert np.all(np.abs(rc[~at_lb & ~at_ub]) <= 1e-9)


def test_warm_start_matches_cold_after_tightening():
    # A branch-and-bound child: the parent's bounds, some tightened and
    # some fixed, re-solved from the parent's basis and from scratch.
    statuses = []
    for seed in range(300):
        rng = np.random.default_rng(seed)
        c, A, senses, b, lb, ub = random_bounded_lp(rng)
        parent = solve_lp(c, A, senses, b, lb, ub)
        assert parent.status == "optimal"
        lo, up = lb.copy(), ub.copy()
        for j in range(len(lb)):
            cut = rng.uniform(lb[j], ub[j])
            kind = rng.integers(0, 4)
            if kind == 0:
                lo[j] = up[j] = cut
            elif kind == 1:
                lo[j] = cut
            elif kind == 2:
                up[j] = cut
        warm = solve_lp(c, A, senses, b, lo, up, basis=parent.basis)
        cold = solve_lp(c, A, senses, b, lo, up)
        assert warm.status == cold.status, seed
        statuses.append(cold.status)
        if cold.status == "optimal":
            assert abs(warm.objective - cold.objective) <= 1e-9 * (1 + abs(cold.objective))
            assert_optimal_point(warm, A, senses, b, lo, up)
    assert 0 < statuses.count("infeasible") < statuses.count("optimal")


def test_warm_start_detects_infeasible_branch():
    # max 2x + y st 1.2 <= x + y <= 1.5 on the unit box: y = 0.5 at the
    # optimum. Branching y down to 0 leaves x + y <= 1 < 1.2.
    A, senses, b = [[1, 1], [1, 1]], ["<=", ">="], [1.5, 1.2]
    parent = solve_lp([2, 1], A, senses, b, [0, 0], [1, 1])
    assert parent.status == "optimal"
    assert np.allclose(parent.x, [1.0, 0.5])
    down = solve_lp([2, 1], A, senses, b, [0, 0], [1, 0], basis=parent.basis)
    assert down.status == "infeasible"
    up = solve_lp([2, 1], A, senses, b, [0, 1], [1, 1], basis=parent.basis)
    assert up.status == "optimal"
    assert abs(up.objective - 2.0) < 1e-9
    assert np.allclose(up.x, [0.5, 1.0])
