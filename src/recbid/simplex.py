"""Bounded-variable simplex for dense LPs.

Self-contained solver used by the exact reference oracle, so its results
never depend on a third-party optimizer. Variables carry finite lower
bounds (upper bounds may be infinite); rows may be <=, = or >=.

A cold solve runs the two-phase primal simplex from a crash basis of slacks
and artificials. A warm solve starts from the ``LpResult.basis`` of an LP
with the same rows and costs: after bounds only tighten, as in a
branch-and-bound child, that basis is still dual feasible, so B^-1 is
refactored once from it and the bounded-variable dual simplex restores
primal feasibility (dual steepest-edge row choice, Harris ratio test; see
Koberstein, *The dual simplex method, techniques for a fast and stable
implementation*, 2005). A primal pass then confirms optimality. Pricing
falls back to Bland's rule when the objective stalls, which restores the
termination guarantee in both methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RC_TOL = 1e-9  # reduced-cost tolerance
FEAS_TOL = 1e-9
PIVOT_TOL = 1e-9  # smallest pivot-row entry the dual ratio test accepts
REFACTOR_EVERY = 64
STALL_LIMIT = 200

AT_LOWER, AT_UPPER, BASIC = 0, 1, 2


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0
    reduced_costs: np.ndarray | None = None  # structural block, maximize sense
    # (basic column ids, nonbasic column ids at their upper bound) at the
    # optimum. Column j < n is structural j; column n + i is row i's slack.
    basis: tuple[np.ndarray, np.ndarray] | None = None


class _Tableau:
    """Revised simplex state over [structurals | slacks | artificials].

    Slack column i is +e_i; artificial column i is ``art_sign[i] * e_i``.
    Only the structural block is stored as a matrix.
    """

    def __init__(self, A, b, lb, ub, art_sign):
        self.A = A  # m x n_struct
        self.b = b
        self.lb = lb
        self.ub = ub
        self.art_sign = art_sign
        self.m, self.ns = A.shape
        self.n = self.ns + 2 * self.m
        self.status = np.full(self.n, AT_LOWER, dtype=np.int8)
        self.x = lb.copy()
        self.basis = np.empty(self.m, dtype=int)
        self.binv = np.empty((self.m, self.m))
        self.pivots = 0
        # Imported here so that importing the package does not load scipy.linalg.
        from scipy.linalg.blas import dger

        self.dger = dger

    def set_basis(self, basis):
        self.basis = np.array(basis, dtype=int)  # own copy: pivots mutate it
        self.status[self.basis] = BASIC
        self.refactor()

    def refactor(self):
        """Recompute B^-1 and the basic values from the basis.

        Slack and artificial columns are signed unit vectors, so B^-1 follows
        from the inverse of the square block of the basic structural columns
        on the rows that no unit column covers. Those rows' columns of B^-1
        are filled as one block; each covered row's column holds one sign.
        """
        ns, m = self.ns, self.m
        basis = self.basis
        is_unit = basis >= ns
        struct = (~is_unit).nonzero()[0]
        unit = is_unit.nonzero()[0]
        unit_row = (basis[unit] - ns) % m
        sign = np.where(basis[unit] < ns + m, 1.0, self.art_sign[unit_row])
        covered = np.zeros(m, dtype=bool)
        covered[unit_row] = True
        rest = (~covered).nonzero()[0]
        A_struct = self.A[:, basis[struct]]
        inv = np.linalg.inv(A_struct[rest])
        block = np.empty((m, len(rest)))
        block[struct] = inv
        block[unit] = -sign[:, None] * (A_struct[unit_row] @ inv)
        binv = np.zeros((m, m))
        binv[:, rest] = block
        binv[unit, unit_row] = sign
        self.binv = binv
        self.resync()

    def resync(self):
        ns, m = self.ns, self.m
        nonbasic = self.status != BASIC
        struct_nb = nonbasic[:ns].nonzero()[0]
        rhs = self.b - self.A[:, struct_nb] @ self.x[struct_nb]
        rhs -= np.where(nonbasic[ns : ns + m], self.x[ns : ns + m], 0.0)
        rhs -= np.where(nonbasic[ns + m :], self.art_sign * self.x[ns + m :], 0.0)
        self.x[self.basis] = self.binv @ rhs

    def reduced_costs(self, c):
        y = c[self.basis] @ self.binv
        return c - np.concatenate((y @ self.A, y, y * self.art_sign))

    def direction(self, j: int) -> np.ndarray:
        if j < self.ns:
            return self.binv @ self.A[:, j]
        if j < self.ns + self.m:
            return self.binv[:, j - self.ns].copy()
        i = j - self.ns - self.m
        return self.binv[:, i] * self.art_sign[i]

    def pivot(self, entering, leave_pos, direction):
        piv = direction[leave_pos]
        eta = -direction / piv
        eta[leave_pos] = 1.0 / piv - 1.0
        # binv += outer(eta, binv[leave_pos]) in place, on the Fortran view.
        self.dger(1.0, self.binv[leave_pos].copy(), eta, a=self.binv.T, overwrite_a=True)
        self.basis[leave_pos] = entering
        self.pivots += 1
        if self.pivots % REFACTOR_EVERY == 0:
            self.refactor()


def _maximize(tab: _Tableau, c: np.ndarray, max_iter: int):
    """Run primal iterations on a feasible tableau; returns (status, iters, rc)."""
    free = ~(tab.ub - tab.lb <= FEAS_TOL)
    best = -np.inf
    stalled = 0
    bland = False
    for it in range(max_iter):
        rc = tab.reduced_costs(c)
        status = tab.status
        improving = ((status == AT_LOWER) & (rc > RC_TOL)) | ((status == AT_UPPER) & (rc < -RC_TOL))
        candidates = (free & improving).nonzero()[0]
        if candidates.size == 0:
            return "optimal", it, rc
        if bland:
            j = int(candidates[0])
        else:
            j = int(candidates[np.abs(rc[candidates]).argmax()])
        sigma = 1.0 if status[j] == AT_LOWER else -1.0

        d = tab.direction(j)
        # Largest step before a basic variable or the entering variable
        # itself reaches a bound.
        basis = tab.basis
        xb = tab.x[basis]
        sd = sigma * d
        pos = sd > FEAS_TOL
        room = np.where(pos, xb - tab.lb[basis], tab.ub[basis] - xb)
        moving = pos | (sd < -FEAS_TOL)
        step = np.divide(room, np.abs(sd), out=np.full(tab.m, np.inf), where=moving)
        step_min = step.min(initial=np.inf)
        own = tab.ub[j] - tab.lb[j]
        t = min(step_min, own)
        if not np.isfinite(t):
            return "unbounded", it, rc

        if own <= step_min:
            # bound flip, basis unchanged
            tab.x[basis] = xb - sigma * own * d
            tab.x[j] = tab.ub[j] if tab.status[j] == AT_LOWER else tab.lb[j]
            tab.status[j] = AT_UPPER if tab.status[j] == AT_LOWER else AT_LOWER
        else:
            hits = (step <= t + FEAS_TOL).nonzero()[0]
            if bland:
                leave_pos = int(hits[np.argmin(tab.basis[hits])])
            else:
                # most stable pivot among the ties
                leave_pos = int(hits[np.abs(d[hits]).argmax()])
            t = max(step[leave_pos], 0.0)
            leaving = basis[leave_pos]
            tab.x[basis] = xb - sigma * t * d
            tab.x[j] = tab.x[j] + sigma * t
            tab.x[leaving] = tab.lb[leaving] if sd[leave_pos] > 0 else tab.ub[leaving]
            tab.status[leaving] = AT_LOWER if sd[leave_pos] > 0 else AT_UPPER
            tab.status[j] = BASIC
            # x is maintained incrementally; refactor() resyncs periodically
            tab.pivot(j, leave_pos, d)

        obj = float(c @ tab.x)
        if obj > best + 1e-12:
            best = obj
            stalled = 0
        else:
            stalled += 1
            if stalled > STALL_LIMIT:
                bland = True
    raise RuntimeError(f"simplex did not terminate within {max_iter} iterations")


def _dual(tab: _Tableau, c: np.ndarray, max_iter: int):
    """Run dual iterations until the basis is primal feasible.

    Returns (status, iterations) with status "feasible", or "infeasible"
    when the chosen row's basic variable cannot reach its bound however the
    nonbasic variables move within theirs. Artificials are fixed at zero
    and never enter.
    """
    ns, nm = tab.ns, tab.ns + tab.m
    free = ~(tab.ub[:nm] - tab.lb[:nm] <= FEAS_TOL)
    best = np.inf
    stalled = 0
    bland = False
    for it in range(max_iter):
        basis = tab.basis
        xb = tab.x[basis]
        infeas = np.maximum(tab.lb[basis] - xb, xb - tab.ub[basis])
        rows = (infeas > FEAS_TOL).nonzero()[0]
        if rows.size == 0:
            return "feasible", it
        if bland:
            r = int(rows[np.argmin(basis[rows])])
        else:
            # Dual steepest edge, with the exact weights ||row of B^-1||^2.
            rows_binv = tab.binv[rows]
            w = np.einsum("ij,ij->i", rows_binv, rows_binv)
            r = int(rows[(infeas[rows] ** 2 / w).argmax()])
        leaving = basis[r]
        to_lower = xb[r] < tab.lb[leaving]
        bound = tab.lb[leaving] if to_lower else tab.ub[leaving]

        # Pivot row, signed so that a column helps when it moves away from
        # its bound with a negative entry at lower, a positive one at upper.
        a = np.empty(nm)
        a[:ns] = tab.binv[r] @ tab.A
        a[ns:] = tab.binv[r]
        if not to_lower:
            a = -a
        at_lower = tab.status[:nm] == AT_LOWER
        at_upper = tab.status[:nm] == AT_UPPER
        cand = (free & ((at_lower & (a < -PIVOT_TOL)) | (at_upper & (a > PIVOT_TOL)))).nonzero()[0]
        if cand.size == 0:
            return "infeasible", it
        rc = tab.reduced_costs(c)[cand]
        # |d_j| where d_j has its optimal sign; zero where it drifted past it.
        d = np.maximum(np.where(at_lower[cand], -rc, rc), 0.0)
        abs_a = np.abs(a[cand])
        ratio = d / abs_a
        if bland:
            q = int(cand[ratio <= ratio.min() + 1e-12].min())
        else:
            # Harris: largest pivot among ratios under the bound relaxed by RC_TOL.
            ok = ratio <= ((d + RC_TOL) / abs_a).min()
            q = int(cand[ok][abs_a[ok].argmax()])

        col = tab.direction(q)
        step = (xb[r] - bound) / col[r]
        tab.x[basis] = xb - step * col
        tab.x[q] += step
        tab.x[leaving] = bound
        tab.status[leaving] = AT_LOWER if to_lower else AT_UPPER
        tab.status[q] = BASIC
        tab.pivot(q, r, col)

        obj = float(c @ tab.x)
        if obj < best - 1e-12:
            best = obj
            stalled = 0
        else:
            stalled += 1
            if stalled > STALL_LIMIT:
                bland = True
    raise RuntimeError(f"dual simplex did not terminate within {max_iter} iterations")


def solve_lp(
    c,
    A,
    senses,
    b,
    lb,
    ub,
    maximize: bool = True,
    max_iter: int = 50000,
    basis: tuple[np.ndarray, np.ndarray] | None = None,
) -> LpResult:
    """Solve max (or min) c'x subject to row senses and variable bounds.

    ``senses`` holds one of "<=", "=", ">=" per row. Lower bounds must be
    finite. Returns status "optimal" with the optimizer and its basis, or
    "infeasible" / "unbounded". ``basis`` is the ``LpResult.basis`` of an
    earlier solve with the same ``c``, ``A``, ``senses`` and ``b``; the solve
    then re-optimizes from it with the dual simplex instead of starting
    cold. It must be dual feasible for the new bounds, which holds when they
    are at least as tight as those it was returned for.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D array")
    m, n = A.shape
    if not np.all(np.isfinite(lb)):
        raise ValueError("all lower bounds must be finite")
    if np.any(lb > ub + FEAS_TOL):
        return LpResult("infeasible", None, None)
    if not maximize:
        res = solve_lp(-c, A, senses, b, lb, ub, maximize=True, max_iter=max_iter, basis=basis)
        if res.objective is not None:
            res.objective = -res.objective
        if res.reduced_costs is not None:
            res.reduced_costs = -res.reduced_costs
        return res
    if m == 0:
        # Row-free program: every variable sits at its favorable bound.
        x = np.where(c > 0, ub, lb)
        x[c == 0] = lb[c == 0]
        if not np.all(np.isfinite(x)):
            return LpResult("unbounded", None, None)
        return LpResult("optimal", x, float(c @ x), 0, reduced_costs=c.copy())

    # Normalize to <= / = rows; each row gets a slack (fixed at 0 for =).
    sense = np.asarray(senses)
    ge = sense == ">="
    known = ge | (sense == "<=") | (sense == "=")
    if not known.all():
        i = int(np.flatnonzero(~known)[0])
        raise ValueError(f"row {i}: unknown sense {senses[i]!r}")
    flip = np.where(ge, -1.0, 1.0)
    A = A * flip[:, None]
    b = b * flip
    slack_ub = np.where(sense == "=", 0.0, np.inf)
    c_full = np.concatenate([c, np.zeros(2 * m)])

    if basis is not None:
        # Warm start. Artificials are fixed at zero and never basic, so
        # their sign is immaterial.
        tab = _Tableau(
            A,
            b,
            np.concatenate([lb, np.zeros(2 * m)]),
            np.concatenate([ub, slack_ub, np.zeros(m)]),
            np.ones(m),
        )
        basic, at_upper = basis
        tab.status[at_upper] = AT_UPPER
        tab.x[at_upper] = tab.ub[at_upper]
        tab.set_basis(basic)
        status, it1 = _dual(tab, c_full, max_iter)
        if status == "infeasible":
            return LpResult("infeasible", None, None, it1)
        return _optimize(tab, c_full, max_iter, it1)

    resid = b - A @ lb
    art_sign = np.where(resid >= 0, 1.0, -1.0)
    tab = _Tableau(
        A,
        b,
        np.concatenate([lb, np.zeros(2 * m)]),
        np.concatenate([ub, slack_ub, np.full(m, np.inf)]),
        art_sign,
    )
    # Crash basis: a <= row whose start residual is non-negative can use its
    # slack directly; other rows start on an artificial.
    use_slack = (slack_ub > 0) & (resid >= 0)
    rows = np.arange(m)
    tab.set_basis(np.where(use_slack, n + rows, n + m + rows))

    it1 = 0
    if not use_slack.all():
        c_phase1 = np.zeros(n + 2 * m)
        c_phase1[n + m :] = -1.0
        status, it1, _rc1 = _maximize(tab, c_phase1, max_iter)
        art_sum = float(tab.x[n + m :].sum())
        if status != "optimal" or art_sum > 1e-7 * (1.0 + abs(b).max(initial=0.0)):
            return LpResult("infeasible", None, None, it1)

        # Lock artificials at zero; pivot basic ones out where possible.
        tab.ub[n + m :] = 0.0
        for i in np.flatnonzero(tab.basis >= n + m):
            free = (tab.status != BASIC) & (tab.ub - tab.lb > FEAS_TOL)
            usable = np.flatnonzero((np.abs(tab.binv[i] @ tab.A) > 1e-9) & free[:n])
            if not usable.size:
                usable = n + np.flatnonzero((np.abs(tab.binv[i]) > 1e-9) & free[n : n + m])
            if usable.size:
                j = int(usable[0])
                d = tab.direction(j)
                leaving = tab.basis[i]
                tab.x[leaving] = 0.0
                tab.status[leaving] = AT_LOWER
                tab.status[j] = BASIC
                tab.pivot(j, i, d)
                tab.resync()
    else:
        tab.ub[n + m :] = 0.0

    return _optimize(tab, c_full, max_iter, it1)


def _optimize(tab: _Tableau, c_full: np.ndarray, max_iter: int, iterations: int) -> LpResult:
    """Phase 2 from a primal feasible tableau, then the result and its basis.

    A basic artificial sits in an equality row whose slack is nonbasic and
    fixed at zero like it; the returned basis names that slack instead.
    """
    n, m = tab.ns, tab.m
    status, it2, rc = _maximize(tab, c_full, max_iter)
    if status == "unbounded":
        return LpResult("unbounded", None, None, iterations + it2)
    x = tab.x[:n].copy()
    basic = np.where(tab.basis >= n + m, tab.basis - m, tab.basis)
    at_upper = (tab.status[: n + m] == AT_UPPER).nonzero()[0]
    return LpResult(
        "optimal",
        x,
        float(c_full[:n] @ x),
        iterations + it2,
        reduced_costs=rc[:n].copy(),
        basis=(basic, at_upper),
    )
