"""HiGHS as a solver program driven by LP files.

``solve_external`` runs HiGHS in its own process by default. This module
is the same solver behind the exchange-file contract, for use as a
``REC_SOLVER_CMD`` child::

    REC_SOLVER_CMD="{python} -m recbid.highs_runner {lp} {sol} --time-limit {time_limit} --gap {gap}"

Any other solver wrapper with the same contract can take its place. The
solution file carries a status line, the reported objective and gap, then
one ``name value`` pair per variable. A time limit reached with no
feasible solution, or any other result without a solution, exits with
code 3.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from scipy import sparse

from .solver import ParsedLp, highs_solve, parse_lp, write_highs_solution


def solve_parsed(parsed: ParsedLp, time_limit: float, gap: float):
    names = parsed.names
    pos = {name: i for i, name in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for name, coef in parsed.objective.items():
        c[pos[name]] = coef
    if parsed.maximize:
        c = -c
    lb = np.array([parsed.lb[name] for name in names])
    ub = np.array([parsed.ub[name] for name in names])
    integrality = np.array([1 if name in parsed.binaries else 0 for name in names])

    rows, cols, vals, clo, chi = [], [], [], [], []
    for i, (_rname, coeffs, sense, rhs) in enumerate(parsed.rows):
        for name, coef in coeffs.items():
            rows.append(i)
            cols.append(pos[name])
            vals.append(coef)
        if sense == "<=":
            clo.append(-np.inf)
            chi.append(rhs)
        elif sense == ">=":
            clo.append(rhs)
            chi.append(np.inf)
        else:
            clo.append(rhs)
            chi.append(rhs)
    mat = sparse.csr_matrix((vals, (rows, cols)), shape=(len(parsed.rows), n))
    return highs_solve(c, mat, np.array(clo), np.array(chi), lb, ub, integrality, time_limit, gap)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("lp_file")
    ap.add_argument("sol_file")
    ap.add_argument("--time-limit", type=float, default=300.0)
    ap.add_argument("--gap", type=float, default=1e-6)
    args = ap.parse_args(argv)

    with open(args.lp_file) as fh:
        parsed = parse_lp(fh.read())
    res = solve_parsed(parsed, args.time_limit, args.gap)
    problem = write_highs_solution(
        args.sol_file, res, parsed.names, parsed.maximize, args.time_limit
    )
    if problem is not None:
        print(problem, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
