"""HiGHS on a parsed LP file.

``solve_parsed`` solves the arrays ``parse_lp`` decodes from LP text, such
as an exported ``instance.lp``, with the same ``highs_solve`` call that
``solve_external`` makes on an instance's own arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .solver import ParsedLp, highs_solve


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

