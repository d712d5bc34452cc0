"""HiGHS on a parsed LP file.

``solve_parsed`` rebuilds a ``MilpInstance`` from what ``parse_lp`` reads
from LP text, such as an exported ``instance.lp``, and solves it as
``solve_external`` solves an instance: ``highs_solve`` on its
``_highs_arrays``.
"""

from __future__ import annotations

import numpy as np

from .milp import BINARY, CONTINUOUS, MilpInstance
from .solver import ParsedLp, _highs_arrays, highs_solve


def solve_parsed(parsed: ParsedLp, time_limit: float, gap: float):
    """HiGHS's result for a parsed LP, maximizing its objective."""
    inst = MilpInstance()
    vid = {}
    for name in parsed.names:
        kind = BINARY if name in parsed.binaries else CONTINUOUS
        vid[name] = inst.add_var(name, kind, parsed.lb[name], parsed.ub[name])
    inst.objective = {vid[name]: coef for name, coef in parsed.objective.items()}
    rows = parsed.rows
    inst.add_rows(
        [name for name, _coeffs, _sense, _rhs in rows],
        np.cumsum([0] + [len(coeffs) for _name, coeffs, _sense, _rhs in rows]),
        [vid[var] for _name, coeffs, _sense, _rhs in rows for var in coeffs],
        [coef for _name, coeffs, _sense, _rhs in rows for coef in coeffs.values()],
        [sense for _name, _coeffs, sense, _rhs in rows],
        [rhs for _name, _coeffs, _sense, rhs in rows],
    )
    return highs_solve(*_highs_arrays(inst), time_limit, gap)
