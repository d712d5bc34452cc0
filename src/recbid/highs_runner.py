"""HiGHS on a parsed LP file.

``solve_parsed`` rebuilds a ``MilpInstance`` from what ``parse_lp`` reads
from LP text, such as an exported ``instance.lp``, and solves it as
``solve_external`` solves an instance: ``highs_solve`` on its
``_highs_arrays``.
"""

from __future__ import annotations

from .milp import BINARY, CONTINUOUS, MilpInstance
from .solver import ParsedLp, _highs_arrays, highs_solve


def solve_parsed(parsed: ParsedLp, time_limit: float, gap: float):
    """HiGHS's result for a parsed LP, maximizing its objective."""
    inst = MilpInstance()
    vid = {}
    for name in parsed.names:
        kind = BINARY if name in parsed.binaries else CONTINUOUS
        vid[name] = inst.add_var(name, (), name, kind, parsed.lb[name], parsed.ub[name])
    inst.objective = {vid[name]: coef for name, coef in parsed.objective.items()}
    for name, coeffs, sense, rhs in parsed.rows:
        inst.add_row(name, [(vid[var], coef) for var, coef in coeffs.items()], sense, rhs)
    return highs_solve(*_highs_arrays(inst), time_limit, gap)
