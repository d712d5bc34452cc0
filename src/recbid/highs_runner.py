"""HiGHS on a parsed LP file.

``solve_parsed`` rebuilds a ``MilpInstance`` from what ``parse_lp`` reads
from LP text, such as an exported ``instance.lp``, and solves it as
``solve_external`` solves an instance: ``highs_solve`` on its
``_highs_arrays``. The variables come in Bounds order and the rows from
the parsed CSR arrays in one ``add_rows``.
"""

from __future__ import annotations

from .milp import BINARY, CONTINUOUS, MilpInstance
from .solver import ParsedLp, _highs_arrays, highs_solve


def solve_parsed(parsed: ParsedLp, time_limit: float, gap: float):
    """HiGHS's result for a parsed LP, maximizing its objective."""
    names = parsed.names
    vid = dict(zip(names, range(len(names))))
    kinds = [CONTINUOUS] * len(names)
    for name in parsed.binaries:
        kinds[vid[name]] = BINARY
    inst = MilpInstance(
        names=list(names),
        kinds=kinds,
        lb=[parsed.lb[name] for name in names],
        ub=[parsed.ub[name] for name in names],
        objective={vid[name]: coef for name, coef in parsed.objective.items()},
    )
    rows = parsed.rows
    inst.add_rows(rows.names, rows.ptr, rows.cols, rows.vals, rows.senses, rows.rhs)
    return highs_solve(*_highs_arrays(inst), time_limit, gap)
