"""Traced stand-in for ``python -m recbid.highs_runner``, for traced runs only.

Same command line and solution file as the bundled runner: it calls
``recbid.highs_runner.main`` unchanged, with ``parse_lp`` and
``solve_parsed`` timed from outside. The spans go to ``<sol>.spans.json``:
``[name, start, end]`` triples on the system-wide monotonic clock, plus
HiGHS's branch-and-bound node count and final gap.
"""

import json
import sys
from time import perf_counter

import recbid.highs_runner as runner


def main(argv: list[str]) -> int:
    spans = []
    info = {"mip_nodes": 0, "mip_gap": 0.0}

    def timed(name, fn, hook=None):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            spans.append((name, start, perf_counter()))
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def search_stats(res):
        info["mip_nodes"] = int(getattr(res, "mip_node_count", 0) or 0)
        info["mip_gap"] = float(getattr(res, "mip_gap", 0.0) or 0.0)

    runner.parse_lp = timed("highs_runner.parse_s", runner.parse_lp)
    runner.solve_parsed = timed("highs_runner.search_s", runner.solve_parsed, search_stats)
    start = perf_counter()
    code = runner.main(argv)
    spans.insert(0, ("highs_runner.main", start, perf_counter()))
    sol_file = argv[1]
    with open(sol_file + ".spans.json", "w") as fh:
        json.dump({"spans": spans, **info}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
