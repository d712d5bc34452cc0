#!/usr/bin/env python3
"""Full-size experiment: 24-hour days, ten price and ten energy scenarios,
one simulated week, all four study cases.

Runs on the bundled synthetic data by default. HiGHS solves each day's
MILP in this process, stopping at --time-limit per day and case. At ten
by ten scenarios a day with bids has about 39,000 variables, 40,000
rows, 137,000 nonzeros and 4,000 binaries (``base``), and about 37,000 /
33,000 / 123,000 / 1,600 without the shared-energy incentive
(``no_incentive``). A day without bids models one price scenario:
4,046 / 4,084 / 13,438 / 446 (``no_msd``) and 3,806 / 3,364 / 11,998 /
206 (``neither``) on bundled day 0. With --time-limit 300 and a 1e-6
gap, days 0-3 of ``no_msd`` solve to optimality in 0.4-0.9 s each and
``neither`` in about 0.1 s (HiGHS through scipy's HiGHS binding, with
feasibility jump and the root reduced-cost heuristic off, one 2-vCPU
machine); the bid days stop at the limit. At 300 s and a 1e-3 gap, HiGHS is still
in its root cut loop on ``base`` day 0 and has no feasible plan, so that
day is planned without bids (objective 42.63 at scenario seed 0; see
the README's Solvers section). The time a bid day takes to reach the
default 1e-3 gap has not been measured. Pass a looser --gap to trade
optimality margin for time.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from recbid.core import RecConfig, load_config_json
from recbid.harness import RunSpec, compare_cases


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-dir", type=Path, default=Path("data/synthetic_week"))
    ap.add_argument("--out-dir", type=Path, default=Path("out/paper_scale"))
    ap.add_argument("--config", type=Path, help="JSON RecConfig; defaults to the bundled plant")
    ap.add_argument("--nm", type=int, default=10)
    ap.add_argument("--nr", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--gap", type=float, default=1e-3)
    ap.add_argument("--time-limit", type=float, default=1800.0)
    args = ap.parse_args()

    config = load_config_json(args.config) if args.config else RecConfig()
    spec = RunSpec(
        config=config,
        data_dir=args.data_dir,
        n_m=args.nm,
        n_r=args.nr,
        seed=args.seed,
        out_dir=args.out_dir,
        rel_gap=args.gap,
        time_limit_s=args.time_limit,
    )
    table = compare_cases(spec)
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
