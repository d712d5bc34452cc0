"""Command-line front end: plan one day, simulate a week, compare cases.

Data directory layout (CSV, hourly rows, whole days):
    energy_history.csv      timestamp,pv_kwh,load_kwh,member_demand_kwh
    msd_price_history.csv   timestamp,msd_sell_max_eur_kwh,msd_buy_min_eur_kwh
    realized_energy.csv     (same columns as energy_history, simulated days)
    realized_msd_prices.csv (same columns as msd_price_history)
    known_prices.csv        timestamp,export_price_eur_kwh,import_price_eur_kwh
"""

from __future__ import annotations

import argparse
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import RecConfig, load_config_json, validate_config
from .harness import BACKENDS, CASES, RunSpec, compare_cases, day_inputs, load_week_data
from .harness import run_day, run_week
from .milp import build_instance
from .solver import emit_exchange


def _sidecar_json(inst) -> str:
    """``instance.vars.json``: each variable's symbol and indices, by name.

    Byte for byte ``json.dumps(sidecar, indent=2, sort_keys=True) + "\\n"``
    of ``sidecar = {name: {"symbol": sym, "indices": list(idx)}}`` over
    the cells ``idx`` of each symbol's id grid that hold a variable. It is
    filled in from one template per symbol, because ``json.dumps`` with an
    indent runs the pure-Python encoder, several times slower on a
    paper-scale day.
    """
    quote = json.encoder.encode_basestring_ascii
    entries = {}
    for sym, grid in inst.index.items():
        # The entry's template: the quoted name, then the cell's indices.
        indices = ",".join(["\n      {}"] * grid.ndim) + "\n    " if grid.ndim else ""
        symbol = quote(sym).replace("{", "{{").replace("}", "}}")
        template = '  {}: {{\n    "indices": [' + indices + '],\n    "symbol": ' + symbol + "\n  }}"
        fill = template.format
        present = grid >= 0
        for idx, vid in zip(np.argwhere(present).tolist(), grid[present].tolist()):
            name = inst.names[vid]
            entries[name] = fill(quote(name), *idx)
    if not entries:
        return "{}\n"
    return "{\n" + ",\n".join([entries[name] for name in sorted(entries)]) + "\n}\n"


def _add_common(ap: argparse.ArgumentParser) -> None:
    """The options every command shares; their defaults are RunSpec's."""
    default = {f.name: f.default for f in fields(RunSpec)}
    ap.add_argument("--config", type=Path, help="JSON config file (defaults used if omitted)")
    ap.add_argument("--data-dir", type=Path, required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--case", choices=CASES, default=default["case"])
    ap.add_argument("--nm", type=int, default=default["n_m"], help="price scenario count")
    ap.add_argument("--nr", type=int, default=default["n_r"], help="energy scenario count")
    ap.add_argument("--seed", type=int, default=default["seed"])
    ap.add_argument("--backend", choices=BACKENDS, default=default["backend"])
    ap.add_argument(
        "--time-limit", type=float, default=default["time_limit_s"], help="seconds per solve"
    )
    ap.add_argument("--gap", type=float, default=default["rel_gap"], help="relative MIP gap")


def _spec(args) -> RunSpec:
    try:
        config = load_config_json(args.config) if args.config else RecConfig()
    except ValueError as exc:
        raise SystemExit(f"invalid config: {exc}") from None
    problems = validate_config(config)
    if problems:
        raise SystemExit("invalid config:\n  " + "\n  ".join(problems))
    try:
        return RunSpec(
            config=config,
            data_dir=args.data_dir,
            case=args.case,
            n_m=args.nm,
            n_r=args.nr,
            seed=args.seed,
            backend=args.backend,
            out_dir=args.out_dir,
            time_limit_s=args.time_limit,
            rel_gap=args.gap,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid run settings: {exc}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="recbid", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="optimize a single day and report the program")
    _add_common(p_plan)
    p_plan.add_argument("--day", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="run the rolling simulation over all realized days")
    _add_common(p_sim)

    p_cmp = sub.add_parser("compare", help="run all four cases and tabulate weekly nets")
    _add_common(p_cmp)

    p_emit = sub.add_parser("emit", help="write one day's MILP exchange file and stop")
    _add_common(p_emit)
    p_emit.add_argument("--day", type=int, default=0)

    args = ap.parse_args(argv)
    spec = _spec(args)
    if args.command in ("plan", "emit"):
        data = load_week_data(spec.data_dir, spec.config.horizon_hours)
        if not 0 <= args.day < data.n_days:
            raise SystemExit(
                f"invalid run settings: day {args.day}: the data has "
                f"{data.n_days} realized days, numbered from 0"
            )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.command == "plan":
        result = run_day(spec, data, args.day, spec.config.soc_initial, out / f"day{args.day}")
        payload = {
            "day": result.day,
            "planner_objective": result.planner_objective,
            "expected": result.expected,
            "realized": result.report.totals(),
            "soc_final": result.soc_final,
            "bids": [
                None
                if b is None
                else {
                    "hour": b.hour,
                    "side": b.side,
                    "price": b.price,
                    "quantity": b.quantity,
                    "accepted": result.accepted[b.hour],
                }
                for b in result.program.bids
            ],
        }
        (out / "plan.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(json.dumps(payload["realized"], indent=2, sort_keys=True))
    elif args.command == "simulate":
        result = run_week(spec)
        print(json.dumps(result.weekly_totals(), indent=2, sort_keys=True))
    elif args.command == "compare":
        table = compare_cases(spec)
        header = f"{'case':<14}{'net EUR':>12}{'vs neither %':>14}{'vs no_msd %':>13}"
        print(header)
        for row in table:
            dn = row["delta_vs_neither_pct"]
            dm = row["delta_vs_no_msd_pct"]
            print(
                f"{row['case']:<14}{row['weekly_net_eur']:>12.2f}"
                f"{dn if dn is not None else float('nan'):>14.1f}"
                f"{dm if dm is not None else float('nan'):>13.1f}"
            )
    elif args.command == "emit":
        config, allow_bids, prices, energies, known = day_inputs(spec, data, args.day)
        inst = build_instance(
            config,
            prices,
            energies,
            known,
            soc_initial=config.soc_initial,
            allow_bids=allow_bids,
        )
        lp_path = out / "instance.lp"
        lp_path.write_text(emit_exchange(inst))
        (out / "instance.vars.json").write_text(_sidecar_json(inst))
        print(f"wrote {lp_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
