"""Rolling day-by-day simulation of the community's market participation.

For every simulated day: train scenario generators on strictly preceding
data, reduce to the configured scenario counts, build and solve the
day-ahead program, then dispatch and settle against the day's realized
series. Days chain through the realized terminal state of charge. The four
study cases (with/without market participation, with/without the shared
incentive) reuse the same data and seed.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from tempfile import mkdtemp

import numpy as np

from .core import DayAheadProgram, DayTrajectory, RecConfig
from .milp import (
    MilpInstance,
    Solution,
    build_instance,
    check_solution,
    expected_cashflow,
    extract_program,
    planned_soc_paths,
    spread_collapsed_plan,
)
from .scenarios import (
    build_price_scenarios,
    fit_dmc,
    load_energy_csv,
    load_known_prices_csv,
    load_price_csv,
    reduce_scenarios,
    sample_scenarios,
)
from .settlement import (
    CashFlowReport,
    DispatchResult,
    decide_acceptance,
    realtime_dispatch,
    report_to_dict,
    settle,
)
from .solver import NoIncumbentError, emit_exchange, reference_solve, solve_external

CASES = ("base", "no_msd", "no_incentive", "neither")
BACKENDS = ("external", "reference")

# One INFO line per planned day; silent unless the application configures
# logging (for example ``logging.basicConfig(level=logging.INFO)``).
log = logging.getLogger("recbid")


@dataclass(frozen=True)
class RunSpec:
    """Everything one simulation run depends on."""

    config: RecConfig
    data_dir: Path | None = None
    case: str = "base"
    n_m: int = 10
    n_r: int = 10
    seed: int = 0
    backend: str = "external"
    out_dir: Path | None = None
    time_limit_s: float = 300.0
    rel_gap: float = 1e-6
    dmc_samples: int = 300
    dmc_bins: int = 10
    price_window_days: int = 30

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {self.case!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        # Negated, so that NaN fails too.
        if not self.time_limit_s > 0:
            raise ValueError(f"time_limit_s must be > 0, got {self.time_limit_s}")
        if not self.rel_gap >= 0:
            raise ValueError(f"rel_gap must be >= 0, got {self.rel_gap}")
        least = {"n_m": 1, "n_r": 1, "dmc_samples": 1, "dmc_bins": 2, "price_window_days": 1}
        for name, low in least.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


def apply_case(config: RecConfig, case: str) -> tuple[RecConfig, bool]:
    """Map a study case onto (possibly modified config, bids allowed)."""
    if case == "base":
        return config, True
    if case == "no_msd":
        return config, False
    if case == "no_incentive":
        return replace(config, incentive_shared=0.0), True
    if case == "neither":
        return replace(config, incentive_shared=0.0), False
    raise ValueError(f"unknown case {case!r}")


@dataclass(frozen=True)
class WeekData:
    """In-memory bundle of training history and the simulated days."""

    energy_history: np.ndarray  # (hours, 3): pv, load, member demand
    price_history: np.ndarray  # (hours, 2): sell max, buy min
    realized_energy: np.ndarray  # (days*K, 3)
    realized_prices: np.ndarray  # (days*K, 2)
    known_prices: np.ndarray  # (days*K, 2): export, import tariff
    horizon: int

    def __post_init__(self):
        K = self.horizon
        for name in ("energy_history", "price_history", "realized_energy", "realized_prices", "known_prices"):
            arr = getattr(self, name)
            if arr.shape[0] % K:
                raise ValueError(f"{name} is not a whole number of {K}-hour days")
        if not (
            self.realized_energy.shape[0]
            == self.realized_prices.shape[0]
            == self.known_prices.shape[0]
        ):
            raise ValueError("realized series disagree on the number of days")

    @property
    def n_days(self) -> int:
        return self.realized_energy.shape[0] // self.horizon


def load_week_data(data_dir: str | Path, horizon: int = 24) -> WeekData:
    """Read the five CSVs of a simulation data directory."""
    d = Path(data_dir)
    return WeekData(
        energy_history=load_energy_csv(d / "energy_history.csv"),
        price_history=load_price_csv(d / "msd_price_history.csv"),
        realized_energy=load_energy_csv(d / "realized_energy.csv"),
        realized_prices=load_price_csv(d / "realized_msd_prices.csv"),
        known_prices=load_known_prices_csv(d / "known_prices.csv"),
        horizon=horizon,
    )


@dataclass
class DayResult:
    day: int
    program: DayAheadProgram
    planner_objective: float
    expected: dict[str, float]
    accepted: list[bool]
    dispatch: DispatchResult
    report: CashFlowReport
    soc_planned: np.ndarray  # (n_m, n_r, K+1)
    soc_final: float
    penalty_sell: float
    penalty_buy: float


def _day_seed(seed: int, day: int) -> int:
    return int(np.random.SeedSequence([seed, day]).generate_state(1)[0])


def build_day_scenarios(spec: RunSpec, data: WeekData, day: int):
    """Train on everything strictly before ``day`` and reduce."""
    K = data.horizon
    cut = day * K
    price_rows = np.vstack([data.price_history, data.realized_prices[:cut]])
    n_days = price_rows.shape[0] // K
    window = min(spec.price_window_days, n_days)
    pairs = [
        (price_rows[d * K : (d + 1) * K, 0], price_rows[d * K : (d + 1) * K, 1])
        for d in range(n_days - window, n_days)
    ]
    prices = build_price_scenarios(pairs)
    if prices.n > spec.n_m:
        prices = reduce_scenarios(prices, spec.n_m)

    energy_rows = np.vstack([data.energy_history, data.realized_energy[:cut]])
    model = fit_dmc(energy_rows, bins_per_channel=spec.dmc_bins, horizon=K)
    initial_state = model.encode_state(model.bin_values(energy_rows[-1]))
    sampled = sample_scenarios(
        model,
        initial_state,
        count=spec.dmc_samples,
        horizon=K,
        seed=_day_seed(spec.seed, day),
    )
    energies = reduce_scenarios(sampled, min(spec.n_r, sampled.n))
    return prices, energies


def day_inputs(spec: RunSpec, data: WeekData, day: int):
    """What the day's program is built from: the case's config and bid
    switch, the day's price and energy scenarios, and its known tariffs."""
    if not 0 <= day < data.n_days:
        raise ValueError(
            f"day {day}, case {spec.case}: no such day; the data has "
            f"{data.n_days} realized days, numbered from 0"
        )
    prices, energies = build_day_scenarios(spec, data, day)
    config, allow_bids = apply_case(spec.config, spec.case)
    K = data.horizon
    sl = slice(day * K, (day + 1) * K)
    known = (
        DayTrajectory(data.known_prices[sl, 0], "price_export"),
        DayTrajectory(data.known_prices[sl, 1], "price_import"),
    )
    return config, allow_bids, prices, energies, known


def run_day(
    spec: RunSpec,
    data: WeekData,
    day: int,
    soc_initial: float,
    workdir: str | Path | None,
) -> DayResult:
    """Plan, dispatch and settle one day, starting from ``soc_initial``.

    Returns the day's ``DayResult``: the program, the planner's objective
    and expected cash flow, the acceptance, dispatch and settlement against
    the realized day, the planned and realized states of charge and the
    penalties used.

    This is the one solve entry point: ``spec.backend`` picks HiGHS (the
    external route) or the in-package reference oracle. With a ``workdir``,
    the day's ``instance.lp`` (and, from HiGHS, ``solution.sol``) is
    written there. A day with bids that HiGHS leaves without a feasible
    point at its time limit gets the day's no-bid plan instead
    (``_no_bid_plan``), as a ``gap_limit`` solution, and a WARNING names
    it. A failed solve is re-raised naming the day, the case and
    an ``instance.lp`` that exists: the workdir's, or one written to a fresh
    scratch directory when there is no workdir. Each planned day is logged
    at INFO on the ``recbid`` logger: solver status, gap and nodes, model
    size (variables, rows, nonzeros and binaries), modelled and given
    price-scenario counts and wall seconds.
    """
    start = time.perf_counter()
    K = spec.config.horizon_hours
    if K != data.horizon:
        raise ValueError(f"config horizon {K} differs from data horizon {data.horizon}")
    config, allow_bids, prices, energies, known = day_inputs(spec, data, day)
    inst = build_instance(
        config, prices, energies, known, soc_initial=soc_initial, allow_bids=allow_bids
    )
    workdir = None if workdir is None else Path(workdir)
    try:
        if spec.backend == "reference":
            if workdir is not None:
                workdir.mkdir(parents=True, exist_ok=True)
                (workdir / "instance.lp").write_text(emit_exchange(inst))
            solution = reference_solve(inst)
        else:
            try:
                solution = solve_external(
                    inst, workdir, time_limit_s=spec.time_limit_s, rel_gap=spec.rel_gap
                )
            except NoIncumbentError as exc:
                if not allow_bids:
                    raise
                collapsed = build_instance(
                    config, prices, energies, known, soc_initial=soc_initial, allow_bids=False
                )
                solution = _no_bid_plan(inst, collapsed, exc, spec, workdir)
                log.warning(
                    "day %d, case %s: %s; planned without bids instead, objective %.6g, "
                    "gap %.3g",
                    day,
                    spec.case,
                    exc,
                    solution.objective_value,
                    solution.mip_gap,
                )
        if solution.status not in ("optimal", "gap_limit"):
            raise RuntimeError(f"solver returned {solution.status}")
    except (RuntimeError, ValueError, OSError) as exc:
        if workdir is None:
            workdir = Path(mkdtemp(prefix="recbid_"))
            (workdir / "instance.lp").write_text(emit_exchange(inst))
        raise RuntimeError(
            f"day {day}, case {spec.case}: {exc}; instance kept at {workdir / 'instance.lp'}"
        ) from exc
    program = extract_program(inst, solution)
    soc_planned = planned_soc_paths(inst, solution.values)
    expected = expected_cashflow(inst, solution.values)

    sl = slice(day * K, (day + 1) * K)
    realized_e = data.realized_energy[sl]
    realized_p = data.realized_prices[sl]
    accepted = decide_acceptance(program.bids, realized_p[:, 0], realized_p[:, 1])
    dispatch = realtime_dispatch(
        program,
        accepted,
        pv=realized_e[:, 0],
        load=realized_e[:, 1],
        member_demand=realized_e[:, 2],
        config=config,
        soc_initial=soc_initial,
    )
    report = settle(
        dispatch,
        program,
        accepted,
        price_export=data.known_prices[sl, 0],
        price_import=data.known_prices[sl, 1],
        config=config,
        penalty_sell=inst.data["penalty_sell"],
        penalty_buy=inst.data["penalty_buy"],
    )
    if log.isEnabledFor(logging.INFO):
        log.info(
            "day %d, case %s: %s, gap %.3g, nodes %s; %d vars, %d rows, %d nonzeros, "
            "%d binaries; "
            "%d of %d price scenarios modelled; %.3f s",
            day,
            spec.case,
            solution.status,
            solution.mip_gap,
            solution.nodes,
            inst.n_vars,
            inst.n_rows,
            len(inst.row_cols),
            len(inst.binary_ids()),
            inst.data["n_m"],
            inst.data["n_m_full"],
            time.perf_counter() - start,
        )
    return DayResult(
        day=day,
        program=program,
        planner_objective=float(solution.objective_value),
        expected=expected,
        accepted=accepted,
        dispatch=dispatch,
        report=report,
        soc_planned=soc_planned,
        soc_final=float(dispatch.soc[-1]),
        penalty_sell=inst.data["penalty_sell"],
        penalty_buy=inst.data["penalty_buy"],
    )


def _no_bid_plan(
    inst: MilpInstance,
    collapsed: MilpInstance,
    exc: NoIncumbentError,
    spec: RunSpec,
    workdir: Path | None,
) -> Solution:
    """The no-bid plan of a day with bids that HiGHS left without one.

    ``collapsed`` is the day's model built without bids. A plan that places
    no bid is feasible in the model with bids (``spread_collapsed_plan``),
    and that model is about a tenth of the size at ten price scenarios, so
    HiGHS solves it in seconds where the bid model may not reach a first
    point in the time limit. The solve gets the same limit and gap, and
    writes under ``workdir / "no_bid"``. The plan is audited against
    ``inst`` and returned as a ``gap_limit`` solution of ``inst``, with its
    gap against ``exc``'s dual bound (inf without one) and its node count.
    """
    try:
        sol = solve_external(
            collapsed,
            None if workdir is None else workdir / "no_bid",
            time_limit_s=spec.time_limit_s,
            rel_gap=spec.rel_gap,
        )
        if sol.status not in ("optimal", "gap_limit"):
            raise RuntimeError(f"solver returned {sol.status}")
    except RuntimeError as failed:
        raise RuntimeError(f"{exc}; without bids, {failed}") from failed
    values = spread_collapsed_plan(inst, collapsed, sol.values)
    if problems := check_solution(inst, values):
        raise RuntimeError(f"{exc}; the no-bid plan breaks {problems[0]}")
    objective = inst.evaluate_objective(values)
    bound = exc.dual_bound
    gap = math.inf
    if bound is not None and objective != 0.0:
        gap = abs(bound - objective) / abs(objective)
    return Solution("gap_limit", objective, values, mip_gap=gap, nodes=exc.nodes)


@dataclass
class WeekResult:
    spec: RunSpec
    days: list[DayResult] = field(default_factory=list)

    @property
    def weekly_net(self) -> float:
        return float(sum(d.report.totals()["net"] for d in self.days))

    @property
    def planner_objective_sum(self) -> float:
        return float(sum(d.planner_objective for d in self.days))

    def weekly_totals(self) -> dict[str, float]:
        keys = self.days[0].report.totals().keys()
        return {k: float(sum(d.report.totals()[k] for d in self.days)) for k in keys}


def run_week(spec: RunSpec, data: WeekData | None = None) -> WeekResult:
    """Chain run_day over every realized day, seeding each day's initial
    state of charge with the previous day's realized terminal value.

    Exchange files are written under ``spec.out_dir`` only; without it a
    successful week leaves no files behind."""
    if data is None:
        if spec.data_dir is None:
            raise ValueError("run_week needs either in-memory data or a data_dir")
        data = load_week_data(spec.data_dir, spec.config.horizon_hours)
    result = WeekResult(spec=spec)
    soc = spec.config.soc_initial
    base = None if spec.out_dir is None else Path(spec.out_dir)
    for day in range(data.n_days):
        day_result = run_day(spec, data, day, soc, None if base is None else base / f"day{day}")
        result.days.append(day_result)
        soc = day_result.soc_final
    if base is not None:
        write_week_outputs(result, base)
    return result


def compare_cases(spec: RunSpec, data: WeekData | None = None) -> list[dict]:
    """Run all four cases on identical data/seed and tabulate the nets.

    Percentage deltas are reported against the no-market-no-incentive case
    and against the no-market case.
    """
    if data is None:
        if spec.data_dir is None:
            raise ValueError("compare_cases needs either in-memory data or a data_dir")
        data = load_week_data(spec.data_dir, spec.config.horizon_hours)
    results: dict[str, WeekResult] = {}
    for case in CASES:
        sub_out = None if spec.out_dir is None else Path(spec.out_dir) / case
        results[case] = run_week(replace(spec, case=case, out_dir=sub_out), data)

    def pct(value: float, ref: float):
        if abs(ref) < 1e-12:
            return None
        return 100.0 * (value - ref) / abs(ref)

    ref_neither = results["neither"].weekly_net
    ref_no_msd = results["no_msd"].weekly_net
    table = []
    for case in CASES:
        net = results[case].weekly_net
        table.append(
            {
                "case": case,
                "weekly_net_eur": net,
                "planner_objective_sum": results[case].planner_objective_sum,
                "delta_vs_neither_pct": pct(net, ref_neither),
                "delta_vs_no_msd_pct": pct(net, ref_no_msd),
            }
        )
    if spec.out_dir is not None:
        out = Path(spec.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        cols = [
            "case",
            "weekly_net_eur",
            "planner_objective_sum",
            "delta_vs_neither_pct",
            "delta_vs_no_msd_pct",
        ]
        lines = [",".join(cols)]
        for row in table:
            lines.append(
                ",".join("" if row[c] is None else str(row[c]) for c in cols)
            )
        (out / "comparison.csv").write_text("\n".join(lines) + "\n")
        (out / "comparison.json").write_text(
            json.dumps(table, indent=2, sort_keys=True) + "\n"
        )
    return table


def write_week_outputs(result: WeekResult, out_dir: Path) -> None:
    """Emit report.json plus the long-format CSVs behind the usual figures."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = result.spec
    K = spec.config.horizon_hours

    report = {
        "seed": spec.seed,
        "case": spec.case,
        "n_m": spec.n_m,
        "n_r": spec.n_r,
        "backend": spec.backend,
        "config": {k: getattr(spec.config, k) for k in RecConfig.__dataclass_fields__},
        "days": [
            {
                "day": d.day,
                "planner_objective": d.planner_objective,
                "expected": d.expected,
                "realized": d.report.totals(),
                "soc_final": d.soc_final,
            }
            for d in result.days
        ],
        "weekly": result.weekly_totals(),
        "planner_objective_sum": result.planner_objective_sum,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    rows = ["day,hour,component,eur"]
    for d in result.days:
        as_dict = report_to_dict(d.report)["hourly"]
        for comp, series in as_dict.items():
            for k, v in enumerate(series):
                rows.append(f"{d.day},{k},{comp},{v!r}")
    (out_dir / "cashflow_long.csv").write_text("\n".join(rows) + "\n")

    hourly_cols = list(report_to_dict(result.days[0].report)["hourly"].keys())
    rows = ["day,hour," + ",".join(hourly_cols)]
    for d in result.days:
        hourly = report_to_dict(d.report)["hourly"]
        for k in range(K):
            rows.append(",".join([str(d.day), str(k)] + [repr(hourly[c][k]) for c in hourly_cols]))
    (out_dir / "cashflow.csv").write_text("\n".join(rows) + "\n")

    rows = ["day,hour,side,price_eur_kwh,quantity_kwh,submitted,accepted,shortfall_kwh"]
    for d in result.days:
        for k in range(K):
            bid = d.program.bids[k]
            if bid is None:
                rows.append(f"{d.day},{k},,0.0,0.0,False,False,0.0")
            else:
                short = (
                    d.dispatch.shortfall_sell[k]
                    if bid.side == "sell"
                    else d.dispatch.shortfall_buy[k]
                )
                rows.append(
                    f"{d.day},{k},{bid.side},{bid.price!r},{bid.quantity!r},"
                    f"True,{d.accepted[k]},{float(short)!r}"
                )
    (out_dir / "bids.csv").write_text("\n".join(rows) + "\n")

    rows = ["day,hour,soc"]
    for d in result.days:
        for k in range(K + 1):
            rows.append(f"{d.day},{k},{float(d.dispatch.soc[k])!r}")
    (out_dir / "soc.csv").write_text("\n".join(rows) + "\n")

    rows = ["day,price_scenario,energy_scenario,hour,soc"]
    for d in result.days:
        n_m, n_r, _ = d.soc_planned.shape
        for s in range(n_m):
            for l in range(n_r):
                for k in range(K + 1):
                    rows.append(f"{d.day},{s},{l},{k},{float(d.soc_planned[s, l, k])!r}")
    (out_dir / "soc_planned.csv").write_text("\n".join(rows) + "\n")
