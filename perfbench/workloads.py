"""The benchmark's workloads: seeded inputs, the timed loop, correctness gates.

Each workload exposes ``make_inputs(seed, work)`` (part of set-up),
``run(inputs, budget_s, untimed, clock)`` which returns a
:class:`RunStats`, and ``recheck(inputs, stats)`` which repeats the first
operation and fails the run if a same-seed repeat differs. ``untimed`` is a
context manager around the correctness gates, so that tracing leaves them
out. ``clock`` is a :class:`hostspeed.HostClock` (or ``NoClock``): ``run``
calls its ``tick`` before each operation, outside the operation's timed
interval, and runs ``emit_paper``'s long in-process operation inside
``clock.interleaved()``.

A run is made of whole passes; every pass has the same mix of work. The
first pass always runs; another starts while the timed seconds plus half
the mean pass time stay below ``budget_s``, so a run times the whole
number of passes that comes nearest to the budget. Stopping only between
passes keeps the mix of operations the same on every run, so the medians
compare like with like. Only the calls into recbid are timed; the gates
run between them. Every timed interval is kept as its ``(start, end)``
wall times, so that run.py can convert it to reference seconds afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from recbid import cli, harness, highs_runner, milp, solver
from recbid.core import DayTrajectory, RecConfig, ScenarioSet
from recbid.harness import RunSpec, WeekData

ROOT = Path(__file__).resolve().parents[1]
GENERATOR = ROOT / "scripts" / "make_synthetic_week.py"
GENERATOR_DEFAULT_SEED = 20220701
HISTORY_DAYS = 35


@dataclass(frozen=True)
class Sizes:
    compare_days: int = 2
    emit_scenarios: int = 10
    emit_days: int = 4
    oracle_library: int = 80


FULL = Sizes()
TOY = Sizes(compare_days=1, emit_scenarios=2, emit_days=1, oracle_library=3)

# compare_light: the four study cases at the light scenario size. The
# solver time limit keeps a stuck solve inside the run's time budget; a
# solve that hits it reports a gap above REL_GAP and counts as failed.
COMPARE_NM, COMPARE_NR, REL_GAP, TIME_LIMIT_S = 2, 1, 2e-2, 60.0
# oracle_desk: desk-scale instances within the oracle's default binary
# budget (K=2, n_m=2, n_r=1: 24 binaries).
ORACLE_K, ORACLE_NM, ORACLE_NR = 2, 2, 1
ORACLE_LIBRARY_SEED, ORACLE_JITTER = 20231121, 0.04
CROSS_CHECK_RTOL = 1e-6


@dataclass
class RunStats:
    op_seconds: list[float] = field(default_factory=list)
    op_spans: list[tuple[float, float]] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    timed_spans: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    audit_s: float = 0.0
    objective_eur: float | None = None
    net_eur: float | None = None
    first: object = None  # what recheck compares a same-seed repeat against

    def p50(self) -> float:
        return statistics.median(self.op_seconds) if self.op_seconds else 0.0

    def op(self, start: float, end: float) -> None:
        self.op_seconds.append(end - start)
        self.op_spans.append((start, end))

    def timed(self, start: float, end: float) -> None:
        self.timed_s += end - start
        self.timed_spans.append((start, end))

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)


def run_passes(stats: RunStats, budget_s: float, one_pass) -> None:
    """Call ``one_pass(index)`` for the first pass, then while another
    brings the timed seconds nearer to ``budget_s``."""
    index = 0
    while index == 0 or stats.timed_s + statistics.mean(stats.pass_seconds) / 2 < budget_s:
        before = stats.timed_s
        one_pass(index)
        stats.pass_seconds.append(stats.timed_s - before)
        index += 1


def generate_week(seed: int, out_dir: Path, week_days: int) -> Path:
    """Run the bundled data generator as a program into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(GENERATOR),
        "--out-dir", str(out_dir),
        "--seed", str(seed),
        "--history-days", str(HISTORY_DAYS),
        "--week-days", str(week_days),
    ]
    subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return out_dir


def audit(stats: RunStats, inst, sol, rel_gap: float | None, label: str) -> bool:
    """The gates every solution passes: status, feasibility audit, gap."""
    t0 = perf_counter()
    problems = []
    if sol is None or sol.status not in ("optimal", "gap_limit") or sol.values is None:
        problems.append(f"status {None if sol is None else sol.status}")
    else:
        problems += milp.check_solution(inst, sol.values)[:3]
        if rel_gap is not None and sol.mip_gap > rel_gap:
            problems.append(f"gap {sol.mip_gap} above {rel_gap}")
    stats.audit_s += perf_counter() - t0
    if problems:
        stats.fail(f"{label}: {'; '.join(problems)}")
    return not problems


# ---------------------------------------------------------------------------
# compare_light
# ---------------------------------------------------------------------------


class _PlanFailed(Exception):
    """A plan raised; its failure is already counted."""


@dataclass
class CompareInputs:
    period: WeekData
    spec: RunSpec
    work: Path

    def pass_spec(self, index: int, out_dir: Path) -> RunSpec:
        """Pass ``index`` plans the same days under its own scenario seed."""
        seed = int(np.random.SeedSequence([self.spec.seed, index]).generate_state(1)[0])
        return replace(self.spec, seed=seed, out_dir=out_dir)


class CompareLight:
    """One pass is ``compare_cases`` over the same days, each pass under its
    own scenario seed; one operation is one ``run_day`` inside it."""

    name = "compare_light"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def make_inputs(self, seed: int, work: Path) -> CompareInputs:
        """The first days of the generator's default period (the bundled
        week); the workload seed seeds the planner's scenario sampling.

        Fresh weather per seed moved plans per second by 22 % (quartile
        spread over five seeds): that measures which days a seed drew, not
        the program. Replanning the same days keeps the mix of work the
        same in every pass and on every seed.
        """
        data_dir = generate_week(GENERATOR_DEFAULT_SEED, work / "data", self.sizes.compare_days)
        spec = RunSpec(
            config=RecConfig(),
            n_m=COMPARE_NM,
            n_r=COMPARE_NR,
            seed=seed,
            backend="external",
            rel_gap=REL_GAP,
            time_limit_s=TIME_LIMIT_S,
        )
        return CompareInputs(harness.load_week_data(data_dir), spec, work)

    def run(self, inputs: CompareInputs, budget_s: float, untimed, clock) -> RunStats:
        stats = RunStats()
        captured: dict = {}
        plans: list = []
        inner_run_day = harness.run_day
        inner_build = harness.build_instance
        inner_solve = harness.solve_external

        def build_probe(*args, **kwargs):
            captured["inst"] = inner_build(*args, **kwargs)
            return captured["inst"]

        def solve_probe(*args, **kwargs):
            captured["sol"] = inner_solve(*args, **kwargs)
            return captured["sol"]

        def run_day_probe(spec, data, day, soc, workdir):
            captured.clear()
            stats.attempted += 1
            clock.tick()
            start = perf_counter()
            try:
                result = inner_run_day(spec, data, day, soc, workdir)
            except Exception as exc:
                stats.fail(f"{spec.case} day {day}: {exc!r}"[:300])
                raise _PlanFailed from exc
            stats.op(start, perf_counter())
            plans.append((spec.case, day, captured.get("inst"), captured.get("sol"), result))
            return result

        def one_pass(index):
            out = inputs.work / f"pass{index}"
            plans.clear()
            table = None
            clock.tick()
            start = perf_counter()
            try:
                table = harness.compare_cases(inputs.pass_spec(index, out), inputs.period)
            except _PlanFailed:
                pass
            except Exception as exc:
                stats.fail(f"pass {index}: {exc!r}"[:300])
            stats.timed(start, perf_counter())
            with untimed():
                self._check_pass(stats, plans, table, index == 0)
                shutil.rmtree(out, ignore_errors=True)

        harness.build_instance, harness.solve_external = build_probe, solve_probe
        harness.run_day = run_day_probe
        try:
            run_passes(stats, budget_s, one_pass)
        finally:
            harness.run_day = inner_run_day
            harness.build_instance, harness.solve_external = inner_build, inner_solve
        return stats

    def _check_pass(self, stats, plans, table, is_first):
        for case, day, inst, sol, _result in plans:
            if inst is None or sol is None:
                stats.fail(f"{case} day {day}: instance or solution not observed")
                continue
            audit(stats, inst, sol, REL_GAP, f"{case} day {day}")
        if not is_first:
            return
        if table is None:
            stats.fail("first pass did not complete")
            return
        stats.first = plans[0]
        stats.objective_eur = sum(row["planner_objective_sum"] for row in table)
        stats.net_eur = sum(row["weekly_net_eur"] for row in table)
        plan_objective = sum(r.planner_objective for *_, r in plans)
        if not np.isclose(plan_objective, stats.objective_eur, rtol=1e-12, atol=1e-9):
            stats.fail(f"comparison table objective {stats.objective_eur} != plans {plan_objective}")

    def recheck(self, inputs: CompareInputs, stats: RunStats) -> None:
        """Same inputs and seed must give the same objective and net."""
        if stats.first is None:
            return
        case, day, _inst, _sol, result = stats.first
        spec = replace(inputs.pass_spec(0, None), case=case)
        again = harness.run_day(
            spec, inputs.period, day, spec.config.soc_initial, inputs.work / "rerun"
        )
        if (again.planner_objective, again.report.totals()["net"]) != (
            result.planner_objective,
            result.report.totals()["net"],
        ):
            stats.fail("same-seed rerun of the first plan changed its objective or net")
        shutil.rmtree(inputs.work / "rerun", ignore_errors=True)


# ---------------------------------------------------------------------------
# oracle_desk
# ---------------------------------------------------------------------------


def oracle_member(index: int):
    """Member ``index`` of the library: a random desk-scale community with
    export tariffs below import tariffs and service prices spread between
    them (the acceptance suite's instance family)."""
    rng = np.random.default_rng([ORACLE_LIBRARY_SEED, index])
    K, nm, nr = ORACLE_K, ORACLE_NM, ORACLE_NR
    battery = float(rng.choice([0.0, rng.uniform(40, 120)]))
    incentive = float(rng.choice([0.0, rng.uniform(0.05, 0.15)]))
    config = RecConfig(
        horizon_hours=K,
        p_export_max=float(rng.uniform(40, 80)),
        p_import_max=float(rng.uniform(40, 80)),
        battery_capacity_kwh=battery,
        battery_power_kwh_per_slot=float(rng.uniform(10, 40)),
        eta_charge=float(rng.uniform(0.85, 1.0)),
        eta_discharge=float(rng.uniform(0.85, 1.0)),
        soc_initial=float(rng.uniform(0.3, 0.7)),
        soc_final_min=float(rng.uniform(0.0, 0.3)),
        soc_final_max=float(rng.uniform(0.7, 1.0)),
        incentive_shared=incentive,
        renewable_only_charging=bool(rng.integers(0, 2)),
    )
    sell = rng.uniform(0.15, 0.40, (nm, K))
    buy = rng.uniform(0.10, 0.16, (nm, K))
    pv = rng.uniform(0.0, 35.0, (nr, K))
    pv[rng.random((nr, K)) < 0.2] = 0.0
    load = rng.uniform(2.0, 12.0, (nr, K))
    demand = rng.uniform(5.0, 25.0, (nr, K))
    tariffs = rng.uniform(0.05, 0.09, K), rng.uniform(0.20, 0.30, K)
    return config, (sell, buy), (pv, load, demand), tariffs


def oracle_inputs(seed: int, index: int, library: list):
    """Operation ``index`` of a run: library member ``index mod len(library)``
    with every price and energy value scaled by its own factor drawn from
    [1 - ORACLE_JITTER, 1 + ORACLE_JITTER] under ``(seed, index)``.

    Solve time is heavy-tailed across the family (coefficient of variation
    1.4 over 200 members), so independent draws per seed would make
    throughput depend on which members a seed drew. Every pass walks the
    whole library, which keeps the mix the same on every seed; the jitter
    gives each seed and pass instances no other solves. With a 4 % jitter,
    tariffs stay below service buy prices, as in the family.
    """
    config, (sell, buy), (pv, load, demand), (export, imprt) = library[index % len(library)]
    rng = np.random.default_rng([seed, index])

    def jitter(a):
        return a * rng.uniform(1.0 - ORACLE_JITTER, 1.0 + ORACLE_JITTER, np.shape(a))

    nm, nr = sell.shape[0], pv.shape[0]
    prices = ScenarioSet(
        channels=("price_sell_max", "price_buy_min"),
        values=np.stack([jitter(sell), jitter(buy)], axis=1),
        probabilities=np.full(nm, 1.0 / nm),
    )
    energies = ScenarioSet(
        channels=("pv", "load", "member_demand"),
        values=np.stack([jitter(pv), jitter(load), jitter(demand)], axis=1),
        probabilities=np.full(nr, 1.0 / nr),
    )
    known = (
        DayTrajectory(jitter(export), "price_export"),
        DayTrajectory(jitter(imprt), "price_import"),
    )
    return config, prices, energies, known


@dataclass
class OracleInputs:
    seed: int
    library: list


class OracleDesk:
    """One pass walks the library once; one operation is one exact solve."""

    name = "oracle_desk"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def make_inputs(self, seed: int, work: Path) -> OracleInputs:
        return OracleInputs(seed, [oracle_member(i) for i in range(self.sizes.oracle_library)])

    def run(self, inputs: OracleInputs, budget_s: float, untimed, clock) -> RunStats:
        stats = RunStats()
        objectives = []

        def one_pass(p):
            for j in range(len(inputs.library)):
                index = p * len(inputs.library) + j
                clock.tick()
                start = perf_counter()
                inst = milp.build_instance(*oracle_inputs(inputs.seed, index, inputs.library))
                stats.attempted += 1
                solved = perf_counter()
                try:
                    sol = solver.reference_solve(inst, binary_limit=60)
                except Exception as exc:
                    sol = None
                    stats.fail(f"instance {index}: {exc!r}"[:300])
                end = perf_counter()
                stats.timed(start, end)
                if sol is None:
                    continue
                stats.op(solved, end)
                with untimed():
                    if self._check(stats, inst, sol, index) and p == 0:
                        objectives.append(sol.objective_value)
            if p == 0:
                stats.objective_eur = sum(objectives)
                stats.first = objectives[0] if objectives else None

        run_passes(stats, budget_s, one_pass)
        return stats

    def _check(self, stats, inst, sol, index) -> bool:
        """Audit the exact solve and cross-check it against in-process HiGHS."""
        if not audit(stats, inst, sol, None, f"instance {index}"):
            return False
        parsed = solver.parse_lp(solver.emit_exchange(inst))
        res = highs_runner.solve_parsed(parsed, time_limit=60.0, gap=1e-9)
        if res.x is None:
            stats.fail(f"instance {index}: in-process HiGHS found no solution (status {res.status})")
            return False
        ref = inst.evaluate_objective(np.asarray(res.x))
        if abs(ref - sol.objective_value) > CROSS_CHECK_RTOL * max(1.0, abs(ref)):
            stats.fail(f"instance {index}: oracle {sol.objective_value} vs HiGHS {ref}")
            return False
        return True

    def recheck(self, inputs: OracleInputs, stats: RunStats) -> None:
        if stats.first is None:
            return
        inst = milp.build_instance(*oracle_inputs(inputs.seed, 0, inputs.library))
        if solver.reference_solve(inst, binary_limit=60).objective_value != stats.first:
            stats.fail("same-seed re-solve of instance 0 changed its objective")


# ---------------------------------------------------------------------------
# emit_paper
# ---------------------------------------------------------------------------


@dataclass
class EmitInputs:
    data_dir: Path
    work: Path
    sizes: Sizes


def emit_day(data_dir: Path, out_dir: Path, day: int, n: int) -> str:
    """``recbid emit`` for one day; returns the LP text it wrote."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main([
            "emit", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
            "--day", str(day), "--nm", str(n), "--nr", str(n),
        ])
    return (out_dir / "instance.lp").read_text()


def emit_round_trip(data_dir: Path, out_dir: Path, day: int, n: int):
    """One operation: ``recbid emit``, then the runner's first step, parse_lp."""
    text = emit_day(data_dir, out_dir, day, n)
    return text, solver.parse_lp(text)


def round_trip_problems(inst, parsed) -> list[str]:
    """Compare a parsed LP with the instance it was emitted from."""
    out = []
    names = inst.names
    if parsed.names != names:
        out.append("variable order differs")
    if not parsed.maximize:
        out.append("objective sense flipped")
    objective = {names[v]: c for v, c in inst.objective.items() if c != 0.0}
    if parsed.objective != objective:
        out.append("objective coefficients differ")
    if len(parsed.rows) != len(inst.rows):
        out.append(f"{len(parsed.rows)} rows parsed, {len(inst.rows)} emitted")
    for (name, terms, sense, rhs), (pname, coeffs, psense, prhs) in zip(inst.rows, parsed.rows):
        expect: dict[str, float] = {}
        for vid, coef in terms:
            expect[names[vid]] = expect.get(names[vid], 0.0) + coef
        if (name, sense, rhs, expect) != (pname, psense, prhs, coeffs):
            out.append(f"row {name} differs")
            break
    if [parsed.lb[n] for n in names] != list(map(float, inst.lb)) or [
        parsed.ub[n] for n in names
    ] != list(map(float, inst.ub)):
        out.append("bounds differ")
    if parsed.binaries != {names[i] for i in inst.binary_ids()}:
        out.append("binaries differ")
    return out


class EmitPaper:
    """One pass is one operation: ``recbid emit`` of the next day at the CLI
    default scenario counts, then ``parse_lp`` of the file it wrote."""

    name = "emit_paper"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def make_inputs(self, seed: int, work: Path) -> EmitInputs:
        data_dir = generate_week(seed, work / "data", self.sizes.emit_days)
        harness.load_week_data(data_dir)
        return EmitInputs(data_dir, work, self.sizes)

    def run(self, inputs: EmitInputs, budget_s: float, untimed, clock) -> RunStats:
        stats = RunStats()
        captured: dict = {}
        inner_build = cli.build_instance

        def build_probe(*args, **kwargs):
            captured["inst"] = inner_build(*args, **kwargs)
            return captured["inst"]

        def one_pass(index):
            out = inputs.work / f"emit{index}"
            captured.clear()
            stats.attempted += 1
            text = parsed = None
            clock.tick()
            with clock.interleaved():
                start = perf_counter()
                try:
                    text, parsed = emit_round_trip(
                        inputs.data_dir, out, index % inputs.sizes.emit_days, inputs.sizes.emit_scenarios
                    )
                except Exception as exc:
                    stats.fail(f"round trip {index}: {exc!r}"[:300])
                end = perf_counter()
            stats.timed(start, end)
            with untimed():
                if parsed is not None:
                    stats.op(start, end)
                    t_audit = perf_counter()
                    problems = round_trip_problems(captured["inst"], parsed)
                    stats.audit_s += perf_counter() - t_audit
                    if problems:
                        stats.fail(f"round trip {index}: {'; '.join(problems)}")
                if index == 0 and text is not None:
                    stats.first = hashlib.sha256(text.encode()).hexdigest()
                captured.clear()
                shutil.rmtree(out, ignore_errors=True)

        cli.build_instance = build_probe
        try:
            run_passes(stats, budget_s, one_pass)
        finally:
            cli.build_instance = inner_build
        return stats

    def recheck(self, inputs: EmitInputs, stats: RunStats) -> None:
        if stats.first is None:
            return
        out = inputs.work / "rerun"
        text = emit_day(inputs.data_dir, out, 0, inputs.sizes.emit_scenarios)
        if hashlib.sha256(text.encode()).hexdigest() != stats.first:
            stats.fail("same-seed re-emit of day 0 changed the LP text")
        shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CompareLight, OracleDesk, EmitPaper)}
