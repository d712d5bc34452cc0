"""Where the traced run puts its spans, and the per-layer metrics they give.

Each wrap names the module whose namespace the caller looks the function
up in. Span names are ``<layer>.<what>``; the layer is the recbid module
the wrapped function belongs to (``cli`` is the ``recbid emit`` front end).
"""

from __future__ import annotations

import json
from pathlib import Path

from recbid import cli, harness, milp, solver

import tracing
import workloads

LAYERS = ("scenarios", "milp", "solver", "highs_runner", "simplex", "settlement", "harness", "cli")


def _sizes(tr, args, kwargs, inst, sid):
    tr.counts["milp.instances"] += 1
    tr.counts["milp.vars"] += inst.n_vars
    tr.counts["milp.rows"] += inst.n_rows
    tr.counts["milp.nonzeros"] += sum(len(row[1]) for row in inst.rows)
    tr.counts["milp.binaries"] += len(inst.binary_ids())


def _trajectories(tr, args, kwargs, sset, sid):
    tr.counts["scenarios.trajectories_sampled"] += sset.n


def _lp_bytes(tr, args, kwargs, text, sid):
    tr.counts["solver.lp_texts"] += 1
    tr.counts["solver.lp_bytes"] += len(text.encode())


def _lp_calls(tr, args, kwargs, res, sid):
    tr.counts["simplex.calls"] += 1
    tr.counts["simplex.iterations"] += res.iterations


def _objective(tr, args, kwargs, sol, sid):
    if sol.objective_value is not None:
        tr.counts["solver.objective_eur"] += sol.objective_value


def _child_spans(tr, args, kwargs, sol, sid):
    """Attach the solver child's spans under this solve_external span."""
    _objective(tr, args, kwargs, sol, sid)
    workdir = Path(args[1] if len(args) > 1 else kwargs["workdir"])
    path = workdir / "solution.sol.spans.json"
    if not path.exists():
        return
    child = json.loads(path.read_text())
    main_name, main_start, main_end = child["spans"][0]
    main_id = tr.add_child_span(main_name, main_start, main_end, sid)
    for name, start, end in child["spans"][1:]:
        tr.add_child_span(name, start, end, main_id)
    tr.counts["highs_runner.mip_nodes"] += child["mip_nodes"]
    tr.maxima["highs_runner.mip_gap"] = max(tr.maxima["highs_runner.mip_gap"], child["mip_gap"])


def _acceptance(tr, args, kwargs, accepted, sid):
    bids = args[0]
    tr.counts["settlement.bids_submitted"] += sum(1 for b in bids if b is not None and b.submitted)
    tr.counts["settlement.bids_accepted"] += sum(accepted)


def _shortfall(tr, args, kwargs, dispatch, sid):
    tr.counts["settlement.shortfall_kwh"] += float(dispatch.shortfall_sell.sum() + dispatch.shortfall_buy.sum())


def _net(tr, args, kwargs, report, sid):
    tr.counts["settlement.net_eur"] += report.totals()["net"]


def instrument(tr: tracing.Tracer) -> None:
    w = tr.wrap
    # compare_light: one operation is one run_day.
    w(harness, "run_day", "harness.day_s", op_root=True)
    w(harness, "compare_cases", "harness.compare")
    w(harness, "run_week", "harness.week")
    w(harness, "write_week_outputs", "harness.outputs_s")
    w(harness, "build_day_scenarios", "scenarios.build_s")
    w(harness, "build_price_scenarios", "scenarios.prices_s")
    w(harness, "fit_dmc", "scenarios.fit_s")
    w(harness, "sample_scenarios", "scenarios.sample_s", _trajectories)
    w(harness, "reduce_scenarios", "scenarios.reduce_s")
    w(harness, "build_instance", "milp.build_s", _sizes)
    for name in ("extract_program", "planned_soc_paths", "expected_cashflow"):
        w(harness, name, "milp.extract_s")
    w(harness, "solve_external", "solver.external_s", _child_spans)
    w(harness, "decide_acceptance", "settlement.accept_s", _acceptance)
    w(harness, "realtime_dispatch", "settlement.dispatch_s", _shortfall)
    w(harness, "settle", "settlement.settle_s", _net)
    w(solver, "emit_exchange", "solver.emit_s", _lp_bytes)
    # oracle_desk: one operation is one reference_solve.
    w(milp, "build_instance", "milp.build_s", _sizes)
    w(solver, "reference_solve", "solver.reference_s", _objective, op_root=True)
    w(solver, "solve_lp", "simplex.busy_s", _lp_calls)
    # emit_paper: one operation is `recbid emit` plus parse_lp.
    w(workloads, "emit_round_trip", "cli.emit", op_root=True)
    w(cli, "load_week_data", "harness.load_s")
    w(cli, "build_instance", "milp.build_s", _sizes)
    w(cli, "emit_exchange", "solver.emit_s", _lp_bytes)
    w(solver, "parse_lp", "solver.parse_lp_s")


# name -> unit; the order and units match BENCHMARK.json's per_layer list.
PER_LAYER = {
    "scenarios.build_s": "s/op",
    "scenarios.fit_s": "s/op",
    "scenarios.sample_s": "s/op",
    "scenarios.reduce_s": "s/op",
    "scenarios.trajectories_sampled": "count/op",
    "milp.build_s": "s/op",
    "milp.vars": "count",
    "milp.rows": "count",
    "milp.nonzeros": "count",
    "milp.binaries": "count",
    "milp.extract_s": "s/op",
    "milp.audit_s": "s/op",
    "solver.emit_s": "s/op",
    "solver.lp_bytes": "B",
    "solver.external_s": "s/op",
    "solver.spawn_s": "s/op",
    "solver.parse_lp_s": "s/op",
    "solver.reference_s": "s/op",
    "solver.oracle_lp_calls": "count/op",
    "solver.objective_eur": "EUR/op",
    "highs_runner.parse_s": "s/op",
    "highs_runner.search_s": "s/op",
    "highs_runner.mip_nodes": "count/op",
    "highs_runner.mip_gap": "ratio",
    "simplex.calls": "count/op",
    "simplex.iterations": "count/op",
    "simplex.busy_s": "s/op",
    "settlement.busy_s": "s/op",
    "settlement.bids_accepted_ratio": "ratio",
    "settlement.shortfall_kwh": "kWh/op",
    "settlement.net_eur": "EUR/op",
    "harness.day_s": "s/op",
    "harness.outputs_s": "s/op",
    **{f"{layer}.self_s": "s/op" for layer in LAYERS},
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.accounted_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(
    tr: tracing.Tracer, op_wall_s: float, audit_s: float, overhead_ratio: float
) -> dict[str, float]:
    """Per-operation layer metrics of a traced run.

    ``op_wall_s`` is the operations' wall time as the benchmark loop timed
    it; ``trace.accounted_ratio`` is the share of it that the layer self
    times inside the operations explain.
    """
    summary = tracing.summarize(tr)
    total = summary["totals"]
    c = tr.counts
    n = max(tr.n_ops, 1)
    n_inst = max(c["milp.instances"], 1)

    def per_op(key: str) -> float:
        return total.get(key, 0.0) / n

    spawn = sum(
        st for s, st in zip(tr.spans, summary["self_by_span"]) if s.name == "solver.external_s"
    )
    compare_self = sum(
        st for s, st in zip(tr.spans, summary["self_by_span"]) if s.name == "harness.compare"
    )
    out = {
        "scenarios.build_s": per_op("scenarios.build_s"),
        "scenarios.fit_s": per_op("scenarios.fit_s"),
        "scenarios.sample_s": per_op("scenarios.sample_s"),
        "scenarios.reduce_s": per_op("scenarios.reduce_s"),
        "scenarios.trajectories_sampled": c["scenarios.trajectories_sampled"] / n,
        "milp.build_s": per_op("milp.build_s"),
        "milp.vars": c["milp.vars"] / n_inst,
        "milp.rows": c["milp.rows"] / n_inst,
        "milp.nonzeros": c["milp.nonzeros"] / n_inst,
        "milp.binaries": c["milp.binaries"] / n_inst,
        "milp.extract_s": per_op("milp.extract_s"),
        "milp.audit_s": audit_s / n,
        "solver.emit_s": per_op("solver.emit_s"),
        "solver.lp_bytes": c["solver.lp_bytes"] / max(c["solver.lp_texts"], 1),
        "solver.external_s": per_op("solver.external_s"),
        "solver.spawn_s": spawn / n,
        "solver.parse_lp_s": per_op("solver.parse_lp_s"),
        "solver.reference_s": per_op("solver.reference_s"),
        "solver.oracle_lp_calls": c["simplex.calls"] / n,
        "solver.objective_eur": c["solver.objective_eur"] / n,
        "highs_runner.parse_s": per_op("highs_runner.parse_s"),
        "highs_runner.search_s": per_op("highs_runner.search_s"),
        "highs_runner.mip_nodes": c["highs_runner.mip_nodes"] / n,
        "highs_runner.mip_gap": tr.maxima["highs_runner.mip_gap"],
        "simplex.calls": c["simplex.calls"] / n,
        "simplex.iterations": c["simplex.iterations"] / n,
        "simplex.busy_s": per_op("simplex.busy_s"),
        "settlement.busy_s": sum(
            per_op(k) for k in ("settlement.accept_s", "settlement.dispatch_s", "settlement.settle_s")
        ),
        "settlement.bids_accepted_ratio": c["settlement.bids_accepted"]
        / max(c["settlement.bids_submitted"], 1),
        "settlement.shortfall_kwh": c["settlement.shortfall_kwh"] / n,
        "settlement.net_eur": c["settlement.net_eur"] / n,
        "harness.day_s": per_op("harness.day_s"),
        "harness.outputs_s": (total.get("harness.outputs_s", 0.0) + compare_self) / n,
        **{f"{layer}.self_s": summary["layer_self"].get(layer, 0.0) / n for layer in LAYERS},
        "trace.ops": float(tr.n_ops),
        "trace.spans": float(len(tr.spans)),
        "trace.accounted_ratio": summary["op_self_sum"] / op_wall_s if op_wall_s else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    if list(out) != list(PER_LAYER):
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return out
