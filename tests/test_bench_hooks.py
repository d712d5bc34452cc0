"""The benchmark's traced run wraps recbid functions by name from outside
the package (``perfbench/layers.py``). Deleting or renaming one of them
must fail here, not only in a benchmark run."""

from pathlib import Path

import numpy as np

from recbid import cli, harness, highs_runner, milp, solver
from recbid.core import RecConfig

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    originals = (harness.run_day, solver.parse_lp, cli.build_instance)
    tracer = tracing.Tracer()
    try:
        layers.instrument(tracer)  # getattr on every wrapped name
        assert harness.run_day is not originals[0]
    finally:
        tracer.restore()
    assert (harness.run_day, solver.parse_lp, cli.build_instance) == originals


def test_emit_round_trip_records_its_layers(monkeypatch, tmp_path):
    # emit_paper's per-layer figures come from these spans; a front end
    # that stopped calling through the wrapped names would read 0 there.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing
    import workloads

    tracer = tracing.Tracer()
    try:
        layers.instrument(tracer)
        text, _parsed = workloads.emit_round_trip(ROOT / "data" / "synthetic_week", tmp_path, 0, 1)
    finally:
        tracer.restore()
    names = [span.name for span in tracer.spans]
    assert names[0] == "cli.emit" and tracer.n_ops == 1
    for name in ("harness.load_s", "milp.build_s", "solver.emit_s", "solver.parse_lp_s"):
        assert names.count(name) == 1, name
    assert all(span.op == 0 and span.parent is not None for span in tracer.spans[1:])
    assert tracer.counts["solver.lp_bytes"] == len(text.encode()) > 0


def test_emit_round_trip_passes_its_audit(monkeypatch, tmp_path):
    # emit_paper fails an operation whose parsed LP differs from the model
    # the same day builds; a 1x1 day shows that check passing.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    data_dir = ROOT / "data" / "synthetic_week"
    _text, parsed = workloads.emit_round_trip(data_dir, tmp_path, 0, 1)
    spec = harness.RunSpec(config=RecConfig(), n_m=1, n_r=1)
    config, allow_bids, prices, energies, known = harness.day_inputs(
        spec, harness.load_week_data(data_dir), 0
    )
    inst = milp.build_instance(
        config, prices, energies, known, soc_initial=config.soc_initial, allow_bids=allow_bids
    )
    assert workloads.round_trip_problems(inst, parsed) == []


def test_oracle_desk_cross_check_passes(monkeypatch):
    # oracle_desk fails an operation whose exact solve HiGHS does not
    # confirm; one desk instance shows that check passing.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    inst = milp.build_instance(*workloads.oracle_inputs(1, 0, [workloads.oracle_member(0)]))
    sol = solver.reference_solve(inst, binary_limit=60)
    assert sol.status == "optimal" and milp.check_solution(inst, sol.values) == []
    res = highs_runner.solve_parsed(solver.parse_lp(solver.emit_exchange(inst)), 60.0, 1e-9)
    ref = inst.evaluate_objective(np.asarray(res.x))
    assert abs(ref - sol.objective_value) <= workloads.CROSS_CHECK_RTOL * max(1.0, abs(ref))
