"""The benchmark's traced run wraps recbid functions by name from outside
the package (``perfbench/layers.py``). Deleting or renaming one of them
must fail here, not only in a benchmark run."""

from pathlib import Path

from recbid import cli, harness, solver

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
