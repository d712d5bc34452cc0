"""The benchmark's traced run wraps recbid functions by name from outside
the package (``perfbench/layers.py``). Deleting or renaming one of them
must fail here, not only in a benchmark run."""

from pathlib import Path

from recbid import cli, harness, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
