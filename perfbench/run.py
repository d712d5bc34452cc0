#!/usr/bin/env python3
"""recbid benchmark: day-ahead planning throughput on seeded workloads.

Run from the repository root, with no install step:

    python3 perfbench/run.py --workload compare_light --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same workload with spans around every layer and reports the
per-layer metrics instead. Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. End-to-end times are in
reference seconds (see hostspeed.py); the raw wall-clock figures are on the
human-readable lines. See perfbench/README.md.
"""

import os

# One process drives one solver child at a time; a multi-threaded BLAS in
# either of them only adds contention on a small machine, so both use one
# thread. Set before numpy is first imported; the children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

END_TO_END = {
    "ops_per_ref_s": "1/ref_s",
    "op_ref_s_p50": "ref_s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

CHILD_CHECK = "import recbid, recbid.highs_runner; print(recbid.__file__)"


class SetupError(RuntimeError):
    pass


def _inside(path: str, directory: Path) -> bool:
    try:
        Path(path).resolve().relative_to(directory.resolve())
    except ValueError:
        return False
    return True


def import_code_under_test():
    """Import recbid from this checkout's src/ and make solver children do
    the same, whatever else is installed."""
    if not (SRC / "recbid" / "__init__.py").is_file():
        raise SetupError(f"no recbid package under {SRC}")
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import recbid

    if not _inside(recbid.__file__, SRC):
        raise SetupError(f"imported recbid from {recbid.__file__}, not from {SRC}")
    import workloads

    return workloads


def check_solver_child() -> None:
    """A solver child started the way solve_external starts it must import
    recbid from this checkout."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_CHECK], capture_output=True, text=True, timeout=120
    )
    found = proc.stdout.strip()
    if proc.returncode != 0 or not _inside(found, SRC):
        raise SetupError(
            f"solver child cannot import recbid from {SRC} "
            f"(got {found!r}): {proc.stderr.strip()[-500:]}"
        )


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def traced_solver_command() -> str:
    runner = shlex.quote(str(HERE / "traced_runner.py"))
    return "{python} " + runner + " {lp} {sol} --time-limit {time_limit} --gap {gap}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    clock = hostspeed.HostClock()
    clock.sample()
    t_import = perf_counter()
    try:
        workloads = import_code_under_test()
    except (SetupError, ImportError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    import_span = (t_import, perf_counter())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](workloads.TOY if args.toy else workloads.FULL)

    work_base = ROOT / ".perfbench_work"
    work = work_base / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Everything the run and its children write stays inside the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = str(work / "tmp")
    os.environ.pop("REC_SOLVER_CMD", None)
    try:
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            clock.tick()
            t0 = perf_counter()
            inputs = workload.make_inputs(args.seed, work)
            check_solver_child()
            setup_spans.append((t0, perf_counter()))

        if args.trace:
            metrics, stats = traced_run(workload, inputs, args)
        else:
            stats = workload.run(inputs, args.seconds, contextlib.nullcontext, clock)
            clock.sample()
            workload.recheck(inputs, stats)
            ref = clock.ref_seconds
            op_ref_s = [ref(*span) for span in stats.op_spans]
            timed_ref_s = sum(ref(*span) for span in stats.timed_spans)
            metrics = {
                "ops_per_ref_s": len(op_ref_s) / timed_ref_s if timed_ref_s else 0.0,
                "op_ref_s_p50": statistics.median(op_ref_s) if op_ref_s else 0.0,
                "setup_s": ref(*import_span) + statistics.median(ref(*s) for s in setup_spans),
                "peak_rss_mib": peak_rss_mib(),
            }
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_base.rmdir()
    if args.trace:
        import layers

        units = layers.PER_LAYER
    else:
        units = END_TO_END
    report(args, stats, metrics, units, None if args.trace else clock)
    result = {
        "correct": stats.failed == 0 and stats.attempted > 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(workload, inputs, args):
    """Traced pass over the workload, then its first pass untraced.

    The overhead compares the first pass (identical inputs) traced and
    untraced; the traced one runs first and also pays any cold start, so
    the figure leans high rather than low.
    """
    import layers
    import tracing

    tracer = tracing.Tracer()
    layers.instrument(tracer)
    os.environ["REC_SOLVER_CMD"] = traced_solver_command()
    try:
        stats = workload.run(inputs, args.seconds, tracer.paused, hostspeed.NoClock())
    finally:
        tracer.restore()
        os.environ.pop("REC_SOLVER_CMD", None)
    plain = workload.run(inputs, 0.0, contextlib.nullcontext, hostspeed.NoClock())
    workload.recheck(inputs, stats)
    stats.attempted += plain.attempted
    stats.failed += plain.failed
    stats.problems += plain.problems
    overhead = stats.pass_seconds[0] / plain.pass_seconds[0] - 1.0
    metrics = layers.layer_metrics(tracer, sum(stats.op_seconds), stats.audit_s, overhead)
    tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json")
    return metrics, stats


def report(args, stats, metrics, units, clock) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} ({mode})")
    print(f"{'operations':<32}{len(stats.op_seconds):>16d}  (timed {stats.timed_s:.3f} s)")
    if clock is not None:
        n = len(stats.op_seconds)
        print(f"{'ops_per_s':<32}{n / stats.timed_s if stats.timed_s else 0.0:>16.6g}  1/s (wall clock)")
        print(f"{'op_s_p50':<32}{stats.p50():>16.6g}  s (wall clock, n={n})")
        print(f"{'host_speed':<32}{clock.speed():>16.6g}  x reference ({len(clock.kernel_s)} kernel samples)")
    print(f"{'failed_ratio':<32}{stats.failed / max(stats.attempted, 1):>16.6g}  ({stats.failed}/{stats.attempted})")
    if stats.objective_eur is not None:
        print(f"{'planner_objective_eur':<32}{stats.objective_eur:>16.6f}  EUR (first pass)")
    if stats.net_eur is not None:
        print(f"{'realized_net_eur':<32}{stats.net_eur:>16.6f}  EUR (first pass)")
    for name, value in metrics.items():
        extra = f"  (n={len(stats.op_seconds)})" if name == "op_ref_s_p50" else ""
        print(f"{name:<32}{value:>16.6g}  {units[name]}{extra}")
    for problem in stats.problems:
        print(f"FAILED: {problem}")


if __name__ == "__main__":
    raise SystemExit(main())
