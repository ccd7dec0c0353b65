"""Benchmark command: one workload, inputs generated from a seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A set-up is everything from the first line of this file to the start of
the timed phase: imports, inputs, geometries and their symbolic caches, and
one untimed warm-up operation.  ``setup_s`` is the median of SETUP_RUNS
set-ups, each in a fresh process and so cold: this run's own and, after its
timed phase, those of child processes started with ``--setup-only``, which
stop where the timed phase would begin.  The timed phase, in this process,
runs a fixed number of operations, sized from ``--seconds`` and the
workload's nominal rate, never from a timing, and times each from outside
the program with ``perf_counter``.  Every operation's outputs are checked
afterwards; one with a problem counts as failed.  The last line of standard output is the result as JSON.

Standard error gets the CPU time /proc/stat counts as stolen by the
hypervisor during the timed phase, so a run slowed by the host can be
seen and made again.  It is reported only, never taken out of a time.

With ``--trace 1`` the span wrappers of spans.py are installed around the
set-up, then the timed phase runs untraced, then once more traced.  The
result holds the per-layer metrics over the set-up and the traced phase,
and the tracing overhead, the difference between the two phases' times;
the spans go to perfbench/out/.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# single-threaded numerics; must precede the numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_RUNS = 3
TAIL_MIN_OPS = 100  # a p90 needs ten samples beyond it


def _steal_s() -> float:
    """CPU time the hypervisor gave to others, summed over this machine's CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _import_package():
    """Import gradedgeo from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import gradedgeo
    except ImportError as exc:
        sys.exit(f"run.py: cannot import gradedgeo from {SRC}: {exc}")
    if Path(gradedgeo.__file__).resolve().parent != SRC / "gradedgeo":
        sys.exit(f"run.py: gradedgeo was imported from {gradedgeo.__file__}, not {SRC}")


def _phase(workload, ops: int):
    """Run operations 0..ops-1; return wall seconds, latencies and outputs."""
    latencies, outputs = [], []
    clock = time.perf_counter
    begin = clock()
    for k in range(ops):
        start = clock()
        try:
            out = workload.op(k)
        except Exception as exc:  # counted as a failed operation, run goes on
            if not any(isinstance(o, Exception) for o in outputs):
                traceback.print_exc(limit=3)
            out = exc
        latencies.append(clock() - start)
        outputs.append(out)
    return clock() - begin, latencies, outputs


def _problems(workload, k: int, out) -> list[str]:
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    return workload.check(k, out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    scratch = OUT / f"scratch-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workloads, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _child_setup_s(args) -> float:
    """setup_s of a fresh process that sets up the same workload and stops."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _run(args, workloads, scratch: Path) -> int:
    workload = workloads.WORKLOADS[args.workload](scratch)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    with tracer.installed() if tracer else contextlib.nullcontext():
        workload.setup(args.seed)
        warmup = workload.op(0)
    setup_layers = tracer.totals() if tracer else None

    ops = workloads.op_count(workload, args.seconds)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    steal = _steal_s()
    wall_s, latencies, outputs = _phase(workload, ops)
    print(f"{args.workload}: {ops} operations in {wall_s:.3f} s; the host stole {_steal_s() - steal:.2f} s "
          "of CPU time meanwhile", file=sys.stderr)
    checked = list(enumerate(outputs))

    if tracer:
        with tracer.installed():
            traced_s, _, traced_outputs = _phase(workload, ops)
        checked += list(enumerate(traced_outputs))
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "operations": ops,
                                  "untraced_wall_s": wall_s, "traced_wall_s": traced_s,
                                  "setup_layers": setup_layers})
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = {"value": traced_s - wall_s, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s / wall_s - 1.0), "unit": "%"}
        print(f"trace: {trace_path} ({traced_s:.3f} s traced, {wall_s:.3f} s untraced)", file=sys.stderr)
    else:
        setups = [setup_s] + [_child_setup_s(args) for _ in range(SETUP_RUNS - 1)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }

    failed = 0
    for k, out in checked:
        problems = _problems(workload, k, out)
        if problems:
            failed += 1
            print(f"operation {k} failed: " + "; ".join(problems[:3]), file=sys.stderr)
    setup_problems = _problems(workload, 0, warmup)
    for p in setup_problems[:3]:
        print(f"warm-up failed: {p}", file=sys.stderr)

    if len(latencies) >= TAIL_MIN_OPS:
        p90 = 1e3 * statistics.quantiles(latencies, n=10)[-1]
        print(f"{args.workload}: op_ms_p90 {p90:.3f}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not setup_problems,
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
