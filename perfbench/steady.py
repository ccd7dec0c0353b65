"""Spread of the end-to-end metrics over seeds, and agreement between seed sets.

    python3 perfbench/steady.py --workload NAME --seeds 1 2 3 4 5 [--against 11 12 13]
    python3 perfbench/steady.py --workload NAME --seeds 1 2 --counts

Runs the benchmark once per seed, one run at a time, with the run length of
BENCHMARK.json.  For each end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to the metric's bound.  With ``--against`` it runs the second
seed set too and compares the two medians against the bound: this is the
check that the seed changes no work.  Exits 1 when a spread other than
setup_s exceeds its bound, when a median moved by more than its bound, or
when a run fails or is not correct.  Raw results go to perfbench/out/.

With ``--counts`` it makes one short traced run per seed instead and checks
that every per-layer count (calls, jet points, coefficient products) is the
same for all seeds: the noise-free form of the same check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT = 180
COUNT_SECONDS = 2  # traced runs for --counts: short, the counts are exact


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, str]:
    """One run's result, and its line on the time stolen by the host."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    stolen = [ln for ln in proc.stderr.splitlines() if "stole" in ln]
    return json.loads(proc.stdout.splitlines()[-1]), stolen[-1] if stolen else ""


def summarize(results: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / statistics.median(values), "values": values}
    return out


def report(label: str, summary: dict, metrics: list[dict]) -> bool:
    ok = True
    print(f"{label}:")
    for m in metrics:
        s = summary[m["name"]]
        flag = ""
        if m["name"] != "setup_s" and s["spread"] > m["bound"]:
            flag, ok = "  OVER BOUND", False
        elif s["spread"] > m["bound"] / 3:
            flag = "  over a third of the bound"
        print(f"  {m['name']:12s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
              f"  spread {s['spread']:7.2%}  bound {m['bound']:.0%}{flag}")
    return ok


def collect(workload: str, seeds: list[int], seconds: int, metrics: list[dict]) -> tuple[dict, bool]:
    results = []
    for seed in seeds:
        start = time.perf_counter()
        r, stolen = run_once(workload, seed, seconds)
        print(f"  seed {seed}: {time.perf_counter() - start:.1f} s, attempted {r['attempted']}, "
              f"failed {r['failed']}, correct {r['correct']}; {stolen}", file=sys.stderr)
        results.append(r)
    good = all(r["correct"] and r["failed"] == 0 for r in results)
    return {"seeds": seeds, "runs": results, "summary": summarize(results, metrics)}, good


def same_counts(workload: str, seeds: list[int]) -> bool:
    counts = {}
    for seed in seeds:
        r, _ = run_once(workload, seed, COUNT_SECONDS, trace=1)
        counts[seed] = {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
    first = counts[seeds[0]]
    for seed in seeds[1:]:
        for name, value in first.items():
            if counts[seed][name] != value:
                print(f"{workload}: {name} is {value} with seed {seeds[0]}, {counts[seed][name]} with seed {seed}")
                return False
    print(f"{workload}: all {len(first)} per-layer counts equal for seeds {seeds}")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--against", type=int, nargs="+")
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args()
    if len(args.seeds) < 2 or (args.against is not None and len(args.against) < 2):
        parser.error("quartiles need at least two seeds per set")

    if args.counts:
        return 0 if same_counts(args.workload, args.seeds) else 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    first, ok = collect(args.workload, args.seeds, bench["run_seconds"], metrics)
    ok &= report(f"{args.workload} seeds {args.seeds}", first["summary"], metrics)
    doc = {"workload": args.workload, "run_seconds": bench["run_seconds"], "first": first}
    if args.against:
        second, good = collect(args.workload, args.against, bench["run_seconds"], metrics)
        ok &= good & report(f"{args.workload} seeds {args.against}", second["summary"], metrics)
        print("median of the second set against the first:")
        for m in metrics:
            a, b = first["summary"][m["name"]]["median"], second["summary"][m["name"]]["median"]
            change = b / a - 1.0
            within = abs(change) <= m["bound"]
            ok &= within
            print(f"  {m['name']:12s} {change:+7.2%}  bound {m['bound']:.0%}{'' if within else '  OUTSIDE'}")
        doc["second"] = second
    (HERE / "out").mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (HERE / "out" / f"steady-{args.workload}-{stamp}.json").write_text(json.dumps(doc, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
