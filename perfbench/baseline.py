"""Single-threaded baseline for eds_cli_grid.

    python3 perfbench/baseline.py

Runs the grids of the eds_cli_grid configs through graded.field_residuals_at
point by point in this thread, and through ``gradedgeo residuals`` (which
maps the points over cli._grid_map's thread pool), and prints the median
time of each over REPEATS runs per config, with the inputs of seed SEED.
Both must give the same residuals digit for digit.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gradedgeo import cli  # noqa: E402
from gradedgeo import config as cf  # noqa: E402
from gradedgeo import graded as gd  # noqa: E402

import workloads  # noqa: E402

SEED = 1
REPEATS = 15


def main() -> int:
    scratch = HERE / "out" / f"baseline-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        grid = workloads.EdsCliGrid(scratch)
        grid.setup(SEED)
        out_path = str(scratch / "residuals.csv")
        print("config        points  serial_ms  cli_ms")
        for (kind, n), (_, _, path) in sorted(grid.cases.items()):
            cfg = cf.load_config(path)
            gm = cf.build_graded_metric(cfg)
            points = cf.grid_points(cfg)
            serial, pooled = [], []
            for _ in range(REPEATS):
                start = time.perf_counter()
                records = [gd.field_residuals_at(gm, p) for p in points]
                serial.append(time.perf_counter() - start)
                start = time.perf_counter()
                with contextlib.redirect_stderr(io.StringIO()):
                    cli.main(["residuals", "--config", path, "--out", out_path])
                pooled.append(time.perf_counter() - start)
            rows = Path(out_path).read_text().splitlines()[2:]
            for rec, row in zip(records, rows):
                printed = row.split(",")[n + 1: n + 5]
                if printed != [format(getattr(rec, k), ".17g") for k in cli.RESIDUAL_KEYS]:
                    print(f"mismatch at {rec.point}: {printed}", file=sys.stderr)
                    return 1
            name = f"n={n} {'solution' if kind == 0 else 'detuned'}"
            print(f"{name:13s} {len(points):6d} {1e3 * statistics.median(serial):10.2f} "
                  f"{1e3 * statistics.median(pooled):7.2f}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
