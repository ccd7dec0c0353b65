"""Batch front end: run reports, residual grids, validation suites,
cosmology integrations and action-variation checks from a config file.

``report`` and ``residuals`` evaluate the grid as one single-threaded
batch, one jet sweep of the metric components and theta together per
block of points; a single point is a batch of one.  Every report carries
its provenance (``config_hash`` and the engine version) and prints floats
with 17 significant digits, so reruns are byte-identical.

Exit codes: 0 pass, 1 residual or check failure, 2 config error,
3 numeric domain error, 4 internal limit (memory, or parentheses nested too
deeply for the parser).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from . import config as cf
from . import cosmo as co
from . import graded as gd
from . import validate as vd
from .config import format_float as _fmt
from .errors import ConfigError, DegenerateMetricError, DomainError, JetOrderError, ParseError
from .quadrature import QuadSpec

__all__ = ["main"]

RESIDUAL_KEYS = ("e27", "e28", "e29", "e44")

def _grid_map(cfg: cf.RunConfig) -> gd.GeometryBatch:
    """Geometry over every grid point, in grid order, as one batch filled block by block."""
    # the default grid is checked where it is read, so runs that read no grid go ahead in any dim
    if cfg.grid_counts is None and cfg.grid_points is None:
        cf.check_point_count("[grid] default counts", (cf._DEFAULT_GRID_COUNT,) * cfg.chart.dim)
    return gd.geometry_batch(cf.build_graded_metric(cfg), cf.grid_points(cfg))


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    return _fmt(x)


def _write(cfg: cf.RunConfig, body, columns, rows) -> None:
    """Emit one report, with its provenance, to cfg's output path or stdout.

    JSON puts ``config_hash`` and ``engine_version`` ahead of the keys of
    ``body()``; CSV puts them on a ``#`` line above the ``columns`` header
    and one line per row, floats in 17 significant digits.  ``rows`` is a
    2-D float array, or rows of names, booleans and floats.  Only the chosen
    format is built.
    """
    chash = cf.config_hash(cfg)
    if cfg.out_format == "json":
        text = json.dumps({"config_hash": chash, "engine_version": __version__, **body()}, indent=2) + "\n"
    else:
        lines = [f"# config_hash={chash} engine_version={__version__}", ",".join(columns)]
        if isinstance(rows, np.ndarray):  # a float table, a whole row at a time
            template = ",".join(["%.17g"] * rows.shape[1])  # the bytes of format_float for every double
            lines += [template % tuple(row) for row in rows.tolist()]
        else:
            lines += [",".join(map(_cell, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    try:
        if cfg.out_path is not None:
            with open(cfg.out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        elif sys.stdout is None:  # Python's stdout when the process started with it closed
            raise OSError("it is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()  # a buffered write fails only here
    except OSError as exc:
        where = cfg.out_path
        if where is None:  # stdout's unwritten buffer would fail again at exit, and exit 120
            where, sys.stdout = "standard output", None
        raise ConfigError(f"cannot write output {where}: {exc}") from None


def _summary(batch, tol: float) -> dict:
    """Maximum of each residual column, and whether all are within tol."""
    # np.max propagates NaN, and a NaN maximum fails the tolerance test
    out = {f"max_{k}": float(np.max(getattr(batch, k))) for k in RESIDUAL_KEYS}
    out["passed"] = all(out[f"max_{k}"] <= tol for k in RESIDUAL_KEYS)
    return out


def cmd_report(cfg: cf.RunConfig) -> int:
    n = cfg.chart.dim
    b = _grid_map(cfg)
    cross = np.zeros((len(b.points), n))  # the graded Ricci cross block vanishes
    pairs = [f"{i}_{j}" for i in range(n) for j in range(n)]
    columns = [
        *cfg.chart.coord_names,
        *(f"g_{ij}" for ij in pairs),
        *(f"gamma_{k}_{ij}" for k in range(n) for ij in pairs),
        *(f"ric_{ij}" for ij in pairs),
        "scalar_curvature",
        *(f"tilde_T_{ij}" for ij in pairs),
        *(f"gric_even_{ij}" for ij in pairs),
        *(f"gric_cross_{i}" for i in range(n)),
        "gric_odd",
        "graded_scalar",
    ]
    cols = (b.points, b.g, b.gamma, b.ric, b.scalar, b.tilde_T, b.gric_even, cross, b.gric_odd, b.graded_scalar)
    table = np.hstack([c.reshape(len(b.points), -1) for c in cols])

    def body():
        return {"records": [
            {
                "point": b.points[k].tolist(),
                "metric": b.g[k].tolist(),
                "christoffel": b.gamma[k].tolist(),
                "ricci": b.ric[k].tolist(),
                "scalar_curvature": float(b.scalar[k]),
                "tilde_T": b.tilde_T[k].tolist(),
                "graded_ricci": {
                    "even": b.gric_even[k].tolist(),
                    "cross": cross[k].tolist(),
                    "odd": float(b.gric_odd[k]),
                },
                "graded_scalar": float(b.graded_scalar[k]),
            }
            for k in range(len(b.points))
        ]}

    _write(cfg, body, columns, table)
    return 0


def cmd_residuals(cfg: cf.RunConfig) -> int:
    n = cfg.chart.dim
    b = _grid_map(cfg)
    summary = _summary(b, cfg.residual_tol)
    keys = [*RESIDUAL_KEYS, "scalar_curvature", "graded_scalar"]
    table = np.column_stack([b.points, b.e27, b.e28, b.e29, b.e44, b.scalar, b.graded_scalar])

    def body():
        records = [{"point": row[:n], **dict(zip(keys, row[n:]))} for row in table.tolist()]
        return {"summary": summary, "records": records}

    _write(cfg, body, [*cfg.chart.coord_names, *keys], table)
    worst = float(np.max([summary[f"max_{k}"] for k in RESIDUAL_KEYS]))
    print(
        f"residuals: max={worst:.3e} tol={cfg.residual_tol:.1e} {'pass' if summary['passed'] else 'FAIL'}",
        file=sys.stderr,
    )
    return 0 if summary["passed"] else 1


def cmd_validate(cfg: cf.RunConfig, seed: int = 0) -> int:
    gm = cf.build_graded_metric(cfg)
    sample = list(cfg.grid_points) if cfg.grid_points is not None else None
    results = vd.run_geometry_checks(gm, sample=sample, seed=seed, residual_tol=cfg.residual_tol)
    passed = all(r.passed for r in results)
    _write(
        cfg,
        lambda: {"checks": [r.to_json_dict() for r in results], "passed": passed},
        ["check", "max_error", "tolerance", "passed"],
        [(r.name, r.max_error, r.tolerance, r.passed) for r in results],
    )
    return 0 if passed else 1


def cmd_cosmo(cfg: cf.RunConfig) -> int:
    if cfg.cosmo is None:
        raise ConfigError("cosmo subcommand needs a [cosmo] section")
    cs = cfg.cosmo
    start = co.OdeState(cs.t0, cs.a0, cs.a_dot0, cs.theta0)
    traj = co.integrate_scale_factor(
        start, cs.c, cs.einstein_lambda, cs.t_end, cs.step, n=cs.n, theta_sign=cs.theta_sign
    )
    eq41, eq42 = co.trajectory_residuals(traj)
    columns = ["t", "a", "a_dot", "theta", "eq41_residual", "eq42_residual"]
    table = np.column_stack([traj.t, traj.a, traj.a_dot, traj.theta, eq41, eq42])
    _write(cfg, lambda: {"states": [dict(zip(columns, row)) for row in table.tolist()]}, columns, table)
    return 0


def cmd_action(cfg: cf.RunConfig) -> int:
    if cfg.variation is None:
        raise ConfigError("action subcommand needs a [variation] section")
    cf.check_point_count("[quadrature] nodes", (cfg.quad_nodes,) * cfg.chart.dim)
    gm = cf.build_graded_metric(cfg)
    vp = cfg.variation
    n = cfg.chart.dim
    if vp.kind == "zero":
        coeffs, h = np.zeros((n, n)), 0.0
    else:
        rng = np.random.default_rng(vp.seed)
        coeffs = rng.uniform(-vp.scale, vp.scale, (n, n))
        coeffs = 0.5 * (coeffs + coeffs.T)
        h = float(rng.uniform(-vp.scale, vp.scale))
    try:
        var = gd.bump_variation(cfg.chart, vp.support, coeffs, h)
    except ValueError as exc:
        # on a support a few float spacings wide the profile overshoots its boundary
        raise ConfigError(f"[variation]: {exc}") from None

    closed, fd, action = gd._action_variation(gm, var, QuadSpec(cfg.quad_nodes))
    passed = abs(closed - fd) <= cfg.fd_tol * (1.0 + abs(closed))
    record = {
        "closed_form": closed,
        "finite_difference": fd,
        "difference": closed - fd,
        "action_over_support": action,
        "fd_step": gd.VARIATION_STEP,
        "passed": passed,
    }
    _write(cfg, lambda: record, list(record), [record.values()])
    return 0 if passed else 1


def _apply_overrides(cfg: cf.RunConfig, args) -> cf.RunConfig:
    changes = {}
    if args.grid is not None:
        changes["grid_counts"] = cf._grid_counts("--grid", args.grid, cfg.chart.dim)
        changes["grid_points"] = None
    if args.tol is not None:
        read_tol, _ = cf._SECTIONS["tolerances"]["residual_tol"]
        changes["residual_tol"] = read_tol("--tol", args.tol)
    if args.out is not None:
        changes["out_path"] = args.out
    if args.format is not None:
        changes["out_format"] = args.format
    return dataclasses.replace(cfg, **changes) if changes else cfg


@functools.cache  # parse_args keeps no state, so every main call in a process shares one
def _build_parser() -> argparse.ArgumentParser:
    helps = {
        "report": "tensor tables (metric, connection, curvature blocks) at grid points",
        "residuals": "field-equation residual grid; exits 1 when above tolerance",
        "validate": "invariant cross-check suite on the configured geometry",
        "cosmo": "integrate the scale-factor system and emit the trajectory",
        "action": "first variation of the action, closed form vs finite difference",
    }
    parser = argparse.ArgumentParser(
        prog="gradedgeo",
        description="Curvature reports, field-equation residuals, invariant validation,\n"
        "cosmology trajectories and action variations over a configured geometry.",
        epilog="commands:\n" + "".join(f"  {name:11s} {text}\n" for name, text in helps.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=helps, metavar="command", help="one of the commands below")
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--grid", help="override grid counts, e.g. 5,5 (report and residuals only)")
    parser.add_argument("--tol", help="override residual tolerance (residuals and validate only)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument("--format", choices=cf._OUTPUT_FORMATS, help="output format")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.grid is not None and args.command not in ("report", "residuals"):  # the commands with a grid
            raise ConfigError(f"--grid applies to report and residuals only, not to {args.command}")
        if args.tol is not None and args.command not in ("residuals", "validate"):  # those reading residual_tol
            raise ConfigError(f"--tol applies to residuals and validate only, not to {args.command}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        cfg = _apply_overrides(cf.load_config(args.config), args)
        if args.command == "report":
            return cmd_report(cfg)
        if args.command == "residuals":
            return cmd_residuals(cfg)
        if args.command == "validate":
            return cmd_validate(cfg, seed=args.seed)
        if args.command == "cosmo":
            return cmd_cosmo(cfg)
        return cmd_action(cfg)
    except (ConfigError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, DegenerateMetricError, JetOrderError) as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        print(f"internal limit exceeded: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
