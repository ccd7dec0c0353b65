"""Batch front end: run reports, residual grids, validation suites,
cosmology integrations and action-variation checks from a config file.

``report`` and ``residuals`` evaluate the whole grid as one single-threaded
batch (one jet sweep of the metric and one of theta); a single point is a
batch of one.

Exit codes: 0 pass, 1 residual or check failure, 2 config error,
3 numeric domain error, 4 internal limit (memory, or parentheses nested too
deeply for the parser).
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import config as cf
from . import cosmo as co
from . import graded as gd
from . import validate as vd
from .config import format_float as _fmt
from .errors import (
    ConfigError,
    DegenerateMetricError,
    DomainError,
    JetOrderError,
    ParseError,
)
from .graded import FieldEquationReport
from .quadrature import QuadSpec

__all__ = ["RunReport", "main"]

RESIDUAL_KEYS = ("e27", "e28", "e29", "e44")


@dataclass(frozen=True)
class RunReport:
    """Residual records over a grid plus the provenance that produced them."""

    config_hash: str
    engine_version: str
    residual_tol: float
    records: tuple[FieldEquationReport, ...]

    def summary(self) -> dict:
        # np.max propagates NaN, and a NaN maximum fails the tolerance test
        out = {f"max_{k}": float(np.max([getattr(r, k) for r in self.records])) for k in RESIDUAL_KEYS}
        out["passed"] = all(out[f"max_{k}"] <= self.residual_tol for k in RESIDUAL_KEYS)
        return out


def _grid_map(cfg: cf.RunConfig) -> gd.GeometryBatch:
    """Geometry over every grid point, in grid order, as one batch."""
    return gd.geometry_batch(cf.build_graded_metric(cfg), cf.grid_points(cfg))


def _provenance(cfg: cf.RunConfig) -> tuple[str, str]:
    return cf.config_hash(cfg), __version__


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _sym_indices(n: int):
    return [(i, j) for i in range(n) for j in range(n)]


def cmd_report(cfg: cf.RunConfig) -> int:
    n = cfg.chart.dim
    b = _grid_map(cfg)
    chash, version = _provenance(cfg)
    cross = np.zeros((len(b.points), n))  # the graded Ricci cross block vanishes

    if cfg.out_format == "json":
        records = [
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
        ]
        payload = {"config_hash": chash, "engine_version": version, "records": records}
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out_path)
        return 0

    header = list(cfg.chart.coord_names)
    header += [f"g_{i}_{j}" for i, j in _sym_indices(n)]
    header += [f"gamma_{k}_{i}_{j}" for k in range(n) for i, j in _sym_indices(n)]
    header += [f"ric_{i}_{j}" for i, j in _sym_indices(n)]
    header += ["scalar_curvature"]
    header += [f"tilde_T_{i}_{j}" for i, j in _sym_indices(n)]
    header += [f"gric_even_{i}_{j}" for i, j in _sym_indices(n)]
    header += [f"gric_cross_{i}" for i in range(n)]
    header += ["gric_odd", "graded_scalar"]
    cols = (b.points, b.g, b.gamma, b.ric, b.scalar, b.tilde_T, b.gric_even, cross, b.gric_odd, b.graded_scalar)
    table = np.hstack([c.reshape(len(b.points), -1) for c in cols])

    buf = io.StringIO()
    buf.write(f"# config_hash={chash} engine_version={version}\n")
    buf.write(",".join(header) + "\n")
    for row in table:
        buf.write(",".join(_fmt(x) for x in row) + "\n")
    _emit(buf.getvalue(), cfg.out_path)
    return 0


def residual_report(cfg: cf.RunConfig) -> RunReport:
    records = _grid_map(cfg).residual_records()
    chash, version = _provenance(cfg)
    return RunReport(chash, version, cfg.residual_tol, tuple(records))


def cmd_residuals(cfg: cf.RunConfig) -> int:
    report = residual_report(cfg)
    summary = report.summary()

    if cfg.out_format == "json":
        payload = {
            "config_hash": report.config_hash,
            "engine_version": report.engine_version,
            "summary": summary,
            "records": [r.to_json_dict() for r in report.records],
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out_path)
    else:
        buf = io.StringIO()
        buf.write(f"# config_hash={report.config_hash} engine_version={report.engine_version}\n")
        cols = list(cfg.chart.coord_names) + list(RESIDUAL_KEYS) + [
            "scalar_curvature",
            "graded_scalar",
        ]
        buf.write(",".join(cols) + "\n")
        for rec in report.records:
            row = [_fmt(x) for x in rec.point]
            row += [_fmt(getattr(rec, k)) for k in RESIDUAL_KEYS]
            row += [_fmt(rec.scalar_curvature), _fmt(rec.graded_scalar)]
            buf.write(",".join(row) + "\n")
        _emit(buf.getvalue(), cfg.out_path)

    worst = float(np.max([summary[f"max_{k}"] for k in RESIDUAL_KEYS]))
    print(
        f"residuals: max={worst:.3e} tol={report.residual_tol:.1e} "
        f"{'pass' if summary['passed'] else 'FAIL'}",
        file=sys.stderr,
    )
    return 0 if summary["passed"] else 1


def cmd_validate(cfg: cf.RunConfig, seed: int = 0) -> int:
    gm = cf.build_graded_metric(cfg)
    sample = list(cfg.grid_points) if cfg.grid_points is not None else None
    results = vd.run_geometry_checks(gm, sample=sample, seed=seed, residual_tol=cfg.residual_tol)
    chash, version = _provenance(cfg)

    if cfg.out_format == "json":
        payload = {
            "config_hash": chash,
            "engine_version": version,
            "checks": [r.to_json_dict() for r in results],
            "passed": all(r.passed for r in results),
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out_path)
    else:
        buf = io.StringIO()
        buf.write(f"# config_hash={chash} engine_version={version}\n")
        buf.write("check,max_error,tolerance,passed\n")
        for r in results:
            buf.write(f"{r.name},{_fmt(r.max_error)},{_fmt(r.tolerance)},{str(r.passed).lower()}\n")
        _emit(buf.getvalue(), cfg.out_path)

    return 0 if all(r.passed for r in results) else 1


def cmd_cosmo(cfg: cf.RunConfig) -> int:
    if cfg.cosmo is None:
        raise ConfigError("cosmo subcommand needs a [cosmo] section")
    cs = cfg.cosmo
    start = co.OdeState(cs.t0, cs.a0, cs.a_dot0, cs.theta0)
    traj = co.integrate_scale_factor(
        start, cs.c, cs.einstein_lambda, cs.t_end, cs.step, n=cs.n, theta_sign=cs.theta_sign
    )
    chash, version = _provenance(cfg)

    if cfg.out_format == "json":
        eq41, eq42 = co.trajectory_residuals(traj)
        payload = {
            "config_hash": chash,
            "engine_version": version,
            "states": [
                {
                    "t": s.t,
                    "a": s.a,
                    "a_dot": s.a_dot,
                    "theta": s.theta,
                    "eq41_residual": float(r41),
                    "eq42_residual": float(r42),
                }
                for s, r41, r42 in zip(traj.states, eq41, eq42)
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out_path)
        return 0

    buf = io.StringIO()
    buf.write(f"# config_hash={chash} engine_version={version}\n")
    co.write_trajectory_csv(traj, buf)
    _emit(buf.getvalue(), cfg.out_path)
    return 0


def cmd_action(cfg: cf.RunConfig) -> int:
    if cfg.variation is None:
        raise ConfigError("action subcommand needs a [variation] section")
    gm = cf.build_graded_metric(cfg)
    vp = cfg.variation
    n = cfg.chart.dim
    if vp.kind == "zero":
        var = gd.bump_variation(cfg.chart, vp.support, np.zeros((n, n)), 0.0)
    else:
        rng = np.random.default_rng(vp.seed)
        coeffs = rng.uniform(-vp.scale, vp.scale, (n, n))
        coeffs = 0.5 * (coeffs + coeffs.T)
        var = gd.bump_variation(cfg.chart, vp.support, coeffs, float(rng.uniform(-vp.scale, vp.scale)))

    quad = QuadSpec(cfg.quad_nodes)
    closed, fd = gd.action_first_variation(gm, var, quad)
    action = gd.hilbert_action(gm, QuadSpec(cfg.quad_nodes, vp.support))
    passed = abs(closed - fd) <= cfg.fd_tol * (1.0 + abs(closed))
    record = {
        "closed_form": closed,
        "finite_difference": fd,
        "difference": closed - fd,
        "action_over_support": action,
        "fd_step": gd.VARIATION_STEP,
        "passed": passed,
    }
    chash, version = _provenance(cfg)

    if cfg.out_format == "json":
        payload = {"config_hash": chash, "engine_version": version, **record}
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out_path)
    else:
        buf = io.StringIO()
        buf.write(f"# config_hash={chash} engine_version={version}\n")
        keys = [k for k in record if k != "passed"]
        buf.write(",".join(keys + ["passed"]) + "\n")
        buf.write(",".join([_fmt(record[k]) for k in keys] + [str(passed).lower()]) + "\n")
        _emit(buf.getvalue(), cfg.out_path)
    return 0 if passed else 1


def _apply_overrides(cfg: cf.RunConfig, args) -> cf.RunConfig:
    changes = {}
    if args.grid is not None:
        try:
            counts = tuple(int(tok) for tok in args.grid.split(","))
        except ValueError:
            raise ConfigError(f"--grid: expected comma-separated counts, got {args.grid!r}") from None
        if len(counts) != cfg.chart.dim or any(c < 1 for c in counts):
            raise ConfigError(f"--grid: need {cfg.chart.dim} positive counts")
        changes["grid_counts"] = counts
        changes["grid_points"] = None
    if args.tol is not None:
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
        changes["residual_tol"] = args.tol
    if args.out is not None:
        changes["out_path"] = args.out
    if args.format is not None:
        changes["out_format"] = args.format
    return dataclasses.replace(cfg, **changes) if changes else cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedgeo",
        description="Curvature reports, field-equation residuals, invariant "
        "validation, cosmology trajectories and action variations over a "
        "configured geometry.",
        epilog="Environment: GRADEDGEO_MAX_JET_ORDER caps the differentiation order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "report": "tensor tables (metric, connection, curvature blocks) at grid points",
        "residuals": "field-equation residual grid; exits 1 when above tolerance",
        "validate": "invariant cross-check suite on the configured geometry",
        "cosmo": "integrate the scale-factor system and emit the trajectory",
        "action": "first variation of the action, closed form vs finite difference",
    }
    for name, text in helps.items():
        s = sub.add_parser(name, help=text)
        s.add_argument("--config", required=True, help="path to the run configuration")
        s.add_argument("--out", help="output path (default: stdout)")
        s.add_argument("--grid", help="override grid counts, e.g. 5,5")
        s.add_argument("--tol", type=float, help="override residual tolerance")
        s.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        s.add_argument("--format", choices=("csv", "json"), help="output format")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = cf.load_config(args.config)
        cfg = _apply_overrides(cfg, args)
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
