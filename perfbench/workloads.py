"""The benchmark workloads: set-up, one operation, and the checks on it.

Each workload is a class with

* ``setup(seed)``: generate inputs and build what the operations share;
* ``op(k)``: operation ``k``, calling only the program, returning its outputs;
* ``check(k, outputs)``: the list of problems found, computed apart from the
  program (``oracles``) or from a property the method must have.

Every operation of a workload has the same make-up.  The timed phase runs
whole rounds of ``ROUND`` operations.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import inputs as gen
import oracles
from gradedgeo import cli
from gradedgeo import config as cf
from gradedgeo import exprfield as ef
from gradedgeo import graded as gd
from gradedgeo import riemann as rm
from gradedgeo import validate as vd
from gradedgeo.quadrature import QuadSpec
from gradedgeo.randgen import default_chart

RESIDUAL_TOL = 1e-9
# e29 of the detuned configs against its closed form, relative to max(1, |e29|).
# The column is printed with 17 digits, so it carries the engine's double
# exactly; the worst error over 100 seeds was 1.4e-15 (13 ulps).
E29_TOL = 1e-14
# Other closed forms (metric, scalar curvature, graded blocks), relative.
CLOSED_FORM_RTOL = 1e-12
# Central-difference scalar curvature: O(h^2) truncation plus eps/h^2 roundoff
# at h = 1e-4 is about 1e-8; the bound leaves a factor of 100.
FD_SCALAR_TOL = 1e-6
ACTION_CRITICAL_TOL = 1e-8
ACTION_FD_TOL = 1e-5
ACTION_PROBE_MIN = 1e-6


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _csv_rows(text: str) -> tuple[str, list[str], list[list[float]]]:
    lines = text.splitlines()
    return lines[0], lines[1].split(","), [[float(v) for v in ln.split(",")] for ln in lines[2:]]


class EdsCliGrid:
    """``residuals`` and ``report`` through ``cli.main`` on power-law configs.

    One operation runs both subcommands on the n = 2 and the n = 3 config of
    one kind; kinds alternate between the exact solution (exit 0) and a
    detuned coupling (exit 1), which cost the same.
    """

    ROUND = 2
    RATE = 4.0  # operations per second on the reference machine

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.out_path = str(scratch / "out.csv")
        self.reference: dict[tuple, str] = {}

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.cases = {}
        for kind in (0, 1):
            for n in gen.EDS_DIMS:
                c = gen.eds_coupling(n) if kind == 0 else gen.eds_detuned_coupling(rng, n)
                points = gen.eds_points(rng, n)
                path = self.scratch / f"eds_n{n}_{kind}.ini"
                path.write_text(gen.eds_config(n, c, points), encoding="utf-8")
                self.cases[(kind, n)] = (c, points, str(path))

    def op(self, k: int):
        kind = k % 2
        outputs = []
        for n in gen.EDS_DIMS:
            path = self.cases[(kind, n)][2]
            for command in ("residuals", "report"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main([command, "--config", path, "--out", self.out_path])
                with open(self.out_path, encoding="utf-8") as fh:
                    outputs.append((n, command, code, fh.read(), err.getvalue()))
        return outputs

    def check(self, k: int, outputs) -> list[str]:
        kind = k % 2
        problems = []
        for n, command, code, text, err in outputs:
            c, points, _ = self.cases[(kind, n)]
            where = f"{command} n={n} kind={kind}"
            first = self.reference.setdefault((kind, n, command), text)
            if text != first:
                problems.append(f"{where}: rerun output differs")
            head, cols, rows = _csv_rows(text)
            if not head.startswith("# config_hash=") or len(rows) != len(points):
                problems.append(f"{where}: malformed output")
                continue
            if any(tuple(r[: n + 1]) != p for r, p in zip(rows, points)):
                problems.append(f"{where}: rows are not the configured points")
            want_code = 0 if command == "report" or kind == 0 else 1
            if code != want_code:
                problems.append(f"{where}: exit {code}, expected {want_code}")
            check = self._check_residuals if command == "residuals" else self._check_report
            problems += [f"{where}: {msg}" for msg in check(n, c, kind, cols, rows, err)]
        return problems

    @staticmethod
    def _check_residuals(n, c, kind, cols, rows, err):
        col = {name: i for i, name in enumerate(cols)}
        out = []
        if ("pass" if kind == 0 else "FAIL") not in err:
            out.append(f"verdict line {err.strip()!r}")
        for r in rows:
            t = r[n]
            # column by column: max() of a list holding a NaN can return a finite value
            bad = [r[col[k]] for k in ("e27", "e28", "e29", "e44") if not r[col[k]] <= RESIDUAL_TOL]
            if kind == 0 and bad:
                out.append(f"residuals {bad!r} not at most {RESIDUAL_TOL} at t={t}")
            if kind == 1:
                want = oracles.eds_e29(n, c, t)
                if not _rel(r[col["e29"]], want) <= E29_TOL:
                    out.append(f"e29 {r[col['e29']]!r} vs closed form {want!r} at t={t}")
                if not r[col["e28"]] <= RESIDUAL_TOL:
                    out.append(f"e28 {r[col['e28']]!r} for a harmonic potential")
            if not _rel(r[col["scalar_curvature"]], oracles.eds_scalar(n, t)) <= CLOSED_FORM_RTOL:
                out.append(f"scalar curvature {r[col['scalar_curvature']]!r} at t={t}")
            want = oracles.eds_graded_scalar(n, c, t)
            if not _rel(r[col["graded_scalar"]], want) <= CLOSED_FORM_RTOL:
                out.append(f"graded scalar {r[col['graded_scalar']]!r} vs {want!r} at t={t}")
        return out

    @staticmethod
    def _check_report(n, c, kind, cols, rows, err):
        col = {name: i for i, name in enumerate(cols)}
        out = []
        for r in rows:
            t = r[n]
            diag = oracles.eds_metric_diag(n, t)
            for i in range(n + 1):
                for j in range(n + 1):
                    want = diag[i] if i == j else 0.0
                    if not _rel(r[col[f"g_{i}_{j}"]], want) <= CLOSED_FORM_RTOL:
                        out.append(f"g_{i}_{j} {r[col[f'g_{i}_{j}']]!r} vs {want!r} at t={t}")
            checks = (
                ("scalar_curvature", oracles.eds_scalar(n, t)),
                ("gric_odd", oracles.eds_graded_odd(c, t)),
                ("graded_scalar", oracles.eds_graded_scalar(n, c, t)),
            )
            for name, want in checks:
                if not _rel(r[col[name]], want) <= CLOSED_FORM_RTOL:
                    out.append(f"{name} {r[col[name]]!r} vs {want!r} at t={t}")
        return out


# run_geometry_checks draws its own random vector fields from this seed.  It
# is the same for every geometry index, so every operation checks fields of
# the same shapes and the suite's cost does not depend on the index.
CHECK_SEED = 0


class RandomValidate:
    """``validate.run_geometry_checks`` on seeded dim-2 polynomial metrics.

    One operation is one geometry's full suite on its seeded sample points,
    plus ``riemann.scalar_curvature_at`` at each of them.
    """

    ROUND = gen.RV_GEOMETRIES
    RATE = 1.05

    def __init__(self, scratch: Path):
        self.chart = default_chart(2)  # x, y in +-0.4

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.geometries = []
        for index in range(gen.RV_GEOMETRIES):
            geo = gen.RandomGeometry(rng, index)
            exprs = geo.metric_exprs()
            rows = [[ef.parse_field(exprs[min(i, j), max(i, j)], self.chart) for j in range(2)] for i in range(2)]
            theta = ef.parse_field(geo.theta.expr(), self.chart)
            gm = gd.GradedMetric(rm.MetricSpec(self.chart, rows), theta)
            # the symbolic caches every operation would otherwise build on first use
            gm.metric.christoffel_fields()
            gd.levicivita_triple(gm)
            gd.stress_fields(gm)
            self.geometries.append((geo, gm))

    def op(self, k: int):
        geo, gm = self.geometries[k % gen.RV_GEOMETRIES]
        results = vd.run_geometry_checks(gm, sample=geo.sample, seed=CHECK_SEED)
        scalars = [rm.scalar_curvature_at(gm.metric, p) for p in geo.sample]
        return results, scalars

    def check(self, k: int, outputs) -> list[str]:
        geo, _ = self.geometries[k % gen.RV_GEOMETRIES]
        results, scalars = outputs
        problems = [
            f"geometry {geo.index}: check {r.name} failed ({r.max_error!r})" for r in results if not r.passed
        ]
        for p, got in zip(geo.sample, scalars):
            want = oracles.fd_scalar_curvature(geo.metric_value, p)
            if not abs(got - want) <= FD_SCALAR_TOL * (1.0 + abs(want)):
                problems.append(f"geometry {geo.index}: scalar curvature {got!r} vs difference {want!r} at {p}")
        return problems


class ActionVariation:
    """``graded.bump_variation`` plus ``graded.action_first_variation``.

    One operation is one seeded bump on the n = 3 power-law solution (dim 4)
    and one on the off-solution dim-2 probe metric of criterion c06.
    """

    ROUND = 1
    RATE = 0.8

    def __init__(self, scratch: Path):
        pass

    def setup(self, seed: int) -> None:
        self.seed = seed
        n = gen.AV_SOLUTION_N
        cfg = cf.parse_config(gen.eds_config(n, gen.eds_coupling(n), None))
        self.solution = cf.build_graded_metric(cfg)
        self.magnitude = gd.action_magnitude(
            self.solution, QuadSpec(gen.AV_MAGNITUDE_NODES, gen.AV_SOLUTION_SUPPORT)
        )
        chart = default_chart(2)
        self.probe = gd.GradedMetric(
            rm.MetricSpec.diagonal(chart, list(gen.AV_PROBE_METRIC)),
            ef.parse_field(gen.AV_PROBE_THETA, chart),
        )

    def op(self, k: int):
        # amplitudes depend on (seed, k) only, not on how long the run is
        rng = np.random.default_rng([self.seed, k])
        amp, h = gen.bump_amplitudes(rng, gen.AV_SOLUTION_SIGNS)
        var = gd.bump_variation(self.solution.chart, gen.AV_SOLUTION_SUPPORT, amp, h)
        closed, _ = gd.action_first_variation(self.solution, var, QuadSpec(gen.AV_SOLUTION_NODES))
        amp, h = gen.bump_amplitudes(rng, gen.AV_PROBE_SIGNS)
        var = gd.bump_variation(self.probe.chart, gen.AV_PROBE_SUPPORT, amp, h)
        probe_closed, probe_fd = gd.action_first_variation(self.probe, var, QuadSpec(gen.AV_PROBE_NODES))
        return closed, probe_closed, probe_fd

    def check(self, k: int, outputs) -> list[str]:
        closed, probe_closed, probe_fd = outputs
        problems = []
        if not abs(closed) <= ACTION_CRITICAL_TOL * self.magnitude:
            problems.append(f"solution variation {closed!r} vs magnitude {self.magnitude!r}")
        if not abs(probe_closed - probe_fd) <= ACTION_FD_TOL * (1.0 + abs(probe_closed)):
            problems.append(f"probe closed form {probe_closed!r} vs difference {probe_fd!r}")
        if not abs(probe_closed) > ACTION_PROBE_MIN:
            problems.append(f"probe variation {probe_closed!r} is critical")
        return problems


WORKLOADS = {
    "eds_cli_grid": EdsCliGrid,
    "random_validate": RandomValidate,
    "action_variation": ActionVariation,
}


def op_count(workload, seconds: int) -> int:
    """Whole rounds sized from the nominal rate; never from a timing."""
    rounds = max(1, math.ceil(workload.RATE * seconds / workload.ROUND))
    return rounds * workload.ROUND
