import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from datetime import timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedgeo import cli
from gradedgeo import config as cf
from gradedgeo import exprfield as ef
from gradedgeo import graded as gd
from gradedgeo import riemann as rm
from gradedgeo.quadrature import QuadSpec, tensor_rule

FLAT_X = """\
[chart]
coords = x, y
box_x = -1.0, 1.0
box_y = -1.0, 1.0

[metric]
g_0_0 = 1
g_1_1 = 1

[theta]
expr = x

[grid]
counts = 3, 3
"""

MINKOWSKI = """\
[chart]
coords = x, y, t
box_x = -1.0, 1.0
box_y = -1.0, 1.0
box_t = -1.0, 1.0

[metric]
g_0_0 = 1
g_1_1 = 1
g_2_2 = -1

[theta]
expr = 0.25

[grid]
counts = 2, 2, 2
"""

EDS3 = """\
[chart]
coords = x, y, z, t
box_x = -2.0, 2.0
box_y = -2.0, 2.0
box_z = -2.0, 2.0
box_t = 0.3, 9.0

[metric]
g_0_0 = t^(2/3)
g_1_1 = t^(2/3)
g_2_2 = t^(2/3)
g_3_3 = -1

[theta]
expr = 0.5773502691896257*ln(t)

[grid]
points = 0.1 0.2 -0.3 1.0; 0.0 0.0 0.0 2.5; 0.4 -0.4 0.2 4.0
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(args):
    return cli.main(args)


def test_residuals_flat_fails_with_e29(tmp_path, capsys):
    path = write(tmp_path, FLAT_X)
    code = run(["residuals", "--config", path])
    out = capsys.readouterr()
    assert code == 1
    lines = out.out.splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "x,y,e27,e28,e29,e44,scalar_curvature,graded_scalar"
    first = lines[2].split(",")
    assert float(first[4]) == 2.0
    assert float(first[7]) == -2.0
    assert "FAIL" in out.err


def test_residuals_eds_passes(tmp_path, capsys):
    path = write(tmp_path, EDS3)
    code = run(["residuals", "--config", path])
    capsys.readouterr()
    assert code == 0


def test_residuals_vacuum_all_zero(tmp_path, capsys):
    path = write(tmp_path, MINKOWSKI)
    code = run(["residuals", "--config", path, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    for rec in payload["records"]:
        assert set(rec) == {
            "point", "e27", "e28", "e29", "e44", "scalar_curvature", "graded_scalar",
        }
        assert all(rec[k] == 0.0 for k in ("e27", "e28", "e29", "e44"))


def test_summary_matches_records():
    batch = cli._grid_map(cf.parse_config(FLAT_X))
    records = batch.residual_records()
    summary = cli._summary(batch, 1e-9)
    for key in cli.RESIDUAL_KEYS:
        assert summary[f"max_{key}"] == max(getattr(r, key) for r in records)
    assert summary["passed"] is False


def test_report_minkowski_all_zero(tmp_path, capsys):
    path = write(tmp_path, MINKOWSKI)
    code = run(["report", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    header = lines[1].split(",")
    for line in lines[2:]:
        cells = dict(zip(header, line.split(",")))
        for name, raw in cells.items():
            if name.split("_")[0] in ("gamma", "ric", "tilde", "gric", "scalar", "graded"):
                assert float(raw) == 0.0, name


def test_report_flat_graded_scalar_column(tmp_path, capsys):
    path = write(tmp_path, FLAT_X)
    code = run(["report", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    header = lines[1].split(",")
    col = header.index("graded_scalar")
    for line in lines[2:]:
        assert float(line.split(",")[col]) == pytest.approx(-2.0, abs=1e-12)


def test_report_eds_odd_block_column(tmp_path, capsys):
    path = write(tmp_path, EDS3)
    code = run(["report", "--config", path, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    gm = cf.build_graded_metric(cf.parse_config(EDS3))
    for rec in payload["records"]:
        p = tuple(rec["point"])
        gric = gd.graded_ricci_at(gm, p)
        assert rec["graded_ricci"]["odd"] == pytest.approx(gric.odd, rel=1e-12)
        want = -gm.weight()(p) * gd.tr_tilde_T_at(gm, p)
        assert rec["graded_ricci"]["odd"] == pytest.approx(want, rel=1e-9)


def test_validate_random_polynomial_metric(tmp_path, capsys):
    text = """\
[chart]
coords = x, y
box_x = -0.4, 0.4
box_y = -0.4, 0.4

[metric]
g_0_0 = 1 + 0.1*x^2
g_0_1 = 0.05*x*y
g_1_1 = 1 - 0.1*y

[theta]
expr = 0.3*x + 0.1*y^2
"""
    path = write(tmp_path, text)
    code = run(["validate", "--config", path, "--seed", "42"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert all(row[-1] == "true" for row in rows)
    names = {row[0] for row in rows}
    assert "koszul_vs_triple" in names
    assert "ricci_blocks_frame_sum" in names


def test_validate_degenerate_exit_code(tmp_path, capsys):
    text = FLAT_X.replace("g_0_0 = 1", "g_0_0 = x").replace("g_1_1 = 1", "g_1_1 = x")
    text += "points = 0.0 0.0\n"
    text = text.replace("counts = 3, 3\n", "")
    path = write(tmp_path, text)
    code = run(["validate", "--config", path])
    err = capsys.readouterr().err
    assert code == 3
    assert "numeric domain error" in err


def test_cosmo_matches_closed_form(tmp_path, capsys):
    text = EDS3 + """
[cosmo]
n = 3
c = eds
t0 = 1.0
a0 = 0.0
a_dot0 = 0.33333333333333331
theta0 = 0.0
t_end = 4.0
step = 0.001
"""
    path = write(tmp_path, text)
    code = run(["cosmo", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "t,a,a_dot,theta,eq41_residual,eq42_residual"
    worst = 0.0
    for line in lines[2:]:
        cells = [float(tok) for tok in line.split(",")]
        worst = max(worst, abs(cells[1] - math.log(cells[0]) / 3.0))
    assert worst < 1e-8


def test_cosmo_missing_section(tmp_path, capsys):
    path = write(tmp_path, FLAT_X)
    code = run(["cosmo", "--config", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err


def test_action_zero_variation(tmp_path, capsys):
    text = FLAT_X + """
[quadrature]
nodes = 24

[variation]
kind = zero
support_x = -0.3, 0.3
support_y = -0.3, 0.3
"""
    path = write(tmp_path, text)
    code = run(["action", "--config", path, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == 0.0
    assert payload["finite_difference"] == 0.0
    assert payload["passed"] is True


def test_action_bump_routes_agree(tmp_path, capsys):
    text = """\
[chart]
coords = x, y
box_x = -0.4, 0.4
box_y = -0.4, 0.4

[metric]
g_0_0 = 1 + 0.3*x^2
g_1_1 = 1 + 0.2*y^2

[theta]
expr = 0.4*y

[quadrature]
nodes = 56

[variation]
kind = bump
support_x = -0.3, 0.3
support_y = -0.3, 0.3
seed = 11
scale = 0.8
"""
    path = write(tmp_path, text)
    code = run(["action", "--config", path, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["closed_form"] - payload["finite_difference"]) <= 1e-5 * (
        1.0 + abs(payload["closed_form"])
    )
    assert payload["closed_form"] != 0.0


def test_grid_and_tol_overrides(tmp_path, capsys):
    path = write(tmp_path, FLAT_X)
    code = run(["residuals", "--config", path, "--grid", "2,2", "--tol", "5.0"])
    out = capsys.readouterr()
    assert code == 0
    assert len(out.out.splitlines()) == 2 + 4
    code = run(["residuals", "--config", path, "--grid", "2"])
    assert code == 2


@pytest.mark.parametrize("command", ["validate", "action", "cosmo"])
def test_grid_rejected_where_no_grid_is_read(tmp_path, capsys, command):
    # validate checks the configured points, action and cosmo read no grid
    path = str(Path(__file__).resolve().parent / "golden" / "sections" / "eds3.ini")
    code = run([command, "--config", path, "--grid", "2,2,2,2", "--out", str(tmp_path / "out.csv")])
    out = capsys.readouterr()
    assert code == 2
    assert "--grid" in out.err
    assert "Traceback" not in out.err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["report", "action", "cosmo"])
def test_tol_rejected_where_no_residual_tolerance_is_read(tmp_path, capsys, command):
    # report reads no tolerance, action reads fd_tol and cosmo neither
    path = str(Path(__file__).resolve().parent / "golden" / "sections" / "eds3.ini")
    code = run([command, "--config", path, "--tol", "1", "--out", str(tmp_path / "out.csv")])
    out = capsys.readouterr()
    assert code == 2
    assert "--tol" in out.err
    assert "Traceback" not in out.err
    assert not (tmp_path / "out.csv").exists()


OVERSIZE_GRID = FLAT_X.replace("counts = 3, 3", "counts = 100000, 100000")
DIM4_ACTION = EDS3 + """
[variation]
kind = bump
support_x = -0.5, 0.5
support_y = -0.5, 0.5
support_z = -0.5, 0.5
support_t = 1.0, 2.0
"""  # no [quadrature] section: the default nodes, the most whose grid fits the bound
OVERSIZE_NODES = DIM4_ACTION + "\n[quadrature]\nnodes = 32\n"  # 32^4 points in dim 4
DIM11_NO_GRID = "\n".join([
    "[chart]",
    "coords = " + ", ".join(f"x{k}" for k in range(11)),
    *(f"box_x{k} = -1, 1" for k in range(11)),
    "[metric]",
    *(f"g_{k}_{k} = 1" for k in range(11)),
    "[theta]",
    "expr = 0",
]) + "\n"  # no [grid] section: the default 3 points per axis, 3^11 points
DIM11_COSMO = DIM11_NO_GRID + "[cosmo]\nn = 3\nt0 = 1\na0 = 0\na_dot0 = 0.3\ntheta0 = 0\nt_end = 1.01\nstep = 0.001\n"
ONE_POINT_GRID = ["--grid", ",".join(["1"] * 11)]


@pytest.mark.parametrize(
    "text, args, key",
    [
        (OVERSIZE_GRID, ["residuals"], "[grid] counts: 100000 x 100000 points"),
        (FLAT_X, ["report", "--grid", "1000,1000"], "--grid: 1000 x 1000 points"),
        (OVERSIZE_NODES, ["action"], "[quadrature] nodes: 32 x 32 x 32 x 32 points"),
        (DIM11_NO_GRID, ["residuals"], "[grid] default counts: " + " x ".join(["3"] * 11) + " points"),
    ],
    ids=["grid-counts", "grid-override", "quadrature-nodes", "grid-default"],
)
def test_oversize_point_count_exit_2(tmp_path, capsys, monkeypatch, text, args, key):
    # refused before a point is built: the grid and the quadrature rule are never made
    def refuse(*_):
        raise AssertionError("built the points of an oversize run")

    monkeypatch.setattr(cf, "grid_points", refuse)
    monkeypatch.setattr(gd, "tensor_rule", refuse)
    code = run([*args, "--config", write(tmp_path, text)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: {key}, more than {cf.MAX_POINTS}" in err


def test_default_quadrature_nodes_fit_the_bound(tmp_path, capsys, monkeypatch):
    # a dim-4 action config without [quadrature] runs 17^4 = 83521 points, not 32^4; not swept here
    nodes = []

    def record(gm, var, quad):
        nodes.append(quad.nodes_per_axis)
        return 0.0, 0.0, 0.0

    monkeypatch.setattr(gd, "_action_variation", record)
    code = run(["action", "--config", write(tmp_path, DIM4_ACTION)])
    capsys.readouterr()
    assert (code, nodes) == (0, [17])


@pytest.mark.parametrize("args", [["cosmo"], ["residuals", *ONE_POINT_GRID]], ids=["cosmo", "residuals-grid"])
def test_default_grid_checked_only_where_read(tmp_path, capsys, args):
    # the dim-11 default grid is over the bound, but neither run builds it
    code = run([*args, "--config", write(tmp_path, DIM11_COSMO), "--out", str(tmp_path / "out.csv")])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf", "0", "-1e-9"])
def test_tol_override_must_be_positive_and_finite(tmp_path, capsys, tol):
    # exit 2 like the same value under [tolerances] residual_tol, never a pass
    path = write(tmp_path, FLAT_X)
    code = run(["residuals", "--config", path, f"--tol={tol}"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--tol" in err


def test_out_file_and_determinism(tmp_path, capsys):
    path = write(tmp_path, EDS3)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run(["report", "--config", path, "--out", str(out_a)]) == 0
    assert run(["report", "--config", path, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_missing_config_file(tmp_path, capsys):
    code = run(["residuals", "--config", str(tmp_path / "absent.ini")])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err


# bytes that are not UTF-8, and the offset of the first such byte; the last
# one lies past the first 8 KiB, which a chunked decode would miscount
NOT_UTF8 = {
    "leading-bytes": (b"\xff\xfe[chart]\n", 0),
    "latin-1-name": (b"[chart]\ncoords = \xe9t\n", 17),
    "past-8-KiB": (b";" + b"a" * 9000 + b"\n\xff", 9002),
}


@pytest.mark.parametrize("data, offset", NOT_UTF8.values(), ids=list(NOT_UTF8))
def test_config_not_utf8_exit_2(tmp_path, capsys, data, offset):
    path = tmp_path / "bad.ini"
    path.write_bytes(data)
    code = run(["residuals", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"config error: cannot read config {path}: not UTF-8 at byte {offset}\n"


@pytest.mark.parametrize("command", ["residuals", "validate"])
@pytest.mark.parametrize(
    "target, where",
    [
        *(pytest.param(target, where, id=f"{target}-{where}")
          for where in ("--out", "[output] path") for target in ("missing-directory", "a-directory")),
        pytest.param("> /dev/full", "stdout", id="full-stdout"),
        pytest.param(">&-", "stdout", id="closed-stdout"),
    ],
)
def test_unwritable_output_exit_2(tmp_path, capsys, command, where, target):
    # exit 1 would read as a residual or check failure
    if where == "stdout":
        # the shell redirects the standard output of a fresh interpreter, buffered
        # as it is by default, so a failed write would also show at its exit
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)
        cmd = [sys.executable, "-m", "gradedgeo.cli", command, "--config", write(tmp_path, FLAT_X)]
        done = subprocess.run(["sh", "-c", f'"$@" {target}', "sh", *cmd], env=env, capture_output=True, text=True)
        assert done.returncode == 2, done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith("config error: cannot write output standard output: ")
        return
    out = tmp_path / "no" / "such" / "out.csv" if target == "missing-directory" else tmp_path
    text = FLAT_X if where == "--out" else FLAT_X + f"\n[output]\npath = {out}\n"
    args = [command, "--config", write(tmp_path, text)]
    code = run(args + ["--out", str(out)] if where == "--out" else args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"config error: cannot write output {out}: ")
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["bogus", "--config", "{path}"],
        ["residuals"],
        ["residuals", "--config", "{path}", "--format", "xml"],
        ["validate", "--config", "{path}", "--seed", "1.5"],
    ],
    ids=["unknown-command", "missing-config", "bad-format", "non-integer-seed"],
)
def test_bad_arguments_exit_2(tmp_path, capsys, args):
    path = write(tmp_path, FLAT_X)
    with pytest.raises(SystemExit) as exc:
        run([a.format(path=path) for a in args])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert out.err.startswith("usage: gradedgeo")
    assert "Traceback" not in out.err


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for command in ("report", "residuals", "validate", "cosmo", "action"):
        assert f"\n  {command} " in out


def test_domain_error_exit_code(tmp_path, capsys):
    text = FLAT_X.replace("expr = x", "expr = ln(x)")
    path = write(tmp_path, text)
    code = run(["residuals", "--config", path])
    err = capsys.readouterr().err
    assert code == 3
    assert "numeric domain error" in err


NONFINITE = """\
[chart]
coords = x, t
box_x = -1.0, 1.0
box_t = 1.0, 800.0

[metric]
g_0_0 = 1
g_1_1 = 1

[theta]
expr = 1e-300*exp(exp(t))

[grid]
points = 0 1; 0 799
"""


def test_nonfinite_residuals_exit_3(tmp_path, capsys):
    path = write(tmp_path, NONFINITE)
    with np.errstate(all="ignore"):
        code = run(["residuals", "--config", path])
    err = capsys.readouterr().err
    assert code == 3
    assert "pass" not in err
    assert "theta" in err
    assert "(0.0, 799.0)" in err


def test_summary_fails_on_nan():
    # max(0.0, nan) is 0.0; the column maximum must stay NaN and fail
    columns = SimpleNamespace(e27=np.zeros(2), e28=np.array([0.0, math.nan]), e29=np.zeros(2), e44=np.zeros(2))
    summary = cli._summary(columns, 1e-9)
    assert math.isnan(summary["max_e28"])
    assert summary["max_e27"] == 0.0
    assert summary["passed"] is False


@pytest.mark.parametrize("command", ["residuals", "report"])
def test_grid_is_one_jet_sweep_each(tmp_path, capsys, jet_calls, command):
    path = write(tmp_path, FLAT_X)
    counts = []
    for grid in ("1,2", "2,4"):
        jet_calls.clear()
        run([command, "--config", path, "--grid", grid])
        counts.append(len(jet_calls))
    capsys.readouterr()
    assert counts == [1, 1]


def test_theta_weight_overflow_exit_3(tmp_path, capsys):
    # exp(2*theta) overflows although theta itself is finite
    path = write(tmp_path, FLAT_X.replace("expr = x", "expr = 400").replace("counts = 3, 3", "points = 0 0"))
    code = run(["residuals", "--config", path])
    err = capsys.readouterr().err
    assert code == 3
    assert "theta" in err
    assert "(0.0, 0.0)" in err


def test_action_weight_overflow_exit_3(tmp_path, capsys):
    # exp(2*theta) overflows at every point of the support, x > 354.9
    text = FLAT_X.replace("box_x = -1.0, 1.0", "box_x = 0.0, 400.0")
    variation = "[quadrature]\nnodes = 4\n\n[variation]\nkind = bump\nsupport_x = 370, 390\nsupport_y = -0.5, 0.5\n"
    path = write(tmp_path, text + "\n" + variation)
    with np.errstate(all="ignore"):
        code = run(["action", "--config", path])
    err = capsys.readouterr().err
    assert code == 3
    assert "non-finite value of exp(2*theta) at point (371.38863688405945, -0.4305681557970263)" in err
    assert "Traceback" not in err


# theta = 1e155*x has d_x theta = 1e155, whose square overflows, on a box thin
# enough in x to keep theta itself small
SLOPE_OVERFLOW = """\
[chart]
coords = x, y
box_x = -1e-160, 1e-160
box_y = 0, 1

[metric]
g_0_0 = 1
g_1_1 = 1

[theta]
expr = 1e155*x
"""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["report", "residuals", "validate"])
@pytest.mark.parametrize(
    "g00, field",
    # with g^00 = 1e-10, |grad theta|^2 = 1e300 stays finite but dtheta x dtheta does not
    [("1", "|grad theta|^2"), ("1e10", "tilde_T")],
    ids=["gradient-square", "gradient-product"],
)
def test_theta_slope_overflow_exit_3(tmp_path, capsys, command, g00, field):
    out = tmp_path / "out.csv"
    path = write(tmp_path, SLOPE_OVERFLOW.replace("g_0_0 = 1\n", f"g_0_0 = {g00}\n"))
    code = run([command, "--config", path, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and not out.exists()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"numeric domain error: non-finite value of {field} at point (")


# the metric's jets are finite, but with A = g_0_0, Ric_11 = -A_yy / (2A) = -1e309 at y = 0:
# Ricci itself leaves the double range, and R with it
CURVATURE_OVERFLOW = (
    FLAT_X.replace("g_0_0 = 1\n", "g_0_0 = 1e-9 + 1e300*y*y\n")
    .replace("expr = x", "expr = 0")
    .replace("counts = 3, 3", "points = 0.01 0")
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["report", "residuals", "validate"])
def test_curvature_overflow_exit_3(tmp_path, capsys, command):
    code = run([command, "--config", write(tmp_path, CURVATURE_OVERFLOW)])
    err = capsys.readouterr().err
    assert code == 3
    assert "non-finite value of Ricci at point (0.01, 0.0)" in err
    assert "Traceback" not in err


# A = g_0_0 at (0.01, 0.01): d_x d_y A = 9e307 is near the top of the double range, but
# K = A_y^2 / (4 A^2) = 2500, so R = 5000, Ric_00 = K A = 2.25e307 and Ric_11 = 2500
CURVATURE_NEAR_MAX = CURVATURE_OVERFLOW.replace("1e-9 + 1e300*y*y", "1 + 9e307*x*y").replace(
    "points = 0.01 0", "points = 0.01 0.01"
)


@pytest.mark.filterwarnings("error")
def test_curvature_near_the_double_range(tmp_path, capsys):
    path = write(tmp_path, CURVATURE_NEAR_MAX)
    m, p = cf.build_graded_metric(cf.load_config(path)).metric, (0.01, 0.01)
    assert abs(rm.scalar_curvature_at(m, p) - 5000.0) <= 4 * np.spacing(5000.0)
    want = np.diag([2.25e307, 2500.0])
    assert (np.abs(rm.ricci_at(m, p).components - want) <= 4 * np.spacing(want)).all()
    codes = [run([command, "--config", path]) for command in ("report", "residuals", "validate")]
    err = capsys.readouterr().err
    # e29 = |Ric - 2 dtheta x dtheta| = 2.25e307 fails residuals; validate's oracle routes
    # differentiate Gamma, whose d_m g^ij term overflows, and fail closed at the
    # configured point, which the table pass takes first
    assert codes == [0, 1, 3]
    assert "non-finite value of connection table at point (0.01, 0.01)" in err
    assert "Traceback" not in err


DET_OVERFLOW = (
    FLAT_X.replace("g_0_0 = 1\n", "g_0_0 = 1e200\n").replace("g_1_1 = 1\n", "g_1_1 = 1e200\n")
    .replace("expr = x", "expr = 0.1*x")
    + "\n[quadrature]\nnodes = 6\n\n[variation]\nkind = bump\nsupport_x = -0.5, 0.5\nsupport_y = -0.5, 0.5\n"
)


@pytest.mark.parametrize("command, want", [("action", 3), ("report", 0), ("residuals", 1), ("validate", 0)])
def test_det_overflow_fails_closed_in_the_action_only(tmp_path, capsys, command, want):
    # every g_ij is finite, but det g = 1e400 overflows, and only the action reads it
    path = write(tmp_path, DET_OVERFLOW)
    code = run([command, "--config", path])
    out, err = capsys.readouterr()
    assert code == want
    assert "Traceback" not in err
    if command == "action":
        assert out == ""
        # det g overflows everywhere, so at the rule's first point
        first = tensor_rule(cf.load_config(path).chart, QuadSpec(6, ((-0.5, 0.5), (-0.5, 0.5))))[0][0]
        assert f"non-finite value of det g at point {tuple(first.tolist())}" in err
    else:
        assert "nan" not in out and "inf" not in out


@pytest.mark.parametrize("command", ["residuals", "report"])
@pytest.mark.parametrize(
    "field, metric, theta",
    [
        ("theta", "g_0_0 = 1\ng_1_1 = -1", "1.5e308*x*x + 1.5e308*y*y"),
        ("g_0_0", "g_0_0 = 1 + 1.5e308*x*x\ng_1_1 = -1", "0"),
    ],
)
def test_hessian_overflow_exit_3(tmp_path, capsys, command, field, metric, theta):
    # the x*x coefficient is finite, but the Hessian doubles it past the double range
    text = FLAT_X.replace("g_0_0 = 1\ng_1_1 = 1", metric).replace("expr = x", f"expr = {theta}")
    path = write(tmp_path, text.replace("counts = 3, 3", "points = 0 0"))
    with np.errstate(all="ignore"):
        code = run([command, "--config", path])
    err = capsys.readouterr().err
    assert code == 3
    assert f"non-finite value of {field}" in err
    assert "(0.0, 0.0)" in err


HALF_MAX = float(np.finfo(float).max) / 2


@pytest.mark.parametrize("command", ["residuals", "report"])
@pytest.mark.parametrize(
    "coeff, field",
    [(float(np.nextafter(HALF_MAX, np.inf)), "g_0_0"), (HALF_MAX, None)],
    ids=["above-half-max", "at-half-max"],
)
def test_hessian_diagonal_bound_is_exact(tmp_path, capsys, command, coeff, field):
    # the x*x coefficient's double is finite exactly when it is at most DBL_MAX/2: just
    # above, the metric's own check names g_0_0; at the bound it passes, and so does the
    # curvature, 0 since g varies along one coordinate: the trace core halves each of
    # its two DBL_MAX terms before their sum
    text = FLAT_X.replace("g_0_0 = 1\n", f"g_0_0 = 1 + {coeff!r}*x*x\n").replace("expr = x", "expr = 0")
    path = write(tmp_path, text.replace("counts = 3, 3", "points = 0 0"))
    code = run([command, "--config", path])
    out, err = capsys.readouterr()
    if field is not None:
        assert code == 3
        assert f"non-finite value of {field} at point (0.0, 0.0)" in err
        return
    assert code == 0, err
    header, row = out.splitlines()[1:3]
    cells = [v for k, v in zip(header.split(","), row.split(",")) if k.startswith("ric_") or k == "scalar_curvature"]
    assert len(cells) == {"residuals": 1, "report": 5}[command]
    assert all(float(v) == 0.0 for v in cells)


def test_grid_points_validated_once_per_run(tmp_path, capsys, monkeypatch):
    # geometry_batch and curvature_data_batch leave the box test to the metric's jet sweep
    calls = []
    original = ef.ChartSpec.require_points
    monkeypatch.setattr(ef.ChartSpec, "require_points", lambda self, pts: calls.append(1) or original(self, pts))
    for command in ("residuals", "report"):
        calls.clear()
        assert run([command, "--config", write(tmp_path, MINKOWSKI)]) == 0
        assert len(calls) == 1, command
    # validate checks each point set in the sweep that evaluates it: the geometry batch,
    # the connection table pass and the stress divergence, after the config's check of
    # [grid] points where it has them (flat_x draws its sample)
    sections = Path(__file__).resolve().parent / "golden" / "sections"
    for config, want in (("eds3", 4), ("random3_lorentz", 4), ("flat_x", 3)):
        calls.clear()
        assert run(["validate", "--config", str(sections / f"{config}.ini"), "--out", str(tmp_path / "v.csv")]) == 0
        assert len(calls) == want, config
    capsys.readouterr()


def test_constant_divisor_in_metric_exit_0(tmp_path, capsys):
    # 1/c**2 overflows at c = 1e-200, which once turned the finite g_0_0 NaN
    path = write(tmp_path, MINKOWSKI.replace("g_0_0 = 1", "g_0_0 = 1 + 1e-200*x/1e-200 + 1"))
    code = run(["residuals", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "nan" not in out


def test_deep_expression_exit_4(tmp_path, capsys):
    # the parser descends recursively into parentheses
    nested = "(" * 3000 + "x" + ")" * 3000
    path = write(tmp_path, FLAT_X.replace("expr = x", f"expr = {nested}"))
    code = run(["residuals", "--config", path])
    err = capsys.readouterr().err
    assert code == 4
    assert "RecursionError" in err


@pytest.mark.parametrize("command", ["residuals", "report"])
def test_long_theta_passes(tmp_path, capsys, command):
    # 10,000 terms of 0.00005*ln(t) add up to the solution's 0.5*ln(t)
    golden = (Path(__file__).resolve().parent / "golden" / "eds2_solution.ini").read_text()
    assert "expr = 0.5*ln(t)" in golden
    terms = " + ".join(["0.00005*ln(t)"] * 10_000)
    path = write(tmp_path, golden.replace("expr = 0.5*ln(t)", f"expr = {terms}"))
    code = run([command, "--config", path])
    capsys.readouterr()
    assert code == 0


def test_grid_point_not_a_number_exit_2(tmp_path, capsys):
    path = write(tmp_path, FLAT_X.replace("counts = 3, 3", "points = 0.1 abc"))
    code = run(["residuals", "--config", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "[grid] points" in err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("residuals", FLAT_X.replace("g_1_1 = 1", "g_1_1 = 1\ng_1_1 = 2"), "config syntax: "),
        ("residuals", FLAT_X.replace("[metric]\ng_0_0 = 1\ng_1_1 = 1\n", ""), "missing [metric] section"),
        ("residuals", FLAT_X.replace("box_x = -1.0, 1.0", "box_x = 1"), "expected 2 comma-separated numbers"),
        ("residuals", FLAT_X.replace("counts = 3, 3", "points = ;"), "[grid] points: empty point list"),
        ("residuals", FLAT_X.replace("counts = 3, 3", "points = 0 0 0"), "[grid] points: need 2 coordinates"),
        ("action", FLAT_X, "action subcommand needs a [variation] section"),
        ("report", FLAT_X.replace("g_1_1 = 1", "g_0_1 = 0.1\ng_00_1 = 0.2\ng_1_1 = 1"), "[metric] g_00_1: "),
    ],
    ids=[
        "duplicate-key", "no-metric", "box-one-number", "empty-points", "point-too-long", "action-no-variation",
        "aliased-key",
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, command, text, message):
    code = run([command, "--config", write(tmp_path, text)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err


# a constant dim-3 metric with |det g| about 1.0e-9, above the degeneracy threshold,
# whose inverse is too inexact to pass g g^-1 = I
NEAR_SINGULAR_DIM3 = """\
[chart]
coords = x, y, z
box_x = -1.0, 1.0
box_y = -1.0, 1.0
box_z = -1.0, 1.0

[metric]
g_0_0 = 1
g_1_1 = 1
g_2_2 = 1
g_0_1 = 0.6
g_0_2 = 0.8
g_1_2 = 0.9599999989583

[theta]
expr = 0

[grid]
points = 0 0 0
"""


@pytest.mark.parametrize("command", ["report", "residuals"])
def test_metric_inverse_identity_check_exit_3(tmp_path, capsys, command):
    code = run([command, "--config", write(tmp_path, NEAR_SINGULAR_DIM3)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "numeric domain error: metric inverse failed the identity check" in err


def test_variation_support_outside_box_exit_2(tmp_path, capsys):
    text = FLAT_X + """
[variation]
kind = bump
support_x = -5, 5
support_y = -0.3, 0.3
"""
    code = run(["action", "--config", write(tmp_path, text)])
    err = capsys.readouterr().err
    assert code == 2
    assert "[variation] support_x" in err


def _eds3_with(**edits):
    """tests/golden/sections/eds3.ini with each ``key = value`` line of ``edits`` replaced."""
    lines = (Path(__file__).resolve().parent / "golden" / "sections" / "eds3.ini").read_text().splitlines()
    for name, value in edits.items():
        (k,) = [i for i, line in enumerate(lines) if line.startswith(f"{name} = ")]
        lines[k] = f"{name} = {value}"
    return "\n".join(lines) + "\n"


# valid [cosmo] sections whose runs leave the numeric domain
COSMO_DOMAIN = {
    # 2*k2 + 2*k3 of the acceleration overflows, so a_dot becomes -inf after one step
    "state-overflow": _eds3_with(t0="1e-300", a_dot0="1.3e154", t_end="5e-300", step="1e-300"),
    # e^(2a) overflows in the eq41 monitor, and 0 * inf is nan
    "warp-overflow": _eds3_with(c="0", a0="400", a_dot0="0", step="0.25"),
    # the backward run's last time, 1 + 4 * (-0.25), rounds to 0
    "time-rounds-to-zero": _eds3_with(t_end="1e-300", step="0.25"),
    # n * a_dot^2 * e^(2a) overflows in the eq41 monitor
    "huge-n": _eds3_with(n=str(10**300), a0="1e10", c="0.5"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", COSMO_DOMAIN.values(), ids=list(COSMO_DOMAIN))
def test_cosmo_domain_errors_exit_3(tmp_path, capsys, text):
    out = tmp_path / "trajectory.csv"
    code = run(["cosmo", "--config", write(tmp_path, text), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and not out.exists()
    (line,) = captured.err.splitlines()
    assert line.startswith("numeric domain error:") and " t=" in line


@pytest.mark.parametrize(
    "edits,key",
    [
        ({"step": "0"}, "step"),
        ({"c": "-0.5"}, "c"),
        ({"t_end": "1.2"}, "t_end"),  # from t0 = 1 at step 0.1: three states
        ({"t_end": "1.0"}, "t_end"),  # t_end = t0: a single state
        ({"t0": "-1.0"}, "t0"),
        ({"t0": "0.0"}, "t0"),
        ({"t0": "1.0", "t_end": "4.0", "step": "1e-300"}, "step"),  # about 3e300 states
    ],
    ids=["zero-step", "negative-c", "three-states", "single-state", "negative-t0", "zero-t0", "too-many-states"],
)
def test_bad_cosmo_values_exit_2(tmp_path, capsys, edits, key):
    text = _eds3_with(**edits)
    # refused at parse time, before any integration could start
    with pytest.raises(cf.ConfigError, match=rf"^\[cosmo\] {key}:"):
        cf.parse_config(text)
    path = write(tmp_path, text)
    code = run(["cosmo", "--config", path])
    err = capsys.readouterr().err
    assert code == 2
    assert f"[cosmo] {key}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("scale", ["-0.5", "1e308"], ids=["negative", "width-overflows"])
def test_bad_variation_scale_exits_2(tmp_path, capsys, scale):
    # the amplitudes come from rng.uniform(-scale, scale), which raised on both
    text = (Path(__file__).resolve().parent / "golden" / "sections" / "eds3.ini").read_text()
    path = write(tmp_path, text.replace("scale = 0.5", f"scale = {scale}"))
    code = run(["action", "--config", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "[variation] scale:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args,edit,name",
    [
        (["action", "--config", "{path}"], ("seed = 11", "seed = -1"), "[variation] seed"),
        (["validate", "--config", "{path}", "--seed", "-1"], None, "--seed"),
    ],
    ids=["variation-seed", "cli-seed"],
)
def test_negative_seed_exits_2(tmp_path, capsys, args, edit, name):
    text = (Path(__file__).resolve().parent / "golden" / "sections" / "flat_x.ini").read_text()
    path = write(tmp_path, text.replace(*edit) if edit else text)
    code = run([a.format(path=path) for a in args])
    err = capsys.readouterr().err
    assert code == 2
    assert name in err
    assert "Traceback" not in err


def test_variation_support_few_ulps_wide_exit_2(tmp_path, capsys):
    # at t = 1 this support is a few hundred float spacings wide: rounding
    # puts the upper boundary probe at |u| > 1, where the bump profile is inf
    text = """\
[chart]
coords = t
box_t = 1.0, 1.0000001192092896

[metric]
g_0_0 = 1

[theta]
expr = 0

[quadrature]
nodes = 1

[variation]
kind = bump
support_t = 1.0, 1.0000000538801974
"""
    with np.errstate(all="ignore"):
        code = run(["action", "--config", write(tmp_path, text)])
    err = capsys.readouterr().err
    assert code == 2
    assert "[variation]: variation does not vanish on the support boundary" in err
    assert "Traceback" not in err


def _action_block_cap(n):
    # the most points an action block holds: CHUNK_DOUBLES over n**2 order-2 jets
    # or over one point-last n**4 array, whichever is larger
    return rm.CHUNK_DOUBLES // max(n**4, n * n * ef.jet_space(n, 2).count)


@pytest.mark.parametrize("name", ["eds3", "random3_lorentz"])
def test_action_is_one_metric_sweep(monkeypatch, capsys, name):
    # the action over the support is read off the variation's own sweep, one
    # point block at a time: the order-2 sweeps' blocks, joined in order, are
    # the quadrature points, each swept once, and none is longer than the cap
    blocks = []

    def counted(fields, pts, order, *args, _original=ef.eval_jets_batch):
        if order == 2:
            blocks.append(np.array(pts))
        return _original(fields, pts, order, *args)

    monkeypatch.setattr(ef, "eval_jets_batch", counted)
    path = str(Path(__file__).resolve().parent / "golden" / "sections" / f"{name}.ini")
    cfg = cf.load_config(path)
    run(["action", "--config", path])
    capsys.readouterr()
    pts, _ = tensor_rule(cfg.chart, QuadSpec(cfg.quad_nodes, cfg.variation.support))
    assert np.concatenate(blocks).tobytes() == pts.tobytes()
    assert all(1 <= len(b) <= _action_block_cap(cfg.chart.dim) for b in blocks)
    assert len(blocks) == -(-len(pts) // _action_block_cap(cfg.chart.dim))


def test_action_memory_per_point(monkeypatch, capsys):
    # the traced peak of the action run of golden/sections/eds3.ini, with its bump,
    # grows by at most 250 bytes per quadrature point from 6^4 to 9^4 and from 9^4
    # to 12^4 nodes. Model: per point, the node and its weight (40 bytes) and four
    # integrand doubles (32 bytes), 72 bytes; tensor_rule's grids also peak near
    # 72 bytes. One block's jets, tensors and work buffers, about 15 KB per block
    # point, do not grow with the rule, but the even split makes the blocks 216,
    # 252.3 and 256 points long at these sizes: about 0.1 KB per point more on
    # the first step
    original, runs = gd._action_variation, []
    monkeypatch.setattr(gd, "_action_variation", lambda gm, var, quad: runs.append((gm, var)) or (0.0, 0.0, 0.0))
    run(["action", "--config", str(Path(__file__).resolve().parent / "golden" / "sections" / "eds3.ini")])
    capsys.readouterr()
    ((gm, var),) = runs
    original(gm, var, QuadSpec(2))  # symbolic caches built outside the trace
    nodes, peaks = (6, 9, 12), []
    for k in nodes:
        tracemalloc.start()
        try:
            original(gm, var, QuadSpec(k))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    for (lo, hi), (p_lo, p_hi) in zip(zip(nodes, nodes[1:]), zip(peaks, peaks[1:])):
        per_point = (p_hi - p_lo) / (hi**4 - lo**4)
        assert per_point <= 250.0, (lo, hi, per_point, peaks)


def _late_block_config(metric, theta):
    # a dim-2 action over 56^2 = 3136 nodes: two blocks of 1568 points, the
    # second holding the nodes with x > 0
    return f"""\
[chart]
coords = x, y
box_x = -1.0, 1.0
box_y = -1.0, 1.0

[metric]
{metric}

[theta]
expr = {theta}

[quadrature]
nodes = 56

[variation]
kind = bump
support_x = -0.5, 0.5
support_y = -0.5, 0.5
seed = 11
scale = 0.8
"""


@pytest.mark.parametrize(
    "metric, theta, field, bad",
    [
        # exp(2*theta) overflows where x > 0.3549
        ("g_0_0 = 1\ng_1_1 = 1", "1000*x", "exp(2*theta)", lambda x: 2000.0 * x > 709.78),
        # det g = exp(800*x + 550) overflows where x > 0.1997
        ("g_0_0 = exp(800*x)\ng_1_1 = exp(550)", "0", "det g", lambda x: 800.0 * x + 550.0 > 709.78),
    ],
    ids=["theta", "det-g"],
)
def test_action_fails_closed_in_a_late_block(tmp_path, capsys, metric, theta, field, bad):
    # the first block, both perturbed passes included, is finite; the base pass of
    # the second fails, and the run names the field and the first bad point in point order
    path = write(tmp_path, _late_block_config(metric, theta))
    with np.errstate(all="ignore"):
        code = run(["action", "--config", path])
    err = capsys.readouterr().err
    pts, _ = tensor_rule(ef.ChartSpec(("x", "y"), ((-1.0, 1.0),) * 2), QuadSpec(56, ((-0.5, 0.5),) * 2))
    first = int(np.argmax(bad(pts[:, 0])))
    assert _action_block_cap(2) < len(pts) and first >= len(pts) // 2  # in the second of two blocks
    assert code == 3
    assert f"non-finite value of {field} at point {tuple(pts[first].tolist())}" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_action_closed_form_overflow_exit_3(tmp_path, capsys):
    # with g^00 near 1e200, tr_g s = g^ij s_ij overflows in the closed form's pairing,
    # though g, det g, the traces and every theta row are finite: exit 3, not a nan
    # closed form and exit 1
    text = FLAT_X.replace("g_0_0 = 1\n", "g_0_0 = 1e-200*(1 + 0.3*y^2)\n")
    text = text.replace("g_1_1 = 1\n", "g_1_1 = 1e200*(1 + 0.2*y^2)\n")
    variation = "[quadrature]\nnodes = 6\n\n[variation]\nkind = bump\nsupport_x = -0.3, 0.3\nsupport_y = -0.3, 0.3\n"
    code = run(["action", "--config", write(tmp_path, text + "\n" + variation)])
    err = capsys.readouterr().err
    assert code == 3
    assert "non-finite value of closed-form pairing at point (-0.2797408542609456, -0.2797408542609456)" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_action_ricci_pairing_overflow_exit_3(tmp_path, capsys):
    # g = 1e-155 (diag(1 + y^2, 1 + x^2)) has Ricci O(1) and R near 1e155, both finite,
    # but raising Ricci by g^-1 twice overflows: <s, Ric> is named, before the rest of
    # the closed form's pairing, which overflows as well
    text = FLAT_X.replace("g_0_0 = 1\n", "g_0_0 = 1e-155*(1 + y^2)\n")
    text = text.replace("g_1_1 = 1\n", "g_1_1 = 1e-155*(1 + x^2)\n")
    variation = "[quadrature]\nnodes = 6\n\n[variation]\nkind = bump\nsupport_x = -0.3, 0.3\nsupport_y = -0.3, 0.3\n"
    code = run(["action", "--config", write(tmp_path, text + "\n" + variation)])
    err = capsys.readouterr().err
    assert code == 3
    assert "non-finite value of <s, Ric> at point (-0.2797408542609456, -0.2797408542609456)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "theta, message",
    [
        # exp(2*theta) overflows where x*y < -0.3549, first at x = -1 in the first block
        ("-1000*x*y", "non-finite value of exp(2*theta) at point {first}"),
        # no theta error: the degenerate metric of the second block is reported
        ("0", r"|det g| = 0.000e+00 below threshold"),
    ],
    ids=["theta-in-block-1", "degenerate-in-block-2"],
)
def test_grid_errors_come_in_block_order(tmp_path, capsys, theta, message):
    # a 60^2 grid is two blocks of 1800 points, the second holding x > 0; g_0_0 = 1 - x
    # vanishes at x = 1, in the second. The first block's theta error is raised
    # before the second block is swept
    text = FLAT_X.replace("g_0_0 = 1\n", "g_0_0 = 1 - x\n").replace("expr = x", f"expr = {theta}")
    path = write(tmp_path, text.replace("counts = 3, 3", "counts = 60, 60"))
    pts = np.array(cf.grid_points(cf.load_config(path)))
    blocks = rm._blocks(len(pts), 2)
    assert [sl.stop for sl in blocks] == [1800, 3600] and (pts[:1800, 0] < 0.0).all() and pts[-1, 0] == 1.0
    first = int(np.argmax(-2000.0 * pts[:, 0] * pts[:, 1] > 709.78))
    with np.errstate(all="ignore"):
        code = run(["residuals", "--config", path])
    err = capsys.readouterr().err
    assert code == 3
    assert message.format(first=tuple(pts[first].tolist())) in err
    assert "Traceback" not in err


# flat space in other units: |det g| = 1e-12, and det g = 1e-400, which underflows to 0
SMALL_UNITS = [
    EDS3.replace("t^(2/3)", "0.001").replace("g_3_3 = -1", "g_3_3 = -0.001").replace("0.5773502691896257*ln(t)", "0"),
    FLAT_X.replace("g_0_0 = 1\n", "g_0_0 = 1e-200\n").replace("g_1_1 = 1\n", "g_1_1 = 1e-200\n")
    .replace("expr = x", "expr = 0"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["residuals", "report"])
def test_flat_metric_in_small_units_is_regular(tmp_path, capsys, command):
    # the degeneracy check reads g with its diagonal scaled to unit binades, from the
    # cofactor routine's scaled determinant, so each run passes, every curvature column 0
    for text in SMALL_UNITS:
        code = run([command, "--config", write(tmp_path, text)])
        out = capsys.readouterr()
        assert code == 0, out.err
        assert "det g" not in out.err and "Traceback" not in out.err
        lines = out.out.splitlines()
        header = lines[1].split(",")
        for line in lines[2:5]:
            row = dict(zip(header, line.split(",")))
            assert all(row[c] == "0" for c in header if c.startswith(("ric_", "scalar_curvature", "graded_scalar"))), row


_COORDS = ("x", "y", "t")
_BAD_EXPR = st.sampled_from(["x +", "(x", "foo", "1e999", "x^x", ""])
_SMALL = st.floats(-2.0, 2.0).map(repr)
_WIDE = st.one_of(_SMALL, st.floats(allow_nan=False, allow_infinity=False).map(repr))


def _expr(names):
    leaves = st.sampled_from(["0", "1", "2", "-1", "0.5", "1e-200", "1e300", "400", "pi", *names])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map("({0[0]}) {0[1]} ({0[2]})".format),
            st.tuples(inner, st.sampled_from(["2", "3", "(1/2)", "(-1)", "(2/3)"])).map("({0[0]})^{0[1]}".format),
            st.tuples(st.sampled_from(ef.FUNCTIONS), inner).map("{0[0]}({0[1]})".format),
        ),
        max_leaves=4,
    )


@st.composite
def _run_args(draw):
    """A small config (dim <= 3, at most 4 grid counts and quadrature nodes,
    at most 2000 [cosmo] states) with the occasional bad value, and a command."""
    dim = draw(st.integers(1, 3))
    names = _COORDS[:dim]
    expr = _expr(names)
    box = [(lo, lo + draw(st.floats(0.0, 3.0))) for lo in draw(st.lists(st.floats(-2.0, 1.0), min_size=dim, max_size=dim))]
    lines = ["[chart]", f"coords = {', '.join(names)}", *(f"box_{a} = {lo!r}, {hi!r}" for a, (lo, hi) in zip(names, box))]
    lines.append("[metric]")
    for i in range(dim):
        lines.append(f"g_{i}_{i} = {draw(st.one_of(st.sampled_from(['1', '-1', '2']), expr.map('1 + 0.1*({})'.format), expr))}")
        lines += [f"g_{i}_{j} = {draw(expr)}" for j in range(i + 1, dim) if draw(st.booleans())]
    lines += ["[theta]", f"expr = {draw(_BAD_EXPR if draw(st.integers(0, 9)) == 9 else expr)}"]
    grid = draw(st.sampled_from(["counts", "points", None]))
    if grid == "counts":
        lines += ["[grid]", "counts = " + ", ".join(str(draw(st.integers(1, 4))) for _ in names)]
    elif grid == "points":
        rows = st.tuples(*(st.floats(lo, hi) for lo, hi in box)).map(lambda p: " ".join(map(repr, p)))
        lines += ["[grid]", "points = " + "; ".join(draw(st.lists(rows, min_size=1, max_size=3)))]
    if draw(st.booleans()):
        tol = st.sampled_from(["1e-9", "1e-3", "1"] * 3 + ["0", "nan"])
        lines += ["[tolerances]", f"residual_tol = {draw(tol)}", f"fd_tol = {draw(tol)}"]
    lines += ["[quadrature]", f"nodes = {draw(st.sampled_from('1234' * 3 + '0'))}"]
    if draw(st.integers(0, 3)):
        t0 = draw(st.one_of(st.floats(0.1, 2.0), st.floats(5e-324, 1e-3)))
        # a span in units of t0 gives a tiny step after a tiny t0; a t_end near 0 ends a backward run there
        span = draw(st.one_of(st.floats(0.05, 3.0), st.floats(0.05, 8.0).map(lambda u: u * t0)))
        t_end = draw(st.one_of(st.sampled_from([t0 + span, t0 + span, t0 - span]), st.floats(0.0, 1e-3 * t0)))
        lines += [
            "[cosmo]",
            f"n = {draw(st.one_of(st.integers(2, 5), st.integers(2, 10**308)))}",
            f"c = {draw(st.one_of(st.just('eds'), st.floats(0.0, 2.0).map(repr), st.floats(0.0, 1e308).map(repr)))}",
            f"t0 = {t0!r}",
            *(f"{key} = {draw(_WIDE)}" for key in ("a0", "a_dot0", "theta0")),
            f"t_end = {t_end!r}",
            f"step = {abs(t_end - t0) / draw(st.integers(3, 2000))!r}",
            f"einstein_lambda = {draw(st.one_of(st.just('ricci-flat'), _WIDE))}",
            f"theta_sign = {draw(st.sampled_from(['1', '-1']))}",
        ]
    if draw(st.integers(0, 3)):
        lines += ["[variation]", f"kind = {draw(st.sampled_from(['bump', 'zero']))}"]
        for a, (lo, hi) in zip(names, box):
            u, v = draw(st.floats(0.0, 0.45)), draw(st.floats(0.55, 1.0))
            lines.append(f"support_{a} = {lo + u * (hi - lo)!r}, {lo + v * (hi - lo)!r}")
        lines += [f"seed = {draw(st.integers(0, 100))}", f"scale = {draw(st.floats(0.0, 2.0))!r}"]
    command = draw(st.sampled_from(["report", "residuals", "validate", "cosmo", "action"]))
    args = [command, "--format", draw(st.sampled_from(["csv", "json"])), "--seed", str(draw(st.integers(0, 3)))]
    return "\n".join(lines) + "\n", args


@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(run_args=_run_args())
@example(run_args=(OVERSIZE_GRID, ["residuals"]))
@example(run_args=(FLAT_X, ["report", "--grid", "1000,1000"]))
@example(run_args=(OVERSIZE_NODES, ["action"]))
@example(run_args=(CURVATURE_OVERFLOW, ["report"]))
@example(run_args=(DET_OVERFLOW, ["action"]))
@example(run_args=(DIM11_NO_GRID, ["residuals"]))
@example(run_args=(DIM11_COSMO, ["cosmo"]))
@example(run_args=(DIM11_COSMO, ["residuals", *ONE_POINT_GRID]))
@example(run_args=(COSMO_DOMAIN["state-overflow"], ["cosmo"]))
@example(run_args=(COSMO_DOMAIN["warp-overflow"], ["cosmo"]))
@example(run_args=(COSMO_DOMAIN["time-rounds-to-zero"], ["cosmo"]))
@example(run_args=(COSMO_DOMAIN["huge-n"], ["cosmo"]))
@example(run_args=(NOT_UTF8["leading-bytes"][0], ["residuals"]))
@example(run_args=(SLOPE_OVERFLOW, ["report"]))
@example(run_args=(SLOPE_OVERFLOW.replace("g_0_0 = 1\n", "g_0_0 = 1e10\n"), ["residuals"]))
def test_cli_exit_code_fuzz(tmp_path_factory, run_args):
    # every command on every config ends in an exit code of the contract
    text, args = run_args  # the config's text, or the bytes of a file that is not UTF-8
    path = tmp_path_factory.getbasetemp() / "fuzz.ini"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    err = io.StringIO()
    with contextlib.redirect_stderr(err), np.errstate(all="ignore"):
        code = cli.main([*args, "--config", str(path), "--out", os.devnull])
    assert code in range(5)
    assert "Traceback" not in err.getvalue()


@pytest.mark.bitwise
def test_float_rows_print_format_float_bytes(tmp_path):
    # a float table is formatted a whole row at a time; every cell keeps the bytes of format(x, ".17g")
    values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, float(2**53 + 1), 1e16, 0.1, -1e308]
    table = np.array([values, values[::-1]])
    out = tmp_path / "rows.csv"
    cfg = dataclasses.replace(cf.parse_config(FLAT_X), out_path=str(out))
    cli._write(cfg, dict, [f"c{k}" for k in range(len(values))], table)
    lines = out.read_text().splitlines()
    assert lines[2:] == [",".join(format(x, ".17g") for x in row) for row in table.tolist()]
    assert lines[2].split(",")[:5] == ["nan", "inf", "-inf", "0", "-0"]


@pytest.mark.bitwise
def test_validate_and_action_rows_print_names_and_booleans(tmp_path, capsys):
    path = str(Path(__file__).resolve().parent / "golden" / "sections" / "eds3.ini")
    run(["validate", "--config", path])
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rows and all(r.split(",")[0].isidentifier() and r.split(",")[-1] in ("true", "false") for r in rows)
    run(["action", "--config", write(tmp_path, DET_OVERFLOW.replace("1e200", "1"))])
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert row[-1] in ("true", "false")
    assert row[-2] == format(gd.VARIATION_STEP, ".17g")


def test_shared_parser_keeps_no_state(capsys):
    # main builds its argparse parser once per process; each call must print
    # what the same call prints with a parser of its own
    path = str(Path(__file__).resolve().parent / "golden" / "eds3.ini")
    calls = [
        ["report", "--format", "json"],
        ["report"],
        ["residuals", "--grid", "2,2,2,2"],
        ["residuals"],
        ["residuals", "--tol", "1e-30"],
        ["report", "--bogus"],
        ["report"],
    ]

    def call(args):
        try:
            code = run([*args, "--config", path])
        except SystemExit as exc:  # argparse refuses the unknown option
            code = exc.code
        return (code, *capsys.readouterr())

    alone = []
    for args in calls:
        cli._build_parser.cache_clear()
        alone.append(call(args))
    shared = [call(args) for args in calls]
    assert [c for c, *_ in shared] == [0, 0, 0, 0, 1, 2, 0]
    assert shared == alone
