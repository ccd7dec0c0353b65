"""CLI outputs pinned byte for byte.

Every config under ``golden/`` was run through ``residuals`` and ``report``,
and every config under ``golden/sections/`` (the same geometries with
``[cosmo]``, ``[variation]`` and ``[quadrature]`` sections) through
``validate``, ``cosmo`` and ``action``, in CSV and JSON; each output file and
the exit codes (``exit_codes.json``) sit next to the config.  Regenerate with
``PYTHONPATH=src python tests/test_golden.py`` only when a change of output
is intended.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from gradedgeo import cli
from gradedgeo import config as cf
from gradedgeo import cosmo as co

pytestmark = pytest.mark.bitwise

GOLDEN = Path(__file__).resolve().parent / "golden"
SECTIONS = GOLDEN / "sections"
# directory -> the commands run on each of its configs
SUITES = {GOLDEN: ("residuals", "report"), SECTIONS: ("validate", "cosmo", "action")}
RUNS = [
    (directory, config.stem, command, fmt)
    for directory, commands in SUITES.items()
    for config in sorted(directory.glob("*.ini"))
    for command in commands
    for fmt in ("csv", "json")
]


def _run(directory: Path, config: str, command: str, fmt: str, out: Path) -> int:
    args = [command, "--config", str(directory / f"{config}.ini"), "--format", fmt, "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(args)


@pytest.mark.parametrize(
    "directory,config,command,fmt", RUNS, ids=[f"{c}-{cmd}-{fmt}" for _, c, cmd, fmt in RUNS]
)
def test_output_matches_golden(tmp_path, directory, config, command, fmt):
    name = f"{config}.{command}.{fmt}"
    out = tmp_path / name
    code = _run(directory, config, command, fmt, out)
    assert code == json.loads((directory / "exit_codes.json").read_text())[name]
    assert out.read_bytes() == (directory / name).read_bytes()


def test_trajectory_csv_format(tmp_path):
    config = "eds3"
    cs = cf.load_config(str(SECTIONS / f"{config}.ini")).cosmo
    traj = co.integrate_scale_factor(
        co.OdeState(cs.t0, cs.a0, cs.a_dot0, cs.theta0), cs.c, cs.einstein_lambda, cs.t_end, cs.step,
        n=cs.n, theta_sign=cs.theta_sign,
    )
    lines = (SECTIONS / f"{config}.cosmo.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "t,a,a_dot,theta,eq41_residual,eq42_residual"
    assert len(lines) == len(traj) + 2
    cells = lines[2].split(",")
    assert float(cells[0]) == traj.t[0]
    assert float(cells[2]) == traj.a_dot[0]
    # byte-identical on repeat
    reruns = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for out in reruns:
        assert _run(SECTIONS, config, "cosmo", "csv", out) == 0
    assert reruns[0].read_bytes() == reruns[1].read_bytes()


if __name__ == "__main__":
    for directory in SUITES:
        codes = {}
        for where, config, command, fmt in RUNS:
            if where == directory:
                name = f"{config}.{command}.{fmt}"
                codes[name] = _run(directory, config, command, fmt, directory / name)
        (directory / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
