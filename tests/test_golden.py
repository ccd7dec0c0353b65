"""CLI outputs pinned byte for byte.

Every config under ``golden/`` was run through ``residuals`` and ``report``
in CSV and JSON; each output file and the exit codes (``exit_codes.json``)
sit next to it.  Regenerate with ``PYTHONPATH=src python tests/test_golden.py``
only when a change of output is intended.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from gradedgeo import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(p.stem for p in GOLDEN.glob("*.ini"))
RUNS = [
    (config, command, fmt)
    for config in CONFIGS
    for command in ("residuals", "report")
    for fmt in ("csv", "json")
]


def _run(config: str, command: str, fmt: str, out: Path) -> int:
    args = [command, "--config", str(GOLDEN / f"{config}.ini"), "--format", fmt, "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(args)


@pytest.mark.parametrize("config,command,fmt", RUNS)
def test_output_matches_golden(tmp_path, config, command, fmt):
    name = f"{config}.{command}.{fmt}"
    out = tmp_path / name
    code = _run(config, command, fmt, out)
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    codes = {}
    for config, command, fmt in RUNS:
        name = f"{config}.{command}.{fmt}"
        codes[name] = _run(config, command, fmt, GOLDEN / name)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
