"""Output bytes that do not depend on the OpenBLAS kernel, at every dimension.

The metric is inverted by cofactors at every n and every contraction is an
einsum, whose default ``optimize=False`` calls no BLAS routine, so no BLAS or
LAPACK routine reaches an output.  Each test writes the same outputs in this
process, on whatever kernel OpenBLAS chose, and in a child process on a named
kernel, and compares their bytes.  Both runs use this process's numpy, so
numpy's own SIMD dispatch is the same on both sides.
"""

import contextlib
import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradedgeo
from gradedgeo import cli
from gradedgeo import graded as gd
from gradedgeo import riemann as rm
from gradedgeo import validate as vd
from gradedgeo.randgen import default_chart, random_graded_metric, random_interior_point

pytestmark = [
    pytest.mark.bitwise,
    pytest.mark.skipif(
        sys.platform != "linux" or platform.machine() != "x86_64", reason="OpenBLAS core types are x86-64 names"
    ),
]

TESTS = Path(__file__).resolve().parent
COORDS6 = ("x", "y", "z", "w", "v", "t")
RANDOM_METRICS = 42  # a third each in dims 2, 3 and 4, every entry a polynomial perturbation


def _poly6() -> str:
    """A dim-6 Lorentzian config whose g_ij, none of them zero, and theta are polynomials."""
    lines = ["[chart]", "coords = " + ", ".join(COORDS6), *(f"box_{c} = -0.4, 0.4" for c in COORDS6), "", "[metric]"]
    for i in range(6):
        for j in range(i, 6):
            lead = ("-1" if i == 5 else "1") if i == j else "0.03"
            lines.append(f"g_{i}_{j} = {lead} + 0.0{i + 1}*{COORDS6[j]} - 0.0{j + 1}*{COORDS6[i]}*{COORDS6[(i + j) % 6]}")
    lines += ["", "[theta]", "expr = 0.1*x - 0.2*t + 0.3*y*z", "", "[grid]"]
    lines.append("points = 0.1 -0.2 0.3 0 0.2 0.1; -0.3 0.1 0 0.2 -0.1 0.25")
    return "\n".join(lines) + "\n"


def _write_outputs(out: Path) -> None:
    """Into the directory ``out``: residuals, report and validate, in CSV and JSON, on the
    dim-5 golden and the dim-6 config; then, for each random graded metric, the check
    results of run_geometry_checks, gradient_at of theta and graded_hessian_at of theta."""
    (out / "poly6.ini").write_text(_poly6())
    for config in (TESTS / "golden" / "poly5.ini", out / "poly6.ini"):
        for command in ("residuals", "report", "validate"):
            for fmt in ("csv", "json"):
                args = [command, "--config", str(config), "--format", fmt]
                with contextlib.redirect_stderr(io.StringIO()):
                    cli.main(args + ["--out", str(out / f"{config.stem}.{command}.{fmt}")])
    for k in range(RANDOM_METRICS):
        n = 2 + k % 3
        rng = np.random.default_rng(k)
        chart = default_chart(n)
        gm = random_graded_metric(rng, chart, (-1,) + (1,) * (n - 1) if k % 2 else None)
        p = random_interior_point(rng, chart)
        hes = gd.graded_hessian_at(gm, gm.theta, p)
        results = {
            "checks": [c.max_error for c in vd.run_geometry_checks(gm, seed=k)],
            "gradient": rm.gradient_at(gm.metric, gm.theta, p).components,
            "graded_hessian": [*hes.even.components.ravel(), hes.odd],
        }
        for name, values in results.items():
            (out / f"random{k}.{name}").write_bytes(np.asarray(values, dtype=float).tobytes())


@pytest.fixture(scope="module")
def here(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("here")
    _write_outputs(out)
    return out


_CHILD = "import sys, pathlib, test_kernels; test_kernels._write_outputs(pathlib.Path(sys.argv[1]))"


@pytest.mark.parametrize("kernel", ["Prescott", "Haswell"])
def test_outputs_do_not_depend_on_the_openblas_kernel_at_any_dimension(here, tmp_path, kernel):
    # Prescott (SSE3) runs on any x86-64 and Haswell needs AVX2. Each catches a BLAS
    # route the other misses: on these metrics, a matrix-vector product changes its
    # bits under Prescott only, and vector-matrix-vector chains under both
    src = str(Path(gradedgeo.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": os.pathsep.join([src, str(TESTS)])}
    subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path)], env=env, check=True)
    names = sorted(path.name for path in here.iterdir())
    assert names == sorted(path.name for path in tmp_path.iterdir())
    assert len(names) == 1 + 2 * 3 * 2 + 3 * RANDOM_METRICS
    assert [name for name in names if (here / name).read_bytes() != (tmp_path / name).read_bytes()] == []
