"""The Gauss-Legendre rule: exact-arithmetic accuracy, symmetry, determinism,
an action path that calls no LAPACK routine, and QuadSpec's refusals."""

import json
import math
import os
import platform
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gradedgeo
from gradedgeo import exprfield as ef
from gradedgeo import quadrature as qd
from gradedgeo.errors import ConfigError

EPS = float(np.finfo(float).eps)
SECTIONS = Path(__file__).resolve().parent / "golden" / "sections"
RULE_SIZES = range(1, 65)


def _legendre_exact(n: int, x: float) -> Fraction:
    """P_n(x) in exact rational arithmetic. With x = a/b, the recurrence
    j P_j = (2j-1) x P_{j-1} - (j-1) P_{j-2} runs on the integers r_j = j! b^j P_j:
    r_j = (2j-1) a r_{j-1} - (j-1)^2 b^2 r_{j-2}."""
    a, b = Fraction(x).as_integer_ratio()
    r0, r1 = 1, a
    for j in range(2, n + 1):
        r0, r1 = r1, (2 * j - 1) * a * r1 - (j - 1) ** 2 * b * b * r0
    return Fraction(r1, math.factorial(n) * b**n)


def _step(x: float, toward: float, ulps: int) -> float:
    for _ in range(ulps):
        x = float(np.nextafter(x, toward))
    return x


@pytest.mark.parametrize("n", RULE_SIZES)
def test_nodes_bracket_the_roots_within_two_ulps(n):
    # P_n changes sign, or vanishes, between the doubles 2 ulps either side of each node
    nodes, _ = qd._leggauss(n)
    assert len(nodes) == n and np.all(np.diff(nodes) > 0)
    for x in nodes.tolist():
        lo = _legendre_exact(n, _step(x, -2.0, 2))
        hi = _legendre_exact(n, _step(x, 2.0, 2))
        assert lo * hi <= 0, (n, x)


def _dyadic(x: float) -> tuple[int, int]:
    """(num, e) with x = num * 2**e exactly."""
    num, den = x.as_integer_ratio()
    return num, 1 - den.bit_length()


@pytest.mark.parametrize("n", RULE_SIZES)
def test_rule_integrates_even_monomials(n):
    # the rule is exact for degree <= 2n - 1, so sum w x^(2m) = 2/(2m+1) for m < n.
    # The sums are taken exactly, so the gap is the rule's own rounding: the weights
    # come from P_n' through an n-step recurrence, within a few eps per step, and
    # sum to 2; the nodes are within 2 ulps (the test above). Bound: 4 n eps
    nodes, weights = qd._leggauss(n)
    terms = [_dyadic(w) for w in weights.tolist()]  # w x^(2m), from m = 0
    squares = [(num * num, 2 * e) for num, e in map(_dyadic, nodes.tolist())]
    for m in range(n):
        low = min(e for _, e in terms)
        total = Fraction(sum(num << (e - low) for num, e in terms)) * Fraction(2) ** low
        assert abs(total - Fraction(2, 2 * m + 1)) <= 4 * n * Fraction(EPS), (n, m)
        terms = [(tn * sn, te + se) for (tn, te), (sn, se) in zip(terms, squares)]


@pytest.mark.parametrize("n", RULE_SIZES)
def test_rule_is_exactly_symmetric(n):
    nodes, weights = qd._leggauss(n)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert np.all(weights > 0)
    if n % 2:
        middle = nodes[n // 2]
        assert middle == 0.0 and not np.signbit(middle)


# prints the bytes of _leggauss(n) for each n of argv[1], one hex line per array
_RULE_CHILD = """
import json, sys
from gradedgeo import quadrature as qd
for n in json.loads(sys.argv[1]):
    for arr in qd._leggauss(n):
        print(arr.tobytes().hex())
"""


@pytest.mark.bitwise
@pytest.mark.skipif(
    sys.platform != "linux" or platform.machine() != "x86_64", reason="CPU feature and OpenBLAS core names are x86-64's"
)
def test_rule_bits_do_not_depend_on_simd_dispatch():
    # the rule is np.cos once, then + - * / only: a child with numpy's AVX-512 loops
    # off and OpenBLAS on its Prescott kernels builds the same bytes
    sizes = list(RULE_SIZES)
    here = [arr.tobytes().hex() for n in sizes for arr in qd._leggauss(n)]
    src = str(Path(gradedgeo.__file__).resolve().parent.parent)
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
        "OPENBLAS_CORETYPE": "Prescott",
        "PYTHONPATH": src,
    }
    done = subprocess.run(
        [sys.executable, "-c", _RULE_CHILD, json.dumps(sizes)], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == here


# runs `gradedgeo action` on argv[1] with every public numpy.linalg function
# wrapped to count its calls, and prints the counts, the exit code and whether
# the run imported numpy.polynomial
_GUARD_CHILD = """
import contextlib, io, json, sys
import numpy as np
calls = {}
def counted(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper
for name in np.linalg.__all__:
    fn = getattr(np.linalg, name)
    if callable(fn) and not isinstance(fn, type):
        setattr(np.linalg, name, counted(name, fn))
before = "numpy.polynomial" in sys.modules
from gradedgeo import cli
with contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(["action", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "calls": calls, "polynomial": "numpy.polynomial" in sys.modules and not before}))
"""


def test_action_calls_no_lapack_routine(tmp_path):
    src = str(Path(gradedgeo.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _GUARD_CHILD, str(SECTIONS / "eds3.ini"), str(tmp_path / "eds3.action.csv")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    code = json.loads((SECTIONS / "exit_codes.json").read_text())["eds3.action.csv"]
    assert json.loads(done.stdout) == {"code": code, "calls": {}, "polynomial": False}


# x spans 2 and y 4, so the chart box's relative slack is 2e-12 on x and 4e-12 on y
SLACK_CHART = ef.ChartSpec(("x", "y"), ((-1.0, 1.0), (0.0, 4.0)))


@pytest.mark.parametrize(
    "nodes, box, refusal",
    [
        (0, None, "at least one node per axis"),
        (4, ((-1.0, 1.0),), "quadrature box has 1 axes, chart has 2"),
        (4, ((-1.0, 1.0), (0.0, 4.0), (0.0, 1.0)), "quadrature box has 3 axes, chart has 2"),
        (4, ((0.5, 0.5), (0.0, 4.0)), "empty quadrature range for x: [0.5, 0.5]"),
        (4, ((-1.0, 1.0), (3.0, 1.0)), "empty quadrature range for y"),
        (4, ((-1.0, 1.0 + 2.5e-12), (0.0, 4.0)), "for x leaves the chart box"),
        (4, ((-1.0, 1.0), (-5e-12, 4.0)), "for y leaves the chart box"),
        (4, ((-1.0 - 1.5e-12, 1.0 + 1.5e-12), (-3.5e-12, 4.0 + 3.5e-12)), None),
        (1, None, None),
    ],
    ids=["zero-nodes", "too-few-axes", "too-many-axes", "empty-range", "reversed-range",
         "past-hi", "past-lo", "inside-slack", "chart-box"],
)
def test_quad_spec_refusals(nodes, box, refusal):
    # a refused spec raises ConfigError (exit 2); an accepted one resolves to its own box
    if refusal is None:
        assert qd.QuadSpec(nodes, box).resolve_box(SLACK_CHART) == (SLACK_CHART.box if box is None else box)
        return
    with pytest.raises(ConfigError, match=re.escape(refusal)):
        qd.QuadSpec(nodes, box).resolve_box(SLACK_CHART)
