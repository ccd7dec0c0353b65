"""Run configuration: a small INI dialect mapped onto the geometry types.

Grammar (sections in any order, keys as shown; a line starting with ``;``
is a comment, and a comment never follows a value on its line):

    [chart]
    ; comma-separated identifiers, then one interval per coordinate
    coords = x, y
    box_x = -1.0, 1.0
    box_y = -1.0, 1.0

    [metric]
    ; upper triangle; omitted entries are zero
    g_0_0 = 1
    g_0_1 = 0.2*x
    g_1_1 = 1 + y^2

    [theta]
    expr = x

    [grid]
    ; at most one of counts and points; neither means 3 per axis, checked
    ; when report or residuals reads the grid. counts is per axis over the
    ; box, at most 100000 points; points are rows separated by semicolons:
    ; points = 0.1 0.2; -0.3 0.4
    counts = 5, 5

    [tolerances]
    residual_tol = 1e-9
    fd_tol = 1e-5

    [quadrature]
    ; per axis; action needs nodes^dim <= 100000 points, and the default is
    ; the most up to 32 that fits: 32 in dims 1-3, 17 in dim 4, 10 in dim 5,
    ; 6 in dim 6
    nodes = 32

    [output]
    path = out.csv
    ; csv | json
    format = csv

    [cosmo]
    ; scale-factor integration parameters; c is a number >= 0, or "eds" for
    ; sqrt((n-1)/(2n)); t0 > 0; t0 to t_end spans at least five integrator
    ; states, and step > 0 gives at most 100000 of them
    n = 3
    c = eds
    t0 = 1.0
    a0 = 0.0
    a_dot0 = 0.33333333333333331
    theta0 = 0.0
    t_end = 4.0
    step = 1e-3
    einstein_lambda = ricci-flat
    theta_sign = 1

    [variation]
    ; action-variation parameters: kind is bump | zero; one support interval
    ; per coordinate, inside the box; seed >= 0; scale >= 0, with 2*scale finite
    kind = bump
    support_x = -0.3, 0.3
    support_y = -0.3, 0.3
    seed = 7
    scale = 1.0

Every float is printed back with 17 significant digits, so serialize and
parse round-trip exactly.

Each distinct field text is parsed once per config: equal ``g_i_j`` and
``theta`` texts share one tree, which a jet sweep then evaluates once.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import math
import re
import sys
from dataclasses import dataclass

from . import cosmo as co
from . import exprfield as ef
from . import graded as gd
from . import riemann as rm
from .errors import ConfigError, GradedGeoError
from .exprfield import ChartSpec

__all__ = [
    "CosmoParams",
    "RunConfig",
    "VariationParams",
    "build_graded_metric",
    "check_point_count",
    "config_hash",
    "format_float",
    "grid_points",
    "load_config",
    "parse_config",
    "serialize_config",
]

_METRIC_KEY = re.compile(r"^g_(\d+)_(\d+)$")
MAX_POINTS = 10**5  # the most grid or quadrature points a run may ask for; a grid run keeps every point's results
_DEFAULT_GRID_COUNT = 3  # points per axis when [grid] gives neither counts nor points
_OUTPUT_FORMATS = ("csv", "json")

_KNOWN_KEYS = {
    "chart": {"coords"},
    "metric": None,
    "theta": {"expr"},
    "grid": {"counts", "points"},
    "tolerances": {"residual_tol", "fd_tol"},
    "quadrature": {"nodes"},
    "output": {"path", "format"},
    "cosmo": {
        "n", "c", "t0", "a0", "a_dot0", "theta0",
        "t_end", "step", "einstein_lambda", "theta_sign",
    },
    "variation": {"kind", "seed", "scale"},
}


def format_float(x: float) -> str:
    """17 significant digits: every double reads back exactly."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class CosmoParams:
    n: int
    c: float
    t0: float
    a0: float
    a_dot0: float
    theta0: float
    t_end: float
    step: float
    einstein_lambda: float
    theta_sign: int


@dataclass(frozen=True)
class VariationParams:
    kind: str
    support: tuple[tuple[float, float], ...]
    seed: int
    scale: float


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs, decoupled from where it came from."""

    chart: ChartSpec
    metric_exprs: tuple[tuple[tuple[int, int], str], ...]
    theta_expr: str
    grid_counts: tuple[int, ...] | None
    grid_points: tuple[tuple[float, ...], ...] | None
    residual_tol: float
    fd_tol: float
    quad_nodes: int
    out_path: str | None
    out_format: str
    cosmo: CosmoParams | None
    variation: VariationParams | None
    # parse_config's tree of each distinct field text, for build_graded_metric; not part of the content
    _trees: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)


def _cfg_error(section: str, key: str, message: str) -> ConfigError:
    return ConfigError(f"[{section}] {key}: {message}")


def _floats(section: str, key: str, raw: str, count: int | None = None) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise _cfg_error(section, key, f"expected comma-separated numbers, got {raw!r}") from None
    if count is not None and len(vals) != count:
        raise _cfg_error(section, key, f"expected {count} numbers, got {len(vals)}")
    return vals


def _float(section: str, key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise _cfg_error(section, key, f"expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise _cfg_error(section, key, f"expected a finite number, got {raw!r}")
    return v


def _int(label: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{label}: expected an integer, got {raw!r}") from None


def _grid_counts(label: str, raw: str, dim: int) -> tuple[int, ...]:
    """Per-axis counts from comma-separated text, ``[grid] counts`` or ``--grid`` as ``label``."""
    counts = tuple(_int(label, tok) for tok in raw.split(","))
    if len(counts) != dim or any(c < 1 for c in counts):
        raise ConfigError(f"{label}: need {dim} positive counts")
    check_point_count(label, counts)
    return counts


def _default_quad_nodes(dim: int) -> int:
    """Gauss-Legendre nodes per axis when [quadrature] gives none: the largest
    k <= 32 with k**dim <= MAX_POINTS, in integers."""
    k = 32
    while k**dim > MAX_POINTS:
        k -= 1
    return k


def check_point_count(key: str, counts) -> None:
    """Raise ConfigError naming ``key`` when a grid of ``counts`` per axis exceeds MAX_POINTS."""
    if math.prod(counts) > MAX_POINTS:
        raise ConfigError(f"{key}: {' x '.join(map(str, counts))} points, more than {MAX_POINTS}")


def parse_config(text: str) -> RunConfig:
    """Parse the INI dialect; every complaint carries its section and key."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        allowed = _KNOWN_KEYS[section]
        if allowed is None:
            continue
        extra = None
        if section == "chart":
            extra = {k for k in parser[section] if k.startswith("box_")}
        elif section == "variation":
            extra = {k for k in parser[section] if k.startswith("support_")}
        for key in parser[section]:
            if key not in allowed and (extra is None or key not in extra):
                raise _cfg_error(section, key, "unknown key")

    if not parser.has_section("chart"):
        raise ConfigError("missing [chart] section")
    chart_sec = parser["chart"]
    if "coords" not in chart_sec:
        raise _cfg_error("chart", "coords", "missing")
    names = tuple(tok.strip() for tok in chart_sec["coords"].split(","))
    box = []
    for name in names:
        key = f"box_{name}"
        if key not in chart_sec:
            raise _cfg_error("chart", key, "missing interval for coordinate")
        lo, hi = _floats("chart", key, chart_sec[key], 2)
        box.append((lo, hi))
    try:
        chart = ChartSpec(names, tuple(box))
    except ValueError as exc:
        raise ConfigError(f"[chart]: {exc}") from None

    trees: dict[str, ef.ScalarField] = {}

    def parse(section: str, key: str, text: str) -> None:
        try:
            trees[text] = trees.get(text) or ef.parse_field(text, chart)
        except GradedGeoError as exc:
            raise _cfg_error(section, key, str(exc)) from None

    if not parser.has_section("metric"):
        raise ConfigError("missing [metric] section")
    entries: dict[tuple[int, int], str] = {}
    for key, raw in parser["metric"].items():
        m = _METRIC_KEY.match(key)
        if m is None:
            raise _cfg_error("metric", key, "keys must look like g_i_j")
        i, j = int(m.group(1)), int(m.group(2))
        if not (0 <= i <= j < chart.dim):
            raise _cfg_error("metric", key, f"indices must satisfy 0 <= i <= j < {chart.dim}")
        parse("metric", key, raw)
        entries[(i, j)] = raw
    for i in range(chart.dim):
        if (i, i) not in entries:
            raise _cfg_error("metric", f"g_{i}_{i}", "missing diagonal entry")

    if not parser.has_section("theta") or "expr" not in parser["theta"]:
        raise ConfigError("missing [theta] expr")
    theta_expr = parser["theta"]["expr"]
    parse("theta", "expr", theta_expr)

    counts = None
    points = None
    if parser.has_section("grid"):
        grid = parser["grid"]
        if "counts" in grid and "points" in grid:
            raise ConfigError("[grid]: give counts or points, not both")
        if "counts" in grid:
            counts = _grid_counts("[grid] counts", grid["counts"], chart.dim)
        if "points" in grid:
            rows = [row for row in grid["points"].split(";") if row.strip()]
            parsed = []
            for row in rows:
                vals = tuple(_float("grid", "points", tok) for tok in row.split())
                if len(vals) != chart.dim:
                    raise _cfg_error("grid", "points", f"point {row.strip()!r} has wrong arity")
                parsed.append(vals)
            if not parsed:
                raise _cfg_error("grid", "points", "empty point list")
            try:
                chart.require_points(parsed)
            except GradedGeoError as exc:
                raise _cfg_error("grid", "points", str(exc)) from None
            points = tuple(parsed)

    residual_tol = 1e-9
    fd_tol = 1e-5
    if parser.has_section("tolerances"):
        tol = parser["tolerances"]
        if "residual_tol" in tol:
            residual_tol = _float("tolerances", "residual_tol", tol["residual_tol"])
        if "fd_tol" in tol:
            fd_tol = _float("tolerances", "fd_tol", tol["fd_tol"])
        if residual_tol <= 0 or fd_tol <= 0:
            raise ConfigError("[tolerances]: tolerances must be positive")

    quad_nodes = _default_quad_nodes(chart.dim)
    if parser.has_section("quadrature") and "nodes" in parser["quadrature"]:
        quad_nodes = _int("[quadrature] nodes", parser["quadrature"]["nodes"])
        if quad_nodes < 1:
            raise _cfg_error("quadrature", "nodes", "need at least one node")

    out_path = None
    out_format = "csv"
    if parser.has_section("output"):
        out = parser["output"]
        out_path = out.get("path") or None
        out_format = out.get("format", "csv")
        if out_format not in _OUTPUT_FORMATS:
            raise _cfg_error("output", "format", f"must be csv or json, got {out_format!r}")

    cosmo = None
    if parser.has_section("cosmo"):
        sec = parser["cosmo"]
        for key in ("n", "t0", "a0", "a_dot0", "theta0", "t_end", "step"):
            if key not in sec:
                raise _cfg_error("cosmo", key, "missing")
        n = _int("[cosmo] n", sec["n"])
        if not 2 <= n <= sys.float_info.max:  # the integrator takes n as a float
            raise _cfg_error("cosmo", "n", f"need 2 <= n <= {sys.float_info.max!r}")
        raw_c = sec.get("c", "eds")
        c = math.sqrt((n - 1) / (2.0 * n)) if raw_c == "eds" else _float("cosmo", "c", raw_c)
        raw_lam = sec.get("einstein_lambda", "ricci-flat")
        lam = 0.0 if raw_lam == "ricci-flat" else _float("cosmo", "einstein_lambda", raw_lam)
        sign = _int("[cosmo] theta_sign", sec.get("theta_sign", "1"))
        if sign not in (1, -1):
            raise _cfg_error("cosmo", "theta_sign", "must be 1 or -1")
        cosmo = CosmoParams(
            n=n,
            c=c,
            t0=_float("cosmo", "t0", sec["t0"]),
            a0=_float("cosmo", "a0", sec["a0"]),
            a_dot0=_float("cosmo", "a_dot0", sec["a_dot0"]),
            theta0=_float("cosmo", "theta0", sec["theta0"]),
            t_end=_float("cosmo", "t_end", sec["t_end"]),
            step=_float("cosmo", "step", sec["step"]),
            einstein_lambda=lam,
            theta_sign=sign,
        )
        if c < 0.0:
            raise _cfg_error("cosmo", "c", f"must be nonnegative, got {c!r}")
        if cosmo.t0 <= 0.0:
            raise _cfg_error("cosmo", "t0", f"must be positive, got {cosmo.t0!r}")
        if cosmo.step <= 0.0:
            raise _cfg_error("cosmo", "step", f"must be positive, got {cosmo.step!r}")
        if not math.isfinite((cosmo.t_end - cosmo.t0) / cosmo.step):
            raise _cfg_error("cosmo", "step", "(t_end - t0) / step overflows a float")
        if (states := co.state_count(cosmo.t0, cosmo.t_end, cosmo.step)) < co.MIN_STATES:
            raise _cfg_error("cosmo", "t_end", f"{states} integrator states from t0, fewer than {co.MIN_STATES}")
        if states > co.MAX_STATES:
            raise _cfg_error("cosmo", "step", f"more than {co.MAX_STATES} integrator states from t0 to t_end")

    variation = None
    if parser.has_section("variation"):
        sec = parser["variation"]
        kind = sec.get("kind", "bump")
        if kind not in ("bump", "zero"):
            raise _cfg_error("variation", "kind", f"must be bump or zero, got {kind!r}")
        support = []
        for name in chart.coord_names:
            key = f"support_{name}"
            if key not in sec:
                raise _cfg_error("variation", key, "missing interval for coordinate")
            lo, hi = _floats("variation", key, sec[key], 2)
            if not lo < hi:
                raise _cfg_error("variation", key, "empty interval")
            box_lo, box_hi = chart.box[chart.axis(name)]
            if not box_lo <= lo < hi <= box_hi:
                raise _cfg_error("variation", key, f"interval must sit inside the chart box [{box_lo}, {box_hi}]")
            support.append((lo, hi))
        variation = VariationParams(
            kind=kind,
            support=tuple(support),
            seed=_int("[variation] seed", sec.get("seed", "0")),
            scale=_float("variation", "scale", sec.get("scale", "1.0")),
        )
        if variation.seed < 0:
            raise _cfg_error("variation", "seed", f"must be nonnegative, got {variation.seed}")
        # the amplitudes are drawn from [-scale, scale), whose width must be a finite float
        if not (variation.scale >= 0.0 and math.isfinite(2.0 * variation.scale)):
            raise _cfg_error("variation", "scale", f"must be nonnegative with 2*scale finite, got {variation.scale!r}")

    return RunConfig(
        chart=chart,
        metric_exprs=tuple(sorted(entries.items())),
        theta_expr=theta_expr,
        grid_counts=counts,
        grid_points=points,
        residual_tol=residual_tol,
        fd_tol=fd_tol,
        quad_nodes=quad_nodes,
        out_path=out_path,
        out_format=out_format,
        cosmo=cosmo,
        variation=variation,
        _trees=trees,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(cfg)) == cfg."""
    out = io.StringIO()
    w = out.write
    w("[chart]\n")
    w(f"coords = {', '.join(cfg.chart.coord_names)}\n")
    for name, (lo, hi) in zip(cfg.chart.coord_names, cfg.chart.box):
        w(f"box_{name} = {format_float(lo)}, {format_float(hi)}\n")
    w("\n[metric]\n")
    for (i, j), expr in cfg.metric_exprs:
        w(f"g_{i}_{j} = {expr}\n")
    w("\n[theta]\n")
    w(f"expr = {cfg.theta_expr}\n")
    if cfg.grid_counts is not None or cfg.grid_points is not None:
        w("\n[grid]\n")
        if cfg.grid_counts is not None:
            w(f"counts = {', '.join(str(c) for c in cfg.grid_counts)}\n")
        if cfg.grid_points is not None:
            rows = "; ".join(" ".join(format_float(x) for x in p) for p in cfg.grid_points)
            w(f"points = {rows}\n")
    w("\n[tolerances]\n")
    w(f"residual_tol = {format_float(cfg.residual_tol)}\n")
    w(f"fd_tol = {format_float(cfg.fd_tol)}\n")
    w("\n[quadrature]\n")
    w(f"nodes = {cfg.quad_nodes}\n")
    w("\n[output]\n")
    if cfg.out_path is not None:
        w(f"path = {cfg.out_path}\n")
    w(f"format = {cfg.out_format}\n")
    if cfg.cosmo is not None:
        w("\n[cosmo]\n")
        for f in dataclasses.fields(CosmoParams):
            v = getattr(cfg.cosmo, f.name)
            w(f"{f.name} = {v if isinstance(v, int) else format_float(v)}\n")
    if cfg.variation is not None:
        vs = cfg.variation
        w("\n[variation]\n")
        w(f"kind = {vs.kind}\n")
        for name, (lo, hi) in zip(cfg.chart.coord_names, vs.support):
            w(f"support_{name} = {format_float(lo)}, {format_float(hi)}\n")
        w(f"seed = {vs.seed}\n")
        w(f"scale = {format_float(vs.scale)}\n")
    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    """Digest of the run content; where the output goes does not count."""
    canonical = dataclasses.replace(cfg, out_path=None, out_format="csv")
    return hashlib.sha256(serialize_config(canonical).encode()).hexdigest()[:12]


def build_graded_metric(cfg: RunConfig) -> gd.GradedMetric:
    """The graded metric of cfg's fields, on the trees parse_config kept where it has them."""

    def field(text: str) -> ef.ScalarField:
        f = cfg._trees.get(text)
        return f if f is not None and f.chart is cfg.chart else ef.parse_field(text, cfg.chart)

    n = cfg.chart.dim
    zero = ef.constant(cfg.chart, 0.0)
    rows = [[zero] * n for _ in range(n)]
    for (i, j), expr in cfg.metric_exprs:
        rows[i][j] = rows[j][i] = field(expr)
    metric = rm.MetricSpec(cfg.chart, rows)
    return gd.GradedMetric(metric, field(cfg.theta_expr))


def grid_points(cfg: RunConfig) -> list[tuple[float, ...]]:
    """Evaluation points in grid order (first axis slowest)."""
    if cfg.grid_points is not None:
        return list(cfg.grid_points)
    counts = cfg.grid_counts or (_DEFAULT_GRID_COUNT,) * cfg.chart.dim
    axes = []
    for count, (lo, hi) in zip(counts, cfg.chart.box):
        if count == 1:
            axes.append([0.5 * (lo + hi)])
        else:
            step = (hi - lo) / (count - 1)
            axes.append([lo + k * step for k in range(count)])
    pts: list[tuple[float, ...]] = [()]
    for axis in axes:
        pts = [p + (x,) for p in pts for x in axis]
    return pts
