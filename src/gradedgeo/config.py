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


def _number(label: str, raw: str) -> float:
    """A finite float."""
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"{label}: expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{label}: expected a finite number, got {raw!r}")
    return v


def _positive(label: str, raw: str) -> float:
    if (v := _number(label, raw)) <= 0.0:
        raise ConfigError(f"{label}: must be positive, got {v!r}")
    return v


def _nonnegative(label: str, raw: str) -> float:
    if (v := _number(label, raw)) < 0.0:
        raise ConfigError(f"{label}: must be nonnegative, got {v!r}")
    return v


def _integer(lo: int, hi: float = math.inf):
    """Reader of an integer from lo to hi."""

    def read(label: str, raw: str) -> int:
        try:
            v = int(raw)
        except ValueError:
            raise ConfigError(f"{label}: expected an integer, got {raw!r}") from None
        if not lo <= v <= hi:
            raise ConfigError(f"{label}: need an integer from {lo} to {hi!r}, got {raw}")
        return v

    return read


def _one_of(*allowed):
    """Reader of one of ``allowed``, read as their type."""

    def read(label: str, raw: str):
        try:
            v = type(allowed[0])(raw)
        except ValueError:
            v = None
        if v not in allowed:
            raise ConfigError(f"{label}: must be {' or '.join(map(str, allowed))}, got {raw!r}")
        return v

    return read


def _interval(label: str, raw: str) -> tuple[float, float]:
    if len(ends := raw.split(",")) != 2:
        raise ConfigError(f"{label}: expected 2 comma-separated numbers, got {raw!r}")
    return _number(label, ends[0]), _number(label, ends[1])


def _rows(label: str, raw: str) -> tuple[tuple[float, ...], ...]:
    """Points: rows of numbers separated by semicolons."""
    rows = tuple(tuple(_number(label, tok) for tok in row.split()) for row in raw.split(";") if row.strip())
    if not rows:
        raise ConfigError(f"{label}: empty point list")
    return rows


def _text(label: str, raw: str) -> str:
    return raw


_REQUIRED = object()  # the default of a key the section must give
_COORD = "_<coord>"  # a key ending so stands for one key per chart coordinate

# Each section's keys in print order: key -> (reader, default).  A reader turns
# the text of ``[section] key`` into its value, or raises ConfigError naming it
# by its first argument.  A key ``name_<coord>`` is read once per coordinate,
# as ``name_x``, ``name_y``, ..., into the tuple ``name``.
_SECTIONS = {
    "chart": {
        "coords": (lambda label, raw: tuple(tok.strip() for tok in raw.split(",")), _REQUIRED),
        "box_<coord>": (_interval, _REQUIRED),
    },
    "theta": {"expr": (_text, _REQUIRED)},
    "grid": {"counts": (_text, None), "points": (_rows, None)},  # counts are read against the chart
    "tolerances": {"residual_tol": (_positive, 1e-9), "fd_tol": (_positive, 1e-5)},
    "quadrature": {"nodes": (_integer(1), None)},  # None: the default for the chart's dim
    "output": {"path": (lambda label, raw: raw or None, None), "format": (_one_of(*_OUTPUT_FORMATS), "csv")},
    "cosmo": {
        "n": (_integer(2, sys.float_info.max), _REQUIRED),  # the integrator takes n as a float
        "c": (lambda label, raw: None if raw == "eds" else _nonnegative(label, raw), None),  # None: eds
        "t0": (_positive, _REQUIRED),
        **{key: (_number, _REQUIRED) for key in ("a0", "a_dot0", "theta0", "t_end")},
        "step": (_positive, _REQUIRED),
        "einstein_lambda": (lambda label, raw: 0.0 if raw == "ricci-flat" else _number(label, raw), 0.0),
        "theta_sign": (_one_of(1, -1), 1),
    },
    "variation": {
        "kind": (_one_of("bump", "zero"), "bump"),
        "support_<coord>": (_interval, _REQUIRED),
        "seed": (_integer(0), 0),
        "scale": (_nonnegative, 1.0),
    },
}
# the RunConfig field of a key of these sections is the section's prefix + the key
_FIELDS = {"theta": "theta_", "grid": "grid_", "tolerances": "", "quadrature": "quad_", "output": "out_"}


def _read(parser: configparser.ConfigParser, section: str, names=None) -> dict:
    """``section``'s values through its table, by field name, defaults filled in.

    A ``name_<coord>`` key is read for each of ``names``, or of the section's
    own coords.  ConfigError on a missing required key and on any key the
    table does not give.
    """
    given = dict(parser.items(section, raw=True)) if parser.has_section(section) else {}
    values, known = {}, set()
    for key, (reader, default) in _SECTIONS[section].items():
        field = key.removesuffix(_COORD)
        keys = [key] if field == key else [f"{field}_{name}" for name in values.get("coords", names)]
        read = []
        for k in keys:
            if k in given:
                read.append(reader(f"[{section}] {k}", given[k]))
            elif default is _REQUIRED:
                raise ConfigError(f"[{section}] {k}: missing")
            else:
                read.append(default)
        values[field] = read[0] if field == key else tuple(read)
        known.update(keys)
    for key in given:
        if key not in known:
            raise ConfigError(f"[{section}] {key}: unknown key")
    return values


def _grid_counts(label: str, raw: str, dim: int) -> tuple[int, ...]:
    """Per-axis counts from comma-separated text, ``[grid] counts`` or ``--grid`` as ``label``."""
    counts = tuple(_integer(1)(label, tok) for tok in raw.split(","))
    if len(counts) != dim:
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
        if section != "metric" and section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    chart_keys = _read(parser, "chart")
    try:
        chart = ChartSpec(chart_keys["coords"], chart_keys["box"])
    except ValueError as exc:
        raise ConfigError(f"[chart]: {exc}") from None

    trees: dict[str, ef.ScalarField] = {}

    def parse(label: str, text: str) -> None:
        try:
            trees[text] = trees.get(text) or ef.parse_field(text, chart)
        except GradedGeoError as exc:
            raise ConfigError(f"{label}: {exc}") from None

    if not parser.has_section("metric"):
        raise ConfigError("missing [metric] section")
    entries: dict[tuple[int, int], str] = {}
    for key, raw in parser["metric"].items():
        m = _METRIC_KEY.match(key)
        if m is None:
            raise ConfigError(f"[metric] {key}: keys must look like g_i_j")
        i, j = int(m.group(1)), int(m.group(2))
        if key != f"g_{i}_{j}":  # one spelling a component, so that strict parsing refuses a repeat
            raise ConfigError(f"[metric] {key}: write the key as g_{i}_{j}")
        if not (0 <= i <= j < chart.dim):
            raise ConfigError(f"[metric] {key}: indices must satisfy 0 <= i <= j < {chart.dim}")
        parse(f"[metric] {key}", raw)
        entries[(i, j)] = raw
    for i in range(chart.dim):
        if (i, i) not in entries:
            raise ConfigError(f"[metric] g_{i}_{i}: missing diagonal entry")

    fields = {prefix + key: v for section, prefix in _FIELDS.items() for key, v in _read(parser, section).items()}
    parse("[theta] expr", fields["theta_expr"])
    counts, points = fields["grid_counts"], fields["grid_points"]
    if counts is not None and points is not None:
        raise ConfigError("[grid]: give counts or points, not both")
    if counts is not None:
        fields["grid_counts"] = _grid_counts("[grid] counts", counts, chart.dim)
    if points is not None:
        if any(len(p) != chart.dim for p in points):
            raise ConfigError(f"[grid] points: need {chart.dim} coordinates a point")
        try:
            chart.require_points(points)
        except GradedGeoError as exc:
            raise ConfigError(f"[grid] points: {exc}") from None
    if fields["quad_nodes"] is None:
        fields["quad_nodes"] = _default_quad_nodes(chart.dim)

    cosmo = None
    if parser.has_section("cosmo"):
        cs = _read(parser, "cosmo")
        if cs["c"] is None:
            cs["c"] = co.eds_constant(cs["n"])
        cosmo = CosmoParams(**cs)
        if not math.isfinite((cosmo.t_end - cosmo.t0) / cosmo.step):
            raise ConfigError("[cosmo] step: (t_end - t0) / step overflows a float")
        if (states := co.state_count(cosmo.t0, cosmo.t_end, cosmo.step)) < co.MIN_STATES:
            raise ConfigError(f"[cosmo] t_end: {states} integrator states from t0, fewer than {co.MIN_STATES}")
        if states > co.MAX_STATES:
            raise ConfigError(f"[cosmo] step: more than {co.MAX_STATES} integrator states from t0 to t_end")

    variation = None
    if parser.has_section("variation"):
        variation = VariationParams(**_read(parser, "variation", chart.coord_names))
        for name, (lo, hi), (box_lo, box_hi) in zip(chart.coord_names, variation.support, chart.box):
            if not box_lo <= lo < hi <= box_hi:
                raise ConfigError(f"[variation] support_{name}: need {box_lo} <= lo < hi <= {box_hi}, got {lo}, {hi}")
        # the amplitudes are drawn from [-scale, scale), whose width must be a finite float
        if not math.isfinite(2.0 * variation.scale):
            raise ConfigError(f"[variation] scale: 2*scale overflows, got {variation.scale!r}")

    metric_exprs = tuple(sorted(entries.items()))
    return RunConfig(chart=chart, metric_exprs=metric_exprs, cosmo=cosmo, variation=variation, _trees=trees, **fields)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()  # one decode of the whole file, so an error's offset is the file's
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: not UTF-8 at byte {exc.start}") from None
    return parse_config(text)


def _format(v) -> str:
    """Text that a reader reads back as v: floats in 17 significant digits,
    commas between the items of a tuple and semicolons between point rows."""
    if isinstance(v, float):
        return format_float(v)
    if not isinstance(v, tuple):
        return str(v)
    if isinstance(v[0], tuple):
        return "; ".join([" ".join(map(format_float, p)) for p in v])
    return ", ".join(map(_format, v))


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(cfg)) == cfg."""
    sections = {
        "chart": {"coords": cfg.chart.coord_names, "box": cfg.chart.box},
        "metric": {f"g_{i}_{j}": expr for (i, j), expr in cfg.metric_exprs},
        **{sec: {key: getattr(cfg, prefix + key) for key in _SECTIONS[sec]} for sec, prefix in _FIELDS.items()},
        "cosmo": vars(cfg.cosmo) if cfg.cosmo else {},
        "variation": vars(cfg.variation) if cfg.variation else {},
    }
    blocks = []
    for section, values in sections.items():
        lines, table = [f"[{section}]"], _SECTIONS.get(section, ())
        for field, v in values.items():
            if field + _COORD in table:
                lines += [f"{field}_{name} = {_format(x)}" for name, x in zip(cfg.chart.coord_names, v)]
            elif v is not None:
                lines.append(f"{field} = {_format(v)}")
        if len(lines) > 1:  # a section with no values, such as [grid] without counts or points, is left out
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


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
