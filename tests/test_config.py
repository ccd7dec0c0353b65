import dataclasses
import math
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedgeo import cli
from gradedgeo import config as cf
from gradedgeo import exprfield as ef
from gradedgeo import graded as gd
from gradedgeo import riemann as rm
from gradedgeo.errors import ConfigError

FLAT = """\
[chart]
coords = x, y
box_x = -1.0, 1.0
box_y = -1.0, 1.0

[metric]
g_0_0 = 1
g_1_1 = 1

[theta]
expr = x
"""

FULL = """\
[chart]
coords = x, y
box_x = -1.0, 1.0
box_y = -2.0, 2.0

[metric]
g_0_0 = 1 + 0.3*x^2
g_0_1 = 0.1*x*y
g_1_1 = 1 + 0.2*y^2

[theta]
expr = 0.4*y

[grid]
counts = 4, 3

[tolerances]
residual_tol = 1e-8
fd_tol = 2e-5

[quadrature]
nodes = 24

[output]
path = run.csv
format = json

[cosmo]
n = 3
c = eds
t0 = 1.0
a0 = 0.0
a_dot0 = 0.33333333333333331
theta0 = 0.0
t_end = 4.0
step = 0.001
einstein_lambda = ricci-flat
theta_sign = -1

[variation]
kind = bump
support_x = -0.3, 0.3
support_y = -0.4, 0.4
seed = 7
scale = 0.5
"""


def test_documented_grammar_parses():
    # the module docstring carries the full grammar; its example block is a config that loads
    doc = cf.__doc__
    block = doc[doc.index("\n\n", doc.index("Grammar")) + 2 : doc.index("\n\nEvery float")]
    cfg = cf.parse_config(textwrap.dedent(block))
    assert cfg.chart.coord_names == ("x", "y")
    assert dict(cfg.metric_exprs) == {(0, 0): "1", (0, 1): "0.2*x", (1, 1): "1 + y^2"}
    assert len(cf.grid_points(cfg)) == 25
    assert cfg.cosmo.a_dot0 == 1.0 / 3.0 and cfg.cosmo.c == math.sqrt(1.0 / 3.0)
    assert cfg.variation.support == ((-0.3, 0.3), (-0.3, 0.3)) and cfg.out_format == "csv"


def test_parse_minimal():
    cfg = cf.parse_config(FLAT)
    assert cfg.chart.coord_names == ("x", "y")
    assert cfg.chart.box == ((-1.0, 1.0), (-1.0, 1.0))
    assert cfg.metric_exprs == (((0, 0), "1"), ((1, 1), "1"))
    assert cfg.theta_expr == "x"
    assert cfg.grid_counts is None and cfg.grid_points is None
    assert cfg.residual_tol == 1e-9
    assert cfg.fd_tol == 1e-5
    assert cfg.quad_nodes == 32
    assert cfg.out_path is None
    assert cfg.out_format == "csv"
    assert cfg.cosmo is None and cfg.variation is None


def test_parse_full():
    cfg = cf.parse_config(FULL)
    assert cfg.grid_counts == (4, 3)
    assert cfg.residual_tol == 1e-8
    assert cfg.quad_nodes == 24
    assert cfg.out_path == "run.csv"
    assert cfg.out_format == "json"
    cs = cfg.cosmo
    assert cs.n == 3
    assert cs.c == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-15)
    assert cs.einstein_lambda == 0.0
    assert cs.theta_sign == -1
    vs = cfg.variation
    assert vs.kind == "bump"
    assert vs.support == ((-0.3, 0.3), (-0.4, 0.4))
    assert vs.seed == 7 and vs.scale == 0.5


@pytest.mark.parametrize("dim, nodes", [(1, 32), (2, 32), (3, 32), (4, 17), (5, 10), (6, 6), (7, 5), (16, 2), (17, 1)])
def test_default_quadrature_nodes_fit_the_point_bound(dim, nodes):
    # the largest k <= 32 with k**dim <= MAX_POINTS
    names = [f"x{k}" for k in range(dim)]
    text = "\n".join([
        "[chart]",
        "coords = " + ", ".join(names),
        *(f"box_{a} = -1, 1" for a in names),
        "[metric]",
        *(f"g_{k}_{k} = 1" for k in range(dim)),
        "[theta]",
        "expr = 0",
    ]) + "\n"
    assert cf.parse_config(text).quad_nodes == nodes
    assert nodes**dim <= cf.MAX_POINTS < (nodes + 1) ** dim or nodes == 32


def test_round_trip_identity():
    for text in (FLAT, FULL):
        cfg = cf.parse_config(text)
        again = cf.parse_config(cf.serialize_config(cfg))
        assert again == cfg
    pts = FLAT + "\n[grid]\npoints = 0.125 -0.25; 0.5 0.75\n"
    cfg = cf.parse_config(pts)
    assert cfg.grid_points == ((0.125, -0.25), (0.5, 0.75))
    assert cf.parse_config(cf.serialize_config(cfg)) == cfg


def test_config_hash_tracks_content():
    a = cf.parse_config(FLAT)
    b = cf.parse_config(FLAT)
    assert cf.config_hash(a) == cf.config_hash(b)
    c = cf.parse_config(FLAT.replace("expr = x", "expr = y"))
    assert cf.config_hash(a) != cf.config_hash(c)


def test_build_graded_metric():
    gm = cf.build_graded_metric(cf.parse_config(FULL))
    p = (0.2, -0.5)
    g = rm.metric_at(gm.metric, p)[0].components
    assert g[0, 0] == pytest.approx(1 + 0.3 * 0.04, rel=1e-15)
    assert g[0, 1] == g[1, 0] == pytest.approx(0.1 * 0.2 * -0.5, rel=1e-15)
    assert gm.theta(p) == pytest.approx(-0.2, rel=1e-15)


def test_grid_points_counts_order():
    cfg = cf.parse_config(FLAT + "\n[grid]\ncounts = 2, 3\n")
    pts = cf.grid_points(cfg)
    assert len(pts) == 6
    # first axis slowest
    assert pts[0] == (-1.0, -1.0)
    assert pts[1] == (-1.0, 0.0)
    assert pts[3] == (1.0, -1.0)
    single = cf.parse_config(FLAT + "\n[grid]\ncounts = 1, 1\n")
    assert cf.grid_points(single) == [(0.0, 0.0)]
    default = cf.parse_config(FLAT)
    assert len(cf.grid_points(default)) == 9


def test_grid_points_explicit():
    cfg = cf.parse_config(FLAT + "\n[grid]\npoints = 0.1 0.2; -0.3 0.4\n")
    assert cf.grid_points(cfg) == [(0.1, 0.2), (-0.3, 0.4)]


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace("[chart]\ncoords = x, y\n", "[chart]\n"), "coords"),
        (lambda t: t.replace("box_y = -1.0, 1.0\n", ""), "box_y"),
        (lambda t: t.replace("g_0_0 = 1", "g_0_0 = ln(x"), "[metric] g_0_0"),
        (lambda t: t.replace("g_0_0 = 1", "g_2_2 = 1"), "g_2_2"),
        (lambda t: t.replace("g_0_0 = 1", "h_0_0 = 1"), "h_0_0"),
        (lambda t: t.replace("g_0_0 = 1\n", ""), "g_0_0"),
        (lambda t: t.replace("expr = x", "expr = q + 1"), "[theta] expr"),
        (lambda t: t + "\n[grid]\ncounts = 2\n", "counts"),
        (lambda t: t + "\n[grid]\ncounts = 2, 2\npoints = 0 0\n", "not both"),
        (lambda t: t + "\n[grid]\npoints = 5.0 0.0\n", "points"),
        (lambda t: t + "\n[tolerances]\nresidual_tol = -1\n", "positive"),
        (lambda t: t + "\n[quadrature]\nnodes = 0\n", "node"),
        (lambda t: t + "\n[output]\nformat = xml\n", "format"),
        (lambda t: t + "\n[mystery]\nkey = 1\n", "mystery"),
        (lambda t: t.replace("expr = x", "expr = x\nanswer = 42"), "answer"),
        (lambda t: t + "\n[variation]\nkind = spike\n", "kind"),
        (lambda t: t + "\n[variation]\nkind = bump\nsupport_x = -0.3, 0.3\n", "support_y"),
    ],
)
def test_parse_errors(mangle, fragment):
    with pytest.raises(ConfigError) as err:
        cf.parse_config(mangle(FLAT))
    assert fragment in str(err.value)


def test_cosmo_section_errors():
    base = FLAT + "\n[cosmo]\nn = 1\nt0 = 1\na0 = 0\na_dot0 = 0\ntheta0 = 0\nt_end = 2\nstep = 0.1\n"
    with pytest.raises(ConfigError):
        cf.parse_config(base)
    bad_sign = base.replace("n = 1", "n = 3") + "theta_sign = 0\n"
    with pytest.raises(ConfigError):
        cf.parse_config(bad_sign)
    missing = FLAT + "\n[cosmo]\nn = 3\n"
    with pytest.raises(ConfigError):
        cf.parse_config(missing)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        cf.load_config(str(tmp_path / "nope.ini"))


# The fuzz writes a plausible value for every key of [grid], [quadrature],
# [cosmo] and [variation], then makes up to two of them extreme (a negative,
# a zero, a huge or tiny float, an integer past the float range, a
# non-finite or non-numeric token) and may drop a key or a section, so that
# each check is reached with the rest of the config valid.
_EXTREME = st.one_of(
    st.floats().map(repr),
    st.integers(min_value=-(10**400), max_value=10**400).map(str),
    st.sampled_from(["0", "-1", "-0.0", "1e308", "-1e308", "5e-324", "1e400", "inf", "-inf", "nan", "x", ""]),
)


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(repr)


def _interval():
    # an interval inside the box [-1, 1], or one with an extreme end
    lo, hi = _floats(-1.0, -0.1), _floats(0.1, 1.0)
    bad = st.one_of(st.tuples(_EXTREME, hi), st.tuples(lo, _EXTREME), st.tuples(hi, lo))
    return st.tuples(lo, hi).map(", ".join), bad.map(", ".join)


_KEYS = {
    ("grid", "counts"): st.tuples(*[st.integers(1, 4).map(str)] * 2).map(", ".join),
    ("grid", "points"): st.lists(st.tuples(_floats(-1.0, 1.0), _floats(-1.0, 1.0)).map(" ".join), min_size=1, max_size=3).map("; ".join),
    ("quadrature", "nodes"): st.integers(1, 40).map(str),
    ("cosmo", "n"): st.integers(2, 5).map(str),
    ("cosmo", "c"): st.one_of(st.just("eds"), _floats(0.0, 2.0)),
    ("cosmo", "t0"): _floats(0.5, 2.0),
    **{("cosmo", key): _floats(-1.0, 1.0) for key in ("a0", "a_dot0", "theta0")},
    ("cosmo", "t_end"): _floats(2.0, 5.0),
    ("cosmo", "step"): _floats(0.01, 0.5),
    ("cosmo", "einstein_lambda"): st.one_of(st.just("ricci-flat"), _floats(-1.0, 1.0)),
    ("cosmo", "theta_sign"): st.sampled_from(["1", "-1"]),
    ("variation", "kind"): st.sampled_from(["bump", "zero"]),
    ("variation", "seed"): st.integers(0, 100).map(str),
    ("variation", "scale"): _floats(0.0, 2.0),
}
_INTERVALS = {("variation", "support_x"): _interval(), ("variation", "support_y"): _interval()}


@st.composite
def _config_text(draw):
    keys = [*_KEYS, *_INTERVALS]
    values = {key: draw(_KEYS[key] if key in _KEYS else _INTERVALS[key][0]) for key in keys}
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        values[key] = draw(_INTERVALS[key][1] if key in _INTERVALS else _EXTREME)
    # counts or points, unless both are kept to test that refusal
    values.pop(draw(st.sampled_from([("grid", "counts"), ("grid", "points")] * 2 + [None])), None)
    values.pop(draw(st.sampled_from([None] * 3 + keys)), None)
    dropped = draw(st.sampled_from([None] * 3 + ["grid", "quadrature", "cosmo", "variation"]))
    sections = {}
    for (section, key), value in values.items():
        if section != dropped:
            sections.setdefault(section, []).append(f"{key} = {value}\n")
    return FLAT + "".join(f"\n[{section}]\n" + "".join(lines) for section, lines in sections.items())


_VALID = FLAT + """
[cosmo]
n = 3
t0 = 1.0
a0 = 0.0
a_dot0 = 0.3
theta0 = 0.0
t_end = 4.0
step = 0.1

[variation]
support_x = -0.3, 0.3
support_y = -0.3, 0.3
scale = 0.5
"""


@settings(deadline=None, max_examples=100)
@given(text=_config_text())
# each of these escaped as a ValueError or OverflowError
@example(text=_VALID.replace("scale = 0.5", "scale = -0.5"))
@example(text=_VALID.replace("scale = 0.5", "scale = 1e308"))
@example(text=_VALID.replace("n = 3", "n = 1" + "0" * 400))
@example(text=_VALID.replace("step = 0.1", "step = 5e-324"))
@example(text=_VALID.replace("t0 = 1.0", "t0 = 1e308").replace("t_end = 4.0", "t_end = -1e308"))
def test_parse_config_fuzz(text):
    # a config parses or is refused by name: nothing else escapes
    try:
        cfg = cf.parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, cf.RunConfig)


EDS3_GOLDEN = Path(__file__).resolve().parent / "golden" / "eds3.ini"


@pytest.fixture
def parse_calls(monkeypatch):
    """The text of every ef.parse_field call, in order."""
    calls = []

    def counted(src, chart, _original=ef.parse_field):
        calls.append(src)
        return _original(src, chart)

    monkeypatch.setattr(ef, "parse_field", counted)
    return calls


def test_report_parses_each_distinct_field_text_once(parse_calls, capsys):
    assert cli.main(["report", "--config", str(EDS3_GOLDEN)]) == 0
    capsys.readouterr()
    # three t^(2/3) entries, -1 and theta
    assert sorted(parse_calls) == sorted(["t^(2/3)", "-1", "0.5773502691896257*ln(t)"])


def test_build_graded_metric_reads_the_parsed_trees(parse_calls, monkeypatch):
    cfg = cf.load_config(str(EDS3_GOLDEN))
    assert len(parse_calls) == 3
    pow_calls = []
    monkeypatch.setattr(ef, "_pow_frac_coeffs", lambda *a, _f=ef._pow_frac_coeffs: pow_calls.append(a) or _f(*a))
    gm = cf.build_graded_metric(cfg)
    assert len(parse_calls) == 3
    # equal texts share one tree, so one batch evaluates the one t^(2/3) once
    assert gm.metric.component(0, 0).expr is gm.metric.component(1, 1).expr is gm.metric.component(2, 2).expr
    gd.geometry_batch(gm, cf.grid_points(cfg))
    assert len(pow_calls) == 1


def test_parsed_trees_leave_the_config_content_alone():
    cfg = cf.load_config(str(EDS3_GOLDEN))
    assert cf.config_hash(cfg) == "579df93e8320"  # the hash the eds3 goldens print
    assert cf.parse_config(cf.serialize_config(cfg)) == cfg
    bare = cf.RunConfig(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name != "_trees"})
    assert bare == cfg and hash(bare) == hash(cfg) and repr(bare) == repr(cfg)
    assert cf.config_hash(bare) == cf.config_hash(cfg)
    # without trees, or on another chart, build_graded_metric parses the texts itself
    for other in (bare, dataclasses.replace(cfg, chart=ef.ChartSpec(cfg.chart.coord_names, cfg.chart.box))):
        gm = cf.build_graded_metric(other)
        assert gm.metric.component(0, 0).chart is other.chart
        assert gm.theta.expr == cf.build_graded_metric(cfg).theta.expr
