"""SVG chart rendering."""

import hashlib
import json
import math
import sys
import xml.etree.ElementTree as ET

import pytest

from ngg.cli import main
from ngg.errors import InvalidParamError
from ngg.plotting import render_line_chart

from conftest import run_capped


def parse(svg: str):
    return ET.fromstring(svg)


def elements(root, local):
    return [el for el in root.iter() if el.tag.split("}")[-1] == local]


def test_one_path_per_series_and_desc():
    svg = render_line_chart(
        [("a", [1, 2, 3], [5.0, 2.0, 4.0]), ("b", [1, 2, 3], [1.0, 1.5, 2.0])],
        title="demo", xlabel="x", ylabel="y", desc="kind=test;series=2")
    root = parse(svg)
    assert len(elements(root, "path")) == 2
    assert elements(root, "desc")[0].text == "kind=test;series=2"
    texts = [t.text for t in elements(root, "text")]
    assert "demo" in texts and "a" in texts and "b" in texts


def test_log_scale_uses_decade_ticks():
    svg = render_line_chart([("s", [0, 1, 2], [5.0, 50.0, 500.0])],
                            ylabel="v", log_y=True)
    texts = [t.text for t in elements(parse(svg), "text")]
    assert "10" in texts and "100" in texts


def test_single_point_series_renders():
    svg = render_line_chart([("s", [1.0], [3.0])])
    assert len(elements(parse(svg), "path")) == 1


@pytest.mark.parametrize("series", [
    [],
    [("s", [1, 2], [1.0])],
    [("s", [], [])],
])
def test_bad_series_rejected(series):
    with pytest.raises(InvalidParamError):
        render_line_chart(series)


def test_log_scale_rejects_nonpositive():
    with pytest.raises(InvalidParamError):
        render_line_chart([("s", [1, 2], [1.0, 0.0])], log_y=True)


@pytest.mark.parametrize("ys", [[5e-324, 1.0], [1e-323, 1.0], [1.0, 1.7e308]])
def test_log_scale_past_the_float_decades_rejected(ys):
    # a decade tick below 1e-323 underflows to 0, one above 1e308 overflows
    with pytest.raises(InvalidParamError, match=r"\(1e-323, 1e308\]"):
        render_line_chart([("s", [1, 2], ys)], log_y=True)


def test_log_scale_at_the_float_decade_edges_draws():
    svg = render_line_chart([("s", [1, 2], [1.5e-323, 1e308])], log_y=True)
    texts = [t.text for t in elements(parse(svg), "text")]
    assert f"{1e-323:.6g}" in texts and "1e+308" in texts  # the outer decades


@pytest.mark.parametrize("xs, ys", [
    ([1, 2], [1e308, -1e308]),  # the span itself overflows
    ([1, 2], [0.9e308, -0.9e308]),  # the 4% padding makes it overflow
    ([-1e308, 1e308], [1.0, 2.0]),
])
def test_span_past_float_range_rejected(xs, ys):
    with pytest.raises(InvalidParamError, match="float range"):
        render_line_chart([("s", xs, ys)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("log_y", [False, True])
@pytest.mark.parametrize("at", [0, 1])
def test_non_finite_value_rejected(bad, axis, log_y, at):
    series = [("a", [1.0, 2.0], [1.0, 2.0]), ("b", [1.0, 2.0], [3.0, 4.0])]
    _, xs, ys = series[at]
    (xs if axis == "x" else ys)[1] = bad
    with pytest.raises(InvalidParamError, match="must be finite"):
        render_line_chart(series, log_y=log_y)


@pytest.mark.parametrize("log_y, digest", [
    (False, "2deb068e8039a2968a58893a675ab207d13bf0bd02a1a20f6762880faf5bfad7"),
    (True, "f81931a6b1389ed9778b0dc1680c7da9806ce86f1661c62cf08cf8058682739e"),
])
def test_sparse_series_svg_is_golden(log_y, digest):
    # 300 points over the 658-px plot area: at most one per pixel column, so
    # every point is drawn and the bytes stay those of the point-per-x writer
    xs = list(range(1, 301))
    series = [("a", xs, [1000.0 / i + i % 7 for i in xs]),
              ("b", xs, [30.0 + i * 37 % 101 / 10 for i in xs])]
    svg = render_line_chart(series, title="pin", xlabel="iteration",
                            ylabel="v", log_y=log_y, desc="kind=pin")
    assert hashlib.sha256(svg.encode()).hexdigest() == digest



@pytest.mark.parametrize("log_y", [False, True])
def test_dense_series_keeps_endpoints_and_extremes(log_y):
    # 50,000 points over the 658-px plot area, about 76 per pixel column
    n = 50_000
    xs = list(range(n))
    ys = [2.0 + (i * 7919 % 1000) / 10 + i % 13 / 7 for i in xs]
    ys[31_337], ys[777] = 1.0, 500.0  # the global extremes, inside columns
    svg = render_line_chart([("s", xs, ys)], log_y=log_y)
    pts = elements(parse(svg), "path")[0].get("d")[2:].split(" L ")

    if log_y:  # decade ticks 1..1000
        y_lo, y_hi, pos = 0.0, 3.0, math.log10
    else:  # data range padded by 4% on each side
        pad = (500.0 - 1.0) * 0.04
        y_lo, y_hi, pos = 1.0 - pad, 500.0 + pad, float

    def point(i):
        return (f"{78 + i / (n - 1) * 658:.2f},"
                f"{46 + (y_hi - pos(ys[i])) / (y_hi - y_lo) * 376:.2f}")

    assert pts[0] == point(0) and pts[-1] == point(n - 1)
    assert point(31_337) in pts and point(777) in pts
    assert len(pts) <= 4 * 659  # columns 78..736
    px = [float(pt.split(",")[0]) for pt in pts]
    assert px == sorted(px)


# ----------------------------------------------------------------------
# Golden charts: SHA-256 of SVGs at the edges of the axis-range rule and of
# text escaping. A refactor of the chart writer must leave them unchanged.
# ----------------------------------------------------------------------

TEXT = "A & B < C > D \"q\" 'a' β→∞ Ω"

CHARTS = {
    # the metric-vs-beta figure of the paper, log y
    "metric-vs-beta-log": dict(
        series=[("n_iter_cvg", [0.2, 0.5, 0.8], [912.5, 401.0, 233.5])],
        xlabel="beta", ylabel="n_iter_cvg", log_y=True,
        desc="kind=metric-vs-beta;yscale=log;series=1"),
    "single-x": dict(series=[("s", [0.5, 0.5], [1.0, 2.0])]),
    "single-y": dict(series=[("s", [1, 2, 3], [4.0, 4.0, 4.0])]),
    "x-1e-300": dict(series=[("s", [1e-300, 1.5e-300, 2e-300], [1.0, 3.0, 2.0])]),
    "x-subnormal": dict(series=[("s", [0.0, 0.5e-320, 1e-320], [1.0, 3.0, 2.0])]),
    "x-1e9": dict(series=[("s", [1e9, 1e9 + 0.5, 1e9 + 1], [1.0, 3.0, 2.0])]),
    "text": dict(
        series=[(TEXT, [1, 2], [1.0, 2.0]), ("<b>&amp;</b>", [1, 2], [2.0, 1.0])],
        title=TEXT, xlabel="x < 1 & y > 2", ylabel="\"ñ\" 'é'",
        desc="kind=<&>"),
}

GOLDEN_SVG = {
    "metric-vs-beta-log":
        "6fd12630a681d673004419c75ab156e9a0761b1f842b78b1c5db8a1739702c88",
    "single-x":
        "ff732689e08df2a167f628812a457207dc075bacc79fc06eafa634a53b52f222",
    "single-y":
        "93ff98df9548b452a54f49ee805961e15512010f815c15792d265da2e282c787",
    "x-1e-300":
        "096a26cbbb8420c76d51df1a4ed6d07e47b26d22c593cef131e5ce7a1ec5c003",
    "x-subnormal":
        "810089e410b476b1681b675864ef5e7a66d6c5f2aaf1c82554a54a7ab8484951",
    "x-1e9":
        "4b7ce21737b09e852a42c1a9310894dd4f5753aaa2421a29e1db375d9c2db6dc",
    "text":
        "1ed3a6353d8d1db6e17dca525712483c465b2ab8dd343211f7ae2da9aadb0baf",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN_SVG))
def test_chart_svg_is_golden(name):
    assert sha256(render_line_chart(**CHARTS[name])) == GOLDEN_SVG[name]


def test_text_is_escaped_once():
    svg = render_line_chart(**CHARTS["text"])
    root = parse(svg)
    texts = [t.text for t in elements(root, "text")]
    assert TEXT in texts and "<b>&amp;</b>" in texts
    assert elements(root, "desc")[0].text == "kind=<&>"
    assert "&lt;b&gt;&amp;amp;&lt;/b&gt;" in svg and '"q"' in svg


def test_benchmark_n_diff_plot_is_golden(tmp_path):
    # the baseline sweep's chart, at small scale: two averaged traces of
    # thousands of iterations, so columns are thinned
    config = tmp_path / "baseline.json"
    config.write_text(json.dumps({
        "network": {"model": "ba", "m": 200, "n0": 21, "e": 20},
        "game": {"n": 20, "beta": 0.5},
        "repetitions": 2,
        "master_seed": 7,
        "sweep": {"modes": ["ngmh", "minimal"]},
        "parallelism": 1,
    }))
    sweep, svg = tmp_path / "sweep", tmp_path / "n_diff.svg"
    assert main(["sweep", "--config", str(config), "--out", str(sweep)]) == 0
    averages = [str(sweep / f"point{p:03d}_avg.csv") for p in range(2)]
    assert main(["plot", "--kind", "n-diff", "--inputs", *averages,
                 "--out", str(svg)]) == 0
    assert sha256(svg.read_text()) == (
        "b917d9362a98b33d7ef18d3d5ec0296120a7e137099e1ba8df05dc8100dc7df7")


# values one float step apart, one value where 0.5 is below a float step,
# and one subnormal step: narrower than any tick step at their magnitude
NARROW = [(0.3, 0.1 + 0.2), (1e17, 1e17), (1e17, 1e17 + 16), (0.0, 5e-324)]

_DRAW = """
import sys
from ngg.plotting import render_line_chart
a, b = float(sys.argv[1]), float(sys.argv[2])
xy = ([a, b], [1.0, 2.0]) if sys.argv[3] == "x" else ([1.0, 2.0], [a, b])
print(render_line_chart([("s", *xy)]).count("<path"))
"""


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("pair", NARROW, ids=repr)
def test_narrow_range_is_widened(pair, axis):
    # in a capped child: a tick loop that never ends is killed, not waited on
    proc = run_capped(["-c", _DRAW, *map(repr, pair), axis])
    assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr


def test_range_up_to_the_largest_float_draws():
    # the tick loop's end, a hair above the range, must not overflow to inf
    proc = run_capped(["-c", _DRAW, "1.0", repr(sys.float_info.max), "x"])
    assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr
