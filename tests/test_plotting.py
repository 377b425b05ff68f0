"""SVG chart rendering."""

import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from ngg.errors import InvalidParamError
from ngg.plotting import render_line_chart


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
