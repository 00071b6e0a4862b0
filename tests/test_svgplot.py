"""SVG chart emission: well-formed XML, expected marks, escaping."""

import math
import xml.etree.ElementTree as ET

from gendervec.svgplot import bars_svg, histogram_svg, lines_svg, scatter_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(path):
    tree = ET.parse(path)
    root = tree.getroot()
    assert root.tag == f"{SVG_NS}svg"
    return root


def _count(root, tag):
    return len(root.findall(f".//{SVG_NS}{tag}"))


def test_scatter_has_one_circle_per_point(tmp_path):
    path = tmp_path / "scatter.svg"
    scatter_svg(
        {"uter": ([1.0, 2.0, 3.0], [1.0, 4.0, 9.0]), "neuter": ([0.5], [0.25])},
        path, "clusters", "x", "y",
    )
    root = _parse(path)
    assert _count(root, "circle") == 4
    texts = [el.text for el in root.findall(f".//{SVG_NS}text")]
    assert "clusters" in texts
    assert "uter" in texts and "neuter" in texts


def test_histogram_draws_bars(tmp_path):
    path = tmp_path / "hist.svg"
    histogram_svg({"a": [0.1] * 5 + [0.9] * 3}, path, "entropies", "entropy")
    root = _parse(path)
    # background rect + legend swatch + at least the two occupied bins
    assert _count(root, "rect") >= 4


def test_histogram_of_equal_values_spans_one_unit(tmp_path):
    # equal values get the axis of values from 0.25 to 1.25: the same
    # first bar, and nothing else but the background and the legend swatch
    histogram_svg({"a": [0.25] * 4}, tmp_path / "equal.svg", "entropies", "entropy")
    histogram_svg({"a": [0.25] * 4 + [1.25]}, tmp_path / "unit.svg", "entropies", "entropy")
    equal, unit = (_parse(tmp_path / name).findall(f"{SVG_NS}rect")
                   for name in ("equal.svg", "unit.svg"))
    assert len(equal) == 3
    assert equal[1].attrib == unit[1].attrib


def test_bars_svg_labels_clusters(tmp_path):
    path = tmp_path / "bars.svg"
    bars_svg(
        ["d1", "d2", "d3"],
        {"uter": [0.7, 0.6, 0.8], "neuter": [0.3, 0.4, 0.2]},
        path, "deciles", "share",
    )
    root = _parse(path)
    texts = [el.text for el in root.findall(f".//{SVG_NS}text")]
    for label in ("d1", "d2", "d3", "uter", "neuter", "deciles"):
        assert label in texts
    assert _count(root, "rect") >= 1 + 6 + 2


def test_lines_svg_polyline_per_series(tmp_path):
    path = tmp_path / "lines.svg"
    lines_svg([1, 2, 3, 4, 5], {"backward": [1, 2, 3, 2, 1], "forward": [5, 4, 3, 2, 1]},
              path, "grid", "window", "accuracy")
    root = _parse(path)
    assert _count(root, "polyline") == 2
    assert _count(root, "circle") == 10


def test_lines_svg_breaks_each_line_at_a_missing_point(tmp_path):
    path = tmp_path / "lines.svg"
    lines_svg([1, 2, 3, 4, 5], {"backward": [1, math.nan, 3, 2, 1], "forward": [5, 4, 3, 2, 1]},
              path, "grid", "window", "accuracy")
    assert "nan" not in path.read_text(encoding="utf-8")
    root = _parse(path)
    assert _count(root, "polyline") == 3
    assert _count(root, "circle") == 9


def test_labels_are_xml_escaped(tmp_path):
    path = tmp_path / "escape.svg"
    scatter_svg({"a<b>&\"c\"": ([1.0], [1.0])}, path, 'x < y & "z"', "x&y", "y<x")
    root = _parse(path)  # parse failure would mean broken escaping
    texts = [el.text for el in root.findall(f".//{SVG_NS}text")]
    assert 'x < y & "z"' in texts
    assert 'a<b>&"c"' in texts


def test_empty_groups_still_render(tmp_path):
    path = tmp_path / "empty.svg"
    scatter_svg({}, path, "empty", "x", "y")
    root = _parse(path)
    assert _count(root, "circle") == 0
    histogram_svg({}, tmp_path / "empty_hist.svg", "none", "value")
    _parse(tmp_path / "empty_hist.svg")
