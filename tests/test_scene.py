import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest

from teichkit.errors import SchemaError
from teichkit.halfplane import INFINITY, DegenerateInput
from teichkit import scene
from teichkit.scene import (
    BadGeometry,
    Scene,
    SceneElement,
    circle,
    coordinate_from_json,
    coordinate_to_json,
    element_from_json,
    geodesic,
    horocycle,
    pants_maps,
    pants_scene,
    point,
    polygon,
    render_svg,
)

F = Fraction


# -- element validation --------------------------------------------------


def test_geodesic_needs_distinct_endpoints():
    with pytest.raises(DegenerateInput):
        geodesic(F(1), F(1))
    with pytest.raises(DegenerateInput):
        geodesic(INFINITY, INFINITY)
    g = geodesic(INFINITY, 2)
    assert g.geometry == (INFINITY, F(2))


def test_size_and_position_checks():
    with pytest.raises(BadGeometry):
        horocycle(0, 0)
    with pytest.raises(BadGeometry):
        horocycle(INFINITY, F(-1, 2))
    with pytest.raises(BadGeometry):
        circle(0, 1, 1)  # tangent to the boundary: that is a horocycle
    with pytest.raises(BadGeometry):
        circle(0, 1, 2)
    with pytest.raises(BadGeometry):
        point(0, -1)
    assert point(0, 0).kind == "point"  # boundary points are fine
    with pytest.raises(BadGeometry):
        geodesic("x", 1)
    with pytest.raises(BadGeometry):
        point(float("inf"), 1)
    with pytest.raises(BadGeometry):
        circle(0, INFINITY, 1)


def test_polygon_validation():
    with pytest.raises(BadGeometry):
        polygon([(0, 0), (1, 0)])
    with pytest.raises(BadGeometry):
        polygon([(0, 0), (0, 0), (1, 1)])
    with pytest.raises(BadGeometry):
        polygon([(0, 0), INFINITY, INFINITY])
    with pytest.raises(BadGeometry):
        polygon([(0, -1), (2, 0), (1, 1)])
    # wraparound duplicate
    with pytest.raises(BadGeometry):
        polygon([(0, 0), (1, 0), (2, 2), (0, 0)])
    p = polygon([(0, 0), (2, 0), INFINITY])
    assert p.geometry == ((F(0), F(0)), (F(2), F(0)), INFINITY)


def test_ints_become_exact_coordinates():
    e = circle(1, 3, 2)
    assert e.geometry == (F(1), F(3), F(2))
    assert all(isinstance(v, Fraction) for v in e.geometry)


# -- JSON ------------------------------------------------------------------


def test_coordinate_codec_handles_the_infinity_marker():
    assert coordinate_to_json(INFINITY) == "inf"
    assert coordinate_to_json(F(3, 2)) == "3/2"
    assert coordinate_from_json("inf") is INFINITY
    assert coordinate_from_json("3/2") == F(3, 2)
    assert coordinate_from_json("3/2", mode="float") == 1.5


def scene_fixture():
    return Scene(
        (
            geodesic(-1, 1, color="#aa0000", label="g"),
            geodesic(INFINITY, F(1, 3)),
            horocycle(INFINITY, 2),
            horocycle(F(1, 2), F(1, 4), label="h"),
            circle(0, 3, 1),
            point(F(5, 3), 0),
            polygon([(0, 0), (2, 0), INFINITY], label="dom"),
        )
    )


def test_scene_json_round_trip_is_identity():
    s = scene_fixture()
    doc = s.to_json()
    assert doc["schema"] == "teichkit/1" and doc["kind"] == "scene"
    s2 = Scene.from_json(doc)
    assert s2 == s
    assert Scene.from_json(s2.to_json()) == s2


def test_scene_schema_errors():
    with pytest.raises(SchemaError):
        Scene.from_json({"schema": "teichkit/1", "kind": "fatgraph", "elements": []})
    with pytest.raises(SchemaError):
        Scene.from_json({"schema": "teichkit/1", "kind": "scene", "elements": 3})
    with pytest.raises(SchemaError):
        element_from_json({"kind": "sphere"})
    with pytest.raises(SchemaError):
        element_from_json({"kind": "point", "x": "1/2"})  # missing y
    with pytest.raises(SchemaError):
        element_from_json({"kind": "point", "x": "1/2", "y": "0", "label": 7})
    # parseable but undrawable: domain failure surfaces as a schema problem
    with pytest.raises(SchemaError):
        element_from_json({"kind": "horocycle", "base": "0", "size": "-1"})
    with pytest.raises(SchemaError):
        element_from_json({"kind": "geodesic", "p": "2", "q": "2"})


def test_float_mode_parses_numbers():
    doc = scene_fixture().to_json()
    s = Scene.from_json(doc, mode="float")
    g = s.elements[0]
    assert g.geometry == (-1.0, 1.0)
    assert isinstance(g.geometry[0], float)


def test_scene_rejects_non_elements():
    with pytest.raises(BadGeometry):
        Scene((1, 2))
    s = Scene()
    s2 = s.add(point(0, 1))
    assert s.elements == () and len(s2.elements) == 1


@pytest.mark.parametrize(
    "kind, geometry",
    [
        ("sphere", ((0, 1),)),
        (["point"], (F(0), F(1))),
        ("point", (1, 2, 3, 4)),
        ("point", (F(1),)),
        ("point", [F(0), F(1)]),
        ("circle", (F(0), F(2))),
        ("geodesic", ()),
    ],
    ids=["unknown-kind", "unhashable-kind", "long", "short", "list", "circle-short", "empty"],
)
def test_element_refuses_unknown_kinds_and_misshapen_geometry(kind, geometry):
    with pytest.raises(BadGeometry):
        SceneElement(kind, geometry)


# -- rendering ---------------------------------------------------------------


def test_empty_scene_renders_axes_only():
    svg = render_svg(Scene())
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    assert 'viewBox="0 0 880 460"' in svg
    assert '<line x1="0.000" y1="440.000" x2="880.000" y2="440.000"' in svg
    assert "<path" not in svg
    assert svg.count("<text") == 11  # tick labels -5..5


def test_render_is_deterministic_and_order_independent():
    s = scene_fixture()
    r = Scene(tuple(reversed(s.elements)))
    assert render_svg(s) == render_svg(s)
    assert render_svg(s) == render_svg(r)


def test_render_mode_does_not_change_pixels():
    doc = scene_fixture().to_json()
    assert render_svg(Scene.from_json(doc)) == render_svg(Scene.from_json(doc, mode="float"))


def test_geodesic_arcs_are_semicircles():
    svg = render_svg(Scene((geodesic(-1, 1),)))
    assert 'd="M 360.000 440.000 A 80.000 80.000 0 0 1 520.000 440.000"' in svg
    svg = render_svg(Scene((geodesic(INFINITY, 2),)))
    assert '<line x1="600.000" y1="440.000" x2="600.000" y2="0.000"' in svg


def test_horocycle_rendering():
    svg = render_svg(Scene((horocycle(INFINITY, 2),)))
    assert '<line x1="0.000" y1="280.000" x2="880.000" y2="280.000"' in svg
    svg = render_svg(Scene((horocycle(0, 1),)))
    assert '<circle cx="440.000" cy="400.000" r="40.000"' in svg


def test_polygon_path_walks_geodesic_sides():
    svg = render_svg(Scene((polygon([(0, 0), (2, 0), INFINITY]),)))
    # boundary-to-boundary side is a semicircle; ideal vertex gives verticals
    assert "A 80.000 80.000 0 0 1 600.000 440.000" in svg
    assert "L 600.000 0.000 L 440.000 0.000 L 440.000 440.000 Z" in svg


def test_polygon_starting_at_ideal_vertex_renders():
    svg = render_svg(Scene((polygon([INFINITY, (0, 0), (2, 0)]),)))
    assert "<path" in svg and " Z" in svg


def test_labels_are_escaped():
    svg = render_svg(Scene((point(0, 1, label="a<&>b"),)))
    assert "a&lt;&amp;&gt;b" in svg
    assert "a<&>b" not in svg


def test_every_kind_places_its_label():
    s = Scene(
        (
            geodesic(-1, 2, label="arc"),
            geodesic(F(1, 2), INFINITY, label="ray"),
            horocycle(F(-3, 2), 1, label="h"),
            horocycle(INFINITY, F(5, 2), label="top"),
            circle(1, 3, F(1, 2), label="c"),
            point(F(-1, 4), 2, label="pt"),
            polygon([(-2, 0), INFINITY, (1, 2)], color="#123456", label="dom"),
        )
    )
    lines = render_svg(s).splitlines()
    labels = [line for line in lines if 'font-size="12"' in line]
    attrs = 'font-family="monospace" font-size="12"'
    assert labels == [
        f'<text x="400.000" y="360.000" {attrs} text-anchor="middle" fill="#123456">dom</text>',
        f'<text x="484.000" y="315.000" {attrs} text-anchor="start" fill="#2d5fa6">arc</text>',
        f'<text x="484.000" y="14.000" {attrs} text-anchor="start" fill="#2d5fa6">ray</text>',
        f'<text x="324.000" y="355.000" {attrs} text-anchor="start" fill="#b07a2d">h</text>',
        f'<text x="6.000" y="235.000" {attrs} text-anchor="start" fill="#b07a2d">top</text>',
        f'<text x="524.000" y="155.000" {attrs} text-anchor="start" fill="#2d8a57">c</text>',
        f'<text x="425.000" y="275.000" {attrs} text-anchor="start" fill="#333333">pt</text>',
    ]
    # labels sit on top: they follow every element, and only the closing tag follows them
    assert lines[-len(labels) - 1 : -1] == labels


def test_escapers_write_what_saxutils_writes():
    rng = random.Random(16)
    for _ in range(400):
        text = "".join(rng.choice("&<>\"'\n\r\tx ") for _ in range(rng.randint(0, 10)))
        assert scene._escape(text) == escape(text)
        assert scene._quoteattr(text) == quoteattr(text)


def is_xml_char(cp):
    """XML 1.0's Char production."""
    return (
        cp in (0x9, 0xA, 0xD)
        or 0x20 <= cp <= 0xD7FF
        or 0xE000 <= cp <= 0xFFFD
        or 0x10000 <= cp <= 0x10FFFF
    )


def test_refused_characters_are_those_outside_the_xml_char_production():
    ends = [0x9, 0xA, 0xD, 0x20, 0xD7FF, 0xE000, 0xFFFD, 0x10000, 0x10FFFF]
    rng = random.Random(16)
    cps = {c + k for c in ends for k in (-1, 0, 1)} | {rng.randrange(0x110000) for _ in range(2000)}
    for cp in sorted(c for c in cps if 0 <= c < 0x110000):
        assert (scene._NOT_XML_CHAR.search(chr(cp)) is None) == is_xml_char(cp), hex(cp)


def test_importing_the_cli_loads_no_http_stack():
    src = Path(scene.__file__).resolve().parents[1]
    code = "import sys, teichkit.cli; print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_right_to_left_polygon_side_flips_sweep():
    svg = render_svg(Scene((polygon([(2, 0), (0, 0), INFINITY]),)))
    assert "A 80.000 80.000 0 0 0 440.000 440.000" in svg


# -- three-holed sphere builders -------------------------------------------


def test_pants_maps_exact_entries_at_the_log2_0_log3_point():
    m1, m2, m3 = pants_maps(2, 1, 3)
    assert m1.entries() == (F(1, 3), F(-2), F(0), F(1))
    assert m2.entries() == (F(1), F(0), F(1, 2), F(1, 6))
    # z -> -(z + 2)/(3 z + 4), up to the positive det normalization
    assert m3.apply(F(0)) == F(-1, 2)
    assert m3.apply(INFINITY) == F(-1, 3)
    assert m3.apply(F(-1)) == F(-1)


def test_pants_maps_compose_to_the_identity_map():
    m1, m2, m3 = pants_maps(F(7, 5), F(2, 3), F(9, 2))
    total = m1.compose(m2).compose(m3)
    a, b, c, d = total.entries()
    assert b == 0 and c == 0 and a == d
    for z in (F(0), F(5, 7), INFINITY):
        assert m1.compose(m2).compose(m3).apply(z) == z


def test_pants_maps_reject_nonpositive_weights():
    with pytest.raises(BadGeometry):
        pants_maps(0, 1, 1)
    with pytest.raises(BadGeometry):
        pants_maps(2, -3, 1)
    with pytest.raises(BadGeometry):
        pants_maps(2, True, 1)


@pytest.mark.parametrize("shear", [math.nan, math.inf], ids=repr)
def test_pants_scene_rejects_nonfinite_shears_up_front(shear):
    # refused before the maps are built, not by the hyperbolicity or determinant checks
    with pytest.raises(BadGeometry):
        pants_maps(2, shear, 1)
    with pytest.raises(BadGeometry):
        pants_scene(shear, 2, 3)


def test_pants_scene_reproduces_the_textbook_layout():
    s = pants_scene(2, 1, 3)
    by_label = {el.label: el for el in s.elements if el.label}
    assert by_label["axis1"].geometry == (F(-3), INFINITY)
    assert by_label["axis2"].geometry == (F(0), F(5, 3))
    assert by_label["axis3"].geometry == (F(-1), F(-2, 3))
    r14 = math.sqrt(14)
    assert by_label["g12"].geometry == (-3.0 - r14, -3.0 + r14)
    p, q = by_label["m1 g12"].geometry
    assert abs(p - (-3.0 - r14 / 3.0)) < 1e-12 and abs(q - (-3.0 + r14 / 3.0)) < 1e-12
    r = math.sqrt(28.0 / 75.0)
    p, q = by_label["g23"].geometry
    assert abs(p - (-0.2 - r)) < 1e-12 and abs(q - (-0.2 + r)) < 1e-12
    marks = sorted(el.geometry[0] for el in s.elements if el.kind == "point")
    assert marks == [F(-3), F(-1), F(-2, 3), F(0), F(5, 3)]
    assert len(s.elements) == 12


def test_pants_scene_renders_deterministically():
    a = render_svg(pants_scene(2, 1, 3))
    b = render_svg(pants_scene(F(2), F(1), F(3)))
    assert a == b
    assert a.count("axis") >= 3


def test_element_equality_is_structural():
    assert geodesic(0, 1) == geodesic(F(0), F(1))
    assert geodesic(0, 1) != geodesic(0, 1, label="x")
    assert SceneElement("point", (F(0), F(1))) == point(0, 1)
