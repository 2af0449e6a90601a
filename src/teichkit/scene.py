"""Scene descriptions over the upper half plane and their SVG rendering.

A scene is an ordered list of drawable elements: geodesics, horocycles,
Euclidean circles, marked points and geodesic polygons, each with optional
color/label strings.  Rendering is deterministic (fixed viewBox, canonical
element order, fixed decimal formatting) so equal scenes produce
byte-identical SVG.  One record per kind in _KINDS defines an element kind:
its draw layer, default color, JSON fields, constructor and SVG writer.

The three-holed-sphere builders turn exponentiated shear coordinates into
boundary Mobius maps and the classical picture: three invariant axes, the
common perpendicular between consecutive axes, and its image under the
holonomy, which cuts out a fundamental domain.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .encode import SCHEMA, _vector_from_json, check_schema, scalar_from_json, scalar_to_json
from .errors import DomainError, SchemaError
from .fatgraph import _scalar
from .halfplane import (
    INFINITY,
    MobiusMap,
    apply_to_geodesic,
    axis,
    common_perpendicular,
    geodesic_through,
)


class BadGeometry(DomainError):
    """Element data outside the model: below the boundary, nonpositive size,
    or a color or label that SVG cannot carry."""


# a character outside XML 1.0's Char production, which no SVG file can hold;
# the class lists that production's complement, which compiles far faster
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text):
    """Character data with &, < and > as entities, as xml.sax.saxutils.escape writes it."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text):
    """A quoted attribute value, as xml.sax.saxutils.quoteattr writes it.

    saxutils itself is not imported: it loads urllib.request and with it the
    HTTP, email and ssl modules, which would dominate the package's import time.
    """
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def coordinate_to_json(v):
    return "inf" if v is INFINITY else scalar_to_json(v)


def coordinate_from_json(v, mode="rational"):
    if v == "inf":
        return INFINITY
    return scalar_from_json(v, mode)


def _coord(v, allow_infinity=False):
    if v is INFINITY:
        if not allow_infinity:
            raise BadGeometry("infinity not allowed here")
        return v
    if isinstance(v, bool) or not isinstance(v, (int, Fraction, float)):
        raise BadGeometry(f"bad coordinate {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise BadGeometry(f"coordinate must be finite, got {v!r}")
    return _scalar(v)


@dataclass(frozen=True)
class SceneElement:
    """One drawable item; geometry is a kind-specific tuple.

    Build through the constructor functions below, which validate the
    coordinates.  The element itself refuses a kind outside KINDS and a
    geometry that is not a tuple of one entry per JSON field of its kind.
    """

    kind: str
    geometry: tuple
    color: str = ""
    label: str = ""

    def __post_init__(self):
        try:
            fields = _KINDS[self.kind][2]
        except (KeyError, TypeError):
            raise BadGeometry(f"unknown element kind {self.kind!r}") from None
        if fields is not None and not (
            isinstance(self.geometry, tuple) and len(self.geometry) == len(fields)
        ):
            raise BadGeometry(f"{self.kind} geometry must be a tuple ({', '.join(fields)})")
        bad = _NOT_XML_CHAR.search(self.color + self.label)
        if bad:
            raise BadGeometry(f"SVG cannot carry the character {bad.group()!r}")

    def to_json(self):
        doc = {"kind": self.kind, "color": self.color, "label": self.label}
        fields = _KINDS[self.kind][2]
        if fields is not None:
            doc.update(zip(fields, map(coordinate_to_json, self.geometry)))
        else:
            doc["vertices"] = [
                "inf" if v is INFINITY else [scalar_to_json(v[0]), scalar_to_json(v[1])]
                for v in self.geometry
            ]
        return doc


def geodesic(p, q, color="", label=""):
    """Complete geodesic with distinct boundary endpoints; INFINITY allowed."""
    p = _coord(p, allow_infinity=True)
    q = _coord(q, allow_infinity=True)
    geodesic_through(p, q)
    return SceneElement("geodesic", (p, q), color, label)


def horocycle(base, size, color="", label=""):
    """Horocycle at a boundary point.

    Tangent circle of diameter size at a finite base; the horizontal line
    Im z = size when base is INFINITY.
    """
    base = _coord(base, allow_infinity=True)
    size = _coord(size)
    if size <= 0:
        raise BadGeometry(f"size must be positive, got {size}")
    return SceneElement("horocycle", (base, size), color, label)


def circle(x, y, r, color="", label=""):
    """Euclidean circle strictly inside the half plane (y > r > 0)."""
    x, y, r = _coord(x), _coord(y), _coord(r)
    if r <= 0:
        raise BadGeometry(f"radius must be positive, got {r}")
    if y <= r:
        raise BadGeometry("circle touches or crosses the boundary")
    return SceneElement("circle", (x, y, r), color, label)


def point(x, y, color="", label=""):
    """Marked point; boundary points (y = 0) allowed."""
    x, y = _coord(x), _coord(y)
    if y < 0:
        raise BadGeometry(f"below the boundary: y = {y}")
    return SceneElement("point", (x, y), color, label)


def polygon(vertices, color="", label=""):
    """Closed polygon whose sides are geodesic segments.

    Vertices are (x, y) pairs with y >= 0, or INFINITY for an ideal vertex
    at the top; cyclically consecutive vertices must differ.
    """
    vs = []
    for v in vertices:
        if v is INFINITY:
            vs.append(v)
            continue
        x, y = v
        x, y = _coord(x), _coord(y)
        if y < 0:
            raise BadGeometry(f"vertex below the boundary: {v!r}")
        vs.append((x, y))
    if len(vs) < 3:
        raise BadGeometry("polygon needs at least 3 vertices")
    for a, b in zip(vs, vs[1:] + vs[:1]):
        if a is b or a == b:
            raise BadGeometry("repeated consecutive vertex")
    return SceneElement("polygon", tuple(vs), color, label)


def element_from_json(doc, mode="rational"):
    if not isinstance(doc, dict):
        raise SchemaError("element must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown element kind {kind!r}")
    color, label = doc.get("color", ""), doc.get("label", "")
    if not (isinstance(color, str) and isinstance(label, str)):
        raise SchemaError("color and label must be strings")
    _, _, fields, build, _ = _KINDS[kind]
    try:
        if fields is not None:
            coords = [coordinate_from_json(doc[f], mode) for f in fields]
            return build(*coords, color=color, label=label)
        verts = [
            INFINITY if v == "inf" else _vector_from_json(v, mode)
            for v in doc["vertices"]
        ]
        if any(v is not INFINITY and len(v) != 2 for v in verts):
            raise SchemaError('a polygon vertex is "inf" or a list of two scalars')
        return build(verts, color=color, label=label)
    except KeyError as exc:
        raise SchemaError(f"element missing field {exc}") from exc
    except (TypeError, IndexError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        if isinstance(exc, DomainError):
            # parseable but describes nothing drawable
            raise SchemaError(str(exc)) from exc
        raise SchemaError(f"bad element document: {exc}") from exc


@dataclass(frozen=True)
class Scene:
    """Ordered element collection; authoring order is kept in JSON,
    rendering sorts canonically."""

    elements: tuple = ()

    def __post_init__(self):
        for el in self.elements:
            if not isinstance(el, SceneElement):
                raise BadGeometry(f"not a scene element: {el!r}")
        object.__setattr__(self, "elements", tuple(self.elements))

    def add(self, *els):
        return Scene(self.elements + els)

    def to_json(self):
        return {
            "schema": SCHEMA,
            "kind": "scene",
            "elements": [el.to_json() for el in self.elements],
        }

    @classmethod
    def from_json(cls, doc, mode="rational"):
        check_schema(doc, "scene")
        els = doc.get("elements")
        if not isinstance(els, list):
            raise SchemaError("scene needs an element list")
        return cls(tuple(element_from_json(e, mode) for e in els))


# -- rendering ----------------------------------------------------------------

_PPU = 80.0  # pixels per half-plane unit
_W, _H = 880.0, 460.0
_BASE = 440.0  # svg y of the real axis; 20px strip below for ticks


def _sx(x):
    return (float(x) + 5.5) * _PPU


def _sy(y):
    return _BASE - float(y) * _PPU


def _fmt(t):
    s = f"{t:.3f}"
    return "0.000" if s == "-0.000" else s


def _stroke(color, width="1.6"):
    return f'stroke={_quoteattr(color)} stroke-width="{width}" fill="none"'


def _geodesic_svg(color, p, q):
    if p is INFINITY or q is INFINITY:
        foot = _sx(q if p is INFINITY else p)
        x = _fmt(foot)
        svg = f'<line x1="{x}" y1="{_fmt(_BASE)}" x2="{x}" y2="0.000" {_stroke(color)}/>'
        return svg, (foot + 4.0, 14.0, "start")
    lo, hi = sorted((float(p), float(q)))
    r = _fmt((hi - lo) / 2.0 * _PPU)
    svg = (
        f'<path d="M {_fmt(_sx(lo))} {_fmt(_BASE)} '
        f'A {r} {r} 0 0 1 {_fmt(_sx(hi))} {_fmt(_BASE)}" {_stroke(color)}/>'
    )
    return svg, (_sx((lo + hi) / 2.0) + 4.0, _sy((hi - lo) / 2.0) - 5.0, "start")


def _horocycle_svg(color, base, size):
    top = _sy(size)
    if base is INFINITY:
        y = _fmt(top)
        svg = f'<line x1="0.000" y1="{y}" x2="{_fmt(_W)}" y2="{y}" {_stroke(color, "1.4")}/>'
        return svg, (6.0, top - 5.0, "start")
    half = float(size) / 2.0
    cx = _sx(base)
    svg = (
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(_sy(half))}" r="{_fmt(half * _PPU)}" '
        f'{_stroke(color, "1.4")}/>'
    )
    return svg, (cx + 4.0, top - 5.0, "start")


def _circle_svg(color, x, y, r):
    cx = _sx(x)
    svg = (
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(_sy(y))}" r="{_fmt(float(r) * _PPU)}" '
        f'{_stroke(color, "1.4")}/>'
    )
    return svg, (cx + 4.0, _sy(float(y) + float(r)) - 5.0, "start")


def _point_svg(color, x, y):
    cx, cy = _sx(x), _sy(y)
    svg = f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.5" fill={_quoteattr(color)}/>'
    return svg, (cx + 5.0, cy - 5.0, "start")


def _segment(a, b):
    """Geodesic side from a to b as path commands; the pen sits at a."""
    if b is INFINITY:
        return f"L {_fmt(_sx(a[0]))} 0.000"
    if a is INFINITY:
        x, y = b
        return f"L {_fmt(_sx(x))} 0.000 L {_fmt(_sx(x))} {_fmt(_sy(y))}"
    x1, y1 = (float(v) for v in a)
    x2, y2 = (float(v) for v in b)
    if x1 == x2:
        return f"L {_fmt(_sx(x2))} {_fmt(_sy(y2))}"
    # circle through both points centered on the real axis
    c = (x1 * x1 + y1 * y1 - x2 * x2 - y2 * y2) / (2.0 * (x1 - x2))
    r = _fmt(math.hypot(x1 - c, y1) * _PPU)
    sweep = 1 if x1 < x2 else 0
    return f"A {r} {r} 0 0 {sweep} {_fmt(_sx(x2))} {_fmt(_sy(y2))}"


def _polygon_svg(color, *verts):
    finite = [v for v in verts if v is not INFINITY]
    cx = sum(float(v[0]) for v in finite) / len(finite)
    cy = sum(float(v[1]) for v in finite) / len(finite)
    start = verts.index(finite[0])
    verts = verts[start:] + verts[:start]
    sides = " ".join(_segment(a, b) for a, b in zip(verts, verts[1:] + verts[:1]))
    x, y = finite[0]
    d = f"M {_fmt(_sx(x))} {_fmt(_sy(y))} {sides} Z"
    svg = (
        f'<path d="{d}" fill={_quoteattr(color)} fill-opacity="0.15" '
        f'stroke={_quoteattr(color)} stroke-width="1.2"/>'
    )
    return svg, (_sx(cx), _sy(cy), "middle")


# kind -> (draw layer, default color, JSON geometry fields, constructor, writer).
# Layers put fills under strokes under markers.  The fields name the geometry
# in order, "inf" standing for INFINITY, which a constructor refuses where its
# kind does not allow it; None keeps a polygon's vertex list.  The writer, called
# as writer(color, *geometry), returns the element's SVG and its label's anchor
# (x, y, text-anchor) in pixels.
_KINDS = {
    "geodesic": (1, "#2d5fa6", ("p", "q"), geodesic, _geodesic_svg),
    "horocycle": (2, "#b07a2d", ("base", "size"), horocycle, _horocycle_svg),
    "circle": (3, "#2d8a57", ("x", "y", "r"), circle, _circle_svg),
    "point": (4, "#333333", ("x", "y"), point, _point_svg),
    "polygon": (0, "#888888", None, polygon, _polygon_svg),
}
KINDS = tuple(_KINDS)


def _sort_key(el):
    """Canonical draw order, independent of how scalars were spelled.

    Coordinates compare as floats so a scene parsed in rational mode and
    the same scene parsed in float mode render byte-identically; ties fall
    back to authoring order (sorted() is stable).
    """

    def c(v):
        return (1, 0.0) if v is INFINITY else (0, float(v))

    g = el.geometry
    if el.kind == "polygon":
        geom = tuple(c(v) if v is INFINITY else (0, float(v[0]), float(v[1])) for v in g)
    else:
        geom = tuple(c(v) for v in g)
    return (_KINDS[el.kind][0], el.kind, geom, el.color, el.label)


def render_svg(scene):
    """Deterministic SVG text for a scene.

    Fixed viewBox x in [-5.5, 5.5], y in [0, 5.5] at 80 px/unit; content
    outside is clipped.  Elements are drawn in a canonical order (layer by
    kind, then serialized form), labels on top.  The empty scene renders
    the real and imaginary axes with integer ticks.
    """
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 880 460" '
        'width="880" height="460">',
        f'<rect width="{_fmt(_W)}" height="{_fmt(_H)}" fill="white"/>',
        f'<line x1="440.000" y1="0.000" x2="440.000" y2="{_fmt(_BASE)}" '
        'stroke="#cccccc" stroke-width="1" stroke-dasharray="4 4"/>',
    ]
    for k in range(-5, 6):
        x = _fmt(_sx(k))
        out.append(
            f'<line x1="{x}" y1="{_fmt(_BASE)}" x2="{x}" y2="{_fmt(_BASE + 5.0)}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x}" y="{_fmt(_BASE + 16.0)}" font-family="monospace" '
            f'font-size="9" text-anchor="middle" fill="#444444">{k}</text>'
        )
    out.append(
        f'<line x1="0.000" y1="{_fmt(_BASE)}" x2="{_fmt(_W)}" y2="{_fmt(_BASE)}" '
        'stroke="#444444" stroke-width="1.5"/>'
    )
    labels = []
    for el in sorted(scene.elements, key=_sort_key):
        _, default, _, _, write = _KINDS[el.kind]
        color = el.color or default
        svg, (x, y, anchor) = write(color, *el.geometry)
        out.append(svg)
        if el.label:
            labels.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" font-size="12" '
                f'text-anchor="{anchor}" fill={_quoteattr(color)}>{_escape(el.label)}</text>'
            )
    out += labels
    out.append("</svg>")
    return "\n".join(out) + "\n"


# -- three-holed sphere -------------------------------------------------------


def pants_maps(e1, e2, e3):
    """Boundary holonomies of the three-holed sphere, exact in the inputs.

    Takes exponentiated shears (exp s1, exp s2, exp s3), all positive.
    Returns normalized det > 0 representatives (m1, m2, m3) with
    m1 m2 m3 = identity as maps.
    """
    a, b, c = (_coord(e) for e in (e1, e2, e3))
    if not min(a, b, c) > 0:
        raise BadGeometry(f"exponentiated shears must be positive, got {e1!r}, {e2!r}, {e3!r}")
    m1 = MobiusMap(1 / (b * c), -(1 + 1 / b), 0, 1)
    m2 = MobiusMap(1, 0, 1 / (a * c) + 1 / c, 1 / (a * c))
    m3 = m1.compose(m2).inverse()
    return m1, m2, m3


def pants_scene(e1, e2, e3):
    """Half-plane picture of the three-holed sphere at the given shears.

    Draws the three invariant axes, the common perpendicular between axes
    1 and 2 with its image under m1, the common perpendicular between axes
    2 and 3 with its image under m3^{-1}, and the finite axis endpoints.
    The perpendicular pairs bound a fundamental domain.  All three
    holonomies must be hyperbolic.
    """
    m1, m2, m3 = pants_maps(e1, e2, e3)
    # Irrational roots come back as floats, and an exact value past the float
    # range cannot meet one: such shears have no picture in this model.
    try:
        a1, a2, a3 = axis(m1), axis(m2), axis(m3)
        g12 = common_perpendicular(a1, a2)
        g23 = common_perpendicular(a2, a3)
        els = [
            _axis_element(a1, "#b03a3a", "axis1"),
            _axis_element(a2, "#b03a3a", "axis2"),
            _axis_element(a3, "#b03a3a", "axis3"),
            _axis_element(g12, "#2d5fa6", "g12"),
            _axis_element(apply_to_geodesic(m1, g12), "#2d5fa6", "m1 g12"),
            _axis_element(g23, "#2d8a57", "g23"),
            _axis_element(apply_to_geodesic(m3.inverse(), g23), "#2d8a57", "m3inv g23"),
        ]
    except OverflowError as exc:
        raise BadGeometry("the picture at these shears leaves the float range") from exc
    for ax in (a1, a2, a3):
        for e in ax.endpoints():
            if e is not INFINITY:
                els.append(point(e, 0, color="#333333"))
    return Scene(tuple(els))


def _axis_element(g, color, label):
    p, q = g.endpoints()
    return geodesic(p, q, color=color, label=label)
