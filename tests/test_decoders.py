"""Every from_json is total: any JSON value decodes to an object or raises
SchemaError (malformed document) or DomainError (well formed, mathematically
invalid), so the CLI's exit codes 2 and 3 mean what they say."""

import contextlib
import io
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from teichkit import cli, snakes
from teichkit.encode import MAX_LITERAL_DIGITS, SCHEMA, scalar_from_json
from teichkit.errors import DomainError, SchemaError
from teichkit.fatgraph import EdgeData, FatGraph, MalformedGraph, PathWord, pair_of_pants
from teichkit.flags import DimensionMismatch, Flag, LineConfig, SingularFlag
from teichkit.scene import BadGeometry, Scene, element_from_json, pants_scene, point, render_svg
from teichkit.snakes import MAX_RANK, FGAssignment, NonpositiveVariable, RankOutOfRange
from teichkit.surface import MalformedWord, TrianglePathWord, TriangulatedSurface, t_token

# kind -> (decoder, whether it takes a scalar mode, the fields it reads)
DECODERS = {
    "flag": (Flag.from_json, False, ("rows",)),
    "line_config": (LineConfig.from_json, False, ("n", "lines", "planes")),
    "fg_assignment": (FGAssignment.from_json, True, ("n", "values")),
    "surface": (TriangulatedSurface.from_json, True, ("triangles", "gluings")),
    "triangle_path_word": (TrianglePathWord.from_json, False, ("tokens", "sign")),
    "fatgraph": (FatGraph.from_json, True, ("vertices", "edges", "genus", "boundary")),
    "pathword": (PathWord.from_json, False, ("tokens", "sign")),
    "scene": (Scene.from_json, True, ("elements",)),
}

# Strings the decoders give meaning to, so that documents get past the first field.
WORDS = [
    "1/2", "0", "-1", "3", "1e999", "x", "a,b", "0,0,1", "1,0,0", "S", "T", "E",
    "Einv", "R", "L", "K", "12", "23", "31", "inf", "weight", "open", "a", "b",
    "c", "value", "kind", "point", "circle", "geodesic", "p", "q", "y", "r",
]

# 10**9 stands for a huge rank n, which FGAssignment refuses before it
# enumerates its O(n^2) keys.  Python's json module also parses NaN and
# Infinity.
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 9)
    | st.just(10**9)
    | st.floats(-9, 9)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=4)
    | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


def documents(kind, fields):
    header = {"schema": st.just(SCHEMA), "kind": st.just(kind)}
    return st.fixed_dictionaries(header, optional={f: JSON for f in fields}) | JSON


@pytest.mark.parametrize("kind", sorted(DECODERS))
def test_from_json_is_total(kind):
    decode, takes_mode, fields = DECODERS[kind]

    @settings(max_examples=20)
    @given(documents(kind, fields), st.sampled_from(["rational", "float"]))
    def check(doc, mode):
        try:
            out = decode(doc, mode) if takes_mode else decode(doc)
        except (SchemaError, DomainError):
            return
        assert out is not None

    check()


@pytest.mark.parametrize(
    "decode, doc",
    [
        (Flag.from_json, {"kind": "flag", "rows": 5}),
        (Flag.from_json, {"kind": "flag"}),
        (FGAssignment.from_json, {"kind": "fg_assignment", "n": "x", "values": []}),
        (
            FatGraph.from_json,
            {"kind": "fatgraph", "vertices": {"u": [["e", "x"]]}, "edges": {}},
        ),
        (
            LineConfig.from_json,
            {"kind": "line_config", "n": 2, "lines": {"a,b": ["1/1"]}, "planes": {}},
        ),
        (
            LineConfig.from_json,
            {"kind": "line_config", "n": math.inf, "lines": {}, "planes": {}},
        ),
        (PathWord.from_json, {"kind": "pathword", "tokens": [["E", ["s1"]]]}),
        (PathWord.from_json, {"kind": "pathword", "tokens": [["E", "s1", "junk"]]}),
        (PathWord.from_json, {"kind": "pathword", "tokens": "RLK"}),
        (TrianglePathWord.from_json, {"kind": "triangle_path_word", "tokens": "S"}),
    ],
    ids=[
        "flag-rows-int",
        "flag-rows-missing",
        "fg-n-string",
        "fatgraph-end-string",
        "line-key",
        "line-n-infinity",
        "pathword-edge-id-list",
        "pathword-edge-token-long",
        "pathword-tokens-string",
        "triangle-path-word-tokens-string",
    ],
)
def test_structural_failure_is_schema_error(decode, doc):
    with pytest.raises(SchemaError):
        decode({"schema": SCHEMA, **doc})


def test_domain_errors_pass_through():
    with pytest.raises(SingularFlag):
        Flag.from_json({"schema": SCHEMA, "kind": "flag", "rows": [["1", "2"], ["2", "4"]]})
    # ragged rows are a DomainError, not linalg's bare ArithmeticError
    with pytest.raises(DimensionMismatch):
        Flag.from_json({"schema": SCHEMA, "kind": "flag", "rows": [["1", "2"], ["3"]]})
    values = [
        {"a": a, "b": b, "c": c, "value": "-1/1"}
        for a, b, c in ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    ]
    with pytest.raises(NonpositiveVariable):
        FGAssignment.from_json({"schema": SCHEMA, "kind": "fg_assignment", "n": 2, "values": values})


@pytest.mark.parametrize("n", [10**9, 1e300, MAX_RANK + 1])
def test_huge_rank_is_refused_up_front(n):
    doc = {"schema": SCHEMA, "kind": "fg_assignment", "n": n, "values": []}
    # a JSON rank that is not an integer is malformed before it is too large
    with pytest.raises(RankOutOfRange if type(n) is int else SchemaError):
        FGAssignment.from_json(doc)
    with pytest.raises(RankOutOfRange):
        FGAssignment(n, {})


@pytest.mark.parametrize("n", [-5, 0, 1])
def test_small_rank_is_refused_up_front(n, monkeypatch):
    def enumerate_keys(n):
        raise AssertionError("keys enumerated before the rank check")

    monkeypatch.setattr(snakes, "side_vertices", enumerate_keys)
    monkeypatch.setattr(snakes, "interior_vertices", enumerate_keys)
    doc = {"schema": SCHEMA, "kind": "fg_assignment", "n": n, "values": []}
    with pytest.raises(RankOutOfRange):
        FGAssignment.from_json(doc)
    with pytest.raises(RankOutOfRange):
        FGAssignment(n, {})


# Documents that decode, each with one field that must hold a JSON integer.
RANK2_VALUES = [
    {"a": a, "b": b, "c": c, "value": "1/1"} for a, b, c in ((1, 1, 0), (0, 1, 1), (1, 0, 1))
]
INTEGER_FIELDS = {
    "fg-rank": (
        FGAssignment.from_json, {"kind": "fg_assignment", "n": 2, "values": RANK2_VALUES}, "n"
    ),
    "lc-rank": (
        LineConfig.from_json, {"kind": "line_config", "n": 2, "lines": {}, "planes": {}}, "n"
    ),
    "tpw-sign": (
        TrianglePathWord.from_json,
        {"kind": "triangle_path_word", "tokens": [["S"]], "sign": -1},
        "sign",
    ),
    "pathword-sign": (
        PathWord.from_json, {"kind": "pathword", "tokens": ["R"], "sign": -1}, "sign"
    ),
}


@pytest.mark.parametrize("case", sorted(INTEGER_FIELDS))
@pytest.mark.parametrize("value", [2.5, -1.5, 2.0, -1.0, "2", "-1", True], ids=repr)
def test_numbers_are_not_coerced(case, value):
    decode, doc, field = INTEGER_FIELDS[case]
    doc = {"schema": SCHEMA, **doc}
    assert decode(doc) is not None
    with pytest.raises((SchemaError, DomainError)):
        decode({**doc, field: value})


@pytest.mark.parametrize("n", [2.5, "3", True])
def test_rank_must_be_an_int(n):
    with pytest.raises(RankOutOfRange):
        FGAssignment(n, {})


@pytest.mark.parametrize("n", [True, False, 3.0], ids=repr)
def test_json_rank_must_be_an_int(n):
    doc = {"schema": SCHEMA, "kind": "fg_assignment", "n": n, "values": RANK2_VALUES}
    surface = {"schema": SCHEMA, "kind": "surface", "triangles": {"t": doc}, "gluings": []}
    for decode, d in ((FGAssignment.from_json, doc), (TriangulatedSurface.from_json, surface)):
        with pytest.raises(SchemaError, match="rank must be a JSON integer"):
            decode(d)


@pytest.mark.parametrize("n", [2.5, 2.0, "2", True], ids=repr)
def test_line_config_rank_must_be_an_int(n):
    with pytest.raises(TypeError):
        LineConfig(n, {}, {})
    doc = {"schema": SCHEMA, "kind": "line_config", "n": n, "lines": {}, "planes": {}}
    with pytest.raises(SchemaError):
        LineConfig.from_json(doc)


@pytest.mark.parametrize(
    "n, lines, planes",
    [
        (-5, {}, {}),
        (0, {}, {}),
        (3, {"9,9,9": ["1/1", "0/1", "0/1"]}, {}),
        (3, {"0,0,2": ["1/1", "0/1", "0/1"], "1,1": ["1/1", "0/1", "0/1"]}, {}),
        (3, {"-1,1,2": ["1/1", "0/1", "0/1"]}, {}),
        (3, {}, {"0,0,2": [["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"]]}),
        (10**9, {"0,0,0": ["1/1"]}, {}),
    ],
    ids=["n-5", "n0", "line-9,9,9", "line-pair", "line-negative", "plane-sum", "huge-n"],
)
def test_line_config_is_keyed_on_the_lattice(n, lines, planes):
    doc = {"schema": SCHEMA, "kind": "line_config", "n": n, "lines": lines, "planes": planes}
    with pytest.raises(DimensionMismatch):
        LineConfig.from_json(doc)


def test_line_config_on_the_lattice_decodes():
    line, plane = ["1/1", "0/1", "0/1"], [["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"]]
    doc = {"schema": SCHEMA, "kind": "line_config", "n": 3,
           "lines": {"0,0,2": line, "2,0,0": line}, "planes": {"0,1,0": plane}}
    assert set(LineConfig.from_json(doc).lines) == {(0, 0, 2), (2, 0, 0)}
    assert LineConfig(1, {(0, 0, 0): (Fraction(1),)}, {}).n == 1
    assert LineConfig(10**9, {}, {}).n == 10**9


@pytest.mark.parametrize("key", ["01,0,0", "+1,0,0", " 1,0,0", "1_0,0,0", "1,0,0,", "-0,1,1"])
def test_line_config_key_has_one_spelling(key):
    line = ["1/1", "0/1", "0/1"]
    doc = {"schema": SCHEMA, "kind": "line_config", "n": 2, "lines": {key: line}, "planes": {}}
    with pytest.raises(SchemaError):
        LineConfig.from_json(doc)
    # the canonical spelling beside it would otherwise decode to the same tile
    with pytest.raises(SchemaError):
        LineConfig.from_json({**doc, "lines": {"1,0,0": line, key: line}})


def test_flag_rows_are_lists():
    doc = {"schema": SCHEMA, "kind": "flag", "rows": [["1", "0"], ["0", "1"]]}
    assert Flag.from_json(doc).n == 2
    with pytest.raises(SchemaError):
        Flag.from_json({**doc, "rows": ["10", "01"]})


@pytest.mark.parametrize(
    "lines, planes",
    [({"0,0,2": "100"}, {}), ({}, {"0,1,0": ["100", "010"]}), ({}, {"0,1,0": "10"})],
    ids=["line-string", "plane-row-strings", "plane-string"],
)
def test_line_config_vectors_are_lists(lines, planes):
    doc = {"schema": SCHEMA, "kind": "line_config", "n": 3, "lines": lines, "planes": planes}
    with pytest.raises(SchemaError):
        LineConfig.from_json(doc)


@pytest.mark.parametrize(
    "lines, planes",
    [
        ({(2, 0, 0): (1, 2, 0), (0, 0, 2): ("x",)}, {}),
        ({(2, 0, 0): (1, 2)}, {}),
        ({(2, 0, 0): (1, 0, 0, 0)}, {}),
        ({(2, 0, 0): (True, 0, 0)}, {}),
        ({(2, 0, 0): (1.0, math.nan, 0.0)}, {}),
        ({(2, 0, 0): "100"}, {}),
        ({(2, 0, 0): 7}, {}),
        ({}, {(0, 1, 0): ((1, 0, 0), (0, 1))}),
        ({}, {(0, 1, 0): ((1, 0, 0), (0, "1", 0))}),
        ({}, {(0, 1, 0): 5}),
    ],
    ids=["x", "short", "long", "bool", "nan", "string", "int", "short-row", "string-entry", "plane-int"],
)
def test_line_config_vectors_have_n_numbers(lines, planes):
    with pytest.raises(DimensionMismatch):
        LineConfig(3, lines, planes)


@pytest.mark.parametrize(
    "lines, planes",
    [({"0,0,2": ["1/1"]}, {}), ({}, {"0,1,0": [["1/1"]]}), ({"2,0,0": ["1/1", "0/1"]}, {})],
    ids=["line", "plane", "line-of-two"],
)
def test_line_config_from_json_checks_lengths(lines, planes):
    doc = {"schema": SCHEMA, "kind": "line_config", "n": 3, "lines": lines, "planes": planes}
    with pytest.raises(DimensionMismatch):
        LineConfig.from_json(doc)


@pytest.mark.parametrize(
    "vertex", [["0/1", "1/1", "9"], ["0/1"], "12"], ids=["three", "one", "string"]
)
def test_polygon_vertex_is_two_scalars(vertex):
    verts = [["0/1", "0/1"], ["2/1", "0/1"], "inf"]
    doc = {"schema": SCHEMA, "kind": "scene",
           "elements": [{"kind": "polygon", "vertices": verts}]}
    assert len(Scene.from_json(doc).elements) == 1
    doc["elements"][0]["vertices"] = [verts[0], vertex, verts[2]]
    with pytest.raises(SchemaError):
        Scene.from_json(doc)


@pytest.mark.parametrize("entry", ["1/2", "0", True, False], ids=repr)
def test_flag_entries_are_not_coerced(entry):
    with pytest.raises(TypeError):
        Flag([[entry, 0], [0, 1]])
    for ok in (2, Fraction(1, 2), 0.5):
        assert Flag([[ok, 0], [0, 1]]).rows[0][0] == ok


@pytest.mark.parametrize("token", [["E", ["s1"]], ["E", "s1", "junk"]], ids=repr)
def test_holonomy_edge_token_is_refused(token, tmp_path):
    gp, wp = tmp_path / "graph.json", tmp_path / "word.json"
    gp.write_text(json.dumps(PANTS.to_json()))
    word = {"schema": SCHEMA, "kind": "pathword", "tokens": [["E", "s1"], "R"]}
    wp.write_text(json.dumps(word))
    assert run_cli(["holonomy", str(gp), str(wp)])[0] == 0
    wp.write_text(json.dumps({**word, "tokens": [token, "R"]}))
    rc, _, err = run_cli(["holonomy", str(gp), str(wp)])
    assert rc == 2 and err.startswith("SchemaError")


def test_holonomy_tokens_are_a_list(tmp_path):
    # a string of letters would otherwise be read as one token per character
    gp, wp = tmp_path / "graph.json", tmp_path / "word.json"
    gp.write_text(json.dumps(PANTS.to_json()))
    wp.write_text(json.dumps({"schema": SCHEMA, "kind": "pathword", "tokens": "RL"}))
    rc, _, err = run_cli(["holonomy", str(gp), str(wp)])
    assert rc == 2 and err.startswith("SchemaError")


@pytest.mark.parametrize("part", [0.9, 0.0, False, "0", None], ids=repr)
def test_fg_assignment_vertex_is_not_coerced(part):
    doc = FGAssignment.constant(3).to_json()
    assert [doc["values"][0][k] for k in "abc"] == [0, 1, 2]
    doc["values"][0]["a"] = part
    with pytest.raises(SchemaError):
        FGAssignment.from_json(doc)
    values = dict(FGAssignment.constant(3).values)
    values[(part, 1, 2)] = values.pop((0, 1, 2))
    with pytest.raises(TypeError):
        FGAssignment(3, values)


def test_fg_assignment_vertex_listed_twice_is_refused():
    doc = FGAssignment.constant(3).to_json()
    doc["values"].append({**doc["values"][0], "value": "2/1"})
    with pytest.raises(SchemaError, match="twice"):
        FGAssignment.from_json(doc)


@pytest.mark.parametrize(
    "token",
    [["T", "t", 1, "no"], ["T", "t", 1, 1], ["T", "t", 1, None], ["T", "t", True, False],
     ["T", "t", 1.0, False], ["T", "t", "1", False], ["T", "t", 4, False]],
    ids=["inverted-string", "inverted-int", "inverted-null", "index-true", "index-float",
         "index-string", "index-4"],
)
def test_triangle_path_word_token_is_not_coerced(token):
    doc = {"schema": SCHEMA, "kind": "triangle_path_word", "tokens": [["T", "t", 1, True]]}
    assert TrianglePathWord.from_json(doc).tokens == (("T", "t", 1, True),)
    with pytest.raises(MalformedWord):
        TrianglePathWord.from_json({**doc, "tokens": [token]})
    with pytest.raises(MalformedWord):
        TrianglePathWord([tuple(token)])
    with pytest.raises(MalformedWord):
        TrianglePathWord([t_token(*token[1:])])


@pytest.mark.parametrize("end", [1.9, True, "1"], ids=repr)
def test_fatgraph_end_is_not_truncated(end, tmp_path):
    gp, wp = tmp_path / "graph.json", tmp_path / "word.json"
    wp.write_text(json.dumps(PANTS_LOOPS["loop1"].to_json()))
    doc = PANTS.to_json()
    gp.write_text(json.dumps(doc))
    assert run_cli(["holonomy", str(gp), str(wp)])[0] == 0
    assert doc["vertices"]["v"][0] == ["s1", 1]
    doc["vertices"]["v"][0][1] = end
    gp.write_text(json.dumps(doc))
    assert run_cli(["holonomy", str(gp), str(wp)])[0] == 2
    with pytest.raises(SchemaError):
        FatGraph.from_json(doc)
    vertices = {v: [tuple(h) for h in hes] for v, hes in doc["vertices"].items()}
    with pytest.raises(TypeError):
        FatGraph(vertices, PANTS.edges)


@pytest.mark.parametrize("flag", ["no", 1, 0, None], ids=repr)
def test_fatgraph_open_is_a_bool(flag, tmp_path):
    # s1 is an internal edge: a truthy non-bool must not make it open, which
    # validate would report as a malformed graph (exit 3)
    gp, wp = tmp_path / "graph.json", tmp_path / "word.json"
    wp.write_text(json.dumps(PANTS_LOOPS["loop1"].to_json()))
    doc = PANTS.to_json()
    assert doc["edges"]["s1"]["open"] is False
    gp.write_text(json.dumps(doc))
    assert run_cli(["holonomy", str(gp), str(wp)])[0] == 0
    doc["edges"]["s1"]["open"] = flag
    gp.write_text(json.dumps(doc))
    assert run_cli(["holonomy", str(gp), str(wp)])[0] == 2
    with pytest.raises(SchemaError):
        FatGraph.from_json(doc)
    with pytest.raises(TypeError):
        EdgeData(Fraction(2), flag)


def test_fatgraph_end_is_0_or_1():
    # a third vertex on ends 2 of the pants edges; without the declared
    # genus and boundary count nothing else notices it
    doc = {**PANTS.to_json(), "genus": None, "boundary": None}
    doc["vertices"]["w"] = [["s1", 2], ["s2", 2], ["s3", 2]]
    with pytest.raises(MalformedGraph):
        FatGraph.from_json(doc)


@pytest.mark.parametrize(
    "text", ["a\u0001b", "\x00", "\x1b[0m", "\ud800", "\ufffe", "\uffff"],
    ids=["soh", "nul", "escape", "surrogate", "fffe", "ffff"],
)
def test_scene_text_must_be_xml(text, tmp_path):
    for field in ("label", "color"):
        with pytest.raises(BadGeometry):
            point(0, 1, **{field: text})
        with pytest.raises(SchemaError):
            element_from_json({"kind": "point", "x": "0", "y": "1", field: text})
        doc = {"schema": SCHEMA, "kind": "scene",
               "elements": [{"kind": "point", "x": "0", "y": "1", field: text}]}
        sp, svg = tmp_path / "scene.json", tmp_path / "scene.svg"
        sp.write_text(json.dumps(doc))
        assert run_cli(["render", str(sp), "--out", str(svg)])[0] == 2
        assert not svg.exists()
    # what XML 1.0 allows outside the ASCII printables still renders
    fine = point(0, 1, label="\t\n\r\u00e9\ud7ff\ue000\ufffd\U0001f600")
    ET.fromstring(render_svg(Scene((fine,))))


@pytest.mark.parametrize("literal", ["1e100000", "1e-100000", "1.5e4300", "1" * 4300 + "e1"])
def test_rational_literal_size_is_bounded(literal):
    with pytest.raises(SchemaError):
        scalar_from_json(literal)


def test_rational_literals_within_the_bound_decode():
    assert scalar_from_json("1e999") == 10**999
    assert scalar_from_json("-2.5e-999") == Fraction(-25, 10**1000)
    assert scalar_from_json(f"1e{MAX_LITERAL_DIGITS - 1}") == 10 ** (MAX_LITERAL_DIGITS - 1)


# -- the CLI entry point --------------------------------------------------------

PANTS, PANTS_LOOPS = pair_of_pants(Fraction(2), Fraction(3), Fraction(5))
TOKENS = ["R", "L", "K", "X", ["E", "s1"], ["Einv", "s2"], ["E", "p3"], ["E", "zz"], ["E"]]


def graph_files():
    """Arbitrary JSON, fat-graph-shaped documents and the valid pants graph."""
    return documents("fatgraph", DECODERS["fatgraph"][2]) | st.just(PANTS.to_json())


def word_files():
    """Arbitrary JSON, path-word-shaped documents and words over the pants letters."""
    words = st.builds(
        lambda tokens, sign: {"schema": SCHEMA, "kind": "pathword", "tokens": tokens, "sign": sign},
        st.lists(st.sampled_from(TOKENS), max_size=6),
        st.sampled_from([1, -1, 0, 1.0]),
    )
    return documents("pathword", DECODERS["pathword"][2]) | words


def run_cli(argv):
    """Run the CLI in process: its exit code, stdout and stderr.

    Any exit code but 0 (success), 2 (malformed input) or 3 (invalid input)
    fails, as does a traceback; an error message starts with the error's name.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc != 0:
        assert err.getvalue().split(":")[0].isidentifier()
    return rc, out.getvalue(), err.getvalue()


def test_holonomy_cli_exit_codes_are_total(tmp_path):
    """`holonomy` on any JSON graph and word exits 0, 2 or 3 and prints no traceback."""
    gp, wp = tmp_path / "graph.json", tmp_path / "word.json"
    seen = set()

    @settings(max_examples=150)
    @given(graph_files(), word_files(), st.sampled_from([[], ["--scalar", "float"]]))
    def check(graph, word, flags):
        gp.write_text(json.dumps(graph))
        wp.write_text(json.dumps(word))
        rc, out, _ = run_cli(["holonomy", str(gp), str(wp), *flags])
        if rc == 0:
            assert json.loads(out)["kind"] == "holonomy_result"
        seen.add(rc)

    check()
    assert seen == {0, 2, 3}


# Scalars a scene element may carry: JSON values, rational literals near and
# past the float range, and the boundary point "inf".
COORDS = JSON | st.sampled_from(
    ["inf", "1e308", "-1e309", "1e-320", "1e999", "2/3", 1e308, -1e-300, 0.5, 3]
)
ELEMENTS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["geodesic", "horocycle", "circle", "point", "polygon"])},
    optional={
        **{f: COORDS for f in ("p", "q", "base", "size", "x", "y", "r")},
        "vertices": st.lists(st.just("inf") | st.lists(COORDS, max_size=3), max_size=5),
        "color": st.text(max_size=3) | JSON,
        "label": st.text(max_size=3) | JSON | st.sampled_from(["\ud800", "a\u0001b"]),
    },
)


def scene_files():
    """Arbitrary JSON, scene-shaped documents and the valid pants scene."""
    scenes = st.builds(
        lambda els: {"schema": SCHEMA, "kind": "scene", "elements": els},
        st.lists(ELEMENTS, max_size=4),
    )
    pants = pants_scene(Fraction(2), Fraction(3), Fraction(5)).to_json()
    return documents("scene", DECODERS["scene"][2]) | scenes | st.just(pants)


def test_render_cli_exit_codes_are_total(tmp_path):
    """`render` of any JSON scene, to a writable path or not, exits 0, 2 or 3."""
    sp, svg = tmp_path / "scene.json", tmp_path / "scene.svg"
    seen = set()

    control = {"kind": "point", "x": "0", "y": "1", "label": "a\u0001b"}

    @settings(max_examples=150)
    @given(scene_files(), st.sampled_from([svg, tmp_path / "missing" / "x.svg"]))
    @example({"schema": SCHEMA, "kind": "scene", "elements": [control]}, svg)
    def check(scene, out):
        sp.write_text(json.dumps(scene))
        rc, _, _ = run_cli(["render", str(sp), "--out", str(out)])
        if rc == 0:
            assert ET.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"
            svg.unlink()
        seen.add(rc)

    check()
    assert seen == {0, 2}


LITERALS = st.sampled_from(
    ["2", "3/7", "1", "0", "-2", "1e-160", "1e160", "1e-400", "1e999", "9e4299",
     "1e4299", "1e100000", "2/x", "nan", "inf", "1/0", "", "0x10", "1_000"]
) | st.text(alphabet="0123456789e-/.", min_size=1, max_size=6)


def test_pants_scene_cli_exit_codes_are_total(tmp_path):
    """`pants-scene` on any short literals exits 0, 2 or 3 and prints no traceback."""
    seen = set()

    @settings(max_examples=150)
    @given(
        st.lists(LITERALS, min_size=3, max_size=3),
        st.sampled_from([[], ["--out", str(tmp_path / "missing" / "x.json")]]),
    )
    def check(literals, flags):
        rc, out, _ = run_cli(["pants-scene", *flags, "--", *literals])
        if rc == 0:
            assert json.loads(out)["kind"] == "scene"
        seen.add(rc)

    check()
    assert seen == {0, 2, 3}
