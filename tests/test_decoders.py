"""Every from_json is total: any JSON value decodes to an object or raises
SchemaError (malformed document) or DomainError (well formed, mathematically
invalid), so the CLI's exit codes 2 and 3 mean what they say."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from teichkit.encode import SCHEMA
from teichkit.errors import DomainError, SchemaError
from teichkit.fatgraph import FatGraph, PathWord
from teichkit.flags import Flag, LineConfig, SingularFlag
from teichkit.scene import Scene
from teichkit.snakes import FGAssignment, NonpositiveVariable
from teichkit.surface import TrianglePathWord, TriangulatedSurface

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

# Numbers stay small: FGAssignment enumerates O(n^2) keys for its rank n,
# so a huge n (1e300 as well as 10**9) is a question of bounded work, not of
# totality.  Python's json module also parses NaN and Infinity.
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 9)
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

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
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
    ],
    ids=[
        "flag-rows-int",
        "flag-rows-missing",
        "fg-n-string",
        "fatgraph-end-string",
        "line-key",
        "line-n-infinity",
    ],
)
def test_structural_failure_is_schema_error(decode, doc):
    with pytest.raises(SchemaError):
        decode({"schema": SCHEMA, **doc})


def test_domain_errors_pass_through():
    with pytest.raises(SingularFlag):
        Flag.from_json({"schema": SCHEMA, "kind": "flag", "rows": [["1", "2"], ["2", "4"]]})
    values = [
        {"a": a, "b": b, "c": c, "value": "-1/1"}
        for a, b, c in ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    ]
    with pytest.raises(NonpositiveVariable):
        FGAssignment.from_json({"schema": SCHEMA, "kind": "fg_assignment", "n": 2, "values": values})
