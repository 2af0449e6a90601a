import json
import random
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from teichkit.encode import SCHEMA, scalar_from_json
from teichkit.errors import DomainError, SchemaError
from teichkit.fatgraph import four_holed_sphere, fricke_value, trace_coordinates
from teichkit.flags import interior_vertices
from teichkit.laurent import LaurentRing
from teichkit.linalg import adjugate, det, is_scalar_matrix, mat_mul, mat_prod, mat_scale, proj_eq
from teichkit.snakes import FGAssignment, elem_s, side_vertices, transport
from teichkit.surface import (
    S_TOKEN,
    MalformedWord,
    NotAPerfectSquare,
    NotGlued,
    SideAlreadyGlued,
    TriangulatedSurface,
    TrianglePathWord,
    UnknownSide,
    UnknownTriangle,
    amalgamation_classes,
    amalgamated_products,
    cylinder_three_triangle,
    cylinder_two_cusps,
    four_holed_sphere_fg,
    path_matrix,
    side_vertex,
    sl2_lift,
    t_token,
    trace_k,
    unamalgamate,
)

GOLDEN = Path(__file__).parent / "golden"


def rand_assignment(n, rng):
    keys = side_vertices(n) + interior_vertices(n)
    return FGAssignment(
        n, {k: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for k in keys}
    )


def two_triangle_surface(n, assignments):
    """L and R glued along their 12 sides; the basic crossing word."""
    surf = TriangulatedSurface(
        {"L": assignments["t"], "R": assignments["b"]}, [(("L", "12"), ("R", "12"))]
    )
    return surf, {"arc": TrianglePathWord([t_token("L", 1), "S", t_token("R", 2)])}


def two_triangle(n, rng):
    surf, words = two_triangle_surface(
        n, {"t": rand_assignment(n, rng), "b": rand_assignment(n, rng)}
    )
    return surf, words["arc"]


# -- path words against the dense product ---------------------------------------

WORKED = {
    "two_triangle": (two_triangle_surface, "tb"),
    "cylinder_two_cusps": (cylinder_two_cusps, "tb"),
    "cylinder_three_triangle": (cylinder_three_triangle, "tb"),
    "four_holed_sphere_fg": (four_holed_sphere_fg, "lrdc"),
}
POSITIVE = st.fractions(Fraction(1, 9), 9, max_denominator=9)
SYMBOLS = LaurentRing("x", "y", "z")


def dense_path_matrix(surf, word):
    """Reference: the dense product of transports, cofactor adjugates and S."""
    n = surf.n
    factors = []
    for t in word.tokens:
        if t == S_TOKEN:
            factors.append(elem_s(n))
        else:
            _, tri, i, inverted = t
            m = transport(n, i, surf.triangles[tri])
            factors.append(adjugate(m) if inverted else m)
    out = mat_prod(factors, n)
    return mat_scale(-1, out) if word.sign == -1 else out


@st.composite
def worked_surfaces(draw, scalars="rational", max_n=4, kinds=tuple(WORKED)):
    """(surface, words) of a worked surface at rank n <= max_n, with rational,
    Laurent or float values."""
    n = draw(st.integers(2, max_n))
    build, names = WORKED[draw(st.sampled_from(kinds))]
    keys = side_vertices(n) + interior_vertices(n)
    if scalars == "laurent":
        values = POSITIVE | st.sampled_from(SYMBOLS.gens())
    elif scalars == "float":
        values = st.floats(0.1, 5.0)
    else:
        values = POSITIVE
    assignments = {
        name: FGAssignment(
            n, dict(zip(keys, draw(st.lists(values, min_size=len(keys), max_size=len(keys)))))
        )
        for name in names
    }
    return build(n, assignments)


@st.composite
def path_words(draw, surf):
    """Any alternating word over the surface's triangles, inverted transports included."""
    tris = sorted(surf.triangles)
    t_tokens = st.builds(t_token, st.sampled_from(tris), st.integers(1, 3), st.booleans())
    kind = draw(st.booleans())
    tokens = []
    for _ in range(draw(st.integers(1, 6))):
        tokens.append(draw(t_tokens) if kind else "S")
        kind = not kind
    return TrianglePathWord(tokens, draw(st.sampled_from([1, -1])))


def same_entries(a, b):
    return a == b and all(type(x) is type(y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


class TestPathMatrixAgainstDenseProduct:
    """path_matrix runs one column-operation word; the reference multiplies densely."""

    @settings(max_examples=60)
    @given(st.data())
    def test_rational(self, data):
        surf, _ = data.draw(worked_surfaces("rational"))
        word = data.draw(path_words(surf))
        got = path_matrix(surf, word)
        assert same_entries(got, dense_path_matrix(surf, word))
        assert all(type(x) is Fraction for row in got for x in row)

    @settings(max_examples=25)
    @given(st.data())
    def test_laurent(self, data):
        surf, _ = data.draw(worked_surfaces("laurent", max_n=3))
        word = data.draw(path_words(surf))
        assert same_entries(path_matrix(surf, word), dense_path_matrix(surf, word))

    @settings(max_examples=60)
    @given(st.data())
    def test_float(self, data):
        surf, _ = data.draw(worked_surfaces("float"))
        word = data.draw(path_words(surf))
        got, want = path_matrix(surf, word), dense_path_matrix(surf, word)
        scale = max(abs(x) for row in want for x in row)
        for ra, rb in zip(got, want):
            for x, y in zip(ra, rb):
                assert type(x) is type(y) and abs(x - y) <= 1e-12 * scale


@settings(max_examples=60)
@given(st.data())
def test_amalgamated_class_rescale_is_inert(data):
    """Rescaling both members of an amalgamated class by t and 1/t leaves every
    path matrix without an inverted transport exactly unchanged, and the others
    exactly unchanged at n = 2 and projectively at every n."""
    kinds = ("two_triangle", "cylinder_two_cusps", "cylinder_three_triangle")
    surf, words = data.draw(worked_surfaces(kinds=kinds))
    n = surf.n
    (t1, v1), (t2, v2) = data.draw(st.sampled_from(amalgamation_classes(surf)["amalgamated"]))
    t = data.draw(POSITIVE)
    moved = surf.with_value(t1, v1, surf.triangles[t1][v1] * t)
    moved = moved.with_value(t2, v2, moved.triangles[t2][v2] / t)
    for word in words.values():
        before, after = path_matrix(surf, word), path_matrix(moved, word)
        if n == 2 or not any(tok[0] == "T" and tok[3] for tok in word.tokens):
            assert after == before
        else:
            assert proj_eq(after, before)


def _changes(surf, rng):
    """Change lists for one worked surface: each amalgamated pair rescaled by t
    and 1/t, one variable set twice, and one change on every triangle."""
    out = []
    for (t1, v1), (t2, v2) in amalgamation_classes(surf)["amalgamated"]:
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        out.append([(t1, v1, surf.triangles[t1][v1] * t), (t2, v2, surf.triangles[t2][v2] / t)])
    v = side_vertex(surf.n, "31", 1)
    tri = sorted(surf.triangles)[0]
    out.append([(tri, v, Fraction(2)), (tri, list(v), Fraction(3))])
    out.append([(t, side_vertex(surf.n, "12", 1), Fraction(5 + i)) for i, t in enumerate(surf.triangles)])
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", sorted(WORKED))
def test_one_rebuild_equals_chained_with_value(kind, n):
    """Several changes at once give the surface that chained with_value calls
    give: the same values and gluings, and the same assignment objects shared
    between triangles and kept from the original."""
    build, names = WORKED[kind]
    rng = random.Random(40 + n)
    surf, _ = build(n, {name: rand_assignment(n, rng) for name in names})
    tris = sorted(surf.triangles)
    for changes in _changes(surf, rng):
        chained = surf
        for tri, v, value in changes:
            chained = chained.with_value(tri, v, value)
        got = surf._with_values(changes)
        assert got == chained and got.gluings == chained.gluings
        for a in tris:
            assert (got.triangles[a] is surf.triangles[a]) == (chained.triangles[a] is surf.triangles[a])
            for b in tris:
                shared = chained.triangles[a] is chained.triangles[b]
                assert (got.triangles[a] is got.triangles[b]) == shared


def _side_position(v):
    """The side a non-corner side vertex lies on, and its position k along it."""
    a, b, c = v
    return ("12", b) if c == 0 else ("23", c) if a == 0 else ("31", a)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", sorted(WORKED))
def test_amalgamation_classes_definition(kind, n):
    """The classes partition every variable of every triangle, and each
    amalgamated pair joins position k of a glued side with position n-k of
    its partner, one pair per position of every gluing."""
    build, names = WORKED[kind]
    surf, _ = build(n, {name: FGAssignment.constant(n) for name in names})
    cls = amalgamation_classes(surf)
    listed = [v for pair in cls["amalgamated"] for v in pair]
    listed += [*cls["free"], *cls["interior"]]
    assert sorted(listed) == sorted((t, v) for t, a in surf.triangles.items() for v in a.values)
    assert len(cls["amalgamated"]) == (n - 1) * len(surf.gluings)
    for (t1, v1), (t2, v2) in cls["amalgamated"]:
        (s1, k1), (s2, k2) = _side_position(v1), _side_position(v2)
        assert surf.glued_partner(t1, s1) == (t2, s2)
        assert k1 + k2 == n


class TestSideVertex:
    def test_maps(self):
        assert side_vertex(3, "12", 1) == (2, 1, 0)
        assert side_vertex(3, "12", 2) == (1, 2, 0)
        assert side_vertex(3, "23", 1) == (0, 2, 1)
        assert side_vertex(3, "31", 2) == (2, 0, 1)

    def test_position_walks_the_side(self):
        # position k is distance k from the side's first corner
        assert [side_vertex(4, "23", k) for k in (1, 2, 3)] == [
            (0, 3, 1), (0, 2, 2), (0, 1, 3)
        ]

    def test_bad_side(self):
        with pytest.raises(UnknownSide):
            side_vertex(3, "13", 1)

    def test_bad_position(self):
        with pytest.raises(UnknownSide):
            side_vertex(3, "12", 3)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_sides_are_the_definition(self, n):
        # side 12 at position k is (n-k, k, 0); sides 23 and 31 are it rotated
        # once and twice, and side_vertices lists the three per k
        sides = {"12": lambda k: (n - k, k, 0), "23": lambda k: (0, n - k, k),
                 "31": lambda k: (k, 0, n - k)}
        for side, at in sides.items():
            assert [side_vertex(n, side, k) for k in range(1, n)] == [at(k) for k in range(1, n)]
        assert side_vertices(n) == [at(k) for k in range(1, n) for at in sides.values()]


class TestSurface:
    def test_partner_and_open_sides(self):
        rng = random.Random(1)
        surf, _ = two_triangle(3, rng)
        assert surf.glued_partner("L", "12") == ("R", "12")
        assert surf.glued_partner("R", "12") == ("L", "12")
        assert surf.glued_partner("L", "23") is None
        assert surf.open_sides() == (
            ("L", "23"), ("L", "31"), ("R", "23"), ("R", "31")
        )

    def test_double_gluing_rejected(self):
        rng = random.Random(2)
        L, R = rand_assignment(2, rng), rand_assignment(2, rng)
        with pytest.raises(SideAlreadyGlued):
            TriangulatedSurface(
                {"L": L, "R": R},
                [(("L", "12"), ("R", "12")), (("L", "12"), ("R", "23"))],
            )

    def test_side_glued_to_itself_rejected(self):
        rng = random.Random(3)
        L = rand_assignment(2, rng)
        with pytest.raises(SideAlreadyGlued):
            TriangulatedSurface({"L": L}, [(("L", "12"), ("L", "12"))])

    def test_self_gluing_distinct_sides_ok(self):
        rng = random.Random(4)
        L = rand_assignment(2, rng)
        surf = TriangulatedSurface({"L": L}, [(("L", "12"), ("L", "31"))])
        assert surf.glued_partner("L", "12") == ("L", "31")

    def test_unknown_triangle_in_gluing(self):
        rng = random.Random(5)
        L = rand_assignment(2, rng)
        with pytest.raises(UnknownTriangle):
            TriangulatedSurface({"L": L}, [(("L", "12"), ("M", "12"))])

    def test_mixed_ranks_rejected(self):
        rng = random.Random(6)
        with pytest.raises(UnknownTriangle):
            TriangulatedSurface(
                {"a": rand_assignment(2, rng), "b": rand_assignment(3, rng)}
            )

    def test_immutable(self):
        rng = random.Random(7)
        surf, _ = two_triangle(2, rng)
        with pytest.raises(AttributeError):
            surf.n = 5

    def test_with_value_rebuilds_shared_copies(self):
        top = rand_assignment(3, random.Random(8))
        surf = TriangulatedSurface({"l": top, "r": top})
        v = side_vertex(3, "12", 1)
        out = surf.with_value("l", v, Fraction(7))
        # l and r share one assignment, so the copy must change too
        assert out.triangles["r"][v] == Fraction(7)
        assert surf.triangles["l"][v] == top[v]

    def test_with_value_does_not_truncate_the_vertex(self):
        surf = TriangulatedSurface({"l": rand_assignment(3, random.Random(8))})
        with pytest.raises(UnknownSide):
            surf.with_value("l", (2.5, 1, 0), Fraction(7))

    def test_json_round_trip(self):
        rng = random.Random(9)
        surf, _ = two_triangle(3, rng)
        doc = surf.to_json()
        assert doc["schema"] == SCHEMA and doc["kind"] == "surface"
        assert [tuple(map(tuple, g)) for g in doc["gluings"]] == list(surf.gluings)
        assert TriangulatedSurface.from_json(doc) == surf

    def test_json_wrong_kind(self):
        with pytest.raises(SchemaError):
            TriangulatedSurface.from_json({"schema": SCHEMA, "kind": "surf"})

    def test_assignment_by_id(self):
        surf, _ = two_triangle(2, random.Random(15))
        assert surf.assignment("L") is surf.triangles["L"]

    @pytest.mark.parametrize("call", [
        lambda s: s.assignment("Z"),
        lambda s: s.glued_partner("Z", "12"),
        lambda s: s.with_value("Z", (1, 1, 0), Fraction(2)),
    ], ids=["assignment", "glued_partner", "with_value"])
    def test_unknown_triangle_is_refused(self, call):
        surf, _ = two_triangle(2, random.Random(16))
        with pytest.raises(UnknownTriangle, match="^no triangle 'Z'$"):
            call(surf)

    def test_bad_side_in_gluing(self):
        L = rand_assignment(2, random.Random(17))
        with pytest.raises(UnknownSide, match="side must be one of"):
            TriangulatedSurface({"L": L}, [(("L", "12"), ("L", "13"))])


class TestPathWord:
    def test_alternation_enforced(self):
        with pytest.raises(MalformedWord):
            TrianglePathWord(["S", "S"])
        with pytest.raises(MalformedWord):
            TrianglePathWord([t_token("a", 1), t_token("a", 2)])
        with pytest.raises(MalformedWord):
            TrianglePathWord([])

    def test_leading_and_trailing_s_allowed(self):
        w = TrianglePathWord(["S", t_token("a", 1), "S"])
        assert w.tokens == (("S",), ("T", "a", 1, False), ("S",))

    def test_bad_transport_index(self):
        with pytest.raises(MalformedWord):
            TrianglePathWord([("T", "a", 4, False)])

    def test_bad_sign(self):
        with pytest.raises(MalformedWord):
            TrianglePathWord(["S"], sign=2)

    def test_inverse_reverses_and_flips(self):
        w = TrianglePathWord(["S", t_token("a", 1), "S", t_token("b", 2, True)])
        assert w.inverse().tokens == (
            ("T", "b", 2, False), ("S",), ("T", "a", 1, True), ("S",)
        )

    def test_repr_and_triangles(self):
        w = TrianglePathWord(["S", t_token("b", 1), "S", t_token("a", 2, True)], sign=-1)
        assert repr(w) == "-S.T1(b).S.T2(a)'"
        assert repr(w.inverse()) == "-T2(a).S.T1(b)'.S"
        assert w.triangles() == ("a", "b")

    def test_json_round_trip(self):
        w = TrianglePathWord([t_token("a", 3, True), "S"], sign=-1)
        doc = w.to_json()
        assert doc["kind"] == "triangle_path_word"
        assert TrianglePathWord.from_json(doc) == w

    def test_single_transport_is_the_transport(self):
        rng = random.Random(10)
        a = rand_assignment(3, rng)
        surf = TriangulatedSurface({"a": a})
        w = TrianglePathWord([t_token("a", 2)])
        assert path_matrix(surf, w) == transport(3, 2, a)

    def test_word_times_inverse_is_scalar(self):
        rng = random.Random(11)
        surf, words = cylinder_two_cusps(3, {
            "t": rand_assignment(3, rng), "b": rand_assignment(3, rng)
        })
        w = words["loop"]
        m = mat_mul(path_matrix(surf, w), path_matrix(surf, w.inverse()))
        assert is_scalar_matrix(m) is not None

    def test_unknown_triangle(self):
        rng = random.Random(12)
        surf, _ = two_triangle(2, rng)
        with pytest.raises(UnknownTriangle):
            path_matrix(surf, TrianglePathWord([t_token("Z", 1)]))

    def test_path_matrix_wants_a_word(self):
        rng = random.Random(13)
        surf, _ = two_triangle(2, rng)
        with pytest.raises(MalformedWord):
            path_matrix(surf, ["S"])

    def test_sign_carried(self):
        rng = random.Random(14)
        a = rand_assignment(2, rng)
        surf = TriangulatedSurface({"a": a})
        plus = path_matrix(surf, TrianglePathWord([t_token("a", 1)]))
        minus = path_matrix(surf, TrianglePathWord([t_token("a", 1)], sign=-1))
        assert minus == tuple(tuple(-x for x in row) for row in plus)


class TestTwoTriangleAmalgamation:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_invariance(self, n):
        rng = random.Random(20 + n)
        surf, word = two_triangle(n, rng)
        m0 = path_matrix(surf, word)
        for k in range(1, n):
            t = Fraction(rng.randint(2, 7), rng.randint(1, 5))
            va, vb = side_vertex(n, "12", k), side_vertex(n, "12", n - k)
            moved = surf.with_value(
                "L", va, surf.triangles["L"][va] * t
            ).with_value("R", vb, surf.triangles["R"][vb] / t)
            assert path_matrix(moved, word) == m0

    @pytest.mark.parametrize("n", [2, 3])
    def test_free_pinning_witness(self, n):
        # the word enters through L's 31 side: its pinnings matter
        rng = random.Random(30 + n)
        surf, word = two_triangle(n, rng)
        m0 = path_matrix(surf, word)
        v = side_vertex(n, "31", 1)
        moved = surf.with_value("L", v, surf.triangles["L"][v] * 2)
        assert not proj_eq(path_matrix(moved, word), m0)

    def test_side_not_entered_is_inert(self):
        # L's 23 side appears nowhere in T1(L) S T2(R)
        rng = random.Random(35)
        surf, word = two_triangle(3, rng)
        m0 = path_matrix(surf, word)
        v = side_vertex(3, "23", 1)
        moved = surf.with_value("L", v, surf.triangles["L"][v] * 2)
        assert path_matrix(moved, word) == m0

    def test_class_partition_n3(self):
        rng = random.Random(36)
        surf, _ = two_triangle(3, rng)
        cls = amalgamation_classes(surf)
        assert cls["amalgamated"] == (
            (("L", (1, 2, 0)), ("R", (2, 1, 0))),
            (("L", (2, 1, 0)), ("R", (1, 2, 0))),
        )
        assert len(cls["free"]) == 8
        assert cls["interior"] == (("L", (1, 1, 1)), ("R", (1, 1, 1)))

    def test_products(self):
        rng = random.Random(37)
        surf, _ = two_triangle(3, rng)
        prods = amalgamated_products(surf)
        for ((t1, v1), (t2, v2)), p in prods.items():
            assert p == surf.triangles[t1][v1] * surf.triangles[t2][v2]

    def test_no_gluings_all_free(self):
        rng = random.Random(38)
        a = rand_assignment(3, rng)
        cls = amalgamation_classes(TriangulatedSurface({"a": a}))
        assert cls["amalgamated"] == ()
        assert len(cls["free"]) == 6
        assert len(cls["interior"]) == 1


class TestCylinder:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_class_counts(self, n):
        rng = random.Random(40 + n)
        surf, _ = cylinder_two_cusps(n, {
            "t": rand_assignment(n, rng), "b": rand_assignment(n, rng)
        })
        cls = amalgamation_classes(surf)
        assert len(cls["amalgamated"]) == 2 * (n - 1)
        assert len(cls["free"]) == 2 * (n - 1)
        assert len(cls["interior"]) == (n - 1) * (n - 2)

    def test_open_sides_are_the_cusp_edges(self):
        rng = random.Random(44)
        surf, _ = cylinder_two_cusps(3, {
            "t": rand_assignment(3, rng), "b": rand_assignment(3, rng)
        })
        assert surf.open_sides() == (("b", "12"), ("t", "12"))

    @pytest.mark.parametrize("n", [2, 3])
    def test_projective_invariance_all_classes(self, n):
        rng = random.Random(50 + n)
        surf, words = cylinder_two_cusps(n, {
            "t": rand_assignment(n, rng), "b": rand_assignment(n, rng)
        })
        base = {k: path_matrix(surf, w) for k, w in words.items()}
        for pair in amalgamation_classes(surf)["amalgamated"]:
            (t1, v1), (t2, v2) = pair
            t = Fraction(rng.randint(2, 9), rng.randint(1, 4))
            moved = surf.with_value(
                t1, v1, surf.triangles[t1][v1] * t
            ).with_value(t2, v2, surf.triangles[t2][v2] / t)
            for k, w in words.items():
                assert proj_eq(path_matrix(moved, w), base[k])

    def test_exact_invariance_n2(self):
        rng = random.Random(52)
        surf, words = cylinder_two_cusps(2, {
            "t": rand_assignment(2, rng), "b": rand_assignment(2, rng)
        })
        base = {k: path_matrix(surf, w) for k, w in words.items()}
        for pair in amalgamation_classes(surf)["amalgamated"]:
            (t1, v1), (t2, v2) = pair
            moved = surf.with_value(
                t1, v1, surf.triangles[t1][v1] * 3
            ).with_value(t2, v2, surf.triangles[t2][v2] / 3)
            for k, w in words.items():
                assert path_matrix(moved, w) == base[k]

    def test_loop_word_scales_at_n3(self):
        # arcs stay exactly equal under every class rescale; the loop stays
        # projectively equal but picks up a scalar for at least one class
        rng = random.Random(53)
        surf, words = cylinder_two_cusps(3, {
            "t": rand_assignment(3, rng), "b": rand_assignment(3, rng)
        })
        base = {k: path_matrix(surf, w) for k, w in words.items()}
        loop_moved = []
        for (t1, v1), (t2, v2) in amalgamation_classes(surf)["amalgamated"]:
            moved = surf.with_value(
                t1, v1, surf.triangles[t1][v1] * 2
            ).with_value(t2, v2, surf.triangles[t2][v2] / 2)
            assert path_matrix(moved, words["arc1"]) == base["arc1"]
            assert path_matrix(moved, words["arc2"]) == base["arc2"]
            m = path_matrix(moved, words["loop"])
            assert proj_eq(m, base["loop"])
            loop_moved.append(m != base["loop"])
        assert any(loop_moved)

    def test_free_pinning_changes_every_word(self):
        rng = random.Random(54)
        surf, words = cylinder_two_cusps(3, {
            "t": rand_assignment(3, rng), "b": rand_assignment(3, rng)
        })
        v = side_vertex(3, "12", 1)
        moved = surf.with_value("t", v, surf.triangles["t"][v] * 3)
        for k, w in words.items():
            assert not proj_eq(path_matrix(moved, w), path_matrix(surf, w))

    def test_depends_only_on_products(self):
        # move each amalgamated value fully onto its first member
        rng = random.Random(55)
        surf, words = cylinder_two_cusps(3, {
            "t": rand_assignment(3, rng), "b": rand_assignment(3, rng)
        })
        base = {k: path_matrix(surf, w) for k, w in words.items()}
        moved = surf
        for (t1, v1), (t2, v2) in amalgamation_classes(surf)["amalgamated"]:
            prod = surf.triangles[t1][v1] * surf.triangles[t2][v2]
            moved = moved.with_value(t1, v1, prod).with_value(t2, v2, Fraction(1))
        for k, w in words.items():
            assert proj_eq(path_matrix(moved, w), base[k])

    def test_interior_variable_matters(self):
        rng = random.Random(56)
        surf, words = cylinder_two_cusps(3, {
            "t": rand_assignment(3, rng), "b": rand_assignment(3, rng)
        })
        moved = surf.with_value("t", (1, 1, 1), surf.triangles["t"][(1, 1, 1)] * 5)
        assert any(
            not proj_eq(path_matrix(moved, w), path_matrix(surf, w))
            for w in words.values()
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_three_triangle_harness_matches(self, n):
        rng = random.Random(60 + n)
        A = {"t": rand_assignment(n, rng), "b": rand_assignment(n, rng)}
        surf, words = cylinder_two_cusps(n, A)
        surf3, words3 = cylinder_three_triangle(n, A)
        assert set(words3) == set(words)
        for k in words:
            assert path_matrix(surf3, words3[k]) == path_matrix(surf, words[k])

    @pytest.mark.parametrize("n", [2, 3])
    def test_all_ones_golden(self, n):
        with open(GOLDEN / f"cylinder_ones_n{n}.json") as fh:
            doc = json.load(fh)
        A = {"t": FGAssignment.constant(n), "b": FGAssignment.constant(n)}
        surf, words = cylinder_two_cusps(n, A)
        for k, rows in doc["words"].items():
            want = tuple(tuple(scalar_from_json(x) for x in row) for row in rows)
            assert path_matrix(surf, words[k]) == want


class TestFourHoledSphere:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_variable_count(self, n):
        rng = random.Random(70 + n)
        surf, _ = four_holed_sphere_fg(n, {
            k: rand_assignment(n, rng) for k in ("l", "r", "d", "c")
        })
        cls = amalgamation_classes(surf)
        total = len(cls["amalgamated"]) + len(cls["free"]) + len(cls["interior"])
        assert total == 2 * (n * n - 1)
        assert cls["free"] == ()

    def test_every_side_glued(self):
        rng = random.Random(74)
        surf, _ = four_holed_sphere_fg(2, {
            k: rand_assignment(2, rng) for k in ("l", "r", "d", "c")
        })
        assert surf.open_sides() == ()
        assert len(surf.gluings) == 6

    def test_signs_stored(self):
        rng = random.Random(75)
        _, words = four_holed_sphere_fg(2, {
            k: rand_assignment(2, rng) for k in ("l", "r", "d", "c")
        })
        assert [words[f"loop{i}"].sign for i in (1, 2, 3, 4)] == [-1, -1, -1, 1]

    @pytest.mark.parametrize("n", [2, 3])
    def test_loop_product_scalar(self, n):
        for seed in range(3):
            rng = random.Random(80 + 10 * n + seed)
            surf, words = four_holed_sphere_fg(n, {
                k: rand_assignment(n, rng) for k in ("l", "r", "d", "c")
            })
            prod = path_matrix(surf, words["loop1"])
            for k in ("loop2", "loop3", "loop4"):
                prod = mat_mul(prod, path_matrix(surf, words[k]))
            assert is_scalar_matrix(prod) is not None

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_loop1_spectrum_is_the_layer_products(self, n, seed):
        # loop1 goes once round the hole at r's corner (n, 0, 0), whose sides
        # 12 and 31 are glued to each other.  Its eigenvalues are lambda_k =
        # lambda P_1 ... P_k for k = 0..n-1, P_a the product of r's values on
        # the layer of first coordinate a: each eigenvalue is the one before
        # times the next layer's product.  The characteristic polynomial is
        # compared at n + 1 points, so multiplicities count too.
        rng = random.Random(1000 * n + seed)
        assignments = {k: rand_assignment(n, rng) for k in ("l", "r", "d", "c")}
        surf, words = four_holed_sphere_fg(n, assignments)
        m = path_matrix(surf, words["loop1"])
        r = assignments["r"].values
        layers = [prod(v for key, v in r.items() if key[0] == a) for a in range(1, n)]
        ratios = [prod(layers[:k]) for k in range(n)]
        lam = sum(m[i][i] for i in range(n)) / sum(ratios)
        for x in (Fraction(2 * t + 1, 3) for t in range(n + 1)):
            char = det([[x * (i == j) - m[i][j] for j in range(n)] for i in range(n)])
            assert char == prod(x - lam * q for q in ratios)


class TestUnamalgamate:
    def _cyl(self, seed=90):
        rng = random.Random(seed)
        return cylinder_two_cusps(3, {
            "t": rand_assignment(3, rng), "b": rand_assignment(3, rng)
        })

    def test_removes_gluing_and_opens_sides(self):
        surf, _ = self._cyl()
        torn = unamalgamate(surf, ("t", "31"), ("b", "23"))
        assert torn.glued_partner("t", "31") is None
        assert set(torn.open_sides()) == set(surf.open_sides()) | {
            ("t", "31"), ("b", "23")
        }

    def test_not_glued(self):
        surf, _ = self._cyl()
        with pytest.raises(NotGlued):
            unamalgamate(surf, ("t", "12"), ("b", "12"))

    def test_default_split_moves_product_left(self):
        surf, _ = self._cyl()
        torn = unamalgamate(surf, ("t", "31"), ("b", "23"))
        for k in (1, 2):
            va, vb = side_vertex(3, "31", k), side_vertex(3, "23", 3 - k)
            assert torn.triangles["t"][va] == (
                surf.triangles["t"][va] * surf.triangles["b"][vb]
            )
            assert torn.triangles["b"][vb] == 1

    def test_custom_split_validated(self):
        surf, _ = self._cyl()
        with pytest.raises(DomainError):
            unamalgamate(
                surf, ("t", "31"), ("b", "23"),
                {1: (Fraction(1), Fraction(1))},
            )

    @pytest.mark.parametrize("value", [5, (1, 2, 3), (Fraction(1),), "ab"], ids=repr)
    def test_split_value_must_be_a_pair(self, value):
        surf, _ = self._cyl()
        with pytest.raises(DomainError, match="must be a pair"):
            unamalgamate(surf, ("t", "31"), ("b", "23"), {1: value})

    def test_custom_split_installed(self):
        surf, _ = self._cyl()
        va, vb = side_vertex(3, "31", 1), side_vertex(3, "23", 2)
        prod = surf.triangles["t"][va] * surf.triangles["b"][vb]
        torn = unamalgamate(
            surf, ("t", "31"), ("b", "23"), {1: (prod * 2, Fraction(1, 2))}
        )
        assert torn.triangles["t"][va] == prod * 2
        assert torn.triangles["b"][vb] == Fraction(1, 2)

    @pytest.mark.parametrize("k", [0, 3, "1", True], ids=repr)
    def test_unknown_split_position_refused(self, k):
        # a key naming no position of the side, even one equal to 1, is refused
        # rather than ignored or read as a position
        surf, _ = self._cyl()
        va, vb = side_vertex(3, "31", 1), side_vertex(3, "23", 2)
        prod = surf.triangles["t"][va] * surf.triangles["b"][vb]
        with pytest.raises(UnknownSide, match="split position"):
            unamalgamate(surf, ("t", "31"), ("b", "23"), {k: (prod, Fraction(1))})

    def test_reglue_recovers_products(self):
        surf, _ = self._cyl()
        before = set(amalgamated_products(surf).values())
        back = unamalgamate(surf, ("t", "31"), ("b", "23")).glue(
            ("t", "31"), ("b", "23")
        )
        assert back.gluings == surf.gluings
        assert set(amalgamated_products(back).values()) == before

    def test_identity_split_round_trips(self):
        surf, _ = self._cyl()
        split = {}
        for k in (1, 2):
            va, vb = side_vertex(3, "31", k), side_vertex(3, "23", 3 - k)
            split[k] = (surf.triangles["t"][va], surf.triangles["b"][vb])
        torn = unamalgamate(surf, ("t", "31"), ("b", "23"), split)
        assert torn.glue(("t", "31"), ("b", "23")) == surf

    def test_torus_minus_one_gluing_is_the_cylinder(self):
        surf, _ = self._cyl()
        rng = random.Random(91)
        A = {"t": rand_assignment(3, rng), "b": rand_assignment(3, rng)}
        torus = TriangulatedSurface(
            {"t": A["t"], "b": A["b"]},
            [
                (("t", "31"), ("b", "23")),
                (("b", "31"), ("t", "23")),
                (("t", "12"), ("b", "12")),
            ],
        )
        cyl = unamalgamate(torus, ("t", "12"), ("b", "12"))
        assert cyl.gluings == surf.gluings
        assert cyl.open_sides() == (("b", "12"), ("t", "12"))

    def test_words_avoiding_the_tear_unchanged(self):
        surf, words = self._cyl()
        # arc1 = S T2(b) S T1(t) never reads (b,31) or (t,23)
        torn = unamalgamate(surf, ("b", "31"), ("t", "23"))
        assert path_matrix(torn, words["arc1"]) == path_matrix(surf, words["arc1"])
        # T1(b) reads only b's 31 and 12 sides, both untouched by this tear
        w1 = TrianglePathWord([t_token("b", 1)])
        torn2 = unamalgamate(surf, ("t", "31"), ("b", "23"))
        assert path_matrix(torn2, w1) == path_matrix(surf, w1)


class TestRankTwoLift:
    def test_rational_lift(self):
        m = ((Fraction(6), Fraction(0)), (Fraction(3), Fraction(6)))
        lifted = sl2_lift(m)
        assert lifted == ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1)))

    def test_symbolic_lift(self):
        ring = LaurentRing("u", "v")
        u, v = ring.gen("u"), ring.gen("v")
        m = ((u * u, ring.const(0)), (ring.const(0), v * v))
        lifted = sl2_lift(m)
        det = lifted[0][0] * lifted[1][1] - lifted[0][1] * lifted[1][0]
        assert det == ring.const(1)

    def test_odd_exponent_rejected(self):
        ring = LaurentRing("u")
        u = ring.gen("u")
        with pytest.raises(NotAPerfectSquare):
            sl2_lift(((u, ring.const(0)), (ring.const(0), ring.const(1))))

    def test_nonsquare_rational_rejected(self):
        with pytest.raises(NotAPerfectSquare):
            sl2_lift(((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))

    def test_trace_k_reads_the_corner(self):
        m = ((Fraction(1), Fraction(5)), (Fraction(2), Fraction(3)))
        assert trace_k(m) == -5
        m3 = tuple(
            tuple(Fraction(3 * i + j) for j in range(3)) for i in range(3)
        )
        assert trace_k(m3) == -2


# class members, in sorted order, for the n=2 four-holed sphere; the first
# member of each class carries the class value and the partner carries 1.
# Classes line up with fat-graph edges: the three stems s1,s2,s3 face the
# central triangle, the three loop edges p1,p2,p3 wrap the self-glued outer
# corners, and the class value is the inverse square of the edge weight.
N2_DICTIONARY = (
    ("s1", (("c", (1, 1, 0)), ("r", (0, 1, 1)))),
    ("s2", (("c", (0, 1, 1)), ("d", (0, 1, 1)))),
    ("s3", (("c", (1, 0, 1)), ("l", (0, 1, 1)))),
    ("p1", (("r", (1, 0, 1)), ("r", (1, 1, 0)))),
    ("p2", (("d", (1, 0, 1)), ("d", (1, 1, 0)))),
    ("p3", (("l", (1, 0, 1)), ("l", (1, 1, 0)))),
)


def _fg_surface_from_weights(weights):
    vals = {t: {} for t in "lrdc"}
    for (edge, ((t1, v1), (t2, v2))) in N2_DICTIONARY:
        vals[t1][v1] = weights[edge] ** -2
        vals[t2][v2] = Fraction(1)
    asg = {
        t: FGAssignment(2, {k: vals[t].get(k, Fraction(1)) for k in side_vertices(2)})
        for t in "lrdc"
    }
    return four_holed_sphere_fg(2, asg)


class TestFatgraphDictionary:
    def test_dictionary_classes_are_the_amalgamation(self):
        rng = random.Random(100)
        surf, _ = _fg_surface_from_weights(
            {e: Fraction(rng.randint(2, 9)) for e, _ in N2_DICTIONARY}
        )
        assert amalgamation_classes(surf)["amalgamated"] == tuple(
            cls for _, cls in sorted(N2_DICTIONARY, key=lambda kv: kv[1])
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_boundary_traces_match(self, seed):
        rng = random.Random(110 + seed)
        weights = {
            e: Fraction(rng.randint(2, 9), rng.randint(1, 4))
            for e, _ in N2_DICTIONARY
        }
        surf, words = _fg_surface_from_weights(weights)
        graph, loops = four_holed_sphere(
            (weights["s1"], weights["s2"], weights["s3"]),
            (weights["p1"], weights["p2"], weights["p3"]),
        )
        for i in (1, 2, 3, 4):
            m = sl2_lift(path_matrix(surf, words[f"loop{i}"]))
            fat = graph.holonomy(loops[f"loop{i}"]).trace()
            assert abs(m[0][0] + m[1][1]) == abs(fat)

    def test_pairwise_traces_match(self):
        rng = random.Random(120)
        weights = {
            e: Fraction(rng.randint(2, 9), rng.randint(1, 4))
            for e, _ in N2_DICTIONARY
        }
        surf, words = _fg_surface_from_weights(weights)
        graph, loops = four_holed_sphere(
            (weights["s1"], weights["s2"], weights["s3"]),
            (weights["p1"], weights["p2"], weights["p3"]),
        )
        fat = {k: graph.holonomy(w) for k, w in loops.items()}
        ours = {k: path_matrix(surf, w) for k, w in words.items()}
        for a, b in (("loop2", "loop3"), ("loop3", "loop1"), ("loop1", "loop2")):
            m = sl2_lift(mat_mul(ours[a], ours[b]))
            assert abs(m[0][0] + m[1][1]) == abs((fat[a] * fat[b]).trace())


# The same surface read through square roots: with square side values, each
# fat-graph edge weighs the square root of its gluing's amalgamated product,
# the stems s1, s2, s3 for the gluings c-l, c-d, c-r and the loop edges p1,
# p2, p3 for the self-gluings of l, d, r.  The fat-graph loops loop1..loop4
# are then the FG loops loop3, loop2, loop1, loop4.
SQRT_EDGES = {
    ("c", "l"): "s1", ("c", "d"): "s2", ("c", "r"): "s3",
    ("l", "l"): "p1", ("d", "d"): "p2", ("r", "r"): "p3",
}
FAT_LOOPS = ("loop1", "loop2", "loop3", "loop4")
FG_LOOPS = ("loop3", "loop2", "loop1", "loop4")


def _trace(m):
    return m[0][0] + m[1][1]


class TestSquareRootDictionary:
    def check(self, roots):
        """roots[t, v] is the root of triangle t's side value at v."""
        asg = {
            t: FGAssignment(2, {v: roots[t, v] ** 2 for v in side_vertices(2)})
            for t in "lrdc"
        }
        surf, words = four_holed_sphere_fg(2, asg)
        weights = {}
        for (a, b), product in amalgamated_products(surf).items():
            weights[SQRT_EDGES[a[0], b[0]]] = w = roots[a] * roots[b]
            assert w * w == product
        graph, loops = four_holed_sphere(
            [weights[e] for e in ("s1", "s2", "s3")], [weights[e] for e in ("p1", "p2", "p3")]
        )
        ours = [path_matrix(surf, words[k]) for k in FG_LOOPS]
        for m, h in zip(ours, (graph.holonomy(loops[k]) for k in FAT_LOOPS)):
            (a, b), (c, d) = m
            # tr^2 / det agree, cross-multiplied so that nothing divides
            assert (a + d) ** 2 * h.det() == h.trace() ** 2 * (a * d - b * c)
        # lifted to SL2, the FG loops have the fat graph's trace coordinates
        # with each boundary trace negated, and so satisfy the Fricke relation
        m1, m2, m3, m4 = (sl2_lift(m) for m in ours)
        coords = (
            _trace(mat_mul(m2, m3)), _trace(mat_mul(m3, m1)), _trace(mat_mul(m1, m2)),
            _trace(m1), _trace(m2), _trace(m3), _trace(m4),
        )
        x1, x2, x3, *gs = trace_coordinates(graph, loops)
        assert coords == (x1, x2, x3, *(-g for g in gs))
        assert fricke_value(coords) == 4

    @pytest.mark.parametrize("seed", range(10))
    def test_rational_squares(self, seed):
        rng = random.Random(130 + seed)
        self.check({
            (t, v): Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for t in "lrdc" for v in side_vertices(2)
        })

    def test_squared_laurent_generators(self):
        # one evaluation over twelve free generators covers every side value
        keys = [(t, v) for t in "lrdc" for v in side_vertices(2)]
        ring = LaurentRing(*(f"{t}{''.join(map(str, v))}" for t, v in keys))
        self.check(dict(zip(keys, ring.gens())))
