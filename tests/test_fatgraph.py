import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from teichkit.errors import SchemaError
from teichkit.fatgraph import (
    EdgeData,
    FatGraph,
    InvalidWord,
    MalformedGraph,
    Mat2,
    PathWord,
    ProductNotIdentity,
    cross,
    cross_inv,
    cusp_bounce,
    fricke_value,
    four_holed_sphere,
    pair_of_pants,
    trace_coordinates,
    turn_left,
    turn_right,
)
from teichkit.halfplane import MobiusMap
from teichkit.laurent import LaurentRing

F = Fraction


def mobius_at(m, z):
    return (m.a * z + m.b) / (m.c * z + m.d)


def test_generator_dets_and_relations():
    R, L = turn_right(), turn_left()
    assert R.det() == 1 and L.det() == 1
    assert (R * R).entries() == L.entries()
    assert (R * L).entries() == (-1, 0, 0, -1)
    w = F(5, 3)
    X, Xi = cross(w), cross_inv(w)
    assert X.det() == 1
    assert (X * Xi).entries() == (1, 0, 0, 1)
    assert (-X).entries() == Xi.entries()
    K = cusp_bounce()
    assert K.det() == 0 and (K * K).entries() == (0, 0, 0, 0)
    with pytest.raises(InvalidWord):
        K.inverse()
    # R^-1 = -L
    assert (R * (-L)).entries() == (1, 0, 0, 1)


def test_word_inverse_and_sign_tracking():
    g, _ = pair_of_pants(F(2), F(3), F(5))
    w = PathWord(("R", ("E", "s1"), "L", ("Einv", "s2")), sign=-1)
    m = g.holonomy(w)
    mi = g.holonomy(w.inverse())
    assert (m * mi).entries() == (1, 0, 0, 1)
    with pytest.raises(InvalidWord):
        PathWord(("K",)).inverse()
    with pytest.raises(InvalidWord):
        PathWord(("Q",))


def test_pants_faces_and_loop_matrices():
    w1, w2, w3 = F(2), F(3), F(5)
    g, loops = pair_of_pants(w1, w2, w3)
    assert sorted(len(f) for f in g.faces()) == [2, 2, 2]
    m1 = g.holonomy(loops["loop1"])
    assert m1.entries() == (-1 / (w2 * w3), w3 * (w2 + 1 / w2), F(0), -w2 * w3)
    m2 = g.holonomy(loops["loop2"])
    assert m2.entries() == (-w1 * w3, F(0), -(1 / (w1 * w3) + w1 / w3), -1 / (w1 * w3))
    m3 = g.holonomy(loops["loop3"])
    assert (m1 * m2 * m3).entries() == (1, 0, 0, 1)
    assert m3 == g.holonomy((loops["loop1"] * loops["loop2"]).inverse())


def test_bool_weight_is_not_a_scalar():
    g, loops = pair_of_pants(True, F(2), F(3))
    with pytest.raises(TypeError):
        g.holonomy(loops["loop2"])


def test_pants_boundary_traces_are_minus_cosh():
    g, loops = pair_of_pants(F(2), F(3), F(5))
    pairs = {"loop1": F(15), "loop2": F(10), "loop3": F(6)}
    for k, prod in pairs.items():
        assert g.holonomy(loops[k]).trace() == -(prod + 1 / prod)


def test_pants_mobius_actions_at_log_2_0_3():
    lam = [math.exp(math.log(2) / 2), 1.0, math.exp(math.log(3) / 2)]
    g, loops = pair_of_pants(*lam)
    m1 = g.holonomy(loops["loop1"])
    m2 = g.holonomy(loops["loop2"])
    for z in (0.3, 1.7, -2.5, 10.0):
        assert mobius_at(m1, z) == pytest.approx(z / 3 - 2, abs=1e-12)
        assert mobius_at(m2, z) == pytest.approx(6 * z / (3 * z + 1), abs=1e-12)


def test_pants_loop_fixed_points_are_exact_rationals():
    # loop discriminants are (w - 1/w)^2, a perfect square, for any rational w
    from teichkit.halfplane import INFINITY, MobiusMap, fixed_points

    rng = random.Random(9)
    checked = 0
    for _ in range(20):
        ws = [F(rng.randint(2, 30), rng.randint(1, 30)) for _ in range(3)]
        if any(w == 1 for w in ws):
            continue
        g, loops = pair_of_pants(*ws)
        for k in ("loop1", "loop2", "loop3"):
            m = g.holonomy(loops[k])
            mm = MobiusMap(*m.entries())
            pts = fixed_points(mm)
            assert all(isinstance(p, Fraction) for p in pts if p is not INFINITY)
            for p in pts:
                assert same_or_infinite(mm, p)
            checked += 1
    assert checked > 30


def same_or_infinite(m, p):
    from teichkit.halfplane import INFINITY

    img = m.apply(p)
    if p is INFINITY:
        return img is INFINITY
    return img == p


def test_four_holed_sphere_all_ones_coordinates():
    g, loops = four_holed_sphere((F(1),) * 3, (F(1),) * 3)
    assert sorted(len(f) for f in g.faces()) == [1, 1, 1, 9]
    coords = trace_coordinates(g, loops)
    assert coords == (F(-7), F(-7), F(-7), F(-2), F(-2), F(-2), F(-2))
    assert fricke_value(coords) == 4


def test_four_holed_sphere_loop1_matrix_form():
    ring = LaurentRing("a1", "a2", "a3", "q1", "q2", "q3")
    a1, a2, a3, q1, q2, q3 = ring.gens()
    g, loops = four_holed_sphere((a1, a2, a3), (q1, q2, q3))
    m = g.holonomy(loops["loop1"])
    assert m.entries() == (ring.zero, -(a1 ** 2 * q1), 1 / (a1 ** 2 * q1), -(q1 + 1 / q1))
    assert m.trace() == -(q1 + 1 / q1)


def test_fricke_relation_symbolically():
    ring = LaurentRing("a1", "a2", "a3", "q1", "q2", "q3")
    gens = ring.gens()
    g, loops = four_holed_sphere(gens[:3], gens[3:])
    coords = trace_coordinates(g, loops)
    assert fricke_value(coords) == 4


def test_fricke_relation_on_random_rationals():
    rng = random.Random(31)
    for _ in range(25):
        ws = [F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(6)]
        g, loops = four_holed_sphere(ws[:3], ws[3:])
        assert fricke_value(trace_coordinates(g, loops)) == 4


def test_trace_coordinates_rejects_broken_loop_set():
    g, loops = four_holed_sphere((F(1),) * 3, (F(1),) * 3)
    bad = dict(loops)
    bad["loop4"] = PathWord(("R",))
    with pytest.raises(ProductNotIdentity):
        trace_coordinates(g, bad)


def test_skein_relation_on_random_words():
    g, _ = pair_of_pants(F(2), F(3), F(5))
    rng = random.Random(2)
    alphabet = ["R", "L", ("E", "s1"), ("E", "s2"), ("E", "s3"), ("Einv", "s1")]
    for _ in range(40):
        wa = PathWord(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 7))))
        wb = PathWord(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 7))))
        a, b = g.holonomy(wa), g.holonomy(wb)
        binv = g.holonomy(wb.inverse())
        assert (a * b).trace() + (a * binv).trace() == a.trace() * b.trace()


def test_cusp_trace_ignores_unipotent_ends():
    g, _ = pair_of_pants(F(2), F(3), F(5))
    a = g.holonomy(PathWord((("E", "s1"), "R", ("E", "s2"), "L", ("E", "s3"))))
    u = Mat2(1, 0, F(7, 3), 1)
    assert (u * a * u).cusp_trace() == a.cusp_trace()
    k = cusp_bounce()
    assert a.cusp_trace() == (a * k).trace()


def test_graph_validation_rejects_bad_shapes():
    with pytest.raises(MalformedGraph):
        FatGraph({"u": (("e", 0), ("e", 1))}, {"e": EdgeData(F(1))})
    with pytest.raises(MalformedGraph):
        FatGraph(
            {"u": (("e", 0), ("e", 0), ("f", 0))},
            {"e": EdgeData(F(1)), "f": EdgeData(F(1))},
        )
    with pytest.raises(MalformedGraph):
        # internal edge with a dangling end
        FatGraph(
            {"u": (("e", 0), ("f", 0), ("f", 1))},
            {"e": EdgeData(F(1)), "f": EdgeData(F(1))},
        )


def test_graph_euler_validation():
    with pytest.raises(MalformedGraph):
        pair_of_pants_bad()


def pair_of_pants_bad():
    return FatGraph(
        {
            "u": (("s1", 0), ("s2", 0), ("s3", 0)),
            "v": (("s1", 1), ("s3", 1), ("s2", 1)),
        },
        {e: EdgeData(F(1)) for e in ("s1", "s2", "s3")},
        genus=1,
        n_boundary=3,
    )


def test_json_round_trip():
    g, loops = four_holed_sphere((F(2), F(3), F(5)), (F(7), F(11), F(13)))
    doc = g.to_json()
    assert doc["schema"] == "teichkit/1"
    g2 = FatGraph.from_json(doc)
    assert g2.to_json() == doc
    assert trace_coordinates(g2, loops) == trace_coordinates(g, loops)
    w = loops["loop4"]
    w2 = PathWord.from_json(w.to_json())
    assert w2 == w


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_from_json_rejects_non_finite_weights(weight):
    g, _ = pair_of_pants(2.0, 3.0, 5.0)
    doc = g.to_json()
    doc["edges"]["s2"]["weight"] = weight
    with pytest.raises(SchemaError):
        FatGraph.from_json(doc, "float")


def test_holonomy_is_scalar_mode_agnostic():
    ws = [F(5, 2), F(7, 3), F(9, 4), F(2), F(3), F(4)]
    g_exact, loops = four_holed_sphere(ws[:3], ws[3:])
    g_float, _ = four_holed_sphere([float(w) for w in ws[:3]], [float(w) for w in ws[3:]])
    for k in ("loop1", "loop2", "loop3", "loop4"):
        me = g_exact.holonomy(loops[k])
        mf = g_float.holonomy(loops[k])
        for xe, xf in zip(me.entries(), mf.entries()):
            assert xf == pytest.approx(float(xe), rel=1e-12, abs=1e-12)


# -- holonomy as column operations ---------------------------------------------

LETTERS = ["R", "L", "K"] + [(k, e) for k in ("E", "Einv") for e in ("s1", "s2", "s3")]
K_FREE = [t for t in LETTERS if t != "K"]
RING = LaurentRing("x", "y")


def dense_holonomy(graph, word):
    """The reference: the left-to-right product of the letters' matrices."""
    m = Mat2.identity()
    for t in word.tokens:
        m = m * graph.generator(t)
    return -m if word.sign == -1 else m


@pytest.mark.parametrize("mode", ["rational", "int", "laurent", "float"])
def test_holonomy_equals_dense_product(mode):
    rng = random.Random(5)
    weight = {
        "rational": lambda: rng.choice((1, -1)) * F(rng.randint(1, 9), rng.randint(1, 9)),
        "int": lambda: rng.choice((1, -1)) * rng.randint(1, 9),
        "laurent": lambda: RING.monomial(
            F(rng.randint(1, 5), rng.randint(1, 5)), x=rng.randint(-2, 2), y=rng.randint(-2, 2)
        ),
        "float": lambda: rng.uniform(0.2, 5.0),
    }[mode]
    for _ in range(150):
        g, _ = pair_of_pants(weight(), weight(), weight())
        tokens = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 12)))
        word = PathWord(tokens, rng.choice((1, -1)))
        got, want = g.holonomy(word).entries(), dense_holonomy(g, word).entries()
        # float: == ignores the sign of a zero, where the two forms may differ
        assert got == want
        if mode != "float":
            assert [type(x) for x in got] == [type(x) for x in want]


def loop_word(rng, loops, length):
    """A product of boundary loops and their inverses, cut to `length` tokens."""
    names, tokens, sign = sorted(loops), [], 1
    while len(tokens) < length:
        w = loops[rng.choice(names)]
        if rng.random() < 0.5:
            w = w.inverse()
        tokens.extend(w.tokens)
        sign *= w.sign
    return PathWord(tuple(tokens[:length]), sign)


@pytest.mark.parametrize("length", [500, 2000])
def test_long_rational_words_equal_the_dense_product(length):
    g, loops = four_holed_sphere([F(3, 2), F(-5, 7), F(9, 4)], [F(2, 3), F(7, 5), F(-4, 9)])
    word = loop_word(random.Random(length), loops, length)
    got, want = g.holonomy(word).entries(), dense_holonomy(g, word).entries()
    assert got == want and all(type(x) is F for x in got)
    assert max(x.denominator.bit_length() for x in got) > length // 4


def test_long_float_words_equal_the_dense_product_without_overflow():
    g, loops = pair_of_pants(1.5, 2.0, 1.2)
    word = loop_word(random.Random(1), loops, 2000)
    got = g.holonomy(word).entries()
    assert got == dense_holonomy(g, word).entries()
    assert 1e110 < max(abs(x) for x in got) < 1e130
    # X(9)^2 = -1 exactly in floats: 2,000 letters of weight 9 give the
    # identity, where any integer split of 9.0 would pass 9^2000
    g, _ = pair_of_pants(9.0, 2.0, 3.0)
    assert g.holonomy(PathWord((("E", "s1"),) * 2000)).entries() == (1, 0, 0, 1)


def test_words_mixing_exact_and_float_weights_agree_within_rounding():
    g, loops = pair_of_pants(F(9), 2.0, 5)
    for seed in range(20):
        word = loop_word(random.Random(seed), loops, 300)
        got, want = g.holonomy(word).entries(), dense_holonomy(g, word).entries()
        assert all(type(x) is float for x in got)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
    # 400 letters of weight 9 as integers (81 per letter) before one float
    # letter would pass the float range; the true product stays +-1
    word = PathWord((("E", "s1"),) * 400 + (("E", "s2"),))
    assert g.holonomy(word).entries() == dense_holonomy(g, word).entries()


def test_words_without_edge_letters_keep_int_entries():
    word = PathWord(("R", "L", "K", "R", "R"), sign=-1)
    for g in (pair_of_pants(F(3, 2), F(2), F(5))[0], pair_of_pants(1.5, 2.0, 5.0)[0]):
        got = g.holonomy(word).entries()
        assert got == dense_holonomy(g, word).entries()
        assert all(type(x) is int for x in got)


@pytest.mark.parametrize(
    "zero", [0, F(0), 0.0, -0.0, RING.zero], ids=["int", "fraction", "float", "minus-float", "laurent"]
)
def test_crossing_a_zero_weight_is_an_invalid_word(zero):
    g, loops = pair_of_pants(zero, zero + 2, zero + 3)
    for kind in ("E", "Einv"):
        with pytest.raises(InvalidWord, match="weight 0"):
            g.holonomy(PathWord(("R", (kind, "s1"))))
    # loop1 does not cross s1
    assert g.holonomy(loops["loop1"]) == dense_holonomy(g, loops["loop1"])


@pytest.mark.parametrize("zero", [F(0), 0.0], ids=["rational", "float"])
def test_generator_refuses_a_zero_weight_as_holonomy_does(zero):
    g, _ = pair_of_pants(zero, zero + 2, zero + 3)
    for kind, letter in (("E", cross), ("Einv", cross_inv)):
        with pytest.raises(InvalidWord) as via_word:
            g.holonomy(PathWord(((kind, "s1"),)))
        with pytest.raises(InvalidWord) as via_generator:
            g.generator((kind, "s1"))
        message = "edge 's1' has weight 0 and cannot be crossed"
        assert str(via_generator.value) == str(via_word.value) == message
        with pytest.raises(InvalidWord, match="weight 0"):
            letter(zero)
    assert g.generator(("E", "s2")) == cross(zero + 2)


def test_integer_weights_evaluate_exactly():
    g_int, loops = pair_of_pants(2, 3, 5)
    g_exact, _ = pair_of_pants(F(2), F(3), F(5))
    words = list(loops.values()) + [w.inverse() for w in loops.values()]
    words.append(PathWord((("Einv", "s1"), "K", "L", ("E", "s3"))))
    for word in words:
        got = g_int.holonomy(word).entries()
        assert all(type(x) is F for x in got)
        assert got == g_exact.holonomy(word).entries()
    inv = Mat2(1, 1, -1, 0).inverse()
    assert inv.entries() == (0, -1, 1, 1) and all(type(x) is F for x in inv.entries())
    assert type(cross(2).c) is F and type(cross_inv(2).c) is F


RATIONALS = st.fractions(F(1, 9), 9, max_denominator=9)
LAURENTS = st.builds(
    lambda q, i, j: RING.monomial(q, x=i, y=j), RATIONALS, st.integers(-2, 2), st.integers(-2, 2)
)
GRAPHS = (
    st.sampled_from([RATIONALS, LAURENTS])
    .flatmap(lambda w: st.tuples(w, w, w))
    .map(lambda ws: pair_of_pants(*ws)[0])
)


def words(letters):
    tokens = st.lists(st.sampled_from(letters), max_size=8).map(tuple)
    return st.builds(PathWord, tokens, st.sampled_from((1, -1)))


@settings(max_examples=60)
@given(GRAPHS, words(LETTERS), words(LETTERS))
def test_holonomy_is_multiplicative(g, w1, w2):
    assert g.holonomy(w1 * w2) == g.holonomy(w1) * g.holonomy(w2)


@settings(max_examples=60)
@given(GRAPHS, words(K_FREE))
def test_holonomy_of_the_inverse_word_is_the_inverse(g, w):
    assert g.holonomy(w) * g.holonomy(w.inverse()) == Mat2.identity()


@settings(max_examples=60)
@given(GRAPHS, words(K_FREE), words(K_FREE))
def test_skein_relation_holds_for_every_word_pair(g, wa, wb):
    a, b = g.holonomy(wa), g.holonomy(wb)
    binv = g.holonomy(wb.inverse())
    assert (a * b).trace() + (a * binv).trace() == a.trace() * b.trace()


# -- the exact product rule ----------------------------------------------------


def four_term(m, n):
    """The reference: the 2x2 product by its defining formula, no clearing."""
    return (
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def typed(entries):
    return [(x, type(x)) for x in entries]


PRODUCT_KINDS = {
    "int": lambda rng: rng.randint(-9, 9),
    "fraction": lambda rng: F(rng.randint(-9, 9), rng.randint(1, 9)),
    # integral Fractions: a cleared product must still hand back Fractions
    "integral-fraction": lambda rng: F(rng.randint(-9, 9)),
    "int-fraction": lambda rng: rng.choice(
        (rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 9)))
    ),
    "float": lambda rng: rng.uniform(-5.0, 5.0),
    "complex": lambda rng: complex(rng.randint(-9, 9), rng.randint(-9, 9)) / rng.randint(1, 9),
    "mixed": lambda rng: rng.choice(
        (rng.randint(-9, 9), F(rng.randint(1, 9), rng.randint(1, 9)), rng.uniform(-5.0, 5.0))
    ),
    "laurent": lambda rng: RING.monomial(
        F(rng.randint(-5, 5), rng.randint(1, 5)), x=rng.randint(-2, 2), y=rng.randint(-2, 2)
    ),
}


@pytest.mark.parametrize("kind", PRODUCT_KINDS)
def test_product_equals_the_four_term_formula_entry_types_included(kind):
    rng = random.Random(kind)
    draw = PRODUCT_KINDS[kind]
    for _ in range(200):
        m, n = Mat2(*(draw(rng) for _ in range(4))), Mat2(*(draw(rng) for _ in range(4)))
        assert typed((m * n).entries()) == typed(four_term(m, n))


def test_product_of_fractions_with_identity_and_zero_factors():
    m = Mat2(F(4), F(-3, 2), F(0), F(7, 6))
    for n in (Mat2(F(1), F(0), F(0), F(1)), Mat2(F(0), F(0), F(0), F(0)), m):
        assert typed((m * n).entries()) == typed(four_term(m, n))
        assert typed((n * m).entries()) == typed(four_term(n, m))
    # the int identity and an all-int factor keep the formula's mixed types
    for n in (Mat2.identity(), turn_right()):
        assert typed((m * n).entries()) == typed(four_term(m, n))
        assert typed((n * turn_left()).entries()) == typed(four_term(n, turn_left()))


def test_product_with_a_scalar_is_a_type_error():
    # a Mat2 multiplies Mat2s only; a scalar multiple is not a product here
    m = Mat2(F(1), F(2), F(3), F(4))
    with pytest.raises(TypeError):
        m * 3
    with pytest.raises(TypeError):
        3 * m


@pytest.mark.parametrize("kind", ["fraction", "int", "float"])
def test_mobius_compose_is_the_four_term_product(kind):
    rng = random.Random(f"compose-{kind}")
    draw = PRODUCT_KINDS[kind]
    for _ in range(100):
        while True:
            m1, m2 = ([draw(rng) for _ in range(4)] for _ in range(2))
            if m1[0] * m1[3] - m1[1] * m1[2] > 0 and m2[0] * m2[3] - m2[1] * m2[2] > 0:
                break
        m1, m2 = MobiusMap(*m1), MobiusMap(*m2)
        got = m1.compose(m2)
        assert type(got) is MobiusMap
        assert typed(got.entries()) == typed(four_term(m1, m2))


def six_product_coordinates(graph, loops):
    """trace_coordinates' values as the six-product form gave them: each x_i
    from its own product (the other three made the loop product), all by
    the four-term formula."""
    ms = [graph.holonomy(loops[k]) for k in ("loop1", "loop2", "loop3", "loop4")]

    def times(m, n):
        return Mat2(*four_term(m, n))

    x1 = times(ms[1], ms[2]).trace()
    x2 = times(ms[2], ms[0]).trace()
    x3 = times(ms[0], ms[1]).trace()
    return (x1, x2, x3, *(m.trace() for m in ms))


@pytest.mark.parametrize("mode", ["rational", "int", "float"])
def test_trace_coordinates_equal_the_six_product_version(mode):
    rng = random.Random(f"coords-{mode}")
    weight = {
        "rational": lambda: F(rng.randint(1, 12), rng.randint(1, 12)),
        "int": lambda: rng.randint(1, 9),
        "float": lambda: rng.uniform(0.2, 5.0),
    }[mode]
    for _ in range(40):
        g, loops = four_holed_sphere([weight() for _ in range(3)], [weight() for _ in range(3)])
        got, want = trace_coordinates(g, loops), six_product_coordinates(g, loops)
        # floats too: the association is unchanged, so equal to the last bit
        assert typed(got) == typed(want)


def fricke_formula(coords):
    """The reference: fricke_value's relation as written, no clearing."""
    x1, x2, x3, g1, g2, g3, g4 = coords
    return (
        x1 * x2 * x3
        + x1 * x1 + x2 * x2 + x3 * x3
        - (g4 * g1 + g2 * g3) * x1
        - (g4 * g2 + g1 * g3) * x2
        - (g4 * g3 + g1 * g2) * x3
        + g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4
        + g1 * g2 * g3 * g4
    )


@pytest.mark.parametrize("kind", PRODUCT_KINDS)
def test_fricke_value_equals_the_formula_type_included(kind):
    rng = random.Random(f"fricke-{kind}")
    draw = PRODUCT_KINDS[kind]
    for _ in range(100):
        coords = tuple(draw(rng) for _ in range(7))
        assert typed([fricke_value(coords)]) == typed([fricke_formula(coords)])
