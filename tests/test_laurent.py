"""Property tests for the Laurent ring: ring laws over mixed int and Fraction
coefficients, the canonical coefficient form, and monomial substitution."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from teichkit.confluence import CHEW_RING, EpsSeries, limit_coordinates
from teichkit.laurent import LaurentError, LaurentPoly, LaurentRing

R = LaurentRing("x", "y", "z")
T = LaurentRing("u", "v")

# Integers and non-integral fractions, so that sums and products cross
# between the two stored forms in both directions.
COEFFS = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6)
NONZERO = COEFFS.filter(lambda c: c != 0)
VALUES = (st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=5)).filter(lambda q: q != 0)


def exponents(ring):
    return st.tuples(*(st.integers(-2, 2) for _ in ring.names))


def polys(ring=R):
    return st.dictionaries(exponents(ring), COEFFS, max_size=4).map(
        lambda terms: LaurentPoly(ring, terms)
    )


def monomials(ring):
    return st.builds(lambda c, e: LaurentPoly(ring, {e: c}), NONZERO, exponents(ring))


# Images of x, y, z in T: monomials, or nonzero rational constants.
IMAGES = st.fixed_dictionaries({name: monomials(T) | NONZERO for name in R.names})


def canonical(p):
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in p.terms.values()
    )


@settings(max_examples=50)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + R.zero == p and p * R.one == p
    assert (p - p).is_zero() and p - q == -(q - p)
    assert all(canonical(s) for s in (p, p + q, p * q, p * q * r, p - q))


@settings(max_examples=50)
@given(polys(), NONZERO)
def test_constants_mix_with_polynomials(p, c):
    assert p * c == p * R.const(c) == c * p
    assert p + c == R.const(c) + p
    assert (p * c) / c == p


@settings(max_examples=50)
@given(monomials(R), polys())
def test_monomial_inverse(m, p):
    inv = m.inverse()
    assert m * inv == R.one and canonical(inv)
    assert (p * m) / m == p
    assert m ** -2 == inv * inv


@settings(max_examples=50)
@given(monomials(R), st.integers(-4, 6))
def test_monomial_power_is_the_repeated_product(m, n):
    """c*x^e to the n is built from the exponents in one step."""
    want = R.one
    for _ in range(abs(n)):
        want = want * (m if n >= 0 else m.inverse())
    got = m ** n
    assert got == want and got.is_monomial() and canonical(got)


@settings(max_examples=30)
@given(polys(), st.integers(0, 3))
def test_polynomial_power_is_the_repeated_product(p, n):
    want = R.one
    for _ in range(n):
        want = want * p
    assert p ** n == want
    if not p.is_monomial():
        with pytest.raises(LaurentError, match="not a monomial"):
            p ** -1


def test_monomial_takes_any_generator_name():
    ring = LaurentRing("coeff", "self")
    m = ring.monomial(3, coeff=2, self=-1)
    assert m == 3 * ring.gen("coeff") ** 2 / ring.gen("self")


def test_unknown_generator_name_is_a_laurent_error():
    # monomial and split_by refuse an unknown name as gen does, not with a
    # bare KeyError
    ring = LaurentRing("x", "y")
    x = ring.gen("x")
    calls = (lambda: ring.gen("w"), lambda: ring.monomial(1, w=1), lambda: (x + 1).split_by("w"))
    for call in calls:
        with pytest.raises(LaurentError, match=r"no generator 'w' in ring \('x', 'y'\)"):
            call()


@settings(max_examples=50)
@given(polys(), polys(), IMAGES)
def test_subs_is_a_ring_homomorphism(p, q, images):
    assert (p + q).subs(T, images) == p.subs(T, images) + q.subs(T, images)
    assert (p * q).subs(T, images) == p.subs(T, images) * q.subs(T, images)
    assert canonical(p.subs(T, images))


@settings(max_examples=50)
@given(polys(), IMAGES)
def test_subs_matches_the_ring_operations(p, images):
    """c*x^e goes to c * prod(image_i ** e_i), as the ring itself computes it."""
    expected = T.zero
    for e, c in p.terms.items():
        term = T.const(c)
        for name, k in zip(R.names, e):
            image = images[name]
            term = term * (image if isinstance(image, LaurentPoly) else T.const(image)) ** k
        expected = expected + term
    assert p.subs(T, images) == expected


@settings(max_examples=50)
@given(polys(), IMAGES, st.fixed_dictionaries({name: VALUES for name in T.names}))
def test_subs_commutes_with_eval(p, images, values):
    pulled = {
        name: image.eval(values) if isinstance(image, LaurentPoly) else image
        for name, image in images.items()
    }
    assert p.subs(T, images).eval(values) == p.eval(pulled)


@settings(max_examples=50)
@given(polys(), st.fixed_dictionaries({name: VALUES for name in R.names}))
def test_eval_returns_fractions(p, values):
    got = p.eval(values)
    assert type(got) is (int if p.is_zero() else Fraction)


@settings(max_examples=50)
@given(COEFFS, exponents(R))
def test_boundary_values_are_fractions(c, e):
    assert type(R.const(c).constant_value()) is Fraction
    assert R.const(c).constant_value() == c
    assert type(R.zero.constant_value()) is Fraction
    if c != 0:
        coeff, exps = LaurentPoly(R, {e: c}).monomial_parts()
        assert type(coeff) is Fraction and (coeff, exps) == (c, e)


# Floats away from 0, so that terms with negative exponents stay moderate.
FLOATS = st.floats(-5, 5).filter(lambda v: abs(v) >= 0.05)


def defining_terms(p, values):
    """The terms c * prod(v^k) of p at values, in Fraction arithmetic; a
    float value enters as the rational it is."""
    terms = []
    for e, c in p.terms.items():
        term = Fraction(c)
        for name, k in zip(p.ring.names, e):
            if k:
                term *= Fraction(values[name]) ** k
        terms.append(term)
    return terms


@settings(max_examples=300, derandomize=True)
@given(polys(), st.fixed_dictionaries({name: VALUES | FLOATS for name in R.names}))
def test_eval_is_the_defining_sum(p, values):
    got = p.eval(values)
    terms = defining_terms(p, values)
    needed = {name for e in p.terms for name, k in zip(R.names, e) if k}
    if any(type(values[name]) is float for name in needed):
        assert type(got) is float
        assert abs(Fraction(got) - sum(terms)) <= Fraction(1e-12) * max(map(abs, terms))
    else:
        assert got == sum(terms)
        assert type(got) is (int if p.is_zero() else Fraction)


@pytest.mark.parametrize(
    "make",
    [
        lambda x: x + True,
        lambda x: True * x,
        lambda x: R.const(False),
        lambda x: x ** True,
        lambda x: x ** 2.0,
        lambda x: R.monomial(3, x=2.5),
        lambda x: R.monomial(3, x=True),
    ],
    ids=["x + True", "True * x", "const(False)", "x ** True", "x ** 2.0", "x=2.5", "x=True"],
)
def test_bools_and_non_int_exponents_are_refused(make):
    """A bool is no coefficient and only an int is an exponent: neither is coerced."""
    with pytest.raises(LaurentError):
        make(R.gen("x"))


def test_a_bool_equals_no_polynomial():
    assert (R.one == True) is False and (R.zero == False) is False
    assert R.one != True


def test_eval_edge_cases():
    assert R.zero.eval({}) == 0 and type(R.zero.eval({})) is int
    x, y = R.gen("x"), R.gen("y")
    assert (x ** 2 + y).eval({"x": 0, "y": 3}) == 3
    assert type(R.const(2).eval({})) is Fraction
    p = x ** -1 + y
    for zero in (0, Fraction(0), 0.0):
        values = {"x": zero, "y": 1}
        with pytest.raises(ZeroDivisionError):
            p.eval(values)
        with pytest.raises(ZeroDivisionError):
            defining_terms(p, values)
    # a float keeps the range of the term-by-term sum: (1e100)^4 would overflow
    assert (x ** 2 + x ** -2).eval({"x": 1e100}) == pytest.approx(1e200)
    assert (x ** 2 + x ** -2).eval({"x": 1e-100}) == pytest.approx(1e200)
    with pytest.raises(KeyError):
        p.eval({"x": 1})
    with pytest.raises(TypeError):
        p.eval({"x": True, "y": 1})


def test_eval_at_int_values_is_exact():
    assert R.gen("x").inverse().eval({"x": 3}) == Fraction(1, 3)
    assert type((R.gen("x") ** -2 * R.gen("y")).eval({"x": 2, "y": 1})) is Fraction
    kap1, eps = CHEW_RING.gen("kap1"), CHEW_RING.gen("eps")
    series = EpsSeries.from_poly(kap1 / eps + kap1)
    assert series.eval({"kap1": 3}, 2) == Fraction(9, 2)
    assert type(series.eval({"kap1": 3}, 2)) is Fraction


def test_integral_fractions_are_stored_as_int():
    p = R.const(Fraction(4, 2)) + R.monomial(Fraction(1, 2), x=1) * 2
    assert {type(c) for c in p.terms.values()} == {int}
    assert repr(p) == "x + 2"
    assert repr(R.monomial(Fraction(-3, 2), y=-1)) == "-3/2*y^-1"


@pytest.mark.parametrize(
    "image",
    [T.gen("u") + T.gen("v"), T.gen("u") + 1, T.zero, 0, Fraction(0)],
    ids=["sum", "affine", "zero-poly", "zero-int", "zero-fraction"],
)
def test_non_monomial_image_is_refused(image):
    p = R.gen("x") + R.gen("y")
    with pytest.raises(LaurentError, match="not a monomial"):
        p.subs(T, {"x": image, "y": T.gen("u"), "z": T.gen("v")})


def test_subs_keeps_unmapped_names_and_checks_rings():
    s = LaurentRing("x", "y", "z", "t")
    p = R.gen("x") * R.gen("y") ** -1 + 3
    assert p.subs(s, {}) == s.gen("x") / s.gen("y") + 3
    with pytest.raises(LaurentError):
        p.subs(T, {})
    with pytest.raises(LaurentError, match="mixed rings"):
        p.subs(s, {"x": T.gen("u")})


def test_limit_coordinates_text_is_pinned():
    # sha256 of repr(limit_coordinates()) as computed with Fraction coefficients
    text = repr(limit_coordinates())
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "132f409702852d482a1b66d4d8ccc6c8369812dcc8e9dc179b0023c3d906dc1b"
    )
