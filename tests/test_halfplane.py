import math
import random
from fractions import Fraction

import pytest

from teichkit.errors import DomainError
from teichkit.fatgraph import Mat2
from teichkit.halfplane import (
    INFINITY,
    Arc,
    DegenerateInput,
    HorocycleAtInfinity,
    HorocycleTangent,
    MapClass,
    MobiusMap,
    NonpositiveDeterminant,
    NotDisjoint,
    NotHyperbolic,
    NotInsideHalfPlane,
    TooFewEdges,
    Vertical,
    apply_to_geodesic,
    apply_to_horocycle,
    axis,
    classify,
    common_perpendicular,
    cross_ratio,
    distance,
    fixed_points,
    geodesic_through,
    hyperbolic_circle,
    parabolic_stabilizer,
    polygon_area,
    scalar_sqrt,
    stretch_factor,
    translation_length,
)

F = Fraction


def test_determinant_must_be_positive():
    with pytest.raises(NonpositiveDeterminant):
        MobiusMap(1, 0, 0, -1)
    with pytest.raises(NonpositiveDeterminant):
        MobiusMap(1, 2, 2, 4)


def test_scalar_sqrt_past_the_float_range_is_a_domain_error():
    assert scalar_sqrt(F(10**400)) == 10**200
    with pytest.raises(DomainError, match="too large for a float"):
        scalar_sqrt(F(10**400 + 1))


def test_apply_is_exact_on_rationals():
    m = MobiusMap(1, 2, 3, 7)
    z = m.apply(F(1, 2))
    assert z == F(5, 17) and isinstance(z, Fraction)
    assert m.apply(INFINITY) == F(1, 3)
    assert m.apply(F(-7, 3)) is INFINITY


def test_compose_matches_matrix_product_action():
    rng = random.Random(7)
    for _ in range(50):
        while True:
            a, b, c, d = (F(rng.randint(-9, 9)) for _ in range(4))
            e, f, g, h = (F(rng.randint(-9, 9)) for _ in range(4))
            if a * d - b * c > 0 and e * h - f * g > 0:
                break
        m1, m2 = MobiusMap(a, b, c, d), MobiusMap(e, f, g, h)
        # one 2x2 type: composing maps is the matrix product, compared entrywise
        assert isinstance(m1, Mat2)
        assert m1.compose(m2) == m1 * m2 == Mat2(a, b, c, d) * Mat2(e, f, g, h)
        z = F(rng.randint(-5, 5), rng.randint(1, 7))
        lhs = m1.compose(m2).apply(z)
        rhs_inner = m2.apply(z)
        rhs = m1.apply(rhs_inner) if rhs_inner is not INFINITY else m1.apply(INFINITY)
        assert lhs == rhs


def test_inverse_composes_to_scalar_identity():
    m = MobiusMap(2, 5, 1, 3)
    mi = m.inverse()
    comp = m.compose(mi)
    assert comp.b == 0 and comp.c == 0 and comp.a == comp.d
    assert comp == mi.compose(m) == Mat2(m.det(), 0, 0, m.det())
    assert classify(comp) is MapClass.IDENTITY


# frozen fixed-point pairs: minus branch listed first
def test_fixed_points_hyperbolic_examples():
    assert fixed_points(MobiusMap(-1, -2, 3, 4)) == (F(-1), F(-2, 3))
    assert fixed_points(MobiusMap(6, 0, 3, 1)) == (F(0), F(5, 3))


def test_fixed_points_upper_triangular():
    m = MobiusMap(2, 3, 0, 1)
    assert fixed_points(m) == (F(-3), INFINITY)
    assert classify(m) is MapClass.HYPERBOLIC


def test_fixed_points_are_actually_fixed():
    rng = random.Random(11)
    found = 0
    for _ in range(20000):
        if found >= 25:
            break
        a, b, c, d = (F(rng.randint(-9, 9)) for _ in range(4))
        if a * d - b * c <= 0 or c == 0:
            continue
        m = MobiusMap(a, b, c, d)
        if classify(m) is not MapClass.HYPERBOLIC:
            continue
        pts = fixed_points(m)
        if not all(isinstance(p, Fraction) for p in pts):
            continue
        found += 1
        for p in pts:
            assert m.apply(p) == p
    assert found >= 10


def test_parabolic_and_elliptic_fixed_points():
    p = parabolic_stabilizer(F(2), F(1, 3))
    assert classify(p) is MapClass.PARABOLIC
    assert fixed_points(p) == (F(2),)
    rot = MobiusMap(1, 1, -1, 0)
    assert classify(rot) is MapClass.ELLIPTIC
    (z,) = fixed_points(rot)
    w = (z + 1) / (-z)
    assert abs(w - z) < 1e-12 and z.imag > 0


def test_classify_identity_rejects_fixed_points():
    with pytest.raises(DegenerateInput):
        fixed_points(MobiusMap(3, 0, 0, 3))


def test_cross_ratio_frozen_values():
    assert cross_ratio(0, INFINITY, 1, 2) == F(1, 2)
    assert cross_ratio(0, 1, 3, INFINITY) == F(3, 2)


def test_cross_ratio_degenerate_arguments():
    with pytest.raises(DegenerateInput):
        cross_ratio(1, 1, 2, 3)
    with pytest.raises(DegenerateInput):
        cross_ratio(INFINITY, 0, INFINITY, 3)


def test_cross_ratio_mobius_invariance_exact():
    rng = random.Random(3)
    for _ in range(60):
        while True:
            a, b, c, d = (F(rng.randint(-6, 6)) for _ in range(4))
            if a * d - b * c > 0:
                break
        m = MobiusMap(a, b, c, d)
        pts = []
        while len(pts) < 4:
            z = F(rng.randint(-12, 12), rng.randint(1, 5))
            if z not in pts:
                pts.append(z)
        imgs = [m.apply(z) for z in pts]
        if len({repr(w) for w in imgs}) < 4:
            continue
        assert cross_ratio(*imgs) == cross_ratio(*pts)


def test_distance_invariance_and_symmetry():
    m = MobiusMap(2, 1, 1, 1)
    rng = random.Random(5)
    for _ in range(30):
        p = complex(rng.uniform(-4, 4), rng.uniform(0.2, 5))
        q = complex(rng.uniform(-4, 4), rng.uniform(0.2, 5))
        dp = distance(p, q)
        assert dp == pytest.approx(distance(q, p), abs=1e-12)
        mp = (m.a * p + m.b) / (m.c * p + m.d)
        mq = (m.a * q + m.b) / (m.c * q + m.d)
        assert distance(mp, mq) == pytest.approx(dp, abs=1e-12)


def test_distance_on_vertical_is_log_ratio():
    assert distance(1j, 9j) == pytest.approx(math.log(9), abs=1e-12)
    with pytest.raises(NotInsideHalfPlane):
        distance(1j, 1 - 2j)


def test_hyperbolic_circle_frozen_example():
    center, radius = hyperbolic_circle(1j * math.cosh(2), math.sinh(2))
    assert abs(center - 1j) < 1e-12
    assert radius == pytest.approx(2.0, abs=1e-12)


def test_hyperbolic_circle_shrinks_to_center():
    center, radius = hyperbolic_circle(3 + 5j, 0)
    assert center == 3 + 5j and radius == 0.0
    with pytest.raises(NotInsideHalfPlane):
        hyperbolic_circle(1j, 2)


def test_circle_center_differs_from_euclidean_center():
    # Euclidean midpoint sits strictly above the hyperbolic center
    center, radius = hyperbolic_circle(4j, 1)
    assert center.imag == pytest.approx(math.sqrt(15), abs=1e-12)
    assert center.imag < 4
    lo, hi = 3j, 5j
    assert distance(center, lo) == pytest.approx(radius, abs=1e-12)
    assert distance(center, hi) == pytest.approx(radius, abs=1e-12)


def test_geodesic_through_and_images():
    g = geodesic_through(F(-1), F(3))
    assert g == Arc(F(1), F(2))
    assert geodesic_through(5, INFINITY) == Vertical(F(5))
    m = MobiusMap(0, -1, 1, 0)
    img = apply_to_geodesic(m, Vertical(F(0)))
    assert img == Vertical(F(0))


def test_axis_endpoints_are_fixed_points():
    m = MobiusMap(-1, -2, 3, 4)
    g = axis(m)
    assert g == Arc(F(-5, 6), F(1, 6))
    with pytest.raises(NotHyperbolic):
        axis(MobiusMap(1, 1, -1, 0))


def test_common_perpendicular_vertical_arc():
    g = common_perpendicular(Vertical(F(-3)), Arc(F(5, 6), F(5, 6)))
    assert isinstance(g, Arc) and g.center == F(-3)
    assert g.radius == pytest.approx(math.sqrt(14), abs=1e-12)


def test_common_perpendicular_orthogonality_certificate():
    # (x - c)^2 == rho^2 + r^2 certifies a right angle against each input arc
    a1, a2 = Arc(F(0), F(1)), Arc(F(5, 2), F(1))
    p = common_perpendicular(a1, a2)
    assert p == Arc(F(5, 4), F(3, 4))
    for g in (a1, a2):
        assert (p.center - g.center) ** 2 == p.radius ** 2 + g.radius ** 2


def test_common_perpendicular_concentric_is_vertical():
    assert common_perpendicular(Arc(F(2), F(1)), Arc(F(2), F(5))) == Vertical(F(2))


def test_common_perpendicular_rejects_crossing_or_asymptotic():
    with pytest.raises(NotDisjoint):
        common_perpendicular(Vertical(F(0)), Arc(F(0), F(1)))
    with pytest.raises(NotDisjoint):
        common_perpendicular(Vertical(F(1)), Arc(F(0), F(1)))
    with pytest.raises(NotDisjoint):
        common_perpendicular(Vertical(F(0)), Vertical(F(1)))


def test_horocycle_at_fixed_point_is_preserved_exactly():
    x, t = F(2), F(5, 7)
    m = parabolic_stabilizer(x, t)
    assert m.det() == 1
    h = HorocycleTangent(x, F(3, 11))
    assert apply_to_horocycle(m, h) == h


def test_horocycle_images():
    flip = MobiusMap(0, -1, 1, 0)
    h = apply_to_horocycle(flip, HorocycleTangent(F(0), F(1, 2)))
    assert h == HorocycleAtInfinity(F(2))
    back = apply_to_horocycle(flip, h)
    assert back == HorocycleTangent(F(0), F(1, 2))
    shift = MobiusMap(1, 7, 0, 1)
    assert apply_to_horocycle(shift, HorocycleAtInfinity(F(3))) == HorocycleAtInfinity(F(3))


def test_horocycle_scaling_by_homothety():
    m = MobiusMap(2, 0, 0, 1)
    assert apply_to_horocycle(m, HorocycleTangent(F(1), F(1))) == HorocycleTangent(F(2), F(2))


def test_translation_length_of_diagonal_map():
    m = MobiusMap(3, 0, 0, F(1, 3))
    assert translation_length(m) == pytest.approx(2 * math.log(3), abs=1e-12)
    assert stretch_factor(m) == F(9)
    with pytest.raises(NotHyperbolic):
        translation_length(parabolic_stabilizer(0, 1))


def test_stretch_factor_exact_and_scale_invariant():
    m = MobiusMap(-1, -2, 3, 4)
    s = stretch_factor(m)
    assert isinstance(s, Fraction) and s == 2
    m2 = MobiusMap(-7, -14, 21, 28)
    assert stretch_factor(m2) == s


def test_polygon_area_right_angled_hexagon():
    assert polygon_area([math.pi / 2] * 6) == pytest.approx(math.pi, abs=1e-12)


def test_polygon_area_ideal_triangle_and_validation():
    assert polygon_area([0, 0, 0]) == pytest.approx(math.pi, abs=1e-12)
    with pytest.raises(TooFewEdges):
        polygon_area([1.0, 1.0])
