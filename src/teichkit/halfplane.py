"""Upper half-plane model of the hyperbolic plane.

Points with Im z > 0 are interior; the boundary circle is R u {oo}.
Orientation-preserving isometries are Mobius maps z -> (az+b)/(cz+d) with
real entries and ad - bc > 0; entries are kept unnormalized and all
projective quantities are written to be invariant under rescaling.
MobiusMap is the package's one 2x2 matrix type, fatgraph.Mat2, with that
determinant condition and the action on points: a holonomy matrix and the
map it induces share product, det, trace and entries.

Scalars are polymorphic: Fraction in, Fraction out wherever the formula is
rational; square roots try an exact rational root first and fall back to
float.  Distances and angles are genuinely transcendental and return float.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DomainError
from .fatgraph import Mat2, _scalar


class DegenerateInput(DomainError):
    pass


class NotInsideHalfPlane(DomainError):
    pass


class NotHyperbolic(DomainError):
    pass


class NonpositiveDeterminant(DomainError):
    pass


class TooFewEdges(DomainError):
    pass


class NotDisjoint(DomainError):
    """Common perpendiculars need disjoint, non-asymptotic geodesics."""


class _Infinity:
    """The boundary point at infinity.  Compares equal only to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "oo"


INFINITY = _Infinity()


def exact_sqrt(q):
    """Fraction square root of a nonnegative Fraction, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def scalar_sqrt(x):
    """Exact Fraction root when possible, float otherwise."""
    if isinstance(x, Fraction):
        r = exact_sqrt(x)
        if r is not None:
            return r
        try:
            x = float(x)
        except OverflowError as exc:
            raise DomainError("radicand is too large for a float") from exc
    if x < 0:
        raise DomainError(f"negative radicand {x}")
    return math.sqrt(x)


class MapClass(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class MobiusMap(Mat2):
    """z -> (a z + b)/(c z + d), real entries, positive determinant."""

    __slots__ = ()

    def __init__(self, a, b, c, d):
        super().__init__(*(_scalar(x) for x in (a, b, c, d)))
        if self.det() <= 0:
            raise NonpositiveDeterminant(f"ad - bc = {self.det()} must be > 0")

    def compose(self, other):
        return MobiusMap(*(self * other).entries())

    def inverse(self):
        """The adjugate: inverse as a map, det times the matrix inverse."""
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def apply(self, z):
        if z is INFINITY:
            if self.c == 0:
                return INFINITY
            return self.a / self.c
        z = _scalar(z)
        den = self.c * z + self.d
        if den == 0:
            return INFINITY
        return (self.a * z + self.b) / den

    __call__ = apply

    def __repr__(self):
        return f"MobiusMap({self.a}, {self.b}, {self.c}, {self.d})"


def classify(m):
    """Conjugacy class from the sign of trace^2 - 4 det."""
    if m.b == 0 and m.c == 0 and m.a == m.d:
        return MapClass.IDENTITY
    disc = m.trace() ** 2 - 4 * m.det()
    if disc > 0:
        return MapClass.HYPERBOLIC
    if disc == 0:
        return MapClass.PARABOLIC
    return MapClass.ELLIPTIC


def fixed_points(m):
    """Fixed points in H u boundary.

    Hyperbolic: both boundary points, minus-branch first.  Parabolic: the
    single boundary point.  Elliptic: the interior point (complex).
    Identity maps fix everything and raise DegenerateInput.
    """
    kind = classify(m)
    if kind is MapClass.IDENTITY:
        raise DegenerateInput("identity fixes every point")
    a, b, c, d = m.entries()
    if c == 0:
        if a == d:
            return (INFINITY,)
        return (b / (d - a), INFINITY)
    disc = (a + d) ** 2 - 4 * m.det()
    if kind is MapClass.HYPERBOLIC:
        s = scalar_sqrt(disc)
        return ((a - d - s) / (2 * c), (a - d + s) / (2 * c))
    if kind is MapClass.PARABOLIC:
        return ((a - d) / (2 * c),)
    re = (a - d) / (2 * c)
    im = scalar_sqrt(-disc) / abs(2 * c)
    return (complex(re, im),)


def same_boundary_point(x, y):
    if x is INFINITY or y is INFINITY:
        return x is y
    return x == y


def cross_ratio(p, q, r, s):
    """[p, q; r, s] = ((p-r)/(p-s)) * ((q-s)/(q-r)) on the boundary.

    Exact over Fractions; any argument may be INFINITY.  Mobius maps act
    diagonally without changing the value.
    """
    pts = [v if v is INFINITY else _scalar(v) for v in (p, q, r, s)]
    for i in range(4):
        for j in range(i + 1, 4):
            if same_boundary_point(pts[i], pts[j]):
                raise DegenerateInput(f"arguments {i} and {j} coincide")
    p, q, r, s = pts
    if p is INFINITY:
        return (q - s) / (q - r)
    if q is INFINITY:
        return (p - r) / (p - s)
    if r is INFINITY:
        return (q - s) / (p - s)
    if s is INFINITY:
        return (p - r) / (q - r)
    return ((p - r) / (p - s)) * ((q - s) / (q - r))


def distance(p, q):
    """Hyperbolic distance between interior points (complex), as float."""
    p, q = complex(p), complex(q)
    if p.imag <= 0 or q.imag <= 0:
        raise NotInsideHalfPlane(f"need Im > 0, got {p}, {q}")
    if p == q:
        return 0.0
    return 2.0 * math.atanh(abs(p - q) / abs(p - q.conjugate()))


# -- geodesics ---------------------------------------------------------------


@dataclass(frozen=True)
class Vertical:
    """Euclidean vertical ray {foot + i t : t > 0}; endpoints foot and oo."""

    foot: object

    def endpoints(self):
        return (self.foot, INFINITY)


@dataclass(frozen=True)
class Arc:
    """Euclidean half-circle centered on the real axis."""

    center: object
    radius: object

    def endpoints(self):
        return (self.center - self.radius, self.center + self.radius)


def geodesic_through(p, q):
    """The geodesic with boundary endpoints p != q."""
    if p is INFINITY and q is INFINITY:
        raise DegenerateInput("coincident endpoints")
    if p is INFINITY:
        return Vertical(_scalar(q))
    if q is INFINITY:
        return Vertical(_scalar(p))
    p, q = _scalar(p), _scalar(q)
    if p == q:
        raise DegenerateInput("coincident endpoints")
    half = (q - p) / 2
    return Arc(p + half, abs(half))


def apply_to_geodesic(m, g):
    p, q = g.endpoints()
    return geodesic_through(m.apply(p), m.apply(q))


def axis(m):
    """Invariant geodesic of a hyperbolic map."""
    if classify(m) is not MapClass.HYPERBOLIC:
        raise NotHyperbolic(f"axis needs a hyperbolic map, got {classify(m).value}")
    return geodesic_through(*fixed_points(m))


def _share_endpoint(g1, g2):
    return any(same_boundary_point(x, y) for x in g1.endpoints() for y in g2.endpoints())


def common_perpendicular(g1, g2):
    """The unique geodesic meeting two disjoint geodesics at right angles.

    Exists iff the geodesics neither intersect nor share an endpoint.
    Orthogonality of half-circles centered on the real axis reads
    (x - c_i)^2 = rho^2 + r_i^2.
    """
    if _share_endpoint(g1, g2):
        raise NotDisjoint("geodesics share a boundary endpoint")
    if isinstance(g1, Vertical) and isinstance(g2, Vertical):
        raise NotDisjoint("two verticals meet at infinity")
    if isinstance(g1, Arc) and isinstance(g2, Vertical):
        g1, g2 = g2, g1
    if isinstance(g1, Vertical):
        v, (c, r) = g1.foot, (g2.center, g2.radius)
        rho2 = (c - v) ** 2 - r * r
        if rho2 <= 0:
            raise NotDisjoint("geodesics intersect")
        return Arc(v, scalar_sqrt(rho2))
    c1, r1 = g1.center, g1.radius
    c2, r2 = g2.center, g2.radius
    if c1 == c2:
        # concentric half-circles: the perpendicular is the vertical through them
        return Vertical(c1)
    x = (c1 * c1 - c2 * c2 + r2 * r2 - r1 * r1) / (2 * (c1 - c2))
    rho2 = (x - c1) ** 2 - r1 * r1
    if rho2 <= 0:
        raise NotDisjoint("geodesics intersect")
    return Arc(x, scalar_sqrt(rho2))


# -- horocycles --------------------------------------------------------------


@dataclass(frozen=True)
class HorocycleAtInfinity:
    """The set Im z = height, height > 0."""

    height: object


@dataclass(frozen=True)
class HorocycleTangent:
    """Euclidean circle tangent to the real axis at base, given diameter."""

    base: object
    diameter: object


def apply_to_horocycle(m, h):
    """Image horocycle; exact over Fractions.

    Derivative bookkeeping: a horocycle of diameter h at x scales by
    det / (c x + d)^2; the one at infinity trades height t for diameter
    det / (c^2 t) and vice versa.
    """
    a, b, c, d = m.entries()
    delta = m.det()
    if isinstance(h, HorocycleAtInfinity):
        if c == 0:
            return HorocycleAtInfinity(h.height * a / d)
        return HorocycleTangent(a / c, delta / (c * c * h.height))
    x, diam = h.base, h.diameter
    den = c * x + d
    if den == 0:
        return HorocycleAtInfinity(delta / (c * c * diam))
    return HorocycleTangent(m.apply(x), diam * delta / (den * den))


# -- circles, lengths, areas -------------------------------------------------


def hyperbolic_circle(euclidean_center, euclidean_radius):
    """(hyperbolic center, hyperbolic radius) of a Euclidean circle in H.

    The circle with Euclidean data (z1, r) is a hyperbolic circle centered
    on the vertical through z1 at height sqrt((Im z1)^2 - r^2), with
    hyperbolic radius artanh(r / Im z1).
    """
    z1 = complex(euclidean_center)
    r = float(euclidean_radius)
    if r < 0:
        raise DomainError("radius must be >= 0")
    if z1.imag <= r:
        raise NotInsideHalfPlane("circle touches or leaves the half-plane")
    center = complex(z1.real, math.sqrt(z1.imag ** 2 - r * r))
    return center, math.atanh(r / z1.imag)


def translation_length(m):
    """Length of the invariant-axis displacement, 2 arccosh(|tr| / 2 sqrt(det))."""
    if classify(m) is not MapClass.HYPERBOLIC:
        raise NotHyperbolic("translation length needs a hyperbolic map")
    return 2.0 * math.acosh(abs(float(m.trace())) / (2.0 * math.sqrt(float(m.det()))))


def stretch_factor(m):
    """exp(translation length): (|T| + s)/(|T| - s) with s = sqrt(T^2 - 4 det).

    Scale-invariant in the entries; exact Fraction whenever the discriminant
    is a perfect rational square.
    """
    if classify(m) is not MapClass.HYPERBOLIC:
        raise NotHyperbolic("stretch factor needs a hyperbolic map")
    t = abs(m.trace())
    s = scalar_sqrt(t * t - 4 * m.det())
    return (t + s) / (t - s)


def parabolic_stabilizer(x, t):
    """The parabolic family fixing x: entries (1 - t x, t x^2, -t, 1 + t x)."""
    x, t = _scalar(x), _scalar(t)
    return MobiusMap(1 - t * x, t * x * x, -t, 1 + t * x)


def polygon_area(angles):
    """Gauss-Bonnet area (k-2) pi - sum(angles) of a geodesic polygon."""
    angles = list(angles)
    if len(angles) < 3:
        raise TooFewEdges("need at least 3 vertices")
    for a in angles:
        if not 0 <= float(a) < math.pi:
            raise DomainError(f"interior angle {a} outside [0, pi)")
    return (len(angles) - 2) * math.pi - math.fsum(float(a) for a in angles)
