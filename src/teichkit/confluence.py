"""Controlled degeneration of a four-holed sphere into a cusped surface.

Sending one loop weight to infinity along lp3 = kap1 * kap2 / eps opens the
third boundary into a pair of cusps.  Trace coordinates become Laurent
series in eps with coefficients that are exact Laurent polynomials in the
surviving weights; the finite parts satisfy a degenerate trace relation of
their own, and the arcs running into the cusps acquire monomial lengths.

Everything here is exact: eps is a formal generator, limits are coefficient
extraction, and the one substitution used is monomial.
"""

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from . import linalg
from .errors import DomainError
from .fatgraph import (
    EdgeData,
    FatGraph,
    PathWord,
    _scalar,
    four_holed_sphere,
    trace_coordinates,
)
from .laurent import LaurentRing


class DivergesFaster(DomainError):
    """Series blows up faster than the declared rescaling can absorb."""


class SingularExponentTable(DomainError):
    pass


class InconsistentValues(DomainError):
    pass


class ArcNotCusped(DomainError):
    pass


class NotAPowerOfBase(DomainError):
    pass


SPHERE_RING = LaurentRing("ls1", "ls2", "ls3", "lp1", "lp2", "lp3")
CHEW_RING = LaurentRing("ls1", "ls2", "ls3", "lp1", "lp2", "kap1", "kap2", "eps")

# which power of eps each coordinate needs to stay finite:
# (x1, x2, x3, g1, g2, g3, g4)
RESCALINGS = (1, 1, 0, 0, 0, 1, 1)


class EpsSeries:
    """Finite Laurent series in eps with LaurentPoly coefficients."""

    def __init__(self, coeffs):
        self.coeffs = {int(k): v for k, v in coeffs.items() if not v.is_zero()}

    @classmethod
    def from_poly(cls, poly, eps_name="eps"):
        return cls(poly.split_by(eps_name))

    def is_zero(self):
        return not self.coeffs

    def leading_exponent(self):
        if self.is_zero():
            return None
        return min(self.coeffs)

    def coefficient(self, k):
        zero = next(iter(self.coeffs.values())).ring.zero if self.coeffs else CHEW_RING.zero
        return self.coeffs.get(k, zero)

    def eval(self, values, eps_value):
        out = 0
        for k, poly in sorted(self.coeffs.items()):
            out = out + poly.eval(values) * _scalar(eps_value) ** k
        return out

    def __repr__(self):
        if self.is_zero():
            return "EpsSeries(0)"
        bits = [f"eps^{k}*({v})" for k, v in sorted(self.coeffs.items())]
        return "EpsSeries(" + " + ".join(bits) + ")"


def symbolic_coordinates():
    """Trace coordinates of the four-holed sphere over formal weights."""
    gens = SPHERE_RING.gens()
    graph, loops = four_holed_sphere(gens[:3], gens[3:])
    return trace_coordinates(graph, loops)


def chew_substitute(poly):
    """lp3 -> kap1 kap2 / eps, the collapsing-loop substitution."""
    target = CHEW_RING.gen("kap1") * CHEW_RING.gen("kap2") / CHEW_RING.gen("eps")
    return EpsSeries.from_poly(poly.subs(CHEW_RING, {"lp3": target}))


def leading_limit(series, rescaling=None):
    """lim_{eps -> 0} eps^rescaling * series, as an exact coefficient.

    With rescaling=None the smallest power that keeps the limit finite is
    used.  A declared rescaling that cannot absorb the divergence raises
    DivergesFaster; an over-generous one legitimately returns zero.
    """
    lead = series.leading_exponent()
    needed = 0 if lead is None else max(0, -lead)
    if rescaling is None:
        rescaling = needed
    if needed > rescaling:
        raise DivergesFaster(
            f"series starts at eps^{lead}, rescaling {rescaling} cannot absorb it"
        )
    return series.coefficient(-rescaling)


class LimitCoords(NamedTuple):
    x1: object
    x2: object
    x3: object
    g1: object
    g2: object
    g3: object
    g4: object


def limit_coordinates():
    """Finite parts of the chewed trace coordinates, rescaled per RESCALINGS.

    Built once per process, on the first call, and shared: the private
    ``functools.cache``d ``_limit`` keeps it, and every later call returns
    that same LimitCoords.  A LaurentPoly keeps its terms in a plain dict,
    so the shared coordinates must not be mutated: an edit such as
    ``limit_coordinates().x1.terms.clear()`` changes every later call.
    """
    return _limit()


@cache
def _limit():
    coords = symbolic_coordinates()
    return LimitCoords(
        *(leading_limit(chew_substitute(c), r) for c, r in zip(coords, RESCALINGS))
    )


def limiting_relation_value(c):
    """Degenerate trace relation; vanishes on limit coordinates.

    x1 x2 x3 + x1^2 + x2^2 - (g4 g1 + g2 g3) x1 - (g4 g2 + g1 g3) x2
      - g4 g3 x3 + g3^2 + g4^2 + g1 g2 g3 g4
    """
    return (
        c.x1 * c.x2 * c.x3
        + c.x1 * c.x1 + c.x2 * c.x2
        - (c.g4 * c.g1 + c.g2 * c.g3) * c.x1
        - (c.g4 * c.g2 + c.g1 * c.g3) * c.x2
        - c.g4 * c.g3 * c.x3
        + c.g3 * c.g3 + c.g4 * c.g4
        + c.g1 * c.g2 * c.g3 * c.g4
    )


def chewed_coordinates_numeric(stem_weights, loop_weights_12, kappas, eps):
    """Plain trace coordinates with lp3 = kap1 kap2 / eps substituted in."""
    k1, k2 = kappas
    lp3 = k1 * k2 / eps
    graph, loops = four_holed_sphere(stem_weights, (*loop_weights_12, lp3))
    return trace_coordinates(graph, loops)


# -- the cusped three-holed sphere and its arc lengths ------------------------


def cusped_three_holed(stem_weights, loop_weights, cusp_weights):
    """Limit fat graph: center with three stems, two loops, one cusp fork.

    stem_weights = (s1, s2, s3), loop_weights = (p1, p2), cusp_weights =
    (k1, k2).  Returns (graph, arcs, loops): five arc words a..e running
    cusp to cusp, and the two loop words around the un-cusped boundaries.
    """
    s1, s2, s3 = stem_weights
    p1, p2 = loop_weights
    k1, k2 = cusp_weights
    vertices = {
        "c": (("s1", 0), ("s2", 0), ("s3", 0)),
        "a1": (("s1", 1), ("p1", 0), ("p1", 1)),
        "a2": (("s2", 1), ("p2", 0), ("p2", 1)),
        "a3": (("s3", 1), ("k1", 0), ("k2", 0)),
    }
    edges = {
        "s1": EdgeData(s1),
        "s2": EdgeData(s2),
        "s3": EdgeData(s3),
        "p1": EdgeData(p1),
        "p2": EdgeData(p2),
        "k1": EdgeData(k1, is_open=True),
        "k2": EdgeData(k2, is_open=True),
    }
    graph = FatGraph(vertices, edges, genus=0, n_boundary=3)

    def E(e):
        return ("E", e)

    arcs = {
        "a": PathWord((
            E("k2"), "R", E("s3"), "R", E("s1"), "R", E("p1"), "R", E("s1"),
            "R", E("s2"), "R", E("p2"), "R", E("s2"),
            "L", E("s1"), "L", E("p1"), "L", E("s1"), "L", E("s3"), "L", E("k2"),
        )),
        "b": PathWord((
            E("k2"), "R", E("s3"), "R", E("s1"), "R", E("p1"), "R", E("s1"),
            "L", E("s3"), "L", E("k2"),
        )),
        "c": PathWord((
            E("k2"), "R", E("s3"), "R", E("s1"), "R", E("p1"), "R", E("s1"),
            "R", E("s2"), "R", E("p2"), "R", E("s2"), "R", E("s3"), "L", E("k2"),
        )),
        "d": PathWord((
            E("k2"), "R", E("s3"), "R", E("s1"), "R", E("p1"), "R", E("s1"),
            "R", E("s2"), "R", E("p2"), "R", E("s2"), "R", E("s3"), "R", E("k1"),
        )),
        "e": PathWord((E("k2"), "R", E("k1"))),
    }
    loops = {
        "loop1": PathWord(("R", E("p1"), "R")),
        "loop2": PathWord(("R", E("p2"), "R")),
    }
    return graph, arcs, loops


def lambda_lengths(graph, arcs):
    """Cusp-to-cusp arc lengths: the cusp trace of each arc holonomy.

    Arc words must start and end by crossing an open edge and contain no
    bounce letter; the bounce is what the cusp trace itself supplies.
    """
    out = {}
    for name, word in arcs.items():
        if not word.tokens:
            raise ArcNotCusped(f"arc {name!r} is empty")
        for t in (word.tokens[0], word.tokens[-1]):
            if isinstance(t, str) or not graph.edges[t[1]].is_open:
                raise ArcNotCusped(f"arc {name!r} must start and end at a cusp edge")
        if "K" in word.tokens:
            raise ArcNotCusped(f"arc {name!r} carries an explicit bounce letter")
        out[name] = graph.holonomy(word).cusp_trace()
    return out


# -- exact monomial inversion -------------------------------------------------


def _short(x):
    """x for an error message: only its size when it runs past 128 bits."""
    if isinstance(x, (int, Fraction)):
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        if bits > 128:
            return f"a {bits}-bit rational"
    return str(x)


def _exponent_of(value, base):
    """Integer t with value == base^t, read off bit lengths and confirmed exactly."""
    if value <= 0 or base <= 0 or base == 1:
        raise NotAPowerOfBase(
            f"need positive value and base != 1, got {_short(value)}, {_short(base)}"
        )
    v, b, sign = Fraction(value), Fraction(base), 1
    if b < 1:
        b, sign = 1 / b, -sign
    if v < 1:
        v, sign = 1 / v, -sign
    # Now v >= 1 and b > 1, both in lowest terms, so v == b^t needs t >= 0 and
    # numerator(v) == numerator(b)^t.  With `bits` the bit length of the first
    # and L = log2 of the second (L >= 1), t lies in [(bits - 1) / L, bits / L),
    # a window of width at most 1: start just below it and step up.
    p, bp = v.numerator, b.numerator
    t = max(int(p.bit_length() / math.log2(bp)) - 2, 0)
    power = bp ** t
    while power < p:
        power *= bp
        t += 1
    if power != p or b.denominator ** t != v.denominator:
        raise NotAPowerOfBase(f"{_short(value)} is not an integer power of {_short(base)}")
    return sign * t


def invert_monomials(monomials, values, base):
    """Solve for weight exponents from monomial quantities, exactly.

    monomials: name -> LaurentPoly monomial (positive rational coefficient)
    values:    name -> Fraction, each coefficient * base^(integer)
    base:      Fraction > 0, != 1

    Returns var -> Fraction such that weight var = base^exponent reproduces
    every value.  Raises SingularExponentTable when the exponent rows do not
    determine all variables, InconsistentValues when they over-determine
    them incompatibly.
    """
    names = sorted(monomials)
    if set(names) != set(values):
        raise InconsistentValues("monomials and values must share keys")
    ring = monomials[names[0]].ring
    nvars = len(ring.names)
    rows, rhs = [], []
    for name in names:
        coeff, exps = monomials[name].monomial_parts()
        if coeff <= 0:
            raise DomainError(f"monomial {name!r} has nonpositive coefficient {coeff}")
        rows.append([Fraction(e) for e in exps])
        rhs.append(Fraction(_exponent_of(Fraction(values[name]) / coeff, base)))
    m, pivots = linalg.rref([row + [b] for row, b in zip(rows, rhs)])
    rank = len(pivots) - (nvars in pivots)
    if rank < nvars:
        raise SingularExponentTable(f"exponent table has rank {rank} < {nvars} variables")
    if nvars in pivots:
        raise InconsistentValues("values are incompatible with the monomial table")
    return dict(zip(ring.names, (row[nvars] for row in m)))
