"""Trivalent fat graphs with multiplicative edge weights and their holonomy.

A fat graph is a graph plus a cyclic order of half-edges at each vertex;
thickening it gives an oriented surface with boundary.  Every vertex here
is trivalent.  Internal edges carry a weight lam > 0 (the exponentiated
half shear coordinate), open edges carry a cusp weight kappa and end at an
implicit 1-valent vertex.

Holonomy words multiply 2x2 matrices left to right:

    R = [[1,1],[-1,0]]   L = [[0,1],[-1,-1]]   (turn right / left)
    X(w) = [[0,-w],[1/w,0]]                     (cross an edge)
    K = [[0,0],[-1,0]]                          (bounce at a cusp)

R and L have det 1, X(w) has det 1, K has det 0.  R^-1 = -L and L^-1 = -R,
so inverting a word flips turn letters and multiplies the sign by (-1) per
turn; PathWord carries that sign explicitly and evaluation applies it, so
traces are honest SL(2) traces.  X(w)^-1 = X(-w).  The cusp trace of a
K-free word A is Tr(A K) = -A[0][1].

R and L replace the two columns by a signed column and a difference of
columns, X(w) swaps the columns and scales them, and K keeps one column,
negated.  FatGraph.holonomy therefore keeps the running product as four
scalars (a, b, c, d) and applies each letter as its column action, without
building the letter's matrix:

    R:     (a - b, a, c - d, c)
    L:     (-b, a - b, -d, c - d)
    K:     (-b, 0, -d, 0)
    X:     (b q, a p, d q, c p)     lam X(w)^{+-1} = [[0, p], [q, 0]]

An edge letter acts through a scaled form lam X(w)^{+-1}, which the graph
builds once per (kind, edge) and keeps.  When every weight is exact (an int
or a Fraction), a weight w = u/v gives the integer letter p = u^2,
q = -v^2 with lam = -+u v: the running entries stay integers, the scales
multiply into one integer s, and the product is the integer matrix divided
by s once, at the end.  A word over rational weights thus does one gcd per
entry instead of one per multiplication, and its entries are Fractions.  Over
any other ring (float, LaurentPoly), or a graph that mixes rings, the letter
is X(w)^{+-1} itself: p = -+w, q = -1/p and lam = 1, with no division, so
no scaled integer meets a float and nothing overflows that the product
itself does not.  An edge of weight 0 cannot be crossed.

A dense product would spend eight multiplications and four additions per
letter, most of them by the constants 0 and +-1; over LaurentPoly entries
each of those is a full polynomial product.  The zeros K writes are a*0
and c*0, so they have the type of the running entries.  The matrix
builders turn_right, turn_left, cusp_bounce, cross and cross_inv (and
FatGraph.generator) remain for callers that need the letters themselves.

Mat2 is the one 2x2 matrix type of the package; halfplane.MobiusMap
subclasses it for matrices with positive determinant acting on the upper
half-plane.  Its product follows linalg.mat_mul's rule for exact products.
When all eight entries of the two factors are Fractions, each factor is
cleared to ints over the lcm of its four denominators, the eight products
are taken in ints, and each entry is one Fraction over the product of the
two lcms.  Every other product (ints, floats, complex, LaurentPoly, mixed
types) is the four-term formula.  Either way the entries equal the
formula's in value and in type.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .encode import SCHEMA, _json_list, check_schema, decoding, scalar_from_json, scalar_to_json
from .errors import DomainError, SchemaError


class MalformedGraph(DomainError):
    pass


class InvalidWord(DomainError):
    pass


class UnknownEdge(InvalidWord):
    pass


class ProductNotIdentity(DomainError):
    pass


def _scalar(x):
    """Promote an int to Fraction, so division by it stays exact; a bool is refused."""
    if isinstance(x, int):
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        return Fraction(x)
    return x


class Mat2:
    """2x2 matrix over any commutative scalar type."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def __mul__(self, other):
        """The product, by the module docstring's rule: over Fractions each
        factor is cleared to ints once, otherwise the four-term formula."""
        if not isinstance(other, Mat2):
            return NotImplemented
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        if (type(a) is type(b) is type(c) is type(d) is Fraction
                and type(e) is type(f) is type(g) is type(h) is Fraction):
            p, q, r, u = a.denominator, b.denominator, c.denominator, d.denominator
            s = lcm(p, q, r, u)
            a, b = a.numerator * (s // p), b.numerator * (s // q)
            c, d = c.numerator * (s // r), d.numerator * (s // u)
            p, q, r, u = e.denominator, f.denominator, g.denominator, h.denominator
            t = lcm(p, q, r, u)
            e, f = e.numerator * (t // p), f.numerator * (t // q)
            g, h = g.numerator * (t // r), h.numerator * (t // u)
            st = s * t
            return Mat2(
                Fraction(a * e + b * g, st),
                Fraction(a * f + b * h, st),
                Fraction(c * e + d * g, st),
                Fraction(c * f + d * h, st),
            )
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def cusp_trace(self):
        return -self.b

    def inverse(self):
        dt = _scalar(self.det())
        if dt == 0:
            raise InvalidWord("matrix is singular")
        return Mat2(self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return isinstance(other, Mat2) and self.entries() == other.entries()

    def __repr__(self):
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"


def turn_right():
    return Mat2(1, 1, -1, 0)


def turn_left():
    return Mat2(0, 1, -1, -1)


def cusp_bounce():
    return Mat2(0, 0, -1, 0)


def _crossable(weight, edge="an edge"):
    """The weight as a scalar; an InvalidWord at weight 0, which no letter crosses."""
    weight = _scalar(weight)
    if weight == 0:
        raise InvalidWord(f"{edge} has weight 0 and cannot be crossed")
    return weight


def cross(weight):
    weight = _crossable(weight)
    return Mat2(0, -weight, 1 / weight, 0)


def cross_inv(weight):
    weight = _crossable(weight)
    return Mat2(0, weight, -1 / weight, 0)


@dataclass(frozen=True)
class PathWord:
    """Holonomy word: sign times a product of generator tokens, left to right.

    Tokens: "R", "L", "K", ("E", edge_id), ("Einv", edge_id).
    """

    tokens: tuple
    sign: int = 1

    def __post_init__(self):
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise InvalidWord(f"sign must be +-1, got {self.sign!r}")
        for t in self.tokens:
            if isinstance(t, str):
                if t not in ("R", "L", "K"):
                    raise InvalidWord(f"unknown letter {t!r}")
            elif not (isinstance(t, tuple) and len(t) == 2 and t[0] in ("E", "Einv")):
                raise InvalidWord(f"bad token {t!r}")

    def __mul__(self, other):
        return PathWord(self.tokens + other.tokens, self.sign * other.sign)

    def inverse(self):
        """Reverse and invert letters: R^-1 = -L, L^-1 = -R, X^-1 = Xinv."""
        out = []
        sign = self.sign
        for t in reversed(self.tokens):
            if t == "R":
                out.append("L")
                sign = -sign
            elif t == "L":
                out.append("R")
                sign = -sign
            elif t == "K":
                raise InvalidWord("cusp bounce is not invertible")
            else:
                out.append(("Einv" if t[0] == "E" else "E", t[1]))
        return PathWord(tuple(out), sign)

    def to_json(self):
        toks = [t if isinstance(t, str) else [t[0], t[1]] for t in self.tokens]
        return {"schema": SCHEMA, "kind": "pathword", "sign": self.sign, "tokens": toks}

    @classmethod
    def from_json(cls, doc):
        check_schema(doc, "pathword")
        with decoding("pathword"):
            toks = []
            for t in _json_list(doc["tokens"], "tokens"):
                if not isinstance(t, str):
                    if not (isinstance(t, list) and len(t) == 2 and isinstance(t[1], str)):
                        raise SchemaError(f"an edge token is [letter, edge id], got {t!r}")
                    t = tuple(t)
                toks.append(t)
            try:
                return cls(tuple(toks), doc.get("sign", 1))
            except InvalidWord as exc:
                raise SchemaError(str(exc)) from exc


@dataclass(frozen=True)
class EdgeData:
    weight: object
    is_open: bool = False

    def __post_init__(self):
        if type(self.is_open) is not bool:
            raise TypeError(f"edge field 'open' must be a bool, got {self.is_open!r}")


class FatGraph:
    """vertices: name -> cyclic tuple of (edge_id, end); edges: name -> EdgeData.

    Internal edges appear with both ends among the vertices; open edges with
    end 0 only, their end 1 being the cusp.  Nothing is coerced: an end that
    is not an int, or an ``EdgeData.is_open`` that is not a bool, is a
    TypeError (a SchemaError from ``from_json``).  The graph and its weights
    are fixed at construction: the half-edge index and the table of scaled
    edge letters that holonomy fills are derived from them.
    """

    def __init__(self, vertices, edges, genus=None, n_boundary=None):
        self.vertices = {v: tuple((e, end) for e, end in hes) for v, hes in vertices.items()}
        self.edges = dict(edges)
        self.genus = genus
        self.n_boundary = n_boundary
        # integer letters only when every weight is exact, so that a graph
        # mixing rings never multiplies a scaled integer by a float
        self._exact = all(isinstance(d.weight, (int, Fraction)) for d in self.edges.values())
        self._letters = {}
        self._where = {}
        for v, hes in self.vertices.items():
            for h in hes:
                if type(h[1]) is not int:
                    raise TypeError(f"half-edge end must be an int, got {type(h[1]).__name__}")
                if h in self._where:
                    raise MalformedGraph(f"half-edge {h} used twice")
                self._where[h] = v
        self.validate()

    def validate(self):
        for v, hes in self.vertices.items():
            if len(hes) != 3:
                raise MalformedGraph(f"vertex {v} has valence {len(hes)}, need 3")
        for e, data in self.edges.items():
            ends = [(e, 0) in self._where, (e, 1) in self._where]
            if data.is_open:
                if ends != [True, False]:
                    raise MalformedGraph(f"open edge {e} must attach end 0 only")
            elif not all(ends):
                raise MalformedGraph(f"internal edge {e} must attach both ends")
        for h in self._where:
            if h[0] not in self.edges:
                raise MalformedGraph(f"half-edge of unknown edge {h[0]}")
            if h[1] not in (0, 1):
                raise MalformedGraph(f"half-edge {h} has an end other than 0 or 1")
        n_open = sum(1 for d in self.edges.values() if d.is_open)
        if self.genus is not None and self.n_boundary is not None:
            v, e, s = len(self.vertices), len(self.edges), self.n_boundary
            if v + n_open - e != 2 - 2 * self.genus - s:
                raise MalformedGraph(
                    f"Euler count V-E = {v + n_open}-{e} incompatible with genus {self.genus}, {s} boundaries"
                )
            if len(self.faces()) != s:
                raise MalformedGraph(f"{len(self.faces())} faces, declared {s} boundaries")

    def next_half_edge(self, h):
        e, end = h
        other = (e, 1 - end)
        v = self._where.get(other)
        if v is None:
            return other
        hes = self.vertices[v]
        return hes[(hes.index(other) + 1) % len(hes)]

    def faces(self):
        """Boundary cycles of the thickened graph, as tuples of half-edges."""
        seen = set()
        out = []
        states = [(e, end) for e in sorted(self.edges) for end in (0, 1)]
        for h0 in states:
            if h0 in seen:
                continue
            cyc = []
            h = h0
            while h not in seen:
                seen.add(h)
                cyc.append(h)
                h = self.next_half_edge(h)
            out.append(tuple(cyc))
        return out

    def weight(self, e):
        return self.edges[e].weight

    def generator(self, token):
        if token == "R":
            return turn_right()
        if token == "L":
            return turn_left()
        if token == "K":
            return cusp_bounce()
        kind, e = token
        w = self._edge_weight(e)
        return cross(w) if kind == "E" else cross_inv(w)

    def _edge_weight(self, e):
        """Edge e's weight as a scalar; an unknown edge or weight 0 is an InvalidWord."""
        if e not in self.edges:
            raise UnknownEdge(f"unknown edge {e!r}")
        return _crossable(self.edges[e].weight, f"edge {e!r}")

    def _letter(self, token):
        """(p, q, lam) with lam times the token's edge letter equal to [[0, p], [q, 0]].

        Over an exact graph a weight u/v gives the integers (u^2, -v^2, -+u v);
        otherwise the letter itself, (-+w, -1/p, 1).
        """
        kind, e = token
        w = self._edge_weight(e)
        if self._exact:
            u, v = w.numerator, w.denominator
            return u * u, -v * v, u * v if kind == "Einv" else -u * v
        p = w if kind == "Einv" else -w
        return p, -1 / p, 1

    def holonomy(self, word):
        """The product of the word's letters, left to right, times its sign.

        Each letter acts on the columns of the running product (a, b, c, d)
        as the module docstring lists, an edge letter through its scaled
        form, built once per (kind, edge) by _letter.  When every weight is
        exact the entries stay integers and are divided by the product of
        the scales once, at the end.  Equal to the left-to-right product of
        generator(t) from the identity, entry types included.  Crossing an
        edge of weight 0 is an InvalidWord.
        """
        letters = self._letters
        a, b, c, d = 1, 0, 0, 1
        scale, crossed = 1, False
        for t in word.tokens:
            if t == "R":
                a, b, c, d = a - b, a, c - d, c
            elif t == "L":
                a, b, c, d = -b, a - b, -d, c - d
            elif t == "K":
                a, b, c, d = -b, a * 0, -d, c * 0
            else:
                letter = letters.get(t)
                if letter is None:
                    letter = letters[t] = self._letter(t)
                p, q, lam = letter
                a, b, c, d = b * q, a * p, d * q, c * p
                scale *= lam
                crossed = True
        if crossed and self._exact:
            a, b, c, d = (Fraction(x, scale) for x in (a, b, c, d))
        m = Mat2(a, b, c, d)
        return -m if word.sign == -1 else m

    def to_json(self):
        return {
            "schema": SCHEMA,
            "kind": "fatgraph",
            "vertices": {v: [[e, end] for e, end in hes] for v, hes in self.vertices.items()},
            "edges": {
                e: {"weight": scalar_to_json(d.weight), "open": d.is_open}
                for e, d in self.edges.items()
            },
            "genus": self.genus,
            "boundary": self.n_boundary,
        }

    @classmethod
    def from_json(cls, doc, mode="rational"):
        check_schema(doc, "fatgraph")
        with decoding("fatgraph"):
            vertices = {v: [(e, end) for e, end in hes] for v, hes in doc["vertices"].items()}
            edges = {
                e: EdgeData(scalar_from_json(d["weight"], mode), d.get("open", False))
                for e, d in doc["edges"].items()
            }
            return cls(vertices, edges, doc.get("genus"), doc.get("boundary"))

    def __repr__(self):
        return f"FatGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


# -- builders ----------------------------------------------------------------


def pair_of_pants(w1, w2, w3):
    """Two-vertex theta graph; returns (graph, boundary loop words).

    Boundary loop i avoids edge s_i; each trace is -(w_j w_k + 1/(w_j w_k))
    for the complementary pair, so all three are <= -2 for positive weights.
    """
    g = FatGraph(
        {
            "u": (("s1", 0), ("s2", 0), ("s3", 0)),
            "v": (("s1", 1), ("s3", 1), ("s2", 1)),
        },
        {e: EdgeData(w) for e, w in zip(("s1", "s2", "s3"), (w1, w2, w3))},
        genus=0,
        n_boundary=3,
    )
    loops = {
        "loop1": PathWord(("R", ("E", "s2"), "R", ("E", "s3")), sign=-1),
        "loop2": PathWord((("E", "s3"), "R", ("E", "s1"), "R"), sign=-1),
        "loop3": PathWord(("L", ("E", "s1"), "R", ("E", "s2"), "L"), sign=1),
    }
    return g, loops


def four_holed_sphere(stem_weights, loop_weights):
    """Genus-0, 4-boundary graph: central vertex, three stems, three loops.

    stem edge s_i runs from the center to outer vertex i; edge p_i is the
    loop at outer vertex i.  Boundary words loop1..loop3 encircle the three
    p-loops; loop4 is the inverse of their product, so the four holonomies
    multiply to the identity exactly.
    """
    s1, s2, s3 = stem_weights
    q1, q2, q3 = loop_weights
    vertices = {
        "c": (("s1", 0), ("s2", 0), ("s3", 0)),
        "a1": (("s1", 1), ("p1", 0), ("p1", 1)),
        "a2": (("s2", 1), ("p2", 0), ("p2", 1)),
        "a3": (("s3", 1), ("p3", 0), ("p3", 1)),
    }
    edges = {
        "s1": EdgeData(s1),
        "s2": EdgeData(s2),
        "s3": EdgeData(s3),
        "p1": EdgeData(q1),
        "p2": EdgeData(q2),
        "p3": EdgeData(q3),
    }
    g = FatGraph(vertices, edges, genus=0, n_boundary=4)
    loop1 = PathWord((("E", "s1"), "R", ("E", "p1"), "R", ("E", "s1")), sign=1)
    loop2 = PathWord(("R", ("E", "s2"), "R", ("E", "p2"), "R", ("E", "s2"), "L"), sign=-1)
    loop3 = PathWord(("L", ("E", "s3"), "R", ("E", "p3"), "R", ("E", "s3"), "R"), sign=-1)
    loop4 = (loop1 * loop2 * loop3).inverse()
    return g, {"loop1": loop1, "loop2": loop2, "loop3": loop3, "loop4": loop4}


def trace_coordinates(graph, loops):
    """(x1, x2, x3, g1, g2, g3, g4) from the four boundary words.

    x_i is the trace of the product of the two loops complementary to i
    and 4; g_i are the boundary traces.  Raises ProductNotIdentity unless
    the four holonomies compose to the identity.
    """
    ms = [graph.holonomy(loops[k]) for k in ("loop1", "loop2", "loop3", "loop4")]
    m01 = ms[0] * ms[1]
    prod = m01 * ms[2] * ms[3]

    def near(x, v):
        return abs(x - v) < 1e-9 if isinstance(x, float) else x == v

    if not (near(prod.b, 0) and near(prod.c, 0) and near(prod.a, 1) and near(prod.d, 1)):
        raise ProductNotIdentity(f"loop product is {prod}, not the identity")
    x1 = (ms[1] * ms[2]).trace()
    x2 = (ms[2] * ms[0]).trace()
    x3 = m01.trace()
    return (x1, x2, x3, ms[0].trace(), ms[1].trace(), ms[2].trace(), ms[3].trace())


def fricke_value(coords):
    """The four-boundary trace relation, normalized to equal 4.

    x1 x2 x3 + x1^2 + x2^2 + x3^2
      - (g4 g1 + g2 g3) x1 - (g4 g2 + g1 g3) x2 - (g4 g3 + g1 g2) x3
      + g1^2 + g2^2 + g3^2 + g4^2 + g1 g2 g3 g4

    By the rule of Mat2's product, seven Fractions are cleared to ints over
    the lcm D of their denominators, and the relation times D^4 (each term
    of degree k times D^(4-k)) is one Fraction over D^4; any other
    coordinates take the formula as written.  Either way the value and its
    type are the formula's.
    """
    if all(type(x) is Fraction for x in coords):
        dens = [x.denominator for x in coords]
        d = lcm(*dens)
        x1, x2, x3, g1, g2, g3, g4 = (x.numerator * (d // e) for x, e in zip(coords, dens))
        cubic = (
            x1 * x2 * x3
            - (g4 * g1 + g2 * g3) * x1
            - (g4 * g2 + g1 * g3) * x2
            - (g4 * g3 + g1 * g2) * x3
        )
        square = x1 * x1 + x2 * x2 + x3 * x3 + g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4
        return Fraction((cubic + square * d) * d + g1 * g2 * g3 * g4, d ** 4)
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
