"""Triangulated surfaces built from flag-variable triangles.

A surface is a finite set of labelled triangles, each carrying a complete
FGAssignment, together with a set of gluings.  A gluing identifies one side
of one triangle with one side of another (or of the same triangle) in the
orientation-reversing way: position k from the start of one side meets
position n-k on the partner.  Closed paths and cusp-to-cusp paths on the
surface are encoded as words alternating triangle transports T_i with the
side-change matrix S inserted at each crossing; evaluating such a word gives
an unnormalized projective holonomy representative.

Gluing identifies variables.  The k-th variable on one side and the (n-k)-th
on its partner only ever enter path matrices through their product, so the
pair collapses to a single amalgamated variable.  Unglued (open) sides keep
their variables as free pinnings.  unamalgamate() is the inverse operation:
it tears a gluing apart and splits each amalgamated product back into two
pinning factors.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .encode import SCHEMA, _json_list, check_schema, decoding
from .errors import DomainError
from .flags import interior_vertices
from .halfplane import exact_sqrt
from .snakes import FGAssignment, _evaluate, _rotate_key


class UnknownTriangle(DomainError):
    pass


class UnknownSide(DomainError):
    pass


class SideAlreadyGlued(DomainError):
    pass


class NotGlued(DomainError):
    pass


class MalformedWord(DomainError):
    pass


class NotAPerfectSquare(DomainError):
    pass


SIDES = ("12", "23", "31")


def side_vertex(n, side, k):
    """Lattice vertex at position k (1..n-1) along a side, in side order.

    Side "12" runs from corner (n,0,0) to (0,n,0), "23" from (0,n,0) to
    (0,0,n), "31" from (0,0,n) back to (n,0,0): sides 23 and 31 are side 12
    rotated once and twice.
    """
    if side not in SIDES:
        raise UnknownSide(f"side must be one of {SIDES}, got {side!r}")
    if not 1 <= k <= n - 1:
        raise UnknownSide(f"side position must be in 1..{n - 1}, got {k}")
    return _rotate_key((n - k, k, 0), SIDES.index(side))


def _norm_end(end):
    tri, side = end
    if side not in SIDES:
        raise UnknownSide(f"side must be one of {SIDES}, got {side!r}")
    return (tri, side)


def _glued_pairs(n, end_a, end_b):
    """(k, variable at position k of end_a, variable at position n-k of end_b)
    for k = 1..n-1: the pairs one gluing identifies, as (triangle_id, vertex)."""
    (tri_a, side_a), (tri_b, side_b) = end_a, end_b
    return [
        (k, (tri_a, side_vertex(n, side_a, k)), (tri_b, side_vertex(n, side_b, n - k)))
        for k in range(1, n)
    ]


@dataclass(frozen=True)
class TriangulatedSurface:
    """Immutable: labelled triangles with assignments, plus side gluings.

    triangles: mapping id -> FGAssignment, all of one rank n.  Two ids may
    share a single assignment (identified copies).  gluings: iterable of
    pairs ((id, side), (id, side)) with side in {"12","23","31"}; a side may
    appear in at most one gluing, and never glued to itself.
    """

    triangles: dict
    gluings: tuple = ()
    n: int = field(init=False, compare=False)
    _partner: dict = field(init=False, compare=False)

    __hash__ = None

    def __post_init__(self):
        tris = dict(self.triangles)
        if not tris:
            raise UnknownTriangle("a surface needs at least one triangle")
        ns = set()
        for tid, asg in tris.items():
            if not isinstance(tid, str):
                raise UnknownTriangle(f"triangle ids must be strings, got {tid!r}")
            if not isinstance(asg, FGAssignment):
                raise UnknownTriangle(f"triangle {tid!r} needs an FGAssignment")
            ns.add(asg.n)
        if len(ns) != 1:
            raise UnknownTriangle(f"mixed assignment ranks {sorted(ns)}")
        n = ns.pop()

        partner = {}
        pairs = []
        for raw in self.gluings:
            a, b = raw
            a = _norm_end(tuple(a))
            b = _norm_end(tuple(b))
            for tid, _ in (a, b):
                if tid not in tris:
                    raise UnknownTriangle(f"gluing references unknown triangle {tid!r}")
            if a == b:
                raise SideAlreadyGlued(f"cannot glue side {a} to itself")
            for end in (a, b):
                if end in partner:
                    raise SideAlreadyGlued(f"side {end} appears in two gluings")
            partner[a] = b
            partner[b] = a
            pairs.append(tuple(sorted((a, b))))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "gluings", tuple(sorted(pairs)))
        object.__setattr__(self, "_partner", partner)

    def __repr__(self):
        return (
            f"TriangulatedSurface(n={self.n}, triangles={sorted(self.triangles)}, "
            f"gluings={list(self.gluings)})"
        )

    def assignment(self, tri):
        if tri not in self.triangles:
            raise UnknownTriangle(f"no triangle {tri!r}")
        return self.triangles[tri]

    def glued_partner(self, tri, side):
        """The (triangle, side) glued to this one, or None if open."""
        end = _norm_end((tri, side))
        if tri not in self.triangles:
            raise UnknownTriangle(f"no triangle {tri!r}")
        return self._partner.get(end)

    def open_sides(self):
        out = []
        for tid in sorted(self.triangles):
            for side in SIDES:
                if (tid, side) not in self._partner:
                    out.append((tid, side))
        return tuple(out)

    def glue(self, end_a, end_b):
        """New surface with one more gluing."""
        return TriangulatedSurface(self.triangles, self.gluings + ((end_a, end_b),))

    def with_value(self, tri, vertex, value):
        """New surface with a single variable replaced, in one rebuild of the
        assignment and of the surface.  Triangles sharing the assignment
        object share the rebuilt one, so identified copies stay identified.
        """
        return self._with_values(((tri, vertex, value),))

    def _with_values(self, changes):
        """New surface with each (tri, vertex, value) of `changes` applied in
        order, as chained with_value calls would: each touched assignment
        object is rebuilt once, and the surface once."""
        touched = {}
        for tri, vertex, value in changes:
            if tri not in self.triangles:
                raise UnknownTriangle(f"no triangle {tri!r}")
            old = self.triangles[tri]
            if id(old) not in touched:
                touched[id(old)] = dict(old.values)
            vals, vertex = touched[id(old)], tuple(vertex)
            if vertex not in vals:
                raise UnknownSide(f"no variable at {vertex} for n={self.n}")
            vals[vertex] = value
        new = {key: FGAssignment(self.n, vals) for key, vals in touched.items()}
        tris = {t: new.get(id(a), a) for t, a in self.triangles.items()}
        return TriangulatedSurface(tris, self.gluings)

    def to_json(self):
        return {
            "schema": SCHEMA,
            "kind": "surface",
            "n": self.n,
            "triangles": {t: a.to_json() for t, a in sorted(self.triangles.items())},
            "gluings": [[list(a), list(b)] for a, b in self.gluings],
            "open_sides": [list(e) for e in self.open_sides()],
        }

    @classmethod
    def from_json(cls, doc, mode="rational"):
        check_schema(doc, "surface")
        with decoding("surface"):
            tris = {
                t: FGAssignment.from_json(a, mode) for t, a in doc["triangles"].items()
            }
            gluings = [(tuple(a), tuple(b)) for a, b in doc.get("gluings", ())]
            return cls(tris, gluings)


# -- path words ---------------------------------------------------------------


def t_token(tri, i, inverted=False):
    return ("T", tri, i, inverted)


S_TOKEN = ("S",)


@dataclass(frozen=True)
class TrianglePathWord:
    """Alternating word of triangle transports and side-change crossings.

    Tokens are ("S",) and ("T", triangle_id, i, inverted) with an int i in
    {1,2,3} and a bool inverted, never coerced; a bare "S" string is
    normalized.  Matrices multiply in the written order, so the rightmost
    token acts first.  Consecutive tokens must alternate between the two
    kinds; a word may open or close with a single S.  The sign is a stored
    overall factor, irrelevant projectively.
    """

    tokens: tuple
    sign: int = 1

    def __post_init__(self):
        toks = []
        for t in self.tokens:
            if t == "S" or t == ("S",):
                toks.append(S_TOKEN)
                continue
            t = tuple(t)
            ok = len(t) == 4 and t[0] == "T" and (type(t[2]), type(t[3])) == (int, bool)
            if not ok or t[2] not in (1, 2, 3):
                raise MalformedWord(f"bad token {t!r}")
            toks.append(t)
        if not toks:
            raise MalformedWord("empty path word")
        for a, b in zip(toks, toks[1:]):
            if a[0] == b[0]:
                raise MalformedWord(f"adjacent {a[0]} tokens break the alternation")
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise MalformedWord(f"sign must be +1 or -1, got {self.sign!r}")
        object.__setattr__(self, "tokens", tuple(toks))

    def __repr__(self):
        bits = []
        for t in self.tokens:
            if t == S_TOKEN:
                bits.append("S")
            else:
                inv = "'" if t[3] else ""
                bits.append(f"T{t[2]}({t[1]}){inv}")
        lead = "-" if self.sign == -1 else ""
        return lead + ".".join(bits)

    def inverse(self):
        """Reversed word with every transport inverted; projective inverse."""
        toks = []
        for t in reversed(self.tokens):
            if t == S_TOKEN:
                toks.append(t)
            else:
                toks.append(("T", t[1], t[2], not t[3]))
        return TrianglePathWord(toks, self.sign)

    def triangles(self):
        return tuple(sorted({t[1] for t in self.tokens if t[0] == "T"}))

    def to_json(self):
        return {
            "schema": SCHEMA,
            "kind": "triangle_path_word",
            "tokens": [list(t) for t in self.tokens],
            "sign": self.sign,
        }

    @classmethod
    def from_json(cls, doc):
        check_schema(doc, "triangle_path_word")
        with decoding("triangle_path_word"):
            tokens = _json_list(doc["tokens"], "tokens")
            return cls([tuple(t) for t in tokens], doc.get("sign", 1))


def path_matrix(surf, word):
    """Evaluate a path word on a surface, projectively, exactly.

    T tokens stand for transport matrices for the named triangle's
    assignment; inverted transports for their adjugates, the inverses up to
    the determinant scalar.  S tokens stand for the side-change matrix.  The
    whole word runs once through snakes' column-operation evaluator, and the
    stored sign multiplies the result.
    """
    if not isinstance(word, TrianglePathWord):
        raise MalformedWord("path_matrix needs a TrianglePathWord")
    steps = []
    for t in word.tokens:
        if t == S_TOKEN:
            steps.append(t)
            continue
        _, tri, i, inverted = t
        if tri not in surf.triangles:
            raise UnknownTriangle(f"word references unknown triangle {tri!r}")
        steps.append((i, surf.triangles[tri], inverted))
    return _evaluate(surf.n, steps, word.sign)


# -- amalgamation -------------------------------------------------------------


def amalgamation_classes(surf):
    """Partition of all triangle variables induced by the gluings.

    Returns {"amalgamated": pairs, "free": singles, "interior": singles}.
    A variable is addressed as (triangle_id, vertex).  Each gluing pairs
    position k of one side with position n-k of the other; those two
    variables only ever enter path matrices through their product.  Open
    side variables are free pinnings; interior variables are untouched by
    gluing.
    """
    n = surf.n
    free = []
    for tri, side in surf.open_sides():
        for k in range(1, n):
            free.append((tri, side_vertex(n, side, k)))
    interior = []
    for tri in sorted(surf.triangles):
        for v in interior_vertices(n):
            interior.append((tri, v))
    return {
        "amalgamated": _amalgamated_pairs(surf),
        "free": tuple(sorted(free)),
        "interior": tuple(sorted(interior)),
    }


def _amalgamated_pairs(surf):
    """The amalgamated pairs of surf's gluings, each pair sorted, in sorted order."""
    return tuple(sorted({
        tuple(sorted((a, b)))
        for end_a, end_b in surf.gluings
        for _, a, b in _glued_pairs(surf.n, end_a, end_b)
    }))


def amalgamated_products(surf):
    """Value of each amalgamated class: the product over its two members."""
    out = {}
    for pair in _amalgamated_pairs(surf):
        (t1, v1), (t2, v2) = pair
        out[pair] = surf.triangles[t1][v1] * surf.triangles[t2][v2]
    return out


def unamalgamate(surf, end_a, end_b, split=None):
    """Tear one gluing apart, splitting each amalgamated product in two.

    end_a, end_b: the glued (triangle, side) pair, in either order.  split:
    mapping position k (an int in 1..n-1, measured along end_a's side) to a
    pair (value_a, value_b) whose product equals the current amalgamated
    product at that position; omitted positions and a split of None mean
    (product, 1).  Returns the surface with the gluing removed and the two
    sides re-pinned.  Raises NotGlued unless the pair is currently glued,
    UnknownSide for any other split key, and DomainError for a split value
    that is not a pair (a tuple or list of two values).
    """
    n = surf.n
    a = _norm_end(tuple(end_a))
    b = _norm_end(tuple(end_b))
    if surf._partner.get(a) != b:
        raise NotGlued(f"{a} and {b} are not glued together")
    split = dict(split or {})
    for k, v in split.items():
        if type(k) is not int or not 1 <= k <= n - 1:
            raise UnknownSide(f"split position must be an int in 1..{n - 1}, got {k!r}")
        if not isinstance(v, (tuple, list)) or len(v) != 2:
            raise DomainError(f"split at position {k} must be a pair of values, got {v!r}")
    # triangles sharing an assignment object are split apart here, since
    # tearing can re-pin the copies differently
    new_vals = {t: dict(surf.triangles[t].values) for t in surf.triangles}
    for k, (ta, va), (tb, vb) in _glued_pairs(n, a, b):
        product = surf.triangles[ta][va] * surf.triangles[tb][vb]
        left, right = split.get(k, (product, product * 0 + 1))
        if left * right != product:
            raise DomainError(
                f"split at position {k} multiplies to {left * right}, "
                f"amalgamated product is {product}"
            )
        new_vals[ta][va] = left
        new_vals[tb][vb] = right
    tris = {t: FGAssignment(n, v) for t, v in new_vals.items()}
    gluings = [p for p in surf.gluings if p != tuple(sorted((a, b)))]
    return TriangulatedSurface(tris, gluings)


# -- worked surfaces ----------------------------------------------------------


def _cylinder_words(first, second):
    """The cylinder's arcs and core loop, crossing the top triangle as `first`
    and then as `second` (the same triangle, or two copies of it)."""
    return {
        "arc1": TrianglePathWord(["S", t_token("b", 2), "S", t_token(first, 1)]),
        "arc2": TrianglePathWord([t_token(second, 2), "S", t_token("b", 1), "S"]),
        "loop": TrianglePathWord(
            [t_token(first, 1, True), "S", t_token("b", 3), "S", t_token(second, 2, True)]
        ),
    }


def cylinder_two_cusps(n, assignments):
    """Cylinder with one cusp on each end, from two triangles t and b.

    assignments: {"t": FGAssignment, "b": FGAssignment}.  The triangles are
    glued along two side pairs, leaving each triangle's "12" side as an open
    cusp edge.  Returns (surface, words) where words has the two cusp-to-cusp
    arcs and the core loop:

      arc1 = S T2(b) S T1(t)
      arc2 = T2(t) S T1(b) S
      loop = T1(t)^-1 S T3(b) S T2(t)^-1
    """
    surf = TriangulatedSurface(
        {"t": assignments["t"], "b": assignments["b"]},
        [(("t", "31"), ("b", "23")), (("b", "31"), ("t", "23"))],
    )
    return surf, _cylinder_words("t", "t")


def cylinder_three_triangle(n, assignments):
    """Validation variant of the cylinder: the top triangle drawn twice.

    Triangles l and r are copies sharing the single "t" assignment, glued to
    b on opposite sides; both cusp arcs and the core loop then use l for the
    first top crossing and r for the second.  Evaluates to exactly the same
    three matrices as cylinder_two_cusps.
    """
    top = assignments["t"]
    surf = TriangulatedSurface(
        {"l": top, "r": top, "b": assignments["b"]},
        [(("l", "31"), ("b", "23")), (("b", "31"), ("r", "23"))],
    )
    return surf, _cylinder_words("l", "r")


def four_holed_sphere_fg(n, assignments):
    """Four-holed sphere from four triangles around a central one.

    assignments: {"l","r","d","c"} -> FGAssignment.  Triangle c is central;
    l, r, d each glue one side to c and their remaining two sides to each
    other, wrapping a boundary hole.  The fourth hole is enclosed by the
    outer boundary.  Returns (surface, words) with the four boundary loops:

      loop1 = -S T3(r) S T2(r) S
      loop2 = -T2(c) S T3(d) S T2(d) S T2(c)^-1
      loop3 = -T1(c)^-1 S T3(l) S T2(l) S T1(c)
      loop4 =  T1(c)^-1 S T2(l)^-1 S T3(l)^-1 S T3(c)^-1 S T2(d)^-1 S
               T3(d)^-1 S T2(c)^-1 S T2(r)^-1 S T3(r)^-1 S

    The loop product loop1*loop2*loop3*loop4 is a scalar matrix.  The signs
    are carried for bookkeeping only; projectively they change nothing.
    """
    surf = TriangulatedSurface(
        {k: assignments[k] for k in ("l", "r", "d", "c")},
        [
            (("c", "12"), ("r", "23")),
            (("c", "23"), ("d", "23")),
            (("c", "31"), ("l", "23")),
            (("r", "12"), ("r", "31")),
            (("d", "12"), ("d", "31")),
            (("l", "12"), ("l", "31")),
        ],
    )
    inv = True
    words = {
        "loop1": TrianglePathWord(
            ["S", t_token("r", 3), "S", t_token("r", 2), "S"], sign=-1
        ),
        "loop2": TrianglePathWord(
            [
                t_token("c", 2), "S", t_token("d", 3), "S",
                t_token("d", 2), "S", t_token("c", 2, inv),
            ],
            sign=-1,
        ),
        "loop3": TrianglePathWord(
            [
                t_token("c", 1, inv), "S", t_token("l", 3), "S",
                t_token("l", 2), "S", t_token("c", 1),
            ],
            sign=-1,
        ),
        "loop4": TrianglePathWord(
            [
                t_token("c", 1, inv), "S", t_token("l", 2, inv), "S",
                t_token("l", 3, inv), "S", t_token("c", 3, inv), "S",
                t_token("d", 2, inv), "S", t_token("d", 3, inv), "S",
                t_token("c", 2, inv), "S", t_token("r", 2, inv), "S",
                t_token("r", 3, inv), "S",
            ],
            sign=1,
        ),
    }
    return surf, words


# -- rank 2 lifts -------------------------------------------------------------


def _sqrt_exact(x):
    """Exact square root of a Fraction or of a Laurent monomial."""
    if isinstance(x, (int, Fraction)):
        root = exact_sqrt(Fraction(x))
        if root is None:
            raise NotAPerfectSquare(f"{x} is not a rational square")
        return root
    coeff, exps = x.monomial_parts()
    if any(e % 2 for e in exps):
        raise NotAPerfectSquare(f"odd exponent in {x}")
    return x.ring.monomial(
        _sqrt_exact(coeff), **{name: e // 2 for name, e in zip(x.ring.names, exps)}
    )


def sl2_lift(m):
    """Scale a 2x2 matrix to determinant one, exactly.

    The determinant must be a perfect square (a rational square, or a
    monomial square for Laurent entries); otherwise NotAPerfectSquare.
    The lift is unique up to overall sign, so traces of lifted matrices
    carry a global sign ambiguity.
    """
    (a, b), (c, d) = m
    det = a * d - b * c
    s = _sqrt_exact(det)
    return ((a / s, b / s), (c / s, d / s))


def trace_k(m):
    """Cusp trace Tr(A K): K has a single -1 in its bottom-left corner."""
    return -m[0][-1]
