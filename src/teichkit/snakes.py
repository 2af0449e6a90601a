"""Snake paths on the lattice triangle and the transport matrices T1, T2, T3.

A snake is a path of n upward tiles descending from a corner of the lattice
triangle to the opposite side.  Walking a snake through the orientation rule
of snake_basis produces a projective basis; flipping snake segments
(moves I and II) multiplies that basis by explicit elementary matrices.  The
composite words, with Fock-Goncharov variables inserted at the white lattice
vertices swept by move II and at the side vertices, are the transport
matrices between the three sides of a triangle of flags.

The sweep from side 12 to side 31 is fixed by n: move II at round j and
position k sweeps the white vertex (n-1-k, n-1-j, k+j+2-n), so
transport_word writes its word in closed form.

All matrices are unnormalized projective representatives: the diagonal
factors H are stored without the determinant-fixing fractional powers, so
results are exact over the rationals and equality of transports is scalar
equality (linalg.proj_eq).  Bases are stacked as rows and matrices act by
left multiplication throughout.

No transport, and no path word of transports, adjugates (inverses up to a
scalar) and side changes, is built as a product of dense matrices: _evaluate
runs the whole factor word once as column operations on a running matrix,
each transport word compiled once per (n, which) to a tuple of actions that
an adjugate walks backwards.  A word whose values are all ints and Fractions
(a pre-pass stops at the first that is not) runs over int columns, each with
a lazy int scale, and divides once per entry, at the end; any other word
runs in its values' ring without division.  Over ints H_k(p/q) multiplies
the n column scales, by p or by q, instead of the n^2 entries, S puts its
signs on the odd scales, and L_k folds two columns of different scales over
their gcd.  A transport costs O(n^3) int products, and an adjugate, read
off the reversed word with one scalar per word, the same.  The column ints
grow about linearly in n, in bits; the scales and the running denominator,
which gather a numerator or denominator of every one of the word's O(n^2)
H values, grow about like n^2.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, isfinite
from operator import add, sub

from .encode import SCHEMA, check_schema, decoding, scalar_from_json, scalar_to_json
from .errors import DomainError, SchemaError
from .flags import DegenerateConfiguration, interior_vertices
from .linalg import _canonical, _cleared, mat_mul, mat_prod, transpose


# The largest rank n an FGAssignment accepts (the smallest is 2).  Its keys
# number O(n^2), and a transport or an adjugate costs O(n^3) int products,
# n or 2n for each factor of its word, on column scales whose bits grow like
# n^2.  A short document such as "n": 10**9 would not return; it is refused
# before any key is enumerated.
MAX_RANK = 32


class IndexOutOfRange(DomainError):
    pass


class RankOutOfRange(DomainError):
    pass


class BadSegment(DomainError):
    pass


class IncompleteAssignment(DomainError):
    pass


class NonpositiveVariable(DomainError):
    pass


def elem_l(n, k):
    """Row operation L_k = I + E_{k+1,k}: adds row k to row k+1 (1-indexed)."""
    if not 1 <= k <= n - 1:
        raise IndexOutOfRange(f"L_k needs 1 <= k <= {n - 1}, got {k}")
    return tuple(
        tuple(
            Fraction(int(i == j or (i, j) == (k, k - 1)))
            for j in range(n)
        )
        for i in range(n)
    )


def elem_h(n, k, t):
    """Diagonal diag(1 x k, t x (n-k)), the unnormalized projective H_k(t)."""
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"H_k needs 1 <= k <= {n}, got {k}")
    zero = t * 0
    one = zero + 1
    return tuple(
        tuple((one if i < k else t) if i == j else zero for j in range(n))
        for i in range(n)
    )


def elem_s(n):
    """Antidiagonal reversal S with (S)_{ij} = (-1)^(n-i) delta_{i,n+1-j}."""
    return tuple(
        tuple(
            Fraction((-1) ** (n - 1 - i)) if i + j == n - 1 else Fraction(0)
            for j in range(n)
        )
        for i in range(n)
    )


# -- snakes -------------------------------------------------------------------

# axis index pairs (i, j) such that the segment from tile m+e_i to tile m+e_j
# runs clockwise around their common gray triangle
_CLOCKWISE = {(0, 1), (1, 2), (2, 0)}


def _segment_frame(a, b):
    """(c, clockwise) for the segment from tile a to an adjacent tile b: c is
    the third tile of their gray triangle, and clockwise whether a -> b runs
    clockwise around it.  Tiles that are not adjacent are a BadSegment."""
    m = tuple(min(x, y) for x, y in zip(a, b))
    if sum(m) != sum(a) - 1:
        raise BadSegment(f"tiles {a} and {b} are not adjacent")
    i = next(k for k in range(3) if a[k] == m[k] + 1)
    j = next(k for k in range(3) if b[k] == m[k] + 1)
    k = 3 - i - j
    return tuple(m[x] + (1 if x == k else 0) for x in range(3)), (i, j) in _CLOCKWISE


@dataclass(frozen=True)
class Snake:
    """Ordered tuple of n upward tiles descending from a corner.

    The first tile touches a corner of the lattice triangle; every segment
    lowers the corner's coordinate by exactly one, which is equivalent to no
    segment running parallel to the opposite (target) side.  A coordinate
    that is not an int (a bool included) is a TypeError, never coerced.
    """

    tiles: tuple
    n: int = field(init=False, compare=False)
    axis: int = field(init=False, compare=False)
    _frames: tuple = field(init=False, compare=False)

    def __post_init__(self):
        tiles = tuple(tuple(t) for t in self.tiles)
        if not all(type(x) is int for t in tiles for x in t):
            raise TypeError(f"snake tiles must have int coordinates, got {tiles!r}")
        if not tiles:
            raise BadSegment("empty snake")
        n = sum(tiles[0]) + 1
        if len(tiles) != n:
            raise BadSegment(f"snake needs {n} tiles, got {len(tiles)}")
        for t in tiles:
            if len(t) != 3 or min(t) < 0 or sum(t) != n - 1:
                raise BadSegment(f"{t} is not an upward tile for n={n}")
        axis = next((k for k in range(3) if tiles[0][k] == n - 1), None)
        if axis is None:
            raise BadSegment(f"snake must start at a corner tile, got {tiles[0]}")
        frames = []
        for a, b in zip(tiles, tiles[1:]):
            frames.append(_segment_frame(a, b))
            if a[axis] - b[axis] != 1:
                raise BadSegment(
                    f"segment {a} -> {b} is parallel to the target side"
                )
        object.__setattr__(self, "tiles", tiles)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "_frames", tuple(frames))

    def __repr__(self):
        return f"Snake({list(self.tiles)})"

    def segment_clockwise(self, i):
        """True when segment i (between tiles i and i+1) runs clockwise.

        Segments are numbered 0..n-2; any other i, a negative one included,
        is an IndexError.
        """
        if not 0 <= i < self.n - 1:
            raise IndexError(f"segment index must be in 0..{self.n - 2}, got {i}")
        return self._frames[i][1]


def boundary_snake_12(n):
    """The side-12 snake: corner 1 to corner 2 along c = 0.

    The boundary snakes of each rank are made once and shared.  A rank n that
    is not an int (a bool included) is a TypeError, as a tile coordinate is.
    """
    return _boundary_snake(_int_rank(n), 0)


def boundary_snake_23(n):
    return _boundary_snake(_int_rank(n), 1)


def boundary_snake_31(n):
    return _boundary_snake(_int_rank(n), 2)


def _int_rank(n):
    """n itself.  A rank that is not an int is refused here, before it keys
    the cache, where True and 2.0 would find the entries of 1 and 2."""
    if type(n) is not int:
        raise TypeError(f"rank must be an int, got {type(n).__name__}")
    return n


# The boundary snake of side 12, 23 or 31 (side 0, 1 or 2: the side-12 tiles
# rotated side times) of rank n, kept per (n, side) from its first use.  A
# Snake is frozen, so every caller may share it.
@cache
def _boundary_snake(n, side):
    return Snake([_rotate_key((n - 1 - t, t, 0), side) for t in range(n)])


def _flip(snake, idx):
    """Flip the snake's tile idx to the third tile of the gray triangle it
    spans with tile idx-1.

    Returns (new tiles, white vertex swept).  The segment into the flipped
    tile must run clockwise so that the basis change is the positive branch
    of the orientation rule.
    """
    tiles = snake.tiles
    new, clockwise = snake._frames[idx - 1]
    if not clockwise:
        raise BadSegment(
            f"segment {tiles[idx - 1]} -> {tiles[idx]} must be clockwise to flip"
        )
    white = tuple(max(a, b) for a, b in zip(tiles[idx], new))
    return tiles[:idx] + (new,) + tiles[idx + 1 :], white


def move_one(snake):
    """Flip the last segment of the snake.

    Returns (new snake, matrix).  The matrix is L_{n-1}: on a row-stacked
    basis it replaces the last vector v_n by v_n + v_{n-1}.
    """
    n = snake.n
    if n < 2:
        raise BadSegment("move I needs at least two tiles")
    tiles, _ = _flip(snake, n - 1)
    return Snake(tiles), elem_l(n, n - 1)


def move_two(snake, k, z):
    """Flip segments k and k+1 of the snake (1-indexed, 1 <= k <= n-2).

    Returns (new snake, matrix, white vertex).  The matrix is the block
    diag(I_{k-1}, ((1,0,0),(1,1,0),(0,0,z)), z I_{n-k-2}), which equals
    L_k * H_{k+1}(z); z is the Fock-Goncharov variable at the white vertex
    swept by the flip.
    """
    n = snake.n
    if not 1 <= k <= n - 2:
        raise IndexOutOfRange(f"move II needs 1 <= k <= {n - 2}, got {k}")
    tiles, white = _flip(snake, k)
    new = Snake(tiles)
    matrix = mat_mul(elem_l(n, k), elem_h(n, k + 1, z))
    return new, matrix, white


def snake_basis(config, snake, first=None):
    """Build the basis determined by a snake from a line configuration.

    Starting from ``first`` (default: the canonical generator of the line at
    the snake's first tile) each segment determines the next vector through
    the orientation rule: walking a segment from tile a to tile b across a
    gray triangle with third corner c, the new vector v_b satisfies
    v_b + v_a in line(c) for a clockwise segment and v_b - v_a in line(c)
    for a counterclockwise one: over the integers, by Cramer's rule on a
    nonzero 2x2 minor of (v_b, v_c), checked on every coordinate.  Rows are
    returned in snake order, as Fractions; the first is ``first``, or the
    stored line itself.

    The lines b and c are read as the integer generators the config cleared
    at construction, and each segment's third tile c and direction as the
    snake found them when it checked the segment.  A given ``first`` must
    span the stored first line, compared projectively.
    """
    if config.n != snake.n:
        raise BadSegment(f"snake for n={snake.n} but config has n={config.n}")
    tiles = snake.tiles
    # the last vector is vec / den, vec an integer row; a row is cleared once,
    # where it comes in: the config's line at construction, or ``first`` here
    g0, d0 = config._line(tiles[0])
    if first is None:
        rows, vec, den = [config.lines[tiles[0]]], g0, d0
    else:
        vec, den = _cleared(first)
        if _canonical(vec) != (_canonical(g0) if any(g0) else None):
            raise DegenerateConfiguration("first vector not on the snake's first line")
        rows = [tuple(Fraction(x, den) for x in vec)]
    for a, b, (c, clockwise) in zip(tiles, tiles[1:], snake._frames):
        u, w = config._line(b)[0], config._line(c)[0]
        rhs = [-x for x in vec] if clockwise else vec
        pairs = combinations(range(len(u)), 2)
        s, t = next(((s, t) for s, t in pairs if u[s] * w[t] != u[t] * w[s]), (0, 0))
        d = u[s] * w[t] - u[t] * w[s]
        x, y = rhs[s] * w[t] - rhs[t] * w[s], u[s] * rhs[t] - u[t] * rhs[s]
        if not x or any(d * r != x * p + y * q for p, q, r in zip(u, w, rhs)):
            raise DegenerateConfiguration(
                f"orientation rule breaks down on segment {a} -> {b}"
            )
        vec, den = [x * p for p in u], d * den
        g = gcd(den, *vec)
        vec, den = [p // g for p in vec], den // g
        rows.append(tuple(Fraction(p, den) for p in vec))
    return tuple(rows)


# -- transport words ----------------------------------------------------------


def _rotate_key(key, times):
    """The lattice point (a, b, c) after ``times`` turns (a, b, c) -> (c, a, b),
    the triangle's one rotation: a turn takes side 12 to 23, 23 to 31 and 31
    to 12, position by position."""
    a, b, c = key
    for _ in range(times % 3):
        a, b, c = c, a, b
    return (a, b, c)


def transport_word(n, which):
    """Elementary factor list for the transport matrix, in display order.

    Factors are ("S",), ("L", k) and ("H", k, vertex); the product of the
    factors left to right, with each vertex replaced by its Fock-Goncharov
    value, is the transport matrix.  which = 1 transports side 12 to side
    31; 2 and 3 are its cyclic rotations.

    Between the side factors sits the sweep from side 12 to the reverse of
    side 31, read right to left as moves compose: a move I, L(n-1), then
    rounds j = 1, ..., n-2, each the moves II at k = n-1-j, ..., n-2,
    L(k) H(k+1, (n-1-k, n-1-j, k+j+2-n)), and a move I (move_one, move_two).
    """
    if n < 2:
        raise IndexOutOfRange("transport needs n >= 2")
    if which not in (1, 2, 3):
        raise IndexOutOfRange(f"which must be 1, 2 or 3, got {which}")
    word = [("S",)]
    word += [("H", n - k, (k, 0, n - k)) for k in range(1, n)]
    for j in range(n - 2, 0, -1):
        word.append(("L", n - 1))
        for k in range(n - 2, n - 2 - j, -1):
            word += [("L", k), ("H", k + 1, (n - 1 - k, n - 1 - j, k + j + 2 - n))]
    word.append(("L", n - 1))
    word += [("H", k, (n - k, k, 0)) for k in range(1, n)]
    rot = which - 1
    return [
        (f[0], f[1], _rotate_key(f[2], rot)) if f[0] == "H" else f for f in word
    ]


def side_vertices(n):
    """All side (non-corner, boundary) lattice vertices, sum n: for each k the
    vertex (n-k, k, 0) of side 12 and its rotations onto sides 23 and 31."""
    return [_rotate_key((n - k, k, 0), side) for k in range(1, n) for side in range(3)]


@dataclass(frozen=True)
class FGAssignment:
    """Fock-Goncharov variables: one positive scalar per non-corner vertex.

    Keys are the 3(n-1) side vertices and the (n-1)(n-2)/2 interior vertices
    of the sum-n lattice triangle; the constructor demands exactly that key
    set.  Values are positive scalars, or symbolic ring elements for exact
    manipulation (symbolics and complex numbers are only checked to be
    nonzero).  A vertex coordinate that is not an int (a bool included) is a
    TypeError, which ``from_json`` reports as a SchemaError, as it does a
    vertex listed twice and a rank that is not an int by exact type (JSON
    ``true`` and ``3.0`` included).
    """

    n: int
    values: dict

    __hash__ = None

    def __post_init__(self):
        n, values = self.n, self.values
        _check_rank(n)
        vals = {}
        for k, v in values.items():
            for x in k:
                if type(x) is not int:
                    raise TypeError(f"vertex {k!r} must have int coordinates")
            vals[tuple(k)] = v
        want = _vertices(n)[1]
        if vals.keys() != want:
            missing = sorted(want - vals.keys())
            extra = sorted(vals.keys() - want)
            raise IncompleteAssignment(
                f"assignment keys off for n={n}: missing {missing}, extra {extra}"
            )
        for key, v in vals.items():
            _check_value(key, v)
        object.__setattr__(self, "values", vals)

    def __getitem__(self, key):
        return self.values[tuple(key)]

    def rotated(self):
        """Cyclic relabeling: the value at (a,b,c) becomes the one at (c,a,b)."""
        return FGAssignment(
            self.n, {k: self.values[_rotate_key(k, 1)] for k in self.values}
        )

    @classmethod
    def constant(cls, n, value=Fraction(1)):
        _check_rank(n)
        return cls(n, dict.fromkeys(_vertices(n)[0], value))

    def to_json(self):
        return {
            "schema": SCHEMA,
            "kind": "fg_assignment",
            "n": self.n,
            "values": [
                {"a": a, "b": b, "c": c, "value": scalar_to_json(v)}
                for (a, b, c), v in sorted(self.values.items())
            ],
        }

    @classmethod
    def from_json(cls, doc, mode="rational"):
        check_schema(doc, "fg_assignment")
        with decoding("fg_assignment"):
            vals = {}
            for e in doc["values"]:
                key = (e["a"], e["b"], e["c"])
                if key in vals:
                    raise SchemaError(f"vertex {key} is listed twice")
                vals[key] = scalar_from_json(e["value"], mode)
            n = doc["n"]
            if type(n) is not int:
                raise SchemaError(f"rank must be a JSON integer, got {type(n).__name__}")
            return cls(n, vals)


def _check_rank(n):
    if type(n) is not int:
        raise RankOutOfRange(f"rank must be an int, got {type(n).__name__}")
    if n < 2:
        raise RankOutOfRange(f"rank must be at least 2, got {n}")
    if n > MAX_RANK:
        raise RankOutOfRange(f"rank exceeds MAX_RANK = {MAX_RANK}")


def _check_value(key, v):
    t = type(v)
    if t is int or t is Fraction:
        positive = (v if t is int else v.numerator) > 0
    elif isinstance(v, bool):
        raise TypeError(f"variable at {key} must be a number, got {v!r}")
    elif isinstance(v, (int, float, Fraction)):
        positive = v > 0 and not (isinstance(v, float) and not isfinite(v))
    elif isinstance(v, complex):
        if not v:
            raise NonpositiveVariable(f"variable at {key} is zero")
        return
    else:
        is_zero = getattr(v, "is_zero", None)
        if not callable(is_zero):
            raise TypeError(
                f"variable at {key} must be a number or a ring element, got {type(v).__name__}"
            )
        if is_zero():
            raise NonpositiveVariable(f"variable at {key} is zero")
        return
    if not positive:
        raise NonpositiveVariable(f"variable at {key} must be a positive finite number, got {v}")


# The keys of an FGAssignment of rank n, kept per rank from their first use:
# (the side vertices then the interior ones, as a tuple; the same as a
# frozenset).  Callers check the rank first.
@cache
def _vertices(n):
    keys = tuple(side_vertices(n) + interior_vertices(n))
    return keys, frozenset(keys)


# The column actions of transport_word(n, which), kept per (n, which) from
# its first use: (the word compiled to actions (code, k, vertex), and the
# vertices its H actions read, in word order).  An inverted step walks the
# same tuple backwards.
@cache
def _actions(n, which):
    word = transport_word(n, which)
    acts = tuple((*f, 0, None)[:3] for f in word)
    return acts, tuple(f[2] for f in word if f[0] == "H")


_EXACT = frozenset((int, Fraction))


def _evaluate(n, steps, scalar=1):
    """scalar times a word of transports, adjugates and side changes.

    A step is ("S",), the side change, or (which, assignment, inverted): T_which,
    or adj(T_which) when inverted.  The steps multiply left to right.  Each
    transport's factors, compiled once per (n, which) by _actions to actions
    (code, k, vertex), act on a running matrix from the right as column
    actions: L_k adds column k+1 into column k, H_k(t) scales columns k+1..n
    by t, S reverses the columns with signs (-1)^j (0-indexed j).
    adj(AB) = adj(B) adj(A), so an adjugate walks the same actions backwards,
    and up to a scalar each inverse factor is such an action: adj(L_k) =
    I - E_{k+1,k} subtracts instead of adding, adj(H_k(t)) = t^(n-k-1)
    diag(t x k, 1 x (n-k)) scales columns 1..k, and adj(S) = (-1)^(n-1) S.
    Those scalars gather into ``scalar``, which multiplies the result once.

    A pre-pass scans each step's values for exact types (int, Fraction) and
    stops at the first other one; only such a step is read again, in word
    order, for the widest ring.  A word whose values are all exact runs over
    int columns c_j with lazy int scales e_j: column j is scalar e_j c_j / den.
    H_k(p/q) multiplies each e_j by p or by q (n products, not n^2) and den by
    q, and an inverted one multiplies scalar by p^(n-k-1) and den by
    q^(n-k-1); L_k adds columns of equal scale as they are, and otherwise
    writes e_{k-1} c_{k-1} + e_k c_k over g = gcd(e_{k-1}, e_k), with e_{k-1}
    = g; S reverses the columns and the scales and negates every odd scale,
    n/2 sign flips, not n^2/2.  Each nonzero entry is one Fraction, at the
    end, and every zero entry one shared Fraction(0).  Any other word enters
    each t as (t, 1) and scales its columns as it goes, in the ring of the
    widest value the word reads, so its entries may be ring elements such as
    LaurentPoly.
    """
    walks = []
    one, exact = Fraction(1), True
    for step in steps:
        if step == ("S",):
            walks.append(((("S", 0, None),), None, False))
            continue
        which, assignment, inverted = step
        if not isinstance(assignment, FGAssignment) or assignment.n != n:
            raise IncompleteAssignment(f"need a complete assignment for n={n}")
        actions, keys = _actions(n, which)
        values = assignment.values
        # Every entry lives in the ring of the widest value the word reads,
        # in word order: rationals never widen it.
        if not all(map(_EXACT.__contains__, map(type, map(values.__getitem__, keys)))):
            for t in map(values.__getitem__, keys[::-1] if inverted else keys):
                if not isinstance(t, (int, Fraction)):
                    one, exact = one * (t * 0 + 1), False
        walks.append((reversed(actions) if inverted else actions, values, inverted))
    one = 1 if exact else one
    zero, den, e = one * 0, 1, [1] * n
    cols = [[one if i == j else zero for i in range(n)] for j in range(n)]
    for actions, values, inverted in walks:
        for code, k, v in actions:
            if code == "L":
                a, b = e[k - 1], e[k]
                if a == b:
                    cols[k - 1] = list(map(sub if inverted else add, cols[k - 1], cols[k]))
                else:
                    g = gcd(a, b)
                    a, b = a // g, -b // g if inverted else b // g
                    cols[k - 1] = [a * x + b * y for x, y in zip(cols[k - 1], cols[k])]
                    e[k - 1] = g
            elif code == "H":
                # columns 1..k by q and k+1..n by p, after an inverted swap
                t = values[v]
                p, q = t.as_integer_ratio() if exact else (t, 1)
                if inverted:
                    scalar, den, p, q = scalar * p ** (n - k - 1), den * q ** (n - k), q, p
                else:
                    den *= q
                if q != 1:
                    for j in range(k):
                        if exact:
                            e[j] *= q
                        else:
                            cols[j] = [x * q for x in cols[j]]
                if p != 1:
                    for j in range(k, n):
                        if exact:
                            e[j] *= p
                        else:
                            cols[j] = [x * p for x in cols[j]]
            else:
                if exact:
                    cols.reverse()
                    e.reverse()
                    for j in range(1, n, 2):
                        e[j] = -e[j]
                else:
                    cols = [[-x for x in c] if j % 2 else c for j, c in enumerate(cols[::-1])]
                if inverted and n % 2 == 0:
                    scalar = -scalar
    if exact:
        a, b, zero = scalar.numerator, scalar.denominator * den, Fraction(0)
        for j, s in enumerate(e):
            g = gcd(a * s, b)
            s, d = a * s // g, b // g
            cols[j] = [Fraction(x * s, d) if x else zero for x in cols[j]]
    elif scalar != 1:
        cols = [[x * scalar for x in c] for c in cols]
    return transpose(cols)


def transport(n, which, assignment):
    """Transport matrix T_which for the given Fock-Goncharov assignment.

    An exact unnormalized projective representative: T1*T2*T3 is a scalar
    matrix, not the identity on the nose.
    """
    return _evaluate(n, [(which, assignment, False)])


def transport_adjugate(n, which, assignment):
    """adj(T_which), read off the reversed transport word with no matrix inverse.

    Equal to linalg.adjugate(transport(n, which, assignment)); it is the
    inverse of the transport up to the scalar det(T_which).
    """
    return _evaluate(n, [(which, assignment, True)])


def standard_matrix_n3(z):
    """The 3x3 standard side-change matrix with variable z at the center."""
    one = z * 0 + 1
    zero = z * 0
    return (
        (one, one + z, z),
        (-one, -one, zero),
        (one, zero, zero),
    )


def hs_swap_check(n, k, z):
    """Exact form of the diagonal/antidiagonal swap identity.

    Verifies H_k(z) * S == z * (S * H_{n-k}(1/z)) entrywise; the factor z is
    the projective slack left by working with unnormalized representatives.
    """
    lhs = mat_mul(elem_h(n, k, z), elem_s(n))
    rhs = mat_mul(elem_s(n), elem_h(n, n - k, 1 / z))
    scaled = tuple(tuple(z * x for x in row) for row in rhs)
    return lhs == scaled


def reduce_to_shear(z):
    """n=2 dictionary between transport factors and half-plane turn matrices.

    Returns the three 2x2 matrices (crossing, left_turn, right_turn) where
    crossing = S*H_1(z) and the turns are the exact integer words
    S L1 S L1 and -(S L1).  With z = w**2 the crossing equals w times the
    edge-crossing matrix ((0,-w),(1/w,0)) used by the fat-graph holonomy.
    """
    s = elem_s(2)
    l1 = elem_l(2, 1)
    crossing = mat_mul(s, elem_h(2, 1, z))
    left_turn = mat_prod([s, l1, s, l1])
    right_turn = tuple(tuple(-x for x in row) for row in mat_mul(s, l1))
    return crossing, left_turn, right_turn
