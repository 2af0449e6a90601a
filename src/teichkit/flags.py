"""Complete flags and the line/plane configuration of a flag triple.

A complete flag in R^n is a chain of nested subspaces F_1 < F_2 < ... < F_n,
stored here as an invertible matrix whose first i rows span F_i.  A triple of
flags in general position induces, on the lattice triangle of side n, a line
for every upward tile and a plane for every downward tile; the projective
invariants of that configuration (triple ratios at interior lattice vertices,
cross ratios of coplanar line pencils) are the coordinates used by the
transport machinery in snakes.py.

Everything in this module is exact.  Every output is projective, so rank,
transversality and genericity are decided over the integers, on rows with
cleared denominators, by linalg's fraction-free row step, which divides each
row it changes by its content.  Fractions appear only in results:
canonical_vector lines, row_space planes and the returned ratios.  A row is
cleared once, where it comes in (``linalg._cleared``): a ``Flag``'s rows at
construction, for every elimination of flag rows (genericity, the
splitting, ``line_config``'s lines and planes); a ``LineConfig``'s lines at
construction, for ``triple_ratio`` and ``snakes.snake_basis``; the vectors
given to ``pencil_cross_ratio`` and ``projective_basis_vectors`` on entry.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import mul

from .encode import (
    SCHEMA,
    _matrix_from_json,
    _vector_from_json,
    check_schema,
    decoding,
    scalar_to_json,
)
from .errors import DomainError, SchemaError
from .halfplane import INFINITY, cross_ratio as boundary_cross_ratio
from .linalg import (
    LinAlgError,
    _canonical,
    _cleared,
    _echelon,
    _eliminate,
    _span,
)


class DimensionMismatch(DomainError):
    pass


class SingularFlag(DomainError):
    pass


class NotTransverse(DomainError):
    pass


class NotProjectiveBasis(DomainError):
    pass


class NotGeneric(DomainError):
    pass


class DegenerateConfiguration(DomainError):
    pass


class NotCoplanar(DomainError):
    pass


@dataclass(frozen=True)
class Flag:
    """Complete flag: F_i is the span of the first i rows of ``rows``.

    The matrix must be square and invertible; this is checked exactly at
    construction, by rank.  Rows are stored as Fractions; an entry that is
    not a finite number (a float nan or inf) is a DimensionMismatch.  Flags
    are immutable and compare by their row matrix.

    Each row is cleared once, at construction, to its integer form (the row
    times the lcm of its denominators), and every elimination of the flag's
    rows reads that in place of ``rows``.
    """

    rows: tuple
    _integer_rows: tuple = field(init=False, compare=False)

    def __post_init__(self):
        try:
            cleared = [_cleared(r) for r in self.rows]
        except (ValueError, OverflowError):
            raise DimensionMismatch("a flag entry is not a finite number") from None
        n = len(cleared)
        if not n or any(len(r) != n for r, _ in cleared):
            raise DimensionMismatch("flag matrix must be square and nonempty")
        integer_rows = tuple(tuple(r) for r, _ in cleared)
        if len(_echelon(integer_rows)[1]) != n:
            raise SingularFlag("flag matrix is singular")
        rows = tuple(tuple(Fraction(x, d) for x in r) for r, d in cleared)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_integer_rows", integer_rows)

    @property
    def n(self):
        return len(self.rows)

    def subspace(self, i):
        """Canonical echelon basis of F_i; i = 0 gives the zero space ()."""
        if not 0 <= i <= self.n:
            raise DimensionMismatch(f"subspace index {i} out of range 0..{self.n}")
        return _span(self._integer_rows[:i])

    def __repr__(self):
        return f"Flag({[list(r) for r in self.rows]})"

    def to_json(self):
        return {
            "schema": SCHEMA,
            "kind": "flag",
            "rows": [[scalar_to_json(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, doc):
        check_schema(doc, "flag")
        with decoding("flag"):
            return cls(_matrix_from_json(doc["rows"]))


def standard_flag(n):
    """The flag spanned by e_1, e_2, ..., e_n in that order."""
    return Flag([[int(i == j) for j in range(n)] for i in range(n)])


def reversed_flag(n):
    """The flag spanned by e_n, ..., e_1; opposite to the standard one."""
    return Flag([[int(i + j == n - 1) for j in range(n)] for i in range(n)])


# -- lattice bookkeeping ------------------------------------------------------
#
# Barycentric triples (a,b,c) of nonnegative integers label, depending on
# their sum: lattice vertices (sum n), upward tiles alias lines (sum n-1),
# downward tiles alias planes (sum n-2).


def _triples(total):
    if total < 0:
        return []
    return [
        (a, b, total - a - b)
        for a in range(total, -1, -1)
        for b in range(total - a, -1, -1)
    ]


def upward_tiles(n):
    """Centers of upward tiles: triples summing to n-1."""
    return _triples(n - 1)


def downward_tiles(n):
    """Centers of downward tiles: triples summing to n-2."""
    return _triples(n - 2)


def interior_vertices(n):
    """Lattice vertices not on the boundary: sum n, all parts positive."""
    return [(a, b, c) for (a, b, c) in _triples(n) if a >= 1 and b >= 1 and c >= 1]


def _splitting(f1, f2, rows):
    """Coordinates adapted to a transverse pair, in one elimination pass.

    Column operations on the stacked rows of f1, f2 and ``rows`` change the
    basis of R^n: first an ``_echelon`` of the columns, until f1's rows are
    lower triangular, then, adding only later coordinates into earlier ones,
    until f2's j-th row lives on the last j coordinates.  Basis vector i then
    spans L_i = F1_i ∩ F2_{n-i+1}; each is known up to a nonzero factor.
    ``rows`` are integer rows, and are returned in these coordinates.
    Raises NotTransverse when one of f2's pivots vanishes, i.e. when
    F1_{n-j} ∩ F2_j is not zero.
    """
    if f1.n != f2.n:
        raise DimensionMismatch("flags live in different dimensions")
    n = f1.n
    cols = _echelon(zip(*f1._integer_rows, *f2._integer_rows, *rows))[0]
    for j in range(n):
        p = n - 1 - j
        if not cols[p][n + j]:
            raise NotTransverse("flags are not transverse")
        _eliminate(cols, p, n + j, range(p))
    return list(zip(*cols))[2 * n :]


def _block_rows(rows):
    """Rows of F3 that span its intersections with every block, by block.

    ``rows`` are F3's rows in the splitting basis of (F1, F2); entries past
    the first n ride along.  The block F1_{n-a} ∩ F2_{n-b} is the set of
    vectors vanishing on C, the last a and the first b coordinates.  For each
    a, forward elimination without row exchanges takes the columns in the
    order n-1, ..., n-a, 0, 1, ...; it adds earlier rows to (multiples of)
    later ones only, so row k stays in F3_{k+1}, and after k pivots rows k,
    k+1 vanish on the first k columns of that order.  Returns {(a, b):
    [row a+b, row a+b+1]} (one row when a+b = n-1); for a generic triple the
    first j of them span F1_{n-a} ∩ F2_{n-b} ∩ F3_{a+b+j}.  A vanishing pivot
    is a vanishing minor det M[:a+b, C], i.e. F1_{n-a} ∩ F2_{n-b} ∩ F3_{a+b}
    is not zero, and raises LinAlgError.  Every a starts with the columns
    n-1, n-2, ..., so that shared part runs once.
    """
    n = len(rows)
    out = {}
    spine = list(rows)
    for a in range(n):
        branch = list(spine)
        for k in range(a, n):
            out[(a, k - a)] = branch[k : k + 2]
            if k < n - 1:
                _eliminate(branch, k, k - a, range(k + 1, n))
        if a < n - 1:
            _eliminate(spine, a, n - 1 - a, range(a + 1, n))
    return out


def general_position(f1, f2, f3):
    """Exact test of general position for a triple of flags.

    True iff for every index triple (i1,i2,i3) the intersection
    F1_{i1} ∩ F2_{i2} ∩ F3_{i3} has the minimal possible dimension
    max(i1+i2+i3-2n, 0).  Taking i3 = n recovers pairwise transversality,
    so no separate check is needed.

    Decided in the splitting basis L of (F1, F2) (see ``two_flag_splitting``):
    F1 and F2 must be transverse, and then F1_{n-a} ∩ F2_{n-b} is spanned by
    the coordinates outside C = {first b} ∪ {last a}.  With M the rows of F3
    in that basis, dim(F1_{n-a} ∩ F2_{n-b} ∩ F3_k) = k - rank M[:k, C], which
    is minimal for every k iff the minor det M[:|C|, C] is not zero.  These
    minors vanish with the pivots of one integer elimination per a
    (``_block_rows``).

    Dually (Fock-Goncharov, Publ. IHÉS 103 (2006), §9): with F_i* the
    annihilator of F_{n-i} (rows: F^-1's columns, reversed) and Δ_{a,b,c} the
    det of the first a, b, c rows of F1*, F2*, F3* stacked, this holds iff
    every Δ_{a,b,c}(F*) with a+b+c = n is nonzero, as the annihilator of
    F1_{n-a} ∩ F2_{n-b} ∩ F3_{n-c} is F1*_a + F2*_b + F3*_c.
    """
    if not (f1.n == f2.n == f3.n):
        raise DimensionMismatch("flags live in different dimensions")
    try:
        _block_rows(_splitting(f1, f2, f3._integer_rows))
    except (NotTransverse, LinAlgError):
        return False
    return True


def two_flag_splitting(f, g):
    """Decompose R^n into lines L_1 .. L_n adapted to a transverse flag pair.

    L_i = F_i ∩ G_{n-i+1}; then F_i = L_1 + ... + L_i and
    G_i = L_n + ... + L_{n-i+1}.  Returns canonical generators, read off a
    reduced integer echelon form of [E | I], whose rows are multiples of
    those of [I | E^-1], E the identity in the splitting coordinates.
    """
    n = f.n
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    m = _echelon([[*r, *x] for r, x in zip(_splitting(f, g, e), e)], reduced=True)[0]
    return tuple(_canonical(r[n:]) for r in m)


def projective_basis_vectors(lines, weights):
    """Vectors v_1..v_n spanning the first n lines with the last as a mix.

    ``lines`` is a sequence of n+1 generator vectors in R^n such that any n
    of them are linearly independent; ``weights`` is a sequence of n nonzero
    scalars.  Returns the unique (up to one global factor) basis with
    <v_i> = lines[i] and <w_1 v_1 + ... + w_n v_n> = lines[n].  The global
    factor is fixed by scaling the first vector's first nonzero entry to 1.
    Lines of different lengths are a DimensionMismatch.  Lines and weights
    are read as integer rows: a line's scale cancels against its coefficient,
    and the weights' common scale goes with the global factor.
    """
    gens = [_cleared(v)[0] for v in lines]
    if not gens:
        raise NotProjectiveBasis("no lines given")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise DimensionMismatch("lines live in different dimensions")
    if len(gens) != n + 1:
        raise NotProjectiveBasis(f"need {n + 1} lines in dimension {n}, got {len(gens)}")
    w = _cleared(weights)[0]
    if len(w) != n or any(x == 0 for x in w):
        raise NotProjectiveBasis("weights must be n nonzero scalars")
    # any n of the lines span iff the first n do and the last line has a
    # nonzero coefficient on each of them: one reduced echelon form of
    # [v_1 .. v_n | v_n+1]
    m, pivots = _echelon([[*col, x] for col, x in zip(zip(*gens[:n]), gens[n])], reduced=True)
    if pivots != list(range(n)):
        raise NotProjectiveBasis("some n of the lines do not span")
    if any(row[n] == 0 for row in m):
        raise NotProjectiveBasis("last line is not a full mix of the others")
    coeffs = [Fraction(row[n], row[i]) for i, row in enumerate(m)]
    vecs = [tuple(c / wi * x for x in g) for c, wi, g in zip(coeffs, w, gens)]
    lead = next(x for x in vecs[0] if x != 0)
    return tuple(tuple(x / lead for x in v) for v in vecs)


@dataclass(frozen=True)
class LineConfig:
    """Lines and planes cut out by a flag triple on the lattice triangle.

    lines:  map (a,b,c) with a+b+c = n-1 to a canonical line generator,
            the 1-dim space F1_{n-a} ∩ F2_{n-b} ∩ F3_{n-c}.
    planes: map (a,b,c) with a+b+c = n-2 to a canonical echelon pair spanning
            the matching 2-dim intersection.  Empty when n = 2: the only
            downward tile would carry the whole plane, not a proper subspace.

    A rank n that is not an int (a bool included) is a TypeError, which
    ``from_json`` reports as a SchemaError; the rank is never coerced.  A
    rank below 1, a key that is not a nonnegative int triple with the right
    sum, a line that is not a list or tuple of n numbers, or a plane that is
    not a list or tuple of such rows, is a DimensionMismatch.  A number is an
    int, a Fraction or a finite float, by exact type, so a bool is not one.
    Keys are checked by arithmetic, never against an enumerated lattice, so
    a huge n costs nothing.  ``from_json`` accepts a key only in the
    spelling ``to_json`` writes ("1,0,0", not "01,0,0"), so no two JSON keys
    name the same tile.

    Each line is cleared once, after these checks, to its integer generator
    and denominator, which the consumers read in place of the line, so
    ``lines`` must not be edited after construction.  A consumer that needs
    a line the config lacks raises DegenerateConfiguration.
    """

    n: int
    lines: dict
    planes: dict
    _cleared_lines: dict = field(init=False, compare=False)

    __hash__ = None

    def __post_init__(self):
        if type(self.n) is not int:
            raise TypeError(f"rank must be an int, got {type(self.n).__name__}")
        if self.n < 1:
            raise DimensionMismatch(f"rank must be at least 1, got {self.n}")
        object.__setattr__(self, "lines", _lattice_keyed(self.lines, self.n - 1, "line"))
        object.__setattr__(self, "planes", _lattice_keyed(self.planes, self.n - 2, "plane"))
        # passes of map and chain keep this small next to the elimination
        # that built the lines
        planes = list(self.planes.values())
        if not set(map(type, planes)) <= {list, tuple}:
            raise DimensionMismatch("a plane is not a list or tuple of rows")
        vectors = [*self.lines.values(), *chain.from_iterable(planes)]
        if not set(map(type, vectors)) <= {list, tuple} or set(map(len, vectors)) - {self.n}:
            raise DimensionMismatch(f"a line or plane row is not a vector of length {self.n}")
        kinds = set(map(type, chain.from_iterable(vectors)))
        if not kinds <= {int, Fraction, float} or float in kinds and not all(
            math.isfinite(x) for x in chain.from_iterable(vectors) if type(x) is float
        ):
            raise DimensionMismatch("a line or plane entry is not a finite number")
        object.__setattr__(self, "_cleared_lines", {k: _cleared(v) for k, v in self.lines.items()})

    def _line(self, tile):
        """(integer generator, denominator) of the line at ``tile``."""
        try:
            return self._cleared_lines[tile]
        except KeyError:
            raise DegenerateConfiguration(f"no line at tile {tile}") from None

    def __repr__(self):
        return f"LineConfig(n={self.n}, {len(self.lines)} lines, {len(self.planes)} planes)"

    def to_json(self):
        return {
            "schema": SCHEMA,
            "kind": "line_config",
            "n": self.n,
            "lines": {
                ",".join(map(str, k)): [scalar_to_json(x) for x in v]
                for k, v in sorted(self.lines.items())
            },
            "planes": {
                ",".join(map(str, k)): [[scalar_to_json(x) for x in row] for row in v]
                for k, v in sorted(self.planes.items())
            },
        }

    @classmethod
    def from_json(cls, doc):
        check_schema(doc, "line_config")
        with decoding("line_config"):
            lines = {
                _key_from_text(k): _vector_from_json(v) for k, v in doc["lines"].items()
            }
            planes = {
                _key_from_text(k): _matrix_from_json(v) for k, v in doc["planes"].items()
            }
            return cls(doc["n"], lines, planes)


def _key_from_text(text):
    """The key "a,b,c" spells, in the one spelling ``to_json`` writes."""
    key = tuple(int(s) for s in text.split(","))
    if ",".join(map(str, key)) != text:
        raise SchemaError(f"key {text!r} is not in canonical form")
    return key


def _lattice_keyed(mapping, total, what):
    """A copy of mapping, checked to be keyed by (a, b, c) >= 0 with a + b + c = total."""
    out = dict(mapping)
    for k in out:
        if not (
            type(k) is tuple
            and len(k) == 3
            and all(type(x) is int and x >= 0 for x in k)
            and sum(k) == total
        ):
            raise DimensionMismatch(f"{what} key {k!r} is off the lattice a + b + c = {total}")
    return out


def line_config(f1, f2, f3):
    """Compute the full line/plane configuration of a triple in general position.

    The subspace at a tile (a,b,c) is F1_{n-a} ∩ F2_{n-b} ∩ F3_{n-c}.  In the
    splitting basis of (F1, F2) it is the span of the first n-a-b-c rows that
    ``_block_rows`` leaves for the block (a, b); F3's own integer rows,
    reduced alongside, give them in the original coordinates.

    Past the ``general_position`` gate nothing needs a run-time check: the
    elimination adds earlier rows of the invertible F3 to later ones only,
    so block rows are nonzero and a block's two rows independent, and
    F1_{n-a-1} ⊂ F1_{n-a} (likewise F2, F3) puts each corner line of a
    downward tile in its plane.  ``TestGenericityDefinition`` and
    ``test_planes_contain_corner_lines`` pin both facts.
    """
    if not general_position(f1, f2, f3):
        raise NotGeneric("flags are not in general position")
    n = f1.n
    f3_rows = f3._integer_rows
    m = _splitting(f1, f2, f3_rows)
    blocks = _block_rows([r + f for r, f in zip(m, f3_rows)])
    lines = {t: _canonical(blocks[t[:2]][0][n:]) for t in upward_tiles(n)}
    planes = {}
    if n >= 3:
        planes = {t: _span([r[n:] for r in blocks[t[:2]]]) for t in downward_tiles(n)}
    return LineConfig(n, lines, planes)


def triple_ratio(config, vertex):
    """Projective invariant of the six lines around an interior lattice vertex.

    ``vertex`` = (a,b,c) with a+b+c = n and a,b,c >= 1; it is the common
    corner of three upward tiles (a+1,b-1,c-1), (a-1,b+1,c-1), (a-1,b-1,c+1)
    and three downward tiles, and equivalently labels the white triangle of
    the line lattice with corners at those tiles.  The six incident lines lie
    in a common 3-dim subspace; the returned scalar is the ratio

        |A,AB,C| |C,CA,B| |B,BC,A|
        ---------------------------
        |A,AB,B| |B,BC,C| |C,CA,A|

    of 3x3 determinants taken in any basis of that subspace, where A,B,C are
    the corner lines and AB,BC,CA the intermediate ones.  The value does not
    depend on the basis nor on the scaling of any generator.  As in
    ``pencil_cross_ratio``, one integer echelon of the six generators as rows
    finds the pivot columns of their span; projecting onto those three
    columns is injective on the span, so the determinants are triple products
    (P×Q)·R of the generators' entries there.  The corners may be coplanar,
    so they are not used as a basis.
    For a generic triple F, with F* and Δ as in
    ``general_position``, triple_ratio(line_config(F), (a,b,c)) is 1/X(F*),
    Fock-Goncharov's X = Δ_{a+1,b-1,c} Δ_{a,b+1,c-1} Δ_{a-1,b,c+1} /
    (Δ_{a+1,b,c-1} Δ_{a-1,b+1,c} Δ_{a,b-1,c+1}).
    """
    a, b, c = vertex
    if a + b + c != config.n or min(a, b, c) < 1:
        raise ValueError(f"{vertex} is not an interior lattice vertex for n={config.n}")
    keys = (  # A, AB, B, BC, C, CA
        (a + 1, b - 1, c - 1), (a, b, c - 1), (a - 1, b + 1, c - 1),
        (a - 1, b, c), (a - 1, b - 1, c + 1), (a, b - 1, c),
    )
    lines = [config._line(k)[0] for k in keys]
    pivots = _echelon(lines)[1]
    if len(pivots) != 3:
        raise DegenerateConfiguration(
            f"lines around {vertex} span dimension {len(pivots)}, expected 3"
        )
    A, AB, B, BC, C, CA = ([g[p] for p in pivots] for g in lines)
    x, y, z = _cross(A, AB), _cross(B, BC), _cross(C, CA)
    num = sum(map(mul, x, C)) * sum(map(mul, z, B)) * sum(map(mul, y, A))
    den = sum(map(mul, x, B)) * sum(map(mul, y, C)) * sum(map(mul, z, A))
    if den == 0:
        raise DegenerateConfiguration(f"vanishing denominator at {vertex}")
    return Fraction(num, den)


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def pencil_cross_ratio(l1, l2, l3, l4):
    """Cross ratio of four distinct coplanar lines through the origin.

    The four generators must be nonzero and span exactly a 2-dim subspace.
    Each line is mapped to its slope in the reduced echelon basis of that
    subspace (read off its entries at the two pivot columns) and the
    boundary cross ratio of the four slopes is returned; the result does not
    depend on the basis.  Generators of different lengths are a
    DimensionMismatch.
    """
    gens = [_cleared(v)[0] for v in (l1, l2, l3, l4)]
    if len(set(map(len, gens))) > 1:
        raise DimensionMismatch("lines live in different dimensions")
    if not all(any(g) for g in gens):
        raise DegenerateConfiguration("a zero vector spans no line")
    pivots = _echelon(gens)[1]
    if len(pivots) > 2:
        raise NotCoplanar("lines do not lie in a common plane")
    if len(pivots) < 2:
        raise DegenerateConfiguration("lines span less than a plane")
    p, q = pivots
    slopes = [INFINITY if g[p] == 0 else Fraction(g[q], g[p]) for g in gens]
    return boundary_cross_ratio(*slopes)
