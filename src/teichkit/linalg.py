"""Small exact dense linear algebra.

Matrices are tuples of row tuples.  The division-free operations (product,
determinant by cofactor expansion, adjugate, projective equality) work over
any commutative ring element type: Fraction, float, complex, or LaurentPoly.
Rank, solving and subspace work need a field.

An exact row is cleared once, where it comes in: ``_cleared`` gives its
entries as ints over the lcm of their denominators (a str, a bool or another
entry with no exact ratio is a TypeError there), and ``_echelon`` then
eliminates integer rows by one row step, ``_eliminate``, which divides each
row it changes by its content; callers that already hold integer rows
(flags) pass them straight in.  Fractions appear only in results.

Products cost O(n^3) and projective equality O(n^2).  A product whose
entries are all ints and Fractions clears each row of its left factor and
each column of its right one that holds a Fraction, and makes one Fraction
per entry.  Det and adjugate expand cofactors and grow like n!; they serve
tests only, as references, and no other module of the package imports them:
snakes evaluates and inverts transports from their words, Flag checks
invertibility by rank, and flags.triple_ratio takes its 3x3 determinants as
triple products.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


class LinAlgError(ArithmeticError):
    pass


def mat(rows):
    rows = tuple(tuple(r) for r in rows)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise LinAlgError("ragged rows")
    return rows


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a))


def _cleared(v):
    """(ints, d) with v = ints / d, d the lcm of the entries' denominators.

    A str, a bool or another entry with no exact ratio (None, complex) is a
    TypeError: Fraction would parse the one and read the other as 0 or 1.  A
    float nan or inf raises ValueError or OverflowError, as in Fraction.
    """
    v = list(v)
    if bool in map(type, v):
        raise TypeError(f"entries must be numbers, got {v!r}")
    try:
        pairs = [x.as_integer_ratio() for x in v]
    except AttributeError:
        raise TypeError(f"entries must be numbers, got {v!r}") from None
    d = lcm(*[q for _, q in pairs])
    return [p * (d // q) for p, q in pairs], d


def mat_mul(a, b):
    """The product a b, each entry summed over its row and column in order.

    When every entry of a and b is an int or a Fraction, each row of a and
    column of b that holds a Fraction is cleared to ints once, and an entry
    is one Fraction of an int dot product, or that int where its row and
    column hold only ints; any other product sums the entries' own
    products, without division.
    fatgraph.Mat2's product follows the same rule over Fractions, with one
    denominator per 2x2 factor.
    """
    a, b = mat(a), mat(b)
    if not a or not b:
        raise LinAlgError("a product needs nonempty matrices")
    if len(a[0]) != len(b):
        raise LinAlgError(f"shape mismatch {len(a)}x{len(a[0])} * {len(b)}x{len(b[0])}")
    exact = all(type(x) is int or type(x) is Fraction for m in (a, b) for r in m for x in r)
    rows, cols = (
        [_cleared(v) if exact and Fraction in map(type, v) else (v, None) for v in m]
        for m in (a, transpose(b))
    )
    return tuple(
        tuple(
            sum(map(mul, x, y)) if dx is dy is None
            else Fraction(sum(map(mul, x, y)), (dx or 1) * (dy or 1))
            for y, dy in cols
        )
        for x, dx in rows
    )


def mat_scale(s, a):
    return tuple(tuple(s * x for x in row) for row in a)


def mat_prod(ms, n=None):
    """Product of a sequence of square matrices, left to right."""
    ms = list(ms)
    if not ms:
        if n is None:
            raise LinAlgError("empty product needs a dimension")
        return identity(n)
    out = mat(ms[0])
    for m in ms[1:]:
        out = mat_mul(out, m)
    return out


def _minor(a, i, j):
    return tuple(
        tuple(x for jj, x in enumerate(row) if jj != j)
        for ii, row in enumerate(a)
        if ii != i
    )


def det(a):
    a = mat(a)
    n = len(a)
    if n == 0 or len(a[0]) != n:
        raise LinAlgError("determinant needs a nonempty square matrix")
    return _cofactor_det(a)


def _cofactor_det(a):
    """det of a nonempty square tuple matrix, expanded along its first row."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    out = None
    for j in range(n):
        piece = a[0][j] * _cofactor_det(_minor(a, 0, j))
        if j % 2:
            piece = -piece
        out = piece if out is None else out + piece
    return out


def adjugate(a):
    """Transpose of the cofactor matrix; a * adj(a) = det(a) * I, no division."""
    a = mat(a)
    n = len(a)
    if a and len(a[0]) != n:
        raise LinAlgError("adjugate needs a square matrix")
    if n == 1:
        return ((Fraction(1),),)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            c = _cofactor_det(_minor(a, j, i))
            if (i + j) % 2:
                c = -c
            row.append(c)
        out.append(tuple(row))
    return tuple(out)


def is_scalar_matrix(a):
    """Return the scalar c when a == c*I with c != 0, else None."""
    a = mat(a)
    n = len(a)
    if not a or len(a[0]) != n:
        return None
    c = a[0][0]
    if c == 0:
        return None
    for i in range(n):
        for j in range(n):
            if i == j:
                if a[i][j] != c:
                    return None
            elif a[i][j] != 0:
                return None
    return c


def proj_eq(a, b):
    """Projective equality: a == scalar * b with nonzero scalar.

    Division-free: against the first nonzero entry b[p][q], require
    a[p][q] != 0 and a[i][j] * b[p][q] == b[i][j] * a[p][q] everywhere.  A
    zero matrix is projectively equal to nothing, itself included.
    """
    a, b = mat(a), mat(b)
    if not a or len(a) != len(b) or len(a[0]) != len(b[0]) or len(a) != len(a[0]):
        return False
    pivot = next(
        ((i, j) for i, row in enumerate(b) for j, x in enumerate(row) if x != 0),
        None,
    )
    if pivot is None:
        return False
    bp, ap = b[pivot[0]][pivot[1]], a[pivot[0]][pivot[1]]
    if ap == 0:
        return False
    return all(x * bp == y * ap for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# -- field routines ----------------------------------------------------------


def _primitive(v):
    """The integer row v divided by its content; a zero row stays zero."""
    g = gcd(*v)
    return [a // g for a in v] if g > 1 else v


def _eliminate(vecs, p, k, targets):
    """Zero entry k of each integer vector vecs[t], t in targets, against vecs[p].

    v becomes vecs[p][k]*v - v[k]*vecs[p], divided by its content: a nonzero
    multiple of itself plus one of vecs[p], so spans of leading vectors keep in
    any pivot order.  Vectors are replaced, not mutated, so ones handed out
    earlier keep their values.  A zero pivot raises LinAlgError.
    """
    pivot = vecs[p][k]
    if not pivot:
        raise LinAlgError("zero pivot")
    for t in targets:
        x = vecs[t][k]
        if x:
            vecs[t] = _primitive([pivot * a - x * b for a, b in zip(vecs[t], vecs[p])])


def _echelon(rows, reduced=False):
    """(echelon rows divided by their content, pivot columns) of the integer
    rows: ``_eliminate`` clears below each pivot, and above it too when
    ``reduced``.  Rows of different lengths raise LinAlgError."""
    m = [_primitive(r) for r in rows]
    if any(len(r) != len(m[0]) for r in m):
        raise LinAlgError("ragged rows")
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        below = range(r + 1, len(m))
        _eliminate(m, r, c, [*range(r), *below] if reduced else below)
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m, pivots = _echelon([_cleared(r)[0] for r in rows], reduced=True)
    scales = [row[c] for row, c in zip(m, pivots)] + [1] * (len(m) - len(pivots))
    return [[Fraction(x, d) for x in row] for row, d in zip(m, scales)], pivots


def rank(rows):
    return len(_echelon([_cleared(r)[0] for r in rows])[1])


def _span(rows):
    """``row_space`` of integer rows: their reduced echelon rows, each
    divided by its pivot."""
    m, pivots = _echelon(rows, reduced=True)
    return tuple(tuple(Fraction(x, row[c]) for x in row) for row, c in zip(m, pivots))


def row_space(rows):
    """Canonical form of a row span: pivot-normalized echelon rows, no zeros.

    Two row sets span the same subspace iff their canonical forms are equal.
    """
    return _span([_cleared(r)[0] for r in rows])


def nullspace(rows):
    """Basis (list of tuples) of {x : rows . x = 0}, column-vector convention."""
    m, pivots = rref(rows)
    if not rows:
        return []
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -m[r][f]
        basis.append(tuple(v))
    return basis


def solve(a_rows, b):
    """One solution x of A x = b over Fraction, or None if inconsistent."""
    a, b = [list(r) for r in a_rows], list(b)
    if len(b) != len(a):
        raise LinAlgError(f"{len(a)} equations but {len(b)} right-hand sides")
    m, pivots = rref([row + [bv] for row, bv in zip(a, b)])
    ncols = len(a[0]) if a else 0
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = m[r][ncols]
    return tuple(x)


def intersect_row_spaces(a_rows, b_rows):
    """Canonical basis of rowspace(A) ∩ rowspace(B), by Zassenhaus' algorithm:
    the rows of an echelon form of [[A, A], [B, 0]] that vanish on the left
    half span the intersection on the right half."""
    a, b = [_cleared(r)[0] for r in a_rows], [_cleared(r)[0] for r in b_rows]
    if not a or not b:
        return ()
    n = len(a[0])
    m, pivots = _echelon([r + r for r in a] + [r + [0] * n for r in b])
    return _span([row[n:] for row, c in zip(m, pivots) if c >= n])


def _canonical(v):
    """``canonical_vector`` of an integer vector."""
    lead = next((x for x in v if x), None)
    if lead is None:
        raise LinAlgError("zero vector has no canonical form")
    return tuple(Fraction(x, lead) for x in v)


def canonical_vector(v):
    """Scale so the first nonzero coordinate is 1; canonical line representative."""
    return _canonical(_cleared(v)[0])
