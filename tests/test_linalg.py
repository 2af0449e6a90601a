import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from teichkit import linalg
from teichkit.flags import (
    DimensionMismatch,
    Flag,
    LineConfig,
    pencil_cross_ratio,
    projective_basis_vectors,
)
from teichkit.laurent import LaurentRing
from teichkit.linalg import adjugate, det, is_scalar_matrix, mat_mul, mat_scale, proj_eq
from teichkit.snakes import boundary_snake_12, snake_basis


def _random_matrix(rng, n):
    return tuple(
        tuple(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        for _ in range(n)
    )


class TestProjEq:
    """proj_eq(a, b) holds exactly when a == c * b for some nonzero scalar c."""

    def test_zero_b_matches_nothing(self):
        assert not proj_eq(((Q(2),),), ((Q(0),),))
        assert not proj_eq(((Q(0),),), ((Q(0),),))
        zero = ((Q(0), Q(0)), (Q(0), Q(0)))
        assert not proj_eq(zero, zero)

    def test_zero_a_matches_nothing(self):
        assert not proj_eq(((Q(0), Q(0)), (Q(0), Q(0))), ((Q(1), Q(0)), (Q(0), Q(1))))

    def test_singular_b_with_multiple(self):
        b = ((Q(1), Q(2)), (Q(2), Q(4)))
        assert det(b) == 0
        assert proj_eq(mat_scale(Q(2), b), b)
        assert proj_eq(mat_scale(Q(-1, 3), b), b)
        assert not proj_eq(((Q(1), Q(2)), (Q(2), Q(5))), b)
        assert not proj_eq(((Q(2), Q(2)), (Q(2), Q(4))), b)

    def test_pivot_entry_of_a_must_be_nonzero(self):
        b = ((Q(0), Q(3)), (Q(0), Q(0)))
        assert not proj_eq(((Q(0), Q(0)), (Q(0), Q(0))), b)
        assert not proj_eq(((Q(1), Q(0)), (Q(0), Q(0))), b)
        assert proj_eq(((Q(0), Q(-6)), (Q(0), Q(0))), b)

    def test_shapes(self):
        one = ((Q(1),),)
        two = ((Q(1), Q(0)), (Q(0), Q(1)))
        assert not proj_eq(one, two)
        assert not proj_eq(((Q(1), Q(2)),), ((Q(1), Q(2)),))
        assert not proj_eq((), ())
        assert not proj_eq((), one) and not proj_eq(one, ())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_verdict_as_adjugate_form_on_invertible_b(self, n):
        # for invertible b, a == c*b with c != 0 iff a*adj(b) is a nonzero scalar
        rng = random.Random(40 + n)
        seen = set()
        for _ in range(60):
            b = _random_matrix(rng, n)
            if det(b) == 0:
                continue
            c = Q(rng.randint(-3, 3), rng.randint(1, 3))
            a = mat_scale(c, b)
            if rng.random() < 0.5:
                i, j = rng.randrange(n), rng.randrange(n)
                a = tuple(
                    tuple(x + (1 if (r, s) == (i, j) else 0) for s, x in enumerate(row))
                    for r, row in enumerate(a)
                )
            want = is_scalar_matrix(mat_mul(a, adjugate(b))) is not None
            assert proj_eq(a, b) == want
            seen.add(want)
        assert seen == {True, False}

    def test_laurent_entries(self):
        ring = LaurentRing("x", "y")
        x, y = ring.gens()
        b = ((x, y + 1), (ring.one, x * y))
        assert proj_eq(mat_scale(x * x / y, b), b)
        assert proj_eq(mat_scale(x + y, b), b)
        assert not proj_eq(((x, y + 1), (ring.one, x)), b)


def _triple_loop(a, b):
    """Reference product: entry (i, j) sums a[i][k] * b[k][j] over k in order."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _entry(rng, kind, ring):
    if kind == "int-fraction":
        kind = rng.choice(["int", "int", "int", "fraction", "whole-fraction"])
    elif kind == "mixed":
        kind = rng.choice(["int", "fraction", "float"])
    elif kind == "laurent":
        kind = rng.choice(["fraction", "gen"])
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "fraction":
        return Q(rng.randint(-9, 9), rng.randint(1, 6))
    if kind == "whole-fraction":
        return Q(rng.randint(-9, 9))
    if kind == "float":
        return rng.uniform(-5.0, 5.0)
    if kind == "bool":
        return rng.random() < 0.5
    x, y = ring.gens()
    return rng.choice([x, y, x * y + 1, x / y - 2])


MAT_MUL_KINDS = ["int", "fraction", "int-fraction", "float", "mixed", "bool", "laurent"]


class TestMatMul:
    """mat_mul against the triple loop, entry types included (by repr)."""

    @pytest.mark.parametrize("kind", MAT_MUL_KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_triple_loop(self, kind, n):
        rng = random.Random(f"{kind}-{n}")
        ring = LaurentRing("x", "y")
        shapes = [(n, n, n), (n, rng.randint(1, 6), rng.randint(1, 6))]
        shapes.append((rng.randint(1, 6), n, rng.randint(1, 6)))
        for rows, inner, cols in shapes:
            a = tuple(tuple(_entry(rng, kind, ring) for _ in range(inner)) for _ in range(rows))
            b = tuple(tuple(_entry(rng, kind, ring) for _ in range(cols)) for _ in range(inner))
            assert repr(mat_mul(a, b)) == repr(_triple_loop(a, b))

    def test_empty_operands_are_refused(self):
        for a, b in [((), ()), ((), ((1,),)), (((1,),), ())]:
            with pytest.raises(linalg.LinAlgError):
                mat_mul(a, b)


def test_non_square_is_never_scalar():
    # a non-square matrix is never c*I, whatever its leading square block
    assert is_scalar_matrix(((1, 0, 5), (0, 1, 0))) is None
    assert is_scalar_matrix(((1, 0), (0, 1), (0, 0))) is None
    assert is_scalar_matrix(()) is None


def _definition_rref(rows):
    """Gauss-Jordan over Fraction, each pivot row divided by its pivot."""
    m = [[Q(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots


SCALARS = st.integers(-4, 4) | st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def matrices(draw):
    """Int and Fraction rows of one length, with dependent and zero rows mixed in."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(SCALARS, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        row = [0] * ncols
        if rows and draw(st.booleans()):
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(SCALARS), draw(SCALARS)
            row = [s * x + t * y for x, y in zip(u, v)]
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


class TestEliminationDefinition:
    """rank, rref and the integer pivot columns against Gauss-Jordan over Fraction."""

    @settings(max_examples=200)
    @given(matrices())
    def test_against_fraction_gauss_jordan(self, rows):
        want, pivots = _definition_rref(rows)
        got, got_pivots = linalg.rref(rows)
        assert got == want and got_pivots == pivots
        assert all(type(x) is Q for row in got for x in row)
        assert linalg._echelon([linalg._cleared(r)[0] for r in rows])[1] == pivots
        assert linalg.rank(rows) == len(linalg.rref(rows)[1]) == len(pivots)

    @settings(max_examples=100)
    @given(matrices(), st.booleans())
    def test_echelon_rows_are_primitive(self, rows, reduced):
        m, pivots = linalg._echelon([linalg._cleared(r)[0] for r in rows], reduced)
        assert all(math.gcd(*row) == 1 for row in m[: len(pivots)])
        assert not any(x for row in m[len(pivots) :] for x in row)

    @settings(max_examples=100)
    @given(matrices())
    def test_nullspace_is_the_kernel(self, rows):
        # x spans the kernel: rows . x = 0, ncols - rank vectors, independent
        basis = linalg.nullspace(rows)
        ncols = len(rows[0]) if rows else 0
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows for v in basis)
        assert all(len(v) == ncols for v in basis)
        assert len(basis) == ncols - linalg.rank(rows)
        assert linalg.rank(basis) == len(basis)

    def test_zero_pivot_is_refused(self):
        vecs = [[0, 1], [1, 1]]
        with pytest.raises(linalg.LinAlgError):
            linalg._eliminate(vecs, 0, 0, [1])
        assert vecs == [[0, 1], [1, 1]]

    def test_singular_square_and_wide(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 0, 0], [Q(1, 2), 1, Q(3, 2)]]
        assert linalg.rank(rows) == 1
        assert linalg.rref(rows) == ([[1, 2, 3], [0, 0, 0], [0, 0, 0], [0, 0, 0]], [0])
        assert linalg.rank([[0, 0, 1, 2], [0, 0, 2, 5]]) == 2
        assert linalg._echelon([[0, 0, 1, 2], [0, 0, 2, 5]])[1] == [2, 3]
        assert linalg.rank([]) == 0 and linalg.rref([]) == ([], [])


def test_solve_returns_one_solution_or_none():
    # nothing in the package calls solve; it is public, so its contract is
    # pinned here
    assert linalg.solve([[1, 2], [3, 4]], [5, 6]) == (-4, Q(9, 2))
    assert linalg.solve([[1, 2], [2, 4]], [1, 3]) is None
    x = linalg.solve([[1, 1, 0], [0, 0, 1]], [Q(1, 2), 2])
    assert x == (Q(1, 2), 0, 2) and all(type(v) is Q for v in x)


RAGGED = [[[1, 2], [2, 4, 5]], [[1, 2, 3], [2, 4]], [[0, 0], [1]], [[Q(1, 2)], [1, 2]]]


@pytest.mark.parametrize("rows", RAGGED, ids=["longer", "shorter", "zero-first", "fraction"])
def test_ragged_rows_are_refused(rows):
    for fn in (linalg.rank, linalg.rref, linalg.row_space, linalg.nullspace):
        with pytest.raises(linalg.LinAlgError, match="ragged rows"):
            fn(rows)
    with pytest.raises(linalg.LinAlgError, match="ragged rows"):
        linalg.intersect_row_spaces(rows, [[1, 0]])
    with pytest.raises(linalg.LinAlgError, match="ragged rows"):
        linalg.solve(rows, [1] * len(rows))


def test_intersection_of_different_widths_is_refused():
    with pytest.raises(linalg.LinAlgError, match="ragged rows"):
        linalg.intersect_row_spaces([[1, 0]], [[1, 0, 0]])


@pytest.mark.parametrize("b", [[1], [1, 2, 3], []])
def test_solve_needs_one_right_hand_side_per_equation(b):
    # zipping the rows with b would drop the equations past len(b)
    with pytest.raises(linalg.LinAlgError, match="2 equations"):
        linalg.solve([[1, 2], [3, 4]], b)


FIELD_ROUTINES = {
    "rank": lambda row: linalg.rank([[1, 0], row]),
    "rref": lambda row: linalg.rref([row]),
    "row_space": lambda row: linalg.row_space([row]),
    "nullspace": lambda row: linalg.nullspace([row]),
    "canonical_vector": lambda row: linalg.canonical_vector(row),
    "intersect-left": lambda row: linalg.intersect_row_spaces([row], [[1, 0]]),
    "intersect-right": lambda row: linalg.intersect_row_spaces([[1, 0]], [row]),
    "solve": lambda row: linalg.solve([row], [7]),
}

# the field routines and every other entry point that clears a row given
# from outside, each called with the row [entry, 2]
RANK2_LINES = LineConfig(2, {(1, 0, 0): (1, 0), (0, 1, 0): (0, 1), (0, 0, 1): (1, 1)}, {})
ROW_ENTRY_POINTS = {
    **FIELD_ROUTINES,
    "Flag": lambda row: Flag([row, [0, 1]]),
    "pencil_cross_ratio": lambda row: pencil_cross_ratio(row, (1, 0), (0, 1), (1, 1)),
    "basis-lines": lambda row: projective_basis_vectors([row, (0, 1), (1, 1)], (1, 1)),
    "basis-weights": lambda row: projective_basis_vectors([(1, 0), (0, 1), (1, 1)], row),
    "snake_basis-first": lambda row: snake_basis(
        RANK2_LINES, boundary_snake_12(2), first=row
    ),
}


@pytest.mark.parametrize("entry", ["1", True, False, None, 1j], ids=repr)
@pytest.mark.parametrize("routine", ROW_ENTRY_POINTS)
def test_non_number_entries_are_refused(routine, entry):
    # as _cleared refuses them: Fraction would parse a str and read a bool
    # as 0 or 1, and a str, None or a complex has no exact ratio
    row = [entry, 2]
    seen = row + [7] if routine == "solve" else row
    with pytest.raises(Exception) as refused:
        ROW_ENTRY_POINTS[routine](row)
    assert (type(refused.value), str(refused.value)) == (
        TypeError,
        f"entries must be numbers, got {seen!r}",
    )


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("routine", ROW_ENTRY_POINTS)
def test_non_finite_entries_are_refused(routine, entry):
    # a Flag calls them no finite number; elsewhere they raise as in Fraction
    if routine == "Flag":
        want = (DimensionMismatch, "a flag entry is not a finite number")
    else:
        with pytest.raises((ValueError, OverflowError)) as fraction:
            Q(entry)
        want = (type(fraction.value), str(fraction.value))
    with pytest.raises(Exception) as refused:
        ROW_ENTRY_POINTS[routine]([entry, 2])
    assert (type(refused.value), str(refused.value)) == want
