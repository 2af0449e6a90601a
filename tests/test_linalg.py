import random
from fractions import Fraction as Q

import pytest

from teichkit.laurent import LaurentRing
from teichkit.linalg import adjugate, det, is_scalar_matrix, mat_mul, mat_scale, proj_eq


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
