"""Flag triples, their line/plane configurations, and projective ratios."""

import hashlib
import itertools
import json
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from teichkit import linalg as la
from teichkit.errors import SchemaError
from teichkit.flags import (
    DegenerateConfiguration,
    DimensionMismatch,
    Flag,
    LineConfig,
    NotCoplanar,
    NotGeneric,
    NotProjectiveBasis,
    NotTransverse,
    SingularFlag,
    _splitting,
    downward_tiles,
    general_position,
    interior_vertices,
    line_config,
    pencil_cross_ratio,
    projective_basis_vectors,
    reversed_flag,
    standard_flag,
    triple_ratio,
    two_flag_splitting,
    upward_tiles,
)
from teichkit.halfplane import DegenerateInput
from teichkit.linalg import canonical_vector, rank, row_space
from teichkit.snakes import (
    FGAssignment,
    boundary_snake_12,
    boundary_snake_23,
    boundary_snake_31,
    side_vertices,
    snake_basis,
    transport,
)


def example_flags(a, b, g):
    """The standard three-flag family in R^3 with parameters a, b, g."""
    f1 = standard_flag(3)
    f2 = reversed_flag(3)
    f3 = Flag([(1, a, b), (0, 1, g), (0, 0, 1)])
    return f1, f2, f3


A, B, G = Q(2), Q(3), Q(5)


@pytest.fixture
def config():
    return line_config(*example_flags(A, B, G))


class TestFlagType:
    def test_rejects_singular(self):
        with pytest.raises(SingularFlag):
            Flag([(1, 2), (2, 4)])
        # rank 7: the last row is the sum of the first two
        rows = [[Q(int(i <= j)) for j in range(8)] for i in range(7)]
        rows.append([x + y for x, y in zip(rows[0], rows[1])])
        with pytest.raises(SingularFlag):
            Flag(rows)

    def test_large_invertible_flag_constructs(self):
        # upper unitriangular with first column 1..10: invertible, and far
        # past the size a cofactor determinant could check (10! terms)
        rows = [[Q(i + 1) if j == 0 else Q(int(i <= j)) for j in range(10)] for i in range(10)]
        f = Flag(rows)
        assert f.n == 10 and len(f.subspace(10)) == 10

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            Flag([(1, 0, 0), (0, 1, 0)])
        for ragged in ([(1, 2), (3,)], [(1,), (2, 3)], [(1, 0, 0), (0, 1), (0, 0, 1)]):
            with pytest.raises(DimensionMismatch):
                Flag(ragged)

    def test_subspace_chain(self):
        f = Flag([(1, 1, 1), (0, 1, 1), (0, 0, 1)])
        assert f.subspace(0) == ()
        for i in range(1, 4):
            assert len(f.subspace(i)) == i
        with pytest.raises(DimensionMismatch):
            f.subspace(4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=repr)
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(DimensionMismatch, match="a flag entry is not a finite number"):
            Flag([[bad, 0], [0, 1]])

    def test_json_round_trip(self):
        f = Flag([(1, Q(1, 2), 3), (0, 1, Q(-2, 7)), (0, 0, 1)])
        assert Flag.from_json(f.to_json()) == f

    @pytest.mark.parametrize("bad", [0.1, True])
    def test_from_json_decodes_rational_scalars_only(self, bad):
        doc = Flag([(1, 0), (0, 1)]).to_json()
        doc["rows"][0][1] = bad
        with pytest.raises(SchemaError):
            Flag.from_json(doc)


class TestLattice:
    def test_tile_counts(self):
        assert len(upward_tiles(3)) == 6
        assert len(downward_tiles(3)) == 3
        assert interior_vertices(3) == [(1, 1, 1)]
        assert len(interior_vertices(4)) == 3

    def test_sums(self):
        assert all(sum(t) == 4 for t in upward_tiles(5))
        assert all(sum(t) == 3 for t in downward_tiles(5))


class TestGeneralPosition:
    def test_example_family_grid(self):
        vals = [Q(-2), Q(-1), Q(0), Q(1), Q(2)]
        for a, b, g in itertools.product(vals, repeat=3):
            want = (b != 0) and (b != a * g) and (g != 0)
            assert general_position(*example_flags(a, b, g)) == want

    def test_equal_flags_fail(self):
        f = standard_flag(3)
        assert not general_position(f, f, reversed_flag(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            general_position(standard_flag(2), standard_flag(3), standard_flag(3))

    def test_random_third_flag_generic(self):
        # standard + reversed + random rational third: generic almost surely
        rng = random.Random(101)
        hits = 0
        for _ in range(25):
            f3 = None
            while f3 is None:
                rows = [
                    [Q(rng.randint(-999, 999), rng.randint(1, 97)) for _ in range(3)]
                    for _ in range(3)
                ]
                try:
                    f3 = Flag(rows)
                except SingularFlag:
                    pass
            hits += general_position(standard_flag(3), reversed_flag(3), f3)
        assert hits == 25

    def test_invariant_under_common_coordinate_change(self):
        rng = random.Random(5)
        f1, f2, f3 = example_flags(A, B, G)
        for _ in range(5):
            while True:
                m = tuple(
                    tuple(Q(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3)
                )
                if la.det(m) != 0:
                    break
            moved = [Flag(la.mat_mul(f.rows, m)) for f in (f1, f2, f3)]
            assert general_position(*moved)


def _definition_cut(f1, f2, f3, i1, i2, i3):
    pair = la.intersect_row_spaces(f1.subspace(i1), f2.subspace(i2))
    return la.intersect_row_spaces(pair, f3.subspace(i3))


def _definition_general_position(f1, f2, f3):
    """Every F1_i ∩ F2_j ∩ F3_k has the least dimension max(i+j+k-2n, 0)."""
    n = f1.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            pair = la.intersect_row_spaces(f1.subspace(i), f2.subspace(j))
            for k in range(1, n + 1):
                if len(la.intersect_row_spaces(pair, f3.subspace(k))) != max(i + j + k - 2 * n, 0):
                    return False
    return True


def _definition_line_config(f1, f2, f3):
    n = f1.n
    lines = {
        (a, b, c): canonical_vector(_definition_cut(f1, f2, f3, n - a, n - b, n - c)[0])
        for (a, b, c) in upward_tiles(n)
    }
    planes = {
        (a, b, c): _definition_cut(f1, f2, f3, n - a, n - b, n - c)
        for (a, b, c) in (downward_tiles(n) if n >= 3 else [])
    }
    return LineConfig(n, lines, planes)


def _definition_splitting(f, g):
    n = f.n
    pairs = {
        (i, j): la.intersect_row_spaces(f.subspace(i), g.subspace(j))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }
    if any(len(cut) != max(i + j - n, 0) for (i, j), cut in pairs.items()):
        raise NotTransverse("flags are not transverse")
    return tuple(canonical_vector(pairs[(i, n - i + 1)][0]) for i in range(1, n + 1))


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (NotGeneric, NotTransverse) as exc:
        return type(exc)
    return out.to_json() if isinstance(out, LineConfig) else out


RATIONALS = tuple(Q(a, b) for a in range(-3, 4) for b in (1, 2, 3))


def _random_flag(rng, n, entries):
    while True:
        try:
            return Flag([[rng.choice(entries) for _ in range(n)] for _ in range(n)])
        except SingularFlag:
            pass


class TestGenericityDefinition:
    """general_position, line_config and two_flag_splitting against the
    definitions, written with nested subspace intersections."""

    @pytest.mark.parametrize("entries", [(-1, 0, 1), (-2, -1, 0, 1, 2)], ids=["unit", "two"])
    def test_random_small_integer_triples(self, entries):
        rng = random.Random(len(entries))
        verdicts = []
        for n, count in ((2, 24), (3, 24), (4, 8), (5, 3)):
            for _ in range(count):
                f1, f2, f3 = (_random_flag(rng, n, entries) for _ in range(3))
                want = _definition_general_position(f1, f2, f3)
                assert general_position(f1, f2, f3) == want
                verdicts.append(want)
                config = _definition_line_config(f1, f2, f3).to_json() if want else NotGeneric
                assert _outcome(line_config, f1, f2, f3) == config
                assert _outcome(two_flag_splitting, f1, f2) == _outcome(_definition_splitting, f1, f2)
        # small entries make many triples degenerate: both verdicts occur often
        assert 10 <= sum(verdicts) <= len(verdicts) - 10

    @settings(max_examples=25)
    @given(st.integers(2, 5), st.integers(0, 2**32))
    def test_random_rational_triples(self, n, seed):
        # rows with denominators: the eliminations clear them first
        rng = random.Random(seed)
        f1, f2, f3 = (_random_flag(rng, n, RATIONALS) for _ in range(3))
        generic = _definition_general_position(f1, f2, f3)
        assert general_position(f1, f2, f3) == generic
        config = _definition_line_config(f1, f2, f3).to_json() if generic else NotGeneric
        assert _outcome(line_config, f1, f2, f3) == config

    def test_non_transverse_pair(self):
        # G_1 = <e1 + e2> lies in F_2, so F_2 ∩ G_1 is a line, not zero
        f1, f3 = standard_flag(3), Flag([(1, 2, 3), (0, 1, 4), (0, 0, 1)])
        f2 = Flag([(1, 1, 0), (0, 0, 1), (1, 0, 0)])
        assert not _definition_general_position(f1, f2, f3)
        assert not general_position(f1, f2, f3)
        with pytest.raises(NotGeneric):
            line_config(f1, f2, f3)
        with pytest.raises(NotTransverse):
            _definition_splitting(f1, f2)
        with pytest.raises(NotTransverse):
            two_flag_splitting(f1, f2)


class TestSplittingDefinition:
    @settings(max_examples=80)
    @given(st.integers(2, 6), st.sampled_from([(-1, 0, 1), RATIONALS]), st.integers(0, 2**32))
    def test_lines_are_the_pairwise_intersections(self, n, entries, seed):
        """two_flag_splitting(f, g)[i] spans F_{i+1} ∩ G_{n-i}, and it raises
        NotTransverse exactly when some F_i ∩ G_j is too big."""
        rng = random.Random(seed)
        f, g = _random_flag(rng, n, entries), _random_flag(rng, n, entries)
        got = _outcome(two_flag_splitting, f, g)
        assert got == _outcome(_definition_splitting, f, g)
        if got is not NotTransverse:
            for i, line in enumerate(got):
                cut = la.intersect_row_spaces(f.subspace(i + 1), g.subspace(n - i))
                assert row_space([line]) == cut


def _dual(f):
    """The rows of F*, F_i* the annihilator of F_{n-i}: the columns of F^-1
    in reverse order, here those of adj(F), which span the same lines."""
    adj = la.adjugate(f.rows)
    return [tuple(row[j] for row in adj) for j in reversed(range(f.n))]


def _fg_triple_ratio(rows, a, b, c):
    """Fock-Goncharov's X_{a,b,c} of a flag triple given by its row lists."""

    def delta(i, j, k):
        return la.det(list(rows[0][:i]) + list(rows[1][:j]) + list(rows[2][:k]))

    num = delta(a + 1, b - 1, c) * delta(a, b + 1, c - 1) * delta(a - 1, b, c + 1)
    return num / (delta(a + 1, b, c - 1) * delta(a - 1, b + 1, c) * delta(a, b - 1, c + 1))


def _six_keys(a, b, c):
    """The tiles of A, AB, B, BC, C, CA around the interior vertex (a, b, c)."""
    return [
        (a + 1, b - 1, c - 1), (a, b, c - 1), (a - 1, b + 1, c - 1),
        (a - 1, b, c), (a - 1, b - 1, c + 1), (a, b - 1, c),
    ]


def _six_vectors(rng):
    """Rational 3-vectors for A, AB, B, BC, C, CA: free, or with coplanar
    corners, a zero line, a line dependent on one or two others, or all six
    in a plane."""
    vecs = [[rng.choice(RATIONALS) for _ in range(3)] for _ in range(6)]
    kind = rng.choice(["free", "coplanar", "zero", "multiple", "sum", "plane"])
    s, t = rng.choice(RATIONALS), rng.choice(RATIONALS)
    i, j, k = rng.sample(range(6), 3)
    if kind == "coplanar":
        vecs[4] = [s * x + t * y for x, y in zip(vecs[0], vecs[2])]
    elif kind == "zero":
        vecs[i] = [Q(0)] * 3
    elif kind == "multiple":
        vecs[i] = [s * x for x in vecs[j]]
    elif kind == "sum":
        vecs[i] = [s * x + t * y for x, y in zip(vecs[j], vecs[k])]
    elif kind == "plane":
        vecs = [[x, y, s * x + t * y] for x, y, _ in vecs]
    return vecs


class TestTripleRatioDefinition:
    """triple_ratio against its definition as a ratio of determinants, and
    against Fock-Goncharov's triple ratio of the dual triple, both written
    with cofactor determinants (Publ. IHÉS 103 (2006), §9)."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ratio_of_determinants(self, n):
        # the six lines are 3-vectors v times a rank-3 3 x n matrix, so their
        # determinants in a basis of their span are those of the v
        rng = random.Random(60 + n)
        outcomes = []
        for _ in range(60):
            emb = [[rng.choice(RATIONALS) for _ in range(n)] for _ in range(3)]
            if rank(emb) < 3:
                continue
            a = rng.randint(1, n - 2)
            b = rng.randint(1, n - 1 - a)
            vertex = (a, b, n - a - b)
            vecs = _six_vectors(rng)
            lines = {k: la.mat_mul([v], emb)[0] for k, v in zip(_six_keys(*vertex), vecs)}
            config = LineConfig(n, lines, {})

            def d(p, q, r):
                return la.det((vecs[p], vecs[q], vecs[r]))

            num = d(0, 1, 4) * d(4, 5, 2) * d(2, 3, 0)
            den = d(0, 1, 2) * d(2, 3, 4) * d(4, 5, 0)
            defined = rank(vecs) == 3 and den != 0
            if defined:
                got = triple_ratio(config, vertex)
                assert got == num / den and type(got) is Q
            else:
                with pytest.raises(DegenerateConfiguration):
                    triple_ratio(config, vertex)
            outcomes.append(defined)
        assert 10 <= sum(outcomes) <= len(outcomes) - 10

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ratio_of_splitting_minors(self, n):
        # with M the rows of F3 in the splitting basis of (F1, F2) and m(a, b)
        # = det M[:a+b, C], C the first b and the last a columns (the minors
        # that general_position reads), triple_ratio is a ratio of six minors
        rng = random.Random(30 + n)
        vertices = 0
        while vertices < 8 * len(interior_vertices(n)):
            f1, f2, f3 = (_random_flag(rng, n, (-2, -1, 0, 1, 2)) for _ in range(3))
            if not general_position(f1, f2, f3):
                continue
            config = line_config(f1, f2, f3)
            rows = _splitting(f1, f2, f3._integer_rows)

            def m(a, b):
                cols = [*range(b), *range(n - a, n)]
                return la.det([[row[j] for j in cols] for row in rows[: a + b]])

            for a, b, c in interior_vertices(n):
                num = m(a - 1, b + 1) * m(a, b - 1) * m(a + 1, b)
                den = m(a + 1, b - 1) * m(a, b + 1) * m(a - 1, b)
                assert triple_ratio(config, (a, b, c)) == Q(num, den)
                vertices += 1

    def test_lines_spanning_four_dimensions(self):
        lines = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 0)]
        config = LineConfig(4, dict(zip(_six_keys(2, 1, 1), lines)), {})
        with pytest.raises(DegenerateConfiguration, match="span dimension 4"):
            triple_ratio(config, (2, 1, 1))

    @pytest.mark.parametrize("n", [3, 4])
    def test_inverse_of_the_dual_fg_triple_ratio(self, n):
        rng = random.Random(n)
        generic = 0
        while generic < 12:
            flags = [_random_flag(rng, n, (-2, -1, 0, 1, 2)) for _ in range(3)]
            if not general_position(*flags):
                continue
            generic += 1
            config = line_config(*flags)
            duals = [_dual(f) for f in flags]
            for v in interior_vertices(n):
                assert triple_ratio(config, v) == 1 / _fg_triple_ratio(duals, *v)

    def test_coplanar_triple(self):
        # generic, and its ratio -1 is FG's value: at n = 3 the minor
        # Δ_{1,1,1} does not enter X
        f1 = Flag([(0, 0, 2), (0, -1, 1), (1, -1, 2)])
        f2 = Flag([(2, 0, 0), (1, 1, 0), (0, 1, 2)])
        f3 = Flag([(2, 0, 1), (-1, 1, 2), (0, 1, 1)])
        assert general_position(f1, f2, f3)
        duals = [_dual(f) for f in (f1, f2, f3)]
        assert triple_ratio(line_config(f1, f2, f3), (1, 1, 1)) == -1
        assert _fg_triple_ratio(duals, 1, 1, 1) == -1


class TestSplitting:
    def test_standard_pair(self):
        f1, f2, _ = example_flags(A, B, G)
        assert two_flag_splitting(f1, f2) == (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        )

    def test_third_first_pair(self):
        f1, _, f3 = example_flags(A, B, G)
        s = two_flag_splitting(f3, f1)
        assert s[0] == canonical_vector((1, A, B))
        assert s[1] == canonical_vector((G, A * G - B, 0))
        assert s[2] == (1, 0, 0)

    def test_both_flag_chains_recovered(self):
        f1, f2, f3 = example_flags(A, B, G)
        for f, g in [(f1, f2), (f2, f3), (f3, f1)]:
            lam = two_flag_splitting(f, g)
            n = 3
            for i in range(1, n + 1):
                assert row_space(lam[:i]) == f.subspace(i)
                assert row_space(lam[n - i :]) == g.subspace(i)

    def test_not_transverse(self):
        f = standard_flag(3)
        with pytest.raises(NotTransverse):
            two_flag_splitting(f, f)

    def test_n1(self):
        s = two_flag_splitting(Flag([(7,)]), Flag([(-2,)]))
        assert s == ((1,),)

    def test_flags_of_different_ranks(self):
        with pytest.raises(DimensionMismatch, match="^flags live in different dimensions$"):
            two_flag_splitting(standard_flag(2), standard_flag(3))


class TestProjectiveBasis:
    def test_standard(self):
        vs = projective_basis_vectors(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], (1, 1, 1)
        )
        assert vs == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_weights_absorbed(self):
        vs = projective_basis_vectors(
            [(1, 0), (0, 1), (2, 3)], (Q(1, 2), Q(3))
        )
        total = tuple(
            Q(1, 2) * x + 3 * y for x, y in zip(vs[0], vs[1])
        )
        assert canonical_vector(total) == canonical_vector((2, 3))
        assert vs[0][0] == 1

    def test_repeated_line_rejected(self):
        with pytest.raises(NotProjectiveBasis):
            projective_basis_vectors(
                [(1, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)], (1, 1, 1)
            )

    def test_partial_mix_rejected(self):
        # last line misses the e3 direction
        with pytest.raises(NotProjectiveBasis):
            projective_basis_vectors(
                [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)], (1, 1, 1)
            )

    def test_zero_weight_rejected(self):
        with pytest.raises(NotProjectiveBasis):
            projective_basis_vectors(
                [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], (1, 0, 1)
            )

    @pytest.mark.parametrize(
        "lines", [[(1, 0), (0, 1, 5), (1, 1)], [(1, 0), (0, 1), (1, 1, 7)]], ids=["mid", "last"]
    )
    def test_lines_of_different_lengths_are_refused(self, lines):
        # zipping the lines would drop the extra entry or keep a ragged basis
        with pytest.raises(DimensionMismatch, match="different dimensions"):
            projective_basis_vectors(lines, (1, 1))

    @pytest.mark.parametrize("lines, message", [
        ([], "no lines given"),
        ([(1, 0), (0, 1)], "need 3 lines in dimension 2, got 2"),
        ([(1, 0), (0, 1), (1, 1), (1, 2)], "need 3 lines in dimension 2, got 4"),
    ], ids=["none", "too-few", "too-many"])
    def test_line_count_is_checked(self, lines, message):
        with pytest.raises(NotProjectiveBasis, match=f"^{message}$"):
            projective_basis_vectors(lines, (1, 1))

    def test_pinning_recovery(self):
        # snake-side basis plus its pinning line reproduces the side basis
        # vectors sigma_i * (their lines) with a single common factor
        sg, s1, s2, s3 = Q(3), Q(5), Q(7, 2), Q(-2)
        vt1 = (Q(0), Q(0), sg)
        vt2 = tuple(-sg * x for x in (Q(0), 1 / G, Q(1)))
        vt3 = tuple(sg * x for x in (1 / B, A / B, Q(1)))
        lam = tuple(
            s1 * x - s2 * G * y + s3 * B * z for x, y, z in zip(vt1, vt2, vt3)
        )
        out = projective_basis_vectors([vt1, vt2, vt3, lam], (1, 1, 1))
        targets = [
            (Q(0), Q(0), s1),
            tuple(s2 * x for x in (Q(0), Q(1), G)),
            tuple(s3 * x for x in (Q(1), A, B)),
        ]
        ratios = set()
        for got, want in zip(out, targets):
            assert canonical_vector(got) == canonical_vector(want)
            i = next(i for i, x in enumerate(want) if x != 0)
            ratios.add(got[i] / want[i])
        assert len(ratios) == 1
        assert next(x for x in out[0] if x != 0) == 1


class TestLineConfig:
    def test_example_lines(self, config):
        assert config.lines[(2, 0, 0)] == (1, 0, 0)
        assert config.lines[(1, 1, 0)] == (0, 1, 0)
        assert config.lines[(0, 2, 0)] == (0, 0, 1)
        assert config.lines[(0, 1, 1)] == canonical_vector((0, 1, G))
        assert config.lines[(0, 0, 2)] == canonical_vector((1, A, B))
        assert config.lines[(1, 0, 1)] == canonical_vector((G, A * G - B, 0))

    def test_example_planes(self, config):
        assert config.planes[(0, 0, 1)] == row_space([(1, A, B), (0, 1, G)])
        assert config.planes[(1, 0, 0)] == row_space([(1, 0, 0), (0, 1, 0)])
        assert config.planes[(0, 1, 0)] == row_space([(0, 1, 0), (0, 0, 1)])

    def test_planes_contain_corner_lines(self, config):
        """What line_config does not check at run time, on the example and on
        seeded generic triples: every line is a nonzero canonical vector,
        every plane two independent echelon rows, and each plane contains
        the lines at its three corners."""
        rng = random.Random(9)
        configs = [config]
        for n in (3, 4, 5, 6):
            generic = []
            while len(generic) < 4:
                flags = [_random_flag(rng, n, (-2, -1, 0, 1, 2)) for _ in range(3)]
                if general_position(*flags):
                    generic.append(line_config(*flags))
            configs += generic
        for cfg in configs:
            n = cfg.n
            assert len(cfg.lines) == n * (n + 1) // 2 and len(cfg.planes) == n * (n - 1) // 2
            for line in cfg.lines.values():
                assert any(line) and line == canonical_vector(line)
            for (a, b, c), plane in cfg.planes.items():
                assert len(plane) == 2 and row_space(plane) == plane
                for corner in ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1)):
                    assert rank(list(plane) + [cfg.lines[corner]]) == 2

    def test_rejects_nongeneric(self):
        with pytest.raises(NotGeneric):
            line_config(*example_flags(Q(1), Q(0), Q(1)))

    def test_n2_has_three_lines_no_planes(self):
        cfg = line_config(
            standard_flag(2), reversed_flag(2), Flag([(1, 1), (0, 1)])
        )
        assert cfg.planes == {}
        assert cfg.lines == {
            (1, 0, 0): (1, 0),
            (0, 1, 0): (0, 1),
            (0, 0, 1): (1, 1),
        }

    def test_json_round_trip(self, config):
        assert LineConfig.from_json(config.to_json()) == config


class TestTripleRatio:
    def test_example_value(self, config):
        assert triple_ratio(config, (1, 1, 1)) == B / (A * G - B)

    def test_unit_value(self):
        cfg = line_config(*example_flags(Q(2), Q(1), Q(1)))
        assert triple_ratio(cfg, (1, 1, 1)) == 1

    def test_generator_scaling_invariance(self, config):
        rng = random.Random(11)
        base = triple_ratio(config, (1, 1, 1))
        scaled = {}
        for k, v in config.lines.items():
            s = Q(0)
            while s == 0:
                s = Q(rng.randint(-6, 6), rng.randint(1, 4))
            scaled[k] = tuple(s * x for x in v)
        assert triple_ratio(LineConfig(3, scaled, config.planes), (1, 1, 1)) == base

    def test_coordinate_change_invariance(self):
        rng = random.Random(12)
        f1, f2, f3 = example_flags(A, B, G)
        base = triple_ratio(line_config(f1, f2, f3), (1, 1, 1))
        for _ in range(3):
            while True:
                m = tuple(
                    tuple(Q(rng.randint(-4, 4)) for _ in range(3)) for _ in range(3)
                )
                if la.det(m) != 0:
                    break
            moved = [Flag(la.mat_mul(f.rows, m)) for f in (f1, f2, f3)]
            assert triple_ratio(line_config(*moved), (1, 1, 1)) == base

    def test_bad_vertex_rejected(self, config):
        with pytest.raises(ValueError):
            triple_ratio(config, (2, 1, 0))
        with pytest.raises(ValueError):
            triple_ratio(config, (1, 1, 2))

    def test_missing_line_is_refused(self):
        # a LineConfig, or one from_json reads, need not hold every line
        partial = LineConfig(3, {(2, 0, 0): (1, 0, 0)}, {})
        for cfg in (partial, LineConfig.from_json(partial.to_json())):
            with pytest.raises(DegenerateConfiguration, match=r"no line at tile \(1, 1, 0\)"):
                triple_ratio(cfg, (1, 1, 1))
            with pytest.raises(DegenerateConfiguration, match=r"no line at tile \(1, 1, 0\)"):
                snake_basis(cfg, boundary_snake_12(3))
        with pytest.raises(DegenerateConfiguration, match=r"no line at tile \(2, 0, 0\)"):
            snake_basis(LineConfig(3, {}, {}), boundary_snake_12(3), first=(1, 0, 0))

    def test_n4_interior_vertices(self):
        rng = random.Random(33)
        while True:
            try:
                f3 = Flag(
                    [
                        [Q(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)]
                        for _ in range(4)
                    ]
                )
            except SingularFlag:
                continue
            if general_position(standard_flag(4), reversed_flag(4), f3):
                break
        cfg = line_config(standard_flag(4), reversed_flag(4), f3)
        assert len(cfg.lines) == 10
        assert len(cfg.planes) == 6
        for vtx in interior_vertices(4):
            assert triple_ratio(cfg, vtx) != 0


# sha256 of the flags pipeline's outputs and refusals on seeded triples
# (see test_flags_outputs_are_pinned)
FLAGS_DIGEST = "22aa03e4d9573ec6327a5e47f55c3d118bad93b6fb7801577f3dc52062100e73"


def _attempt(fn, *args, **kwargs):
    """repr of fn's result, or the class and message of its refusal."""
    try:
        return repr(fn(*args, **kwargs))
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _generic_triple(rng, n, entries):
    while True:
        flags = [_random_flag(rng, n, entries) for _ in range(3)]
        if general_position(*flags):
            return flags


def _pinned_triples():
    """Generic triples at n = 2..8: two with integer rows, two with rational
    rows and TestFlagOracle's three (standard, reversed, Flag(transport(n,
    which, z))), all seeded."""
    rng = random.Random(28)
    for n in range(2, 9):
        for entries in (range(-9, 10), range(-9, 10), RATIONALS, RATIONALS):
            yield _generic_triple(rng, n, entries)
        keys = side_vertices(n) + interior_vertices(n)
        for which in (1, 2, 3):
            z = FGAssignment(n, {k: Q(rng.randint(1, 60), rng.randint(1, 17)) for k in keys})
            yield standard_flag(n), reversed_flag(n), Flag(transport(n, which, z))


def _consumers(cfg, scaled_first=False):
    """triple_ratio at every interior vertex and snake_basis of the three
    boundary snakes; with ``scaled_first`` also snake_basis from 3 times the
    stored first line."""
    n = cfg.n
    out = [_attempt(triple_ratio, cfg, v) for v in interior_vertices(n)]
    for snake in (boundary_snake_12(n), boundary_snake_23(n), boundary_snake_31(n)):
        out.append(_attempt(snake_basis, cfg, snake))
        if scaled_first:
            first = [3 * x for x in cfg.lines[snake.tiles[0]]]
            out.append(_attempt(snake_basis, cfg, snake, first=first))
    return out


class TestPipelinePinned:
    def test_flags_outputs_are_pinned(self):
        # one sha256 over each triple's line configuration, triple ratios and
        # snake bases, and the same consumers on three copies of its
        # configuration: lines rescaled by nonzero rationals of either sign,
        # lines as floats, and one line repeated in place of another
        rng = random.Random(280)
        out = []
        for flags in _pinned_triples():
            cfg = line_config(*flags)
            out.append(json.dumps(cfg.to_json(), sort_keys=True))
            out += _consumers(cfg, scaled_first=True)
            scale = {k: Q(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
                     for k in cfg.lines}
            copies = (
                {k: [scale[k] * x for x in v] for k, v in cfg.lines.items()},
                {k: [float(x) for x in v] for k, v in cfg.lines.items()},
                dict(cfg.lines),
            )
            twice, once = rng.sample(sorted(cfg.lines), 2)
            copies[2][twice] = cfg.lines[once]
            for lines in copies:
                out += _consumers(LineConfig(cfg.n, lines, cfg.planes))
        digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
        assert digest == FLAGS_DIGEST


class TestPencilCrossRatio:
    def test_slope_example(self):
        assert pencil_cross_ratio((1, 0), (0, 1), (1, 1), (1, 2)) == Q(1, 2)

    def test_embedded_plane(self):
        got = pencil_cross_ratio(
            (1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (1, 0, 2, 0)
        )
        assert got == Q(1, 2)

    def test_not_coplanar(self):
        with pytest.raises(NotCoplanar):
            pencil_cross_ratio((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))

    def test_coincident_lines_degenerate(self):
        with pytest.raises(DegenerateInput):
            pencil_cross_ratio((1, 0), (0, 1), (1, 2), (2, 4))

    def test_zero_vector_is_refused(self):
        # read as slope infinity, (0, 0) would give 2
        with pytest.raises(DegenerateConfiguration, match="zero vector"):
            pencil_cross_ratio((0, 0), (1, 0), (1, 1), (1, 2))
        with pytest.raises(DegenerateConfiguration, match="zero vector"):
            pencil_cross_ratio((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 0))

    def test_collinear_generators_degenerate(self):
        with pytest.raises(DegenerateConfiguration):
            pencil_cross_ratio((1, 0), (2, 0), (3, 0), (4, 0))

    def test_generators_of_different_lengths_are_refused(self):
        with pytest.raises(DimensionMismatch, match="different dimensions"):
            pencil_cross_ratio((1, 0), (0, 1), (1, 1), (1, 2, 0))
        with pytest.raises(DimensionMismatch, match="different dimensions"):
            pencil_cross_ratio((1, 0, 0), (0, 1), (1, 1), (1, 2))

    def test_basis_invariance(self):
        rng = random.Random(21)
        lines = [(1, 0), (0, 1), (1, 1), (1, 3)]
        base = pencil_cross_ratio(*lines)
        for _ in range(5):
            while True:
                m = tuple(
                    tuple(Q(rng.randint(-5, 5)) for _ in range(2)) for _ in range(2)
                )
                if la.det(m) != 0:
                    break
            moved = [la.mat_mul((l,), m)[0] for l in lines]
            assert pencil_cross_ratio(*moved) == base


class TestAmalgamationPencils:
    """Cross ratios of glued-edge pencils for two flag triples sharing a side."""

    D, E, H = Q(1), Q(4), Q(3)

    def lines(self):
        lam200 = (Q(1), Q(0), Q(0))
        lam110 = (Q(0), Q(1), Q(0))
        lam020 = (Q(0), Q(0), Q(1))
        lam101_left = (G, A * G - B, Q(0))
        lam011_left = (Q(0), Q(1), G)
        # right-triple lines across the shared edge, from the mirrored flags
        lam011_right = (Q(1), (self.D * self.H - self.E) / self.H, Q(0))
        lam101_right = (Q(0), Q(1), self.H)
        return lam200, lam110, lam020, lam101_left, lam011_left, lam011_right, lam101_right

    def test_first_pencil(self):
        l200, l110, _, l101L, _, l011R, _ = self.lines()
        got = pencil_cross_ratio(l200, l110, l101L, l011R)
        assert got == (A * G - B) / G * self.H / (self.D * self.H - self.E)

    def test_second_pencil(self):
        _, l110, l020, _, l011L, _, l101R = self.lines()
        got = pencil_cross_ratio(l110, l020, l011L, l101R)
        assert got == G / self.H

    def test_right_lines_from_actual_flags(self):
        # recompute the right-triple lines from its flag matrices
        f1r = reversed_flag(3)
        f2r = standard_flag(3)
        f3r = Flag([(1, self.D, self.E), (0, 1, self.H), (0, 0, 1)])
        cfg = line_config(f1r, f2r, f3r)
        _, _, _, _, _, l011R, l101R = self.lines()
        assert cfg.lines[(0, 1, 1)] == canonical_vector(l011R)
        assert cfg.lines[(1, 0, 1)] == canonical_vector(l101R)
