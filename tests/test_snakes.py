import hashlib
import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from teichkit import snakes
from teichkit.fatgraph import cross, turn_left, turn_right
from teichkit.flags import (
    DegenerateConfiguration,
    Flag,
    LineConfig,
    general_position,
    interior_vertices,
    line_config,
    reversed_flag,
    standard_flag,
    triple_ratio,
)
from teichkit.laurent import LaurentRing
from teichkit.linalg import (
    adjugate,
    det,
    identity,
    is_scalar_matrix,
    mat_mul,
    mat_prod,
    proj_eq,
    rank,
)
from teichkit.snakes import (
    BadSegment,
    FGAssignment,
    IncompleteAssignment,
    IndexOutOfRange,
    NonpositiveVariable,
    RankOutOfRange,
    Snake,
    boundary_snake_12,
    boundary_snake_23,
    boundary_snake_31,
    elem_h,
    elem_l,
    elem_s,
    hs_swap_check,
    move_one,
    move_two,
    reduce_to_shear,
    side_vertices,
    snake_basis,
    standard_matrix_n3,
    transport,
    transport_adjugate,
    transport_word,
)
from teichkit.surface import TrianglePathWord, TriangulatedSurface, path_matrix, t_token

GOLDEN = Path(__file__).parent / "golden"

A, B, G = Q(2), Q(3), Q(5)
Z111 = B / (A * G - B)


def example_config():
    f3 = Flag([(1, A, B), (0, 1, G), (0, 0, 1)])
    return line_config(standard_flag(3), reversed_flag(3), f3)


def random_assignment(n, seed):
    rng = random.Random(seed)
    keys = side_vertices(n) + interior_vertices(n)
    return FGAssignment(
        n, {k: Q(rng.randint(1, 60), rng.randint(1, 17)) for k in keys}
    )


def positive_config(n, seed):
    # the flags of a positive assignment's first transport: their triple
    # ratios are its interior values (TestFlagOracle's round trip)
    f3 = Flag(transport(n, 1, random_assignment(n, seed)))
    cfg = line_config(standard_flag(n), reversed_flag(n), f3)
    return cfg, {v: triple_ratio(cfg, v) for v in interior_vertices(n)}


class TestElementary:
    def test_l_adds_row(self):
        l2 = elem_l(3, 2)
        assert l2 == ((1, 0, 0), (0, 1, 0), (0, 1, 1))

    def test_l_range(self):
        with pytest.raises(IndexOutOfRange):
            elem_l(3, 3)
        with pytest.raises(IndexOutOfRange):
            elem_l(3, 0)

    def test_h_diagonal(self):
        assert elem_h(3, 2, Q(5)) == ((1, 0, 0), (0, 1, 0), (0, 0, 5))
        assert elem_h(4, 1, Q(2)) == (
            (1, 0, 0, 0),
            (0, 2, 0, 0),
            (0, 0, 2, 0),
            (0, 0, 0, 2),
        )

    def test_h_range(self):
        with pytest.raises(IndexOutOfRange):
            elem_h(3, 4, Q(1))

    def test_s_antidiagonal(self):
        assert elem_s(2) == ((0, -1), (1, 0))
        assert elem_s(3) == ((0, 0, 1), (0, -1, 0), (1, 0, 0))

    def test_s_squares_to_sign(self):
        for n in (2, 3, 4, 5):
            s2 = mat_mul(elem_s(n), elem_s(n))
            sign = Q((-1) ** (n - 1))
            assert s2 == tuple(
                tuple(sign * e for e in row) for row in identity(n)
            )

    def test_s_det_one_n3(self):
        assert det(elem_s(3)) == 1

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_hs_swap(self, n, k):
        assert hs_swap_check(n, k, Q(5))
        assert hs_swap_check(n, k, Q(7, 3))


# (tiles, the message of the BadSegment refusal), segments checked in order:
# the first faulty segment is the one reported
_SNAKE_REFUSALS = {
    "non-adjacent tiles": ([(2, 0, 0), (0, 2, 0), (0, 1, 1)],
                           "tiles (2, 0, 0) and (0, 2, 0) are not adjacent"),
    "parallel segment": ([(2, 0, 0), (1, 1, 0), (1, 0, 1)],
                         "segment (1, 1, 0) -> (1, 0, 1) is parallel to the target side"),
    "parallel segment before a non-adjacent pair": (
        [(3, 0, 0), (2, 1, 0), (2, 0, 1), (0, 2, 1)],
        "segment (2, 1, 0) -> (2, 0, 1) is parallel to the target side"),
}


class TestSnake:
    def test_boundary_snakes(self):
        assert boundary_snake_12(3).tiles == ((2, 0, 0), (1, 1, 0), (0, 2, 0))
        assert boundary_snake_23(3).tiles == ((0, 2, 0), (0, 1, 1), (0, 0, 2))
        assert boundary_snake_31(3).tiles == ((0, 0, 2), (1, 0, 1), (2, 0, 0))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_boundary_snakes_are_made_once(self, n):
        sides = {
            boundary_snake_12: [(n - 1 - t, t, 0) for t in range(n)],
            boundary_snake_23: [(0, n - 1 - t, t) for t in range(n)],
            boundary_snake_31: [(t, 0, n - 1 - t) for t in range(n)],
        }
        for mk, tiles in sides.items():
            assert mk(n) == Snake(tiles) and mk(n) is mk(n)

    @pytest.mark.parametrize(
        "n, error", [(0, BadSegment), (-2, BadSegment), (True, TypeError), (2.0, TypeError)],
        ids=["0", "-2", "True", "2.0"],
    )
    def test_bad_boundary_rank_leaves_no_cache_entry(self, n, error):
        # True and 2.0 hash like 1 and 2, whose snakes are cached here, so
        # they must be refused before the cache is read
        sides = (boundary_snake_12, boundary_snake_23, boundary_snake_31)
        for mk in sides:
            mk(1), mk(2)
        before = snakes._boundary_snake.cache_info().currsize
        for mk in sides:
            with pytest.raises(error):
                mk(n)
        assert snakes._boundary_snake.cache_info().currsize == before

    def test_boundary_segments_clockwise(self):
        for mk in (boundary_snake_12, boundary_snake_23, boundary_snake_31):
            s = mk(4)
            assert all(s.segment_clockwise(i) for i in range(3))

    def test_tile_count_enforced(self):
        with pytest.raises(BadSegment):
            Snake([(2, 0, 0), (1, 1, 0)])

    def test_must_start_at_corner(self):
        with pytest.raises(BadSegment):
            Snake([(1, 1, 0), (0, 2, 0), (0, 1, 1)])

    def test_adjacency_enforced(self):
        with pytest.raises(BadSegment):
            Snake([(2, 0, 0), (0, 2, 0), (0, 1, 1)])

    def test_no_parallel_segment(self):
        # segments keeping a fixed run parallel to the target side
        with pytest.raises(BadSegment):
            Snake([(2, 0, 0), (1, 0, 1), (1, 1, 0)])
        with pytest.raises(BadSegment):
            Snake([(2, 0, 0), (1, 1, 0), (1, 0, 1)])

    @pytest.mark.parametrize("case", sorted(_SNAKE_REFUSALS))
    def test_segment_refusals_are_pinned(self, case):
        tiles, message = _SNAKE_REFUSALS[case]
        with pytest.raises(BadSegment) as refused:
            Snake(tiles)
        assert str(refused.value) == message

    @pytest.mark.parametrize("value", [2.9, 2.0, "2", True, None], ids=repr)
    @pytest.mark.parametrize("tile", [0, 1])
    def test_tile_coordinates_are_not_coerced(self, tile, value):
        # a float must not be truncated, e.g. (2.9, 0, 0) onto the corner tile (2, 0, 0)
        tiles = [list(t) for t in boundary_snake_12(3).tiles]
        tiles[tile][tile] = value
        with pytest.raises(TypeError):
            Snake([tuple(t) for t in tiles])

    def test_immutable(self):
        s = boundary_snake_12(2)
        with pytest.raises(AttributeError):
            s.tiles = ()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_segment_clockwise_reads_only_real_segments(self, n):
        # segments are 0..n-2; a negative index is not read from the end
        s = boundary_snake_12(n)
        assert [s.segment_clockwise(i) for i in range(n - 1)] == [True] * (n - 1)
        for i in (-1, -(n - 1), -n, n - 1, n):
            with pytest.raises(IndexError):
                s.segment_clockwise(i)

    def test_segment_clockwise_follows_the_segment_axes(self):
        # (2,0,0) -> (1,0,1) goes from axis 0 to axis 2, (1,0,1) -> (0,1,1)
        # from axis 0 to axis 1
        s = Snake([(2, 0, 0), (1, 0, 1), (0, 1, 1)])
        assert [s.segment_clockwise(i) for i in range(2)] == [False, True]


class TestMoves:
    def test_move_one_flips_last(self):
        s = boundary_snake_12(3)
        s2, m = move_one(s)
        assert s2.tiles == ((2, 0, 0), (1, 1, 0), (0, 1, 1))
        assert m == elem_l(3, 2)

    def test_move_one_needs_clockwise(self):
        s, _ = move_one(boundary_snake_12(3))
        # the flipped segment is now counterclockwise; flipping again fails
        with pytest.raises(BadSegment) as refused:
            move_one(s)
        assert str(refused.value) == "segment (1, 1, 0) -> (0, 1, 1) must be clockwise to flip"

    def test_move_two_white_vertex(self):
        s, _ = move_one(boundary_snake_12(3))
        s2, m, white = move_two(s, 1, Q(7))
        assert s2.tiles == ((2, 0, 0), (1, 0, 1), (0, 1, 1))
        assert white == (1, 1, 1)
        assert m == ((1, 0, 0), (1, 1, 0), (0, 0, 7))
        assert m == mat_mul(elem_l(3, 1), elem_h(3, 2, Q(7)))

    def test_move_two_range(self):
        with pytest.raises(IndexOutOfRange):
            move_two(boundary_snake_12(3), 2, Q(1))

    def test_move_two_needs_clockwise(self):
        s, _, _ = move_two(move_one(boundary_snake_12(3))[0], 1, Q(1))
        with pytest.raises(BadSegment):
            move_two(s, 1, Q(1))

    def test_sweep_trajectory_n3(self):
        s = boundary_snake_12(3)
        s, _ = move_one(s)
        s, _, _ = move_two(s, 1, Q(1))
        s, _ = move_one(s)
        assert s.tiles == tuple(reversed(boundary_snake_31(3).tiles))


class TestSnakeBasis:
    def test_side12_basis(self):
        cfg = example_config()
        d = A * G - B
        assert snake_basis(cfg, boundary_snake_12(3)) == (
            (1, 0, 0),
            (0, d / G, 0),
            (0, 0, d),
        )

    def test_side31_basis(self):
        cfg = example_config()
        d = A * G - B
        assert snake_basis(cfg, boundary_snake_31(3)) == (
            (1, A, B),
            (-1, -(d / G), 0),
            (1, 0, 0),
        )

    def test_side23_basis(self):
        cfg = example_config()
        assert snake_basis(cfg, boundary_snake_23(3)) == (
            (0, 0, 1),
            (0, -1 / G, -1),
            (1 / B, A / B, 1),
        )

    def test_first_vector_scales_everything(self):
        cfg = example_config()
        base = snake_basis(cfg, boundary_snake_12(3))
        scaled = snake_basis(cfg, boundary_snake_12(3), first=(Q(3), 0, 0))
        assert scaled == tuple(tuple(3 * x for x in row) for row in base)

    def test_first_vector_must_lie_on_line(self):
        cfg = example_config()
        with pytest.raises(DegenerateConfiguration):
            snake_basis(cfg, boundary_snake_12(3), first=(0, 1, 0))

    def test_first_vector_is_compared_projectively(self):
        # a stored generator that is not canonical is on its own line
        cfg = example_config()
        cfg = LineConfig(3, {**cfg.lines, (2, 0, 0): (2, 0, 0)}, cfg.planes)
        snake = boundary_snake_12(3)
        base = snake_basis(cfg, snake)
        assert snake_basis(cfg, snake, first=cfg.lines[(2, 0, 0)]) == base
        scaled = snake_basis(cfg, snake, first=(-6, 0, 0))
        assert scaled == tuple(tuple(-3 * x for x in row) for row in base)
        with pytest.raises(DegenerateConfiguration):
            snake_basis(cfg, snake, first=(2, 1, 0))
        zero = LineConfig(3, {**cfg.lines, (2, 0, 0): (0, 0, 0)}, cfg.planes)
        with pytest.raises(DegenerateConfiguration):
            snake_basis(zero, snake, first=(1, 0, 0))

    def test_dimension_mismatch(self):
        cfg = example_config()
        with pytest.raises(BadSegment):
            snake_basis(cfg, boundary_snake_12(4))

    # The first segment of boundary_snake_12(3) runs from tile (2,0,0) to
    # b = (1,1,0) around the gray triangle with third corner c = (1,0,1): the
    # vector on line(a) must split over line(b) + line(c) with a nonzero part
    # on line(b).
    @pytest.mark.parametrize(
        "a, b, c",
        [
            ((1, 0, 0), (0, 1, 0), (0, 2, 0)),  # line(b) = line(c)
            ((1, 1, 1), (0, 1, 0), (0, 0, 1)),  # line(a) leaves their plane
            ((1, 1, 0), (1, 0, 0), (1, 0, 0)),  # the same, with b = c
            ((0, 0, 1), (0, 1, 0), (0, 0, 1)),  # line(a) = line(c): no part on b
            ((1, 0, 0), (1, 0, 0), (1, 0, 0)),  # all one line: no unique split
        ],
        ids=["b-parallel-c", "a-off-plane", "a-off-line", "a-on-c", "one-line"],
    )
    def test_degenerate_segment_is_refused(self, a, b, c):
        cfg = example_config()
        lines = {**cfg.lines, (2, 0, 0): a, (1, 1, 0): b, (1, 0, 1): c}
        with pytest.raises(DegenerateConfiguration):
            snake_basis(LineConfig(3, lines, cfg.planes), boundary_snake_12(3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_results_are_fractions(self, n):
        # integer flags: an integer pipeline that forgot its last division
        # would hand back ints
        rng = random.Random(n)
        while True:
            rows = [[[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)] for _ in range(3)]
            if all(rank(r) == n for r in rows) and general_position(*map(Flag, rows)):
                break
        cfg = line_config(*map(Flag, rows))
        entries = [x for v in cfg.lines.values() for x in v]
        entries += [x for plane in cfg.planes.values() for row in plane for x in row]
        entries += [triple_ratio(cfg, v) for v in interior_vertices(n)]
        for mk in (boundary_snake_12, boundary_snake_23, boundary_snake_31):
            entries += [x for row in snake_basis(cfg, mk(n)) for x in row]
        assert entries and all(type(x) is Q for x in entries)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_non_canonical_lines_give_the_same_basis(self, n):
        # the segments read their lines projectively and the first vector,
        # over its common denominator, fixes the scale: lines stored as any
        # rational multiples give the same rows, types included
        cfg, _ = positive_config(n, n)
        rng = random.Random(n)
        scales = {k: Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for k in cfg.lines}
        lines = {k: tuple(scales[k] * x for x in v) for k, v in cfg.lines.items()}
        scaled = LineConfig(n, lines, cfg.planes)
        for mk in (boundary_snake_12, boundary_snake_23, boundary_snake_31):
            snake = mk(n)
            g = cfg.lines[snake.tiles[0]]
            for first in (tuple(Q(-3, 7) * x for x in g), [5 * x for x in g]):
                want = snake_basis(cfg, snake, first=first)
                assert repr(snake_basis(scaled, snake, first=first)) == repr(want)
            t = scales[snake.tiles[0]]
            base = snake_basis(cfg, snake)
            assert snake_basis(scaled, snake) == tuple(tuple(t * x for x in r) for r in base)


class TestStandardMatrix:
    def test_factorization_exact(self):
        ring = LaurentRing(("z",))
        (z,) = ring.gens()
        word = [elem_s(3), elem_l(3, 2), elem_l(3, 1), elem_h(3, 2, z), elem_l(3, 2)]
        assert mat_prod(word, 3) == standard_matrix_n3(z)

    def test_det_is_z(self):
        ring = LaurentRing(("z",))
        (z,) = ring.gens()
        assert det(standard_matrix_n3(z)) == z

    def test_cube_is_z_times_identity(self):
        ring = LaurentRing(("z",))
        (z,) = ring.gens()
        t = standard_matrix_n3(z)
        assert mat_prod([t, t, t], 3) == tuple(
            tuple(z * e for e in row) for row in identity(3)
        )

    def test_maps_between_boundary_bases(self):
        cfg = example_config()
        w = snake_basis(cfg, boundary_snake_12(3))
        u = snake_basis(cfg, boundary_snake_31(3))
        v = snake_basis(cfg, boundary_snake_23(3))
        t = standard_matrix_n3(Z111)
        d = A * G - B
        assert mat_mul(t, w) == u
        assert tuple(tuple(d * e for e in r) for r in mat_mul(t, v)) == w
        assert tuple(tuple(e / B for e in r) for r in mat_mul(t, u)) == v


def _as_lists(word):
    return [list(f[:2]) + [list(f[2])] if f[0] == "H" else list(f) for f in word]


class TestTransportWord:
    def test_n2_word(self):
        assert transport_word(2, 1) == [
            ("S",),
            ("H", 1, (1, 0, 1)),
            ("L", 1),
            ("H", 1, (1, 1, 0)),
        ]

    @pytest.mark.parametrize("n", [3, 4])
    def test_golden(self, n):
        doc = json.loads((GOLDEN / f"transport_word_n{n}.json").read_text())
        assert doc["kind"] == "transport_word" and doc["n"] == n
        assert _as_lists(transport_word(n, 1)) == doc["factors"]

    def test_rotation_relabels_keys(self):
        w1 = transport_word(3, 1)
        w2 = transport_word(3, 2)
        w3 = transport_word(3, 3)
        rot = lambda k: (k[2], k[0], k[1])
        assert w2 == [
            (f[0], f[1], rot(f[2])) if f[0] == "H" else f for f in w1
        ]
        assert w3 == [
            (f[0], f[1], rot(rot(f[2]))) if f[0] == "H" else f for f in w1
        ]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_form_replays_the_snake_sweep(self, n):
        # the sweep, one snake at a time: move I, then rounds j of moves II
        # at k = n-1-j, ..., n-2, each closed by a move I; move I is L(n-1)
        # and move II is L(k) H(k+1, white) (TestMoves)
        snake, _ = move_one(boundary_snake_12(n))
        units = [[("L", n - 1)]]
        for j in range(1, n - 1):
            for k in range(n - 1 - j, n - 1):
                snake, _, white = move_two(snake, k, Q(1))
                units.append([("L", k), ("H", k + 1, white)])
            snake, _ = move_one(snake)
            units.append([("L", n - 1)])
        assert snake.tiles == tuple(reversed(boundary_snake_31(n).tiles))
        # moves compose right to left: the last move's factors come first
        word = [("S",)] + [("H", n - k, (k, 0, n - k)) for k in range(1, n)]
        word += [f for unit in reversed(units) for f in unit]
        word += [("H", k, (n - k, k, 0)) for k in range(1, n)]
        for which in (1, 2, 3):
            assert transport_word(n, which) == word
            word = [(f[0], f[1], (f[2][2], f[2][0], f[2][1])) if f[0] == "H" else f for f in word]

    def test_interior_labels_cover_all_vertices(self):
        for n in range(2, 33):
            inner = [
                f[2]
                for f in transport_word(n, 1)
                if f[0] == "H" and min(f[2]) >= 1
            ]
            assert sorted(inner) == sorted(interior_vertices(n))
            assert len(inner) == len(set(inner))

    def test_which_validated(self):
        with pytest.raises(IndexOutOfRange):
            transport_word(3, 4)
        with pytest.raises(IndexOutOfRange):
            transport_word(1, 1)


class TestTransport:
    def test_sides_one_gives_standard_matrix(self):
        vals = {v: Q(1) for v in side_vertices(3)}
        vals[(1, 1, 1)] = Z111
        assert transport(3, 1, FGAssignment(3, vals)) == standard_matrix_n3(Z111)

    def test_all_ones_n2_is_minus_right_turn(self):
        t = transport(2, 1, FGAssignment.constant(2))
        tr = turn_right()
        assert t == ((-tr.a, -tr.b), (-tr.c, -tr.d))

    def test_side_flanks_conjugate_standard_part(self):
        z = random_assignment(3, 7)
        mid = mat_prod(
            [
                elem_s(3),
                elem_l(3, 2),
                elem_l(3, 1),
                elem_h(3, 2, z[(1, 1, 1)]),
                elem_l(3, 2),
            ],
            3,
        )
        sandwich = mat_prod(
            [
                elem_h(3, 1, 1 / z[(1, 0, 2)]),
                elem_h(3, 2, 1 / z[(2, 0, 1)]),
                mid,
                elem_h(3, 1, z[(2, 1, 0)]),
                elem_h(3, 2, z[(1, 2, 0)]),
            ],
            3,
        )
        assert proj_eq(transport(3, 1, z), sandwich)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_triple_product_scalar(self, n):
        z = random_assignment(n, 90 + n)
        p = mat_prod([transport(n, 1, z), transport(n, 2, z), transport(n, 3, z)], n)
        s = is_scalar_matrix(p)
        assert s is not None and s != 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rotation_equivariance(self, n):
        z = random_assignment(n, 70 + n)
        assert transport(n, 2, z) == transport(n, 1, z.rotated())
        assert transport(n, 3, z) == transport(n, 1, z.rotated().rotated())

    @settings(max_examples=40)
    @given(st.data())
    def test_rotation_equivariance_property(self, data):
        """T_(i+1)(z) = T_i(rotated z), for transports and their adjugates."""
        n = data.draw(st.integers(2, 4))
        keys = side_vertices(n) + interior_vertices(n)
        values = st.fractions(Q(1, 9), 9, max_denominator=9)
        z = FGAssignment(
            n, dict(zip(keys, data.draw(st.lists(values, min_size=len(keys), max_size=len(keys)))))
        )
        i = data.draw(st.sampled_from([1, 2]))
        for evaluate in (transport, transport_adjugate):
            assert evaluate(n, i + 1, z) == evaluate(n, i, z.rotated())
        assert transport(n, 1, z) == transport(n, 3, z.rotated())

    def test_needs_matching_assignment(self):
        with pytest.raises(IncompleteAssignment):
            transport(3, 1, FGAssignment.constant(4))


def dense_transport(n, which, z):
    """Reference: the product of the dense factor matrices of the word."""
    factors = []
    for f in transport_word(n, which):
        if f[0] == "S":
            factors.append(elem_s(n))
        elif f[0] == "L":
            factors.append(elem_l(n, f[1]))
        else:
            factors.append(elem_h(n, f[1], z[f[2]]))
    return mat_prod(factors, n)


def laurent_assignment(n, seed):
    # symbolic interior and side variables mixed with rational constants
    rng = random.Random(seed)
    keys = side_vertices(n) + interior_vertices(n)
    ring = LaurentRing(*(f"z{i}" for i in range(len(keys))))
    gens = ring.gens()
    return FGAssignment(
        n,
        {
            k: gens[i] if i % 3 else Q(rng.randint(1, 9), rng.randint(1, 5))
            for i, k in enumerate(keys)
        },
    )


def float_assignment(n, seed):
    rng = random.Random(seed)
    keys = side_vertices(n) + interior_vertices(n)
    return FGAssignment(n, {k: rng.uniform(0.1, 5.0) for k in keys})


def mixed_assignment(n, seed):
    rng = random.Random(seed)
    keys = side_vertices(n) + interior_vertices(n)
    return FGAssignment(
        n,
        {
            k: rng.uniform(0.1, 5.0) if i % 2 else Q(rng.randint(1, 9), rng.randint(1, 5))
            for i, k in enumerate(keys)
        },
    )


# recorded from the evaluator that runs every word as column operations
# without division (see test_non_rational_results_are_pinned)
NON_RATIONAL_DIGEST = "a551d6cd704974d920415e86a784db6fe62af66844de4bea45c9b4e47bf37e79"
# recorded from the evaluator that scaled every column entry at each H factor
# (see test_exact_results_are_pinned)
EXACT_DIGEST = "2bf37761c2583d4bc85897f33feb1b48d2e33d2caa62ffab4553c58b041f47d7"


def same_entries(a, b):
    return a == b and all(
        type(x) is type(y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


class TestColumnEvaluation:
    """transport and transport_adjugate against the dense factor product."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_rational_matches_dense_product(self, n, which):
        z = random_assignment(n, 300 + 10 * n + which)
        got = transport(n, which, z)
        assert same_entries(got, dense_transport(n, which, z))
        assert all(isinstance(x, Q) for row in got for x in row)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_laurent_matches_dense_product(self, n, which):
        z = laurent_assignment(n, 400 + n)
        assert same_entries(transport(n, which, z), dense_transport(n, which, z))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_float_matches_dense_product(self, n, which):
        z = float_assignment(n, 500 + n)
        got = transport(n, which, z)
        assert got == dense_transport(n, which, z)
        assert all(isinstance(x, float) for row in got for x in row)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_adjugate_read_off_reversed_word(self, n, which):
        z = random_assignment(n, 600 + 10 * n + which)
        want = adjugate(transport(n, which, z))
        assert same_entries(transport_adjugate(n, which, z), want)
        zl = laurent_assignment(n, 700 + n)
        want = adjugate(transport(n, which, zl))
        assert same_entries(transport_adjugate(n, which, zl), want)

    def test_adjugate_needs_matching_assignment(self):
        with pytest.raises(IncompleteAssignment):
            transport_adjugate(3, 1, FGAssignment.constant(4))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_exact_path_word_matches_dense_product(self, n):
        # an exact word runs over int columns and divides once per entry:
        # rational and int-valued triangles (all ones at even n, random ints
        # at odd n), one inverted step (the rational triangle at even n) and
        # sign -1 against the product of dense factor matrices; each n pays
        # for one cofactor adjugate
        rng = random.Random(1000 + n)
        keys = side_vertices(n) + interior_vertices(n)
        za = random_assignment(n, 1100 + n)
        if n % 2:
            zb = FGAssignment(n, {k: rng.randint(1, 9) for k in keys})
        else:
            zb = FGAssignment.constant(n, 1)
        surf = TriangulatedSurface({"A": za, "B": zb}, [(("A", "12"), ("B", "12"))])
        inv, zi = ("A", za) if n % 2 == 0 else ("B", zb)
        word = TrianglePathWord(
            [t_token("A", 1), "S", t_token("B", 2), "S", t_token(inv, 3, True)], sign=-1
        )
        got = path_matrix(surf, word)
        s = elem_s(n)
        dense = mat_prod([
            dense_transport(n, 1, za), s, dense_transport(n, 2, zb), s,
            adjugate(dense_transport(n, 3, zi)),
        ])
        assert got == tuple(tuple(-x for x in row) for row in dense)
        assert all(type(x) is Q for row in got for x in row)

    def test_exact_results_are_pinned(self):
        # one sha256 over the reprs of every rational, int-valued and all-ones
        # transport and adjugate at n = 2..16, and of a signed path word with
        # an inverted step: exact words keep their values and entry types
        # above the ranks the dense references reach
        out = []
        for n in range(2, 17):
            rng = random.Random(950 + n)
            keys = side_vertices(n) + interior_vertices(n)
            for z in (
                random_assignment(n, 930 + n),
                FGAssignment(n, {k: rng.randint(1, 9) for k in keys}),
                FGAssignment.constant(n, 1),
            ):
                for which in (1, 2, 3):
                    out.append(repr(transport(n, which, z)))
                    out.append(repr(transport_adjugate(n, which, z)))
                surf = TriangulatedSurface({"A": z, "B": z.rotated()}, [(("A", "12"), ("B", "12"))])
                word = TrianglePathWord([t_token("A", 1), "S", t_token("B", 2, True)], sign=-1)
                out.append(repr(path_matrix(surf, word)))
        digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
        assert digest == EXACT_DIGEST

    def test_non_rational_results_are_pinned(self):
        # one sha256 over the reprs of every float, LaurentPoly and mixed
        # float/Fraction transport and adjugate at n = 2..5, and of a signed
        # path word with an inverted step: an evaluator rewritten for exact
        # inputs must leave these bit-identical, entry types included
        out = []
        for n in range(2, 6):
            for z in (
                float_assignment(n, 900 + n),
                laurent_assignment(n, 910 + n),
                mixed_assignment(n, 920 + n),
            ):
                for which in (1, 2, 3):
                    out.append(repr(transport(n, which, z)))
                    out.append(repr(transport_adjugate(n, which, z)))
                surf = TriangulatedSurface({"A": z, "B": z.rotated()}, [(("A", "12"), ("B", "12"))])
                word = TrianglePathWord([t_token("A", 1), "S", t_token("B", 2, True)], sign=-1)
                out.append(repr(path_matrix(surf, word)))
        digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
        assert digest == NON_RATIONAL_DIGEST


def int_assignment(n, seed):
    rng = random.Random(seed)
    return FGAssignment(n, {k: rng.randint(1, 9) for k in side_vertices(n) + interior_vertices(n)})


def dense_steps(n, steps, scalar):
    """Reference for _evaluate: scalar times the dense product of S, dense
    transports and their cofactor adjugates."""
    factors = []
    for step in steps:
        if step == ("S",):
            factors.append(elem_s(n))
        else:
            which, z, inverted = step
            m = dense_transport(n, which, z)
            factors.append(adjugate(m) if inverted else m)
    return tuple(tuple(scalar * x for x in row) for row in mat_prod(factors, n))


STEP_KINDS = {
    "exact": lambda n: random_assignment(n, 1200 + n),
    "int": lambda n: int_assignment(n, 1300 + n),
    "ones": lambda n: FGAssignment.constant(n, 1),
    "float": lambda n: float_assignment(n, 1400 + n),
    "laurent": lambda n: laurent_assignment(n, 1500 + n),
    "mixed": lambda n: mixed_assignment(n, 1600 + n),
}
# step lists over an assignment A and its rotation B, with the scalar: "S"
# is the side change, (which, name, inverted) a transport or its adjugate
STEP_LISTS = {
    "S S": (["S", "S"], 1),
    "T T": ([(1, "A", False), (1, "A", False)], -1),
    "S T S": (["S", (2, "B", False), "S"], 1),
    "T' S S T": ([(3, "A", True), "S", "S", (1, "B", False)], -1),
    "S T' T' S T": (["S", (1, "A", True), (2, "B", True), "S", (3, "A", False)], -1),
    "T' T' T'": ([(2, "B", True), (3, "A", True), (1, "A", True)], 1),
}


class TestStepLists:
    """_evaluate on step lists that need not alternate, against dense products.

    Exact results match in value and entry type; float and mixed results lie
    within 1e-12 of the largest entry.  All-ones words keep every column
    scale at +-1, so a lost sign of S shows there first."""

    @pytest.mark.parametrize("case", sorted(STEP_LISTS))
    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_product(self, n, kind, case):
        a = STEP_KINDS[kind](n)
        names = {"A": a, "B": a.rotated()}
        raw, scalar = STEP_LISTS[case]
        steps = [("S",) if s == "S" else (s[0], names[s[1]], s[2]) for s in raw]
        got, want = snakes._evaluate(n, steps, scalar), dense_steps(n, steps, scalar)
        if kind in ("float", "mixed"):
            scale = max(abs(x) for row in want for x in row)
            assert all(
                abs(x - y) <= 1e-12 * scale for ra, rb in zip(got, want) for x, y in zip(ra, rb)
            )
        else:
            assert same_entries(got, want)


def generator_assignment(n):
    keys = side_vertices(n) + interior_vertices(n)
    ring = LaurentRing(*(f"z{i}" for i in range(len(keys))))
    return FGAssignment(n, dict(zip(keys, ring.gens())))


class TestAdjugateScalar:
    """T adj(T) = det(T) I, with det(T) read off the transport word.

    det S = 1, det L_k = 1 and det H_k(t) = t^(n-k), so det(T_which) is the
    product of z_v^(n-k) over the word's H(k, v) factors.  This fixes the
    projective scalar of an inverted transport at every rank, where the
    cofactor adjugate comparison stops at n = 5.
    """

    @staticmethod
    def check(n, which, z):
        d = Q(1)
        for f in transport_word(n, which):
            if f[0] == "H":
                d = d * z[f[2]] ** (n - f[1])
        zero = d * 0
        want = tuple(tuple(d if i == j else zero for j in range(n)) for i in range(n))
        assert mat_mul(transport(n, which, z), transport_adjugate(n, which, z)) == want

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_rational(self, n, which):
        self.check(n, which, random_assignment(n, 800 + 10 * n + which))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_laurent_generators(self, n, which):
        self.check(n, which, generator_assignment(n))


class TestFlagOracle:
    """Transports rebuilt from exact flag data via the orientation rule."""

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_transport_flags_have_the_assignment_as_triple_ratios(self, n, which):
        # the flags read off T_which(z) from the standard and reversed flags
        # are generic, and their triple ratio at (a, b, c) is z at (a, b, c),
        # (c, a, b) or (b, c, a): the FG coordinates of the triangle, read
        # backwards; side values do not enter
        z = random_assignment(n, 100 * n + which)
        f1, f2, f3 = standard_flag(n), reversed_flag(n), Flag(transport(n, which, z))
        assert general_position(f1, f2, f3)
        cfg = line_config(f1, f2, f3)
        for a, b, c in interior_vertices(n):
            key = {1: (a, b, c), 2: (c, a, b), 3: (b, c, a)}[which]
            assert triple_ratio(cfg, (a, b, c)) == z[key]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_all_three_transports(self, n):
        cfg, ratios = positive_config(n, 500 + n)
        vals = {v: Q(1) for v in side_vertices(n)}
        vals.update(ratios)
        z = FGAssignment(n, vals)
        w = snake_basis(cfg, boundary_snake_12(n))
        u = snake_basis(cfg, boundary_snake_31(n))
        v = snake_basis(cfg, boundary_snake_23(n))
        assert proj_eq(mat_mul(transport(n, 1, z), w), u)
        assert proj_eq(mat_mul(transport(n, 2, z), v), w)
        assert proj_eq(mat_mul(transport(n, 3, z), u), v)

    def test_moves_track_rule_exactly(self):
        # every intermediate basis of the sweep agrees with the one rebuilt
        # from scratch through the orientation rule
        cfg, ratios = positive_config(4, 504)
        snake = boundary_snake_12(4)
        rows = snake_basis(cfg, snake)
        schedule = [("I",), ("II", 2), ("I",), ("II", 1), ("II", 2), ("I",)]
        for mv in schedule:
            if mv[0] == "I":
                snake, m = move_one(snake)
            else:
                probe, _, white = move_two(snake, mv[1], Q(1))
                snake, m, _ = move_two(snake, mv[1], ratios[white])
                assert snake == probe
            rows = mat_mul(m, rows)
            assert rows == snake_basis(cfg, snake, first=rows[0])
        closed = mat_mul(elem_s(4), rows)
        assert proj_eq(closed, snake_basis(cfg, boundary_snake_31(4)))

    def test_interior_variable_is_triple_ratio(self):
        cfg = example_config()
        assert triple_ratio(cfg, (1, 1, 1)) == Z111


def _edited(n=3, drop=(), add=(), **edits):
    """The constant rank-n assignment with keys dropped, added or renamed
    (``rename``) and values replaced (``value`` at (1, 1, 1))."""
    vals = dict(FGAssignment.constant(n).values)
    for k in drop:
        del vals[k]
    for k in add:
        vals[k] = Q(1)
    old, new = edits.get("rename", (None, None))
    vals = {(new if k == old else k): v for k, v in vals.items()}
    if "value" in edits:
        vals[(1, 1, 1)] = edits["value"]
    return vals


# (rank, values, the class and the exact message of the refusal), one row per
# way an assignment can be refused, listed in the order the constructor checks
_REFUSALS = {
    "float key coordinate": (3, _edited(rename=((1, 2, 0), (1.0, 2, 0))), TypeError,
                             "vertex (1.0, 2, 0) must have int coordinates"),
    "bool key coordinate": (3, _edited(rename=((1, 2, 0), (True, 2, 0))), TypeError,
                            "vertex (True, 2, 0) must have int coordinates"),
    "float key coordinate before a missing key": (
        3, _edited(drop=[(1, 1, 1)], rename=((1, 2, 0), (1.0, 2, 0))), TypeError,
        "vertex (1.0, 2, 0) must have int coordinates"),
    "missing key": (3, _edited(drop=[(1, 1, 1)]), IncompleteAssignment,
                    "assignment keys off for n=3: missing [(1, 1, 1)], extra []"),
    "extra key": (3, _edited(add=[(3, 0, 0)]), IncompleteAssignment,
                  "assignment keys off for n=3: missing [], extra [(3, 0, 0)]"),
    "missing key before a bad value": (
        3, _edited(drop=[(2, 1, 0)], value=Q(0)), IncompleteAssignment,
        "assignment keys off for n=3: missing [(2, 1, 0)], extra []"),
    "bool value": (3, _edited(value=True), TypeError,
                   "variable at (1, 1, 1) must be a number, got True"),
    **{
        f"value {v!r}": (3, _edited(value=v), NonpositiveVariable,
                         f"variable at (1, 1, 1) must be a positive finite number, got {v}")
        for v in (0, -1, Q(0), Q(-1, 2), float("nan"), float("inf"), -0.5)
    },
    "zero LaurentPoly": (3, _edited(value=LaurentRing("a").zero), NonpositiveVariable,
                         "variable at (1, 1, 1) is zero"),
    "zero complex": (3, _edited(value=0j), NonpositiveVariable, "variable at (1, 1, 1) is zero"),
    **{
        f"value {v!r}": (3, _edited(value=v), TypeError,
                         f"variable at (1, 1, 1) must be a number or a ring element, "
                         f"got {type(v).__name__}")
        for v in ("abc", None, [1])
    },
    "rank 1": (1, {}, RankOutOfRange, "rank must be at least 2, got 1"),
    "rank 33": (33, {}, RankOutOfRange, "rank exceeds MAX_RANK = 32"),
    "rank True": (True, {}, RankOutOfRange, "rank must be an int, got bool"),
}


class TestAssignment:
    @pytest.mark.parametrize("case", sorted(_REFUSALS))
    def test_refusals_are_pinned(self, case):
        n, vals, cls, message = _REFUSALS[case]
        with pytest.raises(Exception) as refused:
            FGAssignment(n, vals)
        assert (type(refused.value), str(refused.value)) == (cls, message)

    @pytest.mark.parametrize("value", [2 + 1j, LaurentRing("a").gens()[0]], ids=repr)
    def test_complex_and_ring_values_are_accepted(self, value):
        assert FGAssignment.constant(3, value)[(1, 1, 1)] == value

    def test_requires_every_vertex(self):
        vals = {v: Q(1) for v in side_vertices(3)}
        with pytest.raises(IncompleteAssignment):
            FGAssignment(3, vals)

    def test_rejects_corner_keys(self):
        vals = {v: Q(1) for v in side_vertices(3)}
        vals[(1, 1, 1)] = Q(1)
        vals[(3, 0, 0)] = Q(1)
        with pytest.raises(IncompleteAssignment):
            FGAssignment(3, vals)

    def test_constant_checks_the_rank_first(self, monkeypatch):
        def enumerate_keys(n):
            raise AssertionError("keys enumerated before the rank check")

        monkeypatch.setattr(snakes, "side_vertices", enumerate_keys)
        with pytest.raises(RankOutOfRange):
            FGAssignment.constant(10**9)

    def test_key_count(self):
        for n in (2, 3, 4, 5):
            z = FGAssignment.constant(n)
            assert len(z.values) == (n + 4) * (n - 1) // 2

    def test_positive_required(self):
        vals = {v: Q(1) for v in side_vertices(2)}
        vals[(1, 1, 0)] = Q(0)
        with pytest.raises(NonpositiveVariable):
            FGAssignment(2, vals)
        vals[(1, 1, 0)] = Q(-2)
        with pytest.raises(NonpositiveVariable):
            FGAssignment(2, vals)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=repr)
    def test_nonfinite_float_is_refused(self, value):
        with pytest.raises(NonpositiveVariable, match="positive finite number"):
            FGAssignment.constant(3, value)
        vals = {v: Q(1) for v in side_vertices(2)}
        vals[(1, 1, 0)] = value
        with pytest.raises(NonpositiveVariable, match="positive finite number"):
            FGAssignment(2, vals)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_not_a_value(self, value):
        with pytest.raises(TypeError):
            FGAssignment.constant(2, value)

    def test_symbolic_values_allowed(self):
        ring = LaurentRing("a", "b", "c")
        a, b, c = ring.gens()
        z = FGAssignment(2, {(1, 1, 0): a, (0, 1, 1): b, (1, 0, 1): c})
        t = transport(2, 1, z)
        assert t[0][0] == -c
        assert t[0][1] == -(c * a)

    def test_rotated(self):
        z = random_assignment(3, 3)
        assert z.rotated()[(1, 0, 2)] == z[(2, 1, 0)]
        assert z.rotated().rotated().rotated() == z

    def test_json_round_trip(self):
        z = random_assignment(4, 44)
        doc = z.to_json()
        assert doc["kind"] == "fg_assignment"
        assert FGAssignment.from_json(doc) == z

    def test_immutable(self):
        z = FGAssignment.constant(2)
        with pytest.raises(AttributeError):
            z.n = 3


class TestShearDictionary:
    def test_turns_match_holonomy_generators(self):
        _, left, right = reduce_to_shear(Q(1))
        tl, tr = turn_left(), turn_right()
        assert left == ((tl.a, tl.b), (tl.c, tl.d))
        assert right == ((tr.a, tr.b), (tr.c, tr.d))

    def test_crossing_is_weight_times_edge_matrix(self):
        w = Q(3, 2)
        crossing, _, _ = reduce_to_shear(w * w)
        cm = cross(w)
        assert crossing == ((w * cm.a, w * cm.b), (w * cm.c, w * cm.d))

    def test_crossing_shape(self):
        crossing, _, _ = reduce_to_shear(Q(9))
        assert crossing == ((0, -9), (1, 0))
