"""The three benchmark workloads: seeded inputs, the timed ops and their checks.

A workload is a fixed multiset of op classes.  One *round* holds `count` ops
of every class, shuffled; a run repeats rounds, each with fresh inputs drawn
from (workload, seed, round), so no two ops of a run share inputs.  Because
every round has the same class counts, ops_per_s and the latency quantiles
do not depend on how many rounds a run completes.

Every op is a call into teichkit's public API or `teichkit.cli.main`, made
through the module attribute (``teichkit.surface.path_matrix``, not an
imported name) so that the traced run sees it.  `execute` is the timed
part; `check` and `digest` run after the timer stops.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import teichkit.cli
import teichkit.flags
import teichkit.linalg
import teichkit.scene
import teichkit.snakes
import teichkit.surface
from teichkit.fatgraph import PathWord, four_holed_sphere, pair_of_pants

# (kind, rank n, ops per round).  Latency order and the counts put each
# workload's p50 and p90 well inside one class (see perfbench/layers.json).
CLASSES = {
    "glued-transport": [
        ("transport", 3, 60),
        ("transport", 4, 12),
        ("amalgamation", 3, 8),
        ("fhs", 3, 4),
        ("transport", 5, 9),
        ("amalgamation", 4, 1),
        ("transport", 6, 1),
        ("fhs", 4, 1),
        ("amalgamation", 5, 1),
        ("transport", 7, 1),
        ("fhs", 5, 1),
        ("amalgamation", 6, 1),
    ],
    "flag-config": [
        ("degenerate", 3, 8),
        ("degenerate", 4, 6),
        ("degenerate", 5, 4),
        ("generic", 3, 66),
        ("degenerate", 6, 1),
        ("generic", 4, 10),
        ("generic", 5, 1),
        ("degenerate", 7, 1),
        ("generic", 6, 1),
        ("generic", 7, 2),
    ],
    "rank2-cli": [
        ("scene", 2, 8),
        ("skein", 2, 8),
        ("holonomy-10", 2, 20),
        ("fricke", 2, 28),
        ("holonomy-50", 2, 10),
        ("holonomy-200", 2, 12),
        ("frickepv", 2, 8),
        ("lambda", 2, 3),
        ("holonomy-500", 2, 3),
    ],
}

WORKLOADS = tuple(CLASSES)

# Rounds of the default seed whose per-op digests are stored in reference.json,
# about one 20-second run of each workload.
DEFAULT_SEED = 0
REFERENCE_ROUNDS = {"glued-transport": 8, "flag-config": 8, "rank2-cli": 40}
DIGEST_CHARS = 8
REFERENCE_FILE = Path(__file__).with_name("reference.json")


class Op:
    """One timed call of class `cls`; `kind` selects execute/check/digest."""

    __slots__ = ("key", "cls", "kind", "n", "args")

    def __init__(self, kind, n, args):
        self.key = self.cls = None
        self.kind, self.n, self.args = kind, n, args


def class_label(kind, n):
    return f"{kind}-n{n}" if n > 2 else kind


def _rng(workload, seed, round_index):
    return random.Random(f"{workload}:{seed}:{round_index}")


def _rand_q(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _assignment(rng, n):
    keys = teichkit.snakes.side_vertices(n) + teichkit.flags.interior_vertices(n)
    return teichkit.snakes.FGAssignment(n, {k: _rand_q(rng) for k in keys})


# -- flag triples --------------------------------------------------------------
#
# Generic triples are filtered with ranks modulo a large prime.  For integer
# rows the rank mod p never exceeds the rank over Q, so a full rank mod p
# certifies a full rank over Q: every accepted triple is accepted exactly by
# both genericity definitions.  (A triple rejected mod p is merely discarded.)

_P = (1 << 61) - 1


def _insert(basis, row):
    """Reduce `row` against an echelon basis mod _P; append it if independent."""
    row = list(row)
    for pivot, b in basis:
        c = row[pivot]
        if c:
            row = [(x - c * y) % _P for x, y in zip(row, b)]
    pivot = next((i for i, x in enumerate(row) if x), None)
    if pivot is None:
        return False
    inv = pow(row[pivot], _P - 2, _P)
    basis.append((pivot, [x * inv % _P for x in row]))
    return True


def _rank(rows):
    basis = []
    return sum(_insert(basis, r) for r in rows)


def direct_sum_generic(r1, r2, r3):
    """Fock-Goncharov condition: A_a + B_b + C_c = V whenever a + b + c = n."""
    n = len(r1)
    return all(
        _rank(r1[:a] + r2[:b] + r3[: n - a - b]) == n
        for a in range(n + 1)
        for b in range(n + 1 - a)
    )


def intersections_generic(r1, r2, r3):
    """`flags.general_position`'s condition, certified by ranks mod p.

    dim(A ∩ B ∩ C) = i1 + i2 + i3 - rank of the rows (a, a), (-b, 0), (0, -c)
    for a, b, c running over bases of A, B, C, so the minimal dimension
    max(i1 + i2 + i3 - 2n, 0) means each added C row raises the rank until 2n.
    """
    n = len(r1)
    zero = [0] * n
    for i1 in range(1, n + 1):
        base = []
        for a in r1[:i1]:
            _insert(base, a + a)
        for i2 in range(1, n + 1):
            _insert(base, [-x for x in r2[i2 - 1]] + zero)
            basis = list(base)
            for c in r3:
                if len(basis) == 2 * n:
                    break
                if not _insert(basis, zero + [-x for x in c]):
                    return False
    return True


def _rows(rng, n):
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def generic_triple(rng, n):
    while True:
        r1, r2, r3 = _rows(rng, n), _rows(rng, n), _rows(rng, n)
        if direct_sum_generic(r1, r2, r3) and intersections_generic(r1, r2, r3):
            return r1, r2, r3


def degenerate_triple(rng, n):
    """f3 shares f1's first row: F1_1 = F3_1, which both definitions reject."""
    while True:
        r1, r2, r3 = _rows(rng, n), _rows(rng, n), _rows(rng, n)
        r3[0] = list(r1[0])
        if all(_rank(r) == n for r in (r1, r2, r3)):
            return r1, r2, r3


# -- holonomy inputs -----------------------------------------------------------


def _graph_and_loops(rng):
    if rng.random() < 0.5:
        return pair_of_pants(*(_rand_q(rng) for _ in range(3)))
    return four_holed_sphere(
        [_rand_q(rng) for _ in range(3)], [_rand_q(rng) for _ in range(3)]
    )


def _word(rng, loops, length):
    """Product of whole boundary loops and their inverses, about `length` tokens."""
    names = sorted(loops)
    tokens, sign = [], 1
    while len(tokens) < length:
        w = loops[rng.choice(names)]
        if rng.random() < 0.5:
            w = w.inverse()
        tokens.extend(w.tokens)
        sign *= w.sign
    return PathWord(tuple(tokens), sign)


def _shears(rng):
    """Exponentiated shears whose pairwise products differ from 1.

    The boundary holonomies of pants_maps(e1, e2, e3) are hyperbolic exactly
    then; a product of 1 makes one of them parabolic.
    """
    while True:
        e = [_rand_q(rng) for _ in range(3)]
        if e[0] * e[1] != 1 and e[1] * e[2] != 1 and e[0] * e[2] != 1:
            return tuple(e)


# -- rounds --------------------------------------------------------------------


def make_round(workload, seed, round_index, input_dir):
    """The shuffled ops of one round; writes the files its CLI ops read."""
    rng = _rng(workload, seed, round_index)
    ops = []
    for kind, n, count in CLASSES[workload]:
        for _ in range(count):
            op = _make_op(rng, kind, n, input_dir, len(ops))
            op.cls = class_label(kind, n)
            ops.append(op)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op.key = f"{round_index}:{i}"
    return ops


def _make_op(rng, kind, n, input_dir, index):
    if kind in ("transport", "amalgamation"):
        return Op("verify", n, (kind, n, rng.randrange(1 << 31)))
    if kind in ("fricke", "frickepv", "skein", "lambda"):
        return Op("verify", n, (kind, None, rng.randrange(1 << 31)))
    if kind == "fhs":
        return Op("fhs", n, {t: _assignment(rng, n) for t in "lrdc"})
    if kind in ("generic", "degenerate"):
        make = generic_triple if kind == "generic" else degenerate_triple
        return Op(kind, n, make(rng, n))
    if kind.startswith("holonomy-"):
        graph, loops = _graph_and_loops(rng)
        word = _word(rng, loops, int(kind.split("-")[1]))
        input_dir.mkdir(parents=True, exist_ok=True)
        gpath, wpath = input_dir / f"graph{index}.json", input_dir / f"word{index}.json"
        gpath.write_text(json.dumps(graph.to_json()))
        wpath.write_text(json.dumps(word.to_json()))
        return Op("holonomy", n, (str(gpath), str(wpath)))
    if kind == "scene":
        return Op("scene", n, _shears(rng))
    raise ValueError(f"unknown op kind {kind!r}")


# -- execute (timed) -----------------------------------------------------------


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = teichkit.cli.main(argv)
    return rc, buf.getvalue()


def _execute_verify(args):
    suite, n, op_seed = args
    argv = ["verify", suite, "--trials", "1", "--seed", str(op_seed)]
    if n is not None:
        argv += ["--n", str(n)]
    return _cli(argv)


def _execute_fhs(assignments, n):
    surface, linalg = teichkit.surface, teichkit.linalg
    surf, words = surface.four_holed_sphere_fg(n, assignments)
    loops = [surface.path_matrix(surf, words[f"loop{i}"]) for i in range(1, 5)]
    return loops, linalg.is_scalar_matrix(linalg.mat_prod(loops, n))


def _execute_flags(rows, n):
    flags, snakes = teichkit.flags, teichkit.snakes
    f1, f2, f3 = (flags.Flag(r) for r in rows)
    try:
        config = flags.line_config(f1, f2, f3)
    except flags.NotGeneric:
        return None
    ratios = [flags.triple_ratio(config, v) for v in flags.interior_vertices(n)]
    bases = [
        (s, snakes.snake_basis(config, s))
        for s in (
            snakes.boundary_snake_12(n),
            snakes.boundary_snake_23(n),
            snakes.boundary_snake_31(n),
        )
    ]
    return config, ratios, bases


def _execute_scene(shears):
    scene = teichkit.scene
    text = json.dumps(scene.pants_scene(*shears).to_json(), sort_keys=True)
    return scene.render_svg(scene.Scene.from_json(json.loads(text), mode="float"))


def execute(op):
    if op.kind == "verify":
        return _execute_verify(op.args)
    if op.kind == "fhs":
        return _execute_fhs(op.args, op.n)
    if op.kind in ("generic", "degenerate"):
        return _execute_flags(op.args, op.n)
    if op.kind == "holonomy":
        return _cli(["holonomy", *op.args])
    return _execute_scene(op.args)


# -- check and digest (untimed) ------------------------------------------------


def _check_verify(out):
    rc, text = out
    lines = text.splitlines()
    return (
        rc == 0
        and len(lines) >= 2
        and all(line.startswith("PASS ") for line in lines[:-1])
        and lines[-1].endswith(f"{len(lines) - 1}/{len(lines) - 1} passed")
    )


def _check_flags(op, out):
    if op.kind == "degenerate":
        return out is None
    if out is None:
        return False
    flags, linalg = teichkit.flags, teichkit.linalg
    config, ratios, bases = out
    round_trip = flags.LineConfig.from_json(json.loads(json.dumps(config.to_json())))
    on_lines = all(
        linalg.canonical_vector(row) == config.lines[tile]
        for snake, rows in bases
        for tile, row in zip(snake.tiles, rows)
    )
    return round_trip == config and on_lines and all(r != 0 for r in ratios)


def _check_holonomy(out):
    rc, text = out
    if rc != 0:
        return False
    doc = json.loads(text)
    (a, b), (c, d) = ((Fraction(x) for x in row) for row in doc["matrix"])
    return (
        a * d - b * c == 1
        and Fraction(doc["trace"]) == a + d
        and Fraction(doc["trace_k"]) == -b
    )


def _check_scene(op, svg):
    # rendering is independent of the scalar mode the scene was parsed with
    scene = teichkit.scene
    return svg.startswith("<svg") and svg == scene.render_svg(scene.pants_scene(*op.args))


def check(op, out):
    """Cheap identity on an op's output, valid for every seed."""
    if op.kind == "verify":
        return _check_verify(out)
    if op.kind == "fhs":
        scalar = out[1]
        return scalar is not None and scalar != 0
    if op.kind in ("generic", "degenerate"):
        return _check_flags(op, out)
    if op.kind == "holonomy":
        return _check_holonomy(out)
    return _check_scene(op, out)


def _matrix_text(m):
    return ";".join(",".join(str(x) for x in row) for row in m)


def canonical_text(op, out):
    """The op's output as text: CLI stdout, matrix entries, to_json or SVG."""
    if op.kind in ("verify", "holonomy"):
        return f"{out[0]}\n{out[1]}"
    if op.kind == "fhs":
        loops, scalar = out
        return "|".join(_matrix_text(m) for m in loops) + f"|{scalar}"
    if op.kind in ("generic", "degenerate"):
        if out is None:
            return "NotGeneric"
        config, ratios, bases = out
        return "|".join(
            [json.dumps(config.to_json(), sort_keys=True), ",".join(map(str, ratios))]
            + [_matrix_text(rows) for _, rows in bases]
        )
    return out


def digest(op, out):
    return hashlib.sha256(canonical_text(op, out).encode()).hexdigest()[:DIGEST_CHARS]


def load_reference(workload, seed):
    """Per-op digests {op key: digest} for the default seed, else {}.

    reference.json holds, per workload, one string per round: the digests of
    the round's ops in op order, concatenated.
    """
    if seed != DEFAULT_SEED:
        return {}
    rounds = json.loads(REFERENCE_FILE.read_text())[workload]
    k = DIGEST_CHARS
    return {
        f"{r}:{i // k}": text[i : i + k]
        for r, text in enumerate(rounds)
        for i in range(0, len(text), k)
    }


def make_warmup(workload, seed, input_dir):
    """One op of each kind at its smallest rank, from inputs no round uses."""
    rng = _rng(workload, seed, "warmup")
    smallest = {}
    for kind, n, _ in CLASSES[workload]:
        smallest.setdefault(kind.split("-")[0], (kind, n))
    return [_make_op(rng, kind, n, input_dir, i) for i, (kind, n) in enumerate(smallest.values())]
