"""Command-line front end.

Subcommands: holonomy (evaluate a path word on a fat graph), verify (run a
seeded identity-checking suite), render (scene JSON to SVG), pants-scene
(build the three-holed-sphere scene from exponentiated shears).

Exit codes: 0 success, 1 a verification trial failed, 2 malformed input
(bad JSON, schema violations), 3 mathematically invalid input.  The env
var TEICHKIT_SCALAR picks the default scalar mode for --scalar flags.

The argument parser is built once per process, on the first call of `main`,
and kept by the private `functools.cache`d `_parser`: building it costs
over ten times what parsing one command line does, and parsing leaves it
unchanged, filling a fresh namespace from its defaults on every call.
`build_parser` still returns a new one.  The lambda suite's symbolic table
is likewise built on its first use and kept by `_setup_lambda`.  When
the first argument names a subcommand, `main` parses the rest with that
subcommand's parser alone: one pass, where the full parser makes two.  Any
other command line (none, -h, an unknown command, or one that leaves
arguments over) goes to the full parser, so usage and error messages are
the full parser's.
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import NamedTuple

from . import confluence, fatgraph, surface
from .encode import SCHEMA, scalar_from_json, scalar_to_json
from .errors import DomainError, SchemaError
from .fatgraph import FatGraph, PathWord, pair_of_pants
from .laurent import LaurentRing
from .linalg import is_scalar_matrix, proj_eq
from .scene import Scene, pants_scene, render_svg
from .snakes import MAX_RANK, FGAssignment, _evaluate, _vertices

# The most trials one `verify` run accepts: work per invocation stays bounded.
MAX_TRIALS = 1000


def _read_json(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    return json.loads(text)


def _write_text(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def _scalar_mode(args):
    mode = args.scalar or os.environ.get("TEICHKIT_SCALAR", "rational")
    if mode not in ("rational", "float"):
        raise SchemaError(f"unknown scalar mode {mode!r}")
    return mode


def _cmd_holonomy(args):
    mode = _scalar_mode(args)
    graph = FatGraph.from_json(_read_json(args.graph), mode)
    word = PathWord.from_json(_read_json(args.word))
    if not word.tokens:
        raise SchemaError("empty word")
    m = graph.holonomy(word)
    doc = {
        "schema": SCHEMA,
        "kind": "holonomy_result",
        "matrix": [
            [scalar_to_json(m.a), scalar_to_json(m.b)],
            [scalar_to_json(m.c), scalar_to_json(m.d)],
        ],
        "trace": scalar_to_json(m.trace()),
        "trace_k": scalar_to_json(m.cusp_trace()),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_render(args):
    scene = Scene.from_json(_read_json(args.scene), mode="float")
    _write_text(args.out, render_svg(scene))
    return 0


def _cmd_pants_scene(args):
    ws = [scalar_from_json(w) for w in (args.e1, args.e2, args.e3)]
    text = json.dumps(pants_scene(*ws).to_json(), indent=2, sort_keys=True)
    if args.out:
        _write_text(args.out, text + "\n")
    else:
        print(text)
    return 0


# -- verification suites -------------------------------------------------------


def _rand_q(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _nontrivial(rng):
    t = _rand_q(rng)
    return t if t != 1 else Fraction(2)


def _rand_assignment(rng, n):
    return FGAssignment(n, {k: _rand_q(rng) for k in _vertices(n)[0]})


def _check_fricke(rng, n, shared):
    ws = [_rand_q(rng) for _ in range(6)]
    g, loops = fatgraph.four_holed_sphere(ws[:3], ws[3:])
    return fatgraph.fricke_value(fatgraph.trace_coordinates(g, loops)) == 4


def _check_frickepv(rng, n, shared):
    lim = confluence.limit_coordinates()
    vals = {k: _rand_q(rng) for k in ("ls1", "ls2", "ls3", "lp1", "lp2", "kap1", "kap2")}
    nums = confluence.LimitCoords(*(p.eval(vals) for p in lim))
    ok = confluence.limiting_relation_value(nums) == 0
    t = _nontrivial(rng)
    moved = dict(vals, kap1=vals["kap1"] * t, kap2=vals["kap2"] / t)
    return ok and all(p.eval(vals) == p.eval(moved) for p in lim)


def _check_transport(rng, n, shared):
    z = _rand_assignment(rng, n)
    s = is_scalar_matrix(_evaluate(n, [(1, z, False), (2, z, False), (3, z, False)]))
    return s is not None and s != 0


def _rescalings_inert(rng, surf, words):
    """Rescale each amalgamated pair of `surf` by t and 1/t, one draw per pair.
    Returns whether every word's matrix stayed exactly equal, and the unmoved ones."""
    base = {w: surface.path_matrix(surf, wd) for w, wd in words.items()}
    ok = True
    for (t1, v1), (t2, v2) in surface._amalgamated_pairs(surf):
        t = _nontrivial(rng)
        moved = surf._with_values(
            ((t1, v1, surf.triangles[t1][v1] * t), (t2, v2, surf.triangles[t2][v2] / t))
        )
        ok = ok and all(surface.path_matrix(moved, wd) == base[w] for w, wd in words.items())
    return ok, base


def _check_amalgamation(rng, n, shared):
    # every draw is made whatever the verdict so far: `ok and` skips work only
    L, R = _rand_assignment(rng, n), _rand_assignment(rng, n)
    surf = surface.TriangulatedSurface({"L": L, "R": R}, [(("L", "12"), ("R", "12"))])
    word = surface.TrianglePathWord([surface.t_token("L", 1), "S", surface.t_token("R", 2)])
    ok, base = _rescalings_inert(rng, surf, {"arc": word})
    # the word enters through L's 31 side, so that pinning must matter
    v = surface.side_vertex(n, "31", 1)
    pinched = surf.with_value("L", v, surf.triangles["L"][v] * 2)
    ok = ok and not proj_eq(surface.path_matrix(pinched, word), base["arc"])
    cyl, words = surface.cylinder_two_cusps(
        2, {"t": _rand_assignment(rng, 2), "b": _rand_assignment(rng, 2)}
    )
    return _rescalings_inert(rng, cyl, words)[0] and ok


def _setup_skein(rng, n):
    g, _ = pair_of_pants(_rand_q(rng), _rand_q(rng), _rand_q(rng))
    return g, ()


def _check_skein(rng, n, g):
    alphabet = ["R", "L", ("E", "s1"), ("E", "s2"), ("E", "s3"), ("Einv", "s1")]
    wa = PathWord(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 7))))
    wb = PathWord(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 7))))
    a, b = g.holonomy(wa), g.holonomy(wb)
    return (a * b).trace() + (a * g.holonomy(wb.inverse())).trace() == a.trace() * b.trace()


@cache
def _setup_lambda():
    """The symbolic lambda-length table and its verdict, built once per process."""
    ring = LaurentRing("s1", "s2", "s3", "q1", "q2", "c1", "c2")
    s1, s2, s3, q1, q2, c1, c2 = ring.gens()
    g, arcs, _ = confluence.cusped_three_holed((s1, s2, s3), (q1, q2), (c1, c2))
    lam = confluence.lambda_lengths(g, arcs)
    expected = {
        "a": c2 ** 2 * q1 ** 2 * q2 * s1 ** 4 * s2 ** 2 * s3 ** 2,
        "b": c2 ** 2 * q1 * s1 ** 2 * s3 ** 2,
        "c": c2 ** 2 * q1 * q2 * s1 ** 2 * s2 ** 2 * s3 ** 2,
        "d": c1 * c2 * q1 * q2 * s1 ** 2 * s2 ** 2 * s3 ** 2,
        "e": c1 * c2,
    }
    table = dict(lam, q1=q1, q2=q2)
    rows = {name: mono.monomial_parts()[1] for name, mono in table.items()}
    return (ring.names, table, rows), (("lambda monomial table matches", lam == expected),)


def _check_lambda(rng, n, shared):
    names, table, rows = shared
    exps = [rng.randint(-3, 3) for _ in names]
    values = {k: Fraction(2) ** sum(e * x for e, x in zip(es, exps)) for k, es in rows.items()}
    return confluence.invert_monomials(table, values, Fraction(2)) == dict(zip(names, exps))


class _Suite(NamedTuple):
    trials: int  # the default count
    text: str  # ends each trial line; "{n}" is the rank
    check: object  # (rng, n, shared) -> verdict of one trial
    setup: object = None  # (rng, n) -> (shared, (line, verdict) pairs to report first)


SUITES = {
    "fricke": _Suite(20, "relation == 4", _check_fricke),
    "frickepv": _Suite(10, "relation == 0, rebalancing inert", _check_frickepv),
    "transport": _Suite(10, "T1 T2 T3 scalar at n={n}", _check_transport),
    "amalgamation": _Suite(10, "class rescales inert, pinning moves", _check_amalgamation),
    "skein": _Suite(20, "Tr(AB) + Tr(AB^-1) == Tr(A) Tr(B)", _check_skein, _setup_skein),
    "lambda": _Suite(10, "invert_monomials round trip", _check_lambda, lambda rng, n: _setup_lambda()),
}


def _cmd_verify(args):
    suite = SUITES[args.suite]
    trials = args.trials if args.trials is not None else suite.trials
    if not 1 <= trials <= MAX_TRIALS:
        raise SchemaError(f"need 1 <= trials <= {MAX_TRIALS}")
    if not 2 <= args.n <= MAX_RANK:
        raise SchemaError(f"need 2 <= n <= {MAX_RANK}")
    rng = random.Random(args.seed)
    shared, results = suite.setup(rng, args.n) if suite.setup else (None, ())
    text = suite.text.format(n=args.n)
    results = [*results] + [
        (f"{args.suite} trial {i + 1:02d}: {text}", suite.check(rng, args.n, shared))
        for i in range(trials)
    ]
    npass = sum(1 for _, ok in results if ok)
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"{args.suite}: {npass}/{len(results)} passed")
    return 0 if npass == len(results) else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="teichkit",
        description="exact-arithmetic toolkit for hyperbolic surfaces",
    )
    sub = p.add_subparsers(dest="command", required=True)
    p._commands = sub.choices  # each subcommand's parser, by name, for main

    h = sub.add_parser("holonomy", help="evaluate a path word on a fat graph")
    h.add_argument("graph", help="fat graph JSON file")
    h.add_argument("word", help="path word JSON file")
    h.add_argument("--scalar", choices=("rational", "float"), default=None)
    h.set_defaults(func=_cmd_holonomy)

    v = sub.add_parser("verify", help="run a seeded verification suite")
    v.add_argument("suite", choices=sorted(SUITES))
    v.add_argument("--seed", type=int, default=0)
    defaults = ", ".join(f"{name} {suite.trials}" for name, suite in SUITES.items())
    v.add_argument(
        "--trials",
        type=int,
        default=None,
        help=f"number of trials, at most {MAX_TRIALS}; default {defaults}",
    )
    v.add_argument(
        "--n",
        type=int,
        default=3,
        help=f"triangle rank 2 <= n <= {MAX_RANK} for transport/amalgamation; "
        "a rational transport or adjugate costs O(n^3) int products; the BENCH_*.json "
        "files at the repository root record its time per rank",
    )
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("render", help="render a scene JSON file to SVG")
    r.add_argument("scene", help="scene JSON file")
    r.add_argument("--out", required=True, help="output SVG path")
    r.set_defaults(func=_cmd_render)

    ps = sub.add_parser(
        "pants-scene",
        help="three-holed-sphere scene JSON from exponentiated shears",
    )
    ps.add_argument("e1", help="exp(s1), as a rational like 2 or 7/5")
    ps.add_argument("e2", help="exp(s2)")
    ps.add_argument("e3", help="exp(s3)")
    ps.add_argument("--out", default=None, help="write here instead of stdout")
    ps.set_defaults(func=_cmd_pants_scene)
    return p


@cache
def _parser():
    return build_parser()


def main(argv=None):
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser._commands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command else (None, None)
    if command is None or rest:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"SchemaError: bad JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except SchemaError as exc:
        print(f"SchemaError: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
