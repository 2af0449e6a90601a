"""Parent/change measurements of transport words, products and the flags
pipeline; writes BENCH_*.json.

    python3 bench_24.py --parent PARENT --change CHANGE --about TEXT --claim TEXT \
        --out BENCH_NN.json
    python3 bench_24.py --parent PARENT --change CHANGE --about TEXT --claim TEXT \
        --pairs 2 --seconds 2 --nmax 8 --out q.json
    PYTHONPATH=src python3 bench_24.py --sweep-side --nmax 6 --repeats 1
    PYTHONPATH=src python3 bench_24.py --breakdown-side --repeats 1

The last two forms run, in the current checkout alone, both sweeps below or
the breakdown, and print them as JSON; the sweeps fail when a check in them
fails, the operand probe included.

PARENT and CHANGE are two checkouts of the repository, each with its own
src/ and perfbench/.  Both are byte-compiled first.  Every measurement runs
in fresh processes, one at a time, and each side only ever imports teichkit
from its own checkout:

- pairs: perfbench/run.py --trace 0 for each workload, parent and change
  alternating (parent first in even pairs), with each side's quartiles, the
  change's wins and the gap between the medians;
- seed0: one short seed-0 run per workload and side, which checks every op
  against the digests in perfbench/reference.json, and one traced seed-0
  glued-transport run per side (per-layer self times);
- transport sweep: transport(n, 1, z) and transport_adjugate(n, 1, z) at
  n = 2..nmax on one seeded rational assignment per n (values p/q with
  1 <= p, q <= 9): the best of --repeats calls in seconds, the largest
  reduced entry bit length, and, from one more call under sys.settrace, the
  largest bit length of a running column entry (an int, or a Fraction's
  larger part), of the running denominator `den` and of the lazy column
  scales `e`, read from _evaluate's locals each time its factor changes:
  the loop locals (code, k, v); an equal adjacent factor, as in S S, is
  read once.  Every sweep word is exact, so a probe that reads no column
  bits or no scale bits fails the sweep: the evaluator's loop has changed
  under it.  Then linalg.mat_prod
  of the four boundary loop matrices of surface.four_holed_sphere_fg on four
  such assignments: the best of --repeats products in seconds and the
  largest entry bit length;
- flags sweep: at n = 3..min(nmax, 16), TestFlagOracle's triple (the
  standard flag, the reversed flag and the flag of transport(n, 1, z) for
  one seeded z per n, values as above), through each stage of the flags
  pipeline: the three Flag constructions, general_position, line_config,
  triple_ratio at every interior vertex, and snake_basis of the three
  boundary snakes; the best of --repeats in seconds and the largest bit
  length of the stage's output (None for general_position's bool).  Every
  triple ratio must equal z's value at its vertex, or the sweep fails;
- breakdown: timeit minima, in seconds, of one in-process
  `teichkit verify transport --n 3 --trials 1 --seed 5` op (stdout to a
  buffer), of its parse (parse_known_args of the verify subparser of a
  parser from cli.build_parser), of cli._rand_assignment at n = 3, of the
  three-transport snakes._evaluate at n = 3, and of one FGAssignment
  construction from a ready dict of Fractions at n = 3, 7 and 32; on the
  rank-2 side, of one in-process `teichkit verify fricke --trials 1 --seed 5`
  op, of fatgraph.trace_coordinates on one seeded four_holed_sphere (weights
  p/q with 1 <= p, q <= 9), and of one product of two of its boundary loop
  matrices, whose entries are all Fractions;
  --breakdown-runs side processes per side, parent and change alternating.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("glued-transport", "flag-config", "rank2-cli")
METRICS = {
    "ops_per_s": "higher",
    "op_p50_ms": "lower",
    "op_p90_ms": "lower",
    "setup_s": "lower",
    "peak_rss_mb": "lower",
}


def perfbench(checkout, workload, seed, seconds, trace=0):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    row = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"]}
    row.update({k: m["value"] for k, m in res["metrics"].items()})
    return row


def quartiles(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs):
    out = {}
    for name, better in METRICS.items():
        par = [r["parent"][name] for r in runs]
        chg = [r["change"][name] for r in runs]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        qp, qc = quartiles(par), quartiles(chg)
        out[name] = {
            "better": better,
            "parent": qp,
            "change": qc,
            "change_wins": f"{wins}/{len(runs)}",
            "median_gap": qc["median"] - qp["median"],
            "parent_iqr": qp["q3"] - qp["q1"],
        }
    return out


def compile_sides(args):
    # a timed run must not pay for compiling its side's sources: the
    # environment may forbid writing bytecode, so one side could otherwise
    # run from bytecode and the other from source (a higher peak RSS and a
    # slower setup for the second)
    for side in ("parent", "change"):
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=getattr(args, side), stdout=subprocess.DEVNULL, check=True)


def pairs(args, workload):
    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        row = {"pair": i}
        for side in order:
            row[side] = perfbench(getattr(args, side), workload, args.seed, args.seconds)
        runs.append(row)
        print(f"{workload} pair {i}: parent {row['parent']['ops_per_s']:.1f} "
              f"change {row['change']['ops_per_s']:.1f} ops/s", file=sys.stderr, flush=True)
    return {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs, "summary": summarize(runs), "runs": runs}


def seed0(args):
    out = {}
    for wl in WORKLOADS:
        out[wl] = {side: perfbench(getattr(args, side), wl, 0, 2)["correct"]
                   for side in ("parent", "change")}
    out["traced_glued_transport"] = {
        side: perfbench(getattr(args, side), "glued-transport", 0, 0, trace=1)
        for side in ("parent", "change")
    }
    return out


# -- the sweep, run inside one checkout --------------------------------------


def sweep_side(nmax, repeats):
    from fractions import Fraction

    from teichkit import flags, linalg, snakes, surface
    from teichkit.flags import interior_vertices

    def bits(x):
        return max(x.numerator.bit_length(), x.denominator.bit_length())

    def operand_bits(fn, n, z):
        seen = {"column_bits": 0, "den_bits": None, "scale_bits": None, "factor": None}

        def most(old, new):
            return new if old is None else max(old, new)

        def local(frame, event, arg):
            # the locals before the line runs: once per factor, they hold the
            # columns as the previous factor left them
            if event != "line":
                return local
            loc = frame.f_locals
            factor = tuple(map(loc.get, ("code", "k", "v")))
            if "cols" not in loc or not any(factor) or factor == seen["factor"]:
                return local
            seen["factor"] = factor
            seen["column_bits"] = max(seen["column_bits"], *(bits(x) for c in loc["cols"] for x in c))
            if "den" in loc:
                seen["den_bits"] = most(seen["den_bits"], loc["den"].bit_length())
            if "e" in loc:
                seen["scale_bits"] = most(seen["scale_bits"], max(s.bit_length() for s in loc["e"]))
            return local

        code = snakes._evaluate.__code__
        sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
        try:
            fn(n, 1, z)
        finally:
            sys.settrace(None)
        del seen["factor"]
        if not seen["column_bits"] or seen["scale_bits"] is None:
            raise AssertionError(
                f"the operand probe read no column or scale bits of {fn.__name__} at n = {n}")
        return seen

    def best_of(call):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = call()
            best = min(best, time.perf_counter() - t0)
        return best, out

    def most_bits(rows):
        return max(bits(x) for row in rows for x in row)

    def assignment(rng, n):
        keys = snakes.side_vertices(n) + interior_vertices(n)
        return snakes.FGAssignment(
            n, {k: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for k in keys})

    points = []
    for n in range(2, nmax + 1):
        rng = random.Random(n)
        z = assignment(rng, n)
        for fn in (snakes.transport, snakes.transport_adjugate):
            seconds, out = best_of(lambda: fn(n, 1, z))
            point = {"n": n, "fn": fn.__name__, "seconds": seconds, "entry_bits": most_bits(out)}
            point.update(operand_bits(fn, n, z))
            points.append(point)
        surf, words = surface.four_holed_sphere_fg(n, {t: assignment(rng, n) for t in "lrdc"})
        loops = [surface.path_matrix(surf, words[f"loop{i}"]) for i in range(1, 5)]
        seconds, out = best_of(lambda: linalg.mat_prod(loops, n))
        points.append({"n": n, "fn": "mat_prod", "seconds": seconds, "entry_bits": most_bits(out),
                       "loop_bits": max(bits(x) for m in loops for row in m for x in row)})

    stages = []

    def stage(n, name, call, rows_of=None):
        seconds, out = best_of(call)
        stages.append({"n": n, "stage": name, "seconds": seconds,
                       "out_bits": most_bits(rows_of(out)) if rows_of else None})
        return out

    for n in range(3, min(nmax, 16) + 1):
        # TestFlagOracle's triple: the standard and reversed flags and the
        # flag of T_1(z), whose triple ratios are z's interior values
        z = assignment(random.Random(100 + n), n)
        rows = [flags.standard_flag(n).rows, flags.reversed_flag(n).rows,
                snakes.transport(n, 1, z)]
        vertices = interior_vertices(n)
        sides = [snakes.boundary_snake_12(n), snakes.boundary_snake_23(n),
                 snakes.boundary_snake_31(n)]
        triple = stage(n, "flags", lambda: [flags.Flag(r) for r in rows],
                       lambda fs: [r for f in fs for r in f.rows])
        stage(n, "general_position", lambda: flags.general_position(*triple))
        cfg = stage(n, "line_config", lambda: flags.line_config(*triple),
                    lambda c: [*c.lines.values(), *(r for p in c.planes.values() for r in p)])
        ratios = stage(n, "triple_ratio", lambda: [flags.triple_ratio(cfg, v) for v in vertices],
                       lambda rs: [rs])
        if ratios != [z[v] for v in vertices]:
            raise AssertionError(f"triple ratios at n = {n} are not the assignment's values")
        stage(n, "snake_basis", lambda: [snakes.snake_basis(cfg, s) for s in sides],
              lambda bases: [r for basis in bases for r in basis])
    return {"transport": points, "flags": stages}


def breakdown_side(repeats):
    import contextlib
    import io
    import timeit
    from fractions import Fraction

    from teichkit import cli, fatgraph, snakes
    from teichkit.flags import interior_vertices

    def best(call, number):
        return min(timeit.repeat(call, number=number, repeat=repeats)) / number

    sink = io.StringIO()

    def op(argv):
        def call():
            with contextlib.redirect_stdout(sink):
                cli.main(argv)
            sink.seek(0)
            sink.truncate()
        return call

    argv = ["verify", "transport", "--n", "3", "--trials", "1", "--seed", "5"]
    out = {"op": best(op(argv), 2000)}
    verify = cli.build_parser()._commands["verify"]
    out["parse"] = best(lambda: verify.parse_known_args(argv[1:]), 2000)
    rng = random.Random(5)
    out["rand_assignment"] = best(lambda: cli._rand_assignment(rng, 3), 2000)
    z = cli._rand_assignment(rng, 3)
    out["evaluate"] = best(lambda: snakes._evaluate(3, [(1, z, False), (2, z, False),
                                                          (3, z, False)]), 2000)
    for n in (3, 7, 32):
        rng = random.Random(n)
        keys = snakes.side_vertices(n) + interior_vertices(n)
        values = {k: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for k in keys}
        out[f"fg_assignment_n{n}"] = best(lambda: snakes.FGAssignment(n, values), 6000 // n)
    out["fricke_op"] = best(op(["verify", "fricke", "--trials", "1", "--seed", "5"]), 2000)
    rng = random.Random(5)
    ws = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(6)]
    graph, loops = fatgraph.four_holed_sphere(ws[:3], ws[3:])
    out["trace_coordinates"] = best(lambda: fatgraph.trace_coordinates(graph, loops), 2000)
    m1, m2 = graph.holonomy(loops["loop1"]), graph.holonomy(loops["loop2"])
    if not all(type(x) is Fraction for x in (*m1.entries(), *m2.entries())):
        raise AssertionError("the Mat2 product row needs two all-Fraction loop matrices")
    out["mat2_product"] = best(lambda: m1 * m2, 20000)
    return out


def side_run(args, side, flag):
    argv = [sys.executable, str(Path(__file__).resolve()), flag,
            "--nmax", str(args.nmax), "--repeats", str(args.repeats)]
    env = dict(os.environ, PYTHONPATH=str(Path(getattr(args, side), "src").resolve()))
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, env=env)
    return json.loads(proc.stdout)


def sweep(args):
    return {side: side_run(args, side, "--sweep-side") for side in ("parent", "change")}


def breakdown(args):
    runs = []
    for i in range(args.breakdown_runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs.append({side: side_run(args, side, "--breakdown-side") for side in order})
    best = {side: {k: min(r[side][k] for r in runs) for k in runs[0][side]}
            for side in ("parent", "change")}
    return {"unit": "s", "best": best, "runs": runs}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--out", help="the record's file, such as BENCH_NN.json")
    p.add_argument("--about", help="what the change does, for the record")
    p.add_argument("--claim", help="the metric the change claims to improve, or that none is")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--nmax", type=int, default=32)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--breakdown-runs", type=int, default=3)
    p.add_argument("--sweep-side", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--breakdown-side", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.sweep_side:
        print(json.dumps(sweep_side(args.nmax, args.repeats)))
        return 0
    if args.breakdown_side:
        print(json.dumps(breakdown_side(max(args.repeats, 5))))
        return 0
    if not (args.parent and args.change and args.about and args.claim and args.out):
        p.error("a record needs --parent, --change, --about, --claim and --out")
    compile_sides(args)
    doc = {
        "about": args.about + " Parent and change each run from their own checkout; "
                 "written by bench_24.py.",
        "claim": args.claim,
        "env": {"python": platform.python_version(), "machine": platform.machine(),
                "nproc": os.cpu_count()},
        "pairs": [pairs(args, wl) for wl in args.workloads.split(",") if wl],
        "seed0": seed0(args),
        "sweep": sweep(args),
        "breakdown": breakdown(args),
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
