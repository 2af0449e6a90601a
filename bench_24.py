"""Parent/change measurements of transport words and products; writes BENCH_*.json.

    python3 bench_24.py --parent PARENT --change CHANGE --out BENCH_25.json
    python3 bench_24.py --parent PARENT --change CHANGE --pairs 2 --seconds 2 --nmax 8 --out q.json

PARENT and CHANGE are two checkouts of the repository, each with its own
src/ and perfbench/.  Every measurement runs in fresh processes, one at a
time, and each side only ever imports teichkit from its own checkout:

- pairs: perfbench/run.py --trace 0 for each workload, parent and change
  alternating (parent first in even pairs), with each side's quartiles, the
  change's wins and the gap between the medians;
- seed0: one short seed-0 run per workload and side, which checks every op
  against the digests in perfbench/reference.json, and one traced seed-0
  glued-transport run per side (per-layer self times);
- sweep: transport(n, 1, z) and transport_adjugate(n, 1, z) at n = 2..nmax
  on one seeded rational assignment per n (values p/q with 1 <= p, q <= 9):
  the best of --repeats calls in seconds, the largest reduced entry bit
  length, and, from one more call under sys.settrace, the largest bit length
  of a running column entry (an int, or a Fraction's larger part), of the
  running denominator `den` and of the lazy column scales `e` (None where
  the evaluator keeps no such local), read from _evaluate's locals each time
  its factor `f` changes; and linalg.mat_prod of the four boundary loop
  matrices of surface.four_holed_sphere_fg on four such assignments: the
  best of --repeats products in seconds and the largest entry bit length.
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

    from teichkit import linalg, snakes, surface
    from teichkit.flags import interior_vertices

    def bits(x):
        return max(x.numerator.bit_length(), x.denominator.bit_length())

    def operand_bits(fn, n, z):
        seen = {"column_bits": 0, "den_bits": None, "scale_bits": None, "f": None}

        def most(old, new):
            return new if old is None else max(old, new)

        def local(frame, event, arg):
            # the locals before the line runs: once per factor, they hold the
            # columns as the previous factor left them
            if event != "line":
                return local
            loc = frame.f_locals
            if "cols" not in loc or loc.get("f") is None or loc["f"] is seen["f"]:
                return local
            seen["f"] = loc["f"]
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
        del seen["f"]
        return seen

    def best_of(call):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = call()
            best = min(best, time.perf_counter() - t0)
        return best, max(bits(x) for row in out for x in row)

    def assignment(rng, n):
        keys = snakes.side_vertices(n) + interior_vertices(n)
        return snakes.FGAssignment(
            n, {k: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for k in keys})

    points = []
    for n in range(2, nmax + 1):
        rng = random.Random(n)
        z = assignment(rng, n)
        for fn in (snakes.transport, snakes.transport_adjugate):
            seconds, entry_bits = best_of(lambda: fn(n, 1, z))
            point = {"n": n, "fn": fn.__name__, "seconds": seconds, "entry_bits": entry_bits}
            point.update(operand_bits(fn, n, z))
            points.append(point)
        surf, words = surface.four_holed_sphere_fg(n, {t: assignment(rng, n) for t in "lrdc"})
        loops = [surface.path_matrix(surf, words[f"loop{i}"]) for i in range(1, 5)]
        seconds, entry_bits = best_of(lambda: linalg.mat_prod(loops, n))
        points.append({"n": n, "fn": "mat_prod", "seconds": seconds, "entry_bits": entry_bits,
                       "loop_bits": max(bits(x) for m in loops for row in m for x in row)})
    return points


def sweep(args):
    out = {}
    for side in ("parent", "change"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--sweep-side",
                "--nmax", str(args.nmax), "--repeats", str(args.repeats)]
        env = {"PYTHONPATH": str(Path(getattr(args, side), "src").resolve())}
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, env=env)
        out[side] = json.loads(proc.stdout)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--out", default="BENCH_25.json")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--nmax", type=int, default=32)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--sweep-side", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.sweep_side:
        print(json.dumps(sweep_side(args.nmax, args.repeats)))
        return 0
    doc = {
        "about": "Lazy column scales over a per-rank action table in snakes._evaluate, and "
                 "integer-numerator linalg.mat_mul. Parent and change each run from their "
                 "own checkout; written by bench_24.py.",
        "claim": "glued-transport ops_per_s rises",
        "env": {"python": platform.python_version(), "machine": platform.machine(),
                "nproc": os.cpu_count()},
        "pairs": [pairs(args, wl) for wl in args.workloads.split(",") if wl],
        "seed0": seed0(args),
        "sweep": sweep(args),
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
