"""Parent/change measurements of integer-column transport words; writes BENCH_24.json.

    python3 bench_24.py --parent PARENT --change CHANGE --out BENCH_24.json
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
  of a running column entry (an int, or a Fraction's larger part) and of the
  running denominator `den` (absent where the evaluator keeps none), read at
  each turn of _evaluate's factor loop.
"""

import argparse
import inspect
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

    from teichkit import snakes
    from teichkit.flags import interior_vertices

    lines, first = inspect.getsourcelines(snakes._evaluate)
    header = first + next(i for i, s in enumerate(lines) if s.strip() == "for f in word:")

    def bits(x):
        return max(x.numerator.bit_length(), x.denominator.bit_length())

    def operand_bits(fn, n, z):
        seen = {"column_bits": 0, "den_bits": None}

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == header:
                cols = frame.f_locals["cols"]
                seen["column_bits"] = max(seen["column_bits"], *(bits(x) for c in cols for x in c))
                if "den" in frame.f_locals:
                    seen["den_bits"] = frame.f_locals["den"].bit_length()
            return local

        code = snakes._evaluate.__code__
        sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
        try:
            fn(n, 1, z)
        finally:
            sys.settrace(None)
        return seen

    points = []
    for n in range(2, nmax + 1):
        rng = random.Random(n)
        keys = snakes.side_vertices(n) + interior_vertices(n)
        values = {k: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for k in keys}
        z = snakes.FGAssignment(n, values)
        for fn in (snakes.transport, snakes.transport_adjugate):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                m = fn(n, 1, z)
                best = min(best, time.perf_counter() - t0)
            point = {"n": n, "fn": fn.__name__, "seconds": best,
                     "entry_bits": max(bits(x) for row in m for x in row)}
            point.update(operand_bits(fn, n, z))
            points.append(point)
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
    p.add_argument("--out", default="BENCH_24.json")
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
        "about": "Exact transport words run over int columns with one division per entry "
                 "(snakes._evaluate). Parent and change each run from their own checkout; "
                 "written by bench_24.py.",
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
