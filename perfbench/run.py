"""teichkit benchmark: closed-loop workloads over the public API and CLI.

    python3 perfbench/run.py --workload glued-transport --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 -m pytest perfbench -q                     # the benchmark's own tests

Run from the repository root; teichkit is imported from ./src. One caller,
no threads: each op starts when the previous one has been checked. With
--trace 0 the run repeats whole rounds (workloads.py) until --seconds have
passed, and at least RSS_ROUNDS, and reports the end-to-end metrics; setup_s
is the median of SETUP_PROBES fresh processes, each timed from spawn to the
moment it would start its first op. With --trace 1 it runs TRACE_ROUNDS
rounds untraced, then the same rounds with every layer wrapped (tracing.py),
and reports the per-layer metrics; the rounds are fixed so that call counts
repeat exactly for a seed. Every op output is checked; with the default seed
its digest must also match reference.json. The last stdout line is the JSON
result; results and spans also go to .perfbench/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
# peak_rss_mb is read after this many rounds, so that every run reports it
# for the same work: the allocator's high-water mark keeps creeping up with
# the number of ops, and a faster commit completes more of them.
RSS_ROUNDS = 3
TRACE_ROUNDS = {"glued-transport": 2, "flag-config": 2, "rank2-cli": 5}
SUM_TOLERANCE = 1e-6


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "affinity": sorted(os.sched_getaffinity(0)),
    }


def contract():
    """End-to-end and per-layer metric names and units from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


class Runner:
    """Runs ops of one workload, timing each and checking it afterwards."""

    def __init__(self, workload, seed):
        import workloads

        self.wl = workloads
        self.workload, self.seed = workload, seed
        self.input_dir = OUT / "inputs" / workload
        self.reference = workloads.load_reference(workload, seed)
        self.latencies = {}  # class -> (rank, array of op seconds)
        self.attempted = 0
        self.failures = []
        self.tracer = None

    def setup(self):
        """Round 0's inputs and one warm-up op per kind (results discarded)."""
        self.pending = {0: self.wl.make_round(self.workload, self.seed, 0, self.input_dir)}
        for op in self.wl.make_warmup(self.workload, self.seed, self.input_dir):
            self.wl.execute(op)

    def round(self, index):
        ops = self.pending.pop(index, None)
        if ops is None:
            ops = self.wl.make_round(self.workload, self.seed, index, self.input_dir)
        for op in ops:
            self.run_op(op)

    def run_op(self, op):
        t0 = time.perf_counter()
        if self.tracer:
            self.tracer.begin_op(op.key)
        try:
            out, err = self.wl.execute(op), None
        except Exception as exc:  # any exception is a failed op
            out, err = None, exc
        finally:
            if self.tracer:
                self.tracer.end_op()
        dt = time.perf_counter() - t0
        self.latencies.setdefault(op.cls, (op.n, array("d")))[1].append(dt)
        self.attempted += 1
        if err is None:
            err = self.verify(op, out)
        if err is not None:
            self.failures.append(f"{op.key} {op.cls}: {err!r}")

    def verify(self, op, out):
        """None if the output passes its check and matches its reference digest."""
        try:
            if not self.wl.check(op, out):
                return "check failed"
            want = self.reference.get(op.key)
            if want is not None and self.wl.digest(op, out) != want:
                return "digest differs from reference.json"
        except Exception as exc:  # a check that cannot even run fails the op
            return exc
        return None


def latency_metrics(latencies):
    """Throughput and latency quantiles over every op of the run.

    Runs hold whole rounds, so every run weighs the op classes alike.
    """
    lat = [x for _, a in latencies.values() for x in a]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
    }


def class_p50_ms(latencies):
    return {c: round(statistics.median(a) * 1e3, 3) for c, (_, a) in latencies.items()}


def probe_setup(workload, seed):
    """Seconds from spawning a fresh process to it being ready for op one."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return dt


def measure(workload, seed, seconds):
    setups = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    runner = Runner(workload, seed)
    runner.setup()
    start, rounds = time.perf_counter(), 0
    while rounds < RSS_ROUNDS or time.perf_counter() - start < seconds:
        runner.round(rounds)
        rounds += 1
        if rounds == RSS_ROUNDS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = latency_metrics(runner.latencies)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb
    attempted = runner.attempted
    metrics["ops_failed_ratio"] = len(runner.failures) / attempted
    info = {
        "class_p50_ms": class_p50_ms(runner.latencies),
        "rounds": rounds,
        "samples": attempted,
        "ops_per_round": attempted // rounds,
        "setup_probes_s": setups,
    }
    return runner, metrics, info, True


def measure_traced(workload, seed):
    from tracing import Tracer, per_layer

    runner = Runner(workload, seed)
    runner.setup()
    rounds = TRACE_ROUNDS[workload]
    for r in range(rounds):
        runner.round(r)
    untraced = runner.latencies
    runner.latencies = {}
    runner.tracer = Tracer()
    runner.tracer.install()
    for r in range(rounds):
        runner.round(r)
    metrics, op_s, accounted = per_layer(runner.tracer)
    for n in range(3, 8):
        lat = [x for m, a in untraced.values() if m == n for x in a]
        metrics[f"op.n{n}.p50_ms"] = statistics.median(lat) * 1e3 if lat else 0.0
    metrics["trace.overhead_ratio"] = (
        latency_metrics(untraced)["ops_per_s"] / latency_metrics(runner.latencies)["ops_per_s"]
    )
    runner.tracer.write(OUT / f"spans-{workload}.jsonl")
    sums_agree = abs(op_s - accounted) <= SUM_TOLERANCE * op_s
    info = {"rounds": rounds, "traced_op_s": op_s, "accounted_s": accounted,
            "spans": len(runner.tracer.spans)}
    return runner, metrics, info, sums_agree


def run_one(args):
    e2e, layers = contract()
    if args.trace:
        runner, metrics, info, sums_agree = measure_traced(args.workload, args.seed)
        wanted = layers
    else:
        runner, metrics, info, sums_agree = measure(args.workload, args.seed, args.seconds)
        wanted = e2e
    env = environment()
    attempted, failed = runner.attempted, len(runner.failures)
    result = {
        "correct": failed == 0 and sums_agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0), "unit": u} for k, u in wanted.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  env=env, info=info, all_metrics=metrics, failures=runner.failures[:50])
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {json.dumps(info)}")
    for f in runner.failures[:10]:
        print(f"FAILED {f}")
    if not sums_agree:
        print(f"TRACE SUM MISMATCH: op {info['traced_op_s']} s, layers+bench {info['accounted_s']} s")
    units = dict(wanted, ops_failed_ratio="share")
    shown = list(wanted) + ([] if args.trace else ["ops_failed_ratio"])
    for k in shown:
        print(f"  {k:<40} {metrics.get(k, 0):>14.6g} {units[k]}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after another, then one table."""
    results = {}
    for wl in TRACE_ROUNDS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        sys.stdout.write(proc.stdout)
        results[wl] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':<16} {'metric':<40} {'value':>14}")
    for wl, res in results.items():
        for k, m in res["metrics"].items():
            print(f"{wl:<16} {k:<40} {m['value']:>14.6g} {m['unit']}")
        ratio = res["failed"] / res["attempted"]
        print(f"{wl:<16} {'ops_failed_ratio':<40} {ratio:>14.6g} share")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}.{k}": m for wl, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *TRACE_ROUNDS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "teichkit" / "__init__.py").is_file():
        print(f"teichkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        Runner(args.workload, args.seed).setup()
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
