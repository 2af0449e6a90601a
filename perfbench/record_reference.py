"""Record reference.json: per-op output digests of the default seed.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right; every later
run with the default seed fails any op whose digest differs.  Ops whose
cheap identity check fails are refused, so a wrong output is never stored.
"""

import json
import sys

from run import OUT, ROOT


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    doc = {}
    for workload, rounds in wl.REFERENCE_ROUNDS.items():
        doc[workload] = []
        for r in range(rounds):
            text = ""
            for op in wl.make_round(workload, wl.DEFAULT_SEED, r, OUT / "inputs" / workload):
                out = wl.execute(op)
                if not wl.check(op, out):
                    raise SystemExit(f"{workload} op {op.key} ({op.cls}) fails its check")
                text += wl.digest(op, out)
            doc[workload].append(text)
        print(f"{workload}: {rounds} rounds", flush=True)
    wl.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
