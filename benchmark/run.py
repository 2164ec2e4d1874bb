"""starspan benchmark: run one workload at one seed and print its metrics.

From the root of a starspan checkout:

    python3 benchmark/run.py --workload mid_int --seed 1 --seconds 20 --trace 0

Workloads: mid_int, rational_obj, cli_small, verify_large (NOTES.md says
what each measures); --workload all runs each of them in turn, in a
process of its own, and ends with one JSON line whose metrics are named
<workload>/<metric>.  --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ones from a traced run.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full record, with machine context,
is also written to .bench_work/<workload>-seed<seed>/result-trace<t>.json,
next to the instance files and, for a traced run, spans.jsonl.

The program is imported from src/ of the checkout, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("mid_int", "rational_obj", "cli_small", "verify_large")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "starspan", "__init__.py")):
        print(f"error: no starspan sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import starspan

    if os.path.dirname(os.path.dirname(os.path.abspath(starspan.__file__))) != SRC:
        print(f"error: starspan was imported from {starspan.__file__}", file=sys.stderr)
        return 2
    from measure import measure

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}")
    doc = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        workdir,
        SRC,
        os.path.join(HERE, "expected.json"),
    )
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)

    res = doc["result"]
    print("context: " + json.dumps(doc["context"]))
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"op samples = {doc['detail']['op_samples']}")
    if "op_p95_s" in doc["detail"]:
        print(f"op_p95_s = {doc['detail']['op_p95_s']} s")
    for name, value in doc["detail"].get("wall", {}).items():
        print(f"wall {name} = {value}")
    print(f"error_frac = {doc['error_frac']} ({res['failed']}/{res['attempted']})")
    for err in doc["errors"]:
        print(f"error: {err}")
    print(json.dumps(res))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(out.stdout, end="", flush=True)
        if out.returncode != 0:
            return out.returncode
        res = json.loads(out.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
