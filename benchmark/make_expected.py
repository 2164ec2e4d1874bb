"""Regenerate expected.json: every case's outcome at the default seed.

From the root of a starspan checkout:

    python3 benchmark/make_expected.py

Each outcome is certified from scratch before it is written (the same
check the benchmark applies at any other seed), so the committed values
never rest on the solver alone.  Rerun it only when a change is meant to
alter outputs or instances; the benchmark then compares every run at the
default seed against the new file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import DEFAULT_SEED, WORKLOADS, Checker  # noqa: E402


def main() -> int:
    doc = {}
    for name, build in WORKLOADS.items():
        workdir = os.path.join(ROOT, ".bench_work", f"expected-{name}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        checker = Checker(None)
        doc[name] = {}
        for case in build(DEFAULT_SEED, workdir):
            result = case.op()
            err = checker.check(case, result)
            if err is not None:
                print(f"{name}/{case.name}: {err}", file=sys.stderr)
                return 1
            doc[name][case.name] = case.outcome(result)[0]
        print(f"{name}: {len(doc[name])} cases certified", file=sys.stderr)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
