"""Write perfbench/reference.json: every workload's outputs at the
reference seed, which run.py compares each reference-seed run against.

Run from the root of a checkout, and only in a change that redefines the
benchmark's workloads. A change to the program must match the stored
reference within the tolerances in workloads.py, not rewrite it.

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

import run
import workloads as W


def main() -> int:
    doc = {"seed": W.REFERENCE_SEED, "workloads": {}}
    for name in W.WORKLOADS:
        result = run.run_iteration(
            name, W.REFERENCE_SEED, run.WORK_ROOT / f"reference-{os.getpid()}")
        if result["failures"]:
            print(f"{name}: {result['failures']}", file=sys.stderr)
            return 1
        doc["workloads"][name] = result["outputs"]
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
