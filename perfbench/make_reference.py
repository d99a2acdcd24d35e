#!/usr/bin/env python3
"""Record ``reference.json``: the outputs of every workload's fixed-seed check
inputs, from the program in this checkout.

    python3 perfbench/make_reference.py

Run it only when the benchmark is defined or its check inputs change; a
change to the program is checked against the recorded outputs, not re-recorded.
"""

import json
import sys

import run
import workloads


def main() -> int:
    run.load_program()
    reference = {}
    for name in workloads.WORKLOADS:
        outcome = run.run_workload(name, seed=0, seconds=0, trace=False, tiny=True)
        if outcome.problems:
            print(f"{name}: {outcome.problems}", file=sys.stderr)
            return 1
        reference[name] = outcome.check_outputs
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
