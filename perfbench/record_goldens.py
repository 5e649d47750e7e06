"""Write goldens.json: the exit code and stdout sha256 of every op.

    python3 perfbench/record_goldens.py

Run it from the root of a source tree whose outputs are trusted; every
benchmark run is checked against the file it writes.  It refuses to
record when an op breaks one of the golden-free invariants.
"""

import json
import os
import sys

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    goldens = {}
    for workload in workloads.WORKLOADS:
        result = run.spawn("plain", workloads.op_list(workload, 0))
        bad = [f"{r['id']}: {r['errors']}" for r in result["ops"] if r["errors"]]
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        goldens[workload] = {r["id"]: [r["rc"], r["sha256"]] for r in result["ops"]}
        print(f"{workload}: {len(result['ops'])} ops recorded")
    blocks = []
    for workload, ops in sorted(goldens.items()):
        rows = ",\n".join(f"  {json.dumps(i)}: {json.dumps(g)}" for i, g in sorted(ops.items()))
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    with open(os.path.join(run.HERE, "goldens.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
