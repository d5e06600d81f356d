#!/usr/bin/env python3
"""Record the reference outputs the benchmark's output gate compares against.

    python3 perfbench/record.py

Runs every distinct command of every workload once, for each workload
seed in the pool (once for commands that take no seed), and writes exit
status and output rows to perfbench/reference.json.  Re-record only at a
commit whose outputs have been checked; the gate then compares each later
estimate against these values within 3 combined standard errors.
"""

from __future__ import annotations

import json
import sys

from run import POOL, REFERENCE, WORKLOADS, invoke, parse_table


def main() -> int:
    outputs = {}
    for w in WORKLOADS.values():
        for seed in range(POOL if w.seeded else 1):
            for cmd in w.full + w.minimal:
                key = cmd.key(seed)
                if key in outputs:
                    continue
                res = invoke(cmd.argv(seed))
                columns, rows = parse_table(res.stdout)
                outputs[key] = {"exit": res.exit, "columns": columns, "rows": rows}
                print(f"{res.wall_s:7.2f}s exit={res.exit} {key}", file=sys.stderr)
    REFERENCE.write_text(json.dumps({"pool": POOL, "outputs": outputs}, indent=1,
                                    sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
