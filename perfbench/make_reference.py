"""Write reference.json: the sha256 and length of every operation's output.

    python3 perfbench/make_reference.py

Each operation runs once, uninterrupted (resumed scans included), in a
fresh child.  The digests pin the outputs at the commit where this is run;
a faster path that changes any byte then counts as a failed operation.
Regenerate only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOADS, run_child


def main() -> int:
    reference = {}
    for name, ops in WORKLOADS.items():
        whole = [dict(op, cut=False) if op["kind"] == "scan" else op for op in ops]
        rep = run_child(whole)
        for op, rec in zip(whole, rep["ops"]):
            if "error" in rec:
                print(f"{op['id']}: {rec['error']}", file=sys.stderr)
                return 1
            reference[op["id"]] = {"workload": name, "sha256": rec["sha256"],
                                   "bytes": rec["bytes"]}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
