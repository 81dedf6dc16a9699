"""Record the reference outputs that the horo and criteria checks compare with.

    python3 perfbench/record_references.py

Runs every command of ``workloads.reference_argvs()`` once and writes the
SHA-256 of each output to references.json.  The committed file was recorded
from the unmodified library; re-recording it is only right when a change
deliberately alters an output document.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import PassError, run_pass


def main() -> int:
    argvs = workloads.reference_argvs()
    wl = workloads.Workload("record", None, None, ())
    try:
        _, res = run_pass(wl, argvs, timeout=3600)  # one pass over every reference command
    except PassError as exc:
        print(exc, file=sys.stderr)
        return 1
    refs = {}
    for argv, r in zip(argvs, res["commands"]):
        if r["rc"] != 0:
            print(f"{' '.join(argv)} exited {r['rc']}: {r['err']}", file=sys.stderr)
            return 1
        refs[" ".join(argv)] = workloads.digest(r["out"])
    workloads.REFERENCES.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"{len(refs)} references written to {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
