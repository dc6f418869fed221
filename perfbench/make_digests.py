"""Write digests.json: the sha256 of every benchmarked ``solve --format json``
output.  Run once from the repository root when outputs are meant to change:

    PYTHONPATH=src python3 perfbench/make_digests.py
"""

from __future__ import annotations

import hashlib
import json

from modschwarz import cli

import workloads


def main() -> None:
    digests = {}
    for workload in workloads.WORKLOADS:
        for r, N in workloads.solve_cases(workload):
            rc, text = workloads.solve_json(cli, r, N)
            if rc != 0:
                raise SystemExit(f"solve r={r} N={N} exited {rc}")
            digests[workloads.digest_key(r, N)] = hashlib.sha256(text.encode()).hexdigest()
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
