"""The all-r manifest: every accepted r solved, hashed and timed.

For each r = 1..MAX_R the script runs ``solve --r r --order N --format
json`` through ``cli.run`` at N = minimum_order(r) and then at
minimum_order(r) + WARM_STEP, in one process, so the first solve of each
r is cold and the second extends it from ``solve_ode``'s store.  It records
the sha256 of each output and the CPU seconds of each solve
(``time.process_time``), with the r spread over at most ``os.cpu_count()``
worker processes.

    PYTHONPATH=src python3 qa/manifest.py write qa/manifest.json
    PYTHONPATH=src python3 qa/manifest.py compare qa/manifest.json
    PYTHONPATH=src python3 qa/manifest.py compare qa/manifest.json --r 1-12

``write`` writes ``{"sha256": {"r,order": hex}, "cpu_s": {"r,order": s},
...}``.  ``compare`` solves again and exits 0 if every digest is the same,
and 1 naming the first (r, order), in order of r and then order, whose
bytes moved or that the manifest lacks; the CPU seconds are not compared.
A usage error exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

from modschwarz import cli
from modschwarz.solver import MAX_R, minimum_order

WARM_STEP = 10  # the second order of each r, past its minimum


def key(r: int, order: int) -> str:
    return f"{r},{order}"


def solve_r(r: int) -> list[tuple[int, int, str, float]]:
    """(r, order, sha256, CPU seconds) of the cold and the extended solve of r."""
    rows = []
    for order in (minimum_order(r), minimum_order(r) + WARM_STEP):
        out = io.StringIO()
        start = time.process_time()
        code = cli.run(
            ["solve", "--r", str(r), "--order", str(order), "--format", "json"], out=out
        )
        cpu = time.process_time() - start
        if code != 0:
            raise RuntimeError(f"solve --r {r} --order {order} exited {code}")
        rows.append((r, order, hashlib.sha256(out.getvalue().encode()).hexdigest(), cpu))
    return rows


def solve_all(rs: list[int], jobs: int) -> list[tuple[int, int, str, float]]:
    """``solve_r`` for every r, sorted by r and order; the largest r go
    first, so that the workers finish together."""
    order = sorted(rs, reverse=True)
    if jobs == 1:
        rows = [row for r in order for row in solve_r(r)]
    else:
        with multiprocessing.get_context("spawn").Pool(jobs) as pool:
            rows = [row for part in pool.imap_unordered(solve_r, order) for row in part]
    return sorted(rows)


def first_moved(manifest: dict, rows) -> str | None:
    """The first (r, order) of ``rows`` whose digest differs from the
    manifest's, named with both digests; None if none moved."""
    for r, order, digest, _ in rows:
        want = manifest["sha256"].get(key(r, order))
        if want is None:
            return f"(r, order) = ({r}, {order}) is not in the manifest"
        if digest != want:
            return f"(r, order) = ({r}, {order}) moved: {digest[:12]} against {want[:12]}"
    return None


def r_range(text: str) -> list[int]:
    """``"5"``, ``"1-12"`` or ``"1,2,47"`` as a list of r in 1..MAX_R."""
    rs = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        rs += range(int(low), int(high or low) + 1)
    if not rs or min(rs) < 1 or max(rs) > MAX_R:
        raise argparse.ArgumentTypeError(f"r must lie in 1..{MAX_R}, got {text!r}")
    return sorted(set(rs))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("write", "compare"))
    parser.add_argument("path", type=Path)
    parser.add_argument("--r", type=r_range, default=list(range(1, MAX_R + 1)),
                        help=f"the r to solve, as 5, 1-12 or 1,2,47 (default 1-{MAX_R})")
    args = parser.parse_args(argv)
    if args.mode == "compare":
        try:
            manifest = json.loads(args.path.read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read the manifest {args.path}: {exc}")
    jobs = min(os.cpu_count() or 1, len(args.r))
    start = time.perf_counter()
    rows = solve_all(args.r, jobs)
    wall = time.perf_counter() - start
    cpu = sum(row[3] for row in rows)
    if args.mode == "write":
        doc = {
            "sha256": {key(r, order): digest for r, order, digest, _ in rows},
            "cpu_s": {key(r, order): round(s, 4) for r, order, _, s in rows},
            "total_cpu_s": round(cpu, 2),
            "wall_s": round(wall, 2),
            "jobs": jobs,
        }
        args.path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"manifest: wrote {len(rows)} solves to {args.path}: "
              f"{cpu:.1f} s CPU, {wall:.1f} s wall in {jobs} processes")
        return 0
    moved = first_moved(manifest, rows)
    if moved is not None:
        print(f"manifest: {moved}", file=sys.stderr)
        return 1
    print(f"manifest: {len(rows)} solves unchanged: "
          f"{cpu:.1f} s CPU, {wall:.1f} s wall in {jobs} processes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
