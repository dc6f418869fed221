"""Run the benchmark once per seed and report, for every end-to-end metric,
the median of the runs, the quartiles and the spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json, and the same for the raw
(unscaled) times that ``run.py`` prints.

    python3 perfbench/spread.py --workload deep --seeds 1-10 [--json out.json]

Each run is a separate ``run.py`` process, invoked as the benchmark
command is.  Exits 1 if a run fails or a spread exceeds a third of its
bound (``setup_s`` is exempt from the spread rule).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", type=Path, default=None, help="write the runs here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    runs: dict[str, list[dict]] = {}
    for workload in args.workload:
        runs[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            result["raw"] = {
                line.split()[1]: float(line.split()[2])
                for line in proc.stdout.splitlines()
                if line.startswith("  raw ")
            }
            runs[workload].append(result)
            ok = ok and proc.returncode == 0 and result["correct"]
            print(f"{workload} seed {seed}: exit {proc.returncode}, failed "
                  f"{result['failed']}/{result['attempted']}", flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = name == "setup_s" or spread < bound / 3
            ok = ok and steady
            print(f"  {workload:<6} {name:<13} median {med:10.6g}  quartiles "
                  f"{q1:.6g} .. {q3:.6g}  spread {spread:.4f}  bound {bound}"
                  f"{'' if steady else '  TOO WIDE'}")
        for name in runs[workload][0]["raw"]:
            values = [r["raw"][name] for r in runs[workload]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {workload:<6} raw {name:<9} median {med:10.6g}  quartiles "
                  f"{q1:.6g} .. {q3:.6g}  spread {(q3 - q1) / med:.4f}  (unscaled, no bound)")
    if args.json is not None:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
