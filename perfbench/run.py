"""The repository benchmark: time verified solutions of the modschwarz
construction, end to end, and (with ``--trace 1``) layer by layer.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload

Run from any directory; the package is imported from ``src`` beside this
directory.  Closed loop, one client: each pass over the workload runs in a
fresh single-threaded worker process (``worker.py``), so generator caches
start empty as in a CLI call.  A run first times the import alone in a few
fresh processes, then runs workers one after another until ``--seconds``
have passed (at least three); each metric is the median over the workers
(``setup_s`` also over the import-only processes).  Times are scaled by the
host speed measured next to them (``clock.py``); the raw medians are
printed too.  ``--trace 1`` alternates untraced and traced workers and
reports the per-layer metrics of the traced ones plus the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Refused operations (``TailTooLarge``) count as
failed; a wrong output or an error also makes ``correct`` false and the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_WORKERS = 3
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}
# Raw (unscaled) clock totals printed beside the scaled metrics.
RAW = {"wall": "wall_s", "solve": "solve_s", "verify": "verify_s", "wall_cpu": "cpu_s"}


def run_worker(workload: str, seed: int, spans: Path | None = None) -> dict:
    """One fresh worker process over the whole workload."""
    args = ["--workload", workload, "--seed", str(seed)]
    if spans is not None:
        args += ["--spans", str(spans)]
    return _worker(args)


def _worker(args: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run workers until the time is up; summarise them."""
    deadline = time.monotonic() + seconds
    probes = [_worker(["--setup-only"]) for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    while len(plain) < MIN_WORKERS or time.monotonic() < deadline:
        plain.append(run_worker(workload, seed))
        if trace:
            OUT.mkdir(exist_ok=True)
            path = OUT / f"{workload}-seed{seed}-{len(traced)}.jsonl"
            traced.append(run_worker(workload, seed, path))
            layers.append(tracing.per_layer(tracing.read_spans(path)))

    workers = plain + traced
    digests = {json.dumps(w["digests"], sort_keys=True) for w in workers}
    wrong = sum(w["wrong"] for w in workers) + (len(digests) != 1)
    summary = {
        "workers": len(plain),
        "attempted": sum(w["attempted"] for w in workers),
        "refused": sum(w["refused"] for w in workers),
        "wrong": wrong,
        "problems": sorted({p for w in workers for p in w["problems"]}),
        "samples": {name: [w[name] for w in plain] for name in END_TO_END},
        "raw": {name: [w["raw"][name] for w in plain] for name in RAW},
    }
    summary["samples"]["setup_s"] += [p["setup_s"] for p in probes]
    if trace:
        metrics = tracing.median_metrics(layers)
        metrics["trace.overhead_frac"] = (
            statistics.median(w["wall_s"] for w in traced)
            / statistics.median(w["wall_s"] for w in plain)
            - 1
        )
        metrics["bench.ref_pass_s"] = statistics.median(w["ref_pass_s"] for w in traced)
        summary["metrics"] = {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in tracing.PER_LAYER.items()
        }
    else:
        summary["metrics"] = {
            name: {"value": statistics.median(values), "unit": END_TO_END[name]}
            for name, values in summary["samples"].items()
        }
    return summary


def report(workload: str, seed: int, summary: dict) -> None:
    """Human-readable lines: every metric with its unit, and the failures."""
    print(f"{workload}: seed {seed}, median of {summary['workers']} fresh workers")
    for name, values in summary["samples"].items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:<13} {statistics.median(values):12.6g} {END_TO_END[name]:<4}"
              f" (quartiles {q1:.6g} .. {q3:.6g})")
    for name, values in summary["raw"].items():
        print(f"  raw {RAW[name]:<9} {statistics.median(values):12.6g} s")
    failed = summary["refused"] + summary["wrong"]
    print(f"  {'ops_failed':<13} {failed}/{summary['attempted']}"
          f" = {failed / summary['attempted']:.4f} ({summary['refused']} refused,"
          f" {summary['wrong']} wrong or errors)")
    if "trace.overhead_frac" in summary["metrics"]:
        for name, metric in summary["metrics"].items():
            print(f"  {name:<45} {metric['value']:14.6g} {metric['unit']}")
    for problem in summary["problems"]:
        print(f"  {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "modschwarz" / "__init__.py").is_file():
        print(f"perfbench: no modschwarz package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for workload in chosen:
        summaries[workload] = measure(workload, args.seed, args.seconds, bool(args.trace))
        report(workload, args.seed, summaries[workload])

    prefix = len(chosen) > 1
    result = {
        "correct": all(s["wrong"] == 0 for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["refused"] + s["wrong"] for s in summaries.values()),
        "metrics": {
            (f"{w}.{name}" if prefix else name): metric
            for w, s in summaries.items()
            for name, metric in s["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
