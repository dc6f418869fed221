"""One pass over one workload in a fresh process, as a CLI call would run.

    python3 perfbench/worker.py --workload deep --seed 1 [--spans PATH]
    python3 perfbench/worker.py --setup-only

with ``src`` on ``PYTHONPATH``.  Prints one JSON object: the timings, scaled
by the host speed (``clock.py``) and raw, the operation counts, the digests
of every solve output and, with ``--spans PATH``, writes the spans of a
traced pass to PATH as JSON lines.  ``--setup-only`` times the import alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from types import SimpleNamespace

from clock import Clock


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--spans", default=None, help="trace and write spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    clock = Clock()
    clock.start()
    start = clock.now()
    import modschwarz  # noqa: F401
    from modschwarz import cli, numeric, series, solver

    clock.book("setup", start)
    if args.setup_only:
        clock.stop()
        print(json.dumps({"setup_s": clock.scaled["setup"]}))
        return 0

    import tracing
    import workloads

    recorder = None
    if args.spans:
        recorder = tracing.Recorder(f"{args.workload}:{args.seed}")
        tracing.install(recorder)
    with open(workloads.DIGESTS) as fh:
        digests = json.load(fh)
    modules = SimpleNamespace(cli=cli, numeric=numeric, series=series, solver=solver)
    session = workloads.Session(modules, digests, recorder, clock)

    start = clock.now()
    workloads.run(args.workload, args.seed, session)
    clock.book("wall", start)
    clock.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if recorder is not None:
        recorder.write(args.spans)

    print(json.dumps({
        "setup_s": clock.scaled["setup"],
        "wall_s": clock.scaled["wall"],
        "solve_s": clock.scaled["solve"],
        "verify_s": clock.scaled["verify"],
        "cpu_s": clock.scaled["wall_cpu"],
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "raw": dict(clock.raw),
        "ref_pass_s": clock.ref_pass_s(),
        "attempted": session.attempted,
        "refused": session.refused,
        "wrong": session.wrong,
        "problems": session.problems,
        "digests": session.outputs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
