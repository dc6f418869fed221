"""Tests of the benchmark itself (not part of the package suite):

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import clock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and one traced worker per workload, same seed."""
    tmp = tmp_path_factory.mktemp("spans")
    out = {}
    for w in workloads.WORKLOADS:
        path = tmp / f"{w}.jsonl"
        traced = run.run_worker(w, 7, path)
        out[w] = SimpleNamespace(
            plain=run.run_worker(w, 7), traced=traced, spans=tracing.read_spans(path)
        )
    return out


def test_trace_has_expected_shape(passes):
    for w, p in passes.items():
        spans = p.spans
        assert spans, w
        assert {s["run"] for s in spans} == {f"{w}:7"}
        assert [s["id"] for s in spans] == list(range(len(spans)))
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            assert {"run", "id", "parent", "name", "start", "end"} <= set(s)
            assert s["start"] <= s["end"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["id"] < s["id"]
                assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        roots = {s["name"] for s in spans if s["parent"] is None}
        assert roots <= {"bench.solve", "bench.verify"}, roots


def test_digests_equal_with_tracing_on_and_off(passes):
    stored = json.loads(workloads.DIGESTS.read_text())
    for w, p in passes.items():
        cases = {workloads.digest_key(r, N) for r, N in workloads.solve_cases(w)}
        assert set(p.plain["digests"]) == cases
        assert p.plain["digests"] == p.traced["digests"]
        assert p.plain["digests"] == {k: stored[k] for k in cases}
        assert p.plain["wrong"] == p.traced["wrong"] == 0, p.plain["problems"]


def test_sweep_counts_known_refusals_as_failed(passes):
    sweep = passes["sweep"].plain
    assert sweep["attempted"] == 24 * 5 + 5
    assert sweep["refused"] == 21
    assert all(p.startswith("refused equivariance") for p in sweep["problems"])


def test_every_layer_metric_is_nonzero_on_its_mechanism_workload(passes):
    metrics = {w: tracing.per_layer(p.spans) for w, p in passes.items()}
    for name, (unit, workload) in tracing.PER_LAYER.items():
        if workload is None:
            continue
        assert metrics[workload][name] > 0, (name, workload)
    assert set(metrics["deep"]) | {"trace.overhead_frac", "bench.ref_pass_s"} == set(
        tracing.PER_LAYER
    )


def test_clock_samples_during_work_and_books_the_passes_in_neither():
    c = clock.Clock()
    c.start()
    try:
        begin = time.perf_counter()
        start = c.now()
        while c.now().cpu - start.cpu < 0.3:
            sum(range(1000))
        c.book("work", start)
        elapsed = time.perf_counter() - begin
    finally:
        c.stop()
    assert len(c.passes) >= 4
    assert c.raw["work"] < elapsed - sum(c.passes[1:-1])
    assert c.scaled["work"] > 0 and c.scaled["work_cpu"] > 0


def test_install_replaces_every_module_level_alias():
    code = (
        "import sys, modschwarz, tracing\n"
        "from modschwarz import cli, closed_forms, modforms, numeric, series, solver\n"
        "originals = {id(getattr(m, n)) for m, names in ["
        "(modforms, tracing.GENERATORS), (solver, tracing.FUNCTIONS['solver']),"
        "(numeric, tracing.FUNCTIONS['numeric']), (cli, ('run',))] for n in names}\n"
        "replaced = tracing.install(tracing.Recorder('t'))\n"
        "left = [f'{mn}.{a}' for mn, m in sys.modules.items() if mn.startswith('modschwarz')"
        " for a, v in vars(m).items() if id(v) in originals]\n"
        "print(left); print(sorted(replaced))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    left, replaced = proc.stdout.splitlines()
    assert left == "[]"
    for alias in ("modschwarz.solver.eisenstein", "modschwarz.numeric.eisenstein",
                  "modschwarz.cli.eisenstein", "modschwarz.closed_forms.eisenstein",
                  "modschwarz.eisenstein", "modschwarz.cli.solve_ode",
                  "modschwarz.closed_forms.g3"):
        assert repr(alias) in replaced, alias


def test_mul_coefficient_products_are_exact():
    from modschwarz.series import LaurentSeries

    a = LaurentSeries(1, -2, (1, 0, 3, 4, 5))          # lattice 1, window -2..2
    b = LaurentSeries(2, 1, tuple(range(1, 10)))        # lattice 2, window 1..9
    wa = a.align(2)
    out = a * b
    pairs = sum(
        1
        for i in range(len(wa.coeffs))
        for j in range(len(b.coeffs))
        if wa.n_min + i + b.n_min + j <= out.N
    )
    assert tracing._mul_attrs((a, b), {}, out)["coeff_products"] == pairs
    assert tracing._mul_attrs((a, 3), {}, a * 3)["coeff_products"] == 5


def test_wrong_output_counts_as_failed():
    from modschwarz import cli, numeric, series, solver

    modules = SimpleNamespace(cli=cli, numeric=numeric, series=series, solver=solver)
    rc, text = workloads.solve_json(cli, 1, 6)
    good = {"1,6": hashlib.sha256(text.encode()).hexdigest()}
    session = workloads.Session(modules, good)
    session.cli_solve(1, 6)
    assert (session.attempted, session.failed) == (2, 0), session.problems
    session = workloads.Session(modules, {"1,6": "0" * 64})
    session.cli_solve(1, 6)
    assert (session.attempted, session.wrong) == (2, 2)
    assert session.problems[0].startswith("wrong solve r=1 N=6")


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in tracing.PER_LAYER.items()
    }


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
