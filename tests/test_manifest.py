"""``qa/manifest.py``, the all-r manifest, on a few small cases: the
checked-in digests hold cold, extended and cut solves, and a moved digest
is named."""

import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from modschwarz import cli, solver
from modschwarz.solver import minimum_order

SCRIPT = Path(__file__).resolve().parents[1] / "qa" / "manifest.py"
MANIFEST = SCRIPT.with_name("manifest.json")
SMALL = [1, 2, 3, 12]


@pytest.fixture(scope="module")
def manifest_module():
    spec = importlib.util.spec_from_file_location("manifest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_manifest_covers_every_r_at_two_orders(manifest_module):
    digests = json.loads(MANIFEST.read_text())["sha256"]
    step = manifest_module.WARM_STEP
    assert set(digests) == {
        f"{r},{N}"
        for r in range(1, solver.MAX_R + 1)
        for N in (minimum_order(r), minimum_order(r) + step)
    }


def test_a_cold_and_a_warm_solve_match_the_manifest(manifest_module, monkeypatch):
    built = []
    real = solver.build_g

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "build_g", spy)
    rows = manifest_module.solve_all(SMALL, 1)
    # Each r: the cold solve at its minimum order makes the short build,
    # the one ten orders up extends it.
    assert len(built) == len(SMALL)
    assert [(r, N) for r, N, _, _ in rows] == [
        (r, N) for r in SMALL for N in (minimum_order(r), minimum_order(r) + 10)
    ]
    assert manifest_module.first_moved(json.loads(MANIFEST.read_text()), rows) is None


def test_a_cut_of_a_stored_solve_matches_the_manifest(manifest_module):
    # Each r ten orders up first: the solve at its minimum order is then
    # the stored solve cut to that order.
    rows = []
    for r in SMALL:
        for order in (minimum_order(r) + manifest_module.WARM_STEP, minimum_order(r)):
            out = io.StringIO()
            argv = ["solve", "--r", str(r), "--order", str(order), "--format", "json"]
            assert cli.run(argv, out=out) == 0
            rows.append((r, order, hashlib.sha256(out.getvalue().encode()).hexdigest(), 0.0))
        assert solver.solve_ode.cache_entries()[r][0].N == minimum_order(r) + 10
    assert manifest_module.first_moved(json.loads(MANIFEST.read_text()), rows) is None


def test_compare_names_the_first_moved_case(manifest_module):
    doc = json.loads(MANIFEST.read_text())
    rows = manifest_module.solve_all([3, 2], 1)
    assert manifest_module.first_moved(doc, rows) is None
    doc["sha256"]["2,14"] = "0" * 64  # the extended solve of r = 2
    doc["sha256"]["3,8"] = "0" * 64
    assert "(r, order) = (2, 14) moved" in manifest_module.first_moved(doc, rows)


def test_compare_exits_1_on_a_moved_or_missing_case(manifest_module, tmp_path, capsys):
    # One r, so main solves it in this process.
    doc = json.loads(MANIFEST.read_text())
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    assert manifest_module.main(["compare", str(path), "--r", "1"]) == 0
    doc["sha256"]["1,14"] = "0" * 64
    path.write_text(json.dumps(doc))
    assert manifest_module.main(["compare", str(path), "--r", "1"]) == 1
    assert "(r, order) = (1, 14) moved" in capsys.readouterr().err
    del doc["sha256"]["1,4"]
    path.write_text(json.dumps(doc))
    assert manifest_module.main(["compare", str(path), "--r", "1"]) == 1
    assert "(r, order) = (1, 4) is not in the manifest" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--r", "0-3"], ["--r", "1-x"], []])
def test_a_bad_range_or_a_missing_manifest_is_a_usage_error(manifest_module, tmp_path, args):
    # The manifest path does not exist; a bad --r is refused before it is read.
    with pytest.raises(SystemExit) as exit_:
        manifest_module.main(["compare", str(tmp_path / "m.json"), *args])
    assert exit_.value.code == 2
