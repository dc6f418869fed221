"""The names the benchmark's tracer (``perfbench/tracing.py``) wraps must
exist in the package, so a rename fails here and not only in the slow
benchmark tests.  The tracer module is loaded by path; nothing is
installed and no worker is started."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from modschwarz import modforms
from modschwarz.series import LaurentSeries

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_traced_function_resolves():
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"modschwarz.{layer}"), name, None))
    ]
    assert missing == []


def test_every_traced_series_method_resolves():
    assert [m for m in tracing.SERIES_METHODS if m not in vars(LaurentSeries)] == []


def test_every_generator_takes_the_order_n():
    cached = {n for n, f in vars(modforms).items() if hasattr(f, "cache_entries")}
    assert cached <= set(tracing.GENERATORS)
    for name in tracing.GENERATORS:
        assert "N" in inspect.signature(getattr(modforms, name)).parameters, name
