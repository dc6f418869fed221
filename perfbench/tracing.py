"""Span recorder for the traced benchmark run, and the per-layer metrics
computed from its spans.

``install`` wraps the package's public functions from outside: every
module-level binding of a wrapped function (``from .modforms import
eisenstein`` makes ``solver.eisenstein``, ``numeric.eisenstein``, ... separate
bindings) is replaced, and so are the ``LaurentSeries`` operator methods.
Each call becomes one span ``{run, id, parent, name, start, end}`` plus a few
counts; spans stay in memory and are written as JSON lines at the end.
A span's self time is its duration minus the durations of its direct
children (calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

SERIES_METHODS = {
    "__mul__": "series.mul",
    "__rmul__": "series.mul",
    "__add__": "series.add",
    "__radd__": "series.add",
    "inverse": "series.inverse",
    "__pow__": "series.pow",
    "theta": "series.theta",
    "theta_antider": "series.theta_antider",
}
GENERATORS = (
    "eisenstein",
    "eta_power",
    "j1728",
    "hauptmodul",
    "seed_t0",
    "theta_fourth",
    "theta_logderiv",
)
FUNCTIONS = {
    "modforms": GENERATORS,
    "solver": (
        "build_B",
        "solve_eigen",
        "build_g",
        "solve_ode",
        "frobenius_oracle",
        "classify_theta_cross_ratio",
    ),
    "numeric": ("check_equivariance", "check_schwarz_numeric", "eval_series"),
    "cli": ("run",),
    # closed_forms: every public function, filled in by install().
}

# Per-layer metric -> (unit, workload whose mechanism it measures).
PER_LAYER = {
    "series.inverse.calls": ("count", "deep"),
    "series.inverse.self_s": ("s", "deep"),
    "series.inverse.out_terms": ("count", "deep"),
    "series.inverse.from_solver.self_s": ("s", "deep"),
    "series.inverse.from_modforms.self_s": ("s", "deep"),
    "series.mul.calls": ("count", "wide"),
    "series.mul.self_s": ("s", "wide"),
    "series.mul.coeff_products": ("count", "wide"),
    "series.pow.self_s": ("s", "sweep"),
    "series.add.self_s": ("s", "sweep"),
    "series.theta.self_s": ("s", "sweep"),
    "series.theta_antider.self_s": ("s", "sweep"),
    "series.max_coeff_bits": ("bits", "deep"),
    "solver.build_g.incl_s": ("s", "wide"),
    "solver.build_g.mul_calls": ("count", "wide"),
    "solver.build_B.self_s": ("s", "wide"),
    "solver.solve_eigen.self_s": ("s", "wide"),
    "solver.solve_ode.self_s": ("s", "wide"),
    "solver.frobenius_oracle.incl_s": ("s", "sweep"),
    "solver.classify_theta_cross_ratio.incl_s": ("s", "sweep"),
    **{
        f"modforms.{gen}.{field}": (unit, "sweep")
        for gen in GENERATORS
        for field, unit in (("calls", "count"), ("self_s", "s"), ("incl_s", "s"))
    },
    "modforms.repeat_calls": ("count", "sweep"),
    "modforms.repeat_s": ("s", "sweep"),
    "modforms.prefix_calls": ("count", "sweep"),
    "modforms.prefix_s": ("s", "sweep"),
    "numeric.check_equivariance.incl_s": ("s", "sweep"),
    "numeric.check_schwarz_numeric.incl_s": ("s", "sweep"),
    "numeric.eval_series.calls": ("count", "sweep"),
    "numeric.tail_too_large": ("count", "sweep"),
    "closed_forms.incl_s": ("s", "sweep"),
    "cli.run.self_s": ("s", "deep"),
    "cli.json_bytes": ("bytes", "deep"),
    "trace.overhead_frac": ("ratio", None),
    "bench.ref_pass_s": ("s", None),
}


class Recorder:
    """In-memory spans of one worker; ``run`` tags every span."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        span = {
            "run": self.run,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter_ns()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, kwargs, out)``
        adds counts to the span after it closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if attrs is not None and out is not NotImplemented:
                span.update(attrs(args, kwargs, out))
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# -- span attributes ----------------------------------------------------


def _max_bits(series) -> int:
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.coeffs
    )


def _mul_attrs(args, kwargs, out) -> dict:
    """Coefficient products of the truncated product: with aligned window
    lengths la and lb the result keeps L = min(la, lb) terms, and term k
    needs k + 1 products, so L*(L+1)/2 in all (a scalar costs la)."""
    a, b = args
    if not hasattr(b, "coeffs"):
        return {"coeff_products": len(a.coeffs), "max_bits": _max_bits(out)}
    m = max(a.m, b.m)
    size = min(len(a.coeffs) * m // a.m, len(b.coeffs) * m // b.m)
    return {"coeff_products": size * (size + 1) // 2, "max_bits": _max_bits(out)}


def _inverse_attrs(args, kwargs, out) -> dict:
    return {"out_terms": len(out.coeffs), "max_bits": _max_bits(out)}


def _generator_attrs(fn):
    """Record the order argument ``N`` and the other arguments as a key."""
    signature = inspect.signature(fn)

    def attrs(args, kwargs, out):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        rest = [str(v) for k, v in bound.arguments.items() if k != "N"]
        return {"order": bound.arguments["N"], "key": rest}

    return attrs


def install(recorder: Recorder) -> list[str]:
    """Wrap every binding of the benchmarked functions in ``modschwarz.*``.

    Returns the names of the module attributes that were replaced.
    """
    from modschwarz import cli, closed_forms, series  # noqa: F401  (loads every module)

    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "modschwarz" or name.startswith("modschwarz."))
    }
    functions = dict(FUNCTIONS)
    functions["closed_forms"] = tuple(
        name
        for name, fn in vars(closed_forms).items()
        if inspect.isfunction(fn)
        and fn.__module__ == closed_forms.__name__
        and not name.startswith("_")
    )
    attrs = {"series.mul": _mul_attrs, "series.inverse": _inverse_attrs}

    cls = series.LaurentSeries
    for method, name in SERIES_METHODS.items():
        setattr(cls, method, recorder.wrap(name, vars(cls)[method], attrs.get(name)))

    replaced = []
    for layer, names in functions.items():
        home = modules[f"modschwarz.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            extra = _generator_attrs(original) if layer == "modforms" else None
            wrapper = recorder.wrap(f"{layer}.{fname}", original, extra)
            for mod_name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append(f"{mod_name}.{attr}")
    return replaced


# -- per-layer metrics --------------------------------------------------


def per_layer(spans: list[dict]) -> dict[str, float]:
    """Every ``PER_LAYER`` metric except the overhead, from one run's spans."""
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: (s["end"] - s["start"]) / 1e9 for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    own = {i: dur[i] - child[i] for i in dur}

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def named(name):
        return [s for s in spans if s["name"] == name]

    def self_s(name):
        return sum(own[s["id"]] for s in named(name))

    def outermost(pred):
        return sum(
            dur[s["id"]]
            for s in spans
            if pred(s["name"]) and not any(pred(a["name"]) for a in ancestors(s))
        )

    def incl_s(name):
        return outermost(lambda n: n == name)

    def caller_layer(s):
        for a in ancestors(s):
            if not a["name"].startswith("series."):
                return a["name"].split(".")[0]
        return None

    m: dict[str, float] = {}
    inverses = named("series.inverse")
    m["series.inverse.calls"] = len(inverses)
    m["series.inverse.self_s"] = self_s("series.inverse")
    m["series.inverse.out_terms"] = sum(s["out_terms"] for s in inverses if "out_terms" in s)
    for layer in ("solver", "modforms"):
        m[f"series.inverse.from_{layer}.self_s"] = sum(
            own[s["id"]] for s in inverses if caller_layer(s) == layer
        )
    muls = named("series.mul")
    m["series.mul.calls"] = len(muls)
    m["series.mul.self_s"] = self_s("series.mul")
    m["series.mul.coeff_products"] = sum(s.get("coeff_products", 0) for s in muls)
    for op in ("pow", "add", "theta", "theta_antider"):
        m[f"series.{op}.self_s"] = self_s(f"series.{op}")
    m["series.max_coeff_bits"] = max((s.get("max_bits", 0) for s in spans), default=0)

    m["solver.build_g.incl_s"] = incl_s("solver.build_g")
    m["solver.build_g.mul_calls"] = sum(
        1 for s in muls if any(a["name"] == "solver.build_g" for a in ancestors(s))
    )
    for fn in ("build_B", "solve_eigen", "solve_ode"):
        m[f"solver.{fn}.self_s"] = self_s(f"solver.{fn}")
    for fn in ("frobenius_oracle", "classify_theta_cross_ratio"):
        m[f"solver.{fn}.incl_s"] = incl_s(f"solver.{fn}")

    for gen in GENERATORS:
        name = f"modforms.{gen}"
        m[f"{name}.calls"] = len(named(name))
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.incl_s"] = incl_s(name)
    m.update(_repeats([s for s in spans if "key" in s], dur))

    for fn in ("check_equivariance", "check_schwarz_numeric"):
        m[f"numeric.{fn}.incl_s"] = incl_s(f"numeric.{fn}")
    m["numeric.eval_series.calls"] = len(named("numeric.eval_series"))
    m["numeric.tail_too_large"] = sum(
        1
        for s in spans
        if s["name"] in ("numeric.check_equivariance", "numeric.check_schwarz_numeric")
        and s.get("error") == "TailTooLarge"
    )
    m["closed_forms.incl_s"] = outermost(lambda n: n.startswith("closed_forms."))
    m["cli.run.self_s"] = self_s("cli.run")
    m["cli.json_bytes"] = sum(s.get("json_bytes", 0) for s in spans)
    return m


def _repeats(calls: list[dict], dur: dict) -> dict[str, float]:
    """Generator calls that an earlier call already answered, exactly
    (repeat) or by a longer expansion with the same other arguments
    (prefix).  Defined from the call pattern, not from any cache."""
    seen = set()
    longest: dict[tuple, int] = {}
    out = {"modforms.repeat_calls": 0, "modforms.repeat_s": 0.0,
           "modforms.prefix_calls": 0, "modforms.prefix_s": 0.0}
    for s in calls:  # spans are stored in start order
        family = (s["name"], *s["key"])
        if (family, s["order"]) in seen:
            out["modforms.repeat_calls"] += 1
            out["modforms.repeat_s"] += dur[s["id"]]
        elif s["order"] <= longest.get(family, -1):
            out["modforms.prefix_calls"] += 1
            out["modforms.prefix_s"] += dur[s["id"]]
        seen.add((family, s["order"]))
        longest[family] = max(longest.get(family, -1), s["order"])
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}
