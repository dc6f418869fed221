"""Fixtures shared by several test modules."""

import time

import pytest

from modschwarz.solver import solve_ode


@pytest.fixture(autouse=True)
def empty_solve_store():
    """Every test starts with ``solve_ode``'s store of passed solves empty,
    so its first solve of each r is cold, as a solve in a fresh process
    is: a test that spies on or perturbs the head pass, ``build_g``, the
    generators or a kernel sees the calls a cold solve makes.
    ``tests/test_solve_store.py`` tests solves that read the store, and
    ``tests/test_fault_table.py`` what a failed solve leaves in it."""
    solve_ode.cache_clear()


@pytest.fixture(scope="session")
def solved():
    """``solve_ode(r, 60)`` for r = 1..12, plus the seconds they took."""
    start = time.perf_counter()
    results = {r: solve_ode(r, 60) for r in range(1, 13)}
    results["elapsed"] = time.perf_counter() - start
    return results
