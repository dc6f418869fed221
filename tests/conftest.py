"""Fixtures shared by several test modules."""

import time

import pytest

from modschwarz.solver import solve_ode


@pytest.fixture(scope="session")
def solved():
    """``solve_ode(r, 60)`` for r = 1..12, plus the seconds they took."""
    start = time.perf_counter()
    results = {r: solve_ode(r, 60) for r in range(1, 13)}
    results["elapsed"] = time.perf_counter() - start
    return results
