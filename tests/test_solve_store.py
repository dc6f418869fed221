"""The store of passed solves (``solve_ode``): a solve of r at or below
the stored order is the stored one cut to its windows, one above it
continues it, and either is byte for byte a cold solve; the byte budget
drops the least recently used entry.  ``test_work_census`` checks that an
extension runs only the added rows and a cut none, ``test_fault_table``
that a failed solve, cold or an extension, leaves the store as it was.
``conftest`` empties the store before every test."""

import json
import os
import sys
import threading

import pytest

from modschwarz import solver
from modschwarz.solver import (
    MAX_R,
    build_B,
    minimum_order,
    solve_eigen,
    solve_ode,
)


def solve_bytes(r: int, N: int) -> str:
    return json.dumps(solve_ode(r, N).to_json_dict())


def entries() -> dict:
    """r -> the stored SolveResult."""
    return {r: res for r, (res, _) in solve_ode.cache_entries().items()}


def chain(r: int) -> list[int]:
    """Extension, extension, cut, extension: the orders of one r that the
    store answers in turn, each at least r's minimum."""
    low = minimum_order(r)
    return [N for N in (low, low + 10, 60, 40, 90) if N >= low]


@pytest.mark.parametrize("r", range(1, 25))
def test_a_warm_solve_is_byte_for_byte_a_cold_one(r):
    cold = {}
    for N in chain(r):
        solve_ode.cache_clear()
        cold[N] = solve_ode(r, N)
    solve_ode.cache_clear()
    for N in chain(r):
        warm = solve_ode(r, N)
        assert warm == cold[N], N
        assert json.dumps(warm.to_json_dict()) == json.dumps(cold[N].to_json_dict()), N
    assert entries()[r].N == max(chain(r))


def test_an_entry_is_the_cold_stage():
    # The entry of r is the passed solve itself, X from the head pass
    # included, with the bytes of its g, S and R numerators.
    for r in (3, 12):
        res = solve_ode(r, 40)
        stored, nbytes = solve_ode.cache_entries()[r]
        assert stored is res
        assert res.X == solve_eigen(build_B(r))
        assert nbytes == sum(sys.getsizeof(x) for s in (res.g, res.S, res.R) for x in s.nums)


def test_the_store_holds_one_entry_per_r_solved():
    # One entry per r, replaced only by a longer passing solve.
    for r, N in ((1, 40), (2, 40), (3, 40), (2, 60), (1, 90), (12, 40), (12, 26)):
        solve_ode(r, N)
    assert {r: res.N for r, res in entries().items()} == {1: 90, 2: 60, 3: 40, 12: 40}
    with pytest.raises(ValueError):
        solve_ode(MAX_R + 1, 10**6)
    with pytest.raises(ValueError):
        solve_ode(5, minimum_order(5) - 1)
    assert sorted(entries()) == [1, 2, 3, 12]
    solve_ode.cache_clear()
    assert entries() == {}


def test_the_byte_budget_drops_the_least_recently_used_entry(monkeypatch):
    sizes = {}
    for r in (1, 2, 3, 4):
        solve_ode(r, 40)
        sizes[r] = solve_ode.cache_entries()[r][1]
    solve_ode.cache_clear()
    monkeypatch.setattr(solver, "STORE_BYTES", sizes[1] + sizes[3] + sizes[4])
    for r in (1, 2, 3):
        solve_ode(r, 40)
    solve_ode(1, 30)  # a cut: r = 1 is now the most recently used
    solve_ode(4, 40)  # over the budget: r = 2, the least recently used, goes
    assert list(solve_ode.cache_entries()) == [3, 1, 4]
    monkeypatch.setattr(solver, "STORE_BYTES", 0)
    solve_ode(3, 60)  # an extension, published; every other entry goes
    assert list(entries()) == [3] and entries()[3].N == 60


def test_threads_sharing_the_store_get_the_cold_outputs():
    # More threads than cores, switching often, solving r = 3 and 12 at
    # several orders from an empty store: every output is the cold one,
    # and the store ends with one entry per r, at the longest order.
    cases = [(r, N) for r in (3, 12) for N in (40, 60, 90)]
    want = {}
    for case in cases:
        solve_ode.cache_clear()
        want[case] = solve_bytes(*case)
    solve_ode.cache_clear()
    wrong = []

    def work(offset):
        for step in range(len(cases)):
            case = cases[(offset + step) % len(cases)]
            if solve_bytes(*case) != want[case]:
                wrong.append(case)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        count = 2 * min(os.cpu_count() or 1, 4)
        threads = [threading.Thread(target=work, args=(t,)) for t in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert {r: res.N for r, res in entries().items()} == {3: 90, 12: 90}
