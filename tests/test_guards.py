"""Every argument guard of the package that no other test reaches: one row
per guard, each naming the exception it raises and a fragment of its
message."""

from fractions import Fraction

import pytest

from modschwarz.closed_forms import expand
from modschwarz.modforms import (
    eisenstein, hauptmodul, seed_t0, sigma, theta_fourth, theta_series
)
from modschwarz.series import LaurentSeries, ZeroLeadingCoefficient
from modschwarz.solver import build_B

A = LaurentSeries(1, 0, (Fraction(1), Fraction(2)))

GUARDS = {
    "series-without-coefficients": (
        lambda: LaurentSeries(1, 0, ()),
        ValueError, "at least one stored coefficient",
    ),
    "lattice-3": (
        lambda: LaurentSeries(3, 0, (1,)),
        ValueError, "lattice must be 1 or 2, got 3",
    ),
    "numerators-without-coefficients": (
        lambda: LaurentSeries.from_numerators(1, 0, []),
        ValueError, "at least one stored coefficient",
    ),
    "zero-denominator": (
        lambda: LaurentSeries.from_numerators(1, 0, [1], 0),
        ZeroDivisionError, "nonzero denominator",
    ),
    "term-outside-window": (
        lambda: LaurentSeries.from_terms(1, {5: 1}, 3),
        ValueError, "outside the requested window",
    ),
    "leading-coefficient-of-zero": (
        lambda: LaurentSeries.zero(1, 3).leading_coefficient,
        ZeroLeadingCoefficient, "zero on its known window",
    ),
    # No check may pass on an overlap shorter than it asks for.
    "matches-short-overlap": (
        lambda: A.matches(A, min_overlap=3),
        ValueError, r"common window \[0, 1\] is shorter than min_overlap=3",
    ),
    "subtract-a-string": (
        lambda: A - "1",
        TypeError, "unsupported operand type",
    ),
    "divide-a-string-by-a-series": (
        lambda: A.inverse("1"),
        TypeError, "cannot divide '1' by a series",
    ),
    "divide-by-a-string": (
        lambda: A / "1",
        TypeError, "unsupported operand type",
    ),
    "fractional-power": (
        lambda: A ** Fraction(1, 2),
        TypeError, "unsupported operand type",
    ),
    "sigma-of-zero": (
        lambda: sigma(3, 0),
        ValueError, "sigma is defined for n >= 1",
    ),
    "eisenstein-weight-8": (
        lambda: eisenstein(8, 3),
        ValueError, "k = 2, 4 or 6, got k=8",
    ),
    # A group given by its name is not a Group: no lattice is guessed.
    "hauptmodul-of-a-name": (
        lambda: hauptmodul("full", 3),
        TypeError, "group must be Group.FULL or Group.SQUARES, got 'full'",
    ),
    "seed-of-a-name": (
        lambda: seed_t0("squares", 3),
        TypeError, "group must be Group.FULL or Group.SQUARES, got 'squares'",
    ),
    "theta2-series": (
        lambda: theta_series(2, 4),
        ValueError, "theta3 and theta4 only",
    ),
    "theta1-fourth": (
        lambda: theta_fourth(1, 5),
        ValueError, "theta_fourth is defined for j = 2, 3 or 4, got j=1",
    ),
    "theta5-fourth": (
        lambda: theta_fourth(5, 5),
        ValueError, "theta_fourth is defined for j = 2, 3 or 4, got j=5",
    ),
    "half-power-of-delta-on-lattice-1": (
        lambda: expand(("1 E4 Delta^-1/2",), 10, 1),
        ValueError, "half-integral power of Delta on lattice 1",
    ),
    "B-for-r0": (
        lambda: build_B(0),
        ValueError, "r must be a positive integer",
    ),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises_and_names_its_cause(name):
    call, error, fragment = GUARDS[name]
    with pytest.raises(error, match=fragment):
        call()
