"""The Schwarzian residual expanded directly from R, as ``solve_ode``
computed it before the Wronskian certificate replaced it.  Kept here only
as an independent oracle for that certificate."""

from fractions import Fraction

from modschwarz.modforms import eisenstein


def direct_schwarz_residual(res):
    """{h,tau}/pi^2 - 2*r^2*E4 = W^2/2 - a*theta(W) - 2*r^2*E4 with
    W = a^2*theta^2(R)/h' and h' = 1 + a*theta(R), on its trusted window."""
    r, m = res.r, res.m
    a = 2 // m
    R = res.R
    e4 = eisenstein(4, res.g.N - res.n0, m)
    h_deriv = R.theta() * a + 1
    W = R.theta().theta() * (a * a) * h_deriv.inverse()
    return W * W * Fraction(1, 2) - W.theta() * a - e4 * (2 * r * r)
