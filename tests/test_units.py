"""Unit covariance of the solvers: the same model stated in another money unit.

Measuring money in a unit c times smaller multiplies every money amount by c.
From the units of each parameter, not from the solvers' formulas:

* prices p0, p1, p2 and the social-cost weights kappa, lambda are money (per
  unit of quantity, or its square) and scale by c;
* the effort efficiencies gamma_i (effort a costs the money a^2/(2*gamma))
  and the risk aversions eta_a, eta_i, eta_p (per unit of money) scale by 1/c;
* volatilities, the production target delta and the horizon carry no money.

Each solved coefficient is a money amount (the principal's value v and the
firms' certainty equivalents W_i are), so it scales by c.  With c a power of
two every rounding scales with it, so the identities hold bit for bit.  The
1e12 escape bound is a money amount too: a rescaled solve that reads it in
the new unit escapes at the same node.
"""

from dataclasses import fields, replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from decarb import BlowUp, Kind, riccati, solve_nash, solve_principal, validate_params
from conftest import (ETA_RANGE, GAMMA_RANGE, GAME_BOX, NASH_FIXTURE, SIGMA_RANGE, SINGLE_FIRM_FIXTURE,
                      TWO_FIRM_FIXTURE, game_params, principal_params)

# the power of the money unit in each parameter that carries one
MONEY_POWER = {"p0": 1, "p1": 1, "p2": 1, "kappa": 1, "lambda_": 1,
               "gamma1": -1, "gamma2": -1, "eta_a": -1, "eta1": -1, "eta2": -1, "eta_p": -1}
FACTORS = [2.0 ** k for k in range(-3, 4)]


def rescaled(params, money=1.0, keep=()):
    """``params`` with money measured in a unit ``money`` times smaller; the
    fields in ``keep`` are left as they are (for negative controls)."""
    return replace(params, **{name: getattr(params, name) * money ** power
                              for name, power in MONEY_POWER.items()
                              if getattr(params, name) is not None and name not in keep})


def solved(solve, params) -> np.ndarray | float:
    """Every coefficient ``solve(params)`` returns, stacked, or the escape time of its BlowUp."""
    try:
        out = solve(params)
    except BlowUp as exc:
        return exc.t_escape
    if hasattr(out, "values"):
        return out.values
    return np.column_stack([out.A.reshape(-1, 4), out.B, out.C])


def solved_in_money(solve, params, c: float, keep=()) -> np.ndarray | float:
    """:func:`solved` on ``rescaled(params, c, keep)``, with the escape bound in that unit."""
    with patch.object(riccati, "BLOWUP_LIMIT", c * riccati.BLOWUP_LIMIT):
        return solved(solve, rescaled(params, money=c, keep=keep))


def no_tiny_values(params) -> bool:
    """Whether no parameter is nonzero and below 2**-100 in size.  Draws with
    one are skipped: products of a few such values reach the subnormal range,
    where scaling by c is not exact."""
    return not any(isinstance(v, float) and 0.0 < abs(v) < 2.0 ** -100
                   for v in (getattr(params, f.name) for f in fields(params)))


def assert_covariant(solve, params, c: float) -> None:
    base, scaled = solved(solve, params), solved_in_money(solve, params, c)
    if isinstance(base, float):
        assert scaled == base  # the same escape node
    else:
        assert isinstance(scaled, np.ndarray) and scaled.tobytes() == (c * base).tobytes()


def solve_201(solver):
    return lambda params: solver(params, 201)


PRINCIPAL_BOX = dict(
    gammas=st.tuples(*[st.floats(*GAMMA_RANGE)] * 2),
    sigmas=st.tuples(*[st.floats(*SIGMA_RANGE)] * 2),
    etas=st.tuples(*[st.floats(*ETA_RANGE)] * 3),
    prices=st.tuples(*[st.floats(0.0, 2.0)] * 3),
    weights=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    delta=st.floats(-2.0, 2.0),
    horizon=st.floats(0.05, 2.0),
)


@settings(max_examples=200, deadline=None)
@given(c=st.sampled_from(FACTORS), **GAME_BOX)
def test_game_coefficients_are_money(c, gammas, etas, sigmas, p0, slopes, horizon):
    params = game_params(gammas, etas, sigmas, p0, slopes, horizon)
    assume(no_tiny_values(params))
    assert_covariant(solve_201(solve_nash), params, c)


@pytest.mark.parametrize("kind", [Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED])
@settings(max_examples=50, deadline=None)
@given(c=st.sampled_from(FACTORS), **PRINCIPAL_BOX)
# firm 1's rate constant a = 1.8780162999606427 has a ** 2 != a * a, as
# libm's pow rounds it, so a coupling m = a ** 2 / b - c missed the law by an ulp
@example(c=0.125, gammas=(1.8420162639607867, 1.0), sigmas=(0.3, 1.0), etas=(1.0, 2.00001, 0.5),
         prices=(0.0, 0.0, 0.0), weights=(0.0, 1.0), delta=0.0, horizon=1.0)
def test_principal_coefficients_are_money(kind, c, gammas, sigmas, etas, prices, weights, delta, horizon):
    params = principal_params(kind, gammas, sigmas, etas[:2] if kind is Kind.SINGLE_FIRM else etas)
    params = replace(params, p0=prices[0], p1=prices[1], p2=prices[2], kappa=weights[0],
                     lambda_=weights[1], delta=delta, horizon=horizon)
    assume(no_tiny_values(params))
    assert_covariant(solve_201(solve_principal), params, c)


def test_a_rescaled_escape_keeps_its_node_only_with_the_bound_rescaled():
    # a game whose coefficients pass 1e12 and 4e12 at different nodes: in a
    # money unit 4 times larger the fixed bound 1e12 is met one node later
    params = replace(validate_params(NASH_FIXTURE), gamma1=0.6815537387759409, gamma2=1.140059611096553,
                     sigma1=0.4354658906964482, sigma2=0.0, eta1=2.7739727292051763,
                     eta2=0.5115039239252409, p0=1.2153278213417227, p1=1.526830654572369,
                     p2=0.7410671682018886, horizon=1.0879037792163448)
    solve = solve_201(solve_nash)
    assert solved(solve, rescaled(params, money=0.25)) != solved(solve, params)
    assert_covariant(solve, params, 0.25)


@pytest.mark.parametrize("c", [f for f in FACTORS if f != 1.0])
@pytest.mark.parametrize("fixture, solver, etas", [
    (NASH_FIXTURE, solve_nash, ("eta1", "eta2")),
    (TWO_FIRM_FIXTURE, solve_principal, ("eta1", "eta2", "eta_p")),
    (SINGLE_FIRM_FIXTURE, solve_principal, ("eta_a", "eta_p")),
], ids=["nash", "two-firm", "single-firm"])
def test_risk_aversion_left_in_the_old_unit_breaks_the_identity(c, fixture, solver, etas):
    params = validate_params(fixture)
    base = solved(solve_201(solver), params)
    wrong = solved_in_money(solve_201(solver), params, c, keep=etas)
    assert not (isinstance(wrong, np.ndarray) and np.array_equal(wrong, c * base))
