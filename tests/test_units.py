"""Unit covariance of the solvers: the same model stated in another money or
quantity unit.

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

Measuring quantity (the states x, y) in a unit L times smaller multiplies
every quantity by L.  Then:

* the volatilities sigma_i (quantity per root of time) and the production
  target delta scale by L, and gamma_i by L^2 (an effort a is quantity per
  time, and a^2/(2*gamma) stays the same money);
* the price slopes p1, p2 and the weights kappa, lambda (money per squared
  quantity) scale by 1/L^2;
* the price intercept p0 is money per quantity in the regulated models,
  where revenue is price times output, and scales by 1/L; in the game it is
  a money flow of its own and does not change.

A coefficient of a quadratic term scales by 1/L^2, of a linear term by 1/L,
and a constant does not change.  These identities hold bit for bit too, but
the coefficients scale by different powers of L, so no single rescaled 1e12
bound keeps an escape at its node; escaping draws are skipped.

Measuring time in a unit tau times smaller multiplies every duration by tau.
Then:

* the horizon scales by tau;
* every flow per unit of time scales by 1/tau: the prices p0, p1, p2 and the
  weights kappa, lambda (money per time), and gamma_i, as an effort a is
  quantity per time and its cost a^2/(2*gamma) money per time;
* the volatilities sigma_i (quantity per root of time) scale by 1/sqrt(tau);
* the risk aversions and the production target delta carry no time.

The solved coefficients are money and quantity amounts, not flows, so they
do not change, and neither does the 1e12 bound: an escape keeps its node,
whose time scales by tau.  With tau an even power of two, sqrt(tau) is a
power of two too and the identities hold bit for bit.  A best response's
opponent flow is an effort: it scales by 1/tau, by L in quantity, and not in
money.

A volatility enters the solvers squared, so the law holds bit for bit only
if each square is the correctly rounded product ``sigma * sigma``: libm's
``sigma ** 2`` can miss it by an ulp, as at ``ULP_SIGMA``.
"""

import ast
import operator
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import decarb
from decarb import (BlowUp, Kind, best_response, contract, mc, nash, riccati, solve_nash, solve_principal,
                    validate_params)
from conftest import (ETA_RANGE, GAMMA_RANGE, GAME_BOX, NASH_FIXTURE, SIGMA_RANGE, SINGLE_FIRM_FIXTURE,
                      TWO_FIRM_FIXTURE, game_params, principal_params)

# the power of the money unit in each parameter that carries one
MONEY_POWER = {"p0": 1, "p1": 1, "p2": 1, "kappa": 1, "lambda_": 1,
               "gamma1": -1, "gamma2": -1, "eta_a": -1, "eta1": -1, "eta2": -1, "eta_p": -1}
# the power of the quantity unit in each parameter that carries one, but p0
QUANTITY_POWER = {"sigma1": 1, "sigma2": 1, "delta": 1, "gamma1": 2, "gamma2": 2,
                  "p1": -2, "p2": -2, "kappa": -2, "lambda_": -2}
# the power of the time unit in each parameter that carries one
TIME_POWER = {"horizon": 1, "sigma1": -0.5, "sigma2": -0.5, "gamma1": -1, "gamma2": -1,
              "p0": -1, "p1": -1, "p2": -1, "kappa": -1, "lambda_": -1}
# the power of the quantity unit in each solved column, as `solved` stacks them:
# A11, A12, A21, A22, B1, B2, C, and NASH_COLUMNS (a best response's are BR_COLUMNS)
PRINCIPAL_COLUMN_POWER = np.array([-2, -2, -2, -2, -1, -1, 0])
BR_COLUMN_POWER = np.array([-2, -2, -2, -1, -1, 0])
NASH_COLUMN_POWER = np.tile(BR_COLUMN_POWER, 2)
FACTORS = [2.0 ** k for k in range(-3, 4)]
# time units whose square roots are powers of two as well
TIME_FACTORS = [4.0 ** k for k in (-2, -1, 1, 2)]
# sigma ** 2 != sigma * sigma here, as libm's pow rounds it
ULP_SIGMA = 0.4515528601377755


def rescaled(params, money=1.0, quantity=1.0, time=1.0, keep=()):
    """``params`` with money measured in a unit ``money`` times smaller,
    quantity in a unit ``quantity`` times smaller and time in a unit ``time``
    times smaller; the fields in ``keep`` are left as they are (for negative
    controls)."""
    quantity_power = {**QUANTITY_POWER, "p0": -1 if params.has_principal else 0}
    return replace(params, **{name: getattr(params, name) * money ** MONEY_POWER.get(name, 0)
                              * quantity ** quantity_power.get(name, 0) * time ** TIME_POWER.get(name, 0)
                              for name in MONEY_POWER.keys() | quantity_power.keys() | TIME_POWER.keys()
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


def assert_covariant(solve, params, c: float) -> None:
    base, scaled = solved(solve, params), solved_in_money(solve, params, c)
    if isinstance(base, float):
        assert scaled == base  # the same escape node
    else:
        assert isinstance(scaled, np.ndarray) and scaled.tobytes() == (c * base).tobytes()


def solve_201(solver):
    return lambda params: solver(params, 201)


def magnitude(top: float):
    """0.0, or a float in [2**-100, ``top``].  Products of a few nonzero values
    below 2**-100 reach the subnormal range, where scaling by a power of two
    is not exact, so the boxes below draw none."""
    return st.one_of(st.just(0.0), st.floats(2.0 ** -100, top))


# the game's box with no tiny intercept or slope
UNIT_GAME_BOX = dict(GAME_BOX, p0=magnitude(2.0),
                     slopes=st.one_of(st.just((0.0, 0.0)), st.tuples(magnitude(2.0), magnitude(2.0))))
PRINCIPAL_BOX = dict(
    gammas=st.tuples(*[st.floats(*GAMMA_RANGE)] * 2),
    sigmas=st.tuples(*[st.floats(*SIGMA_RANGE)] * 2),
    etas=st.tuples(*[st.floats(*ETA_RANGE)] * 3),
    prices=st.tuples(*[magnitude(2.0)] * 3),
    weights=st.tuples(magnitude(2.0), magnitude(2.0)),
    delta=st.builds(operator.mul, st.sampled_from((1.0, -1.0)), magnitude(2.0)),
    horizon=st.floats(0.05, 2.0),
)
# a best response's firm and opponent flow, as node samples on 201 nodes
RESPONSE_BOX = dict(UNIT_GAME_BOX, firm=st.sampled_from((1, 2)), seed=st.integers(0, 2 ** 32 - 1))


def box_principal(kind, gammas, sigmas, etas, prices, weights, delta, horizon):
    """The regulated model of ``kind`` at a draw of ``PRINCIPAL_BOX``."""
    params = principal_params(kind, gammas, sigmas, etas[:2] if kind is Kind.SINGLE_FIRM else etas)
    return replace(params, p0=prices[0], p1=prices[1], p2=prices[2], kappa=weights[0],
                   lambda_=weights[1], delta=delta, horizon=horizon)


def opponent_flow(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-2.0, 2.0, 201)


def respond(firm: int, flow: np.ndarray):
    """Firm ``firm``'s best response to the node samples ``flow`` on 201 nodes, as a solve of the params."""
    return lambda params: best_response(params, firm, flow, 201)


@settings(max_examples=200, deadline=None)
@given(c=st.sampled_from(FACTORS), **UNIT_GAME_BOX)
def test_game_coefficients_are_money(c, gammas, etas, sigmas, p0, slopes, horizon):
    params = game_params(gammas, etas, sigmas, p0, slopes, horizon)
    assert_covariant(solve_201(solve_nash), params, c)


@pytest.mark.parametrize("kind", [Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED])
@settings(max_examples=50, deadline=None)
@given(c=st.sampled_from(FACTORS), **PRINCIPAL_BOX)
# firm 1's rate constant a = 1.8780162999606427 has a ** 2 != a * a, as
# libm's pow rounds it, so a coupling m = a ** 2 / b - c missed the law by an ulp
@example(c=0.125, gammas=(1.8420162639607867, 1.0), sigmas=(0.3, 1.0), etas=(1.0, 2.00001, 0.5),
         prices=(0.0, 0.0, 0.0), weights=(0.0, 1.0), delta=0.0, horizon=1.0)
def test_principal_coefficients_are_money(kind, c, gammas, sigmas, etas, prices, weights, delta, horizon):
    params = box_principal(kind, gammas, sigmas, etas, prices, weights, delta, horizon)
    assert_covariant(solve_201(solve_principal), params, c)


@settings(max_examples=200, deadline=None)
@given(c=st.sampled_from(FACTORS), **RESPONSE_BOX)
def test_best_response_coefficients_are_money(c, gammas, etas, sigmas, p0, slopes, horizon, firm, seed):
    # an effort carries no money, so the opponent flow is the same
    flow = opponent_flow(seed)
    assert_covariant(respond(firm, flow), game_params(gammas, etas, sigmas, p0, slopes, horizon), c)


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


def solved_in_quantity(solve, params, quantity: float, keep=()) -> np.ndarray | float:
    """:func:`solved` on ``rescaled(params, quantity=quantity, keep=keep)``."""
    return solved(solve, rescaled(params, quantity=quantity, keep=keep))


def assert_quantity_covariant(solve, params, quantity: float, powers: np.ndarray) -> None:
    base, scaled = solved(solve, params), solved_in_quantity(solve, params, quantity)
    # one 1e12 bound cannot carry a single quantity unit when the columns scale
    # by different powers of it, so an escape on either side is skipped
    assume(not isinstance(base, float) and not isinstance(scaled, float))
    assert scaled.tobytes() == (base * quantity ** powers).tobytes()


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from(FACTORS), **UNIT_GAME_BOX)
# (sigma1 * q) ** 2 != sigma1 ** 2 * q * q here, so the law failed while the solvers squared with **
@example(q=8.0, gammas=(1.5, 1.0), etas=(1.0, 1.0), sigmas=(0.9179837724128391, 0.3), p0=1.0,
         slopes=(0.6, 0.4), horizon=1.0)
def test_game_coefficients_are_quantities(q, gammas, etas, sigmas, p0, slopes, horizon):
    params = game_params(gammas, etas, sigmas, p0, slopes, horizon)
    assert_quantity_covariant(solve_201(solve_nash), params, q, NASH_COLUMN_POWER)


@pytest.mark.parametrize("kind", [Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED])
@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from(FACTORS), **PRINCIPAL_BOX)
@example(q=8.0, gammas=(1.5, 1.0), sigmas=(0.9179837724128391, 0.3), etas=(1.0, 1.0, 1.0),
         prices=(1.0, 0.6, 0.4), weights=(1.0, 1.0), delta=1.0, horizon=1.0)
def test_principal_coefficients_are_quantities(kind, q, gammas, sigmas, etas, prices, weights, delta,
                                               horizon):
    params = box_principal(kind, gammas, sigmas, etas, prices, weights, delta, horizon)
    assert_quantity_covariant(solve_201(solve_principal), params, q, PRINCIPAL_COLUMN_POWER)


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from(FACTORS), **RESPONSE_BOX)
def test_best_response_coefficients_are_quantities(q, gammas, etas, sigmas, p0, slopes, horizon, firm, seed):
    # an effort is a quantity per time, so the opponent flow scales by q
    params, flow = game_params(gammas, etas, sigmas, p0, slopes, horizon), opponent_flow(seed)
    base = solved(respond(firm, flow), params)
    scaled = solved(respond(firm, flow * q), rescaled(params, quantity=q))
    assume(not isinstance(base, float) and not isinstance(scaled, float))
    assert scaled.tobytes() == (base * q ** BR_COLUMN_POWER).tobytes()


@pytest.mark.parametrize("q", [f for f in FACTORS if f != 1.0])
@pytest.mark.parametrize("fixture", [TWO_FIRM_FIXTURE, SINGLE_FIRM_FIXTURE], ids=["two-firm", "single-firm"])
def test_regulated_intercept_left_in_the_old_unit_breaks_the_identity(q, fixture):
    # the regulated p0 is a price per unit of quantity, unlike the game's
    params = validate_params(fixture)
    base = solved(solve_201(solve_principal), params)
    wrong = solved_in_quantity(solve_201(solve_principal), params, q, keep=("p0",))
    assert not (isinstance(wrong, np.ndarray) and np.array_equal(wrong, base * q ** PRINCIPAL_COLUMN_POWER))


def assert_time_covariant(base, scaled, tau: float) -> None:
    """:func:`solved` in a time unit ``tau`` times smaller (``scaled``) against
    the original (``base``): the same coefficients, or an escape at the same
    node, its time scaled by ``tau``."""
    if isinstance(base, float):
        assert isinstance(scaled, float) and scaled == tau * base
    else:
        assert isinstance(scaled, np.ndarray) and scaled.tobytes() == base.tobytes()


def assert_solve_time_covariant(solve, params, tau: float) -> None:
    assert_time_covariant(solved(solve, params), solved(solve, rescaled(params, time=tau)), tau)


CONFIGS = pytest.mark.parametrize("fixture, solver", [
    (NASH_FIXTURE, solve_nash), (TWO_FIRM_FIXTURE, solve_principal), (SINGLE_FIRM_FIXTURE, solve_principal),
], ids=["nash", "two-firm", "single-firm"])


@pytest.mark.parametrize("tau", TIME_FACTORS)
@CONFIGS
def test_configs_are_time_covariant(tau, fixture, solver):
    assert_solve_time_covariant(solve_201(solver), validate_params(fixture), tau)


@settings(max_examples=300, deadline=None)
@given(tau=st.sampled_from(TIME_FACTORS), **UNIT_GAME_BOX)
# escapes at node 20 of 201
@example(tau=16.0, gammas=(0.6815537387759409, 1.140059611096553), etas=(2.7739727292051763, 0.5115039239252409),
         sigmas=(0.4354658906964482, 0.0), p0=1.2153278213417227, slopes=(1.526830654572369, 0.7410671682018886),
         horizon=1.0879037792163448)
def test_game_coefficients_are_time_covariant(tau, gammas, etas, sigmas, p0, slopes, horizon):
    assert_solve_time_covariant(solve_201(solve_nash), game_params(gammas, etas, sigmas, p0, slopes, horizon),
                                tau)


@pytest.mark.parametrize("kind", [Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED])
@settings(max_examples=100, deadline=None)
@given(tau=st.sampled_from(TIME_FACTORS), **PRINCIPAL_BOX)
def test_principal_coefficients_are_time_covariant(kind, tau, gammas, sigmas, etas, prices, weights, delta,
                                                   horizon):
    params = box_principal(kind, gammas, sigmas, etas, prices, weights, delta, horizon)
    assert_solve_time_covariant(solve_201(solve_principal), params, tau)


@settings(max_examples=200, deadline=None)
@given(tau=st.sampled_from(TIME_FACTORS), **RESPONSE_BOX)
def test_best_response_coefficients_are_time_covariant(tau, gammas, etas, sigmas, p0, slopes, horizon, firm,
                                                       seed):
    # an effort is a quantity per time, so the opponent flow scales by 1/tau
    params, flow = game_params(gammas, etas, sigmas, p0, slopes, horizon), opponent_flow(seed)
    scaled = solved(respond(firm, flow / tau), rescaled(params, time=tau))
    assert_time_covariant(solved(respond(firm, flow), params), scaled, tau)


@pytest.mark.parametrize("tau", TIME_FACTORS)
@CONFIGS
def test_volatility_scaled_as_a_rate_breaks_the_identity(tau, fixture, solver):
    # sigma carries the root of a time: scaling it by 1/tau, as a rate, is wrong
    params = validate_params(fixture)
    base = solved(solve_201(solver), params)
    wrong = solved(solve_201(solver), replace(rescaled(params, time=tau), sigma1=params.sigma1 / tau,
                                              sigma2=params.sigma2 / tau))
    assert not (isinstance(wrong, np.ndarray) and np.array_equal(wrong, base))


class TestSquaredVolatility:
    """Each square of a volatility that a test can read is ``sigma * sigma``."""

    def test_game_arguments(self):
        params = replace(validate_params(NASH_FIXTURE), sigma1=ULP_SIGMA, sigma2=ULP_SIGMA / 4)
        assert ULP_SIGMA ** 2 != ULP_SIGMA * ULP_SIGMA
        assert nash._game_args(params)[:2] == (ULP_SIGMA * ULP_SIGMA, (ULP_SIGMA / 4) * (ULP_SIGMA / 4))

    REGULATED = pytest.mark.parametrize("fixture", [SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE],
                                        ids=["single-firm", "two-firm"])

    @REGULATED
    def test_rate_constants(self, fixture):
        # c_1 = eta * sigma_1^2, with eta = eta_p (single firm) or eta_bar_2 (two firms)
        params = replace(validate_params(fixture), sigma1=ULP_SIGMA)
        single = params.kind is Kind.SINGLE_FIRM
        eta = params.eta_p if single else contract.effective_aversions(params).eta_bar_2
        assert contract._rate_table(params)[0][2] == eta * (ULP_SIGMA * ULP_SIGMA)

    @REGULATED
    def test_simulator_step(self, fixture):
        params = replace(validate_params(fixture), sigma1=ULP_SIGMA)
        v = solve_principal(params, 11)
        step = mc._PrincipalStep(params, v, v.grid.nodes, (0.0,) * len(params.agent_aversions()))
        assert step.sq[0, 0] == ULP_SIGMA * ULP_SIGMA

    def test_no_power_operator_in_the_package(self):
        # libm's pow can miss the correctly rounded square by an ulp, which
        # broke the laws above twice; every power in the package is a product
        sources = sorted(Path(decarb.__file__).parent.glob("*.py"))
        powers = [f"{path.name}:{node.lineno}" for path in sources
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)]
        assert sources and not powers


class TestGeneratedCode:
    """Generated source reaches ``exec`` only behind the table guard, and
    adds no name that a table could hold."""

    def test_exec_only_behind_the_table_guard(self):
        sources = sorted(Path(decarb.__file__).parent.glob("*.py"))
        behind, outside = [], []
        for path in sources:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            guarded = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                       and (path.name, fn.name) == ("riccati.py", "_compile") for node in ast.walk(fn)}
            for node in ast.walk(tree):
                called = isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
                if called in {"exec", "eval", "compile"}:
                    (behind if id(node) in guarded else outside).append(f"{path.name}:{node.lineno}")
        assert behind and not outside

    @pytest.mark.parametrize("table", [riccati._LQG, nash._NASH, nash._nash_live(), *nash._BR_TABLES.values()],
                             ids=lambda table: table.name)
    def test_generated_names_start_with_an_underscore(self, table):
        named = {*table.states, *table.params, *(name for name, _ in table.consts), table.drive}
        for function in ("rhs", "march"):
            code = riccati._compile(table)[function].__code__
            assert all(name.startswith("_") for name in code.co_varnames if name not in named)
            assert code.co_names in ((), ("extend",))  # no global or builtin, only the rows' method


@pytest.mark.parametrize("kind", [Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED])
@settings(max_examples=100, deadline=None)
@given(grad=st.tuples(*[st.builds(operator.mul, st.sampled_from((1.0, -1.0)), magnitude(4.0))] * 2),
       c=st.sampled_from(FACTORS), q=st.sampled_from(FACTORS), tau=st.sampled_from(TIME_FACTORS), **PRINCIPAL_BOX)
def test_rates_are_money_per_quantity(kind, grad, c, q, tau, gammas, sigmas, etas, prices, weights, delta,
                                      horizon):
    # the gradient of the principal's value and each incentive rate are money
    # per quantity; the rate factors are ratios of flows, and keep no time
    params = box_principal(kind, gammas, sigmas, etas, prices, weights, delta, horizon)
    rates = contract.rates_single if kind is Kind.SINGLE_FIRM else contract.rates_two
    v = np.array(grad)
    base = rates(params, v).as_array()
    assert rates(rescaled(params, money=c), v * c).as_array().tobytes() == (base * c).tobytes()
    assert rates(rescaled(params, quantity=q), v / q).as_array().tobytes() == (base / q).tobytes()
    assert rates(rescaled(params, time=tau), v).as_array().tobytes() == base.tobytes()


@pytest.mark.parametrize("keep", [("gamma1",), ("sigma1",)])
@pytest.mark.parametrize("fixture", [SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE], ids=["single-firm", "two-firm"])
def test_rates_with_a_field_left_in_the_old_quantity_unit_break_the_identity(fixture, keep):
    params = validate_params(fixture)
    rates = contract.rates_single if params.kind is Kind.SINGLE_FIRM else contract.rates_two
    v = np.array([0.7, -0.3])
    wrong = rates(rescaled(params, quantity=2.0, keep=keep), v / 2.0).as_array()
    assert not np.array_equal(wrong, rates(params, v).as_array() / 2.0)


# a frozen-seed run off the origin, so the game marches both halves of each pair
SIM = dict(n_paths=64, dt=0.02, seed=11, x0=(0.1, -0.2), y0=0.3)
PRINCIPAL_FIXTURES = pytest.mark.parametrize("fixture", [SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE],
                                             ids=["single-firm", "two-firm"])


def estimate_bits(estimates) -> bytes:
    """The bits of each estimate's mean and standard error, in order."""
    return np.array([(e.mean, e.std_err) for e in estimates]).tobytes()


def simulated_principal(params, scheme: str, x0=SIM["x0"], y0=SIM["y0"]):
    """Every utility estimate of a frozen-seed run of the principal's model."""
    cfg = mc.SimConfig(**dict(SIM, x0=x0, y0=y0))
    principal, agents = mc.simulate_principal(params, solve_principal(params, 201), cfg, scheme)
    return principal, *agents


def simulated_game(params, scheme: str, deviation=None, x0=SIM["x0"]):
    strategies = nash.feedback_strategies(solve_nash(params, 201), params)
    return mc.simulate_nash(params, strategies, mc.SimConfig(**dict(SIM, x0=x0)), deviation, scheme)


class TestFrozenSeedMonteCarlo:
    """A utility -exp(-eta*Z) carries no unit: in a money unit c times
    smaller every payoff Z (and the initial payment y0) scales by c and eta
    by 1/c, so with c a power of two each estimate keeps its bits.  In a
    quantity unit L times smaller the state, its noise and each effort scale
    by L and each incentive rate by 1/L, so every money flow, and so every
    estimate, keeps its bits too.  The draws are the same on both sides, so
    no sampling error enters."""

    SCHEMES = pytest.mark.parametrize("scheme", ["pc", "euler"])
    UNITS = pytest.mark.parametrize("unit", [0.25, 2.0, 8.0])
    DEVIATIONS = pytest.mark.parametrize("shift", [None, -0.05], ids=["eq", "dev"])

    @SCHEMES
    @PRINCIPAL_FIXTURES
    @UNITS
    def test_principal_estimates_keep_their_bits_in_money(self, fixture, scheme, unit):
        params = validate_params(fixture)
        base = simulated_principal(params, scheme)
        scaled = simulated_principal(rescaled(params, money=unit), scheme, y0=unit * SIM["y0"])
        assert estimate_bits(scaled) == estimate_bits(base)

    @SCHEMES
    @PRINCIPAL_FIXTURES
    @UNITS
    def test_principal_estimates_keep_their_bits_in_quantity(self, fixture, scheme, unit):
        params = validate_params(fixture)
        base = simulated_principal(params, scheme)
        scaled = simulated_principal(rescaled(params, quantity=unit), scheme, x0=tuple(unit * x for x in SIM["x0"]))
        assert estimate_bits(scaled) == estimate_bits(base)

    @SCHEMES
    @UNITS
    @DEVIATIONS
    def test_game_estimates_keep_their_bits_in_money(self, scheme, unit, shift):
        # a deviation's effort shift carries no money
        params = validate_params(NASH_FIXTURE)
        deviation = None if shift is None else mc.Deviation(2, 1.1, shift)
        base = simulated_game(params, scheme, deviation)
        assert estimate_bits(simulated_game(rescaled(params, money=unit), scheme, deviation)) == estimate_bits(base)

    @SCHEMES
    @UNITS
    @DEVIATIONS
    def test_game_estimates_keep_their_bits_in_quantity(self, scheme, unit, shift):
        # an effort shift is a quantity per time
        params = validate_params(NASH_FIXTURE)
        base = simulated_game(params, scheme, None if shift is None else mc.Deviation(2, 1.1, shift))
        scaled = simulated_game(rescaled(params, quantity=unit), scheme,
                                None if shift is None else mc.Deviation(2, 1.1, unit * shift),
                                x0=tuple(unit * x for x in SIM["x0"]))
        assert estimate_bits(scaled) == estimate_bits(base)
