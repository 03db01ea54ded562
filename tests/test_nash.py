import hashlib
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decarb import (
    BlowUp,
    OutOfHorizon,
    OutOfRange,
    WrongKind,
    best_response,
    certainty_surface,
    feedback_strategies,
    ode_residual,
    payoff_rate,
    solve_nash,
    validate_params,
)
from decarb.nash import (BR_COLUMNS, NASH_COLUMNS, _BR_TABLES, _NASH, _VANISHING, _game_args, _nash_live,
                         sample_opponent)
from decarb.riccati import TimeGrid, rk4_stage_times
from decarb.verify import hjb_residual_nash
from conftest import GAME_BOX, NASH_FIXTURE, game_params, reference_rk4, swap_firms

ZERO_ECONOMY = dict(NASH_FIXTURE, p0=0.0, p1=0.0, p2=0.0)

# Solver outputs recorded at 1001 nodes before the ODE layer moved from numpy
# arrays to float arithmetic; the move keeps every bit.  Firm 2's columns
# (and each firm-2 digest below) were re-recorded when firm 2's equations
# became the firm swap of firm 1's: as firm 1's columns of the swapped game,
# permuted, from the solver that wrote firm 2's equations out by hand.  At
# moved by at most 2.2e-16 here, Dt by at most 1.7e-18 in the best responses.
NASH_1001_SHA256 = "b58d9e2228b4ef22a4b35d272b8adecae2f6202ee0a58d037222d47432a70d00"
NASH_1001_ROWS = {
    0: (-11.314711877402551, -1.9843026272198094, -5.054547509222671, 0.0, 0.0,
        0.9670831094715636, -8.782920278881205, -6.34869232150845, -8.718055694215696,
        0.0, 0.0, 0.9568171545275417),
    500: (-0.7375929050082384, -0.014137883060734347, -0.25543141381350987, 0.0, 0.0,
          0.49661485110994347, -0.02220846775065576, -0.4683997417894411,
          -0.38234976494504846, 0.0, 0.0, 0.49509948392806663),
}
BR2_FLOW05_1001_SHA256 = "36e48bcd8de0863c3d6b7bb44a685950c4a7db0458facd5b1ad5d2f714dd6e72"
BR2_FLOW05_1001_ROWS = {
    0: (-0.1538255773620931, -1.0647301640773816, -0.8036187959381054,
        -0.04831001640442008, -0.21394227975433122, 0.9709534535772414),
    500: (-0.014720643497800879, -0.4254758244971987, -0.319592164312387,
          -0.0023029094641365735, -0.040564928110459225, 0.4951401735626916),
}

# best_response at 1001 nodes against time-varying opponents, SHA-256 of
# .values.tobytes(), recorded before the opponent flow was interpolated once
# per solve instead of at every stage
BR_1001_VARYING_SHA256 = {
    (1, "callable"): "397bd61ecceec3e04861327a95099e0286b6215f16dd6e8f2f52f70c2bee8b95",
    (1, "samples"): "5cd258d20426140e70ce741fe17a10b41e2c573a0683cc04d8736c40cd6b404f",
    (2, "callable"): "6270d37b34e93308f99a4b84ffba7034a18b9c1df43493c7da5b63f3f56361b6",
    (2, "samples"): "62951fe32a1a32e5bbf544df66839b329c6dfc6a38e393ce599ce8e2d8c12ce6",
}
# Nash escape times (horizon, n_nodes) -> t_escape, recorded with a blow-up
# check after every step
NASH_T_ESCAPE = {
    (1.05, 201): 0.00525, (1.05, 1001): 0.011550000000000001, (1.05, 16001): 0.012796875000000003,
    (1.2, 201): 0.156, (1.2, 1001): 0.1608, (1.2, 16001): 0.162825,
    (2.0, 201): 0.9500000000000001, (2.0, 1001): 0.96, (2.0, 16001): 0.96275,
}

# firm relabelling: (gamma, sigma, eta) swap between the firms, p1 <-> p2, and
# firm 1's column j becomes firm 2's column SWAPPED_COLUMNS[j]
SWAPPED_COLUMNS = {"A": "Bt", "B": "At", "C": "Ct", "D": "Et", "E": "Dt", "F": "Ft"}


class TestBestResponse:
    def test_zero_economy_forces_zero(self):
        p = validate_params(ZERO_ECONOMY)
        for firm, opp in ((1, 0.0), (2, 0.7)):
            coeffs = best_response(p, firm, opp, n_nodes=101)
            assert not coeffs.values.any()

    def test_terminal_conditions_exact(self, nash_params):
        coeffs = best_response(nash_params, 1, 0.5, n_nodes=101)
        assert np.all(coeffs.values[-1] == 0.0)

    def test_quadratic_block_ignores_opponent(self, nash_params):
        # A, B, C close on themselves, so they match node for node across
        # opponents; D and E pick the opponent up
        runs = [best_response(nash_params, 1, a2, n_nodes=401) for a2 in (0.0, 0.5, 1.0)]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].values[:, :3], other.values[:, :3])
        d_gap = np.max(np.abs(runs[0].column("D") - runs[2].column("D")))
        e_gap = np.max(np.abs(runs[0].column("E") - runs[2].column("E")))
        assert d_gap > 1e-3 and e_gap > 1e-3

    def test_opponent_forms(self, nash_params):
        grid = TimeGrid(1.0, 101)
        const = best_response(nash_params, 1, 0.5, n_nodes=101)
        from_callable = best_response(nash_params, 1, lambda t: 0.5, n_nodes=101)
        from_array = best_response(nash_params, 1, np.full(101, 0.5), n_nodes=101)
        np.testing.assert_array_equal(const.values, from_callable.values)
        np.testing.assert_array_equal(const.values, from_array.values)
        with pytest.raises(OutOfRange) as exc:
            sample_opponent(np.zeros(7), grid)
        assert exc.value.field == "opponent"

    @pytest.mark.parametrize("opponent", [
        "0.5",
        True,
        float("nan"),
        float("inf"),
        np.array([0.5] * 100 + [np.nan]),
        [0.5] * 100 + [None],
        lambda t: np.nan if t > 0.5 else 0.5,
    ], ids=["text", "bool", "nan", "inf", "array-nan", "list-none", "callable-nan"])
    def test_malformed_opponent_rejected(self, nash_params, opponent):
        # a text or bool scalar used to solve as a number, and a non-finite
        # sample used to surface later as a blow-up of the solve
        with pytest.raises(OutOfRange) as exc:
            best_response(nash_params, 1, opponent, n_nodes=101)
        assert exc.value.field == "opponent"

    def test_firm2_system(self, nash_params):
        coeffs = best_response(nash_params, 2, 0.3, n_nodes=401)
        assert ode_residual(coeffs, nash_params) <= 1e-6

    def test_ode_residual_at_default_grid(self, nash_params):
        coeffs = best_response(nash_params, 1, 0.5)
        assert ode_residual(coeffs, nash_params) <= 1e-6

    def test_ode_residual_refined_grid(self, nash_params):
        coeffs = best_response(nash_params, 1, 0.5, n_nodes=2001)
        assert ode_residual(coeffs, nash_params) <= 1e-8

    def test_firm_index_validation(self, nash_params):
        for firm in (0, 3):
            with pytest.raises(OutOfRange) as exc:
                best_response(nash_params, firm, 0.0)
            assert exc.value.field == "firm"

    def test_wrong_kind(self, two_firm):
        with pytest.raises(WrongKind):
            best_response(two_firm, 1, 0.0)


class TestSolveNash:
    def test_zero_economy_forces_zero(self):
        p = validate_params(ZERO_ECONOMY)
        coeffs = solve_nash(p, n_nodes=101)
        assert not coeffs.values.any()
        s1, s2 = feedback_strategies(coeffs, p)
        assert s1(0.3, 1.2, -0.7) == 0.0
        assert s2(0.3, 1.2, -0.7) == 0.0

    def test_terminal_conditions_exact(self, nash_params):
        coeffs = solve_nash(nash_params, n_nodes=201)
        assert np.all(coeffs.values[-1] == 0.0)

    def test_residual_and_negative_control(self, nash_params):
        coeffs = solve_nash(nash_params, n_nodes=8001)
        assert ode_residual(coeffs, nash_params) <= 1e-6
        bumped = coeffs.values.copy()
        bumped[:, NASH_COLUMNS.index("D")] += 0.1
        assert ode_residual(replace(coeffs, values=bumped), nash_params) > 1e-3

    def test_residual_does_not_skip_nan(self, nash_params):
        # a non-finite coefficient must fail every residual gate, not drop out
        # of the maximum
        nash = solve_nash(nash_params, n_nodes=201)
        br = best_response(nash_params, 1, 0.5, n_nodes=201)
        for coeffs in (nash, br):
            bad = coeffs.values.copy()
            bad[100, 0] = np.nan
            assert np.isnan(ode_residual(replace(coeffs, values=bad), nash_params))

    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    def test_residual_needs_an_interior_node(self, nash_params, n_nodes):
        for coeffs in (solve_nash(nash_params, n_nodes), best_response(nash_params, 1, 0.5, n_nodes)):
            with pytest.raises(OutOfRange) as exc:
                ode_residual(coeffs, nash_params)
            assert exc.value.field == "n_nodes"

    def test_residual_on_five_nodes(self, nash_params):
        for coeffs in (solve_nash(nash_params, 5), best_response(nash_params, 1, 0.5, 5)):
            assert np.isfinite(ode_residual(coeffs, nash_params))

    def test_blow_up_reported_as_existence_failure(self):
        p = validate_params(dict(NASH_FIXTURE, horizon=1.5))
        with pytest.raises(BlowUp) as exc:
            solve_nash(p, n_nodes=2001)
        assert "equilibrium" in str(exc.value)
        assert 0.0 < exc.value.t_escape < 1.5

    def test_wrong_kind(self, two_firm):
        with pytest.raises(WrongKind):
            solve_nash(two_firm)

    @pytest.mark.parametrize("horizon", [1.0, 1.05])
    def test_numpy_scalar_params_march_in_floats(self, horizon):
        # ModelParams built directly may hold numpy scalars; the march must
        # still run on floats, so an escape is a BlowUp, never a numpy
        # overflow warning, and the rows keep every bit
        floats = validate_params(dict(NASH_FIXTURE, horizon=horizon))
        scalars = replace(floats, **{f.name: np.float64(getattr(floats, f.name))
                                     for f in fields(floats) if type(getattr(floats, f.name)) is float})
        assert type(scalars.horizon) is np.float64
        outcomes = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (floats, scalars):
                try:
                    outcomes.append(solve_nash(p, n_nodes=1001).values)
                except BlowUp as exc:
                    outcomes.append(exc.t_escape)
        if horizon == 1.0:
            assert np.array_equal(*outcomes)
        else:
            assert outcomes[0] == outcomes[1] == pytest.approx(0.01155, abs=1e-12)


class TestPinnedOutputs:
    def test_nash_bits(self, nash_params):
        values = solve_nash(nash_params, n_nodes=1001).values
        for k, row in NASH_1001_ROWS.items():
            assert np.array_equal(values[k], row)
        assert hashlib.sha256(values.tobytes()).hexdigest() == NASH_1001_SHA256

    def test_best_response_bits(self, nash_params):
        values = best_response(nash_params, 2, 0.5, n_nodes=1001).values
        for k, row in BR2_FLOW05_1001_ROWS.items():
            assert np.array_equal(values[k], row)
        assert hashlib.sha256(values.tobytes()).hexdigest() == BR2_FLOW05_1001_SHA256

    @pytest.mark.parametrize("firm, form", sorted(BR_1001_VARYING_SHA256))
    def test_best_response_time_varying_opponent_bits(self, nash_params, firm, form):
        nodes = TimeGrid(nash_params.horizon, 1001).nodes
        opponent = (lambda t: 0.3 + 0.5 * t) if form == "callable" else 0.2 * nodes
        values = best_response(nash_params, firm, opponent, n_nodes=1001).values
        digest = hashlib.sha256(values.tobytes()).hexdigest()
        assert digest == BR_1001_VARYING_SHA256[firm, form]

    @pytest.mark.parametrize("horizon, n_nodes", sorted(NASH_T_ESCAPE))
    def test_escape_times(self, horizon, n_nodes):
        with pytest.raises(BlowUp) as exc:
            solve_nash(validate_params(dict(NASH_FIXTURE, horizon=horizon)), n_nodes)
        assert exc.value.t_escape == NASH_T_ESCAPE[horizon, n_nodes]


class TestFusedKernel:
    """The compiled block march against the reference stepper on each system's right-hand side."""

    @pytest.mark.parametrize("n_nodes", [201, 1001])
    def test_nash_equals_generic_stepper(self, nash_params, n_nodes):
        grid = TimeGrid(nash_params.horizon, n_nodes)
        generic = reference_rk4(_NASH.rhs(_game_args(nash_params)), np.zeros(12), grid)
        assert np.array_equal(solve_nash(nash_params, n_nodes).values, generic)

    @pytest.mark.parametrize("n_nodes", [201, 1001])
    @pytest.mark.parametrize("form", ["scalar", "array", "callable"])
    @pytest.mark.parametrize("firm", [1, 2])
    def test_best_response_equals_generic_stepper(self, nash_params, n_nodes, form, firm):
        grid = TimeGrid(nash_params.horizon, n_nodes)
        opponent = {"scalar": 0.5, "array": 0.2 * grid.nodes, "callable": lambda t: 0.3 + 0.5 * t}[form]
        # the opponent flow keyed by stage time, as the solver looked it up before the fused march
        times = rk4_stage_times(grid)
        flow = dict(zip(times, np.interp(times, grid.nodes, sample_opponent(opponent, grid)).tolist()))
        rhs = _BR_TABLES[firm].rhs(_game_args(nash_params))
        generic = reference_rk4(lambda t, u: rhs(flow[t], u), np.zeros(6), grid)
        assert np.array_equal(best_response(nash_params, firm, opponent, n_nodes).values, generic)

    @pytest.mark.parametrize("horizon, t_escape", [(1.04, 0.002795), (1.05, 0.012796875000000003)])
    def test_escape_equals_generic_stepper(self, horizon, t_escape):
        params = validate_params(dict(NASH_FIXTURE, horizon=horizon))
        with pytest.raises(BlowUp) as fused:
            solve_nash(params, 16001)
        with pytest.raises(BlowUp) as generic:
            reference_rk4(_NASH.rhs(_game_args(params)), np.zeros(12), TimeGrid(horizon, 16001))
        assert fused.value.t_escape == generic.value.t_escape == t_escape


def march_outcome(solve):
    """``solve()``'s rows as bytes, or the escape time of the BlowUp it raises."""
    try:
        return solve().tobytes()
    except BlowUp as exc:
        return exc.t_escape


@settings(max_examples=200, deadline=None)
@given(**GAME_BOX)
def test_live_march_equals_full_system(gammas, etas, sigmas, p0, slopes, horizon):
    # solve_nash marches eight states; the twelve-state reference must give
    # the same bits, vanishing columns included, or escape at the same node.
    # About half the box escapes at 201 nodes; such a draw is compared again
    # on half the time left to its escape, where both march a trajectory
    def live_and_full(params):
        grid = TimeGrid(params.horizon, 201)
        return (march_outcome(lambda: solve_nash(params, grid.n_nodes).values),
                march_outcome(lambda: reference_rk4(_NASH.rhs(_game_args(params)), np.zeros(12), grid)))

    params = game_params(gammas, etas, sigmas, p0, slopes, horizon)
    live, full = live_and_full(params)
    assert live == full
    if isinstance(live, float):
        live, full = live_and_full(replace(params, horizon=0.5 * (horizon - live)))
        assert isinstance(live, bytes) and live == full


def vanishes(table, args, others) -> bool:
    """Whether ``table``'s derivatives of D, E, Dt and Et are all 0 where those
    four states are 0.0 and the other eight take the values ``others``."""
    others = iter(others)
    u = [0.0 if name in _VANISHING else next(others) for name in NASH_COLUMNS]
    derivs = table.rhs(args)(None, u)
    return all(derivs[NASH_COLUMNS.index(name)] == 0.0 for name in _VANISHING)


def test_live_derivatives_fold_the_vanished_zeros():
    # the literal 0.0 of a vanishing state leaves no arithmetic behind
    table = _nash_live()
    assert not any("* 0.0" in d or "0.0 +" in d or "+ 0.0" in d for d in table.derivs)
    live = dict(zip(table.states, table.derivs))
    assert live["F"] == "0.0 - hs1 * A - hs2 * B - p0"
    assert live["Ft"] == "0.0 - hs2 * Bt - hs1 * At - p0"


# the game with a constant added to D's derivative, which vanishes() must reject
_BUMPED = _NASH._replace(name="nash_bumped", derivs=tuple(
    d + " + 1.0" if name == "D" else d for name, d in zip(NASH_COLUMNS, _NASH.derivs)))


@settings(max_examples=300, deadline=None)
@given(args=st.tuples(*[st.floats(-5.0, 5.0)] * 9), others=st.tuples(*[st.floats(-1e3, 1e3)] * 8))
def test_linear_coefficients_stay_at_zero(args, others):
    # D, E, Dt and Et have zero derivatives wherever they are zero, whatever
    # the other states and the parameters: so from zero terminal data they
    # vanish, which solve_nash relies on when it marches only the other eight
    assert vanishes(_NASH, args, others)
    assert not vanishes(_BUMPED, args, others)


class TestFirmSwap:
    """Relabelling the firms maps every solved object onto its mirror, bit for bit."""

    @pytest.mark.parametrize("n_nodes", [201, 1001, 16001])
    def test_relabelling_maps_columns(self, n_nodes):
        base = solve_nash(validate_params(NASH_FIXTURE), n_nodes)
        mirror = solve_nash(validate_params(swap_firms(NASH_FIXTURE)), n_nodes)
        pairs = list(SWAPPED_COLUMNS.items()) + [(b, a) for a, b in SWAPPED_COLUMNS.items()]
        for own, other in pairs:
            assert np.array_equal(base.column(own), mirror.column(other)), (own, other)

    @pytest.mark.parametrize("form", ["scalar", "array", "callable"])
    def test_best_responses_map(self, nash_params, form):
        mirror = validate_params(swap_firms(NASH_FIXTURE))
        nodes = TimeGrid(nash_params.horizon, 1001).nodes
        opponent = {"scalar": 0.5, "array": 0.2 * nodes, "callable": lambda t: 0.3 + 0.5 * t}[form]
        for firm in (1, 2):
            own = best_response(nash_params, firm, opponent)
            other = best_response(mirror, 3 - firm, opponent)
            first, second = (own, other) if firm == 1 else (other, own)
            # a firm-2 response stores At..Ft in the columns named A..F
            for name, mirrored in SWAPPED_COLUMNS.items():
                assert np.array_equal(first.column(name), second.column(mirrored[:-1])), (firm, name)

    @pytest.mark.parametrize("horizon", [1.04, 1.05])
    def test_escape_times_equal(self, horizon):
        times = []
        for fixture in (NASH_FIXTURE, swap_firms(NASH_FIXTURE)):
            with pytest.raises(BlowUp) as exc:
                solve_nash(validate_params(dict(fixture, horizon=horizon)), 16001)
            times.append(exc.value.t_escape)
        assert times[0] == times[1]

    @pytest.mark.parametrize("n_nodes", [1001, 16001])
    def test_value_pde_residuals_map(self, n_nodes):
        base, mirror = (validate_params(f) for f in (NASH_FIXTURE, swap_firms(NASH_FIXTURE)))
        reports = hjb_residual_nash(solve_nash(base, n_nodes), base)
        mirrored = hjb_residual_nash(solve_nash(mirror, n_nodes), mirror)
        for r, q in zip(reports, mirrored[::-1]):
            assert r.max_residual == q.max_residual
            assert r.per_slice == q.per_slice
            assert r.argmax_t == q.argmax_t and r.argmax_x == q.argmax_x[::-1]


def loop_ode_residual(values, dt, rhs_at_node):
    """Node-by-node reference for the vectorized ode_residual."""
    worst = 0.0
    for k in range(2, len(values) - 2):
        est = (values[k - 2] - 8.0 * values[k - 1] + 8.0 * values[k + 1] - values[k + 2]) / (12.0 * dt)
        worst = max(worst, float(np.max(np.abs(est - np.array(rhs_at_node(k))))))
    return worst


class TestOdeResidualReference:
    def test_nash_equals_node_loop(self, nash_params):
        coeffs = solve_nash(nash_params, n_nodes=2001)
        v = coeffs.values
        rhs = _NASH.rhs(_game_args(nash_params))
        ref = loop_ode_residual(v, coeffs.grid.dt, lambda k: rhs(None, v[k]))
        assert ode_residual(coeffs, nash_params) == ref

    @pytest.mark.parametrize("firm", [1, 2])
    def test_best_response_equals_node_loop(self, nash_params, firm):
        coeffs = best_response(nash_params, firm, lambda t: 0.3 + 0.5 * t, n_nodes=2001)
        v, nodes = coeffs.values, coeffs.grid.nodes
        rhs = _BR_TABLES[firm].rhs(_game_args(nash_params))
        ref = loop_ode_residual(v, coeffs.grid.dt, lambda k: rhs(
            float(np.interp(nodes[k], nodes, coeffs.opponent)), v[k]))
        assert ode_residual(coeffs, nash_params) == ref


class TestFeedbackStrategies:
    def test_zero_at_terminal_time(self, nash_params):
        coeffs = solve_nash(nash_params, n_nodes=201)
        s1, s2 = feedback_strategies(coeffs, nash_params)
        assert s1(1.0, 0.8, -0.3) == pytest.approx(0.0, abs=1e-15)
        assert s2(1.0, 0.8, -0.3) == pytest.approx(0.0, abs=1e-15)

    def test_affine_rule_matches_columns(self, nash_params):
        coeffs = solve_nash(nash_params, n_nodes=201)
        s1, s2 = feedback_strategies(coeffs, nash_params)
        k = 40
        t = coeffs.grid.nodes[k]
        A, C, D = (coeffs.column(n)[k] for n in ("A", "C", "D"))
        Bt, Ct, Et = (coeffs.column(n)[k] for n in ("Bt", "Ct", "Et"))
        x, y = 0.7, -0.4
        assert s1(t, x, y) == pytest.approx(-1.5 * (A * x + C * y + D), rel=1e-12)
        assert s2(t, x, y) == pytest.approx(-1.0 * (Ct * x + Bt * y + Et), rel=1e-12)

    def test_gains_are_the_value_columns(self, nash_params):
        # a1 = -gamma1*(A x + C y + D) = -gamma1*dW1/dx and, by the firm swap,
        # a2 = -gamma2*(Ct x + Bt y + Et) = -gamma2*dW2/dy
        coeffs = solve_nash(nash_params, n_nodes=201)
        strategies = feedback_strategies(coeffs, nash_params)
        for s, firm, names in zip(strategies, (1, 2), (("A", "C", "D"), ("Ct", "Bt", "Et"))):
            assert (s.firm, s.gamma) == (firm, nash_params.gamma(firm))
            assert np.array_equal(s.nodes, coeffs.grid.nodes)
            for gain, name in zip((s.kx, s.ky, s.k0), names):
                assert np.array_equal(gain, coeffs.column(name)), (firm, name)

    def test_strategy_is_scaled_value_gradient(self, nash_params):
        # a1 = -gamma1 * dW1/dx with W1 rebuilt from the solved coefficients
        coeffs = solve_nash(nash_params, n_nodes=401)
        s1, s2 = feedback_strategies(coeffs, nash_params)
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(10):
            t = rng.uniform(0.0, 1.0)
            x, y = rng.normal(size=2)
            dw1_dx = (certainty_surface(coeffs, 1, t, x + h, y)
                      - certainty_surface(coeffs, 1, t, x - h, y)) / (2.0 * h)
            dw2_dy = (certainty_surface(coeffs, 2, t, x, y + h)
                      - certainty_surface(coeffs, 2, t, x, y - h)) / (2.0 * h)
            assert s1(t, x, y) == pytest.approx(-nash_params.gamma1 * dw1_dx, rel=1e-7, abs=1e-9)
            assert s2(t, x, y) == pytest.approx(-nash_params.gamma2 * dw2_dy, rel=1e-7, abs=1e-9)

    def test_vectorized_evaluation(self, nash_params):
        coeffs = solve_nash(nash_params, n_nodes=101)
        s1, _ = feedback_strategies(coeffs, nash_params)
        xs = np.array([0.0, 0.5, 1.0])
        ys = np.array([1.0, -1.0, 0.0])
        batch = s1(0.25, xs, ys)
        for i in range(3):
            assert batch[i] == pytest.approx(s1(0.25, xs[i], ys[i]), rel=1e-14)


class TestPayoffRate:
    def test_zero_economy_is_pure_cost(self):
        p = validate_params(ZERO_ECONOMY)
        flow = payoff_rate(p, 2.0, -1.0, (3.0, 1.0))
        assert flow[0] == pytest.approx(-3.0, abs=1e-15)
        assert flow[1] == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("x, y, a1, a2", [(0.1, 0.2, 0.3, 0.4), ([0.1, 1.0], [0.2, 2.0], [0.3, 1.0], [0.4, 2.0])])
    def test_both_firms_stack_each_firm(self, nash_params, x, y, a1, a2):
        # each row is that firm's flow, written out in the same operation order
        p = nash_params
        x, y, a1, a2 = map(np.asarray, (x, y, a1, a2))
        both = payoff_rate(p, x, y, np.array([a1, a2]))
        assert np.array_equal(both[0], p.p1 * x * x + p.p2 * x * y - p.p0 - a1 * a1 / (2.0 * p.gamma1))
        assert np.array_equal(both[1], p.p2 * y * y + p.p1 * x * y - p.p0 - a2 * a2 / (2.0 * p.gamma2))

    def test_wrong_kind(self, two_firm):
        with pytest.raises(WrongKind):
            payoff_rate(two_firm, 0.0, 0.0, (0.0, 0.0))

    @pytest.mark.parametrize("t", [-5.0, -1e-9, 1.0 + 1e-9, 4.0])
    def test_outside_horizon_raises(self, nash_params, t):
        # np.interp alone would clamp t onto the nodes and return an endpoint's rule
        coeffs = solve_nash(nash_params, n_nodes=101)
        for strategy in feedback_strategies(coeffs, nash_params):
            with pytest.raises(OutOfHorizon):
                strategy(t, 0.5, -0.5)

    def test_rounding_slack_at_horizon_ends(self, nash_params):
        coeffs = solve_nash(nash_params, n_nodes=101)
        for strategy in feedback_strategies(coeffs, nash_params):
            assert strategy(-1e-13, 0.5, -0.5) == strategy(0.0, 0.5, -0.5)
            assert strategy(1.0 + 1e-13, 0.5, -0.5) == strategy(1.0, 0.5, -0.5)


class TestContiguousColumns:
    """The game's and each best response's coefficients are stored
    column-major, so that neither a strategy nor a certainty surface copies a
    column per read; every read keeps the bits of ``np.interp`` on a
    row-major copy's strided columns."""

    def test_reads_copy_no_column(self, nash_params):
        game = solve_nash(nash_params, 201)
        assert game.values.flags.f_contiguous and game.values.flags.writeable
        for s in feedback_strategies(game, nash_params):
            for gain in (s.kx, s.ky, s.k0):
                assert gain.flags.c_contiguous and np.shares_memory(gain, game.values)

    def test_reads_keep_the_strided_columns_bits(self, nash_params):
        game = solve_nash(nash_params, 201)
        rows = np.ascontiguousarray(game.values)
        assert rows.tobytes() == game.values.tobytes()  # the same values, row-major
        nodes = game.grid.nodes
        gains = {1: ("A", "C", "D"), 2: ("Ct", "Bt", "Et")}
        rng = np.random.default_rng(31)
        for t, x, y in zip(rng.uniform(0.0, 1.0, 100), *rng.normal(size=(2, 100))):
            for s in feedback_strategies(game, nash_params):
                kx, ky, k0 = (np.interp(t, nodes, rows[:, NASH_COLUMNS.index(name)])
                              for name in gains[s.firm])
                want = -s.gamma * (kx * x + ky * y + k0)
                assert np.asarray(s(t, x, y)).tobytes() == np.asarray(want).tobytes()
            for firm in (1, 2):
                block = rows[:, 6 * firm - 6:6 * firm]
                a, b, c, d, e, f = (np.interp(t, nodes, column) for column in block.T)
                want = 0.5 * a * x * x + 0.5 * b * y * y + c * x * y + d * x + e * y + f
                got = certainty_surface(game, firm, t, x, y)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("firm", [1, 2])
    def test_best_response_reads_copy_no_column(self, nash_params, firm):
        response = best_response(nash_params, firm, lambda t: 0.3 - 0.2 * t, 201)
        assert response.values.flags.f_contiguous and response.values.flags.writeable
        rows = np.ascontiguousarray(response.values)
        nodes = response.grid.nodes
        rng = np.random.default_rng(37)
        for t, x, y in zip(rng.uniform(0.0, 1.0, 50), *rng.normal(size=(2, 50))):
            a, b, c, d, e, f = (np.interp(t, nodes, column) for column in rows.T)
            want = 0.5 * a * x * x + 0.5 * b * y * y + c * x * y + d * x + e * y + f
            got = certainty_surface(response, firm, t, x, y)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestCertaintySurface:
    @pytest.mark.parametrize("t", [-5.0, -1e-9, 1.0 + 1e-9, 4.0])
    def test_outside_horizon_raises(self, nash_params, t):
        # np.interp alone would clamp t onto the nodes and return an endpoint's surface
        game = solve_nash(nash_params, n_nodes=101)
        response = best_response(nash_params, 2, 0.0, n_nodes=101)
        for coeffs, firm in ((game, 1), (game, 2), (response, 2)):
            with pytest.raises(OutOfHorizon):
                certainty_surface(coeffs, firm, t, 0.3, -0.8)

    def test_rounding_slack_at_horizon_ends(self, nash_params):
        coeffs = solve_nash(nash_params, n_nodes=101)
        for firm in (1, 2):
            assert (certainty_surface(coeffs, firm, -1e-13, 0.3, -0.8)
                    == certainty_surface(coeffs, firm, 0.0, 0.3, -0.8))
            assert (certainty_surface(coeffs, firm, 1.0 + 1e-13, 0.3, -0.8)
                    == certainty_surface(coeffs, firm, 1.0, 0.3, -0.8))

    def test_rebuild_matches_columns(self, nash_params):
        coeffs = solve_nash(nash_params, n_nodes=201)
        k = 17
        t = coeffs.grid.nodes[k]
        A, B, C, D, E, F = coeffs.values[k, :6]
        x, y = 0.3, -0.8
        expected = 0.5 * A * x * x + 0.5 * B * y * y + C * x * y + D * x + E * y + F
        assert certainty_surface(coeffs, 1, t, x, y) == pytest.approx(expected, rel=1e-12)

    def test_best_response_firm_gate(self, nash_params):
        response = best_response(nash_params, 1, 0.0, n_nodes=101)
        game = solve_nash(nash_params, n_nodes=101)
        # a Nash firm index outside 1, 2 used to fall through to firm 2's block
        for coeffs, firm in ((response, 2), (response, 3), (game, 0), (game, 3)):
            with pytest.raises(OutOfRange) as exc:
                certainty_surface(coeffs, firm, 0.0, 0.0, 0.0)
            assert exc.value.field == "firm"

    def test_residual_negative_control_best_response(self, nash_params):
        coeffs = best_response(nash_params, 1, 0.5, n_nodes=401)
        bumped = coeffs.values.copy()
        bumped[:, BR_COLUMNS.index("D")] += 0.1
        assert ode_residual(replace(coeffs, values=bumped), nash_params) > 1e-3
