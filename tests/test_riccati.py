import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decarb import (
    BlowUp,
    ContractLQG,
    Kind,
    OutOfHorizon,
    OutOfRange,
    TimeGrid,
    best_response,
    nash,
    oracle_rates,
    rate_profile,
    rates_two,
    riccati,
    rk4_backward,
    solve_lqg,
    solve_nash,
    solve_principal,
    validate_params,
)
from decarb.riccati import BLOWUP_LIMIT, _BLOCK, Kernel, OdeTable, coefficient_table, rk4_stage_times
from conftest import NASH_FIXTURE, SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE, swap_firms

# coefficient_table rows (A11, A12, A22, B1, B2, C) at 1001 nodes, recorded
# before the Riccati right-hand side moved from 2x2 matrix products to closed
# scalar form; the rounding may differ in the last bit
PRINCIPAL_1001_ROWS = {
    "two-firm": (TWO_FIRM_FIXTURE, {
        0: (-1.0110927296729613, -0.7572024815290328, -1.343913547764705,
            0.889180259300163, 0.8097636062742287, -0.03338528632320819),
        500: (-0.804464001618848, -0.6845297483068172, -1.0403528451507764,
              0.7226640286633724, 0.6997170071070457, -0.13759141640133105),
        999: (-0.0021999964200368474, -0.0019999961451817754, -0.0027999956551906656,
              0.0019999966343202157, 0.0019999963399847717, -0.0005000834144948539),
    }),
    "single-firm": (SINGLE_FIRM_FIXTURE, {
        0: (-1.323956124901045, -0.7397277838890112, -0.8894674829989997,
            0.707820586007507, 1.0447902532056779, -0.04120303924758687),
        500: (-1.1111496531559246, -0.6690246053644565, -0.666993504912559,
              0.6597722679615492, 0.7574855509342948, -0.13852152257374095),
        999: (-0.0031999937906047045, -0.001999995782945121, -0.0017999970617760023,
              0.0019999956606968237, 0.0019999969517524754, -0.0005000709146879467),
    }),
}


def make_lqg(Q=None, L=None, q0=0.0, M=None, sigma=(0.0, 0.0)) -> ContractLQG:
    z = np.zeros((2, 2))
    return ContractLQG(
        Q=z if Q is None else np.asarray(Q, float),
        L=np.zeros(2) if L is None else np.asarray(L, float),
        q0=q0,
        M=z if M is None else np.asarray(M, float),
        Sigma=np.diag(sigma),
    )


class TestTimeGrid:
    def test_nodes_hit_endpoints(self):
        g = TimeGrid(1.0, 5)
        np.testing.assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.dt == 0.25

    def test_invalid(self):
        with pytest.raises(OutOfRange):
            TimeGrid(0.0, 10)
        with pytest.raises(OutOfRange):
            TimeGrid(1.0, 1)

    @pytest.mark.parametrize("t_end, n_nodes, field", [
        (0.0, 10, "t_end"), (-1.0, 10, "t_end"), (float("nan"), 10, "t_end"),
        (1.0, 1, "n_nodes"), (1.0, -5, "n_nodes"),
    ])
    def test_invalid_names_field(self, t_end, n_nodes, field):
        with pytest.raises(OutOfRange) as exc:
            TimeGrid(t_end, n_nodes)
        assert exc.value.field == field


class TestRK4:
    def test_zero_rhs_keeps_terminal(self):
        grid = TimeGrid(1.0, 11)
        traj = rk4_backward(lambda t, u: np.zeros_like(u), np.array([3.0, -2.0]), grid)
        assert np.all(traj == [3.0, -2.0])

    def test_scalar_riccati_tangent(self):
        # da/dt = -(1 + a^2), a(T) = 0  has solution a(t) = tan(T - t)
        grid = TimeGrid(0.5, 1001)
        traj = rk4_backward(lambda t, u: [-(1.0 + u[0] * u[0])], np.array([0.0]), grid)
        assert abs(traj[0, 0] - math.tan(0.5)) <= 1e-9

    def test_stage_times_integrate_cubic_exactly(self):
        # RK4 on du/dt = f(t) is Simpson's rule, exact for cubics, so a
        # wrong stage time shows at once
        grid = TimeGrid(1.0, 11)
        traj = rk4_backward(lambda t, u: [3.0 * t * t], np.array([1.0]), grid)
        np.testing.assert_allclose(traj[:, 0], grid.nodes ** 3, rtol=0.0, atol=1e-14)

    def test_stage_times_listed_exactly(self):
        # best_response keys its opponent table by these floats
        grid = TimeGrid(0.7, 37)
        seen = []
        rk4_backward(lambda t, u: seen.append(t) or [0.0], np.array([0.0]), grid)
        want = rk4_stage_times(grid)
        assert set(seen) == set(want) and len(want) == 3 * (grid.n_nodes - 1)

    def test_fourth_order_convergence(self):
        # measured on coarse grids; at 1000 steps the error is already at the
        # rounding floor and halving shows nothing
        def err(n):
            grid = TimeGrid(0.5, n)
            traj = rk4_backward(lambda t, u: [-(1.0 + u[0] * u[0])], np.array([0.0]), grid)
            return abs(traj[0, 0] - math.tan(0.5))

        assert err(11) / err(21) >= 12.0
        assert err(21) / err(41) >= 12.0

    def test_blow_up_detected_with_time(self):
        # tan escapes at T - t = pi/2, i.e. near t = 2 - pi/2 ~ 0.43
        grid = TimeGrid(2.0, 2001)
        with pytest.raises(BlowUp) as exc:
            rk4_backward(lambda t, u: [-(1.0 + u[0] * u[0])], np.array([0.0]), grid)
        assert 0.3 < exc.value.t_escape < 0.5


def reference_escape(c: float, grid: TimeGrid):
    """Step-by-step RK4 on u' = -(c + u^2), u(T) = 0, checked after every step."""
    nodes = grid.nodes.tolist()
    h = -grid.dt
    half, sixth = 0.5 * h, h / 6.0
    u = 0.0
    for k in range(grid.n_nodes - 1, 0, -1):
        k1 = -(c + u * u)
        k2 = -(c + (u + half * k1) * (u + half * k1))
        k3 = -(c + (u + half * k2) * (u + half * k2))
        k4 = -(c + (u + h * k3) * (u + h * k3))
        u = u + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not abs(u) <= BLOWUP_LIMIT:
            return nodes[k - 1]
    return None


class TestBlockedBlowUpCheck:
    # nodes at the integers 0 .. 1000, so every stage time is exact; the
    # steps from nodes 1000 .. 1001 - _BLOCK form the first block
    GRID = TimeGrid(1000.0, 1001)

    @staticmethod
    def jump_below(j):
        """rhs that is zero down to node j and huge below it: u escapes at node j - 1."""
        return lambda t, u: [-1e15 if t < j else 0.0]

    @pytest.mark.parametrize("escape", [
        900,                      # inside the first block
        1000 - _BLOCK,            # last row of the first block
        999 - _BLOCK,             # first row of the second block
        10, 0,                    # inside the final partial block, and its last row
    ])
    def test_escape_node_in_any_block_position(self, escape):
        with pytest.raises(BlowUp) as exc:
            rk4_backward(self.jump_below(escape + 1), np.array([0.0]), self.GRID)
        assert exc.value.t_escape == float(escape)

    def test_blocked_store_keeps_every_row(self):
        traj = rk4_backward(lambda t, u: [1.0], np.array([0.0]), self.GRID)
        np.testing.assert_array_equal(traj[:, 0], self.GRID.nodes - 1000.0)

    def test_nan_at_one_node(self):
        # the step into node 600 reads rhs at t = 600 in its last stage
        nan_at = lambda t, u: [math.nan if t == 600.0 else 0.0]
        with pytest.raises(BlowUp) as exc:
            rk4_backward(nan_at, np.array([0.0]), self.GRID)
        assert exc.value.t_escape == 600.0

    def test_rhs_raising_after_the_escape_reports_the_escape(self):
        # u passes the limit at node 899 and grows by 1e15 a step; the exp
        # term adds nothing until it overflows, a few steps on in the same block
        def rhs(t, u):
            return [(-1e15 if t < 900 else 0.0) + 0.0 * math.exp(u[0] / 1e13)]

        with pytest.raises(OverflowError):
            rhs(0.0, [1e16])
        with pytest.raises(BlowUp) as exc:
            rk4_backward(rhs, np.array([0.0]), self.GRID)
        assert exc.value.t_escape == 899.0
        assert isinstance(exc.value.__context__, OverflowError)

    def test_rhs_raising_without_an_escape_propagates(self):
        def rhs(t, u):
            if t < 700:
                raise ZeroDivisionError("rhs failed")
            return [1.0]

        with pytest.raises(ZeroDivisionError):
            rk4_backward(rhs, np.array([0.0]), self.GRID)

    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(0.05, 50.0), horizon=st.floats(0.05, 6.0),
           n_nodes=st.integers(2, 3 * _BLOCK + 7))
    def test_escape_matches_step_by_step_check(self, c, horizon, n_nodes):
        grid = TimeGrid(horizon, n_nodes)
        want = reference_escape(c, grid)
        try:
            rk4_backward(lambda t, u: [-(c + u[0] * u[0])], np.array([0.0]), grid)
            got = None
        except BlowUp as exc:
            got = exc.t_escape
        assert got == want


def record_rk4_calls(monkeypatch) -> list:
    """Route every solve's integrator call through a recorder, at the module
    attributes the solves look up, as a tracer wrapping them from outside does."""
    calls = []

    def recorder(rhs, terminal, grid):
        calls.append((rhs, grid))
        return rk4_backward(rhs, terminal, grid)

    for module in (riccati, nash):
        monkeypatch.setattr(module, "rk4_backward", recorder)
    return calls


class TestFusedKernel:
    @pytest.mark.parametrize("fixture", [SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE])
    @pytest.mark.parametrize("n_nodes", [201, 1001])
    def test_lqg_equals_generic_stepper(self, monkeypatch, fixture, n_nodes):
        calls = record_rk4_calls(monkeypatch)
        v = solve_principal(validate_params(fixture), n_nodes)
        [(kernel, grid)] = calls
        assert isinstance(kernel, Kernel) and kernel.table is riccati._LQG
        generic = rk4_backward(kernel.table.rhs(kernel.args), np.zeros(6), grid)
        assert np.array_equal(coefficient_table(v)[:, 1:], generic)

    def test_second_solve_does_not_compile(self, two_firm):
        solve_principal(two_firm, 201)
        before = riccati._compile.cache_info()
        solve_principal(two_firm, 201)
        after = riccati._compile.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 1

    def test_nothing_compiled_at_import(self):
        src = str(Path(riccati.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import decarb.cli, decarb.riccati as r; "
                "assert r._compile.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], check=True)

    @pytest.mark.parametrize("states, derivs, consts", [
        (("u",), ("u ** 2",), ()),            # ** can raise OverflowError
        (("u",), ("abs(u)",), ()),            # calls
        (("u",), ("u (u)",), ()),
        (("u",), ("u * w",), ()),             # unknown name
        (("u",), ("u.real",), ()),            # attributes
        (("u",), ("u",), (("k", "1.0 / u"),)),  # division in a constant
        (("h",), ("h",), ()),                 # name the kernel uses itself
        (("u", "v"), ("u",), ()),             # a state without a derivative
    ])
    def test_table_must_be_plain_float_arithmetic(self, states, derivs, consts):
        with pytest.raises(ValueError):
            riccati._compile(OdeTable("bad", states, (), derivs, consts))


class TestTracerContract:
    """perfbench's tracer times the ODE layer by wrapping ``rk4_backward`` at
    ``decarb.riccati`` and ``decarb.nash``; each solve must call it there, once."""

    @pytest.mark.parametrize("solve", [
        lambda: solve_principal(validate_params(TWO_FIRM_FIXTURE), 201),
        lambda: solve_nash(validate_params(NASH_FIXTURE), 201),
        lambda: best_response(validate_params(NASH_FIXTURE), 2, 0.5, 201),
    ], ids=["solve_principal", "solve_nash", "best_response"])
    def test_each_solve_calls_the_module_attribute_once(self, monkeypatch, solve):
        calls = record_rk4_calls(monkeypatch)
        solved = solve()
        assert [grid for _, grid in calls] == [solved.grid]


class TestSolveLQG:
    def test_linear_case_without_coupling(self):
        Q = np.array([[2.0, 0.5], [0.5, -1.0]])
        L = np.array([1.0, -3.0])
        v = solve_lqg(make_lqg(Q=Q, L=L), horizon=1.0, n_nodes=101)
        for k, t in enumerate(v.grid.nodes):
            np.testing.assert_allclose(v.A[k], Q * (1.0 - t), atol=1e-10)
            np.testing.assert_allclose(v.B[k], L * (1.0 - t), atol=1e-10)

    def test_constant_term_collects_trace_and_flow(self):
        # A = Q*(T-t) with M = 0, so dC/dt = -0.5*Tr(Sigma Sigma^T A) - q0
        Q = np.array([[1.0, 0.0], [0.0, 2.0]])
        v = solve_lqg(make_lqg(Q=Q, q0=0.25, sigma=(1.0, 1.0)), horizon=1.0, n_nodes=201)
        # C(0) = int_0^T [0.5*(Q11+Q22)*(T-s) + q0] ds = 0.5*3*0.5 + 0.25
        assert v.C[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("field", ["M", "Sigma"])
    def test_off_diagonal_entries_rejected(self, field):
        # the scalar right-hand side reads only the diagonals, so an
        # off-diagonal entry must fail instead of being dropped
        lqg = make_lqg(Q=np.eye(2), M=np.eye(2), sigma=(0.2, 0.3))
        mat = getattr(lqg, field).copy()
        mat[1, 0] = 0.1
        with pytest.raises(OutOfRange) as exc:
            solve_lqg(replace(lqg, **{field: mat}), horizon=1.0, n_nodes=11)
        assert exc.value.field == field

    def test_matrix_riccati_blow_up(self):
        lqg = make_lqg(Q=4.0 * np.eye(2), M=np.eye(2))
        with pytest.raises(BlowUp):
            solve_lqg(lqg, horizon=2.0, n_nodes=2001)


class TestSolvePrincipal:
    def test_zero_forcing(self):
        p = validate_params(dict(TWO_FIRM_FIXTURE, p0=0.0, p1=0.0, p2=0.0,
                                 kappa=0.0, delta=0.0, **{"lambda": 0.0}))
        v = solve_principal(p, 101)
        assert not v.A.any() and not v.B.any() and not v.C.any()

    def test_terminal_data_bitwise_zero(self, two_firm):
        v = solve_principal(two_firm, 201)
        assert np.all(v.A[-1] == 0.0) and np.all(v.B[-1] == 0.0) and v.C[-1] == 0.0

    def test_symmetry_preserved(self, two_firm):
        v = solve_principal(two_firm)
        gap = np.max(np.abs(v.A - np.transpose(v.A, (0, 2, 1))))
        assert gap <= 1e-12

    def test_horizon_consistency(self, two_firm):
        # autonomous coefficients: the tail of a long solve equals a short solve
        v_long = solve_principal(two_firm, 1001)
        short = validate_params(dict(TWO_FIRM_FIXTURE, horizon=0.6))
        v_short = solve_principal(short, 601)
        A_long, B_long, C_long = v_long.coeffs_at(0.4)
        np.testing.assert_allclose(A_long, v_short.A[0], atol=1e-8)
        np.testing.assert_allclose(B_long, v_short.B[0], atol=1e-8)
        assert C_long == pytest.approx(v_short.C[0], abs=1e-8)

    def test_records_kind(self, two_firm):
        assert solve_principal(two_firm, 101).kind is Kind.TWO_FIRM_REGULATED

    @pytest.mark.parametrize("name", sorted(PRINCIPAL_1001_ROWS))
    def test_pinned_rows(self, name):
        fixture, rows = PRINCIPAL_1001_ROWS[name]
        table = coefficient_table(solve_principal(validate_params(fixture), 1001))
        for k, row in rows.items():
            assert table[k, 0] == k / 1000
            for got, want in zip(table[k, 1:], row):
                assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), (k, got, want)


class TestFirmSwap:
    """Without the cost on firm 2's output (kappa = 0) the regulated model
    tells the firms apart only by their parameters: relabelling them maps A to
    P A P (P the exchange matrix), reverses B and keeps C."""

    # a few roundings of values of order one, relative to max(1, |v|); the
    # largest gap measured is 1.1e-16 (A, 16001 nodes)
    BOUND = 4 * np.finfo(float).eps

    @staticmethod
    def gaps(kappa: float, n_nodes: int) -> tuple[float, float, float]:
        fixture = dict(TWO_FIRM_FIXTURE, kappa=kappa)
        v, w = (solve_principal(validate_params(f), n_nodes) for f in (fixture, swap_firms(fixture)))
        return tuple(float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))
                     for a, b in ((v.A[:, ::-1, ::-1], w.A), (v.B[:, ::-1], w.B), (v.C, w.C)))

    @pytest.mark.parametrize("n_nodes", [1001, 16001])
    def test_relabelling_maps_coefficients(self, n_nodes):
        assert max(self.gaps(0.0, n_nodes)) <= self.BOUND

    def test_cost_on_firm_2_breaks_the_map(self):
        assert self.gaps(1.0, 1001)[0] > 0.1


class TestValueFn:
    def test_terminal_value_and_gradient(self, two_firm):
        v = solve_principal(two_firm, 201)
        val, grad = v.value_and_gradient(two_firm.horizon, (0.7, -1.2))
        assert val == 0.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_origin_returns_constant_and_linear_parts(self, two_firm):
        v = solve_principal(two_firm, 201)
        val, grad = v.value_and_gradient(0.35, (0.0, 0.0))
        A, B, C = v.coeffs_at(0.35)
        assert val == pytest.approx(C, abs=1e-15)
        np.testing.assert_allclose(grad, B, atol=1e-15)

    def test_out_of_horizon(self, two_firm):
        v = solve_principal(two_firm, 201)
        with pytest.raises(OutOfHorizon):
            v.value(1.5, (0.0, 0.0))
        with pytest.raises(OutOfHorizon):
            v.value(-0.1, (0.0, 0.0))

    def test_gradient_matches_finite_differences(self, two_firm):
        v = solve_principal(two_firm)
        h = 1e-5
        rng = np.random.default_rng(8)
        for _ in range(10):
            t = rng.uniform(0.0, 1.0)
            x = rng.normal(size=2)
            _, grad = v.value_and_gradient(t, x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (v.value(t, x + e) - v.value(t, x - e)) / (2.0 * h)
                assert fd == pytest.approx(grad[i], rel=1e-8, abs=1e-8)


class TestRateProfile:
    def test_zero_at_terminal_time(self, two_firm):
        v = solve_principal(two_firm, 201)
        r = rate_profile(two_firm, v, two_firm.horizon, (1.3, -0.4))
        assert np.all(r.as_array() == 0.0)

    def test_matches_gradient_composition(self, two_firm):
        v = solve_principal(two_firm, 201)
        t, x = 0.3, np.array([0.5, -0.25])
        r = rate_profile(two_firm, v, t, x)
        expected = rates_two(two_firm, v.gradient(t, x))
        np.testing.assert_array_equal(r.as_array(), expected.as_array())

    def test_matches_brute_force_maximizer(self, two_firm):
        v = solve_principal(two_firm, 201)
        t, x = 0.25, np.array([0.4, 0.1])
        r = rate_profile(two_firm, v, t, x)
        z_hat, _ = oracle_rates(two_firm, v.gradient(t, x))
        np.testing.assert_allclose(r.as_array(), z_hat, atol=1e-6)

    def test_single_firm_rates(self, single_firm):
        v = solve_principal(single_firm, 201)
        r = rate_profile(single_firm, v, 0.5, (0.2, 0.2))
        z_hat, _ = oracle_rates(single_firm, v.gradient(0.5, (0.2, 0.2)))
        np.testing.assert_allclose(r.as_array(), z_hat, atol=1e-6)
