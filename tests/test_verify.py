from dataclasses import replace
from typing import Callable

import numpy as np
import pytest

from decarb import (
    GridSpec,
    Kind,
    OutOfRange,
    hjb_residual_nash,
    hjb_residual_principal,
    solve_nash,
    solve_principal,
    sup_consistency,
    validate_params,
)
from decarb.contract import assemble_lqg, gradient_couplings, effective_aversions
from decarb.verify import sampled_time_derivative
from conftest import (
    NASH_FIXTURE,
    SINGLE_FIRM_FIXTURE,
    TWO_FIRM_FIXTURE,
    draw_gradient,
    draw_principal_params,
)


def finite_diff_check(
    value: Callable[[float, np.ndarray], float],
    t: float,
    x,
    h: float = 1e-5,
    gradient: Callable[[float, np.ndarray], np.ndarray] | None = None,
    hessian: Callable[[float, np.ndarray], np.ndarray] | None = None,
    time_derivative: Callable[[float, np.ndarray], float] | None = None,
) -> float:
    """Worst relative error between analytic derivatives and central differences.

    The gradient and time derivative difference the value; the Hessian
    differences the analytic gradient (second differences of the value would
    drown in rounding at small h).  At least one analytic callable is required.
    """
    if gradient is None and hessian is None and time_derivative is None:
        raise ValueError("supply at least one analytic derivative to check")
    x = np.asarray(x, dtype=float)
    dim = x.size
    worst = 0.0

    def rel(err: float, ref: float) -> float:
        return abs(err) / max(1.0, abs(ref))

    if gradient is not None:
        g = np.asarray(gradient(t, x), dtype=float)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd = (value(t, x + e) - value(t, x - e)) / (2.0 * h)
            worst = max(worst, rel(fd - g[i], g[i]))
    if hessian is not None:
        if gradient is None:
            raise ValueError("hessian check needs the analytic gradient")
        H = np.asarray(hessian(t, x), dtype=float)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd_row = (np.asarray(gradient(t, x + e)) - np.asarray(gradient(t, x - e))) / (2.0 * h)
            for j in range(dim):
                worst = max(worst, rel(fd_row[j] - H[i, j], H[i, j]))
    if time_derivative is not None:
        ref = time_derivative(t, x)
        fd = (value(t + h, x) - value(t - h, x)) / (2.0 * h)
        worst = max(worst, rel(fd - ref, ref))
    return worst


class TestSampledTimeDerivative:
    def test_exact_on_quartics(self):
        # five-point stencils differentiate degree-4 polynomials exactly
        dt = 0.01
        t = np.arange(30) * dt
        values = 2.0 - t + 3.0 * t**2 - t**3 + 0.5 * t**4
        exact = -1.0 + 6.0 * t - 3.0 * t**2 + 2.0 * t**3
        for k in (0, 1, 2, 15, 27, 28, 29):
            assert sampled_time_derivative(values, dt, k) == pytest.approx(exact[k], rel=1e-10)

    def test_vector_valued(self):
        dt = 0.1
        t = np.arange(10) * dt
        values = np.column_stack([t**2, np.full_like(t, 5.0)])
        d = sampled_time_derivative(values, dt, 4)
        assert d[0] == pytest.approx(2.0 * t[4], rel=1e-12)
        assert d[1] == pytest.approx(0.0, abs=1e-12)


class TestPrincipalResidual:
    def test_zero_economy(self):
        p = validate_params(dict(TWO_FIRM_FIXTURE, p0=0.0, p1=0.0, p2=0.0,
                                 kappa=0.0, delta=0.0, **{"lambda": 0.0}))
        rep = hjb_residual_principal(solve_principal(p, 201), p)
        assert rep.max_residual == 0.0

    @pytest.mark.parametrize("fixture", [TWO_FIRM_FIXTURE, SINGLE_FIRM_FIXTURE,
                                         dict(SINGLE_FIRM_FIXTURE, literal_signs=True)])
    def test_solved_fixture_within_gate(self, fixture):
        p = validate_params(fixture)
        rep = hjb_residual_principal(solve_principal(p), p)
        assert rep.max_residual <= 1e-6

    def test_dropped_constant_is_detected(self, two_firm):
        # forcing C to zero removes the flow constant: residual >= lambda*delta^2/2
        v = solve_principal(two_firm)
        broken = replace(v, C=np.zeros_like(v.C))
        rep = hjb_residual_principal(broken, two_firm)
        assert rep.max_residual >= 0.5 * two_firm.lambda_ * two_firm.delta ** 2 - 1e-6

    @pytest.mark.parametrize("n_nodes", [2, 3, 4, 5])
    def test_too_few_nodes_raise(self, two_firm, n_nodes):
        with pytest.raises(OutOfRange) as exc:
            hjb_residual_principal(solve_principal(two_firm, n_nodes), two_firm)
        assert exc.value.field == "n_nodes"

    def test_six_nodes_suffice(self, two_firm):
        assert np.isfinite(hjb_residual_principal(solve_principal(two_firm, 6), two_firm).max_residual)

    def test_report_structure_and_determinism(self, two_firm):
        v = solve_principal(two_firm)
        grid = GridSpec()
        r1 = hjb_residual_principal(v, two_firm, grid)
        r2 = hjb_residual_principal(v, two_firm, grid)
        assert r1 == r2
        assert len(r1.per_slice) == grid.n_time_slices
        axis = grid.axis()
        assert r1.argmax_x[0] in axis and r1.argmax_x[1] in axis
        payload = r1.to_dict()
        assert payload["label"] == "principal_hjb"
        assert payload["grid"]["n_points"] == 21


class TestNashResidual:
    def test_zero_economy(self):
        p = validate_params(dict(NASH_FIXTURE, p0=0.0, p1=0.0, p2=0.0))
        r1, r2 = hjb_residual_nash(solve_nash(p, 201), p)
        assert r1.max_residual == 0.0 and r2.max_residual == 0.0

    def test_solved_fixture_within_gate(self, nash_params):
        coeffs = solve_nash(nash_params, n_nodes=16001)
        r1, r2 = hjb_residual_nash(coeffs, nash_params)
        assert r1.max_residual <= 1e-6
        assert r2.max_residual <= 1e-6

    @pytest.mark.parametrize("n_nodes", [2, 3, 4, 5])
    def test_too_few_nodes_raise(self, nash_params, n_nodes):
        with pytest.raises(OutOfRange) as exc:
            hjb_residual_nash(solve_nash(nash_params, n_nodes), nash_params)
        assert exc.value.field == "n_nodes"

    def test_six_nodes_suffice(self, nash_params):
        reports = hjb_residual_nash(solve_nash(nash_params, 6), nash_params)
        assert all(np.isfinite(r.max_residual) for r in reports)

    def test_perturbed_coefficient_detected(self, nash_params):
        coeffs = solve_nash(nash_params, n_nodes=2001)
        bumped = coeffs.values.copy()
        bumped[:, 9] += 0.1  # firm 2's x-slope coefficient Dt
        _, r2 = hjb_residual_nash(replace(coeffs, values=bumped), nash_params)
        assert r2.max_residual > 1e-3


class TestFiniteDiffCheck:
    def test_exact_on_quadratic_value(self, two_firm):
        v = solve_principal(two_firm)
        err = finite_diff_check(
            lambda t, x: v.value(t, x), 0.37, np.array([0.3, -0.6]),
            gradient=lambda t, x: v.gradient(t, x),
            hessian=lambda t, x: v.hessian(t),
        )
        assert err <= 1e-8

    def test_hessian_matches_quadratic_coefficient(self, two_firm):
        v = solve_principal(two_firm)
        rng = np.random.default_rng(10)
        for _ in range(5):
            t = rng.uniform(0.0, 1.0)
            x = rng.uniform(-1.0, 1.0, 2)
            err = finite_diff_check(
                lambda tt, xx: v.value(tt, xx), t, x,
                gradient=lambda tt, xx: v.gradient(tt, xx),
                hessian=lambda tt, xx: v.hessian(tt),
            )
            assert err <= 1e-6

    def test_time_derivative_matches_ode_rhs_at_midpoints(self, two_firm):
        v = solve_principal(two_firm, n_nodes=2001)
        lqg = assemble_lqg(two_firm)
        M, Sigma = np.diag(lqg.m), np.diag(lqg.sigma)
        diff = Sigma @ Sigma.T

        def dvdt(t, x):
            A, B, _ = v.coeffs_at(t)
            dA = -lqg.Q - A @ M @ A
            dB = -lqg.L - A @ M @ B
            dC = -0.5 * np.trace(diff @ A) - 0.5 * (B @ M @ B) - lqg.q0
            return 0.5 * x @ dA @ x + dB @ x + dC

        rng = np.random.default_rng(11)
        for _ in range(20):
            k = rng.integers(0, v.grid.n_nodes - 1)
            t = (k + 0.5) * v.grid.dt
            x = rng.uniform(-1.0, 1.0, 2)
            err = finite_diff_check(lambda tt, xx: v.value(tt, xx), t, x,
                                    time_derivative=dvdt)
            assert err <= 1e-6

    def test_second_order_accuracy_on_smooth_function(self):
        def val(t, x):
            return np.exp(2.0 * x[0]) + np.sin(3.0 * x[1]) * np.cos(2.0 * t)

        def grad(t, x):
            return np.array([2.0 * np.exp(2.0 * x[0]),
                             3.0 * np.cos(3.0 * x[1]) * np.cos(2.0 * t)])

        def hess(t, x):
            return np.array([[4.0 * np.exp(2.0 * x[0]), 0.0],
                             [0.0, -9.0 * np.sin(3.0 * x[1]) * np.cos(2.0 * t)]])

        def dval_dt(t, x):
            return -2.0 * np.sin(3.0 * x[1]) * np.sin(2.0 * t)

        hs = (1e-3, 1e-4, 1e-5)
        errs = [finite_diff_check(val, 0.4, np.array([0.7, 0.5]), h=h,
                                  gradient=grad, hessian=hess, time_derivative=dval_dt)
                for h in hs]
        slope = np.polyfit(np.log10(hs), np.log10(errs), 1)[0]
        assert slope >= 1.8

    def test_requires_an_analytic_reference(self, two_firm):
        v = solve_principal(two_firm, 101)
        with pytest.raises(ValueError):
            finite_diff_check(lambda t, x: v.value(t, x), 0.5, np.zeros(2))


class TestSupConsistency:
    def test_zero_gradient(self, two_firm):
        assert sup_consistency(two_firm, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kind", [Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED])
    def test_random_draws_within_gate(self, kind):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = draw_principal_params(rng, kind)
            assert sup_consistency(p, draw_gradient(rng)) <= 1e-6

    def test_flipped_sign_coupling_fails(self):
        # the alternative sign +eta_bar*sigma^2 on the gradient couplings is
        # rejected by the brute-force maximum
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = draw_principal_params(rng, Kind.TWO_FIRM_REGULATED)
            m1, m2 = gradient_couplings(p)
            av = effective_aversions(p)
            wrong = (m1 + 2.0 * av.eta_bar_2 * p.sigma1 ** 2,
                     m2 + 2.0 * av.eta_bar_1 * p.sigma2 ** 2)
            assert sup_consistency(p, draw_gradient(rng), m=wrong) > 1e-3


class TestGridSpec:
    @pytest.mark.parametrize("kwargs, field", [
        ({"n_points": 1}, "n_points"),
        ({"n_points": 0}, "n_points"),
        ({"n_points": 2.0}, "n_points"),
        ({"n_points": True}, "n_points"),
        ({"n_time_slices": 0}, "n_time_slices"),
        ({"n_time_slices": 2.5}, "n_time_slices"),
        ({"n_time_slices": False}, "n_time_slices"),
        ({"x_min": float("-inf")}, "x_min"),
        ({"x_min": None}, "x_min"),
        ({"x_max": float("nan")}, "x_max"),
        ({"x_max": "2"}, "x_max"),
        ({"x_max": 10 ** 400}, "x_max"),
        ({"x_min": 1.0, "x_max": 1.0}, "x_max"),
        ({"x_min": 2.0, "x_max": -2.0}, "x_max"),
    ])
    def test_bad_field_rejected_and_named(self, kwargs, field):
        with pytest.raises(OutOfRange) as exc:
            GridSpec(**kwargs)
        assert exc.value.field == field

    def test_zero_time_slices_cannot_report_a_passing_residual(self, two_firm):
        # an empty grid used to report max_residual -1.0, which passes every gate
        v = solve_principal(two_firm, 201)
        with pytest.raises(OutOfRange):
            hjb_residual_principal(v, two_firm, GridSpec(n_points=3, n_time_slices=0))

    def test_smallest_grid_and_integer_bounds_accepted(self):
        grid = GridSpec(x_min=-1, x_max=1, n_points=np.int64(2), n_time_slices=1)
        assert grid.describe() == {"x_min": -1.0, "x_max": 1.0, "n_points": 2, "n_time_slices": 1}
        assert all(type(v) in (int, float) for v in grid.describe().values())
