import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decarb import (
    Kind,
    MaximizerOnBoundary,
    ModelParams,
    NumericalError,
    OracleNotConverged,
    WrongKind,
    argmax_oracle,
    assemble_lqg,
    effective_aversions,
    hamiltonian_h,
    lambda_pair,
    oracle_rates,
    rates_single,
    rates_two,
    revenue_f,
    social_cost_g,
    validate_params,
)
from decarb import contract
from decarb.contract import (MAX_CYCLES, SingleFirmRates, TwoFirmRates, gradient_couplings,
                             quadratic_flow_coefficients)
from decarb.model import Scope
from conftest import (
    ETA_RANGE,
    GAMMA_RANGE,
    GRADIENT_RANGE,
    SIGMA_RANGE,
    SINGLE_FIRM_FIXTURE,
    TWO_FIRM_FIXTURE,
    draw_gradient,
    draw_principal_params,
    principal_params,
)


def tiny_eta_p_params() -> ModelParams:
    return validate_params(dict(TWO_FIRM_FIXTURE, eta_p=1e-12))


class TestEffectiveAversions:
    def test_vanishing_principal_aversion(self):
        av = effective_aversions(tiny_eta_p_params())
        assert av.eta_bar_1 == pytest.approx(0.0, abs=1e-11)
        assert av.eta_1p == pytest.approx(0.0, abs=1e-11)

    def test_equal_aversions(self, two_firm):
        av = effective_aversions(two_firm)
        assert av.eta_bar_1 == pytest.approx(0.5, abs=1e-15)
        assert av.eta_1p == pytest.approx(0.5, abs=1e-15)

    def test_unequal_aversions(self):
        p = validate_params(dict(TWO_FIRM_FIXTURE, eta_p=2.0))
        av = effective_aversions(p)
        assert av.eta_bar_1 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert av.eta_1p == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = draw_principal_params(rng, Kind.TWO_FIRM_REGULATED)
            av = effective_aversions(p)
            assert 0.0 < av.eta_bar_1 < min(p.eta1, p.eta_p)
            assert 0.0 < av.eta_bar_2 < min(p.eta2, p.eta_p)
            assert 0.0 < av.eta_1p < 1.0 and 0.0 < av.eta_2p < 1.0
            # the harmonic combination is symmetric in its two arguments
            swapped = validate_params(dict(
                TWO_FIRM_FIXTURE, eta1=p.eta_p, eta_p=p.eta1, eta2=p.eta2))
            assert effective_aversions(swapped).eta_bar_1 == pytest.approx(av.eta_bar_1, rel=1e-14)

    def test_wrong_kind(self, single_firm, nash_params):
        for p in (single_firm, nash_params):
            with pytest.raises(WrongKind):
                effective_aversions(p)


class TestLambdaPair:
    def test_collapses_without_noise(self):
        p = ModelParams(kind=Kind.TWO_FIRM_REGULATED, gamma1=1.5, gamma2=1.0,
                        sigma1=0.0, sigma2=0.0, eta1=1.0, eta2=1.0, eta_p=1.0,
                        p0=1.0, p1=0.6, p2=0.4, kappa=1.0, lambda_=1.0, delta=1.0,
                        horizon=1.0)
        lam12, lam21 = lambda_pair(p)
        assert lam12 == 1.0 and lam21 == 1.0

    def test_frozen_fixture_values(self, two_firm):
        # verified against the brute-force drift maximizer: z11*/v1 and z22*/v2
        lam12, lam21 = lambda_pair(two_firm)
        assert lam12 == pytest.approx(1.52 / 1.56, abs=1e-12)
        assert lam21 == pytest.approx(1.045 / 1.135, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = draw_principal_params(rng, Kind.TWO_FIRM_REGULATED)
            lam12, lam21 = lambda_pair(p)
            assert 0.0 < lam12 < 1.0 and 0.0 < lam21 < 1.0


class TestClosedFormRates:
    def test_single_no_noise_passthrough(self):
        p = ModelParams(kind=Kind.SINGLE_FIRM, gamma1=1.5, gamma2=1.0,
                        sigma1=0.0, sigma2=0.0, eta_a=1.0, eta_p=1.0,
                        p0=1.0, p1=0.6, p2=0.4, kappa=1.0, lambda_=1.0, delta=1.0,
                        horizon=1.0)
        r = rates_single(p, (0.7, -1.3))
        assert r.z1 == pytest.approx(0.7, abs=1e-15)
        assert r.z2 == pytest.approx(-1.3, abs=1e-15)

    def test_single_frozen_value(self, single_firm):
        # (1.5*2 + 0.04*2) / (0.04 + 1.5 + 0.04), verified by the argmax oracle
        r = rates_single(single_firm, (2.0, 0.0))
        assert r.z1 == pytest.approx(3.08 / 1.58, abs=1e-12)
        assert r.z2 == 0.0

    def test_zero_gradient(self, single_firm, two_firm):
        assert rates_single(single_firm, (0.0, 0.0)).as_array().tolist() == [0.0, 0.0]
        assert rates_two(two_firm, (0.0, 0.0)).as_array().tolist() == [0.0] * 4

    def test_two_firm_tiny_principal_aversion(self):
        r = rates_two(tiny_eta_p_params(), (1.0, 1.0))
        assert abs(r.z12) < 1e-11 and abs(r.z21) < 1e-11

    def test_two_firm_one_hot_gradient(self, two_firm):
        lam12, _ = lambda_pair(two_firm)
        av = effective_aversions(two_firm)
        r = rates_two(two_firm, (1.0, 0.0))
        assert r.z22 == 0.0 and r.z12 == 0.0
        assert r.z11 == pytest.approx(lam12, abs=1e-15)
        assert r.z21 == pytest.approx(av.eta_2p * (1.0 - lam12), abs=1e-15)

    def test_cross_rate_identities(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = draw_principal_params(rng, Kind.TWO_FIRM_REGULATED)
            v = draw_gradient(rng)
            av = effective_aversions(p)
            r = rates_two(p, v)
            assert r.z12 == pytest.approx(av.eta_1p * (v[1] - r.z22), rel=1e-13, abs=1e-15)
            assert r.z21 == pytest.approx(av.eta_2p * (v[0] - r.z11), rel=1e-13, abs=1e-15)
            # printed explicit form of the cross rate
            _, lam21 = lambda_pair(p)
            explicit = p.eta_p / (p.eta1 + p.eta_p) * (1.0 - lam21) * v[1]
            assert r.z12 == pytest.approx(explicit, rel=1e-12, abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = draw_principal_params(rng, Kind.TWO_FIRM_REGULATED)
            u, w = rng.normal(size=(2, 2))
            a, b = rng.normal(size=2)
            lhs = rates_two(p, a * u + b * w).as_array()
            rhs = a * rates_two(p, u).as_array() + b * rates_two(p, w).as_array()
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)

    def test_wrong_kind(self, single_firm, two_firm, nash_params):
        with pytest.raises(WrongKind):
            rates_single(two_firm, (1.0, 1.0))
        with pytest.raises(WrongKind):
            rates_two(single_firm, (1.0, 1.0))
        with pytest.raises(WrongKind):
            rates_two(nash_params, (1.0, 1.0))


class TestHamiltonian:
    def test_zero_rates(self, single_firm, two_firm):
        assert hamiltonian_h(single_firm, (0.0, 0.0), (0.7, -0.2)) == 0.0
        assert hamiltonian_h(two_firm, (0.0, 0.0, 0.0, 0.0), (0.7, -0.2)) == 0.0

    def test_single_firm_maximum_closed_form(self, single_firm):
        v = (2.0, -1.0)
        z_star = rates_single(single_firm, v)
        h_star = hamiltonian_h(single_firm, z_star, v)
        expected = 0.0
        for gamma, sigma, vi in ((1.5, 0.2, 2.0), (1.0, 0.3, -1.0)):
            s = sigma * sigma
            expected += 0.5 * (gamma + s) ** 2 * vi * vi / (s + gamma + s)
        assert h_star == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("kind", [Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED])
    def test_strict_local_maximum(self, kind):
        rng = np.random.default_rng(4)
        p = draw_principal_params(rng, kind)
        v = draw_gradient(rng)
        z_star = (rates_single(p, v) if kind is Kind.SINGLE_FIRM else rates_two(p, v)).as_array()
        h_star = hamiltonian_h(p, z_star, v)
        eps = 1e-3
        for k in range(z_star.size):
            for sign in (+1.0, -1.0):
                z = z_star.copy()
                z[k] += sign * eps
                assert hamiltonian_h(p, z, v) < h_star

    def test_wrong_kind(self, nash_params):
        with pytest.raises(WrongKind):
            hamiltonian_h(nash_params, (0.0, 0.0), (0.0, 0.0))

    # (kind, gammas, sigmas, aversions, z, Dv, h as float.hex()): a faster
    # hamiltonian_h must still give every bit of these values
    PINNED_H = [
        (Kind.SINGLE_FIRM, (1.5, 1.0), (0.2, 0.3), (1.0, 1.0), (0.7, -1.3), (2.0, -1.0),
         "0x1.182a9930be0ddp+1"),
        (Kind.SINGLE_FIRM, (0.61, 2.9), (1.1, 0.37), (2.3, 0.45), (-3.25, 0.125), (-0.9, 1.7),
         "-0x1.0d073b8c32a8dp+4"),
        (Kind.SINGLE_FIRM, (2.2, 0.8), (0.55, 0.95), (0.4, 1.9), (1e-3, 7.5), (1.3, 0.6),
         "-0x1.163df0928030fp+6"),
        (Kind.TWO_FIRM_REGULATED, (1.5, 1.0), (0.2, 0.3), (1.0, 1.0, 1.0),
         (0.7, -0.1, 0.3, -1.3), (2.0, -1.0), "0x1.193dd97f62b6ap+1"),
        (Kind.TWO_FIRM_REGULATED, (0.61, 2.9), (1.1, 0.37), (2.3, 0.45, 1.7),
         (-3.25, 0.5, -0.75, 0.125), (-0.9, 1.7), "-0x1.895598bd66278p+4"),
        (Kind.TWO_FIRM_REGULATED, (2.2, 0.8), (0.55, 0.95), (0.4, 1.9, 0.6),
         (1e-3, -2.2, 4.4, 7.5), (1.3, 0.6), "-0x1.40a85494c2445p+6"),
    ]

    @pytest.mark.parametrize("scalar", [float, np.float64])
    @pytest.mark.parametrize("kind, gammas, sigmas, etas, z, v, pinned", PINNED_H)
    def test_pinned_bits(self, kind, gammas, sigmas, etas, z, v, pinned, scalar):
        # parameters as floats (configs) and as numpy scalars (random draws)
        p = principal_params(kind, *[tuple(map(scalar, x)) for x in (gammas, sigmas, etas)])
        rates = (SingleFirmRates if kind is Kind.SINGLE_FIRM else TwoFirmRates)(*z)
        for zz in (rates, tuple(z), np.array(z)):
            assert float(hamiltonian_h(p, zz, v)).hex() == pinned
            assert float(hamiltonian_h(p, zz, np.array(v))).hex() == pinned


class TestArgmaxOracle:
    @staticmethod
    def counted_argmax(objective, dim):
        calls = itertools.count()

        def counted(z):
            next(calls)
            return objective(z)

        z, val = argmax_oracle(counted, dim=dim)
        return z, val, next(calls)

    def test_known_parabola(self):
        # parabolic steps land on a quadratic's vertex in a few evaluations
        z, val, evals = self.counted_argmax(lambda z: -(z[0] - 1.0) ** 2, dim=1)
        assert abs(z[0] - 1.0) < 1e-12
        assert val == pytest.approx(0.0, abs=1e-17)
        assert evals <= 30

    def test_kinked_line(self):
        # parabolas through a kink mislead, so the golden steps carry the search
        z, val, _ = self.counted_argmax(lambda z: -abs(z[0] - 0.3), dim=1)
        assert abs(z[0] - 0.3) < 1e-8
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_smooth_non_quadratic(self):
        # strictly concave but not quadratic: parabolic steps only approximate
        z, _, _ = self.counted_argmax(
            lambda z: -math.cosh(z[0] - 0.5) - math.cosh(z[0] + z[1]), dim=2)
        np.testing.assert_allclose(z, [0.5, -0.5], atol=1e-8)

    def test_single_firm_fixture(self, single_firm):
        z, _ = oracle_rates(single_firm, (2.0, 0.0))
        assert z[0] == pytest.approx(3.08 / 1.58, abs=1e-6)

    @pytest.mark.parametrize("kind", [Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED])
    def test_matches_closed_form(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = draw_principal_params(rng, kind)
            v = draw_gradient(rng)
            z_hat, _ = oracle_rates(p, v)
            closed = (rates_single(p, v) if kind is Kind.SINGLE_FIRM else rates_two(p, v)).as_array()
            np.testing.assert_allclose(z_hat, closed, atol=1e-6)

    def test_box_expansion(self):
        z, _ = argmax_oracle(lambda z: -(z[0] - 50.0) ** 2, dim=1)
        assert abs(z[0] - 50.0) < 1e-8

    def test_expansion_cap(self):
        with pytest.raises(MaximizerOnBoundary):
            argmax_oracle(lambda z: z[0], dim=1)  # no interior maximum

    def test_cycle_cap_raises(self):
        # every evaluation raises the objective a little, so no cycle ever
        # stops gaining and the search must report its cap
        calls = itertools.count()
        with pytest.raises(OracleNotConverged) as info:
            argmax_oracle(lambda z: -(z[0] - 1.0) ** 2 - (z[1] + 2.0) ** 2 + 1e-9 * next(calls),
                          dim=2)
        assert isinstance(info.value, NumericalError)
        assert info.value.cycles == MAX_CYCLES
        assert info.value.gain > 0.0
        assert f"after {MAX_CYCLES} cycles" in str(info.value)

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    def test_stopping_rule_ignores_objective_units(self, scale):
        rng = np.random.default_rng(13)
        for _ in range(5):
            p = draw_principal_params(rng, Kind.TWO_FIRM_REGULATED)
            v = draw_gradient(rng)
            z_hat, _ = argmax_oracle(lambda z: scale * hamiltonian_h(p, z, v), dim=4)
            np.testing.assert_allclose(z_hat, rates_two(p, v).as_array(), atol=1e-6)

    @pytest.mark.parametrize("kind", [Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED])
    def test_two_firm_evaluation_budget(self, kind):
        # counts objective evaluations instead of timing.  These draws take at
        # most 77 (one firm) and 858 (two firms) with Brent line searches;
        # golden-section line searches take 287 and 2658, and a stopping rule
        # that rounding cannot meet runs to the cycle cap (tens of thousands)
        dim, budget = (2, 100) if kind is Kind.SINGLE_FIRM else (4, 1_200)
        rng = np.random.default_rng(101)
        for _ in range(5):
            p = draw_principal_params(rng, kind)
            v = draw_gradient(rng)
            z_hat, _, evals = self.counted_argmax(lambda z: hamiltonian_h(p, z, v), dim)
            closed = rates_single(p, v) if kind is Kind.SINGLE_FIRM else rates_two(p, v)
            np.testing.assert_allclose(z_hat, closed.as_array(), atol=1e-6)
            assert evals <= budget

    @pytest.mark.parametrize("kind", [Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED])
    def test_every_evaluation_is_a_traced_hamiltonian_call(self, kind, monkeypatch):
        # the benchmark counts oracle evaluations by wrapping the module
        # attribute decarb.contract.hamiltonian_h, so the objective that
        # oracle_rates hands to argmax_oracle must call through it once each
        h_calls, objective_calls = itertools.count(), itertools.count()
        real_h, real_argmax = contract.hamiltonian_h, contract.argmax_oracle

        def traced_h(*args):
            next(h_calls)
            return real_h(*args)

        def traced_argmax(objective, dim):
            def counted(z):
                next(objective_calls)
                return objective(z)
            return real_argmax(counted, dim)

        monkeypatch.setattr(contract, "hamiltonian_h", traced_h)
        monkeypatch.setattr(contract, "argmax_oracle", traced_argmax)
        rng = np.random.default_rng(7)
        oracle_rates(draw_principal_params(rng, kind), draw_gradient(rng))
        evals = next(objective_calls)
        assert evals > 0
        assert next(h_calls) == evals

    @pytest.mark.parametrize("kind", [Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_closed_form_over_the_box(self, kind, data):
        # hypothesis reaches the box's corners, which uniform draws rarely do;
        # OracleNotConverged and MaximizerOnBoundary fail the test as raised
        def draw(box, n):
            return data.draw(st.tuples(*[st.floats(*box)] * n))

        p = principal_params(kind, draw(GAMMA_RANGE, 2), draw(SIGMA_RANGE, 2),
                             draw(ETA_RANGE, 2 if kind is Kind.SINGLE_FIRM else 3))
        signs = data.draw(st.tuples(*[st.sampled_from([-1.0, 1.0])] * 2))
        v = np.multiply(draw(GRADIENT_RANGE, 2), signs)
        z_hat, _ = oracle_rates(p, v)
        closed = (rates_single(p, v) if kind is Kind.SINGLE_FIRM else rates_two(p, v)).as_array()
        np.testing.assert_allclose(z_hat, closed, atol=1e-6)


class TestLQGAssembly:
    def test_frozen_two_firm_matrices(self, two_firm):
        lqg = assemble_lqg(two_firm)
        np.testing.assert_allclose(lqg.Q, [[-2.2, -2.0], [-2.0, -2.8]], atol=1e-15)
        np.testing.assert_allclose(lqg.L, [2.0, 2.0], atol=1e-15)
        assert lqg.q0 == pytest.approx(-0.5, abs=1e-15)
        assert lqg.Sigma[0, 0] == 0.2 and lqg.Sigma[1, 1] == 0.3
        assert lqg.M[0, 1] == 0.0 and lqg.Sigma[0, 1] == 0.0

    def test_zero_economy(self):
        p = validate_params(dict(TWO_FIRM_FIXTURE, p0=0.0, p1=0.0, p2=0.0,
                                 kappa=0.0, delta=0.0, **{"lambda": 0.0}))
        lqg = assemble_lqg(p)
        assert not lqg.Q.any() and not lqg.L.any() and lqg.q0 == 0.0

    @pytest.mark.parametrize("fixture", [
        TWO_FIRM_FIXTURE,
        SINGLE_FIRM_FIXTURE,
        dict(SINGLE_FIRM_FIXTURE, literal_signs=True),
        dict(TWO_FIRM_FIXTURE, kappa=0.3, delta=-1.5, **{"lambda": 2.0}),
    ])
    def test_expansion_matches_flow_at_random_points(self, fixture):
        p = validate_params(fixture)
        Q, L, q0 = quadratic_flow_coefficients(p)
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = rng.normal(scale=2.0, size=2)
            flow = revenue_f(p, x, Scope.TOTAL) - social_cost_g(p, x)
            quad = 0.5 * x @ Q @ x + L @ x + q0
            assert quad == pytest.approx(flow, rel=1e-12, abs=1e-12)

    def test_q_symmetric(self):
        rng = np.random.default_rng(7)
        for kind in (Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED):
            p = draw_principal_params(rng, kind)
            lqg = assemble_lqg(p)
            np.testing.assert_array_equal(lqg.Q, lqg.Q.T)

    def test_wrong_kind(self, nash_params):
        with pytest.raises(WrongKind):
            assemble_lqg(nash_params)
        with pytest.raises(WrongKind):
            gradient_couplings(nash_params)
