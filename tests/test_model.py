import pickle
from dataclasses import replace

import numpy as np
import pytest

from decarb import (
    Kind,
    MissingField,
    ModelParams,
    OutOfRange,
    Scope,
    UnexpectedField,
    WrongKind,
    effort_cost_c,
    price,
    revenue_f,
    social_cost_g,
    validate_params,
)
from decarb.contract import _rate_factors
from decarb.nash import _payoff_factors
from conftest import NASH_FIXTURE, SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE


class TestValidation:
    def test_published_figure_parameters_are_valid(self):
        p = validate_params(NASH_FIXTURE)
        assert p.kind is Kind.TWO_FIRM_NASH
        assert p.gamma1 == 1.5 and p.sigma2 == 0.3 and p.p1 == 0.6

    def test_zero_gamma_rejected_and_names_field(self):
        bad = dict(TWO_FIRM_FIXTURE, gamma1=0.0)
        with pytest.raises(OutOfRange) as exc:
            validate_params(bad)
        assert exc.value.field == "gamma1"

    def test_nash_with_social_cost_weight_rejected(self):
        bad = dict(NASH_FIXTURE, kappa=1.0)
        with pytest.raises(UnexpectedField) as exc:
            validate_params(bad)
        assert exc.value.field == "kappa"

    def test_missing_field(self):
        bad = dict(TWO_FIRM_FIXTURE)
        del bad["eta_p"]
        with pytest.raises(MissingField) as exc:
            validate_params(bad)
        assert exc.value.field == "eta_p"

    def test_missing_kind(self):
        with pytest.raises(MissingField):
            validate_params({"gamma1": 1.0})

    def test_unknown_kind(self):
        with pytest.raises(OutOfRange):
            validate_params(dict(TWO_FIRM_FIXTURE, kind="duopoly"))

    def test_non_finite_rejected(self):
        bad = dict(TWO_FIRM_FIXTURE, sigma1=float("nan"))
        with pytest.raises(OutOfRange) as exc:
            validate_params(bad)
        assert exc.value.field == "sigma1"

    def test_negative_price_slope_rejected(self):
        with pytest.raises(OutOfRange):
            validate_params(dict(TWO_FIRM_FIXTURE, p2=-0.1))

    def test_delta_may_be_negative(self):
        p = validate_params(dict(TWO_FIRM_FIXTURE, delta=-2.0))
        assert p.delta == -2.0

    def test_lambda_spellings(self):
        raw = dict(TWO_FIRM_FIXTURE)
        lam = raw.pop("lambda")
        p = validate_params(dict(raw, lambda_=lam))
        assert p.lambda_ == lam
        with pytest.raises(UnexpectedField):
            validate_params(dict(raw, lambda_=lam, **{"lambda": lam}))

    def test_unknown_field_rejected(self):
        with pytest.raises(UnexpectedField):
            validate_params(dict(TWO_FIRM_FIXTURE, rho=0.5))

    def test_single_firm_uses_eta_a_not_eta1(self):
        bad = dict(SINGLE_FIRM_FIXTURE, eta1=1.0)
        with pytest.raises(UnexpectedField):
            validate_params(bad)

    @pytest.mark.parametrize("field, value", [
        ("sigma1", True),
        ("gamma1", False),
        ("sigma1", "0.3"),
        ("p0", "1"),
        ("horizon", None),
        ("eta_p", [1.0]),
        ("gamma1", 10 ** 400),
    ])
    def test_non_numeric_or_non_finite_rejected(self, field, value):
        with pytest.raises(OutOfRange) as exc:
            validate_params(dict(TWO_FIRM_FIXTURE, **{field: value}))
        assert exc.value.field == field

    @pytest.mark.parametrize("value", ["no", "true", 1, 0, None, 1.0])
    def test_literal_signs_must_be_bool(self, value):
        with pytest.raises(OutOfRange) as exc:
            validate_params(dict(SINGLE_FIRM_FIXTURE, literal_signs=value))
        assert exc.value.field == "literal_signs"

    @pytest.mark.parametrize("value", [True, False])
    def test_literal_signs_bool_accepted(self, value):
        assert validate_params(dict(SINGLE_FIRM_FIXTURE, literal_signs=value)).literal_signs is value

    def test_integer_and_numpy_values_accepted(self):
        p = validate_params(dict(TWO_FIRM_FIXTURE, horizon=2, gamma1=np.float64(1.5), p1=np.int64(1)))
        assert (p.horizon, p.gamma1, p.p1) == (2.0, 1.5, 1.0)
        assert all(type(v) is float for v in (p.horizon, p.gamma1, p.p1))

    def test_firm_index_gate(self, two_firm):
        with pytest.raises(OutOfRange):
            two_firm.gamma(3)


class TestPrice:
    def test_origin(self, nash_params):
        assert price(nash_params, (0.0, 0.0)) == 1.0

    def test_forced_zero(self, nash_params):
        assert price(nash_params, (1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_half_state(self, nash_params):
        # independent evaluation: 1 - 0.6*0.5 - 0.4*0.5 = 0.5
        assert price(nash_params, (0.5, 0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_affinity_on_random_triples(self, nash_params):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = rng.normal(size=(2, 2))
            lhs = price(nash_params, x + y) + price(nash_params, (0.0, 0.0))
            rhs = price(nash_params, x) + price(nash_params, y)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_batched_evaluation(self, nash_params):
        xs = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        np.testing.assert_allclose(price(nash_params, xs), [1.0, 0.0, 0.5], atol=1e-15)

    @pytest.mark.parametrize("literal", [False, True])
    def test_is_the_revenue_factor(self, literal):
        p = validate_params(dict(SINGLE_FIRM_FIXTURE, literal_signs=literal))
        xs = np.random.default_rng(2).normal(size=(50, 2))
        for scope, quantity in ((Scope.FIRM1, xs[:, 0]), (Scope.FIRM2, xs[:, 1])):
            assert np.array_equal(revenue_f(p, xs, scope), price(p, xs) * quantity)
        assert price(p, (0.0, 1.0)) == (p.p0 + p.p2 if literal else p.p0 - p.p2)


class TestRevenue:
    def test_zero_production(self, two_firm):
        for scope in Scope:
            assert revenue_f(two_firm, (0.0, 0.0), scope) == 0.0

    def test_total_at_half(self, two_firm):
        # price factor 0.5 times total quantity 1.0
        assert revenue_f(two_firm, (0.5, 0.5), Scope.TOTAL) == pytest.approx(0.5, abs=1e-15)

    def test_decomposition_identity(self, two_firm):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.normal(scale=2.0, size=2)
            total = revenue_f(two_firm, x, Scope.TOTAL)
            parts = revenue_f(two_firm, x, Scope.FIRM1) + revenue_f(two_firm, x, Scope.FIRM2)
            assert parts == pytest.approx(total, rel=1e-13, abs=1e-13)

    def test_literal_single_firm_variant(self):
        p = validate_params(dict(SINGLE_FIRM_FIXTURE, literal_signs=True))
        # (p0 - p1*x1 + p2*x2)(x1+x2) at (1, 1) = (1 - 0.6 + 0.4) * 2
        assert revenue_f(p, (1.0, 1.0), Scope.TOTAL) == pytest.approx(1.6, abs=1e-14)
        base = validate_params(SINGLE_FIRM_FIXTURE)
        assert revenue_f(base, (1.0, 1.0), Scope.TOTAL) == pytest.approx(0.0, abs=1e-14)

    def test_literal_decomposition_still_holds(self):
        p = validate_params(dict(SINGLE_FIRM_FIXTURE, literal_signs=True))
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(size=2)
            assert revenue_f(p, x, Scope.FIRM1) + revenue_f(p, x, Scope.FIRM2) == pytest.approx(
                revenue_f(p, x, Scope.TOTAL), rel=1e-13, abs=1e-13)


class TestSocialCost:
    def test_zero_weights(self):
        p = validate_params(dict(TWO_FIRM_FIXTURE, kappa=0.0, **{"lambda": 0.0}))
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert social_cost_g(p, rng.normal(size=2)) == 0.0

    def test_two_firm_at_origin(self, two_firm):
        # 0.5*kappa*0 + 0.5*lambda*(0+0-1)^2
        assert social_cost_g(two_firm, (0.0, 0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_two_firm_on_target(self, two_firm):
        # penalized coordinate x2 = 0 and x1 + x2 = delta
        assert social_cost_g(two_firm, (1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_single_firm_penalizes_first_coordinate(self, single_firm):
        assert social_cost_g(single_firm, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-15)
        assert social_cost_g(single_firm, (1.0, 0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_literal_single_firm_weights(self):
        p = validate_params(dict(SINGLE_FIRM_FIXTURE, literal_signs=True))
        # deviation weight lambda (not lambda/2): 0.5*1*0 + 1*(0+0-1)^2
        assert social_cost_g(p, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_nonnegative_everywhere(self, two_firm, single_firm):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.normal(scale=3.0, size=2)
            assert social_cost_g(two_firm, x) >= 0.0
            assert social_cost_g(single_firm, x) >= 0.0

    def test_wrong_kind(self, nash_params):
        with pytest.raises(WrongKind):
            social_cost_g(nash_params, (0.0, 0.0))


class TestEffortCost:
    def test_zero_effort(self, nash_params):
        assert effort_cost_c(nash_params, 0.0, 1) == 0.0

    def test_frozen_values(self, nash_params):
        assert effort_cost_c(nash_params, 3.0, 1) == pytest.approx(3.0, abs=1e-15)  # 9/(2*1.5)
        assert effort_cost_c(nash_params, 1.0, 2) == pytest.approx(0.5, abs=1e-15)  # 1/(2*1.0)

    def test_even_and_strictly_convex(self, nash_params):
        rng = np.random.default_rng(5)
        h = 1e-3
        for _ in range(50):
            a = rng.normal(scale=2.0)
            assert effort_cost_c(nash_params, a, 1) == effort_cost_c(nash_params, -a, 1)
            second = (effort_cost_c(nash_params, a + h, 1)
                      - 2.0 * effort_cost_c(nash_params, a, 1)
                      + effort_cost_c(nash_params, a - h, 1))
            assert second > 0.0


def test_equal_params_hash_equal_and_share_cache_entries():
    a = validate_params(TWO_FIRM_FIXTURE)
    b = validate_params(dict(TWO_FIRM_FIXTURE))
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash(a)
    assert _rate_factors(b, 1) is _rate_factors(a, 1)
    hits = _rate_factors.cache_info().hits
    _rate_factors(b, 1)
    assert _rate_factors.cache_info().hits == hits + 1
    n = validate_params(NASH_FIXTURE)
    assert _payoff_factors(validate_params(NASH_FIXTURE), (1, 2), 1) is _payoff_factors(n, (1, 2), 1)
    assert replace(a, p0=2.0) != a
    copied = pickle.loads(pickle.dumps(a))
    assert copied == a and hash(copied) == hash(a)


def test_agent_aversions_by_kind(single_firm, two_firm):
    assert single_firm.agent_aversions() == (1.0,)
    assert two_firm.agent_aversions() == (1.0, 1.0)


def test_direct_construction_allows_limit_cases():
    # sigma = 0 is outside the validated domain but usable for limit checks
    p = ModelParams(kind=Kind.SINGLE_FIRM, gamma1=1.0, gamma2=1.0, sigma1=0.0,
                    sigma2=0.0, p0=0.0, p1=0.0, p2=0.0, horizon=1.0,
                    eta_a=1.0, eta_p=1.0, kappa=0.0, lambda_=0.0, delta=0.0)
    assert price(p, (1.0, 1.0)) == 0.0
