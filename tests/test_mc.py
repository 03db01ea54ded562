import math
import threading

import numpy as np
import pytest

from decarb import (
    ConfigMismatch,
    Deviation,
    Empty,
    Kind,
    ModelParams,
    NonFinitePath,
    OutOfRange,
    SimConfig,
    estimate_utility,
    feedback_strategies,
    certainty_surface,
    simulate_nash,
    simulate_principal,
    solve_nash,
    solve_principal,
    validate_params,
)
from decarb import mc
from decarb.mc import nash_path_payoffs, paired_difference, path_increments, principal_path_payoffs
from decarb.nash import FeedbackStrategy
from decarb.riccati import QuadraticValueFn, TimeGrid

from conftest import NASH_FIXTURE, SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE

# engine arguments that must be rejected at the boundary, with the field named
BAD_ENGINE_ARGS = [
    ("chunk_size", -3),
    ("chunk_size", 0),
    ("brownian_refinement", 0),
    ("brownian_refinement", -1),
    ("brownian_refinement", 1.5),
]


class TestEstimateUtility:
    def test_zero_payoffs(self):
        est = estimate_utility(np.zeros(10), eta=1.0)
        assert est.mean == -1.0 and est.std_err == 0.0

    def test_constant_payoffs(self):
        est = estimate_utility(np.full(7, 0.3), eta=2.0)
        assert est.mean == pytest.approx(-math.exp(-0.6), rel=1e-15)
        assert est.std_err == pytest.approx(0.0, abs=1e-16)

    def test_two_point_sample(self):
        # utilities -1 and -1/2: mean -3/4, unbiased s = 0.25*sqrt(2), se = 0.25
        est = estimate_utility([0.0, math.log(2.0)], eta=1.0)
        assert est.mean == pytest.approx(-0.75, rel=1e-15)
        assert est.std_err == pytest.approx(0.25, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(Empty):
            estimate_utility([], eta=1.0)

    def test_metadata(self):
        est = estimate_utility([1.0, 2.0], eta=0.5, label="firm1", seed=9)
        d = est.to_dict()
        assert d["label"] == "firm1" and d["n_paths"] == 2 and d["seed"] == 9


def noiseless_zero_economy() -> ModelParams:
    return ModelParams(
        kind=Kind.TWO_FIRM_REGULATED, gamma1=1.5, gamma2=1.0,
        sigma1=0.0, sigma2=0.0, eta1=1.0, eta2=1.0, eta_p=1.0,
        p0=0.0, p1=0.0, p2=0.0, kappa=0.0, lambda_=0.0, delta=0.0, horizon=1.0,
    )


class TestPrincipalSimulation:
    def test_noiseless_paths_are_deterministic_and_exact(self):
        # no noise and no flows: payments sit at y0, social cost at zero, so
        # the principal's utility is -exp(eta_p * sum(y0)) on every path
        p = noiseless_zero_economy()
        v = solve_principal(p, 101)
        cfg = SimConfig(n_paths=4, dt=0.01, seed=1, y0=0.25)
        pay_p, pays_a = principal_path_payoffs(p, v, cfg)
        assert np.all(pay_p == pay_p[0])
        est_p, agents = simulate_principal(p, v, cfg)
        assert est_p.std_err == 0.0
        assert est_p.mean == pytest.approx(-math.exp(0.5), rel=1e-12)
        for a in agents:
            assert a.mean == pytest.approx(-math.exp(-0.25), rel=1e-12)

    def test_bit_exact_reproducibility_and_chunk_independence(self, two_firm):
        v = solve_principal(two_firm, 201)
        cfg = SimConfig(n_paths=2000, dt=4e-3, seed=7)
        a, _ = simulate_principal(two_firm, v, cfg, chunk_size=128)
        b, _ = simulate_principal(two_firm, v, cfg, chunk_size=999)
        c, _ = simulate_principal(two_firm, v, cfg)
        assert a.mean == b.mean == c.mean
        assert a.std_err == b.std_err == c.std_err

    def test_negative_seed_supported(self, two_firm):
        v = solve_principal(two_firm, 201)
        cfg = SimConfig(n_paths=200, dt=4e-3, seed=-123)
        a, _ = simulate_principal(two_firm, v, cfg)
        b, _ = simulate_principal(two_firm, v, cfg)
        assert a == b and np.isfinite(a.mean)

    def test_value_match_quick(self, two_firm):
        v = solve_principal(two_firm)
        cfg = SimConfig(n_paths=20_000, dt=2e-3, seed=5)
        est, _ = simulate_principal(two_firm, v, cfg)
        target = -math.exp(-two_firm.eta_p * v.value(0.0, (0.0, 0.0)))
        assert abs(est.mean - target) <= 3.0 * est.std_err

    def test_single_firm_value_and_indifference(self, single_firm):
        v = solve_principal(single_firm)
        cfg = SimConfig(n_paths=20_000, dt=2e-3, seed=6, y0=0.4)
        est, (agent,) = simulate_principal(single_firm, v, cfg)
        target = -math.exp(-single_firm.eta_p * (v.value(0.0, (0.0, 0.0)) - 0.4))
        assert abs(est.mean - target) <= 3.0 * est.std_err
        assert agent.label == "agent"
        assert abs(agent.mean - (-math.exp(-0.4))) <= 3.0 * agent.std_err

    def test_agent_indifference_exact_under_left_point_scheme(self, two_firm):
        # with left-point sampling the payment compensators telescope against
        # the Gaussian increments, so agent estimates are unbiased at any dt
        v = solve_principal(two_firm, 201)
        cfg = SimConfig(n_paths=20_000, dt=0.02, seed=8, y0=(0.0, 0.5))
        _, agents = simulate_principal(two_firm, v, cfg, scheme="euler")
        for agent, y0 in zip(agents, (0.0, 0.5)):
            assert abs(agent.mean - (-math.exp(-y0))) <= 3.0 * agent.std_err

    def test_antithetic_consistency(self, two_firm):
        v = solve_principal(two_firm, 201)
        anti, _ = simulate_principal(two_firm, v, SimConfig(n_paths=10_000, dt=4e-3, seed=9))
        plain, _ = simulate_principal(
            two_firm, v, SimConfig(n_paths=10_000, dt=4e-3, seed=10, antithetic=False))
        gap = abs(anti.mean - plain.mean)
        assert gap <= 3.0 * math.hypot(anti.std_err, plain.std_err)

    def test_weak_order_ladder(self, two_firm):
        # left-point scheme on a shared Brownian path: halving dt halves the bias
        v = solve_principal(two_firm)
        target = -math.exp(-two_firm.eta_p * v.value(0.0, (0.0, 0.0)))
        biases = []
        for dt, ref in ((4e-3, 1), (2e-3, 2), (1e-3, 4)):
            cfg = SimConfig(n_paths=8_000, dt=dt, seed=3)
            est, _ = simulate_principal(two_firm, v, cfg, scheme="euler",
                                        brownian_refinement=ref)
            biases.append(abs(est.mean - target))
        assert biases[0] > biases[1] > biases[2]

    def test_config_validation(self, two_firm, single_firm, nash_params):
        v = solve_principal(two_firm, 201)
        with pytest.raises(OutOfRange):
            simulate_principal(two_firm, v, SimConfig(n_paths=3, seed=0))  # odd + antithetic
        with pytest.raises(OutOfRange):
            simulate_principal(two_firm, v, SimConfig(n_paths=1, antithetic=False))
        with pytest.raises(ConfigMismatch):
            simulate_principal(two_firm, v, SimConfig(n_paths=4, dt=0.3))
        with pytest.raises(ConfigMismatch):
            simulate_principal(two_firm, v, SimConfig(n_paths=4, y0=(0.1, 0.2, 0.3)))
        with pytest.raises(ConfigMismatch):
            simulate_principal(nash_params, v, SimConfig(n_paths=4))
        v_single = solve_principal(single_firm, 201)
        with pytest.raises(ConfigMismatch):
            simulate_principal(two_firm, v_single, SimConfig(n_paths=4))
        with pytest.raises(OutOfRange):
            simulate_principal(two_firm, v, SimConfig(n_paths=4), scheme="milstein")
        with pytest.raises(OutOfRange):
            simulate_principal(two_firm, v, SimConfig(n_paths=4, x0=(1.0, float("nan"))))

    @pytest.mark.parametrize("field,value", BAD_ENGINE_ARGS)
    def test_engine_arguments_validated(self, two_firm, field, value):
        v = solve_principal(two_firm, 101)
        with pytest.raises(OutOfRange) as exc:
            simulate_principal(two_firm, v, SimConfig(n_paths=4, dt=0.01), **{field: value})
        assert exc.value.field == field

    @pytest.mark.parametrize("antithetic,expected", [(True, (6, 631)), (False, (4, 630))])
    def test_non_finite_path_reported_exactly(self, two_firm, antithetic, expected):
        # a value function whose gradient grows with the state makes every
        # path explode; paths overflow a few steps apart, so the report is the
        # earliest step and the lowest canonical index failing at it, for
        # every chunking
        A = np.zeros((2, 2, 2))
        A[:, 0, 0] = A[:, 1, 1] = 400.0
        runaway = QuadraticValueFn(TimeGrid(1.0, 2), A, np.zeros((2, 2)), np.zeros(2),
                                   Kind.TWO_FIRM_REGULATED)
        cfg = SimConfig(n_paths=8, dt=1e-3, seed=23, antithetic=antithetic)
        for chunk_size in (1, 3, None):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFinitePath) as exc:
                    simulate_principal(two_firm, runaway, cfg, chunk_size=chunk_size)
            assert (exc.value.path_index, exc.value.t) == (expected[0], expected[1] * cfg.dt)


def passive_strategy(params: ModelParams, firm: int = 2) -> FeedbackStrategy:
    """A firm that never exerts effort."""
    nodes = np.array([0.0, 1.0])
    return FeedbackStrategy(firm=firm, gamma=params.gamma(firm), nodes=nodes,
                            kx=np.zeros(2), ky=np.zeros(2), k0=np.zeros(2))


class TestNashSimulation:
    def test_noiseless_zero_economy_utilities(self):
        p = ModelParams(kind=Kind.TWO_FIRM_NASH, gamma1=1.5, gamma2=1.0,
                        sigma1=0.0, sigma2=0.0, eta1=1.0, eta2=1.0,
                        p0=0.0, p1=0.0, p2=0.0, horizon=1.0)
        coeffs = solve_nash(p, 101)
        strategies = feedback_strategies(coeffs, p)
        e1, e2 = simulate_nash(p, strategies, SimConfig(n_paths=4, dt=0.01, seed=2))
        assert e1.mean == -1.0 and e2.mean == -1.0
        assert e1.std_err == 0.0 and e2.std_err == 0.0

    def test_equilibrium_value_match_quick(self, nash_params):
        coeffs = solve_nash(nash_params, 4001)
        strategies = feedback_strategies(coeffs, nash_params)
        cfg = SimConfig(n_paths=10_000, dt=2e-3, seed=17, x0=(0.0, 0.0))
        e1, e2 = simulate_nash(nash_params, strategies, cfg)
        t1 = -math.exp(nash_params.eta1 * certainty_surface(coeffs, 1, 0.0, 0.0, 0.0))
        t2 = -math.exp(nash_params.eta2 * certainty_surface(coeffs, 2, 0.0, 0.0, 0.0))
        assert abs(e1.mean - t1) <= 3.0 * e1.std_err
        assert abs(e2.mean - t2) <= 3.0 * e2.std_err

    def test_deviation_never_helps_quick(self, nash_params):
        coeffs = solve_nash(nash_params, 4001)
        strategies = feedback_strategies(coeffs, nash_params)
        cfg = SimConfig(n_paths=10_000, dt=2e-3, seed=18)
        z1_eq, _ = nash_path_payoffs(nash_params, strategies, cfg)
        u_eq = -np.exp(-nash_params.eta1 * z1_eq)
        z1_dev, _ = nash_path_payoffs(nash_params, strategies, cfg,
                                      deviation=Deviation(firm=1, scale=1.1))
        u_dev = -np.exp(-nash_params.eta1 * z1_dev)
        mean_d, se_d = paired_difference(u_dev, u_eq, cfg.antithetic)
        assert mean_d <= 2.0 * se_d

    def test_additive_shift_deviation(self, nash_params):
        coeffs = solve_nash(nash_params, 2001)
        strategies = feedback_strategies(coeffs, nash_params)
        cfg = SimConfig(n_paths=4_000, dt=4e-3, seed=19)
        _, z2_eq = nash_path_payoffs(nash_params, strategies, cfg)
        _, z2_dev = nash_path_payoffs(nash_params, strategies, cfg,
                                      deviation=Deviation(firm=2, shift=0.2))
        u_eq = -np.exp(-nash_params.eta2 * z2_eq)
        u_dev = -np.exp(-nash_params.eta2 * z2_dev)
        mean_d, se_d = paired_difference(u_dev, u_eq, cfg.antithetic)
        assert mean_d <= 2.0 * se_d

    def test_reproducibility(self, nash_params):
        coeffs = solve_nash(nash_params, 1001)
        strategies = feedback_strategies(coeffs, nash_params)
        cfg = SimConfig(n_paths=2_000, dt=4e-3, seed=20)
        a = simulate_nash(nash_params, strategies, cfg, chunk_size=64)
        b = simulate_nash(nash_params, strategies, cfg, chunk_size=977)
        assert a == b

    def test_non_finite_path_reported(self, nash_params):
        nodes = np.array([0.0, 1.0])
        runaway = FeedbackStrategy(firm=1, gamma=nash_params.gamma1, nodes=nodes,
                                   kx=np.array([-2e5, -2e5]), ky=np.zeros(2),
                                   k0=np.zeros(2))
        cfg = SimConfig(n_paths=8, dt=0.01, seed=21, x0=(1.0, 1.0))
        for chunk_size in (1, 3, None):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFinitePath) as exc:
                    simulate_nash(nash_params, (runaway, passive_strategy(nash_params)), cfg,
                                  chunk_size=chunk_size)
            assert (exc.value.path_index, exc.value.t) == (0, 23 * cfg.dt)

    @pytest.mark.parametrize("antithetic,expected", [(True, (4, 423)), (False, (2, 423))])
    def test_non_finite_path_index_is_chunk_independent(self, nash_params, antithetic, expected):
        # a milder runaway from x0 = 0: the noise sets each path's scale, so
        # paths overflow at different steps and the report is the earliest
        # step and the lowest canonical index failing at it
        nodes = np.array([0.0, 1.0])
        runaway = FeedbackStrategy(firm=1, gamma=nash_params.gamma1, nodes=nodes,
                                   kx=np.array([-600.0, -600.0]), ky=np.zeros(2),
                                   k0=np.zeros(2))
        cfg = SimConfig(n_paths=8, dt=1e-3, seed=21, antithetic=antithetic)
        for chunk_size in (1, 3, None):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFinitePath) as exc:
                    simulate_nash(nash_params, (runaway, passive_strategy(nash_params)), cfg,
                                  chunk_size=chunk_size)
            assert (exc.value.path_index, exc.value.t) == (expected[0], expected[1] * cfg.dt)

    @pytest.mark.parametrize("field,value", BAD_ENGINE_ARGS)
    def test_engine_arguments_validated(self, nash_params, field, value):
        strategies = (passive_strategy(nash_params, 1), passive_strategy(nash_params))
        with pytest.raises(OutOfRange) as exc:
            simulate_nash(nash_params, strategies, SimConfig(n_paths=4, dt=0.01), **{field: value})
        assert exc.value.field == field

    def test_wrong_kind(self, two_firm, nash_params):
        coeffs = solve_nash(nash_params, 101)
        strategies = feedback_strategies(coeffs, nash_params)
        with pytest.raises(ConfigMismatch):
            simulate_nash(two_firm, strategies, SimConfig(n_paths=4))
        with pytest.raises(OutOfRange):
            simulate_nash(nash_params, strategies, SimConfig(n_paths=4),
                          deviation=Deviation(firm=3))


# Payoff means of a 64-path run per model and engine setting, recorded before
# the two simulators were merged into one path engine; the engine must
# reproduce them (rel 1e-12 leaves room only for BLAS rounding).
# Keys: model/scheme-sampling-r<brownian_refinement>.
PINNED_MEANS = {
    "single/pc-anti-r1": (-0.49094463044877845, 0.3127381242408975),
    "two/pc-anti-r1": (-0.7257533936287797, 0.2964330401455568, 0.3188772945769784),
    "nash/pc-anti-r1": (-0.9450992017480455, -0.9679194961268319),
    "nashdev/pc-anti-r1": (-0.9446758497799941, -0.9693625683851217),
    "single/euler-anti-r1": (-0.5009197122786374, 0.3131742595177678),
    "two/euler-anti-r1": (-0.7368510364104003, 0.29645484465683014, 0.3193177778488827),
    "nash/euler-anti-r1": (-0.9517594703139076, -0.9725171804677726),
    "nashdev/euler-anti-r1": (-0.9518570448304459, -0.9749010627885145),
    "single/pc-plain-r1": (-0.48999492246148413, 0.2927417192001861),
    "two/pc-plain-r1": (-0.723770799583284, 0.2912548313243115, 0.3016783094093818),
    "nash/pc-plain-r1": (-0.96935910751818, -0.9555344030294624),
    "nashdev/pc-plain-r1": (-0.9680805624197636, -0.9580684481154561),
    "single/pc-anti-r2": (-0.48954255473616315, 0.3144524320735408),
    "two/pc-anti-r2": (-0.7237912412312149, 0.3007611546713376, 0.31399283693783653),
    "nash/pc-anti-r2": (-0.9508218855679562, -0.9610936896469997),
    "nashdev/pc-anti-r2": (-0.9502041407158217, -0.9625419537716129),
    "single/euler-plain-r2": (-0.49921878259252933, 0.3091337092787455),
    "two/euler-plain-r2": (-0.7340334306699441, 0.29927900614643194, 0.3094127424029524),
    "nash/euler-plain-r2": (-0.9716269521597274, -0.9673259400100518),
    "nashdev/euler-plain-r2": (-0.9714410617368918, -0.9712163321434883),
}


@pytest.fixture(scope="module")
def pinned_models():
    single = validate_params(SINGLE_FIRM_FIXTURE)
    two = validate_params(TWO_FIRM_FIXTURE)
    nash = validate_params(NASH_FIXTURE)
    return {
        "single": (single, solve_principal(single, 201)),
        "two": (two, solve_principal(two, 201)),
        "nash": (nash, feedback_strategies(solve_nash(nash, 201), nash)),
    }


class TestFrozenSeedOutputs:
    @pytest.mark.parametrize("key", sorted(PINNED_MEANS))
    def test_payoff_means_pinned(self, pinned_models, key):
        name, setting = key.split("/")
        scheme, sampling, ref = setting.split("-")
        cfg = SimConfig(n_paths=64, dt=0.02, seed=11, x0=(0.1, -0.2), y0=0.3,
                        antithetic=sampling == "anti")
        refinement = int(ref[1:])
        if name in ("single", "two"):
            params, v = pinned_models[name]
            pay_p, pays_a = principal_path_payoffs(params, v, cfg, scheme, None, refinement)
            payoffs = [pay_p, *pays_a]
        else:
            params, strategies = pinned_models["nash"]
            deviation = Deviation(2, scale=1.1, shift=-0.05) if name == "nashdev" else None
            payoffs = nash_path_payoffs(params, strategies, cfg, deviation, scheme, None, refinement)
        means = tuple(float(np.mean(z)) for z in payoffs)
        assert means == pytest.approx(PINNED_MEANS[key], rel=1e-12)


def fresh_draws(seed: int, substream: int, n_draws: int) -> np.ndarray:
    key = ((seed & 0xFFFFFFFFFFFFFFFF) << 64) | (substream & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal((n_draws, 2))


class TestPathIncrements:
    @pytest.mark.parametrize("seed", [-1, 0, 2**63])
    @pytest.mark.parametrize("substream", [0, 2**40])
    def test_matches_fresh_generator(self, seed, substream):
        expected = fresh_draws(seed, substream, 7)
        assert np.array_equal(path_increments(seed, substream, 7), expected)
        out = np.empty((7, 2))
        assert path_increments(seed, substream, 7, out=out) is out
        assert np.array_equal(out, expected)

    def test_unaffected_by_an_earlier_draw(self):
        # leave the thread's generator part-way through its output buffer and
        # holding a cached 32-bit half before the call under test
        path_increments(5, 3, 3)
        mc._philox.gen.integers(0, 2**32, size=3, dtype=np.uint32)
        assert np.array_equal(path_increments(9, 2**40, 5), fresh_draws(9, 2**40, 5))
        out = np.empty((5, 2))
        path_increments(-1, 0, 5, out=out)
        assert np.array_equal(out, fresh_draws(-1, 0, 5))

    def test_other_thread_draws_the_same(self):
        got = []
        worker = threading.Thread(target=lambda: got.append(path_increments(4, 6, 5)))
        worker.start()
        worker.join()
        assert np.array_equal(got[0], fresh_draws(4, 6, 5))
