import hashlib
import math
import sys
import threading
import weakref
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from decarb import (
    BlowUp,
    ConfigMismatch,
    Deviation,
    Kind,
    ModelParams,
    NonFinitePath,
    OutOfRange,
    SimConfig,
    feedback_strategies,
    certainty_surface,
    simulate_nash,
    simulate_principal,
    solve_nash,
    solve_principal,
    validate_params,
)
from decarb import mc, model
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


def estimate_utility(payoffs, eta, label="", seed=0):
    """One agent's utility estimate from its per-path payoffs, made as a simulation makes it."""
    z = np.asarray(payoffs, dtype=float)
    [est] = mc._estimates(SimConfig(n_paths=z.size, seed=seed, antithetic=False), [label], [eta], [z])
    return est


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
        with pytest.raises(ConfigMismatch) as exc:
            simulate_principal(two_firm, v, SimConfig(n_paths=4, dt=0.3))
        assert exc.value.field == "dt"
        with pytest.raises(ConfigMismatch) as exc:
            simulate_principal(two_firm, v, SimConfig(n_paths=4, y0=(0.1, 0.2, 0.3)))
        assert exc.value.field == "y0"
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

    @pytest.mark.parametrize("antithetic,expected", [(True, (6, 629)), (False, (3, 629))])
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

    @pytest.mark.parametrize("antithetic,expected", [(True, (0, 423)), (False, (0, 423))])
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

    @pytest.mark.parametrize("horizon", [0.5, 2.0])
    def test_strategies_solved_on_another_horizon(self, nash_params, horizon):
        # the engine's interpolation would hold the gains flat past the last
        # node, or use half of them, where a strategy's own call raises
        strategies = feedback_strategies(solve_nash(nash_params, 101), nash_params)
        other = replace(nash_params, horizon=horizon)
        cfg = SimConfig(n_paths=4, dt=0.01, seed=3)
        with pytest.raises(ConfigMismatch, match="strategy horizon"):
            nash_path_payoffs(other, strategies, cfg)
        with pytest.raises(ConfigMismatch, match="strategy horizon"):
            simulate_nash(other, strategies, cfg)

    def test_strategies_solved_on_a_shorter_horizon(self, nash_params):
        short = replace(nash_params, horizon=0.5)
        strategies = feedback_strategies(solve_nash(nash_params, 101), nash_params)
        mismatched = feedback_strategies(solve_nash(short, 51), short)
        cfg = SimConfig(n_paths=4, dt=0.01, seed=3)
        with pytest.raises(ConfigMismatch, match="firm 1 strategy horizon 0.5 != params horizon 1.0"):
            simulate_nash(nash_params, mismatched, cfg)
        with pytest.raises(ConfigMismatch, match="firm 2 strategy"):
            simulate_nash(nash_params, (strategies[0], mismatched[1]), cfg)
        # each set runs on its own horizon
        assert simulate_nash(short, mismatched, cfg)[0].n_paths == 4

    @pytest.mark.parametrize("order", [(1, 0), (0, 0), (1, 1)])
    def test_strategies_out_of_order(self, nash_params, order):
        # each row of the step reads its gains and gamma from its slot, so a
        # swapped or duplicated pair would simulate another game
        strategies = feedback_strategies(solve_nash(nash_params, 101), nash_params)
        picked = tuple(strategies[i] for i in order)
        cfg = SimConfig(n_paths=4, dt=0.01, seed=3)
        for run in (nash_path_payoffs, simulate_nash):
            with pytest.raises(ConfigMismatch, match="strategies must be firm 1's") as exc:
                run(nash_params, picked, cfg)
            assert exc.value.field == "strategies"

    @pytest.mark.parametrize("firm", [1, 2])
    def test_strategy_gamma_not_the_models(self, nash_params, firm):
        # the step scales the effort by the strategy's gamma while the flow
        # charges it at the model's, so another gamma would simulate another game
        strategies = list(feedback_strategies(solve_nash(nash_params, 101), nash_params))
        strategies[firm - 1] = replace(strategies[firm - 1], gamma=2.0 * nash_params.gamma(firm))
        cfg = SimConfig(n_paths=4, dt=0.01, seed=3)
        for run in (nash_path_payoffs, simulate_nash):
            with pytest.raises(ConfigMismatch, match=f"firm {firm} strategy gamma") as exc:
                run(nash_params, tuple(strategies), cfg)
            assert exc.value.field == "strategies"

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


class PlantedStep:
    """A step that follows the engine's contract and turns chosen paths
    non-finite at chosen steps.

    ``plants`` holds (kind, step, canonical path index): a ``"state"`` plant
    makes a NaN drift in one state row, so the path's state is NaN after that
    many steps; a ``"checked"`` plant an infinite flow into the checked
    accumulator, which is infinite after that many steps; an ``"unchecked"``
    plant the same in the unchecked accumulator, which the engine ignores.
    Each plant is made by the evaluation with flows at the node whose drift
    or flow first enters that step (see the module docstring of ``mc``).
    """

    sigma = np.array([[0.5], [0.25]])
    acc0 = (0.0, 1.0)  # checked, unchecked
    n_checked = n_payoffs = 1
    payment_noise = None
    odd = False

    def __init__(self, plants, pc: bool, antithetic: bool):
        self.plants = {}
        for kind, step, index in plants:
            # the flows of a pc step are the trapezoid of its two end nodes
            node = step - 1 if kind == "state" or not pc else step
            self.plants.setdefault(node, []).append((kind, step, index))
        self.antithetic = antithetic
        self.chunk = None  # (first substream, count) of the chunk being marched

    def slots(self, drift, flow):
        return tuple(zip(drift, flow))

    def rows(self, index: int) -> list[int]:
        """This chunk's row of the canonical path ``index``, if it holds one."""
        start, count = self.chunk
        sub, mirror = divmod(index, 2) if self.antithetic else (index, 0)
        return [sub - start + mirror * count] if start <= sub < start + count else []

    def evaluate(self, k, S, slot, w=None):
        drift, flow = slot
        np.negative(S, out=drift)
        if w is None:
            return
        np.multiply(S[0], S[1], out=flow[0])
        flow[1] = 0.0
        for kind, step, index in self.plants.get(k, ()):
            if kind == "state":
                drift[step % 2, self.rows(index)] = np.nan
            else:
                flow[int(kind == "unchecked"), self.rows(index)] = np.inf

    def payoffs(self, acc):
        return acc[:1]


class SymmetricPlantedStep(PlantedStep):
    """A :class:`PlantedStep` that is odd, as its drift ``-S`` is odd and its
    flow ``x*y`` even in the state, for antithetic sampling.

    Each plant ``(kind, step, substream)`` turns the drawn path and its
    mirror non-finite together, as an odd step's mirror follows its drawn
    path; under the half-width march the mirror is not marched.  ``widths``
    records the march widths seen, in rows per substream.
    """

    def __init__(self, plants, pc: bool, odd: bool):
        super().__init__(plants, pc, antithetic=True)
        self.odd = odd
        self.widths = set()

    def rows(self, sub: int) -> list[int]:
        start, count = self.chunk
        return [sub - start + h * count for h in range(self.width)] if start <= sub < start + count else []

    def evaluate(self, k, S, slot, w=None):
        self.width = S.shape[1] // self.chunk[1]
        self.widths.add(self.width)
        super().evaluate(k, S, slot, w)


class TestBlockChecks:
    """The march checks finiteness once per ``mc._CHECK`` steps and after the
    last, and re-marches a failed chunk checking every step, so the report is
    still the earliest step and the lowest canonical index failing at it."""

    N_PATHS, N_STEPS = 10, 70  # the last block (steps 65-70) is partial
    DT = 1.0 / N_STEPS  # on the unit horizon of NASH_FIXTURE
    CHUNK_SIZES = (1, 3, None)

    def run(self, stub, scheme, antithetic, chunk_size):
        cfg = SimConfig(n_paths=self.N_PATHS, dt=self.DT, seed=37, antithetic=antithetic)
        draw = mc._draw_chunk

        def recorded(seed, start, count, *rest):
            stub.chunk = (start, count)
            return draw(seed, start, count, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_draw_chunk", recorded)
            return mc._run_paths(lambda nodes: stub, validate_params(NASH_FIXTURE), cfg, scheme,
                                 chunk_size, 1)

    def check(self, plants, scheme, antithetic):
        """Every chunking reports the earliest planted (step, index) of the
        state or the checked accumulator, or returns finite payoffs."""
        failing = [(step, index) for kind, step, index in plants if kind != "unchecked"]
        for chunk_size in self.CHUNK_SIZES:
            stub = PlantedStep(plants, scheme == "pc", antithetic)
            if not failing:
                [payoffs] = self.run(stub, scheme, antithetic, chunk_size)
                assert np.isfinite(payoffs).all()
                continue
            with pytest.raises(NonFinitePath) as exc:
                self.run(stub, scheme, antithetic, chunk_size)
            step, index = min(failing)
            assert (exc.value.path_index, exc.value.t) == (index, step * self.DT), chunk_size

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("scheme", ["pc", "euler"])
    @pytest.mark.parametrize("plants", [
        [("state", 1, 3)],
        [("state", 31, 4), ("state", 32, 1)],
        [("state", 32, 5), ("state", 33, 0)],
        [("state", 33, 6), ("checked", 34, 0)],
        [("state", 64, 2), ("state", 65, 1)],
        [("state", 70, 2)],
        [("checked", 70, 9), ("state", 69, 8)],
        # a later chunk fails earlier than the first, and at one step by two paths
        [("state", 40, 0), ("state", 5, 9), ("checked", 5, 8)],
        # only a checked accumulator fails, after an unchecked one
        [("checked", 33, 7), ("unchecked", 2, 0)],
        [("unchecked", 1, 0), ("unchecked", 70, 9)],
    ], ids=lambda plants: "-".join(f"{kind}{step}p{index}" for kind, step, index in plants))
    def test_planted_boundaries(self, plants, scheme, antithetic):
        assert mc._CHECK == 32  # the plants sit at the edges of 32-step blocks
        self.check(plants, scheme, antithetic)

    @settings(deadline=None, max_examples=40)
    @given(plants=st.lists(st.tuples(st.sampled_from(["state", "checked", "unchecked"]),
                                     st.integers(1, N_STEPS), st.integers(0, N_PATHS - 1)),
                           max_size=5),
           scheme=st.sampled_from(["pc", "euler"]), antithetic=st.booleans())
    def test_any_planted_set(self, plants, scheme, antithetic):
        self.check(plants, scheme, antithetic)

    @pytest.mark.parametrize("scheme", ["pc", "euler"])
    @pytest.mark.parametrize("plants", [
        [("state", 1, 1)],
        [("state", 31, 2), ("state", 32, 0)],
        [("state", 33, 3), ("checked", 34, 0)],
        [("state", 70, 4)],
        [("state", 40, 0), ("state", 5, 4), ("checked", 5, 3)],
        [("checked", 33, 2), ("unchecked", 2, 0)],
        [("unchecked", 1, 0)],
    ], ids=lambda plants: "-".join(f"{kind}{step}s{sub}" for kind, step, sub in plants))
    def test_half_width_march_reports_as_the_full(self, plants, scheme):
        # an odd step from the origin marches only the drawn rows; a path
        # failing there fails with its mirror, so the report names the
        # drawn path, the lower index, at the same step as a full march
        failing = [(step, 2 * sub) for kind, step, sub in plants if kind != "unchecked"]
        for chunk_size in self.CHUNK_SIZES:
            outcomes = []
            for odd in (True, False):
                stub = SymmetricPlantedStep(plants, scheme == "pc", odd)
                try:
                    outcomes.append(self.run(stub, scheme, True, chunk_size)[0])
                except NonFinitePath as exc:
                    outcomes.append((exc.path_index, exc.t))
                assert stub.widths == {1 if odd else 2}
            half, full = outcomes
            if failing:
                step, index = min(failing)
                assert half == full == (index, step * self.DT), chunk_size
            else:
                assert np.array_equal(half.view(np.int64), full.view(np.int64)), chunk_size


# Payoff means of a 64-path run per model and engine setting, recorded on the
# stream of SFC64 generators per group of 64 substreams; the engine must
# reproduce them (rel 1e-12 leaves room only for BLAS rounding).
# Keys: model/scheme-sampling-r<brownian_refinement>.
PINNED_MEANS = {
    "single/pc-anti-r1": (-0.4887949928295563, 0.3128849715197647),
    "two/pc-anti-r1": (-0.7228449456989835, 0.30531320299299847, 0.3039969798759342),
    "nash/pc-anti-r1": (-0.9536672105857789, -0.9520592883773431),
    "nashdev/pc-anti-r1": (-0.9533538447575052, -0.9534575419079978),
    "single/euler-anti-r1": (-0.49878378890419306, 0.3133402828082213),
    "two/euler-anti-r1": (-0.7338517373113551, 0.3054616694191581, 0.3042292838409639),
    "nash/euler-anti-r1": (-0.9597309796319855, -0.9570840257979922),
    "nashdev/euler-anti-r1": (-0.9599046646455935, -0.9594190326180322),
    "single/pc-plain-r1": (-0.4891878566913749, 0.2987611771602966),
    "two/pc-plain-r1": (-0.7222886666435355, 0.3109762574211964, 0.2886183964520552),
    "nash/pc-plain-r1": (-0.9575185007985983, -0.9542902323423962),
    "nashdev/pc-plain-r1": (-0.9575884734907714, -0.9553070901765388),
    "single/pc-anti-r2": (-0.4892195274020701, 0.3055382745540526),
    "two/pc-anti-r2": (-0.7228005560412154, 0.30361204480817217, 0.29701987865127577),
    "nash/pc-anti-r2": (-0.9539672507959933, -0.9462001231363626),
    "nashdev/pc-anti-r2": (-0.9534886722007381, -0.9475725007727762),
    "single/euler-plain-r2": (-0.4992645724742036, 0.29924323361513094),
    "two/euler-plain-r2": (-0.7338020619812057, 0.30932698132628367, 0.29077560789926515),
    "nash/euler-plain-r2": (-0.9650964889570188, -0.957217678689952),
    "nashdev/euler-plain-r2": (-0.9656694981811862, -0.9596094368288681),
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


def payoff_digest(payoffs) -> str:
    """SHA-256 over the raw bytes of every payoff array, in order."""
    h = hashlib.sha256()
    for z in payoffs:
        h.update(np.ascontiguousarray(z).tobytes())
    return h.hexdigest()


# SHA-256 of every payoff array of a 64-path run per model and engine
# setting, recorded on the same stream; a change in the last bit of one path
# changes the digest.  Every chunking must give
# the same digest.  Keys: model/scheme-sampling-r<brownian_refinement>.
PINNED_DIGESTS = {
    "single/pc-anti-r1": "2600d0d7a41dc6edc198c66c9e8ddd9d5ea72a2745abf1e0d7f7ea2c6daed2bf",
    "single/pc-anti-r2": "0bec7b4bb362bd2b5fedf02216355f38e388c5d1d9deaa87278a5ec51409b6eb",
    "single/pc-plain-r1": "ca35b9c6f1aa70ba328e0780cda80764983c3b24e50b5d5e81d64bcbdfb5b9e7",
    "single/pc-plain-r2": "bcfeae199462ae9dc9c4d11c4b6ec3db14fbefcbbdd38b31293039730c21138e",
    "single/euler-anti-r1": "88c8ffc77b4dbc0098e253e66b0273a73b636e3ed57480e5f5d5a9567e562686",
    "single/euler-anti-r2": "65a62a130f900b76110446efb6439cec5771a30a135538db3e55f5f0e4e450ce",
    "single/euler-plain-r1": "2b1ab00fc61874125828dbb3e37e370d3d93545238d5f4f1e6e72c0866a59ecd",
    "single/euler-plain-r2": "f19224124415dc18a1cb7506bbcbe26db4e4852e3c4ad0ba4d65dc5a4d34a888",
    "literal/pc-anti-r1": "9968b571c337f3049a0ef63e61be8342ec181720f7b9d7d0bdc2602851cd9243",
    "literal/pc-anti-r2": "d2e0c5d96cec34421f848947fc4bade8e9b49466c8dba8283bb8a2862f0e5d4d",
    "literal/pc-plain-r1": "4b9a8d4a889867b836ccd17bde4832bd01070d89ee2eecafdae32a195d03e1e5",
    "literal/pc-plain-r2": "73d8635a0f404e101ae3d8c4d5d34882b974217b98bd84e856d62b75761c6d8c",
    "literal/euler-anti-r1": "545e49cd148435c76fcf3625094f626dfb68a9494d05dafcf746398fc3ba974f",
    "literal/euler-anti-r2": "86ba6992e4286084032958232efe2f75e28716b3771135db31a86c5f55b5ed89",
    "literal/euler-plain-r1": "fb4e804e2e7568f23f319ed9614dad2034584603235c1b8fbe792e7a9f3e284f",
    "literal/euler-plain-r2": "33a2aa562b529c8899e877f4f8e3b7fe16d93947dbf39ae903574c6f1bc725c4",
    "two/pc-anti-r1": "58f596d59ce8a256a9aa102a2d647644791c116250ae4ca2fb0edff68349cdab",
    "two/pc-anti-r2": "e46c67183bc7b79ee4cd4726f605387d04d65f9d6a85367b3624d2547e6d5c79",
    "two/pc-plain-r1": "93a35aa93ec259f786df65dc42a3723bf3893741a1a5c5be19c350d9858fe3a0",
    "two/pc-plain-r2": "4c0b95bf26f761bf8d9c511de9152c5f2a1ad2d1f4d11ca434dd1b32a8b100f4",
    "two/euler-anti-r1": "5a37988ce65d718021a740476b3d8f45fde558e663012f1b8cf74cf288e0b903",
    "two/euler-anti-r2": "4e9678bb6026925d8cc1eae6599e9c4d80140e8d42793fee083e6ac4bba0d94f",
    "two/euler-plain-r1": "7a2be9265a26658a5e82d1360d29658d34ab853bb78775b59b9de454d9ec5056",
    "two/euler-plain-r2": "bf3d6efd7525060a963227ab7998bc420526c6b5b2d123fe06ebee90d34210af",
    "nash/pc-anti-r1": "7f46d8f37a4d4aa732bf8c939360b2d91968ce2d49d022487c584ead3b03a1bf",
    "nash/pc-anti-r2": "f27ced5a95d82dc1efb6fccac1214af5c2198e497c00c0853eab8de788fb637e",
    "nash/pc-plain-r1": "b24972833069e7360d5bdfb16333683effee67a3bf13dbe2d9d379e5f52fb027",
    "nash/pc-plain-r2": "76d508240f5717867065b5e7ea738a3b77c0ad1b2fd18a7207ba1c5eb5e6f482",
    "nash/euler-anti-r1": "0c46432df164df8589053e3006672c353c3a0eec58d6df3cf52968d2cb1945a2",
    "nash/euler-anti-r2": "474a70892cc9ecb646316df0d666ac0029d48d64edfb6b923c4efad02ca549ff",
    "nash/euler-plain-r1": "f7490e3f384a7669958114121836f55629b7d3dac1746e97c4887b6cbdbbe673",
    "nash/euler-plain-r2": "ed5682a68e1a7ab2b4e353dfa1327d612d9e2bb2ae858f21221fb19f8f6605bf",
    "nashdev/pc-anti-r1": "1d45f21e2111d2405c64be67337c775e540f7bd86f0316ab52e1033989cf0e7e",
    "nashdev/pc-anti-r2": "58d9f2334191100df1f1308c24f6f365b0dd7e92484a8293ca11735455ba598e",
    "nashdev/pc-plain-r1": "cfc37c3deafd06b2b2c648d0b8c19cc4cb45838e6cf22643fb5b2f162a4d520b",
    "nashdev/pc-plain-r2": "92872bc5a97d694b62db602eb73397d92ddcff9f752caaa3b8d438eab8fbe6cb",
    "nashdev/euler-anti-r1": "14328f66cf7f0ae189aa4ddc3fdb0b932e16129af30fe1932ff970247ec6f687",
    "nashdev/euler-anti-r2": "e20f91389059524150b4f956419ac16007f9a8d5c11fb33ebb7bcea0fafdb049",
    "nashdev/euler-plain-r1": "d0a2f4997271c767e7bfd6d8e4ea7ae430944b58a56fd2cc17ce5f254091d600",
    "nashdev/euler-plain-r2": "78f32c76cb84c73f1ce075435dc5740f62699c90aa5ebf9d3ba0ce3b95652582",
}
# two-firm principal at the benchmark's mc_long shape: one full chunk of 1000 pc steps
PINNED_LONG_DIGEST = "0608dd73a0d4637fd87cf8b5d6c0402198dbedfb3de657b10dadd002c72112b2"
# The game's digests from x0 = (0, 0) under antithetic sampling, where every
# mirror is its drawn path negated and only the drawn half is marched
# (TestHalfWidthMarch checks that against a march of both halves).
# Keys: run/scheme-r<brownian_refinement>, the run one of ORIGIN_DEVIATIONS.
ORIGIN_DEVIATIONS = {"eq": None, "dev1": Deviation(1, 0.9), "dev2": Deviation(2, 1.1)}
PINNED_ORIGIN_DIGESTS = {
    "eq/pc-r1": "231eff8b5bc94670a9a1c0885fcb82c275177b95e72a63aee9548d6c4f98c266",
    "eq/pc-r2": "bf8cc30ea37660ace3c3140205784a955b64add9b231bc06be1f0ea45591f86a",
    "eq/euler-r1": "8216cb013cdcbd970a45518060727c43667dda73f4e0113d87d0dc8756069573",
    "eq/euler-r2": "3ad04aa792b02cf856c10deaa1a07c98c110e4d3f781dcceadcd8fed31743ff4",
    "dev1/pc-r1": "9475895c8495fdddc5625256619d1ac8749cb7247599a4da584058f55cb7967d",
    "dev1/pc-r2": "3110a4d9c4b94f3c5817f3958f99605fb83abf34c0296d8501c1968e9de26ead",
    "dev1/euler-r1": "ca20ba72b27d9d5a415d7bc25ad12ef23886af79b4089424a5898e2adf181d75",
    "dev1/euler-r2": "1fc85e2038b18922538cfc0f7f5a117a2bfaf7e675187c9966cbc8621af458f8",
    "dev2/pc-r1": "d8fac57114aefc2132def5fd393b6f0cd82e7f4d77b38ff5cf57266dd88df2f0",
    "dev2/pc-r2": "8a5d7207e84a8ee3df4a42f7cda155e0ce3c6d281df80deb7b8a43d79b2d2eae",
    "dev2/euler-r1": "74be30345f9109d90b78b36648928c2ffe6077a05dadaf1291647592c2bc7ead",
    "dev2/euler-r2": "689edb83e908e20e9ede7ca4cc84628ba2b6282689e8fac77f197f41a3301a0f",
}


@pytest.fixture(scope="module")
def digest_models(pinned_models):
    literal = validate_params(dict(SINGLE_FIRM_FIXTURE, literal_signs=True))
    return dict(pinned_models, literal=(literal, solve_principal(literal, 201)))


def pinned_payoffs(models, name, cfg, scheme, chunk_size, refinement):
    if name in ("single", "literal", "two"):
        params, v = models[name]
        pay_p, pays_a = principal_path_payoffs(params, v, cfg, scheme, chunk_size, refinement)
        return [pay_p, *pays_a]
    params, strategies = models["nash"]
    deviation = Deviation(1, 0.9, 0.05) if name == "nashdev" else None
    return nash_path_payoffs(params, strategies, cfg, deviation, scheme, chunk_size, refinement)


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

    @pytest.mark.parametrize("chunk_size", [None, 7])
    @pytest.mark.parametrize("key", sorted(PINNED_DIGESTS))
    def test_payoff_bits_pinned(self, digest_models, key, chunk_size):
        name, setting = key.split("/")
        scheme, sampling, ref = setting.split("-")
        cfg = SimConfig(n_paths=64, dt=0.02, seed=11, x0=(0.1, -0.2), y0=0.3,
                        antithetic=sampling == "anti")
        payoffs = pinned_payoffs(digest_models, name, cfg, scheme, chunk_size, int(ref[1:]))
        assert payoff_digest(payoffs) == PINNED_DIGESTS[key]

    @pytest.mark.parametrize("chunk_size", [None, 7])
    @pytest.mark.parametrize("key", sorted(PINNED_ORIGIN_DIGESTS))
    def test_payoff_bits_pinned_from_the_origin(self, pinned_models, key, chunk_size):
        run, setting = key.split("/")
        scheme, ref = setting.split("-")
        params, strategies = pinned_models["nash"]
        cfg = SimConfig(n_paths=64, dt=0.02, seed=11, x0=(0.0, 0.0))
        payoffs = nash_path_payoffs(params, strategies, cfg, ORIGIN_DEVIATIONS[run], scheme,
                                    chunk_size, int(ref[1:]))
        assert payoff_digest(payoffs) == PINNED_ORIGIN_DIGESTS[key]

    def test_payoff_bits_pinned_long(self, two_firm):
        v = solve_principal(two_firm, 1001)
        cfg = SimConfig(n_paths=8192, dt=1e-3, seed=11, x0=(0.1, -0.2), y0=0.3)
        pay_p, pays_a = principal_path_payoffs(two_firm, v, cfg)
        assert payoff_digest([pay_p, *pays_a]) == PINNED_LONG_DIGEST


def fresh_draws(seed: int, group: int, n_draws: int) -> np.ndarray:
    """Group ``group``'s draws from a generator built as the stream defines it."""
    keyed = np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(group & 0xFFFFFFFFFFFFFFFF,))
    return np.random.Generator(np.random.SFC64(keyed)).standard_normal((n_draws, 2, 64))


def fresh_columns(seed: int, start: int, count: int, n_draws: int) -> np.ndarray:
    """Substreams start .. start+count-1, each column taken from its group's fresh draws."""
    groups = {}
    columns = np.empty((n_draws, 2, count))
    for j in range(count):
        group, column = divmod(start + j, 64)
        if group not in groups:
            groups[group] = fresh_draws(seed, group, n_draws)
        columns[:, :, j] = groups[group][:, :, column]
    return columns


class TestPathIncrements:
    @pytest.mark.parametrize("seed", [-1, 0, 2**63])
    @pytest.mark.parametrize("group", [0, 2**40])
    def test_matches_fresh_generator(self, seed, group):
        expected = fresh_draws(seed, group, 7)
        assert np.array_equal(path_increments(seed, group, 7), expected)
        out = np.empty((7, 2, 64))
        assert path_increments(seed, group, 7, out=out) is out
        assert np.array_equal(out, expected)

    def test_unaffected_by_an_earlier_draw(self):
        # no generator outlives a call: a draw of another length or key
        # before the call under test changes nothing
        path_increments(5, 3, 3)
        path_increments(9, 2**40, 1)
        assert np.array_equal(path_increments(9, 2**40, 5), fresh_draws(9, 2**40, 5))
        out = np.empty((5, 2, 64))
        path_increments(-1, 0, 5, out=out)
        assert np.array_equal(out, fresh_draws(-1, 0, 5))

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(-2**63, 2**64 - 1), group=st.integers(-2**63, 2**64 - 1),
           fresh_thread=st.booleans())
    def test_any_64_bit_key_matches_fresh_generator(self, seed, group, fresh_thread):
        if fresh_thread:  # a thread that has drawn nothing yet
            got = []
            worker = threading.Thread(target=lambda: got.append(path_increments(seed, group, 5)))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            drawn = got[0]
        else:  # this thread, after a draw of another key
            path_increments(5, 3, 3)
            drawn = path_increments(seed, group, 5)
        assert np.array_equal(drawn, fresh_draws(seed, group, 5))

    def test_other_thread_draws_the_same(self):
        got = []
        worker = threading.Thread(target=lambda: got.append(path_increments(4, 6, 5)))
        worker.start()
        worker.join()
        assert np.array_equal(got[0], fresh_draws(4, 6, 5))


def evict_chunk_memo() -> None:
    """Leave a chunk no test below draws in this thread's memo."""
    mc._draw_chunk(2**50, 0, 1, 1, 1)


class TestDrawChunk:
    @pytest.mark.parametrize("refinement", [1, 2])
    def test_step_major_layout(self, refinement):
        seed, start, count, n_steps = 3, 5, 2 * 64 + 3, 4  # starts and ends inside a group
        inc = mc._draw_chunk(seed, start, count, n_steps, refinement)
        assert inc.shape == (n_steps, 2, count)
        fine = fresh_columns(seed, start, count, n_steps * refinement)
        for j in range(count):
            path = fine[:, :, j]
            if refinement > 1:
                path = np.divide(path.reshape(n_steps, refinement, 2).sum(axis=1), math.sqrt(refinement))
            for k in range(n_steps):
                assert np.array_equal(inc[k, :, j], path[k])

    def test_full_chunk_columns_match_fresh_generators(self):
        seed, start, n_steps = 3, mc._CHUNK, 200  # the second chunk of a run
        inc = mc._draw_chunk(seed, start, mc._CHUNK, n_steps, 1)
        for j in (0, 63, 64, mc._CHUNK - 1):
            group, column = divmod(start + j, 64)
            assert np.array_equal(inc[:, :, j], fresh_draws(seed, group, n_steps)[:, :, column])
        evict_chunk_memo()

    @pytest.mark.parametrize("start", [0, 61])
    @pytest.mark.parametrize("count", [1, 7, 63, 65, 4096])
    def test_chunk_columns_equal_their_groups(self, start, count):
        # from 61, every count but 1 crosses a group boundary
        seed, n_steps = 5, 3
        inc = mc._draw_chunk(seed, start, count, n_steps, 1)
        assert np.array_equal(inc, fresh_columns(seed, start, count, n_steps))
        evict_chunk_memo()

    @pytest.mark.parametrize("refinement", [1, 2, 4, 5])
    def test_fine_draws_fixed_across_a_refinement_ladder(self, refinement):
        # n_steps * refinement stays 20: every rung sums the same fine draws
        seed, start, count, n_fine = 9, 61, 70, 20
        n_steps = n_fine // refinement
        inc = mc._draw_chunk(seed, start, count, n_steps, refinement)
        fine = fresh_columns(seed, start, count, n_fine)
        coarse = fine.reshape(n_steps, refinement, 2, count).sum(axis=1) / math.sqrt(refinement)
        assert np.array_equal(inc, coarse)
        evict_chunk_memo()

    def test_a_full_chunk_looks_standard_normal(self):
        # every bound is 5 standard errors, set before the first run
        n_steps, count = 200, mc._CHUNK
        inc = mc._draw_chunk(41, 0, count, n_steps, 1)
        evict_chunk_memo()
        # per coordinate (step and state), across the substreams
        assert np.abs(inc.mean(axis=2)).max() <= 5.0 / math.sqrt(count)
        assert np.abs(inc.var(axis=2, ddof=1) - 1.0).max() <= 5.0 * math.sqrt(2.0 / (count - 1))
        # per substream, across steps and states
        assert np.abs(inc.mean(axis=(0, 1))).max() <= 5.0 / math.sqrt(2 * n_steps)
        # neighbouring columns, within a group and across its edges, and the
        # same column of neighbouring groups; a product of two independent
        # standard normals has variance 1
        for lag in (1, 64):
            products = inc[:, :, :-lag] * inc[:, :, lag:]
            assert abs(products.mean()) <= 5.0 / math.sqrt(products.size)
            # and per block of 64 products: each group (lag 1), each pair of groups (lag 64)
            per_group = products[:, :, :count - 64].reshape(n_steps, 2, -1, 64).mean(axis=(0, 1, 3))
            assert np.abs(per_group).max() <= 5.0 / math.sqrt(n_steps * 2 * 64)

    @pytest.mark.parametrize("other", [(8, 0, 10, 6, 1), (7, 1, 10, 6, 1), (7, 0, 9, 6, 1),
                                       (7, 0, 10, 5, 1), (7, 0, 10, 6, 2)])
    def test_memo_holds_one_read_only_chunk(self, other):
        key = (7, 0, 10, 6, 1)
        evict_chunk_memo()
        first = mc._draw_chunk(*key)
        assert mc._draw_chunk(*key) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0] = 0.0
        evicting = mc._draw_chunk(*other)
        assert mc._local.chunk[0] == other and mc._local.chunk[1] is evicting
        again = mc._draw_chunk(*key)
        assert again is not first and np.array_equal(again, first)

    def test_each_thread_has_its_own_memo(self):
        key = (7, 0, 10, 6, 1)
        mine = mc._draw_chunk(*key)
        got = []
        worker = threading.Thread(target=lambda: got.append(mc._draw_chunk(*key)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert got[0] is not mine and np.array_equal(got[0], mine)
        assert mc._draw_chunk(*key) is mine

    def test_no_two_chunks_alive_together(self, monkeypatch, two_firm):
        v = solve_principal(two_firm, 201)
        cfg = SimConfig(n_paths=64, dt=0.02, seed=31)
        draw, increments, chunks = mc._draw_chunk, mc.path_increments, []

        class Numpy:  # numpy as the engine sees it, recording each np.empty by chunk
            def __getattr__(self, attr):
                return getattr(np, attr)

            def empty(self, *args, **kwargs):
                a = np.empty(*args, **kwargs)
                if chunks:
                    chunks[-1].append(weakref.ref(a))
                return a

        def tracked_draw(*args):
            chunks.append([])
            return draw(*args)

        def checked_increments(*args, **kwargs):
            # the new chunk is allocated by now: every array of an earlier one
            # (its draws, the engine's buffers, the step's slots) must be freed
            assert [ref() for chunk in chunks[:-1] for ref in chunk if ref() is not None] == []
            return increments(*args, **kwargs)

        evict_chunk_memo()
        monkeypatch.setattr(mc, "np", Numpy())
        monkeypatch.setattr(mc, "_draw_chunk", tracked_draw)
        monkeypatch.setattr(mc, "path_increments", checked_increments)
        principal_path_payoffs(two_firm, v, cfg, chunk_size=8)
        assert len(chunks) == 4 and all(len(chunk) >= 8 for chunk in chunks)

    def test_common_random_number_runs_draw_once(self, monkeypatch, nash_params):
        strategies = feedback_strategies(solve_nash(nash_params, 201), nash_params)
        cfg = SimConfig(n_paths=64, dt=0.02, seed=32)
        deviation = Deviation(firm=1, scale=0.9)
        evict_chunk_memo()
        fresh = nash_path_payoffs(nash_params, strategies, cfg, deviation)
        increments, calls = mc.path_increments, []

        def counted(*args, **kwargs):
            calls.append(args)
            return increments(*args, **kwargs)

        evict_chunk_memo()
        monkeypatch.setattr(mc, "path_increments", counted)
        nash_path_payoffs(nash_params, strategies, cfg)
        assert calls == [(32, 0, 50)]  # the 32 substreams are group 0
        reused = nash_path_payoffs(nash_params, strategies, cfg, deviation)
        assert len(calls) == 1
        for a, b in zip(reused, fresh):
            assert np.array_equal(a, b)


def test_nash_step_neither_hashes_nor_compares_params(pinned_models):
    # the flows' factors are cached on plain numbers: a step that keyed a
    # cache on ModelParams would run its generated __hash__ (and __eq__ for
    # an equal copy) once per step
    params, strategies = pinned_models["nash"]
    watched = {ModelParams.__hash__.__code__, ModelParams.__eq__.__code__}

    def calls(n_steps):
        seen = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                seen.append(frame.f_code.co_name)

        cfg = SimConfig(n_paths=16, dt=params.horizon / n_steps, seed=35)
        sys.setprofile(profile)
        try:
            nash_path_payoffs(params, strategies, cfg)
        finally:
            sys.setprofile(None)
        return seen

    assert len(calls(200)) - len(calls(100)) == 0


class TestTracedBoundaries:
    """The engine reaches the RNG and the flow functions through these module
    attributes, so wrapping one counts every call: once per group of 64
    substreams each drawn chunk touches, and one flow evaluation per step
    plus the first under pc.
    A flow call's arguments show the rows marched: two per substream under
    antithetic sampling, or one where the mirror is the drawn path negated."""

    N_PATHS, DT, CHUNK = 64, 0.02, 8  # 32 substreams of group 0 in 4 chunks of 50 steps

    def count(self, monkeypatch, module, name, calls):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def flow_calls(self, scheme):
        n_steps = round(1.0 / self.DT)
        n_chunks = self.N_PATHS // 2 // self.CHUNK
        return n_chunks * (n_steps + 1 if scheme == "pc" else n_steps)

    @pytest.mark.parametrize("scheme", ["pc", "euler"])
    @pytest.mark.parametrize("name", ["single", "two"])
    def test_principal(self, monkeypatch, pinned_models, name, scheme):
        params, v = pinned_models[name]
        cfg = SimConfig(n_paths=self.N_PATHS, dt=self.DT, seed=33)
        draws, revenue, cost = [], [], []
        evict_chunk_memo()
        self.count(monkeypatch, mc, "path_increments", draws)
        self.count(monkeypatch, model, "revenue_f", revenue)
        self.count(monkeypatch, model, "social_cost_g", cost)
        principal_path_payoffs(params, v, cfg, scheme, self.CHUNK)
        assert draws == [(33, 0, 50)] * 4  # (seed, group, steps), once per chunk
        assert len(revenue) == len(cost) == self.flow_calls(scheme)
        # from x0 = 0 too, both halves of each pair: B(t) is not 0, so the
        # principal's mirrors are not its drawn paths negated
        assert {args[1].shape[0] for args in revenue} == {2 * self.CHUNK}

    @pytest.mark.parametrize("scheme", ["pc", "euler"])
    def test_nash(self, monkeypatch, pinned_models, scheme):
        params, strategies = pinned_models["nash"]
        cfg = SimConfig(n_paths=self.N_PATHS, dt=self.DT, seed=34)
        draws, flows = [], []
        evict_chunk_memo()
        self.count(monkeypatch, mc, "path_increments", draws)
        self.count(monkeypatch, mc, "payoff_rate", flows)
        nash_path_payoffs(params, strategies, cfg, None, scheme, self.CHUNK)
        assert draws == [(34, 0, 50)] * 4
        assert len(flows) == self.flow_calls(scheme)

    def test_each_chunk_draws_the_groups_it_touches(self, monkeypatch, pinned_models):
        # 300 substreams in chunks of 100: 0-99, 100-199 and 200-299
        params, strategies = pinned_models["nash"]
        cfg = SimConfig(n_paths=600, dt=0.1, seed=38)
        draws = []
        evict_chunk_memo()
        self.count(monkeypatch, mc, "path_increments", draws)
        nash_path_payoffs(params, strategies, cfg, chunk_size=100)
        assert [args[1] for args in draws] == [0, 1, 1, 2, 3, 3, 4]

    def nash_rows(self, pinned_models, antithetic=True, x0=(0.0, 0.0), deviation=None, strategies=None):
        """The rows each ``payoff_rate`` call of a pc game run sees."""
        params, equilibrium = pinned_models["nash"]
        cfg = SimConfig(n_paths=self.N_PATHS, dt=self.DT, seed=34, x0=x0, antithetic=antithetic)
        flows = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.count(monkeypatch, mc, "payoff_rate", flows)
            nash_path_payoffs(params, strategies or equilibrium, cfg, deviation, "pc", self.CHUNK)
        # one flow evaluation per step and the first, per chunk
        assert len(flows) == self.flow_calls("pc") * (1 if antithetic else 2)
        return {args[1].shape[-1] for args in flows}

    def test_nash_from_the_origin_marches_the_drawn_rows(self, pinned_models):
        # each chunk holds CHUNK substreams: their pairs are marched once
        assert self.nash_rows(pinned_models) == {self.CHUNK}
        assert self.nash_rows(pinned_models, x0=(-0.0, 0.0)) == {self.CHUNK}
        assert self.nash_rows(pinned_models, deviation=Deviation(2, -1.3)) == {self.CHUNK}
        assert self.nash_rows(pinned_models, antithetic=False) == {self.CHUNK}

    def test_nash_marches_both_halves_unless_odd_from_the_origin(self, pinned_models):
        params, (first, second) = pinned_models["nash"]
        intercept = FeedbackStrategy(firm=2, gamma=params.gamma2, nodes=np.array([0.0, 1.0]),
                                     kx=np.zeros(2), ky=np.zeros(2), k0=np.array([0.0, 0.1]))
        for run in (dict(x0=(0.1, 0.0)), dict(deviation=Deviation(1, 1.0, 0.05)),
                    dict(strategies=(first, intercept))):
            assert self.nash_rows(pinned_models, **run) == {2 * self.CHUNK}, run


def zero_or(values):
    return st.one_of(st.just(0.0), values)


class TestHalfWidthMarch:
    """From x0 = 0 with antithetic sampling, an odd step (the game with no
    intercept and no shifted deviation) marches each pair once."""

    def test_pairs_are_equal_only_when_odd_from_the_origin(self, pinned_models):
        params, strategies = pinned_models["nash"]
        cfg = SimConfig(n_paths=64, dt=0.02, seed=36, x0=(0.0, 0.0))
        with patch.object(mc._NashStep, "odd", False):  # a full-width march
            for run, equal in ((dict(), True), (dict(deviation=Deviation(1, -0.7)), True),
                               (dict(deviation=Deviation(1, 1.0, 0.1)), False),
                               (dict(cfg=replace(cfg, x0=(0.5, 0.5))), False)):
                z1, z2 = nash_path_payoffs(params, strategies, **{"cfg": cfg, **run})
                assert (np.array_equal(z1[0::2], z1[1::2]) and np.array_equal(z2[0::2], z2[1::2])) == equal

    @settings(deadline=None, max_examples=60)
    @given(gammas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
           etas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
           sigmas=st.tuples(zero_or(st.floats(0.05, 1.0)), zero_or(st.floats(0.05, 1.0))),
           p0=zero_or(st.floats(0.0, 2.0)),
           slopes=st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0))),
           horizon=st.floats(0.05, 2.0),
           n_steps=st.integers(1, 40), n_pairs=st.integers(1, 100), seed=st.integers(0, 2**32),
           x0=st.tuples(st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0])),
           deviation=st.one_of(st.none(), st.builds(Deviation, st.integers(1, 2), st.floats(-2.0, 2.0),
                                                    st.sampled_from([0.0, -0.0]))),
           scheme=st.sampled_from(["pc", "euler"]), refinement=st.integers(1, 3),
           chunk_size=st.sampled_from([1, 3, 7, None]))
    def test_equals_the_full_march(self, gammas, etas, sigmas, p0, slopes, horizon, n_steps, n_pairs,
                                   seed, x0, deviation, scheme, refinement, chunk_size):
        params = replace(validate_params(NASH_FIXTURE), gamma1=gammas[0], gamma2=gammas[1],
                         eta1=etas[0], eta2=etas[1], sigma1=sigmas[0], sigma2=sigmas[1],
                         p0=p0, p1=slopes[0], p2=slopes[1], horizon=horizon)
        try:
            coeffs = solve_nash(params, 201)
        except BlowUp as exc:  # half the time left at the escape solves
            params = replace(params, horizon=0.5 * (horizon - exc.t_escape))
            try:
                coeffs = solve_nash(params, 201)
            except BlowUp:
                assume(False)
        strategies = feedback_strategies(coeffs, params)
        cfg = SimConfig(n_paths=2 * n_pairs, dt=params.horizon / n_steps, seed=seed, x0=x0)
        args = (params, strategies, cfg, deviation, scheme, chunk_size, refinement)
        half = nash_path_payoffs(*args)
        with patch.object(mc._NashStep, "odd", False):
            full = nash_path_payoffs(*args)
        for a, b in zip(half, full):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
