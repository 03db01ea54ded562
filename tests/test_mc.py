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


def payoff_digest(payoffs) -> str:
    """SHA-256 over the raw bytes of every payoff array, in order."""
    h = hashlib.sha256()
    for z in payoffs:
        h.update(np.ascontiguousarray(z).tobytes())
    return h.hexdigest()


# SHA-256 of every payoff array of a 64-path run per model and engine
# setting, recorded before the path step moved into reused buffers; a change
# in the last bit of one path changes the digest.  Every chunking must give
# the same digest.  Keys: model/scheme-sampling-r<brownian_refinement>.
PINNED_DIGESTS = {
    "single/pc-anti-r1": "b702f620dcda7c5b4f70316cc2254ab63cf6f2a7bc762baef559441a790b3c9c",
    "single/pc-anti-r2": "0aba0a51742d9e961565c682061f73cc46f4c67c5a03cf5247afec4c2903ea59",
    "single/pc-plain-r1": "47d37768e4ef89d1bd2f74d622bd478aa7d41871f64264265132a771caeb6fc9",
    "single/pc-plain-r2": "a401fb5c1d2b55f5dfd619e545d5e844941ea3f54d4aacd1ea119a62d3622223",
    "single/euler-anti-r1": "99bda149fc861e47e6d86c621ce2c76cdeee892b9d33abe345e62d6843f40e56",
    "single/euler-anti-r2": "89046f8a07d41aad20b461652574175e7cb0c4dab79ffcf0c62c557a72594dc6",
    "single/euler-plain-r1": "2fa9ef46561c624436249d2d78fad2dfa031d5093ead3258877371445f98d1c5",
    "single/euler-plain-r2": "788c4651e4ba35539c5c34970644ebe787bbc0cdead83b403daf55775e32bdeb",
    "literal/pc-anti-r1": "00107eb83b8fe978a8e2ffa39719b6e2d3a0c9efe671ff60421b2f54ac891ca8",
    "literal/pc-anti-r2": "8e37843ea04de01c1da8b56065e2c47e75477266c6160b44f69f06acb7642275",
    "literal/pc-plain-r1": "9c2fb61f63e61174fef94c718705a89aa01d61c3c1e7d9d345d69935a1ff949e",
    "literal/pc-plain-r2": "91a6604ee2bf160114a8b866495a6e1c732ebf74dbdd5b6afb88721e52d9d8be",
    "literal/euler-anti-r1": "74d8236a18c2b5cebba429e062ffba0ba3de1c00ee2d8e3671cdef2c7bef02c9",
    "literal/euler-anti-r2": "16ea9ff64499754a921bfb1ea15b29e7429b120cdb58e469263993d1b531af19",
    "literal/euler-plain-r1": "53804fcd6bd98291cf9fce785d225a20a4ab00827957b5282d5a045e93728819",
    "literal/euler-plain-r2": "926d54dfb964510e71ba8d37ba41dda6b3a6fa29418c5eef1ad9d1c4a9ed6f71",
    "two/pc-anti-r1": "a5c18884ba6bcdfe674bf003eddd90747dfe0d2648eacd4077bb4e4dff15bce9",
    "two/pc-anti-r2": "f28ad7985f828fe8e3f4a292e5a93d5d71043b3b8c972b4f7124be85c0feb6c4",
    "two/pc-plain-r1": "d70e799dc7709384356d68c15b47f524836f79a4a14d8f51b5de461175260be7",
    "two/pc-plain-r2": "a64a973f96b1abc02e158bb29414637e188f18e1fe67707eddf2df5034325999",
    "two/euler-anti-r1": "8c3f4c9f1558d920e7aa501bd84e0c5f7ab99152a058dba302f7e11067fab2d3",
    "two/euler-anti-r2": "67e7a82e63db350b794f3ffe0d98202d8823a285bcba5ffd34bbaf1d8c559df1",
    "two/euler-plain-r1": "8748e929f478dc608e2867ffb251b7cbbf9fe310d363a882df904934e1ef0aac",
    "two/euler-plain-r2": "c097bc184149c83074294b6ffb6a7e31caf0783e8b3b49df3935c9aa306f8275",
    "nash/pc-anti-r1": "980515ba55d9baf173c58854f6ec538177fa8af76bde89d95c1abfba7a5df231",
    "nash/pc-anti-r2": "5704723e42aaa8e3954154b3ed9bcbfe70784aa3ae561600a5149025b91e7c12",
    "nash/pc-plain-r1": "9e3d09dc09075d9a93f5c48b26a8e8e6e5c2f0200c39d0ab5e8b859d339ecb68",
    "nash/pc-plain-r2": "9e0a94cc5b4d1fa269a84881e5681c9930a73afd033589a3a3991dfa9419ab6f",
    "nash/euler-anti-r1": "f8b061ff5f3634e8a60a1fae60ec6c7e282776cf8cb6a29ddf5489901e7a15a2",
    "nash/euler-anti-r2": "72e771523763f22b7565e00ea9e4f2f19258e37669838026be45d5da8f2efdf3",
    "nash/euler-plain-r1": "cba8aad5b887c8a7191a344bbeeb9ebd5d4bcb470fd137abdb132a73e4f65bc5",
    "nash/euler-plain-r2": "3e60f273daf0ef2772cb2f3bc68ea58ad89bbf83cc23c30eafe67b9a53c57273",
    "nashdev/pc-anti-r1": "ec322af78ed98569294a704108ee1bede560316442aaca5236518ed8b3dbb48f",
    "nashdev/pc-anti-r2": "7113139012c6bd65124fafbc6e7640c64c35561cbc393a463276dca0c8679129",
    "nashdev/pc-plain-r1": "43770c54a0002b5973ad6cddbaf505b11e23c205d21b0fea74499b62265bf77d",
    "nashdev/pc-plain-r2": "33bd725ff444c1e8135a5089ddbb0ab81523859e9fc3bf1655d9570e8af91d7c",
    "nashdev/euler-anti-r1": "694045a096fff89b54d5e8de0e5502abe62df70142bbd829c218ce0bb1036c4e",
    "nashdev/euler-anti-r2": "60ff3f0ba9c31f6586106c951a5bbd378f16641a4554959b3c98c24c853465b3",
    "nashdev/euler-plain-r1": "89128737ec4ae58c7fd0f687c67880929c92a4b81c55f5d42b9974f2861fafc8",
    "nashdev/euler-plain-r2": "36cbadf280ae00f066e28cb877781c7d9be6a17bd9955c7b0af3e2023cc97e0c",
}
# two-firm principal at the benchmark's mc_long shape: one full chunk of 1000 pc steps
PINNED_LONG_DIGEST = "33aff60d0d464129debb4acfc9f643814fb6deac3350838d991e720c33ab4aac"
# The game's digests from x0 = (0, 0) under antithetic sampling, where every
# mirror is its drawn path negated, recorded while the engine still marched
# both halves of each pair.  Keys: run/scheme-r<brownian_refinement>, the run
# one of ORIGIN_DEVIATIONS.
ORIGIN_DEVIATIONS = {"eq": None, "dev1": Deviation(1, 0.9), "dev2": Deviation(2, 1.1)}
PINNED_ORIGIN_DIGESTS = {
    "eq/pc-r1": "c5827b9b2eb323e7cf81a046a640a84130679ea05f788f462efac11f8f1d9750",
    "eq/pc-r2": "0fa4da5eaf10407e731a47dd335ae2223991bdaf7859dd151dd58af7249f4f59",
    "eq/euler-r1": "afcd7c0de3d47f3b6a07732e122cae46a4134d3291ed27502d817c130dd96822",
    "eq/euler-r2": "eb5ad6da2338e0ec8114eb45815ddce5bdb81c178e6982f83e49f5ad2d28bf18",
    "dev1/pc-r1": "299247b019528ce71e85acfd795818b35e90c1d00e03b654c1b6089a78ddf2a6",
    "dev1/pc-r2": "f36711cae6b83695a7d422b008247c39f44f0ada460fcb0dc5032da903d22f34",
    "dev1/euler-r1": "ad6e884f558dba88e67745ba1cb56b7bf3cabc700b741afe16b0a8c025ec1597",
    "dev1/euler-r2": "cf035c7f29f30e6018cc38311790e89a50b156a992c1b1c28266d382d9c1a616",
    "dev2/pc-r1": "b635883dc9eafe285be5d4b9023f2751290ae4c22fb39cec84a1f14e8d418d19",
    "dev2/pc-r2": "552d1dcd9a9527cd9bd36c380fa6168f4bd2745ac1b9cc59aa658882d466b26d",
    "dev2/euler-r1": "35f418ac59907be1fb97699f379a74c52ba2a9e1301b3e8ce2f3234cc7208901",
    "dev2/euler-r2": "d12f4fd15003b2419c497f4be2a211b6ea23b0a69227c551733e48d5583a2fde",
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

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(-2**63, 2**64 - 1), substream=st.integers(-2**63, 2**64 - 1),
           fresh_thread=st.booleans())
    def test_any_64_bit_key_matches_fresh_generator(self, seed, substream, fresh_thread):
        if fresh_thread:  # a thread that has no generator yet
            got = []
            worker = threading.Thread(target=lambda: got.append(path_increments(seed, substream, 5)))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            drawn = got[0]
        else:  # this thread's generator part-way through its buffer, holding a 32-bit half
            path_increments(5, 3, 3)
            mc._philox.gen.integers(0, 2**32, size=3, dtype=np.uint32)
            assert mc._philox.gen.bit_generator.state["has_uint32"] == 1
            drawn = path_increments(seed, substream, 5)
        assert np.array_equal(drawn, fresh_draws(seed, substream, 5))

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
        seed, start, count, n_steps = 3, 5, 2 * mc._BLOCK + 3, 4  # ends in a partial block
        inc = mc._draw_chunk(seed, start, count, n_steps, refinement)
        assert inc.shape == (n_steps, 2, count)
        for j in range(count):
            path = path_increments(seed, start + j, n_steps * refinement)
            if refinement > 1:
                path = np.divide(path.reshape(n_steps, refinement, 2).sum(axis=1),
                                 math.sqrt(refinement))
            for k in range(n_steps):
                assert np.array_equal(inc[k, :, j], path[k])

    def test_full_chunk_columns_match_fresh_generators(self):
        seed, start, n_steps = 3, mc._CHUNK, 200  # the second chunk of a run
        inc = mc._draw_chunk(seed, start, mc._CHUNK, n_steps, 1)
        for j in (0, mc._BLOCK - 1, mc._BLOCK, mc._CHUNK - 1):
            assert np.array_equal(inc[:, :, j], fresh_draws(seed, start + j, n_steps))
        evict_chunk_memo()

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
        assert mc._philox.chunk[0] == other and mc._philox.chunk[1] is evicting
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
        assert len(calls) == 32
        reused = nash_path_payoffs(nash_params, strategies, cfg, deviation)
        assert len(calls) == 32
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
    attributes, so wrapping one counts every call: once per substream of each
    drawn chunk, and one flow evaluation per step plus the first under pc.
    A flow call's arguments show the rows marched: two per substream under
    antithetic sampling, or one where the mirror is the drawn path negated."""

    N_PATHS, DT, CHUNK = 64, 0.02, 8  # 32 substreams in 4 chunks of 50 steps

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
        assert sorted(args[1] for args in draws) == list(range(self.N_PATHS // 2))
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
        assert sorted(args[1] for args in draws) == list(range(self.N_PATHS // 2))
        assert len(flows) == self.flow_calls(scheme)

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
