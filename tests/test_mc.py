import contextlib
import hashlib
import math
import os
import subprocess
import sys
import threading
import weakref
from dataclasses import replace
from pathlib import Path
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
from decarb import contract, mc, model
from decarb.mc import nash_path_payoffs, paired_difference, path_increments, principal_path_payoffs
from decarb.nash import FeedbackStrategy
from decarb.riccati import QuadraticValueFn, TimeGrid

from conftest import NASH_FIXTURE, SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE
from test_reference_march import TOLERANCE, Game, reference_payoffs, worst_gap

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


def record_checked_rows(patch, record) -> None:
    """Patch the engine's numpy so ``record(rows)`` sees the row count of every
    state the march checks for finiteness: the rows it marches."""
    isfinite = np.isfinite

    class Numpy:  # numpy as the engine sees it
        def __getattr__(self, attr):
            return getattr(np, attr)

        def isfinite(self, a, out=None):
            if out is not None and a.shape[0] == 2 and out.shape[0] == 2 and out.dtype == bool:
                record(a.shape[1])
            return isfinite(a, out=out)

    patch.setattr(mc, "np", Numpy())


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

    @pytest.mark.parametrize("antithetic,expected", [(True, (6, 635)), (False, (3, 635))])
    def test_non_finite_path_reported_exactly(self, two_firm, antithetic, expected):
        # a value function whose gradient grows with the state makes every
        # path explode; paths overflow a few steps apart, so the report is the
        # earliest step and the lowest canonical index failing at it, for
        # every chunking.  A path fails when a weighted node flow, such as the
        # effort cost's dt*c*x*x, overflows
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

    @pytest.mark.parametrize("antithetic,expected", [(True, (6, 427)), (False, (3, 427))])
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


class PlantedModel:
    """A model that follows the engine's contract; the test turns chosen paths
    non-finite at chosen steps through the draws (:meth:`planted`).

    Its drift is ``-S``, its flows ``x*y`` into the checked accumulator and
    0 into the unchecked one, and each accumulator takes payment noise at the
    rate ``RATE`` on its own state's noise, as a principal's agents do.
    ``plants`` holds (kind, step, canonical path index): a ``"state"`` plant
    draws a NaN, so the path's state is NaN after that many steps; a
    ``"checked"`` plant a draw whose noise times ``RATE`` overflows, so the
    checked accumulator is infinite after that many steps; an
    ``"unchecked"`` plant the same in the unchecked accumulator, which the
    engine ignores.  Under antithetic sampling a path and its mirror share
    their draws, so a plant fails the pair, whose lower index is reported.
    """

    sigma = np.array([[0.5], [0.25]])
    acc0 = (0.0, 1.0)  # checked, unchecked
    n_checked = n_payoffs = 1
    RATE, SPIKE = 1e300, 1e10  # a normal draw's payment noise is finite, a spike's is not
    STATE_OF = {"state": 0, "checked": 0, "unchecked": 1}  # the noise each kind plants in

    def __init__(self, plants, antithetic: bool):
        self.plants, self.antithetic = plants, antithetic

    def on(self, nodes):
        self.n_nodes = len(nodes)
        return self

    def evaluate(self, X):
        S = np.broadcast_to(X.T[:, None, :], (2, self.n_nodes, len(X)))
        flows = np.stack([S[0] * S[1], np.zeros(S.shape[1:])])
        rates = np.zeros((2, 2, *S.shape[1:]))
        rates[0, 0] = rates[1, 1] = self.RATE
        return -S, flows, rates

    def payoffs(self, acc):
        return acc[:1]

    def value(self, kind: str) -> float:
        return np.nan if kind == "state" else self.SPIKE

    def planted(self, inc, start: int, count: int):
        """A copy of a chunk's draws with this model's plants."""
        inc = inc.copy()
        for kind, step, index in self.plants:
            sub = index // 2 if self.antithetic else index
            if start <= sub < start + count:
                inc[step - 1, self.STATE_OF[kind], sub - start] = self.value(kind)
        return inc


class SymmetricPlantedModel(PlantedModel):
    """A :class:`PlantedModel` with no payment noise, whose drift ``-S`` is
    odd and whose flows ``x*y + Q*x*x`` (checked) and ``Q*y*y`` (unchecked)
    are even in the state, so from the origin each mirror is its drawn path
    negated.

    Each plant turns a drawn path and its mirror non-finite together.  A
    ``"checked"`` or ``"unchecked"`` plant is a draw whose state's square
    times ``Q`` overflows; it enters the flow of the node after the step,
    which both schemes add in that step, and which euler weighs at 0 after
    the last step (:meth:`fails`).
    """

    Q, SPIKE = 1e290, 1e12

    def __init__(self, plants):
        super().__init__(plants, antithetic=True)

    def evaluate(self, X):
        drift, _, _ = super().evaluate(X)
        S = -drift
        return drift, np.stack([S[0] * S[1] + self.Q * S[0] * S[0], self.Q * S[1] * S[1]]), None

    @staticmethod
    def fails(kind: str, unweighed: bool) -> bool:
        """Whether a plant of ``kind`` fails its path at its step; ``unweighed``
        if the node after that step weighs 0 (euler's last)."""
        return kind == "state" or kind == "checked" and not unweighed


class TestBlockChecks:
    """The march checks finiteness once per ``mc._CHECK`` steps and after the
    last, and re-marches a failed chunk checking every step, so the report is
    still the earliest step and the lowest canonical index failing at it."""

    N_PATHS, N_STEPS = 10, 70  # the last block (steps 65-70) is partial
    DT = 1.0 / N_STEPS  # on the unit horizon of NASH_FIXTURE
    CHUNK_SIZES = (1, 3, None)

    def run(self, model, scheme, antithetic, chunk_size, widths=None):
        """The model's payoffs, marched with its plants in the draws; ``widths``
        collects the rows per substream that the march checks."""
        cfg = SimConfig(n_paths=self.N_PATHS, dt=self.DT, seed=37, antithetic=antithetic)
        draw = mc._draw_chunk
        counts = []

        def planted(seed, start, count, *rest):
            counts.append(count)
            return model.planted(draw(seed, start, count, *rest), start, count)

        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
            patch.setattr(mc, "_draw_chunk", planted)
            if widths is not None:
                record_checked_rows(patch, lambda rows: widths.add(rows // counts[-1]))
            return mc._run_paths(model.on, validate_params(NASH_FIXTURE), cfg, scheme, chunk_size, 1)

    def check(self, plants, scheme, antithetic):
        """Every chunking reports the earliest planted (step, index) of the
        state or the checked accumulator, or returns finite payoffs."""
        failing = [(step, 2 * (index // 2) if antithetic else index)
                   for kind, step, index in plants if kind != "unchecked"]
        for chunk_size in self.CHUNK_SIZES:
            model = PlantedModel(plants, antithetic)
            if not failing:
                [payoffs] = self.run(model, scheme, antithetic, chunk_size)
                assert np.isfinite(payoffs).all()
                continue
            with pytest.raises(NonFinitePath) as exc:
                self.run(model, scheme, antithetic, chunk_size)
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
    @pytest.mark.parametrize("step", [1, 32, 33, 70])
    def test_a_mirror_failing_alone_is_named(self, scheme, step):
        # the checked accumulator starts near the largest float, and a spike
        # in substream 2's draws pushes the mirror (path 5) over it, while
        # its drawn path (4) falls back: the report names the mirror
        class Offset(PlantedModel):
            acc0 = (1.5e308, 1.0)
            SPIKE = -0.5e308 / (PlantedModel.RATE * 0.5 * math.sqrt(self.DT))

        for chunk_size in self.CHUNK_SIZES:
            with pytest.raises(NonFinitePath) as exc:
                self.run(Offset([("checked", step, 4)], True), scheme, True, chunk_size)
            assert (exc.value.path_index, exc.value.t) == (5, step * self.DT), chunk_size

    @pytest.mark.parametrize("scheme", ["pc", "euler"])
    @pytest.mark.parametrize("plants", [
        [("state", 1, 1)],
        [("state", 31, 2), ("state", 32, 0)],
        [("state", 33, 3), ("checked", 34, 0)],
        [("state", 70, 4)],
        [("state", 40, 0), ("state", 5, 4), ("checked", 5, 3)],
        [("checked", 33, 2), ("unchecked", 2, 0)],
        [("unchecked", 1, 0)],
        # euler weighs the flow of the last node at 0
        [("checked", 70, 1)],
    ], ids=lambda plants: "-".join(f"{kind}{step}s{sub}" for kind, step, sub in plants))
    def test_half_width_march_reports_as_the_full(self, plants, scheme):
        # from the origin, a model whose mirrors are its drawn paths negated
        # marches only the drawn rows; a path failing there fails with its
        # mirror, so the report names the drawn path, the lower index, at the
        # same step as a full march
        failing = [(step, 2 * sub) for kind, step, sub in plants
                   if SymmetricPlantedModel.fails(kind, scheme == "euler" and step == self.N_STEPS)]
        for chunk_size in self.CHUNK_SIZES:
            outcomes = []
            for forced in (False, True):  # the engine's own decision, then a full march
                model, widths = SymmetricPlantedModel([(k, s, 2 * sub) for k, s, sub in plants]), set()
                with patch.object(mc._Tables, "mirrors_negate", False) if forced else contextlib.nullcontext():
                    try:
                        outcomes.append(self.run(model, scheme, True, chunk_size, widths)[0])
                    except NonFinitePath as exc:
                        outcomes.append((exc.path_index, exc.t))
                assert widths == {2 if forced else 1}
            half, full = outcomes
            if failing:
                step, index = min(failing)
                assert half == full == (index, step * self.DT), chunk_size
            else:
                assert np.array_equal(half.view(np.int64), full.view(np.int64)), chunk_size


@pytest.mark.parametrize("rows,antithetic,index", [
    # a chunk of 3 substreams from substream 5: under antithetic sampling rows
    # 0-2 are paths 10, 12 and 14 and rows 3-5 their mirrors 11, 13 and 15
    ((4,), True, 13), ((2,), True, 14), ((5,), True, 15), ((5, 1), True, 12), ((4, 3), True, 11),
    ((4,), False, 9), ((5, 1), False, 6),
])
def test_first_non_finite_names_drawn_and_mirror_rows(rows, antithetic, index):
    for value, in_state in ((np.nan, True), (np.inf, True), (-np.inf, False)):
        S, checked = np.zeros((2, 6)), np.zeros((1, 6))
        for row in rows:
            (S[row % 2] if in_state else checked[0])[row] = value
        assert mc._first_non_finite(S, checked, 5, 3, antithetic) == index


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
    "single/pc-anti-r1": "85d7964334309e0c53cfdcbebb13f3fb16aa58eb2dfd080dda394e8a30ec24fc",
    "single/pc-anti-r2": "b14c1979be4e813870b02f1be477a6891776907a2e0a6ecf276fd4c40d908754",
    "single/pc-plain-r1": "d50462cec118c9b212b42d6df54c418bf9bbfff6258ec3e837842b6bd5444ff7",
    "single/pc-plain-r2": "963232c042a1a2c746899150611f8dcae8ec678bdcf69b6a90f1e0f8db101a78",
    "single/euler-anti-r1": "ec4b07839ab6b81c4950409b89e31fa16269c34c2ea0c44ed1cd0172007b83c6",
    "single/euler-anti-r2": "3602da321eaa787136158ffac32585629fe8c86de4a50439340f99d36c4680da",
    "single/euler-plain-r1": "d56502ca074e2bda4788a20d5717d59ba6929224c9264c2c99461b7e134c7c40",
    "single/euler-plain-r2": "92721fd2738d5d1b6830e2ac22237b5d4c7fab41da690a9e1246d5bfb1ec4dbe",
    "literal/pc-anti-r1": "b52bfa88329c7b03c990fad111d1fb2662c8f6590302a4cca2a90580ddab3951",
    "literal/pc-anti-r2": "22606249455d12515d4c19315f06c6dc57a7ce78dae1f9add938e0cf940b3816",
    "literal/pc-plain-r1": "9b9342a6c121251a70f1013c89dbed33f8815f40a668dec23bb3897eec9d10ff",
    "literal/pc-plain-r2": "79d0c6d19177bbf79124a78640e2cee35e16f1e0dc21b2e5157d605b2217d215",
    "literal/euler-anti-r1": "5c01761a3a88514eb6b43d6e53632bc2bd13e37fda600c71fec53b22d1726a92",
    "literal/euler-anti-r2": "362e96ace6969a4dbecd9ab905c84ee68fe09175846c487ee86923f9e042f956",
    "literal/euler-plain-r1": "b9056eb055c5ff202ad50bd717038e58726945139f45a0599fbcbd9ac4f507e7",
    "literal/euler-plain-r2": "d4361fdaa0d49ecbd34626821e8c1927a8ea0e0b8bcae25cab62f3ef8228febb",
    "two/pc-anti-r1": "9adf460e6caee67cd5089131198dd54d959066934542242be287852ebf934715",
    "two/pc-anti-r2": "84eec4c8ab20cf1eeb49995039ef9b8efe4540497ddf46d1405c8eff90678986",
    "two/pc-plain-r1": "691133f04056992b3893757a5e7745b12b2cc82daf29005c69f458a945d230af",
    "two/pc-plain-r2": "eac409373cefca7db3b09361a3fad370051fd18dd1f510ca03ee41b0ca5e870d",
    "two/euler-anti-r1": "b9749c922461a038a6995dea0baa76f3ae358bb9f20f853cae5056998fb5c807",
    "two/euler-anti-r2": "bd002ed33e7da3228d54cdfcda04a6c5523b38bd2bf07024422bdafc6e651c81",
    "two/euler-plain-r1": "b9cd09b1cf24e3c92c84dd0ccabb21ad0b0d89ac66351c7282c42dc16b039b05",
    "two/euler-plain-r2": "11e04184a2e2569aea6822e6ae832f5e1d395863ad65b74fd80bc77e26545e64",
    "nash/pc-anti-r1": "a0ad5d5ef301148807fcee615e1d7e29af24ac1b4f68b961846cea02205342a5",
    "nash/pc-anti-r2": "47ca7a8c5aec602bb78ecc5b01456c5b61743bec8d4696e472d1f215502ff39a",
    "nash/pc-plain-r1": "d4e32b788e357dbff297f3f31a009d0ad0a8a61b68d0af5271573dcf8ca7896c",
    "nash/pc-plain-r2": "6ee37a7d01792a5bc742d5cf8bb2417201d5aa4d1e69935927b858bd0cb82115",
    "nash/euler-anti-r1": "d87363f3c7c38232ced67cd5d28ffd076cdc134190b231aabf91a3443c17cb1a",
    "nash/euler-anti-r2": "2d83bfe7657d1d821e5e89f28994c4a8cb416b67f7eb782024697afab99c7f38",
    "nash/euler-plain-r1": "a3889afe2b387f19d47d68021960fc46d5c485220668f086ac30b52077d5aeff",
    "nash/euler-plain-r2": "89b7d59de77e9d0ff42fdf3e1a784761680d57b351d32585383041b993f6325f",
    "nashdev/pc-anti-r1": "c3784495b8730805ed2dc374c425f772697364265f62347fb24aa2a3b94f5133",
    "nashdev/pc-anti-r2": "12f6992bba6405af1be4fa2de5601a9cb2f31706ad13df3d27fa2b16a9226d58",
    "nashdev/pc-plain-r1": "1f4c9241bd55237f57bb62febe92799cb4de5094c74aaae399ac3d246b1184f7",
    "nashdev/pc-plain-r2": "7dac51eb4356a43060269cc62e0e1ea0fd757216b64f86788399eca97f8d8b98",
    "nashdev/euler-anti-r1": "2672fdb1438d533d78a506e01570ecce231fd1fa437aacc032b00be0601dff5a",
    "nashdev/euler-anti-r2": "c9796b73ca94a4909c11cf7c4072a860bcc5f6875ef19916ff4bd173361696d3",
    "nashdev/euler-plain-r1": "8f748129540acfaeb921f5e43b740a4429aa381cf1ff4ee8a846c3c3554a62dd",
    "nashdev/euler-plain-r2": "5d6be25633a0658cf5814fa8278563234e672f967f4034fd09d6c5cbbaa14d95",
}
# two-firm principal at the benchmark's mc_long shape: one full chunk of 1000 pc steps
PINNED_LONG_DIGEST = "c769154e05cf959b4d2549e28a638b88b4811285f6cbbab7faec28c17cb7561d"
# The game's digests from x0 = (0, 0) under antithetic sampling, where every
# mirror is its drawn path negated and only the drawn half is marched
# (TestHalfWidthMarch checks that against a march of both halves).
# Keys: run/scheme-r<brownian_refinement>, the run one of ORIGIN_DEVIATIONS.
ORIGIN_DEVIATIONS = {"eq": None, "dev1": Deviation(1, 0.9), "dev2": Deviation(2, 1.1)}
PINNED_ORIGIN_DIGESTS = {
    "eq/pc-r1": "ee6963ab76b7af91c907bcb9dd0d8ddbd34b87acc6b5c59c1bfe4ed24acb90d1",
    "eq/pc-r2": "1c647a430a974c412665ba36b48b38afc21b5d6429e5611ac4b138504a73b0a9",
    "eq/euler-r1": "a80397bd1edddfdae53a3054a23127d75dddc374e73eaaa6629d56784db07478",
    "eq/euler-r2": "c73183b6e75875d24a58cf0ce5640ce2cd7ab494795977d2cb234a51771d6f5e",
    "dev1/pc-r1": "83fa54ee96b6aede34cbdda339263686589f535da4136b85fd081b9d4f607b21",
    "dev1/pc-r2": "5f5d2088fd5b220d399cc8da36177d1b265770f3ca709502d210ef94c2487858",
    "dev1/euler-r1": "7f3cbf1980e40de0f87d406d0622dd8424553cde97fd574a297bc7b3b1c023d9",
    "dev1/euler-r2": "347189e71e1d4370a2a986abd3321911fbb95d68f7c133e62f642ed056b74028",
    "dev2/pc-r1": "afac295a4e04f695f72d5ccbcf5006118e0084ee7858413283e1f4195a0d791b",
    "dev2/pc-r2": "7ff49ec5d0a6ac7a4c527a7fc8a68dd33a5d0488e0c267209c5551e11b422ec2",
    "dev2/euler-r1": "4529edcb5b4edc24b24b3289a577e5ee568900534081c4c513a7411bb1432bae",
    "dev2/euler-r2": "737192164360526e98e6d07fe2c7eb8f315aa3919bd3421f1b013cb31fdb3629",
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

    def track_chunks(self, monkeypatch) -> list[list]:
        """Record each np.empty of the engine by the chunk drawn last, and
        check at each draw that every array of an earlier chunk is freed."""
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
            # (its draws, the engine's buffers) must be freed
            assert [ref() for chunk in chunks[:-1] for ref in chunk if ref() is not None] == []
            return increments(*args, **kwargs)

        evict_chunk_memo()
        monkeypatch.setattr(mc, "np", Numpy())
        monkeypatch.setattr(mc, "_draw_chunk", tracked_draw)
        monkeypatch.setattr(mc, "path_increments", checked_increments)
        return chunks

    def test_no_two_chunks_alive_together(self, monkeypatch, two_firm):
        v = solve_principal(two_firm, 201)
        cfg = SimConfig(n_paths=64, dt=0.02, seed=31)
        chunks = self.track_chunks(monkeypatch)
        principal_path_payoffs(two_firm, v, cfg, chunk_size=8)
        # per chunk: its draws, the buffer its group is drawn into, the
        # march's two row buffers, its accumulators, the scratch of payment
        # noise and flows, and the two finiteness masks
        assert len(chunks) == 4 and all(len(chunk) == 8 for chunk in chunks)

    def test_a_shared_group_is_drawn_by_each_chunk(self, monkeypatch, two_firm):
        # 128 substreams in chunks of 40: each chunk draws every group it
        # touches into a buffer of its own, so a group two chunks share is
        # drawn by both, with the same bits, and no chunk outlives its march
        v = solve_principal(two_firm, 201)
        cfg = SimConfig(n_paths=256, dt=0.02, seed=31)
        whole, _ = principal_path_payoffs(two_firm, v, cfg)
        draws, chunks = [], self.track_chunks(monkeypatch)
        checked = mc.path_increments
        monkeypatch.setattr(mc, "path_increments", lambda *a, **k: draws.append(a[1]) or checked(*a, **k))
        chunked, _ = principal_path_payoffs(two_firm, v, cfg, chunk_size=40)
        assert len(chunks) == 4 and draws == [0, 0, 1, 1, 1]
        assert np.array_equal(chunked.view(np.int64), whole.view(np.int64))

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
    # the flows are read once per run: a step that keyed a cache on
    # ModelParams would run its generated __hash__ (and __eq__ for an equal
    # copy) once per step
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
    substreams a chunk touches, and one flow evaluation per run, on the stencil.
    The states the march checks show the rows marched: two per substream
    under antithetic sampling, or one where the mirror is the drawn path
    negated."""

    N_PATHS, DT, CHUNK = 64, 0.02, 8  # 32 substreams of group 0 in 4 chunks of 50 steps

    def count(self, monkeypatch, module, name, calls):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("scheme", ["pc", "euler"])
    @pytest.mark.parametrize("name", ["single", "two"])
    def test_principal(self, monkeypatch, pinned_models, name, scheme):
        params, v = pinned_models[name]
        cfg = SimConfig(n_paths=self.N_PATHS, dt=self.DT, seed=33)
        draws, revenue, cost, rows = [], [], [], set()
        evict_chunk_memo()
        self.count(monkeypatch, mc, "path_increments", draws)
        self.count(monkeypatch, model, "revenue_f", revenue)
        self.count(monkeypatch, model, "social_cost_g", cost)
        record_checked_rows(monkeypatch, rows.add)
        principal_path_payoffs(params, v, cfg, scheme, self.CHUNK)
        # (seed, group, steps): each of the four chunks draws group 0
        assert draws == [(33, 0, 50)] * 4
        # once per run, at the stencil's states
        assert len(revenue) == len(cost) == 1
        assert revenue[0][1] is cost[0][1] and revenue[0][1].shape == mc._STENCIL.shape
        # from x0 = 0 too, both halves of each pair: B(t) is not 0, so the
        # principal's mirrors are not its drawn paths negated
        assert rows == {2 * self.CHUNK}

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
        assert len(flows) == 1

    def test_each_chunk_draws_the_groups_it_touches(self, monkeypatch, pinned_models):
        # 300 substreams in chunks of 100: 0-99, 100-199 and 200-299; groups 1
        # and 3 straddle two chunks, and each of the two draws them
        params, strategies = pinned_models["nash"]
        cfg = SimConfig(n_paths=600, dt=0.1, seed=38)
        draws = []
        evict_chunk_memo()
        self.count(monkeypatch, mc, "path_increments", draws)
        nash_path_payoffs(params, strategies, cfg, chunk_size=100)
        assert [args[1] for args in draws] == [0, 1, 1, 2, 3, 3, 4]

    def nash_rows(self, pinned_models, antithetic=True, x0=(0.0, 0.0), deviation=None, strategies=None):
        """The rows a pc game run marches, as the states it checks show them."""
        params, equilibrium = pinned_models["nash"]
        cfg = SimConfig(n_paths=self.N_PATHS, dt=self.DT, seed=34, x0=x0, antithetic=antithetic)
        flows, rows = [], set()
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.count(monkeypatch, mc, "payoff_rate", flows)
            record_checked_rows(monkeypatch, rows.add)
            nash_path_payoffs(params, strategies or equilibrium, cfg, deviation, "pc", self.CHUNK)
        assert len(flows) == 1  # one flow evaluation per run
        return rows

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


def with_intercept(strategy: FeedbackStrategy, node: int) -> FeedbackStrategy:
    """The strategy with an intercept of 1e-300 at one of its nodes."""
    k0 = strategy.k0.copy()
    k0[node] = 1e-300
    return replace(strategy, k0=k0)


class TestHalfWidthMarch:
    """From x0 = 0 with antithetic sampling, tables with no payment noise, no
    constant in a state map and no linear term in a flow row (the game with
    no intercept and no shifted deviation) march each pair once."""

    CFG = SimConfig(n_paths=64, dt=0.02, seed=36, x0=(0.0, 0.0))  # one chunk of 32 substreams

    @staticmethod
    def marched(simulate, *args):
        """The rows per substream that ``simulate(*args)`` marches, and its result."""
        rows = set()
        with pytest.MonkeyPatch.context() as patch:
            record_checked_rows(patch, rows.add)
            result = simulate(*args)
        return {r // 32 for r in rows}, result

    @pytest.mark.parametrize("deviation,x0,width", [
        (None, (0.0, 0.0), 1),
        (Deviation(1, 0.9), (0.0, 0.0), 1),
        (Deviation(2, -1.3), (0.0, 0.0), 1),
        (Deviation(1, 1.0, 0.05), (0.0, 0.0), 2),
        (Deviation(2, 1.1, -0.05), (0.0, 0.0), 2),
        (None, (0.5, 0.0), 2),
        (Deviation(1, 0.9), (0.0, -0.25), 2),
    ], ids=["equilibrium", "scaled1", "scaled2", "shifted1", "shifted2", "x0", "scaled1-x0"])
    @pytest.mark.parametrize("scheme", ["pc", "euler"])
    def test_the_game_marches_the_width_its_tables_allow(self, pinned_models, deviation, x0, width, scheme):
        params, strategies = pinned_models["nash"]
        cfg = replace(self.CFG, x0=x0)
        widths, _ = self.marched(nash_path_payoffs, params, strategies, cfg, deviation, scheme)
        assert widths == {width}

    @pytest.mark.parametrize("name", ["single", "two"])
    def test_the_principal_marches_full_width(self, pinned_models, name):
        # payment noise, and B(t) puts constants into the state maps
        params, v = pinned_models[name]
        widths, _ = self.marched(principal_path_payoffs, params, v, self.CFG)
        assert widths == {2}

    @pytest.mark.parametrize("scheme", ["pc", "euler"])
    def test_a_tiny_intercept_at_a_simulation_node_marches_full_width(self, pinned_models, scheme):
        # the strategies hold 201 nodes on the unit horizon, the run 51: the
        # strategy's node 40 is the run's node 10
        params, (first, second) = pinned_models["nash"]
        strategies = (first, with_intercept(second, 40))
        widths, payoffs = self.marched(nash_path_payoffs, params, strategies, self.CFG, None, scheme)
        assert widths == {2}
        reference = reference_payoffs(Game(params, strategies, None), params, self.CFG, scheme)
        assert worst_gap(payoffs, reference) <= TOLERANCE

    @pytest.mark.parametrize("scheme", ["pc", "euler"])
    def test_a_tiny_intercept_between_simulation_nodes_marches_half_width(self, pinned_models, scheme):
        # the strategy's node 42 lies between the run's nodes 10 and 11,
        # where the intercept interpolates to zero
        params, equilibrium = pinned_models["nash"]
        strategies = (with_intercept(equilibrium[0], 42), equilibrium[1])
        widths, payoffs = self.marched(nash_path_payoffs, params, strategies, self.CFG, None, scheme)
        assert widths == {1}
        assert bits(payoffs) == bits(nash_path_payoffs(params, equilibrium, self.CFG, None, scheme))

    def test_an_intercept_at_the_last_node_alone_is_not_read_under_euler(self, pinned_models):
        # euler's maps read the left point of each step and its flow rows
        # weigh the last node 0, so its tables hold no trace of the intercept
        # and the half-width march keeps the full march's bits
        params, (first, second) = pinned_models["nash"]
        strategies = (first, with_intercept(second, 200))
        widths, half = self.marched(nash_path_payoffs, params, strategies, self.CFG, None, "euler")
        assert widths == {1}
        with patch.object(mc._Tables, "mirrors_negate", False):
            assert bits(half) == bits(nash_path_payoffs(params, strategies, self.CFG, None, "euler"))
        widths, _ = self.marched(nash_path_payoffs, params, strategies, self.CFG, None, "pc")
        assert widths == {2}

    def test_pairs_are_equal_only_when_odd_from_the_origin(self, pinned_models):
        params, strategies = pinned_models["nash"]
        cfg = self.CFG
        with patch.object(mc._Tables, "mirrors_negate", False):  # a full-width march
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
        with patch.object(mc._Tables, "mirrors_negate", False):
            full = nash_path_payoffs(*args)
        for a, b in zip(half, full):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


def bits(payoffs) -> list[bytes]:
    return [np.ascontiguousarray(z).tobytes() for z in payoffs]


class TestChunkSizesKeepTheBits:
    """A path's payoffs depend on its substream only: every chunk size gives
    the same bits, and so does a one-column march, which the engine pads to
    two columns (OpenBLAS computes a one-column product with gemv, which
    rounds unlike gemm)."""

    CHUNKS = (1, 2, 3, 7, 64, 100, None)

    def payoffs(self, models, name, cfg, scheme, chunk_size):
        if name == "nash":
            params, strategies = models["nash"]
            return nash_path_payoffs(params, strategies, cfg, None, scheme, chunk_size)
        params, v = models[name]
        pay_p, pays_a = principal_path_payoffs(params, v, cfg, scheme, chunk_size)
        return [pay_p, *pays_a]

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("scheme", ["pc", "euler"])
    @pytest.mark.parametrize("name", ["single", "two", "nash"])
    def test_every_chunk_size(self, pinned_models, name, scheme, antithetic):
        # 130 or 260 substreams; the game from the origin marches half width
        x0 = (0.0, 0.0) if name == "nash" else (0.1, -0.2)
        cfg = SimConfig(n_paths=260, dt=0.05, seed=43, x0=x0, antithetic=antithetic)
        whole = bits(self.payoffs(pinned_models, name, cfg, scheme, None))
        for chunk_size in self.CHUNKS:
            assert bits(self.payoffs(pinned_models, name, cfg, scheme, chunk_size)) == whole, chunk_size

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("scheme", ["pc", "euler"])
    @pytest.mark.parametrize("name", ["single", "two", "nash"])
    def test_two_paths_are_the_first_two_of_a_wide_run(self, pinned_models, name, scheme, antithetic):
        # a one-substream chunk: half width for the antithetic game from the
        # origin, and one column under plain sampling with chunk_size 1
        cfg = SimConfig(n_paths=2, dt=0.05, seed=43, x0=(0.0, 0.0), antithetic=antithetic)
        wide = bits(z[:2] for z in self.payoffs(pinned_models, name, replace(cfg, n_paths=260), scheme, None))
        for chunk_size in self.CHUNKS:
            assert bits(self.payoffs(pinned_models, name, cfg, scheme, chunk_size)) == wide, chunk_size


def test_blas_threads_keep_the_digests():
    # the engine's products must not depend on how many threads OpenBLAS
    # splits them over: one 64-path case and the long one, each in a fresh
    # process with one and with two threads
    code = """if True:
        import hashlib, numpy as np
        from decarb import SimConfig, solve_principal, validate_params
        from decarb.mc import principal_path_payoffs
        from conftest import TWO_FIRM_FIXTURE
        two = validate_params(TWO_FIRM_FIXTURE)
        for n_nodes, cfg in ((201, SimConfig(n_paths=64, dt=0.02, seed=11, x0=(0.1, -0.2), y0=0.3)),
                             (1001, SimConfig(n_paths=8192, dt=1e-3, seed=11, x0=(0.1, -0.2), y0=0.3))):
            pay_p, pays_a = principal_path_payoffs(two, solve_principal(two, n_nodes), cfg)
            h = hashlib.sha256()
            for z in (pay_p, *pays_a):
                h.update(np.ascontiguousarray(z).tobytes())
            print(h.hexdigest())
    """
    tests = Path(__file__).parent
    path = os.pathsep.join([str(Path(mc.__file__).parents[1]), str(tests)])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=300, cwd=tests)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [PINNED_DIGESTS["two/pc-anti-r1"], PINNED_LONG_DIGEST], threads


class TestReadOff:
    """The engine reads each model's functions once per run, at the stencil's
    states, and refuses a function that its polynomial does not reproduce
    at the remaining states."""

    def test_a_flow_that_is_not_quadratic_is_refused(self, monkeypatch, pinned_models):
        params, v = pinned_models["two"]
        cost = model.social_cost_g
        monkeypatch.setattr(model, "social_cost_g",
                            lambda p, X: cost(p, X) + 1e-6 * X[:, 0] * X[:, 0] * X[:, 0])
        with pytest.raises(ValueError, match="not a polynomial of degree 2"):
            principal_path_payoffs(params, v, SimConfig(n_paths=4, dt=0.02))

    def test_a_game_flow_that_is_not_quadratic_is_refused(self, monkeypatch, pinned_models):
        params, strategies = pinned_models["nash"]
        rate = mc.payoff_rate
        monkeypatch.setattr(mc, "payoff_rate", lambda p, x, y, a: rate(p, x, y, a) + 1e-6 * y * y * y * y)
        with pytest.raises(ValueError, match="not a polynomial of degree 2"):
            nash_path_payoffs(params, strategies, SimConfig(n_paths=4, dt=0.02))

    def test_a_drift_that_is_not_affine_is_refused(self, monkeypatch, pinned_models):
        params, v = pinned_models["single"]
        rates = contract._closed_form_rates
        monkeypatch.setattr(contract, "_closed_form_rates",
                            lambda factors, grad: rates(factors, grad) + 1e-6 * grad * grad)
        with pytest.raises(ValueError, match="not a polynomial of degree 1"):
            principal_path_payoffs(params, v, SimConfig(n_paths=4, dt=0.02))

    def test_a_deviation_scaled_into_subnormal_efforts_is_read(self):
        # the deviating firm's efforts are about 1e-311: halving their
        # differences rounds in the last subnormal place, which a bound
        # relative to their size alone refused as a misfit
        params = replace(validate_params(NASH_FIXTURE), gamma1=1.0, gamma2=1.0, eta1=1.0, eta2=1.0,
                         sigma1=0.0, sigma2=0.0, p0=0.0, p1=0.0, p2=1.0, horizon=0.56)
        strategies = feedback_strategies(solve_nash(params, 201), params)
        cfg = SimConfig(n_paths=2, dt=0.14, seed=0, x0=(0.0, 0.0))
        for deviation in (Deviation(1, 2.225073858507e-311), Deviation(1, 0.0)):
            z1, z2 = nash_path_payoffs(params, strategies, cfg, deviation, "pc", 1)
            assert np.isfinite(z1).all() and np.isfinite(z2).all()

    def test_a_quadratic_change_is_accepted(self, monkeypatch, pinned_models):
        # a social cost changed by a quadratic term is still read, and moves
        # the principal's payoffs
        params, v = pinned_models["two"]
        cfg = SimConfig(n_paths=64, dt=0.02, seed=44, x0=(0.1, -0.2))
        base, _ = principal_path_payoffs(params, v, cfg)
        cost = model.social_cost_g
        monkeypatch.setattr(model, "social_cost_g", lambda p, X: cost(p, X) + 0.5 * X[:, 0] * X[:, 1])
        changed, _ = principal_path_payoffs(params, v, cfg)
        assert not np.array_equal(changed, base) and np.all(np.abs(changed - base) < 0.5)
