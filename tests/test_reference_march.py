"""The Monte Carlo engine against a reference march that steps every path row
by row, with no sampling error.

The engine folds each model into coefficients once per run and marches
affine state maps (see the ``decarb.mc`` docstring).  The reference here
steps the same draws the way the scheme is written: the state advanced by
``S + drift*dt + noise``, the pc predictor and the corrector on the mean of
both drifts, the flows from ``model.revenue_f``, ``model.social_cost_g`` and
``nash.payoff_rate`` at every step with the incentive costs and risk
premiums written from the contract's definitions, and the payment noise at
the step's start.  Both round differently, so a path's payoffs may differ
in the last bits only: the bound ``1e-12 * max(1, |payoff|)`` was fixed
before the first comparison, and a 1e-6 error in one flow coefficient or
in the state maps breaks it.
"""

import math

import numpy as np
import pytest

from decarb import (Deviation, SimConfig, contract, feedback_strategies, model, solve_nash,
                    solve_principal, validate_params)
from decarb import mc
from decarb.model import Kind
from decarb.nash import payoff_rate

from conftest import NASH_FIXTURE, SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE

TOLERANCE = 1e-12  # relative to max(1, |payoff|), per path


def draws(cfg: SimConfig, n_steps: int, refinement: int) -> np.ndarray:
    """Every substream's standard normals per step, (n_steps, 2, substreams),
    each group drawn whole by ``mc.path_increments``."""
    n_sub = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    fine = np.concatenate([mc.path_increments(cfg.seed, g, n_steps * refinement)
                           for g in range((n_sub + 63) // 64)], axis=2)[:, :, :n_sub]
    return fine.reshape(n_steps, refinement, 2, n_sub).sum(axis=1) / math.sqrt(refinement)


def advance(S, drift, dt, noise):
    """S + drift*dt + noise."""
    return S + drift * dt + noise


class Principal:
    """The optimal rates, drift, flows and payment noise of a principal model,
    at the states S (2, rows) at time t."""

    def __init__(self, params, v, y0):
        self.p, self.v, self.y0 = params, v, y0
        self.single = params.kind is Kind.SINGLE_FIRM

    def rates(self, t, S):
        """Agent i's rate on state j at [i][j], and the drift they set."""
        A, B, _ = self.v.coeffs_at(t)
        grad = A @ S + B[:, None]
        p = self.p
        if self.single:
            z = contract.rates_single(p, grad)
            return [[z.z1, z.z2]], np.array([p.gamma1 * z.z1, p.gamma2 * z.z2])
        z = contract.rates_two(p, grad)
        return [[z.z11, z.z12], [z.z21, z.z22]], np.array([p.gamma1 * z.z11, p.gamma2 * z.z22])

    def drift(self, t, S):
        return self.rates(t, S)[1]

    def flows(self, t, S):
        """Per agent the payment drift (effort cost plus risk premium less
        revenue), per agent revenue less effort cost, then the social cost."""
        p, (z, _) = self.p, self.rates(t, S)
        gammas, sq = (p.gamma1, p.gamma2), (p.sigma1 * p.sigma1, p.sigma2 * p.sigma2)
        if self.single:
            revenue = [model.revenue_f(p, S.T)]
            cost = [0.5 * (gammas[0] * z[0][0] * z[0][0] + gammas[1] * z[0][1] * z[0][1])]
        else:
            revenue = list(model.revenue_f(p, S.T, per_firm=True).T)
            cost = [0.5 * gammas[i] * z[i][i] * z[i][i] for i in range(2)]
        risk = [0.5 * eta * (sq[0] * zi[0] * zi[0] + sq[1] * zi[1] * zi[1])
                for eta, zi in zip(p.agent_aversions(), z)]
        return np.array([*(c + r - f for c, r, f in zip(cost, risk, revenue)),
                         *(f - c for c, f in zip(cost, revenue)), model.social_cost_g(p, S.T)])

    def payment_noise(self, t, S, dW):
        """Per agent, its rates times the state increments they price."""
        z, _ = self.rates(t, S)
        sigma = (self.p.sigma1, self.p.sigma2)
        noise = np.zeros((2 * len(z) + 1, S.shape[1]))
        for i, zi in enumerate(z):
            noise[i] = zi[0] * sigma[0] * dW[0] + zi[1] * sigma[1] * dW[1]
        return noise

    def acc0(self):
        return [*self.y0, *(0.0 for _ in self.y0), 0.0]

    def payoffs(self, acc):
        n = len(self.y0)
        Y, F, G = acc[:n], acc[n:2 * n], acc[-1]
        return [-sum(Y) - G, *(Y[i] + F[i] for i in range(n))]


class Game:
    """Both firms' feedback efforts (one of them deviating) and payoff flows."""

    def __init__(self, params, strategies, deviation):
        self.p, self.strategies, self.deviation = params, strategies, deviation

    def drift(self, t, S):
        a = np.array([s(t, S[0], S[1]) for s in self.strategies])
        if self.deviation is not None:
            i = self.deviation.firm - 1
            a[i] = self.deviation.scale * a[i] + self.deviation.shift
        return a

    def flows(self, t, S):
        return payoff_rate(self.p, S[0], S[1], self.drift(t, S))

    def payment_noise(self, t, S, dW):
        return 0.0

    def acc0(self):
        return [0.0, 0.0]

    def payoffs(self, acc):
        return list(acc)


def reference_payoffs(ref, params, cfg: SimConfig, scheme: str, refinement: int = 1):
    """Per-path payoffs in canonical order, every path and mirror stepped."""
    n_steps = round(params.horizon / cfg.dt)
    dt = cfg.dt
    Z = draws(cfg, n_steps, refinement)
    if cfg.antithetic:
        Z = np.concatenate([Z, -Z], axis=2)
    sigma = np.array([[params.sigma1], [params.sigma2]])
    S = np.repeat(np.array(cfg.x0)[:, None], Z.shape[2], axis=1)
    acc = np.repeat(np.array(ref.acc0())[:, None], Z.shape[2], axis=1)
    for k in range(n_steps):
        t0, t1 = k * dt, (k + 1) * dt
        dW = math.sqrt(dt) * Z[k]
        noise = sigma * dW
        drift0, flows0 = ref.drift(t0, S), ref.flows(t0, S)
        paid = ref.payment_noise(t0, S, dW)
        if scheme == "pc":
            predicted = advance(S, drift0, dt, noise)
            S_next = advance(S, 0.5 * (drift0 + ref.drift(t1, predicted)), dt, noise)
            acc = acc + 0.5 * dt * (flows0 + ref.flows(t1, S_next)) + paid
        else:
            S_next = advance(S, drift0, dt, noise)
            acc = acc + dt * flows0 + paid
        S = S_next
    payoffs = ref.payoffs(acc)
    if not cfg.antithetic:
        return payoffs
    m = Z.shape[2] // 2
    return [np.stack([z[:m], z[m:]], axis=1).ravel() for z in payoffs]


@pytest.fixture(scope="module")
def models():
    single, two, nash = (validate_params(f) for f in (SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE, NASH_FIXTURE))
    literal = validate_params(dict(SINGLE_FIRM_FIXTURE, literal_signs=True))
    return {"single": (single, solve_principal(single, 201)),
            "literal": (literal, solve_principal(literal, 201)),
            "two": (two, solve_principal(two, 201)),
            "nash": (nash, feedback_strategies(solve_nash(nash, 201), nash))}


DEVIATIONS = {"nash": None, "nash-scaled": Deviation(1, 0.9), "nash-shifted": Deviation(2, 1.1, -0.05)}
SETTINGS = {
    "anti": dict(antithetic=True, x0=(0.1, -0.2), refinement=1),
    "origin-r2": dict(antithetic=True, x0=(0.0, 0.0), refinement=2),
    "plain-r2": dict(antithetic=False, x0=(-0.3, 0.25), refinement=2),
}


def both(models, name, setting, scheme):
    """The engine's and the reference's per-path payoffs of one run."""
    settings = dict(SETTINGS[setting])
    refinement = settings.pop("refinement")
    cfg = SimConfig(n_paths=80, dt=0.025, seed=41, y0=(0.3 if name != "two" else (0.3, -0.1)), **settings)
    if name in ("single", "literal", "two"):
        params, v = models[name]
        pay_p, pays_a = mc.principal_path_payoffs(params, v, cfg, scheme, 7, refinement)
        ref = Principal(params, v, mc._agent_y0(params, cfg))
        return [pay_p, *pays_a], reference_payoffs(ref, params, cfg, scheme, refinement)
    params, strategies = models["nash"]
    deviation = DEVIATIONS[name]
    engine = mc.nash_path_payoffs(params, strategies, cfg, deviation, scheme, 7, refinement)
    reference = reference_payoffs(Game(params, strategies, deviation), params, cfg, scheme, refinement)
    return list(engine), reference


def worst_gap(engine, reference) -> float:
    """The largest per-path gap, relative to max(1, |payoff|)."""
    return max(float(np.max(np.abs(e - r) / np.maximum(1.0, np.abs(r)))) for e, r in zip(engine, reference))


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("scheme", ["pc", "euler"])
@pytest.mark.parametrize("name", ["single", "literal", "two", *DEVIATIONS])
def test_engine_matches_the_reference_march(models, name, scheme, setting):
    engine, reference = both(models, name, scheme=scheme, setting=setting)
    assert len(engine) == len(reference)
    assert worst_gap(engine, reference) <= TOLERANCE


def seeded_error(where: str):
    """A wrapper of ``mc._flow_rows`` or ``mc._state_maps`` that puts a
    relative error of 1e-6 into one coefficient of every node or step: the
    x*x term of the first accumulator's flow, or M_k[0, 0]."""
    inner = getattr(mc, where)

    def wrong(*args):
        rows = inner(*args).copy()
        rows[:, 0, 3] *= 1.0 + 1e-6
        return rows

    return wrong


@pytest.mark.parametrize("where", ["_flow_rows", "_state_maps"])
@pytest.mark.parametrize("name", ["two", "nash-scaled"])
def test_a_seeded_coefficient_error_fails_the_guard(models, monkeypatch, name, where):
    monkeypatch.setattr(mc, where, seeded_error(where))
    engine, reference = both(models, name, scheme="pc", setting="anti")
    assert worst_gap(engine, reference) > TOLERANCE
