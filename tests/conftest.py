from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from decarb import BlowUp, Kind, ModelParams, TimeGrid, validate_params
from decarb.riccati import BLOWUP_LIMIT

# filled by the acceptance suite; echoed after the test session so the
# per-criterion lines survive output capture
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)

TWO_FIRM_FIXTURE = {
    "kind": "two_firm_regulated",
    "gamma1": 1.5, "gamma2": 1.0,
    "sigma1": 0.2, "sigma2": 0.3,
    "eta1": 1.0, "eta2": 1.0, "eta_p": 1.0,
    "p0": 1.0, "p1": 0.6, "p2": 0.4,
    "kappa": 1.0, "lambda": 1.0, "delta": 1.0,
    "horizon": 1.0,
}

SINGLE_FIRM_FIXTURE = {
    "kind": "single_firm",
    "gamma1": 1.5, "gamma2": 1.0,
    "sigma1": 0.2, "sigma2": 0.3,
    "eta_a": 1.0, "eta_p": 1.0,
    "p0": 1.0, "p1": 0.6, "p2": 0.4,
    "kappa": 1.0, "lambda": 1.0, "delta": 1.0,
    "horizon": 1.0,
}

# parameters of the published coefficient-trajectory figures
NASH_FIXTURE = {
    "kind": "two_firm_nash",
    "gamma1": 1.5, "gamma2": 1.0,
    "sigma1": 0.2, "sigma2": 0.3,
    "eta1": 1.0, "eta2": 1.0,
    "p0": 1.0, "p1": 0.6, "p2": 0.4,
    "horizon": 1.0,
}


def swap_firms(fixture: dict) -> dict:
    """The same model with the firms' labels exchanged."""
    return dict(fixture, gamma1=fixture["gamma2"], gamma2=fixture["gamma1"],
                sigma1=fixture["sigma2"], sigma2=fixture["sigma1"],
                eta1=fixture["eta2"], eta2=fixture["eta1"], p1=fixture["p2"], p2=fixture["p1"])


@pytest.fixture
def two_firm() -> ModelParams:
    return validate_params(TWO_FIRM_FIXTURE)


@pytest.fixture
def single_firm() -> ModelParams:
    return validate_params(SINGLE_FIRM_FIXTURE)


@pytest.fixture
def nash_params() -> ModelParams:
    return validate_params(NASH_FIXTURE)


# box of the oracle-vs-closed-form comparisons: each gamma_i, sigma_i, eta
# and gradient magnitude |v_i| is drawn from its range
GAMMA_RANGE, SIGMA_RANGE, ETA_RANGE, GRADIENT_RANGE = (0.5, 3.0), (0.3, 1.2), (0.4, 2.5), (0.5, 2.0)


def zero_or(values):
    return st.one_of(st.just(0.0), values)


# box of the game's march properties, as keyword strategies for game_params;
# zero volatilities, intercept and slopes included
GAME_BOX = dict(
    gammas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
    etas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
    sigmas=st.tuples(zero_or(st.floats(0.05, 1.0)), zero_or(st.floats(0.05, 1.0))),
    p0=zero_or(st.floats(0.0, 2.0)),
    slopes=st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0))),
    horizon=st.floats(0.05, 2.0),
)


def game_params(gammas, etas, sigmas, p0, slopes, horizon) -> ModelParams:
    """The game with the given (gamma1, gamma2), (eta1, eta2), (sigma1, sigma2),
    intercept, (p1, p2) and horizon; unvalidated, so sigma_i may be 0."""
    return replace(validate_params(NASH_FIXTURE), gamma1=gammas[0], gamma2=gammas[1],
                   eta1=etas[0], eta2=etas[1], sigma1=sigmas[0], sigma2=sigmas[1],
                   p0=p0, p1=slopes[0], p2=slopes[1], horizon=horizon)


def principal_params(kind: Kind, gammas, sigmas, etas) -> ModelParams:
    """A regulated model with the given (gamma1, gamma2), (sigma1, sigma2) and
    aversions, (eta_a, eta_p) for a single firm or (eta1, eta2, eta_p) for two."""
    # floats, as validate_params gives: numpy scalars would run the oracle's
    # arithmetic about twice as slowly, with the same values
    gammas, sigmas, etas = ([float(v) for v in vs] for vs in (gammas, sigmas, etas))
    common = dict(
        gamma1=gammas[0], gamma2=gammas[1], sigma1=sigmas[0], sigma2=sigmas[1],
        p0=1.0, p1=0.6, p2=0.4, kappa=1.0, lambda_=1.0, delta=1.0, horizon=1.0,
    )
    if kind is Kind.SINGLE_FIRM:
        return ModelParams(kind=kind, eta_a=etas[0], eta_p=etas[1], **common)
    return ModelParams(kind=kind, eta1=etas[0], eta2=etas[1], eta_p=etas[2], **common)


def draw_principal_params(rng: np.random.Generator, kind: Kind) -> ModelParams:
    """Random positive parameters for oracle-vs-closed-form comparisons."""
    g = rng.uniform(*GAMMA_RANGE, 2)
    s = rng.uniform(*SIGMA_RANGE, 2)
    return principal_params(kind, g, s, rng.uniform(*ETA_RANGE, 2 if kind is Kind.SINGLE_FIRM else 3))


def draw_gradient(rng: np.random.Generator) -> np.ndarray:
    """Gradient draw bounded away from zero so negative controls stay visible."""
    return rng.uniform(*GRADIENT_RANGE, 2) * rng.choice([-1.0, 1.0], 2)


def reference_rk4(rhs, terminal, grid: TimeGrid) -> np.ndarray:
    """Classic RK4 on du/dt = rhs(t, u) from u(T) = terminal back to t = 0, one
    ``rhs`` call per stage, with the limit checked after every step.

    The reference the compiled kernels of ``rk4_backward`` must equal bit for
    bit: the same float operations in the same order, at stage times ``t``,
    ``t + half`` and ``t + h`` built as ``rk4_stage_times`` builds them.
    Returns the rows on all nodes, or raises :class:`BlowUp` at the first
    node with a value beyond ``BLOWUP_LIMIT``, NaN or inf.
    """
    nodes = grid.nodes.tolist()
    h = -grid.dt
    half, sixth = 0.5 * h, h / 6.0
    u = [float(x) for x in terminal]
    out = np.empty((grid.n_nodes, len(u)))
    out[-1] = u
    for k in range(grid.n_nodes - 1, 0, -1):
        t = nodes[k]
        t_mid = t + half
        k1 = rhs(t, u)
        k2 = rhs(t_mid, [x + half * d for x, d in zip(u, k1)])
        k3 = rhs(t_mid, [x + half * d for x, d in zip(u, k2)])
        k4 = rhs(t + h, [x + h * d for x, d in zip(u, k3)])
        u = [x + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
             for x, d1, d2, d3, d4 in zip(u, k1, k2, k3, k4)]
        if not all(abs(x) <= BLOWUP_LIMIT for x in u):  # also catches NaN and inf
            raise BlowUp(nodes[k - 1])
        out[k - 1] = u
    return out
