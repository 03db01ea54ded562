import numpy as np
import pytest

from decarb import Kind, ModelParams, validate_params

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


def draw_principal_params(rng: np.random.Generator, kind: Kind) -> ModelParams:
    """Random positive parameters for oracle-vs-closed-form comparisons."""
    g = rng.uniform(0.5, 3.0, 2)
    s = rng.uniform(0.3, 1.2, 2)
    common = dict(
        gamma1=g[0], gamma2=g[1], sigma1=s[0], sigma2=s[1],
        p0=1.0, p1=0.6, p2=0.4, kappa=1.0, lambda_=1.0, delta=1.0, horizon=1.0,
    )
    if kind is Kind.SINGLE_FIRM:
        e = rng.uniform(0.4, 2.5, 2)
        return ModelParams(kind=kind, eta_a=e[0], eta_p=e[1], **common)
    e = rng.uniform(0.4, 2.5, 3)
    return ModelParams(kind=kind, eta1=e[0], eta2=e[1], eta_p=e[2], **common)


def draw_gradient(rng: np.random.Generator) -> np.ndarray:
    """Gradient draw bounded away from zero so negative controls stay visible."""
    return rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
