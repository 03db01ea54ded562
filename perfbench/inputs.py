"""Workload inputs derived from the benchmark seed.

Everything here is a pure function of the seed: the oracle draws follow the
distributions the test suite uses for criteria 1 and 2, the Monte Carlo seeds
come from the same seed sequence, and scenario configs are plain dicts that
the worker writes to its scratch directory before the program reads them.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

# parameters of the published scenarios (the checked-in configs use the same)
TWO_FIRM = {
    "kind": "two_firm_regulated",
    "gamma1": 1.5, "gamma2": 1.0, "sigma1": 0.2, "sigma2": 0.3,
    "eta1": 1.0, "eta2": 1.0, "eta_p": 1.0,
    "p0": 1.0, "p1": 0.6, "p2": 0.4,
    "kappa": 1.0, "lambda": 1.0, "delta": 1.0, "horizon": 1.0,
}
SINGLE_FIRM = {
    "kind": "single_firm",
    "gamma1": 1.5, "gamma2": 1.0, "sigma1": 0.2, "sigma2": 0.3,
    "eta_a": 1.0, "eta_p": 1.0,
    "p0": 1.0, "p1": 0.6, "p2": 0.4,
    "kappa": 1.0, "lambda": 1.0, "delta": 1.0, "horizon": 1.0,
}
NASH = {
    "kind": "two_firm_nash",
    "gamma1": 1.5, "gamma2": 1.0, "sigma1": 0.2, "sigma2": 0.3,
    "eta1": 1.0, "eta2": 1.0,
    "p0": 1.0, "p1": 0.6, "p2": 0.4, "horizon": 1.0,
}

# checked-in configs that do not simulate, with the scenario each one drives
CHECKED_IN = (
    ("single-firm", "single-firm", "single_firm.json"),
    ("two-firm", "two-firm", "two_firm.json"),
    ("best-response-a2_0", "best-response", "fig1_best_response_a2_0.json"),
    ("best-response-a2_05", "best-response", "fig1_best_response_a2_05.json"),
    ("best-response-a2_1", "best-response", "fig1_best_response_a2_1.json"),
    ("nash", "nash", "fig2_nash.json"),
    ("verify-two-firm", "verify", "two_firm.json"),
    ("verify-single-firm", "verify", "single_firm.json"),
)
# generated at the resolution criterion 5 needs
FINE_NODES = 16001
GENERATED = (
    ("two-firm-16001", "two-firm", TWO_FIRM),
    ("nash-16001", "nash", NASH),
    ("verify-nash-16001", "verify", NASH),
)

# Stream ids keep the draws of different purposes independent.
_ORACLE_STREAM = 1
_MC_STREAM = 2
_CONFIG_STREAM = 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def draw_principal_params(rng: np.random.Generator, kind: str) -> dict:
    """Random positive model parameters for the oracle comparisons (criteria 1-2)."""
    g = rng.uniform(0.5, 3.0, 2)
    s = rng.uniform(0.3, 1.2, 2)
    raw = {
        "kind": kind, "gamma1": g[0], "gamma2": g[1], "sigma1": s[0], "sigma2": s[1],
        "p0": 1.0, "p1": 0.6, "p2": 0.4, "kappa": 1.0, "lambda": 1.0, "delta": 1.0,
        "horizon": 1.0,
    }
    if kind == "single_firm":
        e = rng.uniform(0.4, 2.5, 2)
        raw.update(eta_a=e[0], eta_p=e[1])
    else:
        e = rng.uniform(0.4, 2.5, 3)
        raw.update(eta1=e[0], eta2=e[1], eta_p=e[2])
    return {k: (float(v) if isinstance(v, np.floating) else v) for k, v in raw.items()}


def draw_gradient(rng: np.random.Generator) -> list[float]:
    """Gradient draw bounded away from zero so negative controls stay visible."""
    return (rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2)).tolist()


def oracle_draws(seed: int, per_kind: int, sup_draws: int) -> dict:
    """Criterion 1: ``per_kind`` draws of each principal kind; criterion 2:
    ``sup_draws`` draws alternating two-firm (even index) and single-firm."""
    rng = _rng(seed, _ORACLE_STREAM)
    rates = []
    for kind in ("single_firm", "two_firm_regulated"):
        for _ in range(per_kind):
            rates.append((draw_principal_params(rng, kind), draw_gradient(rng)))
    sup = []
    for i in range(sup_draws):
        kind = "single_firm" if i % 2 else "two_firm_regulated"
        sup.append((draw_principal_params(rng, kind), draw_gradient(rng)))
    return {"rates": rates, "sup": sup}


def mc_plan(seed: int) -> dict:
    """Monte Carlo seeds and the seed-dependent choices of the MC workloads."""
    rng = _rng(seed, _MC_STREAM)
    seeds = [int(s) for s in rng.integers(1, 2**31 - 1, size=4)]
    return {
        "principal_seed": seeds[0],
        "nash_seed": seeds[1],
        "wide_principal_seed": seeds[2],
        "wide_nash_seed": seeds[3],
        "y0": float(rng.choice([0.0, 0.5])),
        "deviating_firm": int(rng.integers(1, 3)),
    }


def scenario_configs(seed: int, config_dir: Path) -> list[tuple[str, str, dict]]:
    """(op name, scenario, config) for every solve/verify operation.

    Checked-in configs are loaded and re-keyed with a seed-derived
    ``numerics.seed``; the fine-grid configs are generated from the
    published parameter sets.
    """
    numerics_seed = int(_rng(seed, _CONFIG_STREAM).integers(1, 2**31 - 1))
    out = []
    for name, scenario, filename in CHECKED_IN:
        with open(config_dir / filename, encoding="utf-8") as fh:
            config = json.load(fh)
        config.setdefault("numerics", {})["seed"] = numerics_seed
        out.append((name, scenario, config))
    for name, scenario, model in GENERATED:
        config = {"model": copy.deepcopy(model),
                  "numerics": {"n_nodes": FINE_NODES, "seed": numerics_seed}}
        out.append((name, scenario, config))
    return out


def rerun_config(seed: int) -> dict:
    """Small simulate scenario rerun every solve/verify pass (criterion 10)."""
    numerics_seed = int(_rng(seed, _CONFIG_STREAM).integers(1, 2**31 - 1))
    return {"model": copy.deepcopy(NASH),
            "numerics": {"n_nodes": 201, "n_paths": 512, "dt": 0.01, "seed": numerics_seed}}


# Fixed small inputs run once at the end of every run, whatever the seed.
# Their outputs are compared with the stored reference, and they give every
# layer a measurement on workloads that do not otherwise use it.
_SMALL = {"n_nodes": 201, "n_paths": 1024, "dt": 0.01, "seed": 5}
CANARY = (
    ("canary-simulate-two-firm", "simulate", {"model": TWO_FIRM, "numerics": _SMALL}),
    ("canary-simulate-nash", "simulate", {"model": NASH, "numerics": _SMALL}),
    ("canary-nash", "nash", {"model": NASH, "numerics": {"n_nodes": 201}}),
    ("canary-best-response", "best-response", {"model": NASH, "numerics": {"n_nodes": 201},
                                               "opponent": {"firm": 1, "flow": 0.5}}),
    ("canary-verify-two-firm", "verify", {"model": TWO_FIRM, "numerics": {"n_nodes": 201}}),
    ("canary-verify-nash", "verify", {"model": NASH, "numerics": {"n_nodes": 201}}),
)
CANARY_ORACLE_SEED = 101
