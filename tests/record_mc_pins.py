"""Print the Monte Carlo SHA-256 pins of ``tests/test_mc.py`` (``PINNED_DIGESTS``,
``PINNED_ORIGIN_DIGESTS``, ``PINNED_LONG_DIGEST``) and the simulate pin of
``tests/test_cli.py`` (``simulate_two_firm.json``'s ``summary.json``), as one
JSON object, for the checkout whose ``src/`` is imported.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/record_mc_pins.py > pins.json

CI runs it on every commit and requires each digest it prints to equal the
pin the tests hold, so it records what the tests check and a re-pin can
copy its output.  Every digest is recorded with ``chunk_size`` None and 7,
which must agree.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from conftest import NASH_FIXTURE, SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE
from decarb import Deviation, SimConfig, feedback_strategies, solve_nash, solve_principal, validate_params
from decarb.cli import run
from decarb.mc import nash_path_payoffs, principal_path_payoffs


def digest(payoffs) -> str:
    h = hashlib.sha256()
    for z in payoffs:
        h.update(np.ascontiguousarray(z).tobytes())
    return h.hexdigest()


def main() -> None:
    principals = {name: validate_params(fixture) for name, fixture in (
        ("single", SINGLE_FIRM_FIXTURE), ("literal", dict(SINGLE_FIRM_FIXTURE, literal_signs=True)),
        ("two", TWO_FIRM_FIXTURE))}
    solved = {name: solve_principal(params, 201) for name, params in principals.items()}
    nash = validate_params(NASH_FIXTURE)
    strategies = feedback_strategies(solve_nash(nash, 201), nash)

    def pinned(name, cfg, scheme, refinement, deviation=None) -> str:
        """The digest of one run, the same for chunk sizes None and 7."""
        digests = set()
        for chunk_size in (None, 7):
            if name in principals:
                pay_p, pays_a = principal_path_payoffs(principals[name], solved[name], cfg, scheme,
                                                       chunk_size, refinement)
                digests.add(digest([pay_p, *pays_a]))
            else:
                digests.add(digest(nash_path_payoffs(nash, strategies, cfg, deviation, scheme, chunk_size,
                                                     refinement)))
        [only] = digests
        return only

    pins = {}
    for name in ("single", "literal", "two", "nash", "nashdev"):
        deviation = Deviation(1, 0.9, 0.05) if name == "nashdev" else None
        for scheme in ("pc", "euler"):
            for sampling in ("anti", "plain"):
                cfg = SimConfig(n_paths=64, dt=0.02, seed=11, x0=(0.1, -0.2), y0=0.3,
                                antithetic=sampling == "anti")
                for refinement in (1, 2):
                    key = f"PINNED_DIGESTS {name}/{scheme}-{sampling}-r{refinement}"
                    pins[key] = pinned(name, cfg, scheme, refinement, deviation)
    origin = SimConfig(n_paths=64, dt=0.02, seed=11, x0=(0.0, 0.0))
    for run_name, deviation in (("eq", None), ("dev1", Deviation(1, 0.9)), ("dev2", Deviation(2, 1.1))):
        for scheme in ("pc", "euler"):
            for refinement in (1, 2):
                key = f"PINNED_ORIGIN_DIGESTS {run_name}/{scheme}-r{refinement}"
                pins[key] = pinned("nash", origin, scheme, refinement, deviation)
    two = principals["two"]
    long = SimConfig(n_paths=8192, dt=1e-3, seed=11, x0=(0.1, -0.2), y0=0.3)
    pay_p, pays_a = principal_path_payoffs(two, solve_principal(two, 1001), long)
    pins["PINNED_LONG_DIGEST"] = digest([pay_p, *pays_a])
    config = ROOT / "configs" / "simulate_two_firm.json"
    with tempfile.TemporaryDirectory() as out:
        assert run(["simulate", "--config", str(config), "--out", out]) == 0
        summary = pathlib.Path(out) / "summary.json"
        pins["simulate_two_firm.json summary.json"] = hashlib.sha256(summary.read_bytes()).hexdigest()
        estimates = json.loads(summary.read_text(encoding="utf-8"))["estimates"]
        pins["simulate_two_firm.json estimates"] = estimates
    print(json.dumps(pins, indent=1))


if __name__ == "__main__":
    main()
