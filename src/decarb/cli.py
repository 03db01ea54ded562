"""Scenario runner: JSON config in, CSV trajectories and JSON summaries out.

Subcommands: ``single-firm``, ``two-firm``, ``nash``, ``best-response``,
``verify``, ``simulate``.  Exit codes: 0 success, 1 validation error,
2 numerical or I/O failure; failures print a machine-readable JSON object on
stderr.  An internal error is not caught: it propagates with its traceback.
All outputs are pure functions of (config, seed): rerunning a scenario
reproduces every file byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import mc, nash, riccati, verify
from .errors import (ConfigMismatch, MissingField, NumericalError, OutOfRange,
                     UnexpectedField, ValidationError, flag, integer, real, reals)
from .model import Kind, ModelParams, validate_params

SCENARIO_KINDS = {
    "single-firm": Kind.SINGLE_FIRM,
    "two-firm": Kind.TWO_FIRM_REGULATED,
    "nash": Kind.TWO_FIRM_NASH,
    "best-response": Kind.TWO_FIRM_NASH,
}

RICCATI_HEADER = ("t", "A11", "A12", "A22", "B1", "B2", "C")
BR_HEADER = ("t",) + nash.BR_COLUMNS
NASH_HEADER = ("t",) + nash.NASH_COLUMNS
_CSV_BLOCK = 1024  # rows per tolist() copy, which bounds its memory


def emit_csv(trajectory, header, path) -> None:
    """Write rectangular float data as UTF-8 CSV with round-trip formatting."""
    rows = np.atleast_2d(np.asarray(trajectory, dtype=float))
    if rows.size == 0:
        rows = rows.reshape(0, len(header))
    if rows.shape[1] != len(header):
        raise ValueError(f"data has {rows.shape[1]} columns, header has {len(header)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # repr of a Python float is faster than of a numpy scalar
        for lo in range(0, len(rows), _CSV_BLOCK):
            fh.writelines(",".join(map(repr, row)) + "\n"
                          for row in rows[lo:lo + _CSV_BLOCK].tolist())


def _write_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


_SIM_FIELDS = _fields(mc.SimConfig)
NUMERICS_FIELDS = ("n_nodes", *_SIM_FIELDS, "dump_paths", "grid")
OPPONENT_FIELDS = ("firm", "flow")


def _reject_unknown(section: dict, allowed: tuple[str, ...], prefix: str = "") -> None:
    for key in section:
        if key not in allowed:
            raise UnexpectedField(prefix + key, f"unknown field '{prefix + key}'")


def _section(config: dict, key: str) -> dict:
    """``config[key]``, added empty when absent; it must be a JSON object."""
    section = config.setdefault(key, {})
    if not isinstance(section, dict):
        raise OutOfRange(key, f"{key} must be an object, got {section!r}")
    return section


def _block(config: dict, key: str, allowed: tuple[str, ...]) -> dict | None:
    """An optional top-level object whose keys must all be in ``allowed``."""
    if config.get(key) is None:
        return None
    section = _section(config, key)
    _reject_unknown(section, allowed, key + ".")
    return section


def _build(cls, section, key: str):
    """``cls`` from a JSON object of its fields; a field it rejects is named ``key.field``."""
    if not isinstance(section, dict):
        raise OutOfRange(key, f"{key} must be an object, got {section!r}")
    _reject_unknown(section, _fields(cls), key + ".")
    try:
        return cls(**section)
    except OutOfRange as exc:
        raise OutOfRange(f"{key}.{exc.field}", f"{key}.{exc}") from None


class _Run:
    """One parsed scenario invocation; every numerics field is checked on construction."""

    def __init__(self, scenario: str, config: dict, out_dir: Path):
        self.scenario = scenario
        self.config = config
        self.out_dir = out_dir
        numerics = _section(config, "numerics")
        _reject_unknown(numerics, NUMERICS_FIELDS)
        self.numerics = numerics
        self.n_nodes = integer("n_nodes", numerics.get("n_nodes", 1001), 2, mc._MAX_COUNT)
        self.sim_config = mc.SimConfig(**{k: numerics[k] for k in _SIM_FIELDS if k in numerics})
        self.dump_paths = flag("dump_paths", numerics.get("dump_paths", False))
        self.grid_spec = _build(verify.GridSpec, numerics.get("grid", {}), "grid")
        if config.get("model") is None:
            raise MissingField("model")
        self.params: ModelParams = validate_params(_section(config, "model"))
        expected = SCENARIO_KINDS.get(scenario)
        if expected is not None and self.params.kind is not expected:
            raise ConfigMismatch(
                f"scenario '{scenario}' needs model kind '{expected.value}', "
                f"got '{self.params.kind.value}'")

    def summary_base(self) -> dict:
        return {
            "scenario": self.scenario,
            "model": dict(self.config.get("model", {})),
            "numerics": dict(self.numerics),
        }


def _run_principal(run: _Run) -> dict:
    v = riccati.solve_principal(run.params, run.n_nodes)
    csv_path = run.out_dir / "riccati_coeffs.csv"
    emit_csv(riccati.coefficient_table(v), RICCATI_HEADER, csv_path)
    summary = run.summary_base()
    summary.update({
        "value_at_origin": v.C[0],
        "A0": v.A[0].tolist(),
        "B0": v.B[0].tolist(),
        "outputs": [csv_path.name],
    })
    return summary


def _run_nash(run: _Run) -> dict:
    coeffs = nash.solve_nash(run.params, run.n_nodes)
    csv_path = run.out_dir / "nash_coeffs.csv"
    emit_csv(np.column_stack([coeffs.grid.nodes, coeffs.values]), NASH_HEADER, csv_path)
    summary = run.summary_base()
    summary.update({
        "coefficients_at_0": {name: coeffs.column(name)[0] for name in nash.NASH_COLUMNS},
        "outputs": [csv_path.name],
    })
    return summary


def _opponent_spec(run: _Run) -> tuple[int, object]:
    spec = _block(run.config, "opponent", OPPONENT_FIELDS)
    if spec is None:
        raise MissingField("opponent", "best-response needs an 'opponent' object")
    firm = integer("opponent.firm", spec.get("firm", 1), 1, 2)
    if "flow" not in spec:
        raise MissingField("opponent.flow")
    flow = spec["flow"]
    if isinstance(flow, list):
        return firm, reals("opponent.flow", flow, run.n_nodes)
    return firm, real("opponent.flow", flow)


def _run_best_response(run: _Run) -> dict:
    firm, flow = _opponent_spec(run)
    coeffs = nash.best_response(run.params, firm, flow, run.n_nodes)
    csv_path = run.out_dir / "best_response_coeffs.csv"
    emit_csv(np.column_stack([coeffs.grid.nodes, coeffs.values]), BR_HEADER, csv_path)
    summary = run.summary_base()
    summary.update({
        "firm": firm,
        "coefficients_at_0": {name: coeffs.column(name)[0] for name in nash.BR_COLUMNS},
        "outputs": [csv_path.name],
    })
    return summary


def _run_verify(run: _Run) -> dict:
    grid = run.grid_spec
    if run.params.has_principal:
        v = riccati.solve_principal(run.params, run.n_nodes)
        reports = [verify.hjb_residual_principal(v, run.params, grid)]
        residuals = {}
    else:
        coeffs = nash.solve_nash(run.params, run.n_nodes)
        reports = verify.hjb_residual_nash(coeffs, run.params, grid)
        residuals = {"ode_max_residual": nash.ode_residual(coeffs, run.params)}
    residuals["reports"] = [r.to_dict() for r in reports]
    _write_json(residuals, run.out_dir / "residuals.json")
    summary = run.summary_base()
    summary.update({
        "max_residuals": {r.label: r.max_residual for r in reports},
        "outputs": ["residuals.json"],
    })
    return summary


def _dump_paths(run: _Run, cfg: mc.SimConfig, labels, payoff_columns) -> str:
    if cfg.n_paths > 100_000:
        print(f"warning: dumping {cfg.n_paths} paths to paths.csv", file=sys.stderr)
    table = np.column_stack([np.arange(cfg.n_paths, dtype=float), *payoff_columns])
    emit_csv(table, ("path", *labels), run.out_dir / "paths.csv")
    return "paths.csv"


def _run_simulate(run: _Run) -> dict:
    cfg = run.sim_config
    dev_spec = _block(run.config, "deviation", _fields(mc.Deviation))
    if dev_spec is not None and run.params.has_principal:
        raise UnexpectedField("deviation", "deviation applies only to the no-incentive game")
    deviation = None if dev_spec is None else _build(mc.Deviation, dev_spec, "deviation")
    summary = run.summary_base()
    outputs: list[str] = []
    if run.params.has_principal:
        v = riccati.solve_principal(run.params, run.n_nodes)
        pay_p, pays_a = mc.principal_path_payoffs(run.params, v, cfg)
        principal, agents = mc.principal_estimates_from_payoffs(run.params, cfg, pay_p, pays_a)
        x0 = np.asarray(cfg.x0, dtype=float)
        y0 = mc._agent_y0(run.params, cfg)
        targets = {"principal": -float(np.exp(-run.params.eta_p * (v.value(0.0, x0) - sum(y0))))}
        for est, eta, y in zip(agents, run.params.agent_aversions(), y0):
            targets[est.label] = -float(np.exp(-eta * y))
        estimates = [principal, *agents]
        if run.dump_paths:
            outputs.append(_dump_paths(run, cfg, ("principal", *mc.agent_labels(run.params)),
                                       (pay_p, *pays_a)))
    else:
        coeffs = nash.solve_nash(run.params, run.n_nodes)
        strategies = nash.feedback_strategies(coeffs, run.params)
        if dev_spec is not None:
            summary["deviation"] = dev_spec
        z1, z2 = mc.nash_path_payoffs(run.params, strategies, cfg, deviation)
        e1, e2 = mc.nash_estimates_from_payoffs(run.params, cfg, z1, z2)
        targets = {f"firm{i}": -float(np.exp(eta * nash.certainty_surface(coeffs, i, 0.0, *cfg.x0)))
                   for i, eta in enumerate(run.params.agent_aversions(), 1)}
        estimates = [e1, e2]
        if run.dump_paths:
            outputs.append(_dump_paths(run, cfg, ("firm1", "firm2"), (z1, z2)))
    summary.update({
        "estimates": [e.to_dict() for e in estimates],
        "targets": targets,
        "outputs": outputs,
    })
    return summary


_RUNNERS = {
    "single-firm": _run_principal,
    "two-firm": _run_principal,
    "nash": _run_nash,
    "best-response": _run_best_response,
    "verify": _run_verify,
    "simulate": _run_simulate,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="decarb", description=__doc__)
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the scenario JSON config")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override numerics.seed")
        p.add_argument("--literal-signs", action="store_true",
                       help="use the single-firm model's alternate sign conventions")
    return parser


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    field = getattr(exc, "field", None)
    if field is not None:
        payload["field"] = field
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigMismatch("top-level config must be a JSON object")
        if args.seed is not None:
            _section(config, "numerics")["seed"] = args.seed
        if args.literal_signs:
            _section(config, "model")["literal_signs"] = True
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        runner = _Run(args.scenario, config, out_dir)
        summary = _RUNNERS[args.scenario](runner)
        _write_json(summary, out_dir / "summary.json")
        return 0
    except (ValidationError, json.JSONDecodeError, UnicodeDecodeError, FileNotFoundError) as exc:
        return _fail(exc, 1)
    except (NumericalError, OSError) as exc:
        return _fail(exc, 2)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
