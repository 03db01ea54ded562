"""Workload passes, the end-of-run canary, and the checks on every output.

A pass is a fixed list of operations built from seed-derived inputs; every
pass of a run repeats the same inputs, so outputs must repeat bit for bit.
Each operation calls the program through module attributes (for example
``decarb.mc.simulate_principal``), which is where the tracer wraps it.

Checks use the acceptance tolerances.  A miss fails its operation and marks
the run incorrect, and so does any exception.  The statistical checks
(``|z| <= 3`` and deviation gain ``<= +2 SE`` on seed-derived Monte Carlo
runs, and the canary's estimates against the stored ones) are missed by a
correct program at a small rate by chance, so a miss of theirs is listed as
statistical and fails nothing.  Beyond ``HARD_SE`` standard errors, which a
correct program reaches with probability under 1e-6 per check, it fails its
operation like any other miss.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

import decarb.cli
import decarb.contract
import decarb.mc
import decarb.model
import decarb.nash
import decarb.riccati
import decarb.verify

import inputs

TOL = 1e-6            # oracle gap, sup gap and residual gates
CONTROL_MIN = 1e-3    # the flipped-sign control must miss by more than this
Z_MAX = 3.0           # Monte Carlo value matching, in standard errors
GAIN_MAX = 2.0        # deviation gain, in standard errors
HARD_SE = 5.0         # a statistical check beyond this many SE fails its operation
SE_TARGET = 1e-4      # accuracy behind mc.s_to_se_1e-4
REFERENCE_ROWS = 41   # CSV rows kept per output in the reference

CSV_FILES = {
    "single-firm": "riccati_coeffs.csv",
    "two-firm": "riccati_coeffs.csv",
    "nash": "nash_coeffs.csv",
    "best-response": "best_response_coeffs.csv",
}

Op = tuple[str, Callable[[], object], Callable[[object, float], None]]


class Checker:
    """Counts operations and misses, and keeps the values checks measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.misses: list[dict] = []
        self.values: dict[tuple[str, str], list[float]] = defaultdict(list)
        self._signatures: dict[str, object] = {}
        self._op = ""
        self._phase = ""
        self._missed = False

    def begin(self, op: str, phase: str) -> None:
        self.attempted += 1
        self._op, self._phase, self._missed = op, phase, False

    def expect(self, ok: bool, reason: str) -> bool:
        if not ok:
            self._missed = True
            self.misses.append({"op": self._op, "phase": self._phase, "reason": reason,
                                "statistical": False})
        return ok

    def statistical(self, se_units: float, limit: float, reason: str) -> None:
        """A check passed when ``se_units <= limit``.  A miss up to ``HARD_SE``
        is listed as statistical; beyond it the operation fails."""
        self.record("mc.statistical_misses", se_units > limit)
        if se_units > HARD_SE:
            self.expect(False, f"{reason} > {HARD_SE} (hard limit)")
        elif se_units > limit:
            self.misses.append({"op": self._op, "phase": self._phase,
                                "reason": f"{reason} > {limit}", "statistical": True})

    def end(self) -> None:
        if self._missed:
            self.failed += 1

    def record(self, key: str, value: float) -> None:
        self.values[(key, self._phase)].append(float(value))

    def same_as_before(self, signature) -> None:
        """Passes repeat identical inputs, so an output must repeat bit for bit."""
        previous = self._signatures.setdefault(self._op, signature)
        self.expect(previous == signature, "output differs from an earlier pass")

    @property
    def correct(self) -> bool:
        return not any(not m["statistical"] for m in self.misses)


class References:
    """Seed-commit outputs: CSV samples, MC estimates and residual values.

    With ``capture`` the observed outputs become the reference instead of
    being compared with it.
    """

    def __init__(self, data: dict | None = None, capture: bool = False) -> None:
        self.data = data if data is not None else {"csv": {}, "estimates": {}, "residuals": {}}
        self.capture = capture

    @classmethod
    def load(cls, path: Path) -> "References":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def csv(self, op: str, lines: list[str]) -> tuple[float, bool]:
        """Largest absolute change of the sampled CSV values, and whether every
        sampled value stays within 1e-6 (relative above 1) of the reference."""
        if self.capture:
            rows = sorted({int(r) for r in np.linspace(0, len(lines) - 1, REFERENCE_ROWS).round()})
            self.data["csv"][op] = {"n_rows": len(lines), "rows": rows,
                                    "values": [[float(x) for x in lines[r].split(",")] for r in rows]}
            return 0.0, True
        ref = self.data["csv"].get(op)
        if ref is None or len(lines) != ref["n_rows"]:
            return math.inf, False
        worst, ok = 0.0, True
        for r, ref_row in zip(ref["rows"], ref["values"]):
            row = [float(x) for x in lines[r].split(",")]
            if len(row) != len(ref_row):
                return math.inf, False
            for a, b in zip(row, ref_row):
                worst = max(worst, abs(a - b))
                ok &= abs(a - b) <= TOL * max(1.0, abs(b))
        return worst, ok

    def estimates(self, op: str, observed: dict[str, tuple[float, float]]) -> tuple[float, float]:
        """Largest change of the (mean, se) estimates, absolute and in standard
        errors of the difference, ``sqrt(se**2 + se_ref**2)``, which is the
        unit in which independent draws of a correct program differ."""
        if self.capture:
            self.data["estimates"][op] = {k: list(v) for k, v in observed.items()}
            return 0.0, 0.0
        ref = self.data["estimates"].get(op)
        if ref is None or set(ref) != set(observed):
            return math.inf, math.inf
        worst, worst_se = 0.0, 0.0
        for label, (mean, se) in observed.items():
            ref_mean, ref_se = ref[label]
            change = abs(mean - ref_mean)
            worst = max(worst, change)
            worst_se = max(worst_se, change / math.hypot(se, ref_se))
        return worst, worst_se

    def residuals(self, op: str, observed: dict[str, float]) -> tuple[float, bool]:
        """Largest change of residual maxima; within 1e-6 (relative above 1)
        passes, the rule the CSV values follow."""
        if self.capture:
            self.data["residuals"][op] = dict(observed)
            return 0.0, True
        ref = self.data["residuals"].get(op)
        if ref is None or set(ref) != set(observed):
            return math.inf, False
        worst, ok = 0.0, True
        for label, value in observed.items():
            change = abs(value - ref[label])
            worst = max(worst, change)
            ok &= change <= TOL * max(1.0, abs(ref[label]))
        return worst, ok


class Context:
    """What every operation shares: checker, references and scratch space."""

    def __init__(self, root: Path, scratch: Path, refs: References) -> None:
        self.root = root
        self.scratch = scratch
        self.checker = Checker()
        self.refs = refs
        self.configs: list[Path] = []

    def write_config(self, name: str, config: dict) -> Path:
        decarb.model.validate_params(config["model"])
        path = self.scratch / f"{name}.json"
        path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        self.configs.append(path)
        return path

    def load_configs(self) -> None:
        """The program's own set-up of every written config: load and validate."""
        for path in self.configs:
            with open(path, encoding="utf-8") as fh:
                decarb.model.validate_params(json.load(fh)["model"])


def run_op(ctx: Context, tracer, phase: str, op: Op) -> float:
    """Run one operation, time the program call only, then check its output."""
    name, call, check = op
    ctx.checker.begin(name, phase)
    if tracer is not None:
        tracer.op, tracer.phase = name, phase
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # any program error is a failed operation
        elapsed = time.perf_counter() - t0
        ctx.checker.expect(False, f"{type(exc).__name__}: {exc}")
    else:
        elapsed = time.perf_counter() - t0
        try:
            check(result, elapsed)
        except Exception as exc:  # an output the checks cannot read
            ctx.checker.expect(False, f"unreadable output, {type(exc).__name__}: {exc}")
    ctx.checker.end()
    return elapsed


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- CLI operations

def cli_op(ctx: Context, name: str, scenario: str, config: Path, gate: bool = True) -> Op:
    """One ``decarb.cli.run`` call, checked against the gates and the reference.

    ``gate`` applies the 1e-6 residual gate to ``verify``; coarse-grid canary
    residuals are compared with the reference only.
    """
    out = ctx.scratch / name
    checker = ctx.checker

    def call():
        return decarb.cli.run([scenario, "--config", str(config), "--out", str(out)])

    def check(rc, _elapsed):
        if not checker.expect(rc == 0, f"exit code {rc}"):
            return
        if scenario == "verify":
            residuals = json.loads((out / "residuals.json").read_text(encoding="utf-8"))
            values = {r["label"]: r["max_residual"] for r in residuals["reports"]}
            if "ode_max_residual" in residuals:
                values["ode"] = residuals["ode_max_residual"]
            for label, value in values.items():
                checker.record("verify.max_residual", value)
                if gate:
                    checker.expect(value <= TOL, f"{label} residual {value:.3g} > {TOL}")
            change, ok = ctx.refs.residuals(name, values)
            checker.expect(ok, f"residuals moved from the reference by {change:.3g}")
            checker.same_as_before(_digest(out / "residuals.json", out / "summary.json"))
        else:
            csv = out / CSV_FILES[scenario]
            lines = csv.read_text(encoding="utf-8").splitlines()[1:]
            change, ok = ctx.refs.csv(name, lines)
            checker.record("cli.max_csv_change", change)
            checker.expect(ok, f"CSV moved from the reference by {change:.3g}")
            checker.same_as_before(_digest(csv, out / "summary.json"))

    return name, call, check


def rerun_op(ctx: Context, name: str, config: Path, fixed_seed: bool = False) -> Op:
    """Run a simulate scenario twice; the two summaries must match byte for byte.

    With ``fixed_seed`` (canary inputs) the estimates are also gated at
    3 SE against their closed-form targets, and compared with the reference
    by a statistical check at 3 SE of the difference.
    """
    outs = (ctx.scratch / f"{name}-a", ctx.scratch / f"{name}-b")
    checker = ctx.checker

    def call():
        return [decarb.cli.run(["simulate", "--config", str(config), "--out", str(o)])
                for o in outs]

    def check(codes, elapsed):
        if not checker.expect(codes == [0, 0], f"exit codes {codes}"):
            return
        first, second = ((o / "summary.json").read_bytes() for o in outs)
        checker.expect(first == second, "rerun is not byte-identical")
        if not fixed_seed:
            return
        summary = json.loads(first)
        observed = {e["label"]: (e["mean"], e["std_err"]) for e in summary["estimates"]}
        check_estimates(checker, observed, summary["targets"], elapsed / 2, statistical=False)
        change, se_units = ctx.refs.estimates(name, observed)
        checker.record("mc.max_estimate_change", change)
        checker.statistical(se_units, Z_MAX, f"estimates moved from the reference by "
                                             f"{change:.3g}, {se_units:.2f} SE")

    return name, call, check


# ---------------------------------------------------------------- oracle operations

def oracle_ops(ctx: Context, draws: dict, prefix: str = "") -> list[Op]:
    """Criterion 1 (oracle vs closed-form rates) and criterion 2 (sup identity
    and its flipped-sign control) on validated draws."""
    checker = ctx.checker
    ops: list[Op] = []
    for i, (raw, grad) in enumerate(draws["rates"]):
        p = decarb.model.validate_params(raw)
        v = np.asarray(grad)
        single = p.kind is decarb.model.Kind.SINGLE_FIRM

        def call(p=p, v=v):
            return decarb.contract.oracle_rates(p, v)

        def check(result, _elapsed, p=p, v=v, single=single):
            closed = (decarb.contract.rates_single(p, v) if single
                      else decarb.contract.rates_two(p, v)).as_array()
            gap = float(np.max(np.abs(result[0] - closed)))
            checker.record("contract.oracle_max_gap", gap)
            checker.expect(gap <= TOL, f"oracle gap {gap:.3g} > {TOL}")
            checker.same_as_before(result[0].tobytes())

        ops.append((f"{prefix}rates-{2 if single else 4}d-{i}", call, check))

    for i, (raw, grad) in enumerate(draws["sup"]):
        p = decarb.model.validate_params(raw)
        v = np.asarray(grad)
        dim = 2 if p.kind is decarb.model.Kind.SINGLE_FIRM else 4

        def call(p=p, v=v):
            return decarb.verify.sup_consistency(p, v)

        def check(gap, _elapsed):
            checker.record("contract.oracle_max_gap", gap)
            checker.expect(gap <= TOL, f"sup gap {gap:.3g} > {TOL}")
            checker.same_as_before(gap)

        ops.append((f"{prefix}sup-{dim}d-{i}", call, check))
        if dim == 2:
            continue
        # negative control: flip the sign of the effective-aversion term
        m1, m2 = decarb.contract.gradient_couplings(p)
        av = decarb.contract.effective_aversions(p)
        wrong = (m1 + 2.0 * av.eta_bar_2 * p.sigma1 ** 2, m2 + 2.0 * av.eta_bar_1 * p.sigma2 ** 2)

        def control(p=p, v=v, wrong=wrong):
            return decarb.verify.sup_consistency(p, v, m=wrong)

        def check_control(gap, _elapsed):
            checker.record("contract.sign_control_min_gap", gap)
            checker.expect(gap > CONTROL_MIN, f"flipped-sign control gap {gap:.3g} <= {CONTROL_MIN}")
            checker.same_as_before(gap)

        ops.append((f"{prefix}control-4d-{i}", control, check_control))
    return ops


# ---------------------------------------------------------------- Monte Carlo operations

def check_estimates(checker: Checker, observed: dict[str, tuple[float, float]],
                    targets: dict[str, float], seconds: float, statistical: bool = True) -> None:
    """|z| <= 3 against each closed-form target, as a statistical check or,
    on fixed seeds, a plain one; records z and time-to-accuracy."""
    worst_se = 0.0
    for label, (mean, se) in observed.items():
        z = (mean - targets[label]) / se
        checker.record("mc.abs_z", abs(z))
        if statistical:
            checker.statistical(abs(z), Z_MAX, f"{label} |z| = {abs(z):.2f}")
        else:
            checker.expect(abs(z) <= Z_MAX, f"{label} |z| = {abs(z):.2f} > {Z_MAX}")
        worst_se = max(worst_se, se)
    checker.record("mc.s_to_se_1e-4", seconds * (worst_se / SE_TARGET) ** 2)


def _observed(estimates) -> dict[str, tuple[float, float]]:
    return {e.label: (e.mean, e.std_err) for e in estimates}


def principal_ops(ctx: Context, tag: str, raw: dict, sim: dict) -> list[Op]:
    """Solve a principal model, then simulate it and match principal and agents."""
    checker = ctx.checker
    p = decarb.model.validate_params(raw)
    cfg = decarb.mc.SimConfig(**sim)
    state: dict = {}

    def solve():
        state["v"] = decarb.riccati.solve_principal(p, 1001)
        return state["v"]

    def check_solve(v, _elapsed):
        checker.expect(bool(np.isfinite(v.C).all()), "non-finite coefficients")
        checker.same_as_before(v.C.tobytes())

    def simulate():
        principal, agents = decarb.mc.simulate_principal(p, state["v"], cfg)
        return [principal, *agents]

    def check_sim(estimates, elapsed):
        y0 = cfg.y0
        n_agents = len(estimates) - 1
        value = state["v"].value(0.0, np.asarray(cfg.x0))
        targets = {"principal": -math.exp(-p.eta_p * (value - n_agents * y0))}
        for est, eta in zip(estimates[1:], p.agent_aversions()):
            targets[est.label] = -math.exp(-eta * y0)
        observed = _observed(estimates)
        check_estimates(checker, observed, targets, elapsed)
        checker.same_as_before(observed)

    return [(f"solve-{tag}", solve, check_solve), (f"principal-{tag}", simulate, check_sim)]


def nash_ops(ctx: Context, tag: str, n_nodes: int, sim: dict,
             deviating_firm: int | None = None) -> list[Op]:
    """Solve the game, simulate the equilibrium, and optionally one +-10%
    deviation pair of one firm on common random numbers."""
    checker = ctx.checker
    p = decarb.model.validate_params(inputs.NASH)
    cfg = decarb.mc.SimConfig(**sim)
    etas = (p.eta1, p.eta2)
    state: dict = {}

    def solve():
        coeffs = decarb.nash.solve_nash(p, n_nodes)
        state["coeffs"] = coeffs
        state["strategies"] = decarb.nash.feedback_strategies(coeffs, p)
        return coeffs

    def check_solve(coeffs, _elapsed):
        checker.expect(bool(np.isfinite(coeffs.values).all()), "non-finite coefficients")
        checker.same_as_before(coeffs.values.tobytes())

    def equilibrium():
        z1, z2 = decarb.mc.nash_path_payoffs(p, state["strategies"], cfg)
        return (z1, z2), decarb.mc.nash_estimates_from_payoffs(p, cfg, z1, z2)

    def check_equilibrium(result, elapsed):
        payoffs, estimates = result
        state["utilities"] = [-np.exp(-eta * z) for eta, z in zip(etas, payoffs)]
        targets = {f"firm{i}": -math.exp(etas[i - 1] * float(
            decarb.nash.certainty_surface(state["coeffs"], i, 0.0, *cfg.x0))) for i in (1, 2)}
        observed = _observed(estimates)
        check_estimates(checker, observed, targets, elapsed)
        checker.same_as_before(observed)

    ops = [(f"solve-nash-{n_nodes}", solve, check_solve),
           (f"nash-{tag}", equilibrium, check_equilibrium)]
    if deviating_firm is None:
        return ops
    for scale in (0.9, 1.1):
        deviation = decarb.mc.Deviation(deviating_firm, scale=scale)

        def deviate(deviation=deviation):
            z1, z2 = decarb.mc.nash_path_payoffs(p, state["strategies"], cfg, deviation)
            return (z1, z2), decarb.mc.nash_estimates_from_payoffs(p, cfg, z1, z2)

        def check_deviation(result, elapsed, firm=deviating_firm):
            payoffs, estimates = result
            u_dev = -np.exp(-etas[firm - 1] * payoffs[firm - 1])
            mean, se = decarb.mc.paired_difference(u_dev, state["utilities"][firm - 1],
                                                   cfg.antithetic)
            checker.statistical(mean / se, GAIN_MAX, f"deviation gain {mean / se:+.2f} SE")
            checker.record("mc.s_to_se_1e-4",
                           elapsed * (max(e.std_err for e in estimates) / SE_TARGET) ** 2)
            checker.same_as_before((mean, se))

        ops.append((f"nash-{tag}-dev{deviating_firm}-x{scale}", deviate, check_deviation))
    return ops


# ---------------------------------------------------------------- workloads

# Each workload builds its inputs (that is set-up) and returns one pass.

def solve_verify(ctx: Context, seed: int) -> list[Op]:
    """The deterministic spine: every checked-in non-simulate config, the
    16001-node scenarios, a small simulate rerun, and criteria 1-2 (4 oracle
    draws per kind, 6 sup draws)."""
    ops = [cli_op(ctx, name, scenario, ctx.write_config(name, config))
           for name, scenario, config in inputs.scenario_configs(seed, ctx.root / "configs")]
    rerun = ctx.write_config("simulate-rerun", inputs.rerun_config(seed))
    ops.append(rerun_op(ctx, "simulate-rerun", rerun))
    return ops + oracle_ops(ctx, inputs.oracle_draws(seed, per_kind=4, sup_draws=6))


def mc_long(ctx: Context, seed: int) -> list[Op]:
    """Criteria 7-9 shapes at dt = 1e-3 (1000 pc steps) on one full chunk."""
    plan = inputs.mc_plan(seed)
    sim = dict(n_paths=8192, dt=1e-3)
    return (principal_ops(ctx, "two-firm", inputs.TWO_FIRM,
                          dict(sim, seed=plan["principal_seed"], y0=plan["y0"]))
            + nash_ops(ctx, "eq", 4001, dict(sim, seed=plan["nash_seed"]),
                       deviating_firm=plan["deviating_firm"]))


def mc_wide(ctx: Context, seed: int) -> list[Op]:
    """Many paths on a coarse grid: dt = 5e-3 (200 pc steps), two full chunks."""
    plan = inputs.mc_plan(seed)
    sim = dict(n_paths=16384, dt=5e-3)
    return (principal_ops(ctx, "single-firm", inputs.SINGLE_FIRM,
                          dict(sim, seed=plan["wide_principal_seed"], y0=plan["y0"]))
            + nash_ops(ctx, "eq", 1001, dict(sim, seed=plan["wide_nash_seed"])))


WORKLOADS = {f.__name__: f for f in (solve_verify, mc_long, mc_wide)}

# Calibration kernel parts (calibrate.py) that match each workload's work.
# solve_verify writes 16001-row CSVs, whose time the Python and numpy parts
# alone track poorly; with the CSV part, Monte Carlo steps are tracked worse.
KERNEL_PARTS = {
    "solve_verify": ("python", "numpy", "csv"),
    "mc_long": ("python", "numpy"),
    "mc_wide": ("python", "numpy"),
}


def canary_ops(ctx: Context) -> list[Op]:
    """Fixed small inputs covering every layer, checked against the reference."""
    ops: list[Op] = []
    for name, scenario, config in inputs.CANARY:
        path = ctx.write_config(name, config)
        if scenario == "simulate":
            ops.append(rerun_op(ctx, name, path, fixed_seed=True))
        else:
            ops.append(cli_op(ctx, name, scenario, path, gate=False))
    draws = inputs.oracle_draws(inputs.CANARY_ORACLE_SEED, 1, 1)
    draws["rates"] = draws["rates"][:1]  # the single-firm draw; sup and control are 4-D
    ops += oracle_ops(ctx, draws, prefix="canary-")
    return ops
