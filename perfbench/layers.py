"""Per-layer metrics from a traced run.

Each metric is measured on the workload's traced passes.  Where a workload
does not use a layer, the metric is measured on the end-of-run canary
instead, so every workload reports every metric.  Counts are per pass (every
pass repeats the same inputs, so they are exact); times are per pass or per
call as the name says.
"""

from __future__ import annotations

import statistics

from tracer import Span, Tracer

UNITS = {
    "cli.run.s": "s",
    "cli.run.self_s": "s",
    "cli.emit_csv.s": "s",
    "cli.emit_csv.values": "count",
    "cli.emit_csv.ns_per_value": "ns",
    "cli.max_csv_change": "1",
    "riccati.solve_principal.s": "s",
    "riccati.rk4_backward.steps": "count",
    "riccati.rhs_us": "us",
    "nash.solve_nash.s": "s",
    "nash.solve_nash.rhs_us": "us",
    "nash.best_response.s": "s",
    "nash.ode_residual.s": "s",
    "verify.hjb_residual.s": "s",
    "verify.max_residual": "1",
    "verify.sup_consistency.self_s": "s",
    "contract.oracle_rates.calls": "count",
    "contract.oracle_rates.dim2.ms_p50": "ms",
    "contract.oracle_rates.dim4.ms_p50": "ms",
    "contract.oracle_rates.dim4.ms_tail": "ms",
    "contract.oracle_rates.dim4.tail_pct": "%",
    "contract.oracle_rates.dim4.samples": "count",
    "contract.hamiltonian_h.evals_per_call.dim2": "count",
    "contract.hamiltonian_h.evals_per_call.dim4": "count",
    "contract.hamiltonian_h.us_per_eval": "us",
    "contract.oracle_max_gap": "1",
    "contract.sign_control_min_gap": "1",
    "mc.principal.ns_per_path_step": "ns",
    "mc.nash.ns_per_path_step": "ns",
    "mc.path_increments.calls": "count",
    "mc.path_increments.s": "s",
    "mc.rng_share": "1",
    "mc.estimates.s": "s",
    "mc.max_abs_z": "1",
    "mc.s_to_se_1e-4": "s",
    "mc.max_estimate_change": "1",
    "mc.statistical_misses": "count",
    "model.revenue_f.calls_per_step": "count",
    "model.social_cost_g.calls_per_step": "count",
    "nash.payoff_rate.calls_per_step": "count",
    "model.validate_params.s": "s",
    "trace.overhead_s": "s",
}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With fewer than eleven samples no such percentile exists; the median is
    returned with percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 50.0, statistics.median(ordered)
    k = n - 11  # ten samples lie beyond index k
    return 100.0 * (k + 1) / n, ordered[k]


class _Picker:
    """Selects spans from the traced passes, else from the canary."""

    def __init__(self, tracer: Tracer, n_passes: int) -> None:
        self.spans = tracer.spans
        self.n_passes = n_passes

    def __call__(self, *names: str, dim: int | None = None) -> tuple[list[Span], int]:
        def chosen(phase: str) -> list[Span]:
            return [s for s in self.spans if s.name in names and s.phase == phase
                    and (dim is None or s.attrs.get("dim") == dim)]
        spans = chosen("pass")
        if spans:
            return spans, self.n_passes
        return chosen("canary"), 1


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _values(checker, key: str, n_passes: int) -> tuple[list[float], int]:
    values = checker.values.get((key, "pass"))
    if values:
        return values, n_passes
    return checker.values.get((key, "canary"), []), 1


def layer_metrics(tracer: Tracer, checker, n_passes: int, overhead_s: float) -> dict[str, float]:
    pick = _Picker(tracer, n_passes)
    self_time = tracer.self_times()
    m: dict[str, float] = {}

    def total(spans: list[Span]) -> float:
        return sum(s.duration for s in spans)

    spans, n = pick("cli.run")
    m["cli.run.s"] = _per(total(spans), n)
    m["cli.run.self_s"] = _per(sum(self_time[s.sid] for s in spans), n)
    spans, n = pick("cli.emit_csv")
    values = sum(s.attrs["values"] for s in spans)
    m["cli.emit_csv.s"] = _per(total(spans), n)
    m["cli.emit_csv.values"] = _per(values, n)
    m["cli.emit_csv.ns_per_value"] = 1e9 * _ratio(total(spans), values)
    vals, _ = _values(checker, "cli.max_csv_change", n_passes)
    m["cli.max_csv_change"] = max(vals, default=0.0)

    spans, n = pick("riccati.solve_principal")
    steps = sum(s.attrs["steps"] for s in spans)
    m["riccati.solve_principal.s"] = _per(total(spans), n)
    m["riccati.rhs_us"] = 1e6 * _ratio(total(spans), 4 * steps)
    spans, n = pick("riccati.rk4_backward")
    m["riccati.rk4_backward.steps"] = _per(sum(s.attrs["steps"] for s in spans), n)

    spans, n = pick("nash.solve_nash")
    steps = sum(s.attrs["steps"] for s in spans)
    m["nash.solve_nash.s"] = _per(total(spans), n)
    m["nash.solve_nash.rhs_us"] = 1e6 * _ratio(total(spans), 4 * steps)
    for name in ("nash.best_response", "nash.ode_residual"):
        spans, n = pick(name)
        m[f"{name}.s"] = _per(total(spans), n)

    spans, n = pick("verify.hjb_residual_principal", "verify.hjb_residual_nash")
    m["verify.hjb_residual.s"] = _per(total(spans), n)
    vals, _ = _values(checker, "verify.max_residual", n_passes)
    m["verify.max_residual"] = max(vals, default=0.0)
    spans, n = pick("verify.sup_consistency")
    m["verify.sup_consistency.self_s"] = _per(sum(self_time[s.sid] for s in spans), n)

    spans, n = pick("contract.oracle_rates")
    evals = sum(s.counts["contract.hamiltonian_h"] for s in spans)
    m["contract.oracle_rates.calls"] = _per(len(spans), n)
    m["contract.hamiltonian_h.us_per_eval"] = 1e6 * _ratio(total(spans), evals)
    for dim in (2, 4):
        spans, _ = pick("contract.oracle_rates", dim=dim)
        durations = [1e3 * s.duration for s in spans]
        m[f"contract.oracle_rates.dim{dim}.ms_p50"] = statistics.median(durations) if durations else 0.0
        m[f"contract.hamiltonian_h.evals_per_call.dim{dim}"] = _ratio(
            sum(s.counts["contract.hamiltonian_h"] for s in spans), len(spans))
        if dim == 4 and durations:
            pct, value = tail(durations)
            m["contract.oracle_rates.dim4.ms_tail"] = value
            m["contract.oracle_rates.dim4.tail_pct"] = pct
            m["contract.oracle_rates.dim4.samples"] = len(durations)
    vals, _ = _values(checker, "contract.oracle_max_gap", n_passes)
    m["contract.oracle_max_gap"] = max(vals, default=0.0)
    vals, _ = _values(checker, "contract.sign_control_min_gap", n_passes)
    m["contract.sign_control_min_gap"] = min(vals, default=0.0)

    for model, name in (("principal", "mc.principal_path_payoffs"), ("nash", "mc.nash_path_payoffs")):
        spans, _ = pick(name)
        m[f"mc.{model}.ns_per_path_step"] = 1e9 * _ratio(
            total(spans), sum(s.attrs["path_steps"] for s in spans))
        sim_steps = sum(s.attrs["steps"] for s in spans)
        if model == "principal":
            for counter in ("model.revenue_f", "model.social_cost_g"):
                m[f"{counter}.calls_per_step"] = _ratio(sum(s.counts[counter] for s in spans), sim_steps)
        else:
            m["nash.payoff_rate.calls_per_step"] = _ratio(
                sum(s.counts["nash.payoff_rate"] for s in spans), sim_steps)
    spans, n = pick("mc.principal_path_payoffs", "mc.nash_path_payoffs")
    engine_time = total(spans)
    rng_time = sum(s.times["mc.path_increments"] for s in spans)
    m["mc.path_increments.calls"] = _per(sum(s.counts["mc.path_increments"] for s in spans), n)
    m["mc.path_increments.s"] = _per(rng_time, n)
    m["mc.rng_share"] = _ratio(rng_time, engine_time)
    spans, n = pick("mc.principal_estimates_from_payoffs", "mc.nash_estimates_from_payoffs")
    m["mc.estimates.s"] = _per(total(spans), n)
    vals, _ = _values(checker, "mc.abs_z", n_passes)
    m["mc.max_abs_z"] = max(vals, default=0.0)
    vals, n = _values(checker, "mc.s_to_se_1e-4", n_passes)
    m["mc.s_to_se_1e-4"] = _per(sum(vals), n)
    vals, _ = _values(checker, "mc.max_estimate_change", n_passes)
    m["mc.max_estimate_change"] = max(vals, default=0.0)
    vals, n = _values(checker, "mc.statistical_misses", n_passes)
    m["mc.statistical_misses"] = _per(sum(vals), n)

    spans = [s for s in tracer.spans if s.name == "model.validate_params"]
    m["model.validate_params.s"] = _ratio(total(spans), len(spans))
    m["trace.overhead_s"] = overhead_s
    return m
