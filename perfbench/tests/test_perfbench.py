"""Tests of the benchmark itself: input generation, trace counts, checker."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibrate  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic_per_seed():
    assert inputs.oracle_draws(7, 3, 4) == inputs.oracle_draws(7, 3, 4)
    assert inputs.oracle_draws(7, 3, 4) != inputs.oracle_draws(8, 3, 4)
    assert inputs.mc_plan(7) == inputs.mc_plan(7)
    assert inputs.mc_plan(7) != inputs.mc_plan(8)
    configs = ROOT / "configs"
    assert inputs.scenario_configs(7, configs) == inputs.scenario_configs(7, configs)
    assert inputs.rerun_config(7) == inputs.rerun_config(7)


def test_oracle_draws_follow_the_test_distributions():
    draws = inputs.oracle_draws(3, 5, 6)
    kinds = [raw["kind"] for raw, _ in draws["rates"]]
    assert kinds == ["single_firm"] * 5 + ["two_firm_regulated"] * 5
    assert [raw["kind"] for raw, _ in draws["sup"]] == ["two_firm_regulated", "single_firm"] * 3
    for raw, grad in draws["rates"] + draws["sup"]:
        assert 0.5 <= raw["gamma1"] <= 3.0 and 0.3 <= raw["sigma2"] <= 1.2
        assert all(0.5 <= abs(g) <= 2.0 for g in grad)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"pass_ref_s", "setup_s", "peak_rss_mb"}


def test_reference_speed_cancels_the_host_not_the_program():
    assert set(workloads.KERNEL_PARTS) == set(workloads.WORKLOADS)
    kernel = calibrate.Kernel(workloads.KERNEL_PARTS["mc_long"])
    assert kernel.seconds() > 0
    ref_s = kernel.reference_s
    passes = [[(2.0, ref_s), (0.5, ref_s)], [(2.2, ref_s), (0.5, ref_s)]]
    wall, ref = worker.pass_seconds(passes, ref_s)
    assert wall == pytest.approx(2.6) and ref == pytest.approx(2.6)
    slow_host = [[(t * 1.5, k * 1.5) for t, k in p] for p in passes]
    assert worker.pass_seconds(slow_host, ref_s) == (pytest.approx(3.9), pytest.approx(2.6))
    slow_program = [[(t * 1.5, k) for t, k in p] for p in passes]
    assert worker.pass_seconds(slow_program, ref_s)[1] == pytest.approx(3.9)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(100))
    pct, value = layers.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0
    assert layers.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


def _canary_nash(refs, tmp_path):
    ctx = workloads.Context(ROOT, tmp_path, refs)
    name, scenario, config = next(c for c in inputs.CANARY if c[0] == "canary-nash")
    op = workloads.cli_op(ctx, name, scenario, ctx.write_config(name, config), gate=False)
    workloads.run_op(ctx, None, "pass", op)
    return ctx.checker


def test_checker_passes_the_stored_reference(tmp_path):
    refs = workloads.References.load(BENCH / "reference" / "seed_reference.json")
    checker = _canary_nash(refs, tmp_path)
    assert checker.failed == 0 and checker.correct


def test_wrong_reference_registers_as_failure(tmp_path):
    data = json.loads((BENCH / "reference" / "seed_reference.json").read_text())
    row = data["csv"]["canary-nash"]["values"][0]
    row[1] += 1e-3
    checker = _canary_nash(workloads.References(data), tmp_path)
    assert checker.failed == 1
    assert not checker.correct
    assert checker.values[("cli.max_csv_change", "pass")] == [pytest.approx(1e-3)]

    estimates = data["estimates"]["canary-simulate-two-firm"]
    observed = {k: tuple(v) for k, v in estimates.items()}
    assert workloads.References(data).estimates("canary-simulate-two-firm", observed) == (0.0, 0.0)
    mean, se = estimates["principal"]
    estimates["principal"] = [mean + 10 * se, se]
    change, se_units = workloads.References(data).estimates("canary-simulate-two-firm", observed)
    assert change == pytest.approx(10 * se) and se_units == pytest.approx(10 / math.sqrt(2))


def test_correct_numeric_changes_pass_the_reference():
    data = json.loads((BENCH / "reference" / "seed_reference.json").read_text())
    refs = workloads.References(data)
    # stencil residuals amplify a one-ulp change of the solution to about 1e-12
    for op in ("verify-single-firm", "verify-nash-16001", "canary-verify-nash"):
        moved = {k: v + 1e-12 for k, v in data["residuals"][op].items()}
        change, ok = refs.residuals(op, moved)
        assert ok and change == pytest.approx(1e-12, rel=1e-3)
    moved = {k: v + 2e-6 for k, v in data["residuals"]["verify-two-firm"].items()}
    assert not refs.residuals("verify-two-firm", moved)[1]

    # independent draws differ by about sqrt(2) SE; 4 SE is within 3 SE of the difference
    estimates = data["estimates"]["canary-simulate-two-firm"]
    observed = {k: (mean + 4 * se, se) for k, (mean, se) in estimates.items()}
    assert refs.estimates("canary-simulate-two-firm", observed)[1] <= workloads.Z_MAX


def _canary_simulate_moved(tmp_path, shift_se):
    data = json.loads((BENCH / "reference" / "seed_reference.json").read_text())
    mean, se = data["estimates"]["canary-simulate-two-firm"]["principal"]
    data["estimates"]["canary-simulate-two-firm"]["principal"] = [mean + shift_se * se, se]
    ctx = workloads.Context(ROOT, tmp_path, workloads.References(data))
    name, _, config = next(c for c in inputs.CANARY if c[0] == "canary-simulate-two-firm")
    op = workloads.rerun_op(ctx, name, ctx.write_config(name, config), fixed_seed=True)
    workloads.run_op(ctx, None, "pass", op)
    return ctx.checker


def test_estimate_miss_is_statistical(tmp_path):
    # 6 SE of one estimate is 4.2 SE of the difference: listed, nothing fails
    checker = _canary_simulate_moved(tmp_path, 6.0)
    assert checker.failed == 0 and checker.correct
    assert [m["statistical"] for m in checker.misses] == [True]
    assert checker.values[("mc.statistical_misses", "pass")] == [1.0]


def test_estimate_miss_beyond_hard_limit_fails(tmp_path):
    # 10 SE of one estimate is 7.1 SE of the difference, past HARD_SE
    checker = _canary_simulate_moved(tmp_path, 10.0)
    assert checker.failed == 1 and not checker.correct
    assert [m["statistical"] for m in checker.misses] == [False]


def test_missing_reference_is_a_failure():
    change, ok = workloads.References().csv("no-such-op", ["1.0,2.0"])
    assert not ok and math.isinf(change)


def _traced_counts(tmp_path, tag):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "mc_wide", "--seed", "3",
         "--seconds", "1", "--trace", "1", "--out-dir", str(tmp_path / tag)],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(layers.UNITS)
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_exact_counts_repeat_across_traced_runs(tmp_path):
    first = _traced_counts(tmp_path, "a")
    second = _traced_counts(tmp_path, "b")
    assert first["mc.path_increments.calls"] > 0
    assert first["contract.hamiltonian_h.evals_per_call.dim4"] > 0
    assert first == second
