"""Acceptance suite: one test per release criterion, each at its stated tolerance.

Each criterion emits a [PASS]/[FAIL] line, echoed in the terminal summary
after the session (and printed live under ``pytest -s``).  Monte Carlo
criteria use frozen seeds, so the whole suite is deterministic.  Expected
wall time is a few minutes; the per-criterion runtime bounds are asserted
where the criterion states one.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from decarb import (
    Kind,
    SimConfig,
    TimeGrid,
    best_response,
    certainty_surface,
    feedback_strategies,
    hjb_residual_nash,
    hjb_residual_principal,
    ode_residual,
    oracle_rates,
    rates_single,
    rates_two,
    rk4_backward,
    simulate_principal,
    solve_nash,
    solve_principal,
    sup_consistency,
    validate_params,
)
from decarb.cli import run as cli_run
from decarb.contract import effective_aversions, gradient_couplings
from decarb.mc import Deviation, nash_path_payoffs, paired_difference
from decarb.riccati import OdeTable
from conftest import (
    NASH_FIXTURE,
    SINGLE_FIRM_FIXTURE,
    TWO_FIRM_FIXTURE,
    acceptance_lines,
    draw_gradient,
    draw_principal_params,
)


def report(number: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number:2d}: {text}"
    acceptance_lines.append(line)
    print(line, file=sys.stdout, flush=True)


def test_criterion_01_rate_closed_forms_match_brute_force():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for kind in (Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED):
        for _ in range(100):
            p = draw_principal_params(rng, kind)
            v = draw_gradient(rng)
            z_hat, _ = oracle_rates(p, v)
            closed = (rates_single(p, v) if kind is Kind.SINGLE_FIRM
                      else rates_two(p, v)).as_array()
            worst = max(worst, float(np.max(np.abs(z_hat - closed))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(1, ok, f"closed-form rates vs brute-force maximizer, 100 draws/kind: "
                  f"worst gap {worst:.2e} (<=1e-6), {elapsed:.1f}s (<30s)")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_02_sup_consistency_and_sign_control():
    rng = np.random.default_rng(102)
    worst = 0.0
    worst_control = math.inf
    for i in range(100):
        kind = Kind.SINGLE_FIRM if i % 2 else Kind.TWO_FIRM_REGULATED
        p = draw_principal_params(rng, kind)
        v = draw_gradient(rng)
        worst = max(worst, sup_consistency(p, v))
        if kind is Kind.TWO_FIRM_REGULATED:
            # negative control: flip the sign of the effective-aversion term
            m1, m2 = gradient_couplings(p)
            av = effective_aversions(p)
            wrong = (m1 + 2.0 * av.eta_bar_2 * p.sigma1 ** 2,
                     m2 + 2.0 * av.eta_bar_1 * p.sigma2 ** 2)
            worst_control = min(worst_control, sup_consistency(p, v, m=wrong))
    ok = worst <= 1e-6 and worst_control > 1e-3
    report(2, ok, f"drift-maximum identity: worst gap {worst:.2e} (<=1e-6); "
                  f"flipped-sign control >= {worst_control:.2e} (>1e-3)")
    assert worst <= 1e-6
    assert worst_control > 1e-3


def test_criterion_03_integrator_order():
    # the compiled kernel every solve runs, on da/dt = -(1 + a^2), a(T) = 0
    tangent = OdeTable("tangent", ("w",), (), ("-(1.0 + w * w)",))

    def endpoint_error(n_nodes: int) -> float:
        traj = rk4_backward(tangent, (), np.array([0.0]), TimeGrid(0.5, n_nodes))
        return abs(traj[0, 0] - math.tan(0.5))

    err_1000 = endpoint_error(1001)
    # order measured on a coarse pair; at 1000 steps the error sits on the
    # rounding floor and halving shows nothing
    ratio = endpoint_error(11) / endpoint_error(21)
    ok = err_1000 <= 1e-9 and ratio >= 12.0
    report(3, ok, f"backward integrator on the tangent problem: error {err_1000:.2e} "
                  f"(<=1e-9) at 1000 steps; step-halving ratio {ratio:.1f} (>=12)")
    assert err_1000 <= 1e-9
    assert ratio >= 12.0


def test_criterion_04_principal_hjb_residuals():
    t0 = time.perf_counter()
    maxima = {}
    for name, fixture in (("two-firm", TWO_FIRM_FIXTURE), ("single-firm", SINGLE_FIRM_FIXTURE)):
        p = validate_params(fixture)
        rep = hjb_residual_principal(solve_principal(p), p)
        maxima[name] = rep.max_residual
    elapsed = time.perf_counter() - t0
    worst = max(maxima.values())
    ok = worst <= 1e-6 and elapsed < 5.0
    report(4, ok, f"principal PDE residuals: two-firm {maxima['two-firm']:.2e}, "
                  f"single-firm {maxima['single-firm']:.2e} (<=1e-6), {elapsed:.1f}s (<5s)")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_05_equilibrium_system_residuals():
    t0 = time.perf_counter()
    p = validate_params(NASH_FIXTURE)
    coeffs = solve_nash(p, n_nodes=16001)
    ode_max = ode_residual(coeffs, p)
    r1, r2 = hjb_residual_nash(coeffs, p)
    elapsed = time.perf_counter() - t0
    ok = ode_max <= 1e-6 and r1.max_residual <= 1e-6 and r2.max_residual <= 1e-6 \
        and elapsed < 5.0
    report(5, ok, f"equilibrium system: ODE residual {ode_max:.2e}, value-PDE "
                  f"residuals {r1.max_residual:.2e}/{r2.max_residual:.2e} (<=1e-6), "
                  f"{elapsed:.1f}s (<5s)")
    assert ode_max <= 1e-6
    assert r1.max_residual <= 1e-6 and r2.max_residual <= 1e-6
    assert elapsed < 5.0


def test_criterion_06_best_response_structure():
    p = validate_params(NASH_FIXTURE)
    runs = [best_response(p, 1, a2) for a2 in (0.0, 0.5, 1.0)]
    quad_gap = max(float(np.max(np.abs(runs[0].values[:, :3] - r.values[:, :3])))
                   for r in runs[1:])
    d_gap = float(np.max(np.abs(runs[0].column("D") - runs[2].column("D"))))
    ok = quad_gap == 0.0 and d_gap > 1e-3
    report(6, ok, f"opponent flow leaves A,B,C untouched (gap {quad_gap:.1e}, exact) "
                  f"and moves D by {d_gap:.2e} (>1e-3)")
    assert quad_gap == 0.0
    assert d_gap > 1e-3


def test_criterion_07_principal_value_matching():
    t0 = time.perf_counter()
    p = validate_params(TWO_FIRM_FIXTURE)
    v = solve_principal(p)
    cfg = SimConfig(n_paths=100_000, dt=1e-3, seed=42, x0=(0.0, 0.0), y0=0.0)
    est, _ = simulate_principal(p, v, cfg)
    target = -math.exp(-p.eta_p * v.value(0.0, (0.0, 0.0)))
    elapsed = time.perf_counter() - t0
    dev = abs(est.mean - target) / est.std_err
    ok = dev <= 3.0 and elapsed < 120.0
    report(7, ok, f"principal utility {est.mean:.6f} vs closed form {target:.6f}: "
                  f"{dev:.2f} standard errors (<=3), {elapsed:.0f}s (<2min)")
    assert dev <= 3.0
    assert elapsed < 120.0


def test_criterion_08_agent_indifference():
    t0 = time.perf_counter()
    p = validate_params(TWO_FIRM_FIXTURE)
    v = solve_principal(p)
    devs = []
    for seed, y0 in ((42, 0.0), (43, 0.5)):
        cfg = SimConfig(n_paths=100_000, dt=1e-3, seed=seed, y0=y0)
        _, agents = simulate_principal(p, v, cfg)
        for agent in agents:
            target = -math.exp(-1.0 * y0)
            devs.append(abs(agent.mean - target) / agent.std_err)
    elapsed = time.perf_counter() - t0
    worst = max(devs)
    ok = worst <= 3.0 and elapsed < 120.0
    report(8, ok, f"agent certainty equivalents equal y0 in {{0, 0.5}}: worst "
                  f"{worst:.2f} standard errors (<=3), {elapsed:.0f}s (<2min)")
    assert worst <= 3.0
    assert elapsed < 120.0


def test_criterion_09_equilibrium_value_and_deviations():
    t0 = time.perf_counter()
    p = validate_params(NASH_FIXTURE)
    coeffs = solve_nash(p, n_nodes=4001)
    strategies = feedback_strategies(coeffs, p)
    cfg = SimConfig(n_paths=40_000, dt=1e-3, seed=17, x0=(0.0, 0.0))

    z1, z2 = nash_path_payoffs(p, strategies, cfg)
    utilities = (-np.exp(-p.eta1 * z1), -np.exp(-p.eta2 * z2))
    value_devs = []
    for firm, u in zip((1, 2), utilities):
        eta = p.eta1 if firm == 1 else p.eta2
        target = -math.exp(eta * certainty_surface(coeffs, firm, 0.0, 0.0, 0.0))
        mean = float(np.mean(0.5 * (u[0::2] + u[1::2])))
        se = float(np.std(0.5 * (u[0::2] + u[1::2]), ddof=1) / math.sqrt(u.size // 2))
        value_devs.append(abs(mean - target) / se)

    improvements = []
    for firm in (1, 2):
        for scale in (0.9, 1.1):
            zd = nash_path_payoffs(p, strategies, cfg, deviation=Deviation(firm, scale=scale))
            eta = p.eta1 if firm == 1 else p.eta2
            u_dev = -np.exp(-eta * zd[firm - 1])
            mean_d, se_d = paired_difference(u_dev, utilities[firm - 1], cfg.antithetic)
            improvements.append(mean_d / se_d)
    elapsed = time.perf_counter() - t0
    ok = max(value_devs) <= 3.0 and max(improvements) <= 2.0 and elapsed < 180.0
    report(9, ok, f"equilibrium utilities within {max(value_devs):.2f} standard errors "
                  f"(<=3); best deviation gain {max(improvements):+.1f} standard errors "
                  f"(<=+2), {elapsed:.0f}s (<3min)")
    assert max(value_devs) <= 3.0
    assert max(improvements) <= 2.0
    assert elapsed < 180.0


def test_criterion_10_deterministic_outputs(tmp_path):
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "model": dict(NASH_FIXTURE),
        "numerics": {"n_nodes": 1001, "n_paths": 2000, "dt": 0.002, "seed": 5},
    }), encoding="utf-8")
    identical = True
    for scenario, cfg, files in (
        ("nash", str(config_dir / "fig2_nash.json"), ["nash_coeffs.csv", "summary.json"]),
        ("verify", str(config_dir / "two_firm.json"), ["residuals.json", "summary.json"]),
        ("simulate", str(sim_cfg), ["summary.json"]),
    ):
        out1 = tmp_path / f"{scenario}_1"
        out2 = tmp_path / f"{scenario}_2"
        assert cli_run([scenario, "--config", cfg, "--out", str(out1)]) == 0
        if scenario == "simulate":
            # another seed in between, so the rerun draws its normals afresh
            assert cli_run([scenario, "--config", cfg, "--seed", "6",
                            "--out", str(tmp_path / "other_seed")]) == 0
        assert cli_run([scenario, "--config", cfg, "--out", str(out2)]) == 0
        for name in files:
            identical &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # chunking (the engine's unit of parallel work) cannot change estimates
    p = validate_params(TWO_FIRM_FIXTURE)
    v = solve_principal(p, 201)
    cfg_small = SimConfig(n_paths=2000, dt=4e-3, seed=6)
    a, _ = simulate_principal(p, v, cfg_small, chunk_size=64)
    b, _ = simulate_principal(p, v, cfg_small, chunk_size=1024)
    identical &= a == b
    report(10, identical, "byte-identical reruns for CSV/JSON outputs and "
                          "chunking-independent estimates")
    assert identical
