"""Benchmark of decarb's verification spine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each run starts a fresh worker process (single-threaded BLAS) so that set-up
time and peak memory belong to that run.  The worker runs whole passes of the
workload for the given seconds and, between passes, times the set-up of a
few set-up-only copies of itself.  Times in the end-to-end metrics are at
the reference speed of ``calibrate.py``, which cancels the drift of a
shared host's speed; the lines above the result also give them as
measured.  The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve_verify", "mc_long", "mc_wide")
WORKER_TIMEOUT = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles the same way
    env["PYTHONHASHSEED"] = "0"
    for pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[pin] = "1"
    return env


class WorkerFailed(RuntimeError):
    pass


def run_workload(args, out_dir: Path) -> dict:
    """Run one workload in a fresh worker process and return its result."""
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = out_dir / f"{stem}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--scratch", str(out_dir / f"{stem}-work"),
           "--result", str(result_path)]
    try:
        proc = subprocess.run(cmd + ["--started", repr(time.monotonic())], env=child_env(),
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker timed out") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def report(args, r: dict) -> dict:
    """Print the human-readable lines; return the contract JSON object."""
    env = r["env"]
    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{env['cores']} cores, {env['cpu']}, Python {env['python']}, numpy {env['numpy']}, "
          f"BLAS threads {env['blas_threads']}")
    passes = r["traced_passes"] if args.trace else r["passes"]
    e2e = {
        "pass_ref_s": (r["pass_ref_s"], "s"),
        "setup_s": (statistics.median(r["setup_ref_seconds"]), "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }
    failed_frac = r["failed"] / r["attempted"]
    print(f"pass_ref_s    {e2e['pass_ref_s'][0]:.4f} s   (per-operation medians over "
          f"{r['passes']} untraced passes, at the reference speed)")
    print(f"wall_s        {r['wall_s']:.4f} s   (the same, as measured)")
    print(f"setup_s       {e2e['setup_s'][0]:.4f} s   (median of {len(r['setup_ref_seconds'])} "
          f"set-up probes at the reference speed; "
          f"{statistics.median(r['setup_seconds']):.4f} s as measured, with the worker's own)")
    print(f"peak_rss_mb   {e2e['peak_rss_mb'][0]:.1f} MB")
    print(f"failed_frac   {failed_frac:.4f} 1   ({r['failed']} of {r['attempted']} operations)")
    if args.workload.startswith("mc_"):
        print(f"s_to_se_1e-4  {r['s_to_se_1e-4']:.4f} s   (mean over {passes} passes)")
    n_statistical = sum(m["statistical"] for m in r["misses"])
    print(f"statistical   {n_statistical} misses within the hard limit (listed below, not failed)")
    for miss in r["misses"]:
        kind = "statistical miss (not failed)" if miss["statistical"] else "FAILED"
        print(f"{kind}: {miss['op']} ({miss['phase']}): {miss['reason']}")
    if args.trace:
        print(f"trace: {passes} traced passes, spans in {r['spans']}")
        for name, value in sorted(r["ops"].items()):
            print(f"  {name:48s} {value:.6g} s")
        for name, value in r["layers"].items():
            print(f"  {name:48s} {value:.6g} {layers.UNITS[name]}")
        metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in r["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".bench_out",
                        help="where results and spans are written")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "decarb" / "__init__.py").is_file():
        print("error: no decarb sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    args.out_dir.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            result = run_workload(args, args.out_dir)
        except WorkerFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(args, result), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
