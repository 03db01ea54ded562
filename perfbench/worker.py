"""One benchmark run in a fresh process (started by run.py).

Set-up runs from ``--started`` (the monotonic time at which the parent
started this process) through the numpy and decarb imports, plus the
program's own load and ``validate_params`` of every config the run uses.
Writing those configs and building the operations is the benchmark's own
work and is not timed.  With ``--setup-only`` the worker prints
``SETUP <seconds>`` and exits.  Otherwise it runs whole passes until the
time is used, runs the canary, and writes its result as JSON to
``--result``.  Between passes it starts set-up-only copies of itself at even
steps through the run, so that set-up is sampled across the run's whole
time, as the passes are.

The workload's calibration kernel (``calibrate.py``) runs before a pass's
first operation, after each operation and around each set-up probe.  Each
operation and each probe is also reported at the reference speed: its time
times the kernel's reference time over the mean of the two kernel times
that bracket it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import decarb

import calibrate
import layers
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "seed_reference.json"
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 15
PROBE_TIMEOUT = 60.0


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "decarb": getattr(decarb, "__version__", "?"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PINS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(args, i: int, kernel: calibrate.Kernel) -> tuple[float, float]:
    """Start a set-up-only copy of this worker; return its set-up time and
    the mean kernel time around it."""
    scratch = args.scratch.with_name(f"{args.scratch.name}-probe{i}")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--root", str(args.root), "--scratch", str(scratch), "--setup-only"]
    before = kernel.seconds()
    out = subprocess.run(cmd + ["--started", repr(time.monotonic())], stdout=subprocess.PIPE,
                         text=True, timeout=PROBE_TIMEOUT, check=True)
    after = kernel.seconds()
    key, seconds = out.stdout.split()
    if key != "SETUP":
        raise RuntimeError(f"set-up probe printed {out.stdout!r}")
    return float(seconds), (before + after) / 2


def run_pass(ctx, ops, tracer, phase: str,
             kernel: calibrate.Kernel) -> list[tuple[float, float]]:
    """(seconds, mean kernel time around it) of each operation of one pass."""
    timed = []
    before = kernel.seconds()
    if tracer is not None:
        tracer.install()  # the kernel calls nothing the tracer wraps
    try:
        for op in ops:
            seconds = workloads.run_op(ctx, tracer, phase, op)
            after = kernel.seconds()
            timed.append((seconds, (before + after) / 2))
            before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    return timed


def pass_seconds(passes: list[list[tuple[float, float]]],
                 reference_s: float) -> tuple[float, float]:
    """Time of one pass, as measured and at the reference speed: the sum over
    its operations of each one's median across passes, which a burst of load
    on one operation does not move."""
    ops = list(zip(*passes))
    wall = sum(statistics.median(t for t, _ in op) for op in ops)
    ref = sum(statistics.median(t * reference_s / k for t, k in op) for op in ops)
    return wall, ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args(argv)
    imported = time.monotonic()

    args.scratch.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.root, args.scratch, workloads.References.load(REFERENCE))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.phase = "setup"
        tracer.install()
    ops = workloads.WORKLOADS[args.workload](ctx, args.seed)
    canary = workloads.canary_ops(ctx)
    t0 = time.perf_counter()
    ctx.load_configs()
    setup_s = imported - args.started + time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        shutil.rmtree(args.scratch, ignore_errors=True)
        print(f"SETUP {setup_s!r}")
        return 0

    # Whole passes until the next one would overrun the time; in a traced run
    # passes alternate untraced/traced, at least one of each.  A set-up probe
    # runs after the pass that crosses each of its marks; probes left over
    # when the passes end run then.
    untraced: list[list[tuple[float, float]]] = []
    traced: list[list[tuple[float, float]]] = []
    probe_marks = [args.seconds * (i + 0.5) / SETUP_PROBES for i in range(SETUP_PROBES)]
    probes: list[tuple[float, float]] = []
    kernel = calibrate.Kernel(workloads.KERNEL_PARTS[args.workload])
    kernel.seconds()  # warm-up
    elapsed = 0.0
    while True:
        trace_this = tracer is not None and len(traced) < len(untraced)
        t0 = time.perf_counter()
        if trace_this:
            traced.append(run_pass(ctx, ops, tracer, "pass", kernel))
        else:
            untraced.append(run_pass(ctx, ops, None,
                                     "untraced" if tracer is not None else "pass", kernel))
        pass_wall = time.perf_counter() - t0
        elapsed += pass_wall
        while len(probes) < SETUP_PROBES and elapsed >= probe_marks[len(probes)]:
            probes.append(probe_setup(args, len(probes), kernel))
        if tracer is not None and not traced:
            continue
        if elapsed + pass_wall > args.seconds:
            break
    probes += [probe_setup(args, i, kernel) for i in range(len(probes), SETUP_PROBES)]

    run_pass(ctx, canary, tracer, "canary", kernel)
    shutil.rmtree(args.scratch, ignore_errors=True)

    checker = ctx.checker
    wall_s, pass_ref_s = pass_seconds(untraced, kernel.reference_s)
    result = {
        "env": environment(args),
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "misses": checker.misses,
        "wall_s": wall_s,
        "pass_ref_s": pass_ref_s,
        "op_seconds": {"ops": [op[0] for op in ops], "untraced": untraced, "traced": traced},
        "passes": len(untraced),
        "setup_seconds": [setup_s] + [s for s, _ in probes],
        "setup_ref_seconds": [s * kernel.reference_s / k for s, k in probes],
        "traced_passes": len(traced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "s_to_se_1e-4": sum(checker.values.get(("mc.s_to_se_1e-4", "pass"), []))
                        / max(1, len(untraced if tracer is None else traced)),
    }
    if tracer is not None:
        overhead = pass_seconds(traced, kernel.reference_s)[0] - wall_s
        result["layers"] = layers.layer_metrics(tracer, checker, len(traced), overhead)
        result["ops"] = op_times(tracer, len(traced))
        spans_path = args.result.with_suffix(".spans.jsonl")
        tracer.dump(spans_path)
        result["spans"] = str(spans_path)
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return 0


def op_times(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Seconds per traced pass in ``cli.run`` for each CLI operation (``cli.<op>.s``)."""
    runs: dict[str, float] = {}
    for s in tracer.spans:
        if s.name == "cli.run" and s.phase == "pass":
            runs[s.op] = runs.get(s.op, 0.0) + s.duration
    return {f"cli.{op}.s": total / n_passes for op, total in runs.items()}


if __name__ == "__main__":
    sys.exit(main())
