"""Write reference/seed_reference.json from the current sources.

Runs one solve/verify pass and the canary, capturing sampled CSV rows,
canary Monte Carlo estimates and residual maxima.  The stored file was made
at the seed commit of the benchmark; regenerate it only on purpose, since the
benchmark reports every change against it:

    PYTHONPATH=src:perfbench python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> None:
    scratch = Path(tempfile.mkdtemp(dir=HERE.parent))
    try:
        refs = workloads.References(capture=True)
        ctx = workloads.Context(HERE.parent, scratch, refs)
        ops = workloads.solve_verify(ctx, seed=0) + workloads.canary_ops(ctx)
        for op in ops:
            workloads.run_op(ctx, None, "reference", op)
        if ctx.checker.misses:
            raise SystemExit(f"reference run missed a check: {ctx.checker.misses}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = HERE / "reference" / "seed_reference.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(refs.data, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
