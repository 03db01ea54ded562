"""In-memory tracing of decarb's public functions, wrapped from outside.

A :class:`Tracer` replaces selected module attributes with thin wrappers.
Each wrapper is installed at the attribute its caller looks up (for example
``decarb.nash.rk4_backward`` as well as ``decarb.riccati.rk4_backward``), so
calls made inside the program are seen without touching its source.

Two kinds of wrapper exist:

* a *span* records (name, start, end, parent, op id, phase, attrs) for
  coarse calls such as solves, residual checks and path engines;
* a *counter* only counts calls (and optionally their total time) into the
  innermost open span, for functions called per evaluation or per step.

Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    sid: int
    name: str
    parent: int
    op: str
    phase: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    counts: dict = field(default_factory=lambda: defaultdict(int))
    times: dict = field(default_factory=lambda: defaultdict(float))

    @property
    def duration(self) -> float:
        return self.end - self.start


def _path_steps(a: dict) -> dict:
    cfg = a["cfg"]
    n_steps = int(round(a["params"].horizon / cfg.dt))
    return {"paths": cfg.n_paths, "steps": n_steps, "path_steps": cfg.n_paths * n_steps}


def _size(a: dict) -> dict:
    import numpy as np
    return {"values": int(np.asarray(a["trajectory"]).size)}


# (span name, attribute paths looked up by callers, attrs extractor or None)
SPANS: tuple[tuple[str, tuple[str, ...], Callable[[dict], dict] | None], ...] = (
    ("cli.run", ("decarb.cli.run",), lambda a: {"scenario": (a["argv"] or ["?"])[0]}),
    ("cli.emit_csv", ("decarb.cli.emit_csv",), _size),
    ("model.validate_params", ("decarb.model.validate_params", "decarb.cli.validate_params",
                               "decarb.validate_params"), None),
    ("riccati.solve_principal", ("decarb.riccati.solve_principal",),
     lambda a: {"steps": a["n_nodes"] - 1}),
    ("riccati.rk4_backward", ("decarb.riccati.rk4_backward", "decarb.nash.rk4_backward"),
     lambda a: {"steps": a["grid"].n_nodes - 1}),
    ("nash.solve_nash", ("decarb.nash.solve_nash",), lambda a: {"steps": a["n_nodes"] - 1}),
    ("nash.best_response", ("decarb.nash.best_response",), None),
    ("nash.ode_residual", ("decarb.nash.ode_residual",), None),
    ("verify.hjb_residual_principal", ("decarb.verify.hjb_residual_principal",), None),
    ("verify.hjb_residual_nash", ("decarb.verify.hjb_residual_nash",), None),
    ("verify.sup_consistency", ("decarb.verify.sup_consistency",), None),
    ("contract.oracle_rates", ("decarb.contract.oracle_rates", "decarb.verify.oracle_rates"),
     lambda a: {"dim": 2 if a["params"].kind.value == "single_firm" else 4}),
    ("mc.principal_path_payoffs", ("decarb.mc.principal_path_payoffs",), _path_steps),
    ("mc.nash_path_payoffs", ("decarb.mc.nash_path_payoffs",), _path_steps),
    ("mc.principal_estimates_from_payoffs", ("decarb.mc.principal_estimates_from_payoffs",), None),
    ("mc.nash_estimates_from_payoffs", ("decarb.mc.nash_estimates_from_payoffs",), None),
)

# (counter name, attribute paths, whether to accumulate time)
COUNTERS: tuple[tuple[str, tuple[str, ...], bool], ...] = (
    ("contract.hamiltonian_h", ("decarb.contract.hamiltonian_h",), False),
    ("model.revenue_f", ("decarb.model.revenue_f",), False),
    ("model.social_cost_g", ("decarb.model.social_cost_g",), False),
    ("nash.payoff_rate", ("decarb.mc.payoff_rate",), False),
    ("mc.path_increments", ("decarb.mc.path_increments",), True),
)


def _resolve(path: str) -> tuple[object, str]:
    module, attr = path.rsplit(".", 1)
    return importlib.import_module(module), attr


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # the root span collects counts made outside any traced span
        self._root = Span(0, "root", -1, "", "", time.perf_counter())
        self._stack: list[Span] = [self._root]
        self.op = ""
        self.phase = ""
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        for name, paths, extract in SPANS:
            for path in paths:
                module, attr = _resolve(path)
                fn = getattr(module, attr)
                self._originals[path] = fn
                self._wrappers[path] = self._span_wrapper(name, fn, extract)
        for name, paths, timed in COUNTERS:
            for path in paths:
                module, attr = _resolve(path)
                fn = getattr(module, attr)
                self._originals[path] = fn
                self._wrappers[path] = self._counter_wrapper(name, fn, timed)

    def install(self) -> None:
        for path, wrapper in self._wrappers.items():
            module, attr = _resolve(path)
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for path, fn in self._originals.items():
            module, attr = _resolve(path)
            setattr(module, attr, fn)

    def _span_wrapper(self, name: str, fn, extract):
        signature = inspect.signature(fn)
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            attrs = {}
            if extract is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = extract(bound.arguments)
            span = Span(len(spans) + 1, name, stack[-1].sid, self.op, self.phase,
                        time.perf_counter(), attrs=attrs)
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_wrapper(self, name: str, fn, timed: bool):
        stack = self._stack
        if timed:
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    top = stack[-1]
                    top.times[name] += time.perf_counter() - t0
                    top.counts[name] += 1
        else:
            def wrapper(*args, **kwargs):
                stack[-1].counts[name] += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by its direct children."""
        out = {s.sid: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent in out:
                out[s.parent] -= s.duration
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent, "op": s.op,
                    "phase": s.phase, "start": s.start, "end": s.end, "attrs": s.attrs,
                    "counts": dict(s.counts), "times": dict(s.times),
                }, sort_keys=True) + "\n")
