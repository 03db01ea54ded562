"""Monte Carlo simulation of the state, payment and payoff dynamics.

Every path owns one column of an RNG stream, so results are bit-identical for
a fixed configuration no matter how paths are chunked or distributed.
Substreams 64g .. 64g+63 form group g, which draws from its own ``SFC64``
generator seeded by ``SeedSequence(seed, spawn_key=(g,))`` (numpy's spawn-key
method for independent streams), all its normals in one call, step-major:
substream 64g + j owns column j of every step.  With antithetic sampling (the
default) even-numbered paths consume their substream's draws and odd-numbered
paths the negated draws; statistics then treat pair averages as the
independent samples.

The draws of a chunk of up to 4096 substreams are laid out step-major, shape
(n_steps, 2, count), so each step reads one contiguous (2, count) slab; each
group's columns are copied in, and a chunk that does not start or end on a
multiple of 64 draws its first and last groups whole and keeps the columns it
owns.  Each thread keeps the last chunk it drew in a one-entry memo, read-only
and keyed by (seed, first substream, count, n_steps, refinement), and hands it
out again for the same key: an equilibrium run and its deviation runs on
common random numbers draw once.  The memo retains ``n_steps * 2 * 8`` bytes
per substream (64 MiB for 4096 substreams at 1000 steps) until a different
chunk is drawn; it is emptied before that chunk is allocated, and the engine's
reference ends with the march of its chunk, so no two chunks are ever alive
together.

Both simulators run on one path engine, which owns chunking, antithetic
mirroring, path order, stepping, the accumulation and the non-finite
checks; each model supplies only a small step (its rates or controls, the
drift they induce, its flows).  Two stepping schemes are available.
``scheme="pc"`` (default) is an Euler-Maruyama step with a drift
predictor-corrector and trapezoidal quadrature of all running flows; the
state noise is additive, so this is weak order 2 and its bias is negligible
against the Monte Carlo error at the default resolution.  A pc step makes 2
evaluations, one of them with flows: the end-of-step one is carried over as
the next step's start.  ``scheme="euler"`` is the classic left-point scheme
(weak order 1); under it the agents' utility estimates are exactly unbiased
(the payment compensators telescope against the Gaussian increments step by
step), which the indifference tests exploit.

The step contract.  ``make_step(nodes)`` returns a step with ``sigma`` (the
state volatilities as a (2, 1) column), ``acc0`` (initial accumulator
values), ``n_checked`` (how many leading accumulators are checked for
finiteness with the state), ``n_payoffs`` (how many payoff arrays it
returns), ``odd`` (whether its drift is odd and its flows even under
``S -> -S``; see the half-width march below) and four members that hold
no per-chunk state.  ``slots(drift, flow)`` takes the engine's two slots, for
the start and the end of a step, of ``drift`` (shape (2, 2, rows)) and
``flow`` (one row per accumulator), and returns per-slot views, with the
rates next to them.  ``evaluate(k, S, slot, scratch=None)`` fills one slot
in place from the state S of shape (2, rows) at time node k: the rates and
the drift, and the flows too when it is given ``scratch`` (the pc predictor
gives none: it reads only the drift).
``payment_noise(slot, dW, scratch)``, or None, adds the payment noise to
the slot's flows.  ``payoffs(acc)`` returns the per-path payoffs.  The
engine accumulates: it multiplies the slot's flows by dt (under pc, the sum
of both slots' flows by ``0.5*dt``), calls ``payment_noise`` and adds them
to the stacked accumulators.  ``scratch`` is a pair of (2, rows) engine buffers
whose contents are spent at that point of the step (the state noise and a
state no longer needed), and ``evaluate`` uses its own slot's drift or flow
before filling it, so the working set stays small enough for the processor
caches at a full chunk.  Per-firm rows are stacked as (2, rows) arrays ((1,
rows) for the single agent) and per-firm constants as (2, 1) columns, so
one ufunc call serves both firms.  One call marches a chunk: it allocates
every buffer of the chunk as a local (the state, the next state, the
increments, the noise, the accumulators, the slots), marches with ``out=``
and swaps the current and next buffers instead of binding new arrays, so a
step allocates nothing of path length and no buffer outlives its chunk.
The model algebra stays in :mod:`decarb.contract`, :mod:`decarb.model` and
:mod:`decarb.nash`, whose functions write into ``out=`` buffers.

What a step still calls: the views it reads are made once per chunk, and
the rates call the unchecked closed form that the public rate functions
share, on factors bound once per run.  Three boundaries stay calls through
module attributes, so a wrapper on one sees every call (``tests/test_mc.py``
counts them): :func:`path_increments` once per group of 64 substreams that a
drawn chunk touches, and per flow evaluation ``model.revenue_f`` and
``model.social_cost_g`` (principal) or this module's ``payoff_rate`` (the
game).

Why the bits do not depend on this layout: an elementwise ufunc computes
each element with the same IEEE operation whether it allocates its result
or writes into a buffer, and whether an operand is a row of its own or a
row of a stacked array broadcast against a column.  Every expression keeps
its left-to-right order (``0.5*gamma1*z11*z11`` is ``((0.5*gamma1)*z11)*z11``),
so the in-place step makes the same operations on the same operands as the
plain per-row expressions would.  Two steps differ from those expressions
and keep the bits.  The pc drift average and trapezoid flow are a sum times
``0.5*dt``, not half the sum times dt: halving is exact, so both round the
same real product, unless ``0.5*s`` would be subnormal (``|s| < 2**-1021``).
Without payment noise (the game) the state noise is made on the drawn half,
``(sqdt*inc)*sigma``, and negated into the mirror, as ``(-d)*sigma`` is
``-(d*sigma)`` exactly.  ``tests/test_mc.py`` pins the SHA-256 of every
payoff array over the engine's options.

The half-width march.  Under antithetic sampling from ``x0 = 0`` with an odd
step, each mirror is its drawn path negated with the same payoffs, so the
march holds only the drawn rows and writes each payoff into both slots of
its pair.  The game's step is odd when every interpolated intercept ``k0``
is zero and a deviation, if any, has no shift; the principal's never is, as
B(t) is not 0.  The bits are those of a full march, by induction over the
steps.  ``k0`` is exactly zero, so an effort ``-gamma*(kx*x + ky*y + k0)``,
scaled by a deviation, is the drawn one negated: negation is exact, and
round-to-nearest rounds a sum or product of negated operands to the negated
result.  So are ``drift*dt`` and the next state ``S + drift*dt + noise``,
whose noise is negated too.  The flows are then equal, as
``(p*(-x))*(-x)``, ``(c*(-x))*(-y)`` and ``a*a`` (of the negated effort)
round the same products as ``(p*x)*x``, ``(c*x)*y`` and the drawn ``a*a``.
The one inexact negation is a sum that cancels to zero, which is +0 on both
paths, so the mirror may hold +0 where the negated path holds -0.  A zero's
sign changes no nonzero result of an addition or multiplication, only the
sign of a zero one, and the accumulators start at +0, which stays +0 when a
zero of either sign is added: zero signs cannot reach a payoff.  A path and
its mirror turn non-finite at the same step (inf negates to -inf, NaN stays
NaN), so the report names the drawn path 2j, the lower index, as a full
march would.

The non-finite checks.  A march checks the state and the checked
accumulators after every ``_CHECK``-th step and after its last, not after
every step.  Each is updated by adding to itself (``S + drift*dt + noise``,
``acc + flow``), and a non-finite value plus anything is non-finite, so a
path that turns non-finite stays so and a block's check sees every failure
in it.  A failed check re-marches the chunk from step 0 up to the checked
step, checking every step; the same operations on the same draws fail at
the same step, which names the earliest step and the lowest canonical
index failing at it, as a check after every step would.

:class:`SimConfig` and :class:`Deviation` check their fields at construction;
what needs the model too (``dt`` dividing the horizon into steps that can be
held, one ``y0`` per agent) raises :class:`~decarb.errors.ConfigMismatch`
naming ``dt`` or ``y0``.

The simulators verify solved value functions against the dynamics they price:

* :func:`simulate_principal` evolves the state under the optimal incentive
  rates, accumulates the payment and social-cost flows, and estimates the
  principal's and agents' expected CARA utilities.  The principal's estimate
  converges to ``-exp(-eta_p*(v(0,x0) - sum(y0)))`` and each agent's to
  ``-exp(-eta_i*y0_i)`` (the contract leaves agents indifferent to the rates).
* :func:`simulate_nash` evolves both firms' states under feedback strategies
  (optionally with one firm deviating) and estimates each firm's utility over
  its accumulated payoff flow; in equilibrium the estimate converges to
  ``-exp(eta_i*W_i(0, x0, y0))``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import contract, model
from .errors import ConfigMismatch, NonFinitePath, OutOfRange, flag, holding, integer, real, reals
from .model import Kind, ModelParams
from .nash import FeedbackStrategy, payoff_rate
from .riccati import QuadraticValueFn

_CHUNK = 4096
_CHECK = 32  # steps between finiteness checks of a march
_GROUP = 64  # substreams drawn together, one column each, from one generator
_SCHEMES = ("pc", "euler")
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MAX_COUNT = int(np.iinfo(np.intp).max)  # the largest array size numpy can index


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings shared by all models.

    ``x0`` is the 2-dimensional initial state; ``y0`` the initial payment
    level per agent (a scalar applies to every agent; ignored by the Nash
    game).  ``n_paths`` counts simulated paths, antithetic mirrors included.
    Construction checks every field, raising :class:`OutOfRange` naming it,
    and stores each as a plain int, float, bool or tuple of floats.
    """

    n_paths: int = 100_000
    dt: float = 1e-3
    seed: int = 0
    x0: tuple[float, float] = (0.0, 0.0)
    y0: float | tuple[float, ...] = 0.0
    antithetic: bool = True

    def __post_init__(self):
        self.__dict__.update(  # past the frozen __setattr__, in the CLI's historic check order
            dt=real("dt", self.dt, positive=True),
            y0=(reals("y0", self.y0) if isinstance(self.y0, (list, tuple, np.ndarray))
                else real("y0", self.y0)),
            n_paths=integer("n_paths", self.n_paths, 2, _MAX_COUNT),
            seed=integer("seed", self.seed),
            x0=reals("x0", self.x0, 2),
            antithetic=flag("antithetic", self.antithetic))
        if self.antithetic and self.n_paths % 2:
            raise OutOfRange("n_paths", "antithetic sampling needs an even n_paths")


@dataclass(frozen=True)
class UtilityEstimate:
    label: str
    mean: float
    std_err: float
    n_paths: int
    seed: int
    dt: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Deviation:
    """Unilateral strategy perturbation: a -> scale*a + shift for one firm;
    construction checks that ``firm`` is 1 or 2 and ``scale`` and ``shift`` finite."""

    firm: int = 1
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        integer("firm", self.firm, 1, 2)
        real("scale", self.scale)
        real("shift", self.shift)

    def apply(self, a: np.ndarray) -> None:
        """Perturb the deviating firm's row of the stacked efforts ``a`` in place."""
        row = a[self.firm - 1]
        np.multiply(self.scale, row, out=row)
        np.add(row, self.shift, out=row)


def _step_times(horizon: float, dt: float) -> np.ndarray:
    """The time nodes 0, dt, ..., horizon of a run.  A ``dt`` that does not
    divide the horizon, or that makes more steps than can be held, raises
    :class:`ConfigMismatch` naming ``dt``."""
    try:
        n = round(horizon / dt)  # OverflowError once the ratio overflows to inf
        if n >= 1 and abs(horizon - n * dt) <= 1e-9:
            return np.arange(n + 1) * dt
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ConfigMismatch(f"dt {dt} makes more steps over horizon {horizon} than can be held: {exc}",
                             "dt") from exc
    raise ConfigMismatch(f"horizon {horizon} is not an integer multiple of dt {dt}", "dt")


_local = threading.local()


def path_increments(seed: int, group: int, n_draws: int, out: np.ndarray | None = None) -> np.ndarray:
    """Standard-normal draws (n_draws, 2, 64) of one group of 64 substreams.

    Group g is substreams 64g .. 64g+63, and substream 64g + j owns column j.
    Its generator is ``SFC64`` seeded by ``SeedSequence(seed, spawn_key=(g,))``
    with both taken modulo 2**64, so any group's draws are well defined in
    isolation.  ``out``, a C-contiguous float array of shape (n_draws, 2, 64),
    receives the draws in place.
    """
    keyed = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=(int(group) & _MASK64,))
    return np.random.Generator(np.random.SFC64(keyed)).standard_normal((n_draws, 2, _GROUP), out=out)


def _stats(utilities: np.ndarray, antithetic: bool) -> tuple[float, float]:
    samples = 0.5 * (utilities[0::2] + utilities[1::2]) if antithetic else utilities
    mean = float(np.mean(samples))
    if samples.size < 2:
        return mean, 0.0
    return mean, float(np.std(samples, ddof=1) / math.sqrt(samples.size))


def _estimates(cfg: SimConfig, labels: Sequence[str], etas: Sequence[float],
               payoffs: Sequence[np.ndarray]) -> tuple[UtilityEstimate, ...]:
    """Utility estimates -exp(-eta*Z) per agent from per-path payoffs in canonical order."""
    return tuple(UtilityEstimate(label, *_stats(-np.exp(-eta * z), cfg.antithetic),
                                 cfg.n_paths, cfg.seed, cfg.dt)
                 for label, eta, z in zip(labels, etas, payoffs))


def _agent_y0(params: ModelParams, cfg: SimConfig) -> tuple[float, ...]:
    n_agents = 1 if params.kind is Kind.SINGLE_FIRM else 2
    y0 = cfg.y0 if isinstance(cfg.y0, tuple) else (cfg.y0,) * n_agents
    if len(y0) != n_agents:
        raise ConfigMismatch(f"y0 must have {n_agents} entries for {params.kind.value}, got {len(y0)}",
                             "y0")
    return y0


def _interp_coeffs(v: QuadraticValueFn, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A(t) as the transposed view the gradient multiplies, and B(t) as (2, 1)
    columns, at the times ``ts``."""
    a11, a12, a22, b1, b2 = (np.interp(ts, v.grid.nodes, c) for c in v.columns[:5])
    A = np.stack([a11, a12, a12, a22], axis=-1).reshape(-1, 2, 2)
    return A.transpose(0, 2, 1), np.array([b1, b2]).T[:, :, None]


def _draw_chunk(seed: int, start: int, count: int, n_steps: int, refinement: int) -> np.ndarray:
    """Per-step normals (n_steps, 2, count) for substreams start..start+count-1,
    read-only and memoized per thread (see the module docstring).

    Each group of 64 substreams the chunk touches is drawn step-major into one
    slab, whose columns are copied into place; the first and last groups are
    clipped to the chunk.

    ``refinement`` draws that many sub-normals per step and aggregates them,
    which keeps the underlying Brownian path fixed across a ladder of step
    sizes with constant n_steps*refinement, for weak-convergence studies.
    """
    key = (seed, start, count, n_steps, refinement)
    memo = getattr(_local, "chunk", None)
    if memo is not None and memo[0] == key:
        return memo[1]
    _local.chunk = memo = None  # free the old chunk before allocating this one
    inc = np.empty((n_steps, 2, count))
    slab = np.empty((n_steps * refinement, 2, _GROUP))
    stop = start + count
    for group in range(start // _GROUP, (stop - 1) // _GROUP + 1):
        first = group * _GROUP
        lo, hi = max(start, first), min(stop, first + _GROUP)
        path_increments(seed, group, slab.shape[0], out=slab)
        cols, into = slab[:, :, lo - first:hi - first], inc[:, :, lo - start:hi - start]
        if refinement == 1:
            into[...] = cols
        else:
            np.divide(cols.reshape(n_steps, refinement, 2, hi - lo).sum(axis=1), math.sqrt(refinement),
                      out=into)
    inc.flags.writeable = False
    _local.chunk = (key, inc)
    return inc


def _advance(S: np.ndarray, drift: np.ndarray, dt: float, noise: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = S + drift*dt + noise, evaluated left to right."""
    np.multiply(drift, dt, out=out)
    np.add(S, out, out=out)
    return np.add(out, noise, out=out)


def _first_non_finite(S: np.ndarray, checked: np.ndarray, start: int, m: int, antithetic: bool) -> int:
    """Lowest canonical index of a row with a non-finite value in ``S`` or ``checked``."""
    finite = np.isfinite(S).all(axis=0)
    for a in checked:
        finite &= np.isfinite(a)
    local = np.flatnonzero(~finite)
    # under antithetic sampling row j < m is path 2*(start+j), row m+j its
    # mirror; a half-width march has only the former, each failing with its mirror
    return int(np.min(2 * (start + local % m) + local // m if antithetic else start + local))


def _march(step, inc: np.ndarray, cfg: SimConfig, pc: bool, n_steps: int, start: int,
           outs: Sequence[np.ndarray], every: int = _CHECK) -> tuple[int, int] | None:
    """March one chunk of paths, drawn as ``inc``, through ``n_steps`` steps and
    write their payoffs into ``outs``; return (steps done, canonical index) of
    the earliest non-finite value instead, if any.

    Finiteness is checked after every ``every``-th step and after the last.  A
    failed check re-marches the chunk up to that step checking every step,
    which names the step and the path exactly (see the module docstring).
    Every buffer is a local, so all of them are freed before the next chunk
    is drawn.
    """
    m = inc.shape[2]
    pair = 2 if cfg.antithetic else 1  # paths per substream
    # an odd step from the origin makes each mirror its drawn path negated,
    # with the same payoffs, so only the drawn half is marched
    width = 1 if step.odd and not any(cfg.x0) else pair
    rows = width * m
    dt, half_dt, sqdt = cfg.dt, 0.5 * cfg.dt, math.sqrt(cfg.dt)
    sigma, payment_noise = step.sigma, step.payment_noise
    S, S_next, dW, noise = np.empty((4, 2, rows))
    # the game's noise is made on the drawn half and negated into the mirror,
    # as (-d)*sigma == -(d*sigma); the principal's payment noise reads dW itself
    halved = noise if payment_noise is None else dW
    drawn, mirrored = halved[:, :m], halved[:, m:]
    S[...] = np.array(cfg.x0)[:, None]
    acc = np.empty((len(step.acc0), rows))
    checked = acc[:step.n_checked]
    acc[...] = np.array(step.acc0)[:, None]
    finite = np.empty((2, rows), dtype=bool)
    finite_checked = finite[:step.n_checked]
    # two slots, for the start and the end of a step; one flow row per accumulator
    drift, flow = np.empty((2, 2, rows)), np.empty((2, *acc.shape))
    slots = step.slots(drift, flow)
    drift, flow = tuple(drift), tuple(flow)
    cur, nxt = 0, 1
    for k in range(n_steps):
        if k == 0 or not pc:
            # before the draw, the noise and the next state are free scratch
            step.evaluate(k, S, slots[cur], (noise, S_next))
        np.multiply(sqdt, inc[k], out=drawn)
        if payment_noise is None:
            np.multiply(drawn, sigma, out=drawn)
        if width == 2:
            np.negative(drawn, out=mirrored)
        if payment_noise is not None:
            np.multiply(dW, sigma, out=noise)
        if pc:
            # the predictor's state and drift are consumed before the
            # corrector's overwrite them, and only its drift is read
            step.evaluate(k + 1, _advance(S, drift[cur], dt, noise, S_next), slots[nxt])
            # the mean drift times dt, as the sum times 0.5*dt
            d_sum = np.add(drift[cur], drift[nxt], out=drift[nxt])
            _advance(S, d_sum, half_dt, noise, S_next)
            # the state noise and the old state are spent: they are scratch
            step.evaluate(k + 1, S_next, slots[nxt], (noise, S))
            # trapezoid: the start flow slot becomes the step's mean flow times dt
            np.add(flow[cur], flow[nxt], out=flow[cur])
            np.multiply(flow[cur], half_dt, out=flow[cur])
        else:
            _advance(S, drift[cur], dt, noise, S_next)
            np.multiply(flow[cur], dt, out=flow[cur])
        if payment_noise is not None:
            payment_noise(slots[cur], dW, (noise, S))
        np.add(acc, flow[cur], out=acc)
        if pc:
            cur, nxt = nxt, cur
        S, S_next = S_next, S
        if (k + 1) % every and k + 1 < n_steps:
            continue
        if not (np.logical_and.reduce(np.isfinite(S, out=finite), axis=None)
                and np.logical_and.reduce(np.isfinite(checked, out=finite_checked), axis=None)):
            if every > 1:
                return _march(step, inc, cfg, pc, k + 1, start, (), every=1)
            return k + 1, _first_non_finite(S, checked, start, m, cfg.antithetic)
    for out, pay in zip(outs, step.payoffs(acc)):
        out.reshape(-1, pair)[start:start + m] = pay.reshape(width, m).T
    return None


def _run_paths(make_step, params: ModelParams, cfg: SimConfig, scheme: str,
               chunk_size: int | None, brownian_refinement: int) -> list[np.ndarray]:
    """Per-path payoffs of one model in canonical order (pair-interleaved under
    antithetic sampling), bit-identical for every chunking.

    ``make_step(nodes)`` builds the model's step on the grid's time nodes; see
    the module docstring for its contract.  :class:`NonFinitePath` names the
    earliest time any path turns non-finite and the lowest path failing then.
    """
    if scheme not in _SCHEMES:
        raise OutOfRange("scheme", f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    n_sub = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    nodes = _step_times(params.horizon, cfg.dt)
    n_steps = len(nodes) - 1
    chunk = _CHUNK if chunk_size is None else integer("chunk_size", chunk_size, 1)
    refinement = integer("brownian_refinement", brownian_refinement, 1)
    step = make_step(nodes)
    # before any chunk is drawn, so an impossible n_paths fails at once
    with holding("n_paths", cfg.n_paths):
        outs = [np.empty(cfg.n_paths) for _ in range(step.n_payoffs)]
    failure = None  # (steps done, canonical index) of the earliest non-finite value
    for start in range(0, n_sub, chunk):
        # after a failure, later chunks only look for an earlier or equal one
        found = _march(step, _draw_chunk(cfg.seed, start, min(chunk, n_sub - start), n_steps, refinement),
                       cfg, scheme == "pc", n_steps if failure is None else failure[0], start,
                       outs if failure is None else ())
        if found is not None and (failure is None or found < failure):
            failure = found
    if failure is not None:
        raise NonFinitePath(failure[1], failure[0] * cfg.dt)
    return outs


def _pair(a: float, b: float) -> np.ndarray:
    """Per-firm constants as a (2, 1) column, broadcasting over path rows."""
    return np.array([[a], [b]])


class _PrincipalStep:
    """Optimal incentive rates and flows of one principal model.

    Accumulators: the payment Y_i per agent, the revenue-less-cost flow F_i
    per agent, then the social cost G.  The rates of a slot are (z1, z2) for
    the single firm and the own rates (z11, z22) over the cross rates
    (z12, z21) for two firms, as ``contract.rates_single`` and ``rates_two``
    lay them out.
    """

    odd = False  # B(t) is not 0

    def __init__(self, params: ModelParams, v: QuadraticValueFn, nodes: np.ndarray, y0: tuple[float, ...]):
        self.p = params
        self.single = params.kind is Kind.SINGLE_FIRM
        self.n_agents = self.n_checked = len(y0)
        self.n_payoffs = 1 + self.n_agents
        self.acc0 = (*y0, *(0.0 for _ in y0), 0.0)
        self.factors = contract._rate_factors(params, 2)
        self.sigma = _pair(params.sigma1, params.sigma2)
        self.gamma = _pair(params.gamma1, params.gamma2)
        s1, s2 = params.sigma1 * params.sigma1, params.sigma2 * params.sigma2
        self.sq = _pair(s1, s2)
        if not self.single:
            self.half_gamma = _pair(0.5 * params.gamma1, 0.5 * params.gamma2)
            self.half_eta = _pair(0.5 * params.eta1, 0.5 * params.eta2)
            self.sq_cross = _pair(s2, s1)
            self.sigma_cross = _pair(params.sigma2, params.sigma1)
        self.A_T, self.B_t = _interp_coeffs(v, nodes)

    def slots(self, drift: np.ndarray, flow: np.ndarray) -> tuple:
        """Per slot: the drift, all rates, the rates that set the drift (the own
        rates for two firms), the cross rates (two firms only) and the flows."""
        rows = drift.shape[-1]
        rates = np.empty((2, 2, rows) if self.single else (2, 2, 2, rows))
        return tuple((d, z, z, None, f) if self.single else (d, z, z[0], z[1], f)
                     for d, z, f in zip(drift, rates, flow))

    def evaluate(self, k: int, S: np.ndarray, slot: tuple, w=None) -> None:
        """The rates and drift at S, then, given scratch ``w``, the flows:
        (payment drift per agent, revenue-less-cost flow per agent, social cost)."""
        drift, z, own, cross, flow = slot
        # the gradient lives in the slot's drift until the drift overwrites it
        np.matmul(self.A_T[k], S, out=drift)
        np.add(drift, self.B_t[k], out=drift)
        # the cross rates do not enter the drift
        contract._closed_form_rates(self.factors, drift, z, cross=w is not None)
        np.multiply(self.gamma, own, out=drift)
        if w is None:
            return
        p, X = self.p, S.T
        model.social_cost_g(p, X, out=flow[-1], scratch=w[0][0])
        if self.single:
            f, c, risk = flow[1], w[0][0], w[1][0]
            model.revenue_f(p, X, out=f, scratch=c)
            np.multiply(self.gamma, z, out=w[0])
            np.multiply(w[0], z, out=w[0])
            np.add(w[0][0], w[0][1], out=c)
            np.multiply(0.5, c, out=c)
            np.multiply(self.sq, z, out=w[1])
            np.multiply(w[1], z, out=w[1])
            np.add(w[1][0], w[1][1], out=risk)
            np.multiply(0.5 * p.eta_a, risk, out=risk)
            np.add(risk, c, out=flow[0])
            np.subtract(flow[0], f, out=flow[0])
            np.subtract(f, c, out=f)
            return
        d, f, c, risk = flow[:2], flow[2:4], w[0], w[1]
        model.revenue_f(p, X, per_firm=True, out=f.T)
        np.multiply(self.half_gamma, own, out=c)
        np.multiply(c, own, out=c)
        np.multiply(self.sq, own, out=risk)
        np.multiply(risk, own, out=risk)
        np.multiply(self.sq_cross, cross, out=d)
        np.multiply(d, cross, out=d)
        np.add(risk, d, out=risk)
        np.multiply(self.half_eta, risk, out=risk)
        np.subtract(c, f, out=d)
        np.add(d, risk, out=d)
        np.subtract(f, c, out=f)

    def payment_noise(self, slot: tuple, dW: np.ndarray, w) -> None:
        """Add to each agent's payment flow its rates times the state increments they price."""
        _, z, own, cross, flow = slot
        if self.single:
            np.multiply(self.sigma, z, out=w[0])
            np.multiply(w[0], dW, out=w[0])
            noise = np.add(w[0][0], w[0][1], out=w[0][0])
        else:
            noise = np.multiply(self.sigma, own, out=w[0])
            np.multiply(noise, dW, out=noise)
            np.multiply(self.sigma_cross, cross, out=w[1])
            np.multiply(w[1], dW[::-1], out=w[1])
            np.add(noise, w[1], out=noise)
        np.add(flow[:self.n_agents], noise, out=flow[:self.n_agents])

    def payoffs(self, acc: np.ndarray):
        n = self.n_agents
        Y, F, G = acc[:n], acc[n:2 * n], acc[-1]
        return (-sum(Y) - G, *(Y[i] + F[i] for i in range(n)))


def principal_path_payoffs(
    params: ModelParams,
    v: QuadraticValueFn,
    cfg: SimConfig,
    scheme: str = "pc",
    chunk_size: int | None = None,
    brownian_refinement: int = 1,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-path principal payoff -Y_T - int g dt and agent payoffs Y^i_T + int (f_i - c_i) dt.

    Paths are returned in canonical order (pair-interleaved under antithetic
    sampling); chunking only bounds memory and cannot change the result.
    """
    if not params.has_principal:
        raise ConfigMismatch(f"simulate_principal needs a principal model, got {params.kind.value}")
    model._require_solved_for(params, "value function", v.grid.t_end, v.kind)
    y0 = _agent_y0(params, cfg)
    pay_p, *pays_a = _run_paths(lambda nodes: _PrincipalStep(params, v, nodes, y0), params, cfg,
                                scheme, chunk_size, brownian_refinement)
    return pay_p, pays_a


def agent_labels(params: ModelParams) -> tuple[str, ...]:
    return ("agent",) if params.kind is Kind.SINGLE_FIRM else ("firm1", "firm2")


def principal_estimates_from_payoffs(
    params: ModelParams,
    cfg: SimConfig,
    pay_p: np.ndarray,
    pays_a: Sequence[np.ndarray],
) -> tuple[UtilityEstimate, tuple[UtilityEstimate, ...]]:
    """Utility estimates from per-path payoffs in canonical order."""
    principal, *agents = _estimates(cfg, ("principal", *agent_labels(params)),
                                    (params.eta_p, *params.agent_aversions()), (pay_p, *pays_a))
    return principal, tuple(agents)


def simulate_principal(
    params: ModelParams,
    v: QuadraticValueFn,
    cfg: SimConfig,
    scheme: str = "pc",
    chunk_size: int | None = None,
    brownian_refinement: int = 1,
) -> tuple[UtilityEstimate, tuple[UtilityEstimate, ...]]:
    """Monte Carlo estimates of the principal's and the agents' expected utilities."""
    pay_p, pays_a = principal_path_payoffs(params, v, cfg, scheme, chunk_size, brownian_refinement)
    return principal_estimates_from_payoffs(params, cfg, pay_p, pays_a)


class _NashStep:
    """Feedback controls and payoff flows of the two-firm game.

    The state is (x, y); the accumulators are the payoff flows Z1, Z2.  The
    rates of a slot are both firms' efforts, which are also the drift.
    """

    acc0 = (0.0, 0.0)
    n_checked = n_payoffs = 2
    payment_noise = None

    def __init__(self, params: ModelParams, strategies: tuple[FeedbackStrategy, FeedbackStrategy],
                 deviation: Deviation | None, nodes: np.ndarray):
        self.p = params
        self.deviation = deviation
        self.sigma = _pair(params.sigma1, params.sigma2)
        self.neg_gamma = _pair(-strategies[0].gamma, -strategies[1].gamma)
        # gains of both firms per time node, as (n, 2, 1) columns
        self.kx, self.ky, self.k0 = (
            np.array([np.interp(nodes, s.nodes, getattr(s, name)) for s in strategies]).T[:, :, None]
            for name in ("kx", "ky", "k0"))

    @property
    def odd(self) -> bool:
        """Whether the efforts are odd in the state: no intercept, and no shift."""
        return not self.k0.any() and (self.deviation is None or self.deviation.shift == 0.0)

    def slots(self, drift: np.ndarray, flow: np.ndarray) -> tuple:
        return tuple(zip(drift, flow))

    def evaluate(self, k: int, S: np.ndarray, slot: tuple, w=None) -> None:
        # the slot's flow is scratch until it is filled, given scratch ``w``
        a, flow = slot
        np.multiply(self.kx[k], S[0], out=a)
        np.multiply(self.ky[k], S[1], out=flow)
        np.add(a, flow, out=a)
        np.add(a, self.k0[k], out=a)
        np.multiply(self.neg_gamma, a, out=a)
        if self.deviation is not None:
            self.deviation.apply(a)
        if w is not None:
            payoff_rate(self.p, S[0], S[1], a, out=flow, scratch=w[0])

    def payoffs(self, acc: np.ndarray):
        return acc


def nash_path_payoffs(
    params: ModelParams,
    strategies: tuple[FeedbackStrategy, FeedbackStrategy],
    cfg: SimConfig,
    deviation: Deviation | None = None,
    scheme: str = "pc",
    chunk_size: int | None = None,
    brownian_refinement: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path accumulated payoff flows (Z1, Z2) of both firms, canonical order.

    ``strategies`` are firm 1's and firm 2's, in that order; another order,
    a strategy solved on another horizon than ``params.horizon``, or one
    whose ``gamma`` is not its firm's in ``params``, raises
    :class:`ConfigMismatch`.
    """
    if params.kind is not Kind.TWO_FIRM_NASH:
        raise ConfigMismatch(f"simulate_nash needs the no-incentive game, got {params.kind.value}")
    firms = [s.firm for s in strategies]
    if firms != [1, 2]:
        raise ConfigMismatch(f"strategies must be firm 1's and firm 2's, in order, got firms {firms}",
                             "strategies")
    for s in strategies:
        model._require_solved_for(params, f"firm {s.firm} strategy", float(s.nodes[-1]))
        # the step scales the effort by the strategy's gamma, the flow charges it at the model's
        if s.gamma != params.gamma(s.firm):
            raise ConfigMismatch(f"firm {s.firm} strategy gamma {s.gamma} != params gamma{s.firm} "
                                 f"{params.gamma(s.firm)}", "strategies")
    z1, z2 = _run_paths(lambda nodes: _NashStep(params, strategies, deviation, nodes), params, cfg,
                        scheme, chunk_size, brownian_refinement)
    return z1, z2


def nash_estimates_from_payoffs(
    params: ModelParams,
    cfg: SimConfig,
    z1: np.ndarray,
    z2: np.ndarray,
) -> tuple[UtilityEstimate, UtilityEstimate]:
    """Utility estimates from per-path payoff flows in canonical order."""
    return _estimates(cfg, ("firm1", "firm2"), (params.eta1, params.eta2), (z1, z2))


def simulate_nash(
    params: ModelParams,
    strategies: tuple[FeedbackStrategy, FeedbackStrategy],
    cfg: SimConfig,
    deviation: Deviation | None = None,
    scheme: str = "pc",
    chunk_size: int | None = None,
    brownian_refinement: int = 1,
) -> tuple[UtilityEstimate, UtilityEstimate]:
    """Monte Carlo estimates of both firms' expected utilities under the strategies."""
    z1, z2 = nash_path_payoffs(params, strategies, cfg, deviation, scheme,
                               chunk_size, brownian_refinement)
    return nash_estimates_from_payoffs(params, cfg, z1, z2)


def paired_difference(u_new: np.ndarray, u_base: np.ndarray, antithetic: bool) -> tuple[float, float]:
    """Mean and standard error of a common-random-number utility difference."""
    d = np.asarray(u_new, dtype=float) - np.asarray(u_base, dtype=float)
    return _stats(d, antithetic)
