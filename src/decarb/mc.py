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
(n_steps, 2, count), so each step reads one contiguous (2, count) block.  The
chunk draws each group it touches into one 64-column buffer of its own and
copies the group's columns in, so a group that two chunks share (a chunk size
that is not a multiple of 64) is drawn by each, with the same bits.  Each
thread keeps the last chunk it drew in a one-entry memo, read-only and keyed
by (seed, first substream, count, n_steps, refinement), and hands it out again
for the same key: an equilibrium run and its deviation runs on common random
numbers draw once.  The memo retains ``n_steps * 2 * 8`` bytes per substream
(64 MiB for 4096 substreams at 1000 steps) until a different chunk is drawn;
it is emptied before that chunk is allocated, and the engine's reference ends
with the march of its chunk, so no two chunks are ever alive together.

Both simulators run on one path engine, which owns chunking, antithetic
mirroring, path order, stepping, the accumulation and the non-finite checks.
Under every solved policy the drift is affine in the state S = (x, y) and
every running flow quadratic, so a model supplies no per-step code, only its
functions of the state, which the engine reads once per run into
coefficients per time node.  Two stepping schemes are available.
``scheme="pc"`` (default) is an Euler-Maruyama step with a drift
predictor-corrector and trapezoidal quadrature of all running flows; the
state noise is additive, so this is weak order 2 and its bias is negligible
against the Monte Carlo error at the default resolution.  ``scheme="euler"``
is the classic left-point scheme (weak order 1); under it the agents' utility
estimates are exactly unbiased (the payment compensators telescope against
the Gaussian increments step by step), which the indifference tests exploit.

The model contract.  ``make_step(nodes)`` returns a model with ``sigma`` (the
state volatilities as a (2, 1) column), ``acc0`` (initial accumulator values),
``n_checked`` (how many leading accumulators are checked for finiteness with
the state), ``n_payoffs`` (how many payoff arrays it returns),
``payoffs(acc)`` (the per-path payoffs of the final accumulators) and
``evaluate(X)``.  Given states X of shape (points, 2) it returns, at every time
node at once, the drift (2, nodes, points), the flows, one per accumulator
(accumulators, nodes, points), and for the principal the payment-noise rates
(2, agents, nodes, points), agent i's rate on state j at [j, i], or None.  The
engine calls it once per run on the fixed stencil ``_STENCIL``, scaled by the
power of two at or above the larger volatility, and reads off (:func:`_fit`)
the drift as ``K_k S + k_k``, the rates as affine rows and the flows as rows
over the features ``[1, x, y, x*x, x*y, y*y]``.  The polynomials must reproduce
the functions at the stencil's remaining states to rounding, so a flow that is
not quadratic raises ``ValueError`` instead of passing silently; and with a
power-of-two scale a quantity unit that is a power of two scales every
coefficient exactly.
The model algebra stays in :mod:`decarb.contract`, :mod:`decarb.model` and
:mod:`decarb.nash`, and each formula is written there once.

The scheme folds into one affine map per step on the noise ``xi_k =
sigma*sqrt(dt)*Z_k``, ``S_{k+1} = M_k S_k + N_k xi_k + m_k``.  Under pc,
``M = I + dt/2 (K_k + K_{k+1} + dt K_{k+1} K_k)``, ``N = I + dt/2 K_{k+1}``
and ``m = dt/2 (k_k + k_{k+1} + dt K_{k+1} k_k)``: the predictor
``S + (K_k S + k_k) dt + xi`` and the corrector that averages the drifts
at both ends, multiplied out.  Under euler ``M = I + dt K_k``, ``N = I`` and
``m = dt k_k``.  The trapezoid (pc) or left-point (euler) weights fold into
the flow rows, so the running integrals are sums of node flows; euler's
last node weighs 0.  So the schemes differ only in their tables, and one
march serves both.  A chunk's rows live in two buffers of eight rows,
``[xi; 1; S; x*x, x*y, y*y]``, one for the step's start and one for its
end, which swap roles each step.  Node 0's flows are added before the first
step.  A step scales the draws into the start's ``xi`` and negates them
into the mirrors; the principal adds its payment noise, each agent's rates
at the start (one (2*agents, 3) matmul on ``[1; S]``) times the ``xi_j``
they price; the end state is one (2, 5) matmul on ``[xi; 1; S]`` and its
three features two products; and the end node's flows, one (accumulators,
6) matmul on ``[1; S; x*x, x*y, y*y]``, are added to the accumulators.  The
payment noise is spent before the flows are made, so one scratch buffer
holds both.  Every buffer of a chunk is a local allocated once.

What a march calls: every product and sum is a numpy call on whole
buffers.  The model's functions are reached once per run, and three
boundaries are calls through module attributes, so a wrapper on one sees
every call (``tests/test_mc.py`` counts them): :func:`path_increments` once
per group of 64 substreams a chunk touches, and ``model.revenue_f`` and
``model.social_cost_g`` (principal) or this module's ``payoff_rate`` (the
game) once per run, on the stencil.

Why the bits do not depend on the chunking: the engine multiplies no single
column.  OpenBLAS computes a one-column product with gemv and a wider one
with gemm, which round differently, while a gemm column's bits depend
neither on the product's width nor on the column's place in it (measured at
every width and offset tried, from 2 to 8192 columns).  A one-column chunk
is padded to two, the pad a copy of the path, and the pad's values are never
read.  ``tests/test_mc.py`` pins
the SHA-256 of every payoff array over the engine's options and checks that
every chunk size, and one or two BLAS threads, give the same bits.

The half-width march.  Under antithetic sampling from ``x0 = 0``, tables with
no payment-noise rates, no constant ``m_k`` in any state map and no linear
term in any weighted flow row (``_Tables.mirrors_negate``) make each mirror
its drawn path negated with the same payoffs, so the march holds only the
drawn rows and writes each payoff into both slots of its pair.  The game's
tables are such when every interpolated intercept ``k0`` is zero and a
deviation, if any, has no shift: the drift at the stencil's origin is a zero
and the flows at ``+e`` and ``-e`` are equal, as their efforts are exact
negations, so ``k_k``, ``m_k`` and the linear flow rows are read off as exact
zeros.  The principal's never are: it has payment noise, and B(t) is not 0.
The bits are those of a full march, by induction over the steps.  A mirror's
input column ``[xi; 1; S]`` is its drawn column negated but for the
constant 1, whose coefficient ``m_k`` is a zero.  Round-to-nearest is
symmetric, so each rounded product, sum or fused multiply-add of gemm's
chain (``fma(a, -b, -c) = -fma(a, b, c)``), and so the whole chain, gives
the drawn path's result negated; a zero term changes no nonzero sum.  The
features ``x*x``, ``x*y`` and ``y*y`` of the negated state round the same
products, so the flow rows, whose linear coefficients are zeros, give the
same flows.  The one inexact negation is
a sum that cancels to zero, which may hold either sign; a zero's sign
changes no nonzero result of an addition or multiplication, only the sign of
a zero one, and the accumulators start at +0, which stays +0 when a zero of
either sign is added: zero signs cannot reach a payoff.  A path and its
mirror turn non-finite at the same step (inf negates to -inf, NaN stays
NaN), so the report names the drawn path 2j, the lower index, as a full
march would.

The non-finite checks.  A march checks the state and the checked
accumulators after every ``_CHECK``-th step and after its last, not after
every step.  A non-finite value stays so: each accumulator is updated by
adding to itself, and a non-finite input still gives a non-finite output
column of a matmul, since gemm forms every product of the column, and a
product of an infinity or NaN with any coefficient, zero included, is
non-finite, as is every sum that holds one.  So a path that turns
non-finite stays so and a block's check sees every failure in it.  A
failed check re-marches the chunk from step 0 up to the checked step,
checking every step; the same operations on the same draws fail at the
same step, which names the earliest step and the lowest canonical index
failing at it, as a check after every step would.  As node k's flows are
added in step k - 1 under both schemes, a flow that turns non-finite at
node k is reported at t_k.  Euler's zero weight on the last node adds
nothing for a finite state feature, but NaN for an infinite one (a state
above about 1.3e154 in size), so such a path fails at the horizon.

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
# States at which the engine reads a model's functions: the first five fix an
# affine function of (x, y) by central differences, the first six a quadratic,
# and the rest check the fit
_STENCIL = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0],
                     [0.375, -0.625], [-1.25, 0.5], [2.0, 1.75]])
_FIT_TOL = 1e-12  # the largest misfit at a check state, relative to the size of its terms
_FIT_FLOOR = math.ldexp(1.0, -1060)  # and in subnormal numbers, where that bound underflows


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
    divide the horizon to within 1e-9 of it, or that makes more steps than
    can be held, raises :class:`ConfigMismatch` naming ``dt``."""
    try:
        n = round(horizon / dt)  # OverflowError once the ratio overflows to inf
        if n >= 1 and abs(horizon - n * dt) <= 1e-9 * horizon:
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
    buffer of the chunk's, whose columns are copied into place; the first and
    last groups are clipped to the chunk.

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
    drawn = np.empty((n_steps * refinement, 2, _GROUP))
    stop = start + count
    for group in range(start // _GROUP, (stop - 1) // _GROUP + 1):
        first = group * _GROUP
        lo, hi = max(start, first), min(stop, first + _GROUP)
        path_increments(seed, group, len(drawn), out=drawn)
        cols, into = drawn[:, :, lo - first:hi - first], inc[:, :, lo - start:hi - start]
        if refinement == 1:
            into[...] = cols
        else:
            np.divide(cols.reshape(n_steps, refinement, 2, hi - lo).sum(axis=1), math.sqrt(refinement),
                      out=into)
    inc.flags.writeable = False
    _local.chunk = (key, inc)
    return inc


def _stencil_scale(sigma: np.ndarray) -> float:
    """The power of two at or just above the larger volatility (1 without
    noise), which scales the stencil to the size of the paths' states."""
    top = float(np.max(sigma))
    return math.ldexp(1.0, math.frexp(top)[1]) if top > 0.0 else 1.0


def _fit(values: np.ndarray, degree: int, h: float) -> np.ndarray:
    """Coefficients, on a last axis, of functions of the state over ``[1, x, y]``
    (``degree`` 1) or ``[1, x, y, x*x, x*y, y*y]`` (2), from their ``values``
    at the states ``h * _STENCIL``, on a last axis.

    The coefficients are read in units of the power of two ``h`` and
    divided by its powers, which is exact.  Raises ``ValueError`` unless they
    reproduce the values at the stencil's remaining states within
    ``_FIT_TOL`` of the size of their terms, plus ``_FIT_FLOOR`` for the
    rounding of subnormal values (each operation there may be off by half of
    2**-1074, whatever the size of its terms).  A non-finite misfit passes:
    its paths fail as non-finite.
    """
    v = np.moveaxis(values, -1, 0)
    terms = [v[0], 0.5 * (v[1] - v[2]), 0.5 * (v[3] - v[4])]
    if degree == 2:
        xx, yy = 0.5 * (v[1] + v[2]) - v[0], 0.5 * (v[3] + v[4]) - v[0]
        terms += [xx, v[5] - v[0] - terms[1] - terms[2] - xx - yy, yy]
    coeffs = np.stack(terms, axis=-1)
    n_fixed = 4 + degree
    x, y = _STENCIL[n_fixed:].T
    features = np.array([np.ones_like(x), x, y, x * x, x * y, y * y])[:len(terms)]
    misfit = np.abs(coeffs @ features - values[..., n_fixed:])
    if np.any(misfit > _FIT_TOL * (np.abs(coeffs) @ np.abs(features)) + _FIT_FLOOR):
        raise ValueError(f"a model function is not a polynomial of degree {degree} in the state: "
                         f"misfit {np.nanmax(misfit):.3g} off the stencil")
    return coeffs / np.array([1.0, h, h, h * h, h * h, h * h])[:len(terms)]


def _state_maps(K: np.ndarray, k: np.ndarray, dt: float, pc: bool) -> np.ndarray:
    """The affine map of each step, ``S_{k+1} = M_k S_k + N_k xi_k + m_k``, as
    rows ``[N_k | m_k | M_k]`` over a march's input rows ``[xi; 1; S]``, shape
    (n_steps, 2, 5), from the drift ``K S + k`` per node, K (nodes, 2, 2) and
    k (nodes, 2); see the module docstring."""
    K0, K1, k0, k1 = K[:-1], K[1:], k[:-1, :, None], k[1:, :, None]
    eye = np.eye(2)
    if pc:
        half_dt = 0.5 * dt
        M = eye + half_dt * (K0 + K1 + dt * (K1 @ K0))
        N = eye + half_dt * K1
        m = half_dt * (k0 + k1 + dt * (K1 @ k0))
    else:
        M, N, m = eye + dt * K0, np.broadcast_to(eye, K0.shape), dt * k0
    return np.concatenate([N, m, M], axis=2)


def _flow_rows(C: np.ndarray, dt: float, pc: bool) -> np.ndarray:
    """The flow rows ``C`` (accumulators, nodes, 6) of each node times its
    quadrature weight, shape (nodes, accumulators, 6): the trapezoid (pc) or
    the left point (euler, where the last node weighs nothing)."""
    weights = np.full(C.shape[1], dt)
    weights[[0, -1]] = (0.5 * dt, 0.5 * dt) if pc else (dt, 0.0)
    return weights[:, None, None] * np.moveaxis(C, 1, 0)


def _read_off(step) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The model's drift (2, nodes, 3), flows (accumulators, nodes, 6) and
    rates (2, agents, nodes, 3) as coefficients over the features, read at
    the stencil scaled to the paths' states."""
    h = _stencil_scale(step.sigma)
    drift, flows, rates = step.evaluate(h * _STENCIL)
    return _fit(drift, 1, h), _fit(flows, 2, h), None if rates is None else _fit(rates, 1, h)


class _Tables:
    """A model's coefficients on a run's nodes, read once per run: the state
    maps, the weighted flow rows and the payment-noise rate rows (or None)."""

    def __init__(self, step, dt: float, pc: bool):
        K, C, R = _read_off(step)  # the values read are freed before the tables are made
        self.maps = _state_maps(np.moveaxis(K[..., 1:], 1, 0), K[..., 0].T, dt, pc)
        self.flows = _flow_rows(C, dt, pc)
        # per node, the rows (state j, agent i) over [1, x, y]
        self.rates = None if R is None else np.ascontiguousarray(
            np.moveaxis(R, 2, 0).reshape(R.shape[2], -1, 3))

    @property
    def mirrors_negate(self) -> bool:
        """Whether, from the origin, each antithetic mirror is its drawn path
        negated: no payment noise, and no constant in any state map or linear
        term in any flow row (see the module docstring)."""
        return self.rates is None and not self.maps[:, :, 2].any() and not self.flows[:, :, 1:3].any()


class _Rows:
    """One of a march's two buffers, rows (xi_1, xi_2, 1, x, y, x*x, x*y, y*y),
    with the views a step reads or writes."""

    def __init__(self, m: int, rows: int, cols: int):
        self.buf = buf = np.empty((8, cols))
        buf[2] = 1.0
        self.xi, self.inputs, self.affine, self.features = buf[:2], buf[:5], buf[2:5], buf[2:]
        self.state = buf[3:5]
        self.marched = buf[3:5, :rows]  # the state of the rows marched, not of a pad
        # a one-column chunk broadcasts its draws into the pad column too
        self.drawn, self.mirrored = (buf[:2, :m], buf[:2, m:]) if rows > 1 else (buf[:2], None)

    def square(self) -> None:
        """The state's quadratic features: (x*x, y*x), then y*y."""
        buf = self.buf
        np.multiply(buf[3:5], buf[3], out=buf[5:7])
        np.multiply(buf[4], buf[4], out=buf[7])


def _first_non_finite(S: np.ndarray, checked: np.ndarray, start: int, m: int, antithetic: bool) -> int:
    """Lowest canonical index of a row with a non-finite value in ``S`` or ``checked``."""
    local = np.flatnonzero(~(np.isfinite(S).all(axis=0) & np.isfinite(checked).all(axis=0)))
    # under antithetic sampling row j < m is path 2*(start+j), row m+j its
    # mirror; a half-width march has only the former, each failing with its mirror
    return int(np.min(2 * (start + local % m) + local // m if antithetic else start + local))


def _march(step, tables: _Tables, inc: np.ndarray, cfg: SimConfig, n_steps: int, start: int,
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
    # where each mirror is its drawn path negated, with the same payoffs, only
    # the drawn half is marched
    width = 1 if tables.mirrors_negate and not any(cfg.x0) else pair
    rows = width * m
    cols = max(rows, 2)  # never a one-column product: gemv rounds unlike gemm
    scale = step.sigma * math.sqrt(cfg.dt)
    maps, flow_rows, rate_rows = tables.maps, tables.flows, tables.rates
    ends = _Rows(m, rows, cols), _Rows(m, rows, cols)  # the start and the end of a step
    ends[0].state[...] = np.array(cfg.x0)[:, None]
    ends[0].square()
    acc = np.empty((len(step.acc0), cols))
    acc[...] = np.array(step.acc0)[:, None]
    agents = 0 if rate_rows is None else rate_rows.shape[1] // 2
    # a step spends its payment noise before it makes the flows: one buffer serves both
    scratch = np.empty((max(2 * agents, len(acc)), cols))
    flow, noise_rows = scratch[:len(acc)], scratch[:2 * agents]
    noise, paid = noise_rows.reshape(2, agents, cols), acc[:agents]  # noise (state j, agent i)
    checked = acc[:step.n_checked, :rows]
    finite, finite_checked = np.empty((2, rows), dtype=bool), np.empty(checked.shape, dtype=bool)
    np.add(acc, np.matmul(flow_rows[0], ends[0].features, out=flow), out=acc)
    for k in range(n_steps):
        now, end = ends[k % 2], ends[1 - k % 2]
        np.multiply(scale, inc[k], out=now.drawn)
        if width == 2:
            np.negative(now.drawn, out=now.mirrored)
        if agents:
            # each agent's rates at the start times the noise xi_j they price
            np.matmul(rate_rows[k], now.affine, out=noise_rows)
            np.multiply(noise, now.xi[:, None], out=noise)
            np.add(paid, np.add(noise[0], noise[1], out=noise[0]), out=paid)
        np.matmul(maps[k], now.inputs, out=end.state)
        end.square()
        np.add(acc, np.matmul(flow_rows[k + 1], end.features, out=flow), out=acc)
        if (k + 1) % every and k + 1 < n_steps:
            continue
        if not (np.logical_and.reduce(np.isfinite(end.marched, out=finite), axis=None)
                and np.logical_and.reduce(np.isfinite(checked, out=finite_checked), axis=None)):
            if every > 1:
                return _march(step, tables, inc, cfg, k + 1, start, (), every=1)
            return k + 1, _first_non_finite(end.marched, checked, start, m, cfg.antithetic)
    for out, pay in zip(outs, step.payoffs(acc[:, :rows])):
        out.reshape(-1, pair)[start:start + m] = pay.reshape(width, m).T
    return None


def _run_paths(make_step, params: ModelParams, cfg: SimConfig, scheme: str,
               chunk_size: int | None, brownian_refinement: int) -> list[np.ndarray]:
    """Per-path payoffs of one model in canonical order (pair-interleaved under
    antithetic sampling), bit-identical for every chunking.

    ``make_step(nodes)`` builds the model on the grid's time nodes; see the
    module docstring for its contract.  :class:`NonFinitePath` names the
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
    tables = _Tables(step, cfg.dt, scheme == "pc")
    # before any chunk is drawn, so an impossible n_paths fails at once
    with holding("n_paths", cfg.n_paths):
        outs = [np.empty(cfg.n_paths) for _ in range(step.n_payoffs)]
    failure = None  # (steps done, canonical index) of the earliest non-finite value
    for start in range(0, n_sub, chunk):
        # after a failure, later chunks only look for an earlier or equal one
        found = _march(step, tables,
                       _draw_chunk(cfg.seed, start, min(chunk, n_sub - start), n_steps, refinement),
                       cfg, n_steps if failure is None else failure[0], start, outs if failure is None else ())
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
    per agent, then the social cost G.  Agent i's rate on state j is the
    contract's z_j (single firm) or z_ij (two firms); agent i controls
    state j, with effort gamma_j times that rate, when the firm is single or
    i = j.  Both kinds share one flow shape: agent i's payment drift is its
    effort cost plus its risk premium less its revenue, the effort cost
    ``0.5*sum_j gamma_j z_ij^2`` over the states it controls and the risk
    premium ``0.5*eta_i*sum_j sigma_j^2 z_ij^2``.
    """

    def __init__(self, params: ModelParams, v: QuadraticValueFn, nodes: np.ndarray, y0: tuple[float, ...]):
        self.p = params
        self.single = params.kind is Kind.SINGLE_FIRM
        self.n_agents = self.n_checked = len(y0)
        self.n_payoffs = 1 + self.n_agents
        self.acc0 = (*y0, *(0.0 for _ in y0), 0.0)
        self.factors = contract._rate_factors(params, 3)
        self.sigma = _pair(params.sigma1, params.sigma2)
        self.sq = _pair(params.sigma1 * params.sigma1, params.sigma2 * params.sigma2)
        # gamma_j where agent i controls state j, else 0, at [j, i]
        self.effort = _pair(params.gamma1, params.gamma2) * (1.0 if self.single else np.eye(2))
        self.etas = np.array(params.agent_aversions())
        self.A_T, self.B_t = _interp_coeffs(v, nodes)

    def evaluate(self, X: np.ndarray):
        """At the states X (points, 2) and every node: the drift, the flows
        (payment drift per agent, revenue less effort cost per agent, social
        cost) and the rates, agent i's on state j at [j, i]."""
        p = self.p
        grad = np.moveaxis(self.A_T @ X.T + self.B_t, 1, 0)  # (2, nodes, points)
        z = contract._closed_form_rates(self.factors, grad)
        # (own, cross) rates of two firms: z11 and z21 price state 1, z12 and z22 state 2
        rates = z[:, None] if self.single else np.array([[z[0, 0], z[1, 1]], [z[1, 0], z[0, 1]]])
        effort, sq = self.effort[..., None, None], rates * rates
        cost = 0.5 * (effort * sq).sum(axis=0)
        risk = 0.5 * self.etas[:, None, None] * (self.sq[..., None, None] * sq).sum(axis=0)
        f = (model.revenue_f(p, X)[None] if self.single else model.revenue_f(p, X, per_firm=True).T)[:, None]
        g = np.broadcast_to(model.social_cost_g(p, X), cost.shape[1:])
        flows = np.concatenate([cost + risk - f, f - cost, g[None]])
        return (effort * rates).sum(axis=1), flows, rates

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

    The state is (x, y); the accumulators are the payoff flows Z1, Z2.  Both
    firms' efforts are the drift.
    """

    acc0 = (0.0, 0.0)
    n_checked = n_payoffs = 2

    def __init__(self, params: ModelParams, strategies: tuple[FeedbackStrategy, FeedbackStrategy],
                 deviation: Deviation | None, nodes: np.ndarray):
        self.p = params
        self.deviation = deviation
        self.sigma = _pair(params.sigma1, params.sigma2)
        self.neg_gamma = np.array([-strategies[0].gamma, -strategies[1].gamma])[:, None, None]
        # gains of both firms per time node, as (2, nodes, 1)
        self.kx, self.ky, self.k0 = (
            np.array([np.interp(nodes, s.nodes, getattr(s, name)) for s in strategies])[:, :, None]
            for name in ("kx", "ky", "k0"))

    def evaluate(self, X: np.ndarray):
        """At the states X (points, 2) and every node: both firms' efforts, which
        are the drift, and their payoff flows; no payment noise."""
        x, y = X.T
        a = self.neg_gamma * (self.kx * x + self.ky * y + self.k0)
        if self.deviation is not None:
            self.deviation.apply(a)
        return a, payoff_rate(self.p, x, y, a), None

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
