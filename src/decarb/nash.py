"""Feedback equilibrium of the two-firm game without incentive payments.

Each firm controls the drift of its own state (dX = a1 dt + sigma1 dW1,
dY = a2 dt + sigma2 dW2) and has CARA utility over an accumulated flow.  The
value functions are exponential-quadratic,

    V1 = -exp(eta1 * W1(t,x,y)),   V2 = -exp(eta2 * W2(t,x,y)),

with W1 = 0.5*A x^2 + 0.5*B y^2 + C xy + D x + E y + F and W2 built from the
mirrored coefficients At..Ft.  Matching powers of (x, y) in the two
Hamilton-Jacobi-Bellman equations turns each PDE into six coupled scalar ODEs
with zero terminal data:

firm 1 against a deterministic opponent flow a2(t)::

    A' + s1*e1*A^2 + s2*e1*C^2 - 2*p1 - g1*A^2                  = 0
    B' + s1*e1*C^2 + s2*e1*B^2 - g1*C^2                         = 0
    C' + s1*e1*A*C + s2*e1*B*C - p2 - g1*A*C                    = 0
    D' + s1*e1*A*D + s2*e1*C*E + a2*C - g1*A*D                  = 0
    E' + s1*e1*C*D + s2*e1*B*E + a2*B - g1*C*D                  = 0
    F' + 0.5*s1*(e1*D^2 + A) + 0.5*s2*(e1*E^2 + B) + a2*E + p0
       - 0.5*g1*D^2                                             = 0

(s_i = sigma_i^2, e_i = eta_i, g_i = gamma_i; firm 2's system mirrors it with
x and y swapped).  In equilibrium the opponent flows are the feedback rules

    a1(t,x,y) = -gamma1 * (A x + C y + D),
    a2(t,x,y) = -gamma2 * (At x + Bt y + Et),

and substituting them couples the two systems into twelve ODEs, integrated
jointly here.  Backward blow-up is reported as a first-class outcome: the
equilibrium characterization is conditional on existence over the horizon.

Each system is written once, as an :class:`~decarb.riccati.OdeTable`
(``_NASH``, ``_BR_FIRM1``, ``_BR_FIRM2``): its state names, its derivative
expressions and the parameter products they read.  A table is compiled on
its first solve, once per process, into two functions: a block march that
runs the integrator's RK4 steps with every stage written out, and a
right-hand side that :func:`ode_residual` evaluates on node-sampled columns
(``_nash_rhs`` and ``_best_response_rhs_firm1/2`` bind it to one parameter
set).  Each solve binds the parameters as arguments, so no source is built
from parameter values.  A best response reads the opponent flow from a flat
list, interpolated once at the integrator's stage times, three values per
step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, OutOfRange, WrongKind
from .model import Kind, ModelParams
from .riccati import Kernel, OdeTable, TimeGrid, centered_derivative, rk4_backward, rk4_stage_times

BR_COLUMNS = ("A", "B", "C", "D", "E", "F")
NASH_COLUMNS = ("A", "B", "C", "D", "E", "F", "At", "Bt", "Ct", "Dt", "Et", "Ft")


@dataclass(frozen=True)
class BestResponseCoeffs:
    """Solved coefficients of one firm's value function against a known opponent flow."""

    grid: TimeGrid
    values: np.ndarray  # (n_nodes, 6), columns BR_COLUMNS
    firm: int
    opponent: np.ndarray  # opponent flow sampled on the grid nodes

    def column(self, name: str) -> np.ndarray:
        return self.values[:, BR_COLUMNS.index(name)]


@dataclass(frozen=True)
class NashCoeffs:
    """Solved coefficients of both equilibrium value functions."""

    grid: TimeGrid
    values: np.ndarray  # (n_nodes, 12), columns NASH_COLUMNS

    def column(self, name: str) -> np.ndarray:
        return self.values[:, NASH_COLUMNS.index(name)]

    def firm_block(self, firm: int) -> np.ndarray:
        """Six own-value columns of one firm, in BR_COLUMNS order."""
        return self.values[:, :6] if firm == 1 else self.values[:, 6:]


@dataclass(frozen=True)
class FeedbackStrategy:
    """Affine feedback rule a(t,x,y) = -gamma * (kx(t)*x + ky(t)*y + k0(t))."""

    firm: int
    gamma: float
    nodes: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    k0: np.ndarray

    def __call__(self, t: float, x, y):
        cx, cy, c0 = (float(np.interp(t, self.nodes, c)) for c in (self.kx, self.ky, self.k0))
        return -self.gamma * (cx * np.asarray(x) + cy * np.asarray(y) + c0)


def _require_nash(params: ModelParams) -> None:
    if params.kind is not Kind.TWO_FIRM_NASH:
        raise WrongKind(f"operation requires the no-incentive game, got {params.kind.value}")


# The coefficient systems.  Only parameter products that left-to-right
# evaluation computes first are hoisted into constants (``s2 * e1 * C * C`` is
# ``s2e1 * C * C``), which keeps every bit.
_GAME_PARAMS = ("s1", "s2", "e1", "e2", "g1", "g2", "p0", "p1", "p2")
_GAME_CONSTS = (
    ("p1x2", "2.0 * p1"), ("p2x2", "2.0 * p2"), ("g1x2", "2.0 * g1"), ("g2x2", "2.0 * g2"),
    ("k1", "g1 - s1 * e1"), ("k2", "g2 - s2 * e2"),
    ("s2e1", "s2 * e1"), ("s1e2", "s1 * e2"), ("s2e2", "s2 * e2"),
    ("hg1", "0.5 * g1"), ("hg2", "0.5 * g2"), ("hs1", "0.5 * s1"), ("hs2", "0.5 * s2"),
)
_FIRM1_STATES = ("A", "B", "C", "D", "E", "F")
_FIRM2_STATES = ("At", "Bt", "Ct", "Dt", "Et", "Ft")

# firm 1's six ODEs against the opponent flow a2
_BR_FIRM1 = OdeTable(
    name="best_response_firm1", states=_FIRM1_STATES, params=_GAME_PARAMS, consts=_GAME_CONSTS,
    drive="a2", derivs=(
        "p1x2 + k1 * A * A - s2e1 * C * C",
        "k1 * C * C - s2e1 * B * B",
        "p2 + k1 * A * C - s2e1 * B * C",
        "k1 * A * D - s2e1 * C * E - a2 * C",
        "k1 * C * D - s2e1 * B * E - a2 * B",
        "hg1 * D * D - hs1 * (e1 * D * D + A) - hs2 * (e1 * E * E + B) - a2 * E - p0",
    ))

# firm 2's six ODEs against the opponent flow a1
_BR_FIRM2 = OdeTable(
    name="best_response_firm2", states=_FIRM2_STATES, params=_GAME_PARAMS, consts=_GAME_CONSTS,
    drive="a1", derivs=(
        "g2 * Ct * Ct - s1e2 * At * At - s2e2 * Ct * Ct",
        "p2x2 + k2 * Bt * Bt - s1e2 * Ct * Ct",
        "p1 + k2 * Bt * Ct - s1e2 * At * Ct",
        "k2 * Ct * Et - s1e2 * At * Dt - a1 * At",
        "k2 * Bt * Et - s1e2 * Ct * Dt - a1 * Ct",
        "hg2 * Et * Et - hs1 * (e2 * Dt * Dt + At) - hs2 * (e2 * Et * Et + Bt) - a1 * Dt - p0",
    ))

# the twelve coupled equilibrium ODEs (autonomous)
_NASH = OdeTable(
    name="nash", states=_FIRM1_STATES + _FIRM2_STATES, params=_GAME_PARAMS, consts=_GAME_CONSTS,
    derivs=(
        "p1x2 + k1 * A * A - s2e1 * C * C + g2x2 * Ct * C",
        "k1 * C * C - s2e1 * B * B + g2x2 * Bt * B",
        "p2 + k1 * A * C - s2e1 * B * C + g2 * (Bt * C + Ct * B)",
        "k1 * A * D - s2e1 * C * E + g2 * (Ct * E + Et * C)",
        "k1 * C * D - s2e1 * B * E + g2 * (Bt * E + Et * B)",
        "hg1 * D * D - hs1 * (e1 * D * D + A) - hs2 * (e1 * E * E + B) + g2 * Et * E - p0",
        "g2 * Ct * Ct - s1e2 * At * At - s2e2 * Ct * Ct + g1x2 * A * At",
        "p2x2 + k2 * Bt * Bt - s1e2 * Ct * Ct + g1x2 * C * Ct",
        "p1 + k2 * Bt * Ct - s1e2 * At * Ct + g1 * (A * Ct + C * At)",
        "k2 * Ct * Et - s1e2 * At * Dt + g1 * (A * Dt + D * At)",
        "k2 * Bt * Et - s1e2 * Ct * Dt + g1 * (C * Dt + D * Ct)",
        "hg2 * Et * Et - hs1 * (e2 * Dt * Dt + At) - hs2 * (e2 * Et * Et + Bt) + g1 * D * Dt - p0",
    ))


def _game_args(params: ModelParams) -> tuple[float, ...]:
    """Values of ``_GAME_PARAMS``."""
    return (params.sigma1 ** 2, params.sigma2 ** 2, params.eta1, params.eta2,
            params.gamma1, params.gamma2, params.p0, params.p1, params.p2)


def _best_response_rhs_firm1(params: ModelParams):
    """rhs(a2, u) of firm 1's six ODEs against the opponent flow a2."""
    return _BR_FIRM1.rhs(_game_args(params))


def _best_response_rhs_firm2(params: ModelParams):
    """rhs(a1, u) of firm 2's six ODEs against the opponent flow a1."""
    return _BR_FIRM2.rhs(_game_args(params))


def _nash_rhs(params: ModelParams):
    """rhs(t, u) of the twelve coupled equilibrium ODEs (autonomous: t is unused)."""
    return _NASH.rhs(_game_args(params))


def sample_opponent(opponent, grid: TimeGrid) -> np.ndarray:
    """Opponent flow as node samples: accepts a scalar, callable, or array."""
    if np.isscalar(opponent):
        return np.full(grid.n_nodes, float(opponent))
    if callable(opponent):
        return np.array([float(opponent(t)) for t in grid.nodes])
    arr = np.asarray(opponent, dtype=float)
    if arr.shape != (grid.n_nodes,):
        raise OutOfRange("opponent", f"opponent samples must have shape ({grid.n_nodes},), got {arr.shape}")
    return arr


def best_response(
    params: ModelParams,
    firm: int,
    opponent,
    n_nodes: int = 1001,
) -> BestResponseCoeffs:
    """Solve one firm's six value coefficients against a deterministic opponent flow.

    ``opponent`` is the other firm's effort as a function of time: a scalar,
    a callable, or node samples on the grid; samples interpolate linearly at
    integration stage times, all of them at once before the solve.
    """
    _require_nash(params)
    if firm not in (1, 2):
        raise OutOfRange("firm", f"firm index must be 1 or 2, got {firm!r}")
    grid = TimeGrid(params.horizon, n_nodes)
    samples = sample_opponent(opponent, grid)
    flow = np.interp(rk4_stage_times(grid), grid.nodes, samples).tolist()
    kernel = Kernel(_BR_FIRM1 if firm == 1 else _BR_FIRM2, _game_args(params), flow)
    values = rk4_backward(kernel, np.zeros(6), grid)
    return BestResponseCoeffs(grid=grid, values=values, firm=firm, opponent=samples)


def solve_nash(params: ModelParams, n_nodes: int = 1001) -> NashCoeffs:
    """Integrate the coupled twelve-ODE equilibrium system backward from zero data."""
    _require_nash(params)
    grid = TimeGrid(params.horizon, n_nodes)

    try:
        values = rk4_backward(Kernel(_NASH, _game_args(params)), np.zeros(12), grid)
    except BlowUp as exc:
        raise BlowUp(
            exc.t_escape,
            f"equilibrium coefficients escaped at t = {exc.t_escape:.6g}; "
            "no equilibrium on this horizon is certified",
        ) from exc
    return NashCoeffs(grid=grid, values=values)


def feedback_strategies(coeffs: NashCoeffs, params: ModelParams) -> tuple[FeedbackStrategy, FeedbackStrategy]:
    """Equilibrium feedback rules of both firms.

    a1(t,x,y) = -gamma1*(A x + C y + D); a2(t,x,y) = -gamma2*(At x + Bt y + Et).
    """
    _require_nash(params)
    nodes = coeffs.grid.nodes
    s1 = FeedbackStrategy(
        firm=1, gamma=params.gamma1, nodes=nodes,
        kx=coeffs.column("A"), ky=coeffs.column("C"), k0=coeffs.column("D"),
    )
    s2 = FeedbackStrategy(
        firm=2, gamma=params.gamma2, nodes=nodes,
        kx=coeffs.column("Ct"), ky=coeffs.column("Bt"), k0=coeffs.column("Et"),
    )
    return s1, s2


def certainty_surface(coeffs: BestResponseCoeffs | NashCoeffs, firm: int, t: float, x, y):
    """W_firm(t, x, y) rebuilt from solved coefficients (linear in t between nodes).

    The firm's value is -exp(eta_firm * W_firm).
    """
    if firm not in (1, 2):
        raise OutOfRange("firm", f"firm index must be 1 or 2, got {firm!r}")
    if isinstance(coeffs, BestResponseCoeffs):
        if firm != coeffs.firm:
            raise OutOfRange("firm", f"coefficients belong to firm {coeffs.firm}, not {firm!r}")
        block = coeffs.values
    else:
        block = coeffs.firm_block(firm)
    nodes = coeffs.grid.nodes
    a, b, c, d, e, f = (np.interp(t, nodes, block[:, j]) for j in range(6))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 0.5 * a * x * x + 0.5 * b * y * y + c * x * y + d * x + e * y + f


@functools.lru_cache(maxsize=64)
def _payoff_factors(params: ModelParams, firms: tuple[int, ...], ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Cross price slope and doubled effort efficiency of each firm in
    ``firms``, as read-only columns over the firm rows of an ``ndim``-dimensional
    flow.  Cached because a simulation evaluates the flows once per step."""
    shape = (len(firms),) + (1,) * (ndim - 1)
    columns = (np.reshape([params.p2 if f == 1 else params.p1 for f in firms], shape),
               np.reshape([2.0 * params.gamma(f) for f in firms], shape))
    for c in columns:
        c.flags.writeable = False
    return columns


def payoff_rate(params: ModelParams, firm: int | None, x, y, a, out=None, scratch=None):
    """Running payoff flow priced by the equilibrium value functions.

    The solved W_i measure the CARA certainty equivalent of exactly this flow:
    simulated estimates of E[-exp(-eta_i * integral)] converge to
    -exp(eta_i * W_i(0, x0, y0)).  Firm 1's flow is
    ``p1*x*x + p2*x*y - p0 - a*a/(2*gamma1)`` and firm 2's its mirror
    ``p2*y*y + p1*x*y - p0 - a*a/(2*gamma2)``.  ``firm=None`` evaluates both
    firms at once: ``a`` then holds firm 1's and firm 2's efforts on a leading
    axis of length 2, and so does the result.  ``out`` receives the flow and
    ``scratch``, shaped like it, holds an intermediate; each is allocated
    when None.
    """
    _require_nash(params)
    if firm not in (None, 1, 2):
        raise OutOfRange("firm", f"firm index must be 1 or 2, got {firm!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    firms = (1, 2) if firm is None else (firm,)
    if out is None:
        shape = np.broadcast_shapes(x.shape, y.shape, a.shape[1:] if firm is None else a.shape)
        out = np.empty(a.shape[:1] + shape if firm is None else shape)
    scratch = np.empty(out.shape) if scratch is None else scratch
    # one row per firm, so a single firm runs the same sequence as both
    flow, work, effort = (out, scratch, a) if firm is None else (out[None], scratch[None], a[None])
    cross, two_gamma = _payoff_factors(params, firms, flow.ndim)
    for i, f in enumerate(firms):
        own, slope = (x, params.p1) if f == 1 else (y, params.p2)
        np.multiply(slope, own, out=flow[i:i + 1])
        np.multiply(flow[i:i + 1], own, out=flow[i:i + 1])
    np.multiply(cross, x, out=work)
    np.multiply(work, y, out=work)
    np.add(flow, work, out=flow)
    np.subtract(flow, params.p0, out=flow)
    np.multiply(effort, effort, out=work)
    np.divide(work, two_gamma, out=work)
    np.subtract(flow, work, out=flow)
    return out


def ode_residual(
    coeffs: BestResponseCoeffs | NashCoeffs,
    params: ModelParams,
    opponent=None,
) -> float:
    """Maximum violation of the coefficient ODEs along a solved trajectory.

    Derivatives are estimated by fourth-order central differences at interior
    nodes and compared against the system right-hand sides, so the check never
    reuses the integrator's stepping.
    """
    _require_nash(params)
    values = coeffs.values
    interior = values[2:-2].T
    if isinstance(coeffs, NashCoeffs):
        rhs = _nash_rhs(params)(None, interior)
    else:
        nodes = coeffs.grid.nodes
        samples = coeffs.opponent if opponent is None else sample_opponent(opponent, coeffs.grid)
        rhs_one = _best_response_rhs_firm1 if coeffs.firm == 1 else _best_response_rhs_firm2
        rhs = rhs_one(params)(np.interp(nodes[2:-2], nodes, samples), interior)
    worst = [np.max(np.abs(centered_derivative(values[:, j], coeffs.grid.dt) - r), initial=0.0)
             for j, r in enumerate(rhs)]
    return float(np.max(worst))
