"""Feedback equilibrium of the two-firm game without incentive payments.

Each firm controls the drift of its own state (dX = a1 dt + sigma1 dW1,
dY = a2 dt + sigma2 dW2) and has CARA utility over an accumulated flow.  The
value functions are exponential-quadratic,

    V1 = -exp(eta1 * W1(t,x,y)),   V2 = -exp(eta2 * W2(t,x,y)),

with W1 = 0.5*A x^2 + 0.5*B y^2 + C xy + D x + E y + F and W2 built from
At..Ft.  Matching powers of (x, y) in firm 1's Hamilton-Jacobi-Bellman
equation turns it into six scalar ODEs with zero terminal data; against a
deterministic opponent flow a2(t)::

    A' + s1*e1*A^2 + s2*e1*C^2 - 2*p1 - g1*A^2                  = 0
    B' + s1*e1*C^2 + s2*e1*B^2 - g1*C^2                         = 0
    C' + s1*e1*A*C + s2*e1*B*C - p2 - g1*A*C                    = 0
    D' + s1*e1*A*D + s2*e1*C*E + a2*C - g1*A*D                  = 0
    E' + s1*e1*C*D + s2*e1*B*E + a2*B - g1*C*D                  = 0
    F' + 0.5*s1*(e1*D^2 + A) + 0.5*s2*(e1*E^2 + B) + a2*E + p0
       - 0.5*g1*D^2                                             = 0

(s_i = sigma_i^2, e_i = eta_i, g_i = gamma_i).  The firms are mirror images:
exchanging their sigma, eta, gamma and p1 <-> p2, x <-> y, a1 <-> a2 and

    A <-> Bt,  B <-> At,  C <-> Ct,  D <-> Et,  E <-> Dt,  F <-> Ft

maps firm 1's system onto firm 2's, which is made from it by that renaming
(``_SWAP``) and not written out.  In equilibrium the opponent flows are the
feedback rules

    a1(t,x,y) = -gamma1 * (A x + C y + D),
    a2(t,x,y) = -gamma2 * (Ct x + Bt y + Et);

substituting a2 into firm 1's system, and the swap of the result for firm 2,
gives the twelve coupled ODEs of ``_NASH``.  The two halves are one
expression under renaming, so the swapped game solves to the permuted
columns bit for bit.  Backward blow-up is reported as a first-class outcome:
the equilibrium characterization is conditional on existence over the
horizon.

Neither flow has a term linear in x or y and the terminal data are zero, so
in equilibrium the linear coefficients D, E, Dt and Et solve a homogeneous
linear system (their derivatives are linear in them, with the quadratic
coefficients as factors) from zero data, and vanish identically.
:func:`solve_nash` therefore marches the other eight, A, B, C, F, At, Bt, Ct
and Ft, on ``_nash_live()``: ``_NASH`` with the four states dropped and read as
the literal 0.0 where the others' derivatives name them, and the terms that
literal zeroes folded away.  The four columns hold +0.0.  The bits are those
of the twelve-state march.  There every stage value of the four is exactly
+0.0, by induction: each starts at +0.0, and under round-to-nearest
+0.0 + (+-0.0) is +0.0.  So the literal gives every live derivative the same
operands in the same order.  The escape row is the same too: a vanishing
state turns NaN only after some live stage value is already inf, and that
inf enters its own state's final RK4 combination in both marches.

The fold works on each derivative's syntax tree, innermost nodes first: it
puts the constant 0.0 in place of each vanishing state's name, with no round
trip through text, rewrites ``name * 0.0 * 0.0`` as ``0.0`` and ``0.0 + S``
as ``S``, and drops ``+ 0.0``, so F's derivative is ``0.0 - hs1 * A - hs2 *
B - p0`` (5 float operations in place of 16) and Ft's its mirror; no other
derivative reads the literal.  It keeps the bits for finite γ, η, σ² >= 0, which
:func:`~decarb.model.validate_params` guarantees.  Every folded product is
then +0.0.  ``0.0 + S`` is S because a stage value is never -0.0: it starts
at +0.0, and x + y is -0.0 only when both are.  The dropped ``+ 0.0``
follows ``0.0 - hs1 * A - hs2 * B``, never -0.0 either, as x - y is -0.0
only when x is.  Even a folded value that differed in the sign of a zero
would not reach a state: no derivative reads F or Ft, and adding a zero of
either sign to a state, never -0.0, leaves it unchanged.

``_NASH`` stays the one definition of the game: :func:`ode_residual` checks
all twelve columns against it, and the value-PDE residuals of
:mod:`decarb.verify` read all twelve, so a vanishing state with a nonzero
derivative would show in both.

Each system is an :class:`~decarb.riccati.OdeTable` (``_BR_TABLES[firm]``,
``_NASH``, ``_nash_live()``); firm 2's expressions are firm 1's with the
names in each tree renamed by ``_SWAP``.  Each is compiled on its first
solve, once per process, into a block march that runs the integrator's RK4
steps with every stage written out, with 4 shared products per stage in
``_nash_live()`` and in each best response, and a right-hand side that
:func:`ode_residual` evaluates on node-sampled columns.  Parameters arrive as arguments, so no source is built
from their values.  A best response reads the opponent flow from a flat
list, interpolated once at the integrator's stage times, three values per
step.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, OutOfRange, holding, integer, real
from .model import Kind, ModelParams, _require_kind
from .riccati import (OdeTable, TimeGrid, _between_nodes, _bottom_up, _renamed, centered_derivative,
                      rk4_backward, rk4_stage_times)

BR_COLUMNS = ("A", "B", "C", "D", "E", "F")
NASH_COLUMNS = ("A", "B", "C", "D", "E", "F", "At", "Bt", "Ct", "Dt", "Et", "Ft")


@dataclass(frozen=True)
class BestResponseCoeffs:
    """Solved coefficients of one firm's value function against a known opponent flow."""

    grid: TimeGrid
    values: np.ndarray  # (n_nodes, 6), columns BR_COLUMNS, column-major
    firm: int
    opponent: np.ndarray  # opponent flow sampled on the grid nodes

    def column(self, name: str) -> np.ndarray:
        return self.values[:, BR_COLUMNS.index(name)]


@dataclass(frozen=True)
class NashCoeffs:
    """Solved coefficients of both equilibrium value functions."""

    grid: TimeGrid
    values: np.ndarray  # (n_nodes, 12), columns NASH_COLUMNS, column-major

    def column(self, name: str) -> np.ndarray:
        return self.values[:, NASH_COLUMNS.index(name)]


@dataclass(frozen=True)
class FeedbackStrategy:
    """Affine feedback rule a(t,x,y) = -gamma * (kx(t)*x + ky(t)*y + k0(t)) on
    t in [0, nodes[-1]]; a time outside raises :class:`OutOfHorizon`."""

    firm: int
    gamma: float
    nodes: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    k0: np.ndarray

    def __call__(self, t: float, x, y):
        cx, cy, c0 = _between_nodes(t, self.nodes, self.kx, self.ky, self.k0)
        return -self.gamma * (cx * np.asarray(x) + cy * np.asarray(y) + c0)


# The coefficient systems, written for firm 1 only.  Only parameter products
# that left-to-right evaluation computes first are hoisted into constants
# (``s2 * e1 * C * C`` is ``s2e1 * C * C``), which keeps every bit.
_GAME_PARAMS = ("s1", "s2", "e1", "e2", "g1", "g2", "p0", "p1", "p2")
_FIRM1_CONSTS = (("p1x2", "2.0 * p1"), ("g1x2", "2.0 * g1"), ("k1", "g1 - s1 * e1"),
                 ("s2e1", "s2 * e1"), ("hg1", "0.5 * g1"), ("hs1", "0.5 * s1"))
# firm 1's own terms; the opponent's term enters at {}
_OWN = (
    "p1x2 + k1 * A * A - s2e1 * C * C{}",
    "k1 * C * C - s2e1 * B * B{}",
    "p2 + k1 * A * C - s2e1 * B * C{}",
    "k1 * A * D - s2e1 * C * E{}",
    "k1 * C * D - s2e1 * B * E{}",
    "hg1 * D * D - hs1 * (e1 * D * D + A) - hs2 * (e1 * E * E + B){} - p0",
)
# the opponent as a given flow a2, and as its feedback a2 = -g2 * (Ct x + Bt y + Et)
_AGAINST_FLOW = ("", "", "", " - a2 * C", " - a2 * B", " - a2 * E")
_AGAINST_FEEDBACK = (" + g2x2 * Ct * C", " + g2x2 * Bt * B", " + g2 * (Bt * C + Ct * B)",
                     " + g2 * (Ct * E + Et * C)", " + g2 * (Bt * E + Et * B)", " + g2 * Et * E")
# the firm swap, an involution on the tables' names
_SWAP = dict(pair for a, b in (
    ("A", "Bt"), ("B", "At"), ("C", "Ct"), ("D", "Et"), ("E", "Dt"), ("F", "Ft"),
    ("s1", "s2"), ("e1", "e2"), ("g1", "g2"), ("p1", "p2"), ("k1", "k2"), ("s2e1", "s1e2"),
    ("hs1", "hs2"), ("hg1", "hg2"), ("p1x2", "p2x2"), ("g1x2", "g2x2"), ("a1", "a2"),
) for pair in ((a, b), (b, a)))


def _swapped(expr: str) -> str:
    return ast.unparse(_renamed(ast.parse(expr, mode="eval").body, _SWAP))


def _firm2(derivs: tuple[str, ...]) -> tuple[str, ...]:
    """Firm 2's derivatives in ``NASH_COLUMNS[6:]`` order, from firm 1's in ``BR_COLUMNS`` order."""
    mirrored = dict(zip(map(_SWAP.get, BR_COLUMNS), map(_swapped, derivs)))
    return tuple(mirrored[name] for name in NASH_COLUMNS[6:])


_GAME_CONSTS = _FIRM1_CONSTS + tuple((_SWAP[n], _swapped(e)) for n, e in _FIRM1_CONSTS)
_RESPONSE = tuple(map(str.format, _OWN, _AGAINST_FLOW))
_EQUILIBRIUM = tuple(map(str.format, _OWN, _AGAINST_FEEDBACK))
_BR_TABLES = {
    1: OdeTable("best_response_firm1", BR_COLUMNS, _GAME_PARAMS, _RESPONSE, _GAME_CONSTS, "a2"),
    2: OdeTable("best_response_firm2", NASH_COLUMNS[6:], _GAME_PARAMS, _firm2(_RESPONSE),
                _GAME_CONSTS, "a1"),
}
# the twelve coupled equilibrium ODEs (autonomous)
_NASH = OdeTable("nash", NASH_COLUMNS, _GAME_PARAMS, _EQUILIBRIUM + _firm2(_EQUILIBRIUM), _GAME_CONSTS)
# the states that vanish identically; solve_nash marches the other eight
_VANISHING = ("D", "E", "Dt", "Et")
_LIVE = [j for j, name in enumerate(NASH_COLUMNS) if name not in _VANISHING]


def _fold_zero(node):
    """A vanishing state as ``0.0``, ``name * 0.0 * 0.0`` as ``0.0``, and a sum
    with a ``0.0`` term as its other term."""
    match node:
        case ast.Name(name) if name in _VANISHING:
            return ast.Constant(0.0)
        case ast.BinOp(ast.BinOp(ast.Name(), ast.Mult(), ast.Constant(0.0)), ast.Mult(), ast.Constant(0.0)):
            return ast.Constant(0.0)
        case ast.BinOp(ast.Constant(0.0), ast.Add(), term) | ast.BinOp(term, ast.Add(), ast.Constant(0.0)):
            return term
    return node


@functools.cache
def _nash_live() -> OdeTable:
    """The eight-state table :func:`solve_nash` marches, built on its first
    call: ``_NASH`` with the vanishing states read as ``0.0`` and the terms
    they zero folded away."""
    derivs = (_bottom_up(ast.parse(_NASH.derivs[j], mode="eval").body, _fold_zero) for j in _LIVE)
    return OdeTable("nash_live", tuple(NASH_COLUMNS[j] for j in _LIVE), _GAME_PARAMS,
                    tuple(map(ast.unparse, derivs)), _GAME_CONSTS)


def _game_args(params: ModelParams) -> tuple[float, ...]:
    """Values of ``_GAME_PARAMS``, as floats whatever scalar type ``params`` holds."""
    sigma1, sigma2, *rest = map(float, (params.sigma1, params.sigma2, params.eta1, params.eta2,
                                        params.gamma1, params.gamma2, params.p0, params.p1, params.p2))
    return (sigma1 * sigma1, sigma2 * sigma2, *rest)


def sample_opponent(opponent, grid: TimeGrid) -> np.ndarray:
    """Opponent flow as node samples: accepts a finite real scalar, a callable,
    or an array of node samples; every sample must be finite."""
    if np.isscalar(opponent):
        return np.full(grid.n_nodes, real("opponent", opponent))
    arr = (np.array([float(opponent(t)) for t in grid.nodes]) if callable(opponent)
           else np.asarray(opponent, dtype=float))
    if arr.shape != (grid.n_nodes,) or not np.isfinite(arr).all():
        raise OutOfRange("opponent", f"opponent samples must be {grid.n_nodes} finite numbers, "
                         f"got shape {arr.shape}")
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
    _require_kind(params, Kind.TWO_FIRM_NASH)
    firm = integer("firm", firm, 1, 2)
    grid = TimeGrid(params.horizon, n_nodes)
    with holding("n_nodes", n_nodes):
        stages = rk4_stage_times(grid)
    samples = sample_opponent(opponent, grid)
    flow = np.interp(stages, grid.nodes, samples).tolist()
    values = rk4_backward(_BR_TABLES[firm], _game_args(params), np.zeros(6), grid, flow)
    return BestResponseCoeffs(grid=grid, values=values, firm=firm, opponent=samples)


def solve_nash(params: ModelParams, n_nodes: int = 1001) -> NashCoeffs:
    """Integrate the coupled equilibrium system backward from zero data.

    Only the eight live coefficients are marched; the columns D, E, Dt and Et
    hold +0.0, the value a march of all twelve gives them at every node.
    """
    _require_kind(params, Kind.TWO_FIRM_NASH)
    grid = TimeGrid(params.horizon, n_nodes)

    # allocated before the march, so the march's own array is freed above it
    # and leaves no hole below the result that outlives it; column-major, as
    # rk4_backward's output is, so every column a strategy or
    # certainty_surface hands np.interp is contiguous and read without a copy
    with holding("n_nodes", n_nodes):
        values = np.zeros((grid.n_nodes, len(NASH_COLUMNS)), order="F")
    try:
        live = rk4_backward(_nash_live(), _game_args(params), np.zeros(len(_LIVE)), grid)
    except BlowUp as exc:
        raise BlowUp(
            exc.t_escape,
            f"equilibrium coefficients escaped at t = {exc.t_escape:.6g}; "
            "no equilibrium on this horizon is certified",
        ) from exc
    values[:, _LIVE] = live
    return NashCoeffs(grid=grid, values=values)


def feedback_strategies(coeffs: NashCoeffs, params: ModelParams) -> tuple[FeedbackStrategy, FeedbackStrategy]:
    """Equilibrium feedback rules of both firms.

    a1(t,x,y) = -gamma1*(A x + C y + D); a2(t,x,y) = -gamma2*(Ct x + Bt y + Et).
    The gains are views of the game's column-major ``values``, contiguous, so
    a read copies no column.
    """
    _require_kind(params, Kind.TWO_FIRM_NASH)
    nodes = coeffs.grid.nodes
    columns = {1: ("A", "C", "D"), 2: ("Ct", "Bt", "Et")}  # x slope, y slope, intercept
    return tuple(FeedbackStrategy(f, params.gamma(f), nodes, *map(coeffs.column, columns[f]))
                 for f in (1, 2))


def certainty_surface(coeffs: BestResponseCoeffs | NashCoeffs, firm: int, t: float, x, y):
    """W_firm(t, x, y) rebuilt from solved coefficients (linear in t between nodes).

    The firm's value is -exp(eta_firm * W_firm).  A time outside the solved
    horizon raises :class:`OutOfHorizon`.
    """
    firm = integer("firm", firm, 1, 2)
    if isinstance(coeffs, BestResponseCoeffs):
        if firm != coeffs.firm:
            raise OutOfRange("firm", f"coefficients belong to firm {coeffs.firm}, not {firm!r}")
        block = coeffs.values
    else:
        block = coeffs.values[:, 6 * firm - 6:6 * firm]
    a, b, c, d, e, f = _between_nodes(t, coeffs.grid.nodes, *block.T)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 0.5 * a * x * x + 0.5 * b * y * y + c * x * y + d * x + e * y + f


@functools.lru_cache(maxsize=64)
def _payoff_factors(p1: float, p2: float, gamma1: float, gamma2: float,
                    ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Cross price slope and doubled effort efficiency of each firm, as
    read-only columns over the firm rows of an ``ndim``-dimensional flow.
    Cached, on plain numbers, because a simulation evaluates the flows once
    per step."""
    shape = (2,) + (1,) * (ndim - 1)
    columns = np.reshape([p2, p1], shape), np.reshape([2.0 * gamma1, 2.0 * gamma2], shape)
    for c in columns:
        c.flags.writeable = False
    return columns


def payoff_rate(params: ModelParams, x, y, a, out=None, scratch=None):
    """Running payoff flows of both firms, priced by the equilibrium value functions.

    The solved W_i measure the CARA certainty equivalent of exactly this flow:
    simulated estimates of E[-exp(-eta_i * integral)] converge to
    -exp(eta_i * W_i(0, x0, y0)).  Firm 1's flow is
    ``p1*x*x + p2*x*y - p0 - a*a/(2*gamma1)`` and firm 2's its mirror
    ``p2*y*y + p1*x*y - p0 - a*a/(2*gamma2)``.  ``a`` holds firm 1's and
    firm 2's efforts on a leading axis of length 2, and so does the result.
    ``out`` receives the flows and ``scratch``, shaped like it, holds an
    intermediate; each is allocated when None.
    """
    _require_kind(params, Kind.TWO_FIRM_NASH)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    if out is None:
        out = np.empty(a.shape[:1] + np.broadcast_shapes(x.shape, y.shape, a.shape[1:]))
    scratch = np.empty(out.shape) if scratch is None else scratch
    cross, two_gamma = _payoff_factors(params.p1, params.p2, params.gamma1, params.gamma2, out.ndim)
    for i, (own, slope) in enumerate(((x, params.p1), (y, params.p2))):
        row = np.multiply(slope, own, out=out[i, ...])  # a view even of a 0-d row
        np.multiply(row, own, out=row)
    np.multiply(cross, x, out=scratch)
    np.multiply(scratch, y, out=scratch)
    np.add(out, scratch, out=out)
    np.subtract(out, params.p0, out=out)
    np.multiply(a, a, out=scratch)
    np.divide(scratch, two_gamma, out=scratch)
    np.subtract(out, scratch, out=out)
    return out


def ode_residual(coeffs: BestResponseCoeffs | NashCoeffs, params: ModelParams) -> float:
    """Maximum violation of the coefficient ODEs along a solved trajectory.

    Derivatives are estimated by fourth-order central differences at interior
    nodes and compared against the system right-hand sides, so the check never
    reuses the integrator's stepping.  A best response is checked against the
    opponent flow it was solved for, read at the interior nodes from its node
    samples ``coeffs.opponent``.  Fewer than 5 nodes leave no interior node
    to check and raise :class:`OutOfRange` naming ``n_nodes``.
    """
    _require_kind(params, Kind.TWO_FIRM_NASH)
    integer("n_nodes", coeffs.grid.n_nodes, 5)
    values = coeffs.values
    if isinstance(coeffs, NashCoeffs):
        table, drive = _NASH, None
    else:
        table, drive = _BR_TABLES[coeffs.firm], coeffs.opponent[2:-2]
    rhs = table.rhs(_game_args(params))(drive, values[2:-2].T)
    worst = [np.max(np.abs(centered_derivative(values[:, j], coeffs.grid.dt) - r), initial=0.0)
             for j, r in enumerate(rhs)]
    return float(np.max(worst))
