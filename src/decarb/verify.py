"""Independent numerical verification of solved value functions.

Residual evaluation recomputes every ingredient it can by a route the solvers
never use: time derivatives of coefficient trajectories come from fourth-order
difference stencils on the stored samples (not from the integrator's
right-hand sides), spatial terms from the economic primitives in
:mod:`decarb.model`, and the drift maximum from the brute-force oracle in
:mod:`decarb.contract`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from . import model
from .contract import gradient_couplings, oracle_rates
from .errors import OutOfRange, holding, integer, real
from .model import PRINCIPAL_KINDS, Kind, ModelParams, _require_kind, _require_solved_for
from .nash import NashCoeffs
from .riccati import QuadraticValueFn, centered_derivative


@dataclass(frozen=True)
class GridSpec:
    """Space-time verification grid: a square state grid at a few time slices.

    Construction checks every field and raises :class:`OutOfRange` naming it:
    at least 2 points and 1 time slice, as integers, and finite bounds with
    x_min < x_max (stored as floats).
    """

    x_min: float = -2.0
    x_max: float = 2.0
    n_points: int = 21
    n_time_slices: int = 5

    def __post_init__(self):
        self.__dict__.update(  # past the frozen __setattr__
            n_points=integer("n_points", self.n_points, 2),
            n_time_slices=integer("n_time_slices", self.n_time_slices, 1),
            x_min=real("x_min", self.x_min),
            x_max=real("x_max", self.x_max))
        if not self.x_min < self.x_max:
            raise OutOfRange("x_max", f"x_max must exceed x_min, got [{self.x_min!r}, {self.x_max!r}]")

    def axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def slice_times(self, horizon: float) -> np.ndarray:
        return np.linspace(0.0, horizon, self.n_time_slices)

    def describe(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ResidualReport:
    label: str
    max_residual: float
    argmax_t: float
    argmax_x: tuple[float, ...]
    grid: dict = field(default_factory=dict)
    per_slice: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "max_residual": self.max_residual,
            "argmax_t": self.argmax_t,
            "argmax_x": list(self.argmax_x),
            "grid": dict(self.grid),
            "per_slice": {f"{t:.12g}": m for t, m in self.per_slice.items()},
        }


# nodes a residual check needs: the one-sided stencil at node 1 reads node 5
_MIN_NODES = 6


def sampled_time_derivative(values: np.ndarray, dt: float, k: int) -> np.ndarray:
    """Fourth-order derivative estimate of a node-sampled trajectory at node k.

    Centered stencil where it fits, one-sided at the ends, so the estimate is
    available at every node including t = 0 and t = T.
    """
    n = len(values)
    if 2 <= k <= n - 3:
        return centered_derivative(values[k - 2:k + 3], dt)[0]
    if k < 2:
        f0, f1, f2, f3, f4 = values[k], values[k + 1], values[k + 2], values[k + 3], values[k + 4]
        return (-25.0 * f0 + 48.0 * f1 - 36.0 * f2 + 16.0 * f3 - 3.0 * f4) / (12.0 * dt)
    f0, f1, f2, f3, f4 = values[k], values[k - 1], values[k - 2], values[k - 3], values[k - 4]
    return (25.0 * f0 - 48.0 * f1 + 36.0 * f2 - 16.0 * f3 + 3.0 * f4) / (12.0 * dt)


def _slicing(solved: QuadraticValueFn | NashCoeffs, params: ModelParams, grid: GridSpec | None,
             *kinds: Kind) -> tuple[GridSpec, np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The grid (``GridSpec()`` for None), its state mesh ``(X, Y)``, the slice
    times and the node of each, once ``params`` is of one of ``kinds`` and
    ``solved`` belongs to it and has the nodes the stencils need.  A grid too
    large to hold raises :class:`OutOfRange` naming ``n_points`` or
    ``n_time_slices``."""
    _require_kind(params, *kinds)
    _require_solved_for(params, "coefficients", solved.grid.t_end, getattr(solved, "kind", None))
    integer("n_nodes", solved.grid.n_nodes, _MIN_NODES)
    grid = grid or GridSpec()
    with holding("n_points", grid.n_points):
        X, Y = np.meshgrid(grid.axis(), grid.axis(), indexing="ij")
    with holding("n_time_slices", grid.n_time_slices):
        times = grid.slice_times(params.horizon)
        nodes = [int(round(t / solved.grid.dt)) for t in times]
    return grid, X, Y, times, nodes


def _report(label: str, grid: GridSpec, times, residuals, X, Y) -> ResidualReport:
    """Worst of the ``|residual|`` arrays over the state grid ``(X, Y)``, one per slice time."""
    worst = -1.0
    arg_t, arg_x = 0.0, (0.0, 0.0)
    per_slice: dict[float, float] = {}
    for t, res in zip(times, residuals):
        j = np.unravel_index(int(np.argmax(res)), res.shape)
        per_slice[float(t)] = float(res[j])
        if res[j] > worst:
            worst = float(res[j])
            arg_t, arg_x = float(t), (float(X[j]), float(Y[j]))
    return ResidualReport(label=label, max_residual=worst, argmax_t=arg_t, argmax_x=arg_x,
                          grid=grid.describe(), per_slice=per_slice)


def hjb_residual_principal(
    v: QuadraticValueFn,
    params: ModelParams,
    grid: GridSpec | None = None,
) -> ResidualReport:
    """Max residual of the principal's reduced PDE on the verification grid.

    Evaluates f(x) - g(x) + dv/dt + 0.5*(sigma1^2 v11 + sigma2^2 v22)
    + 0.5*(m1 v1^2 + m2 v2^2) slice by slice, with dv/dt rebuilt from stencil
    derivatives of the stored coefficient trajectories.  Params without a
    principal raise :class:`WrongKind`; a ``v`` solved for another kind or
    horizon raises :class:`ConfigMismatch`, and one on fewer than 6 nodes
    :class:`OutOfRange` naming ``n_nodes``.
    """
    grid, X1, X2, times, nodes = _slicing(v, params, grid, *PRINCIPAL_KINDS)
    m1, m2 = gradient_couplings(params)
    s1, s2 = params.sigma1 * params.sigma1, params.sigma2 * params.sigma2
    states = np.stack([X1, X2], axis=-1)
    flow = model.revenue_f(params, states) - model.social_cost_g(params, states)

    def residual(k: int) -> np.ndarray:
        a11, a12, a22, b1, b2 = (col[k] for col in v.columns[:5])
        d11, d12, d22, db1, db2, dc = (sampled_time_derivative(col, v.grid.dt, k) for col in v.columns)
        dv_dt = (0.5 * (d11 * X1 * X1 + 2.0 * d12 * X1 * X2 + d22 * X2 * X2)
                 + db1 * X1 + db2 * X2 + dc)
        v1 = a11 * X1 + a12 * X2 + b1
        v2 = a12 * X1 + a22 * X2 + b2
        return np.abs(
            flow + dv_dt
            + 0.5 * (s1 * a11 + s2 * a22)
            + 0.5 * (m1 * v1 * v1 + m2 * v2 * v2)
        )

    return _report("principal_hjb", grid, times, map(residual, nodes), X1, X2)


# column j of the firm-swapped game's Nash trajectory is column _FIRM_SWAP[j] of
# this one: A <-> Bt, B <-> At, C <-> Ct, D <-> Et, E <-> Dt, F <-> Ft
_FIRM_SWAP = [7, 6, 8, 10, 9, 11, 1, 0, 2, 4, 3, 5]


def _nash_firm1_residual(game: ModelParams, row: np.ndarray, der: np.ndarray, x, y) -> np.ndarray:
    """|Firm 1's value-PDE residual| at (x, y), from one node's twelve
    coefficients ``row`` and their time derivatives ``der``."""
    s1, s2 = game.sigma1 * game.sigma1, game.sigma2 * game.sigma2
    e1, g1, g2 = game.eta1, game.gamma1, game.gamma2
    p0, p1, p2 = game.p0, game.p1, game.p2
    A, B, C, D, E, _F, _At, Bt, Ct, _Dt, Et, _Ft = row
    a2 = -g2 * (Ct * x + Bt * y + Et)
    w_dot = (0.5 * der[0] * x * x + 0.5 * der[1] * y * y + der[2] * x * y
             + der[3] * x + der[4] * y + der[5])
    wx = A * x + C * y + D
    wy = B * y + C * x + E
    return np.abs(
        w_dot
        + 0.5 * s1 * (e1 * wx * wx + A)
        + 0.5 * s2 * (e1 * wy * wy + B)
        + a2 * wy
        + (p0 - p1 * x * x - p2 * x * y)
        - 0.5 * g1 * wx * wx
    )


def hjb_residual_nash(
    coeffs: NashCoeffs,
    params: ModelParams,
    grid: GridSpec | None = None,
) -> tuple[ResidualReport, ResidualReport]:
    """Residuals of both firms' value PDEs with the opponent feedback injected.

    Firm 1's residual is

        W1_t + 0.5*s1*(e1*W1_x^2 + W1_xx) + 0.5*s2*(e1*W1_y^2 + W1_yy)
        + a2*W1_y + p0 - p1*x^2 - p2*x*y - 0.5*g1*W1_x^2

    with a2 = -g2*(Ct*x + Bt*y + Et).  Firm 2's is the same expression in the
    firm-swapped game: the firms' sigma, eta, gamma and p1 <-> p2 exchanged,
    x <-> y, and the coefficient columns permuted.  Params of another kind
    raise :class:`WrongKind`; ``coeffs`` solved on another horizon raise
    :class:`ConfigMismatch`, and on fewer than 6 nodes :class:`OutOfRange`
    naming ``n_nodes``.
    """
    grid, X, Y, times, nodes = _slicing(coeffs, params, grid, Kind.TWO_FIRM_NASH)
    swapped = replace(params, sigma1=params.sigma2, sigma2=params.sigma1, eta1=params.eta2,
                      eta2=params.eta1, gamma1=params.gamma2, gamma2=params.gamma1,
                      p1=params.p2, p2=params.p1)
    values, dt = coeffs.values, coeffs.grid.dt
    return tuple(
        _report(f"nash_hjb_firm{firm}", grid, times,
                (_nash_firm1_residual(game, values[k][cols], sampled_time_derivative(values, dt, k)[cols], x, y)
                 for k in nodes), X, Y)
        for firm, game, cols, x, y in ((1, params, slice(None), X, Y), (2, swapped, _FIRM_SWAP, Y, X)))


def sup_consistency(
    params: ModelParams,
    grad_v: Sequence[float],
    m: tuple[float, float] | None = None,
) -> float:
    """Gap between the brute-force maximum of h and its closed form.

    The closed form is 0.5*(m1 + eta_p*sigma1^2)*v1^2 + 0.5*(m2 + eta_p*sigma2^2)*v2^2.
    ``m`` overrides the derived couplings, which lets callers demonstrate that
    an alternative sign choice fails this gate.
    """
    v = np.asarray(grad_v, dtype=float)
    if m is None:
        m = gradient_couplings(params)
    s1, s2 = params.sigma1 * params.sigma1, params.sigma2 * params.sigma2
    closed = 0.5 * ((m[0] + params.eta_p * s1) * (v[0] * v[0])
                    + (m[1] + params.eta_p * s2) * (v[1] * v[1]))
    _z, value = oracle_rates(params, v)
    return abs(value - closed)
