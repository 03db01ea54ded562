"""Backward integration of the principal's matrix Riccati system.

With v(t,x) = 0.5 x.A(t)x + B(t).x + C(t) and zero terminal data, the reduced
PDE collapses to

    dA/dt = -Q - A M A,                A(T) = 0,
    dB/dt = -L - A M B,                B(T) = 0,
    dC/dt = -0.5 Tr(Sigma Sigma^T A) - 0.5 B.M B - q0,   C(T) = 0.

The constant equation carries the flow constant q0 so that v solves the PDE
exactly, which the Monte Carlo value-matching tests rely on.  M and Sigma are
diagonal, so the system runs as six scalar unknowns (A11, A12, A22, B1, B2, C)
on plain floats, by fixed-step classic Runge-Kutta marching from T down to 0;
a Riccati escape (any coefficient beyond 1e12) raises
:class:`decarb.errors.BlowUp` with the time it was detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .contract import ContractLQG, assemble_lqg, rates_single, rates_two, IncentiveRates
from .errors import BlowUp, OutOfHorizon, OutOfRange
from .model import Kind, ModelParams

BLOWUP_LIMIT = 1e12
_BLOCK = 256  # RK4 steps stored and checked together


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes on [0, t_end], endpoints included."""

    t_end: float
    n_nodes: int = 1001

    def __post_init__(self):
        if not self.t_end > 0.0:
            raise OutOfRange("t_end", f"t_end must be > 0, got {self.t_end!r}")
        if self.n_nodes < 2:
            raise OutOfRange("n_nodes", f"n_nodes must be at least 2, got {self.n_nodes!r}")

    @property
    def dt(self) -> float:
        return self.t_end / (self.n_nodes - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_nodes)


def rk4_stage_times(grid: TimeGrid) -> list[float]:
    """Every time at which :func:`rk4_backward` evaluates ``rhs`` on this grid.

    Built with the integrator's own float expressions (``t``, ``t + half``,
    ``t + h``), so a table of time-dependent inputs keyed by these values
    matches each ``rhs`` call exactly.
    """
    h = -grid.dt
    half = 0.5 * h
    return [s for t in grid.nodes[1:].tolist() for s in (t, t + half, t + h)]


def rk4_backward(
    rhs: Callable[[float, Sequence[float]], Sequence[float]],
    terminal: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """March du/dt = rhs(t, u) from u(T) = terminal back to t = 0.

    ``rhs(t, u)`` takes the state as a sequence of floats and returns its
    derivative as a sequence of floats of the same length; it is called at
    the times :func:`rk4_stage_times` lists.  Returns the trajectory on all
    grid nodes, shape (n_nodes, len(terminal)), row k holding u(t_k).  The
    terminal row is the terminal data bit for bit.

    Rows are collected in blocks of ``_BLOCK`` steps, each stored with one
    slice assignment and checked at once.  :class:`BlowUp` reports the first
    node, in marching order, with a coefficient beyond ``BLOWUP_LIMIT``, NaN
    or inf: the node a check after every step would report.  Float ``+``,
    ``-`` and ``*`` give inf or NaN rather than raise, so marching on past an
    escape to the end of its block changes nothing.  If ``rhs`` raises, the
    rows marched so far are checked first: an escape among them raises
    :class:`BlowUp` at its node, and otherwise the exception propagates.
    """
    terminal = np.asarray(terminal, dtype=float)
    n = grid.n_nodes
    nodes = grid.nodes.tolist()
    h = -grid.dt
    half, sixth = 0.5 * h, h / 6.0
    out = np.empty((n, terminal.size))
    out[-1] = terminal
    u = terminal.tolist()
    for top in range(n - 1, 0, -_BLOCK):
        rows = []
        try:
            for k in range(top, max(top - _BLOCK, 0), -1):
                t = nodes[k]
                t_mid = t + half
                k1 = rhs(t, u)
                k2 = rhs(t_mid, [x + half * d for x, d in zip(u, k1)])
                k3 = rhs(t_mid, [x + half * d for x, d in zip(u, k2)])
                k4 = rhs(t + h, [x + h * d for x, d in zip(u, k3)])
                u = [x + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                     for x, d1, d2, d3, d4 in zip(u, k1, k2, k3, k4)]
                rows.append(u)
        except Exception:
            _check_block(np.array(rows), nodes, top - 1)
            raise
        block = np.array(rows)
        _check_block(block, nodes, top - 1)
        out[top - len(rows):top] = block[::-1]
    return out


def _check_block(block: np.ndarray, nodes: list[float], first: int) -> None:
    """Raise BlowUp at the first escaped row; row i holds u at node ``first - i``."""
    ok = np.abs(block) <= BLOWUP_LIMIT  # also catches NaN and inf
    if not ok.all():
        i = int(np.argmin(ok.all(axis=1)))
        raise BlowUp(nodes[first - i])


def centered_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order centered difference along axis 0 at nodes 2 .. n-3."""
    return (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (12.0 * dt)


@dataclass(frozen=True)
class QuadraticValueFn:
    """Time-sampled quadratic value function of a principal model.

    A has shape (n_nodes, 2, 2) and stays symmetric; B is (n_nodes, 2); C is
    (n_nodes,).  Evaluation interpolates coefficients linearly between nodes
    (O(dt^2), far below the solver's accuracy needs at the default grid).
    """

    grid: TimeGrid
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    kind: Kind | None = None

    def _locate(self, t: float) -> tuple[int, int, float]:
        T = self.grid.t_end
        if t < -1e-12 or t > T + 1e-12:
            raise OutOfHorizon(f"t = {t:.6g} outside [0, {T:.6g}]")
        s = min(max(t, 0.0), T) / self.grid.dt
        k = min(int(s), self.grid.n_nodes - 2)
        return k, k + 1, s - k

    def coeffs_at(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Interpolated (A(t), B(t), C(t))."""
        k0, k1, w = self._locate(t)
        return (
            (1.0 - w) * self.A[k0] + w * self.A[k1],
            (1.0 - w) * self.B[k0] + w * self.B[k1],
            (1.0 - w) * self.C[k0] + w * self.C[k1],
        )

    def value_and_gradient(self, t: float, x) -> tuple[float, np.ndarray]:
        A, B, C = self.coeffs_at(t)
        x = np.asarray(x, dtype=float)
        grad = A @ x + B
        return 0.5 * float(x @ A @ x) + float(B @ x) + C, grad

    def value(self, t: float, x) -> float:
        return self.value_and_gradient(t, x)[0]

    def gradient(self, t: float, x) -> np.ndarray:
        return self.value_and_gradient(t, x)[1]

    def hessian(self, t: float) -> np.ndarray:
        return self.coeffs_at(t)[0]


def solve_lqg(
    lqg: ContractLQG,
    horizon: float,
    n_nodes: int = 1001,
    kind: Kind | None = None,
) -> QuadraticValueFn:
    """Integrate the Riccati system for given quadratic PDE data (M and Sigma diagonal)."""
    for name, mat in (("M", lqg.M), ("Sigma", lqg.Sigma)):
        if mat[0, 1] != 0.0 or mat[1, 0] != 0.0:
            raise OutOfRange(name, f"{name} must be diagonal, got {mat.tolist()}")
    q11, q12, q22 = float(lqg.Q[0, 0]), 0.5 * float(lqg.Q[0, 1] + lqg.Q[1, 0]), float(lqg.Q[1, 1])
    l1, l2 = map(float, lqg.L)
    m1, m2 = np.diag(lqg.M).tolist()
    d1, d2 = (s * s for s in np.diag(lqg.Sigma).tolist())
    q0 = float(lqg.q0)
    grid = TimeGrid(horizon, n_nodes)

    def rhs(_t: float, u: Sequence[float]) -> tuple[float, ...]:
        a11, a12, a22, b1, b2, _c = u
        return (
            -q11 - (m1 * a11 * a11 + m2 * a12 * a12),
            -q12 - (m1 * a11 * a12 + m2 * a12 * a22),
            -q22 - (m1 * a12 * a12 + m2 * a22 * a22),
            -l1 - (m1 * a11 * b1 + m2 * a12 * b2),
            -l2 - (m1 * a12 * b1 + m2 * a22 * b2),
            -0.5 * (d1 * a11 + d2 * a22) - 0.5 * (m1 * b1 * b1 + m2 * b2 * b2) - q0,
        )

    traj = rk4_backward(rhs, np.zeros(6), grid)
    A = traj[:, [0, 1, 1, 2]].reshape(-1, 2, 2)
    return QuadraticValueFn(grid=grid, A=A, B=traj[:, 3:5], C=traj[:, 5], kind=kind)


def solve_principal(params: ModelParams, n_nodes: int = 1001) -> QuadraticValueFn:
    """Solve the principal's value function for a single- or two-firm model."""
    return solve_lqg(assemble_lqg(params), params.horizon, n_nodes, kind=params.kind)


def rate_profile(params: ModelParams, v: QuadraticValueFn, t: float, x) -> IncentiveRates:
    """Optimal incentive rates at (t, x): the closed forms applied to Dv(t,x)."""
    grad = v.gradient(t, x)
    if params.kind is Kind.SINGLE_FIRM:
        return rates_single(params, grad)
    return rates_two(params, grad)


def coefficient_table(v: QuadraticValueFn) -> np.ndarray:
    """Trajectory as rows (t, A11, A12, A22, B1, B2, C) for CSV export."""
    return np.column_stack([
        v.grid.nodes,
        v.A[:, 0, 0], v.A[:, 0, 1], v.A[:, 1, 1],
        v.B[:, 0], v.B[:, 1], v.C,
    ])
