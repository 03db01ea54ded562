"""Optimal incentive rates and the linear-quadratic reduction of the principal's problem.

The principal pays each agent a flow whose sensitivities to the observed state
increments are the incentive rates z.  Substituting the induced efforts
``a_i = gamma_i * z_ii`` into the principal's dynamic program leaves a
pointwise concave-quadratic drift objective h(z; Dv) to maximize:

single-firm (one agent, rates z1, z2)::

    h = sum_i [ (gamma_i + sigma_i^2*eta_p) * v_i * z_i
                - 0.5*(sigma_i^2*eta_p + gamma_i + eta_a*sigma_i^2) * z_i^2 ]

two-firm (rates z11, z12, z21, z22; firm i is paid z_ij per unit of dX^j)::

    h = gamma_1*z11*v1 + gamma_2*z22*v2
        - 0.5*(gamma_1*z11^2 + gamma_2*z22^2)
        - 0.5*(eta_1*sigma_1^2*z11^2 + eta_1*sigma_2^2*z12^2
               + eta_2*sigma_2^2*z22^2 + eta_2*sigma_1^2*z21^2)
        - 0.5*eta_p*(sigma_1^2*(z11+z21)^2 + sigma_2^2*(z22+z12)^2)
        + eta_p*sigma_1^2*(z11+z21)*v1 + eta_p*sigma_2^2*(z22+z12)*v2

Completing squares in h gives the closed-form maximizers implemented here;
:func:`argmax_oracle` maximizes h numerically so every closed form can be
checked against a path that never uses calculus.  The maximum of h, written as
``0.5*(m_i + eta_p*sigma_i^2)*v_i^2`` per coordinate, defines the gradient
coupling matrix M = diag(m1, m2) of the reduced PDE

    0 = 0.5 x.Qx + L.x + q0 + dv/dt + 0.5 Tr(Sigma Sigma^T D^2 v) + 0.5 Dv.M Dv

whose quadratic data (Q, L, q0) expand the net flow f(x) - g(x).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import MaximizerOnBoundary, OracleNotConverged, WrongKind
from .model import Kind, ModelParams

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
EPS = float(np.finfo(float).eps)
MAX_CYCLES = 200  # coordinate cycles of argmax_oracle before it gives up
_HALF_WIDTH = 10.0  # argmax_oracle's first box, [-10, 10] per coordinate
_TOL = 1e-10  # how far its golden-section brackets may still move the point


@dataclass(frozen=True)
class EffectiveRiskAversion:
    """Harmonic risk-aversion combinations of agents with the principal.

    eta_bar_i = eta_p*eta_i / (eta_p + eta_i) and
    eta_ip = eta_p / (eta_i + eta_p); both vanish as eta_p -> 0.
    """

    eta_bar_1: float
    eta_bar_2: float
    eta_1p: float
    eta_2p: float


@dataclass(frozen=True)
class SingleFirmRates:
    z1: float
    z2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.z1, self.z2])


@dataclass(frozen=True)
class TwoFirmRates:
    z11: float
    z12: float
    z21: float
    z22: float

    def as_array(self) -> np.ndarray:
        return np.array([self.z11, self.z12, self.z21, self.z22])


IncentiveRates = SingleFirmRates | TwoFirmRates


@dataclass(frozen=True)
class ContractLQG:
    """Quadratic data of the principal's reduced PDE.

    Q (symmetric 2x2), L (2-vector) and q0 expand f(x) - g(x); M and Sigma are
    diagonal 2x2 matrices holding the gradient couplings m_i and volatilities.
    """

    Q: np.ndarray
    L: np.ndarray
    q0: float
    M: np.ndarray
    Sigma: np.ndarray


def _require_kind(params: ModelParams, *kinds: Kind) -> None:
    if params.kind not in kinds:
        allowed = ", ".join(k.value for k in kinds)
        raise WrongKind(f"operation requires model kind in {{{allowed}}}, got {params.kind.value}")


def effective_aversions(params: ModelParams) -> EffectiveRiskAversion:
    _require_kind(params, Kind.TWO_FIRM_REGULATED)
    ep, e1, e2 = params.eta_p, params.eta1, params.eta2
    return EffectiveRiskAversion(
        eta_bar_1=ep * e1 / (ep + e1),
        eta_bar_2=ep * e2 / (ep + e2),
        eta_1p=ep / (e1 + ep),
        eta_2p=ep / (e2 + ep),
    )


def lambda_pair(params: ModelParams) -> tuple[float, float]:
    """Risk-sharing ratios (Lambda_12, Lambda_21), each in (0, 1] for sigma >= 0.

    Lambda_12 = (gamma_1 + eta_bar_2*sigma_1^2) / (gamma_1 + (eta_1 + eta_bar_2)*sigma_1^2)
    and symmetrically for Lambda_21.
    """
    _require_kind(params, Kind.TWO_FIRM_REGULATED)
    av = effective_aversions(params)
    s1, s2 = params.sigma1 ** 2, params.sigma2 ** 2
    lam12 = (params.gamma1 + av.eta_bar_2 * s1) / (params.gamma1 + (params.eta1 + av.eta_bar_2) * s1)
    lam21 = (params.gamma2 + av.eta_bar_1 * s2) / (params.gamma2 + (params.eta2 + av.eta_bar_1) * s2)
    return lam12, lam21


@functools.lru_cache(maxsize=64)
def _rate_factors(params: ModelParams, ndim: int) -> tuple[np.ndarray, ...]:
    """Per-coordinate factors of the closed-form rates, as read-only columns
    that broadcast along the first axis of an ``ndim``-dimensional gradient:
    (r1, r2) for the single firm with z_i* = r_i*v_i, and the pairs
    (Lambda_12, Lambda_21) and (eta_1p, eta_2p) for two firms.  Cached
    because :func:`rates_single` and :func:`rates_two` look them up on every
    call; a simulation binds them once per run.
    """
    shape = (2,) + (1,) * (ndim - 1)
    if params.kind is Kind.SINGLE_FIRM:
        sq = (params.sigma1 * params.sigma1, params.sigma2 * params.sigma2)
        factors = ([(g + s * params.eta_p) / (s * params.eta_p + g + params.eta_a * s)
                    for g, s in zip((params.gamma1, params.gamma2), sq)],)
    else:
        av = effective_aversions(params)
        factors = (lambda_pair(params), (av.eta_1p, av.eta_2p))
    columns = tuple(np.reshape(f, shape) for f in factors)
    for c in columns:
        c.flags.writeable = False
    return columns


def _closed_form_rates(factors: tuple, v: np.ndarray, out: np.ndarray, cross: bool = True) -> np.ndarray:
    """Unchecked rates of the gradients ``v`` from :func:`_rate_factors` at ``v.ndim``,
    into ``out`` laid out as :func:`rates_single` or :func:`rates_two` (by the
    number of factors) lay them out; ``cross=False`` skips the cross rates."""
    if len(factors) == 1:
        return np.multiply(factors[0], v, out=out)
    own = np.multiply(factors[0], v, out=out[0])  # Lambda_ij * v_i
    if cross:  # eta_ip * (v_j - z_jj)
        np.multiply(factors[1], np.subtract(v[::-1], own[::-1], out=out[1]), out=out[1])
    return out


def rates_single(params: ModelParams, grad_v: Sequence[float], out=None) -> SingleFirmRates:
    """Optimal single-firm rates z_i* = (gamma_i + sigma_i^2*eta_p) v_i / (sigma_i^2*eta_p + gamma_i + eta_a*sigma_i^2).

    ``grad_v`` is one gradient (v1, v2) or a batch with the components on the
    first axis.  ``out``, shaped like ``grad_v``, receives (z1, z2) stacked on
    the first axis; it is allocated when None.
    """
    _require_kind(params, Kind.SINGLE_FIRM)
    v = np.asarray(grad_v, dtype=float)
    z = _closed_form_rates(_rate_factors(params, v.ndim), v, np.empty(v.shape) if out is None else out)
    return SingleFirmRates(z1=z[0], z2=z[1])


def rates_two(params: ModelParams, grad_v: Sequence[float], out=None) -> TwoFirmRates:
    """Optimal two-firm rates.

    Own rates z_ii* = Lambda_ij * v_i; cross rates z_ij* = eta_ip * (v_j - z_jj*),
    the amount of the other firm's residual exposure the principal shifts onto
    firm i.  ``grad_v`` is one gradient (v1, v2) or a batch with the
    components on the first axis.  ``out``, of shape ``(2, *grad_v.shape)``,
    receives the own rates (z11, z22) in ``out[0]`` and the cross rates
    (z12, z21) in ``out[1]``; it is allocated when None.
    """
    _require_kind(params, Kind.TWO_FIRM_REGULATED)
    v = np.asarray(grad_v, dtype=float)
    own, cross = _closed_form_rates(_rate_factors(params, v.ndim), v,
                                    np.empty((2,) + v.shape) if out is None else out)
    return TwoFirmRates(z11=own[0], z12=cross[0], z21=cross[1], z22=own[1])


def hamiltonian_h(params: ModelParams, z, grad_v: Sequence[float]) -> float:
    """Drift objective h(z; Dv) of the principal, before maximization.

    ``z`` is an :class:`IncentiveRates` instance or a flat sequence ((z1, z2)
    for the single-firm model, (z11, z12, z21, z22) for the two-firm model).
    The state does not enter: every x-dependent term of the principal's drift
    cancels against the payment flow.
    """
    _require_kind(params, Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED)
    v1, v2 = float(grad_v[0]), float(grad_v[1])
    za = z.as_array() if isinstance(z, (SingleFirmRates, TwoFirmRates)) else z
    s1, s2 = params.sigma1 ** 2, params.sigma2 ** 2
    ep = params.eta_p

    if params.kind is Kind.SINGLE_FIRM:
        z1, z2 = float(za[0]), float(za[1])
        quad1 = s1 * z1 * z1
        quad2 = s2 * z2 * z2
        return (
            params.gamma1 * z1 * v1 + params.gamma2 * z2 * v2
            + ep * (s1 * z1 * v1 + s2 * z2 * v2)
            - 0.5 * ep * (quad1 + quad2)
            - 0.5 * (params.gamma1 * z1 * z1 + params.gamma2 * z2 * z2)
            - 0.5 * params.eta_a * (quad1 + quad2)
        )

    z11, z12, z21, z22 = (float(za[0]), float(za[1]), float(za[2]), float(za[3]))
    e1, e2 = params.eta1, params.eta2
    pooled1 = z11 + z21
    pooled2 = z22 + z12
    return (
        params.gamma1 * z11 * v1 + params.gamma2 * z22 * v2
        - 0.5 * (params.gamma1 * z11 * z11 + params.gamma2 * z22 * z22)
        - 0.5 * (e1 * s1 * z11 * z11 + e1 * s2 * z12 * z12
                 + e2 * s2 * z22 * z22 + e2 * s1 * z21 * z21)
        - 0.5 * ep * (s1 * pooled1 * pooled1 + s2 * pooled2 * pooled2)
        + ep * (s1 * pooled1 * v1 + s2 * pooled2 * v2)
    )


def _golden_section_max(objective: Callable[[Sequence[float]], float], z: list[float],
                        direction: list[float], lo: float, hi: float) -> list[float]:
    """Best point ``z + alpha*direction``, alpha in [lo, hi], of an objective
    unimodal along that line: golden-section search on alpha until the
    bracket moves the point by no more than ``_TOL``."""
    pairs = list(zip(z, direction))

    def at(alpha: float) -> list[float]:
        return [zi + alpha * di for zi, di in pairs]

    tol = _TOL / max(max(map(abs, direction)), _TOL)
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = objective(at(c)), objective(at(d))
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = objective(at(c))
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = objective(at(d))
    return at(0.5 * (a + b))


def argmax_oracle(objective: Callable[[Sequence[float]], float], dim: int) -> tuple[np.ndarray, float]:
    """Brute-force maximizer of a strictly concave quadratic of ``dim`` variables.

    The objective must be unimodal along every line, as a strictly concave
    function is; nothing else about it is used.  Cyclic coordinate ascent on
    the box [-10, 10]^dim from its centre: each coordinate step
    golden-sections its coordinate over the whole box down to 1e-10, and
    each cycle ends with the same search along the cycle's displacement,
    which collapses the slow geometric tail of coordinate ascent under
    cross-coupling.  A coordinate refined onto the box edge doubles the box
    and restarts the search; at half-width 1e4 it raises
    :class:`MaximizerOnBoundary` instead.

    The search stops after the first cycle whose sweep raises the objective by
    no more than its rounding resolution, ``4*eps*max(|h|, |h - h0|)``, with
    ``eps`` the float64 machine epsilon, ``h`` the objective after the sweep
    and ``h0`` its value at the box centre where the search starts.  Both
    magnitudes scale with the objective, so the rule does not depend on its
    units.  Comparing values alone cannot place the top of a quadratic closer
    than about ``sqrt(eps)`` (1.5e-8) times its scale, since nearer than that
    the differences drown in rounding; so the 1e-10 only bounds each
    golden-section bracket, not the accuracy of the returned point.  After
    ``MAX_CYCLES`` cycles without such a stop it raises
    :class:`OracleNotConverged`, naming the last cycle's movement and gain.

    Returns ``(z_hat, value)``.  Never differentiates the objective and never
    consults any closed form, so it serves as an independent check of them.
    """
    half = _HALF_WIDTH
    axes = [[float(i == k) for i in range(dim)] for k in range(dim)]

    while True:
        z = [0.0] * dim
        try:
            for cycle in range(MAX_CYCLES):
                z_start = z
                h_start = objective(z)
                if cycle == 0:
                    h_first = h_start
                for k in range(dim):
                    z = _golden_section_max(objective, z, axes[k], -half - z[k], half - z[k])
                    if half - abs(z[k]) < 2e-6 * half:
                        raise MaximizerOnBoundary(
                            f"coordinate {k} refined onto the box edge {z[k]:g}")
                h_end = objective(z)
                gain = h_end - h_start
                # rounding resolution of h: its value and its rise from the
                # box centre bound the size of the terms it sums
                if gain <= 4.0 * EPS * max(abs(h_end), abs(h_end - h_first)):
                    return np.array(z), h_end
                # along the cycle's displacement, from its start to as far as
                # 8 displacements on while that stays in the box
                direction = [zi - zs for zi, zs in zip(z, z_start)]
                alpha_hi = min([8.0] + [(math.copysign(half, di) - zi) / di
                                        for zi, di in zip(z, direction) if di != 0.0])
                z = _golden_section_max(objective, z, direction, -1.0, alpha_hi)
            raise OracleNotConverged(MAX_CYCLES, max(map(abs, direction)), gain)
        except MaximizerOnBoundary:
            if half >= 1e4:
                raise
            half *= 2.0


def oracle_rates(params: ModelParams, grad_v: Sequence[float]) -> tuple[np.ndarray, float]:
    """Maximize the model's drift objective numerically; returns (rates, max value)."""
    dim = 2 if params.kind is Kind.SINGLE_FIRM else 4
    return argmax_oracle(lambda z: hamiltonian_h(params, z, grad_v), dim=dim)


def gradient_couplings(params: ModelParams) -> tuple[float, float]:
    """Coefficients m_i with sup_z h = 0.5*sum_i (m_i + eta_p*sigma_i^2) v_i^2.

    Derived by completing the square in h; the subtraction of the effective
    aversion term (eta_bar_j for the two-firm model) is the sign that survives
    the brute-force check in :func:`decarb.verify.sup_consistency`.
    """
    _require_kind(params, Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED)
    s1, s2 = params.sigma1 ** 2, params.sigma2 ** 2
    ep = params.eta_p
    if params.kind is Kind.SINGLE_FIRM:
        ea = params.eta_a
        m1 = (params.gamma1 + s1 * ep) ** 2 / (s1 * ep + params.gamma1 + ea * s1) - ep * s1
        m2 = (params.gamma2 + s2 * ep) ** 2 / (s2 * ep + params.gamma2 + ea * s2) - ep * s2
        return m1, m2
    av = effective_aversions(params)
    m1 = (params.gamma1 + av.eta_bar_2 * s1) ** 2 / (params.gamma1 + (params.eta1 + av.eta_bar_2) * s1) \
        - av.eta_bar_2 * s1
    m2 = (params.gamma2 + av.eta_bar_1 * s2) ** 2 / (params.gamma2 + (params.eta2 + av.eta_bar_1) * s2) \
        - av.eta_bar_1 * s2
    return m1, m2


def quadratic_flow_coefficients(params: ModelParams) -> tuple[np.ndarray, np.ndarray, float]:
    """Expand f(x) - g(x) as 0.5*x.Qx + L.x + q0 for the active sign convention."""
    _require_kind(params, Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED)
    p0, p1, p2 = params.p0, params.p1, params.p2
    kap, lam, dlt = params.kappa, params.lambda_, params.delta

    if params.kind is Kind.SINGLE_FIRM and params.literal_signs:
        # f = (p0 - p1 x1 + p2 x2)(x1 + x2), g = 0.5*kap*x1^2 + lam*(x1+x2-dlt)^2
        Q = np.array([
            [-2.0 * p1 - kap - 2.0 * lam, -p1 + p2 - 2.0 * lam],
            [-p1 + p2 - 2.0 * lam, 2.0 * p2 - 2.0 * lam],
        ])
        L = np.array([p0 + 2.0 * lam * dlt, p0 + 2.0 * lam * dlt])
        q0 = -lam * dlt * dlt
    elif params.kind is Kind.SINGLE_FIRM:
        # f = (p0 - p1 x1 - p2 x2)(x1 + x2), g = 0.5*kap*x1^2 + 0.5*lam*(x1+x2-dlt)^2
        Q = np.array([
            [-2.0 * p1 - kap - lam, -(p1 + p2) - lam],
            [-(p1 + p2) - lam, -2.0 * p2 - lam],
        ])
        L = np.array([p0 + lam * dlt, p0 + lam * dlt])
        q0 = -0.5 * lam * dlt * dlt
    else:
        # penalized coordinate is x2 in the two-firm model
        Q = np.array([
            [-2.0 * p1 - lam, -(p1 + p2) - lam],
            [-(p1 + p2) - lam, -2.0 * p2 - kap - lam],
        ])
        L = np.array([p0 + lam * dlt, p0 + lam * dlt])
        q0 = -0.5 * lam * dlt * dlt
    return Q, L, q0


def assemble_lqg(params: ModelParams) -> ContractLQG:
    """Assemble the reduced PDE data (Q, L, q0, M, Sigma) for a principal model."""
    Q, L, q0 = quadratic_flow_coefficients(params)
    m1, m2 = gradient_couplings(params)
    return ContractLQG(
        Q=Q,
        L=L,
        q0=q0,
        M=np.diag([m1, m2]),
        Sigma=np.diag([params.sigma1, params.sigma2]),
    )
