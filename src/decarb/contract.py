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
:func:`argmax_oracle` maximizes h numerically, by coordinate ascent with Brent
line searches that only compare and interpolate values of h, so every closed
form can be checked against a path that never uses calculus.  The maximum of
h, written as ``0.5*(m_i + eta_p*sigma_i^2)*v_i^2`` per coordinate, defines the
gradient coupling matrix M = diag(m1, m2) of the reduced PDE

    0 = 0.5 x.Qx + L.x + q0 + dv/dt + 0.5 Tr(Sigma Sigma^T D^2 v) + 0.5 Dv.M Dv

whose quadratic data (Q, L, q0) expand the net flow f(x) - g(x).  The rates
and the couplings both read one table of per-coordinate constants,
:func:`_rate_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import MaximizerOnBoundary, OracleNotConverged
from .model import Kind, ModelParams, _require_kind

EPS = float(np.finfo(float).eps)
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section fraction of a bracket
_SQRT_EPS = math.sqrt(EPS)
MAX_CYCLES = 200  # coordinate cycles of argmax_oracle before it gives up
_HALF_WIDTH = 10.0  # argmax_oracle's first box, [-10, 10] per coordinate
_TOL = 1e-10  # how far its line searches' brackets may still move the point


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

    Q (symmetric 2x2), L (2-vector) and q0 expand f(x) - g(x); m and sigma
    are the diagonals (m1, m2) and (sigma1, sigma2) of M and Sigma.
    """

    Q: np.ndarray
    L: np.ndarray
    q0: float
    m: tuple[float, float]
    sigma: tuple[float, float]


def effective_aversions(params: ModelParams) -> EffectiveRiskAversion:
    _require_kind(params, Kind.TWO_FIRM_REGULATED)
    ep, e1, e2 = params.eta_p, params.eta1, params.eta2
    return EffectiveRiskAversion(
        eta_bar_1=ep * e1 / (ep + e1),
        eta_bar_2=ep * e2 / (ep + e2),
        eta_1p=ep / (e1 + ep),
        eta_2p=ep / (e2 + ep),
    )


def _rate_table(params: ModelParams) -> tuple[tuple[float, float, float], ...]:
    """Per coordinate i, the constants (a_i, b_i, c_i) of the completed
    squares in h: z_ii* = (a_i/b_i)*v_i and m_i = a_i^2/b_i - c_i.

    Single firm: a = gamma + sigma^2*eta_p, b = sigma^2*eta_p + gamma + eta_a*sigma^2,
    c = eta_p*sigma^2.  Two firms: a = gamma_i + eta_bar_j*sigma_i^2,
    b = gamma_i + (eta_i + eta_bar_j)*sigma_i^2, c = eta_bar_j*sigma_i^2, with j
    the other firm.
    """
    # squares as products, never ** 2 (see gradient_couplings)
    gs = ((params.gamma1, params.sigma1 * params.sigma1), (params.gamma2, params.sigma2 * params.sigma2))
    if params.kind is Kind.SINGLE_FIRM:
        ep, ea = params.eta_p, params.eta_a
        return tuple((g + s * ep, s * ep + g + ea * s, ep * s) for g, s in gs)
    av = effective_aversions(params)
    return tuple((g + eb * s, g + (e + eb) * s, eb * s)
                 for (g, s), e, eb in zip(gs, (params.eta1, params.eta2), (av.eta_bar_2, av.eta_bar_1)))


def _rate_factors(params: ModelParams, ndim: int) -> tuple[np.ndarray, ...]:
    """Per-coordinate factors of the closed-form rates, as columns that
    broadcast along the first axis of an ``ndim``-dimensional gradient: the
    own factors a_i/b_i of :func:`_rate_table` ((Lambda_12, Lambda_21) for two
    firms), then for two firms the cross factors (eta_1p, eta_2p).
    """
    shape = (2,) + (1,) * (ndim - 1)
    own = np.reshape([a / b for a, b, _ in _rate_table(params)], shape)
    if params.kind is Kind.SINGLE_FIRM:
        return (own,)
    av = effective_aversions(params)
    return own, np.reshape((av.eta_1p, av.eta_2p), shape)


def lambda_pair(params: ModelParams) -> tuple[float, float]:
    """Risk-sharing ratios (Lambda_12, Lambda_21), each in (0, 1] for sigma >= 0.

    Lambda_12 = (gamma_1 + eta_bar_2*sigma_1^2) / (gamma_1 + (eta_1 + eta_bar_2)*sigma_1^2)
    and symmetrically for Lambda_21.
    """
    _require_kind(params, Kind.TWO_FIRM_REGULATED)
    lam12, lam21 = _rate_factors(params, 1)[0].tolist()
    return lam12, lam21


def _closed_form_rates(factors: tuple, v: np.ndarray) -> np.ndarray:
    """Unchecked rates of the gradients ``v`` from :func:`_rate_factors` at ``v.ndim``,
    laid out as :func:`rates_single` or :func:`rates_two` (by the number of
    factors) lay them out."""
    own = factors[0] * v  # Lambda_ij * v_i
    if len(factors) == 1:
        return own
    return np.stack([own, factors[1] * (v[::-1] - own[::-1])])  # eta_ip * (v_j - z_jj)


def rates_single(params: ModelParams, grad_v: Sequence[float]) -> SingleFirmRates:
    """Optimal single-firm rates z_i* = (gamma_i + sigma_i^2*eta_p) v_i / (sigma_i^2*eta_p + gamma_i + eta_a*sigma_i^2).

    ``grad_v`` is one gradient (v1, v2) or a batch with the components on the
    first axis.
    """
    _require_kind(params, Kind.SINGLE_FIRM)
    v = np.asarray(grad_v, dtype=float)
    z = _closed_form_rates(_rate_factors(params, v.ndim), v)
    return SingleFirmRates(z1=z[0], z2=z[1])


def rates_two(params: ModelParams, grad_v: Sequence[float]) -> TwoFirmRates:
    """Optimal two-firm rates.

    Own rates z_ii* = Lambda_ij * v_i; cross rates z_ij* = eta_ip * (v_j - z_jj*),
    the amount of the other firm's residual exposure the principal shifts onto
    firm i.  ``grad_v`` is one gradient (v1, v2) or a batch with the
    components on the first axis.
    """
    _require_kind(params, Kind.TWO_FIRM_REGULATED)
    v = np.asarray(grad_v, dtype=float)
    own, cross = _closed_form_rates(_rate_factors(params, v.ndim), v)
    return TwoFirmRates(z11=own[0], z12=cross[0], z21=cross[1], z22=own[1])


def hamiltonian_h(params: ModelParams, z: Sequence[float], grad_v: Sequence[float]) -> float:
    """Drift objective h(z; Dv) of the principal, before maximization.

    ``z`` is a flat sequence: (z1, z2) for the single-firm model, (z11, z12,
    z21, z22) for the two-firm model.  The state does not enter: every
    x-dependent term of the principal's drift cancels against the payment flow.
    """
    kind = params.kind
    if kind is not Kind.SINGLE_FIRM and kind is not Kind.TWO_FIRM_REGULATED:
        _require_kind(params, Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED)
    v1, v2 = float(grad_v[0]), float(grad_v[1])
    s1, s2 = params.sigma1 * params.sigma1, params.sigma2 * params.sigma2
    g1, g2, ep = params.gamma1, params.gamma2, params.eta_p

    if kind is Kind.SINGLE_FIRM:
        z1, z2 = float(z[0]), float(z[1])
        quad1 = s1 * z1 * z1
        quad2 = s2 * z2 * z2
        return (
            g1 * z1 * v1 + g2 * z2 * v2
            + ep * (s1 * z1 * v1 + s2 * z2 * v2)
            - 0.5 * ep * (quad1 + quad2)
            - 0.5 * (g1 * z1 * z1 + g2 * z2 * z2)
            - 0.5 * params.eta_a * (quad1 + quad2)
        )

    z11, z12, z21, z22 = (float(z[0]), float(z[1]), float(z[2]), float(z[3]))
    e1, e2 = params.eta1, params.eta2
    pooled1 = z11 + z21
    pooled2 = z22 + z12
    return (
        g1 * z11 * v1 + g2 * z22 * v2
        - 0.5 * (g1 * z11 * z11 + g2 * z22 * z22)
        - 0.5 * (e1 * s1 * z11 * z11 + e1 * s2 * z12 * z12
                 + e2 * s2 * z22 * z22 + e2 * s1 * z21 * z21)
        - 0.5 * ep * (s1 * pooled1 * pooled1 + s2 * pooled2 * pooled2)
        + ep * (s1 * pooled1 * v1 + s2 * pooled2 * v2)
    )


def _line_max(objective: Callable[[Sequence[float]], float], z: list[float], fz: float,
              direction: list[float], lo: float, hi: float) -> tuple[list[float], float]:
    """Best point ``z + alpha*direction``, alpha in [lo, hi] (which holds 0),
    of an objective unimodal along that line, and its value; ``fz`` is the
    objective at ``z``.

    Brent's bounded search on alpha from alpha = 0 (*Algorithms for
    Minimization without Derivatives*, 1973, ch. 5): a step to the vertex of
    the parabola through the three best points so far where that vertex lies
    inside the bracket and the step is under half the step before last, a
    golden-section step into the larger side of the bracket otherwise.  A
    point ``u`` replaces the best one only if its value is strictly higher:
    by unimodality the maximum lies on the best point's side of ``u`` when
    the value at ``u`` is equal as much as when it is lower, and counting
    equal values so ends the search quickly once rounding flattens the top.

    It stops once the bracket lies within ``_TOL + 2*sqrt(eps)*|z|`` of the
    best point on both sides, with ``|z|`` the best point's largest
    component, in units of the largest component of ``direction``: Brent's
    stopping rule with absolute tolerance ``_TOL/2`` and relative tolerance
    ``sqrt(eps)``, taken relative to the point rather than to ``alpha``.
    Comparisons of values cannot place the top closer than that, so a line
    whose maximum already sits at alpha = 0 ends in a few evaluations
    instead of shrinking its bracket to ``_TOL`` by golden steps.  For the
    same reason, the first golden step taken once one side of the bracket
    is within that tolerance becomes a probe one tolerance into the wide
    side: when the top is already found, that side collapses at once,
    where golden steps took about 20 evaluations to shrink it.
    """
    pairs = list(zip(z, direction))
    scale = 1.0 / max(max(map(abs, direction)), _TOL)
    tol = 0.5 * _TOL * scale
    rel = _SQRT_EPS * scale * max(map(abs, z))  # the relative tolerance at the best point
    a, b = lo, hi
    x = w = v = 0.0
    fx = fw = fv = fz
    zx = z
    d = e = 0.0  # the last step and the one before it
    probed = False
    while True:
        m = 0.5 * (a + b)
        tol1 = tol + rel
        if max(x - a, b - x) <= 2.0 * tol1:
            return zx, fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if (x + d) - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                    d = tol1 if x < m else -tol1
        if not parabolic:
            e = (b - x) if x < m else (a - x)
            d = _GOLDEN_STEP * e
            if not probed and min(x - a, b - x) <= 2.0 * tol1:
                d, probed = math.copysign(tol1, e), True
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        zu = [zi + u * di for zi, di in pairs]
        fu = objective(zu)
        if fu > fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw = w, fw, x, fx
            x, fx, zx = u, fu, zu
            rel = _SQRT_EPS * scale * max(map(abs, zu))
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def argmax_oracle(objective: Callable[[Sequence[float]], float], dim: int) -> tuple[np.ndarray, float]:
    """Brute-force maximizer of a strictly concave quadratic of ``dim`` variables.

    The objective must be unimodal along every line, as a strictly concave
    function is; nothing else about it is used.  Cyclic coordinate ascent on
    the box [-10, 10]^dim from its centre: each coordinate step is a Brent
    line search (parabolic interpolation of objective values with a
    golden-section fallback) of its coordinate over the whole box down to
    1e-10 plus 1.5e-8 times the point's largest component (see
    :func:`_line_max`), and each cycle ends with the same search along the
    cycle's displacement, which collapses the slow geometric tail of
    coordinate ascent under cross-coupling.  A coordinate refined onto the box edge
    doubles the box and restarts the search; at half-width 1e4 it raises
    :class:`MaximizerOnBoundary` instead.

    The search stops after the first cycle whose sweep raises the objective by
    no more than its rounding resolution, ``4*eps*max(|h|, |h - h0|)``, with
    ``eps`` the float64 machine epsilon, ``h`` the objective after the sweep
    and ``h0`` its value at the box centre where the search starts.  Both
    magnitudes scale with the objective, so the rule does not depend on its
    units.  Comparing values alone cannot place the top of a quadratic closer
    than about ``sqrt(eps)`` (1.5e-8) times its scale, since nearer than that
    the differences drown in rounding; so that bound on each line search's
    bracket is not the accuracy of the returned point.  After
    ``MAX_CYCLES`` cycles without such a stop it raises
    :class:`OracleNotConverged`, naming the last cycle's movement and gain.

    Returns ``(z_hat, value)``.  Never differentiates the objective and never
    consults any closed form, so it serves as an independent check of them.
    """
    half = _HALF_WIDTH
    axes = [[float(i == k) for i in range(dim)] for k in range(dim)]

    while True:
        z = [0.0] * dim
        h = h_first = objective(z)
        try:
            for _ in range(MAX_CYCLES):
                z_start, h_start = z, h
                for k in range(dim):
                    z, h = _line_max(objective, z, h, axes[k], -half - z[k], half - z[k])
                    if half - abs(z[k]) < 2e-6 * half:
                        raise MaximizerOnBoundary(
                            f"coordinate {k} refined onto the box edge {z[k]:g}")
                gain = h - h_start
                # rounding resolution of h: its value and its rise from the
                # box centre bound the size of the terms it sums
                if gain <= 4.0 * EPS * max(abs(h), abs(h - h_first)):
                    return np.array(z), h
                # along the cycle's displacement, from its start to as far as
                # 8 displacements on while that stays in the box
                direction = [zi - zs for zi, zs in zip(z, z_start)]
                alpha_hi = min([8.0] + [(math.copysign(half, di) - zi) / di
                                        for zi, di in zip(z, direction) if di != 0.0])
                z, h = _line_max(objective, z, h, direction, -1.0, alpha_hi)
            raise OracleNotConverged(MAX_CYCLES, max(map(abs, direction)), gain)
        except MaximizerOnBoundary:
            if half >= 1e4:
                raise
            half *= 2.0


def oracle_rates(params: ModelParams, grad_v: Sequence[float]) -> tuple[np.ndarray, float]:
    """Maximize the model's drift objective numerically; returns (rates, max value)."""
    dim = 2 if params.kind is Kind.SINGLE_FIRM else 4
    v = (float(grad_v[0]), float(grad_v[1]))
    return argmax_oracle(lambda z: hamiltonian_h(params, z, v), dim=dim)


def gradient_couplings(params: ModelParams) -> tuple[float, float]:
    """Coefficients m_i with sup_z h = 0.5*sum_i (m_i + eta_p*sigma_i^2) v_i^2.

    Derived by completing the square in h; the subtraction of the effective
    aversion term (eta_bar_j for the two-firm model) is the sign that survives
    the brute-force check in :func:`decarb.verify.sup_consistency`.  The
    squares are products, which IEEE arithmetic rounds correctly; ``a ** 2``
    calls libm's ``pow``, which can miss by one unit in the last place.
    """
    _require_kind(params, Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED)
    (a1, b1, c1), (a2, b2, c2) = _rate_table(params)
    return a1 * a1 / b1 - c1, a2 * a2 / b2 - c2


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
    else:
        # f = (p0 - p1 x1 - p2 x2)(x1 + x2), g = 0.5*kap*x_d^2 + 0.5*lam*(x1+x2-dlt)^2
        # with x_d = x1 for the single firm and x2 for two firms; x - 0.0 is exact
        k1, k2 = (kap, 0.0) if params.kind is Kind.SINGLE_FIRM else (0.0, kap)
        Q = np.array([
            [-2.0 * p1 - k1 - lam, -(p1 + p2) - lam],
            [-(p1 + p2) - lam, -2.0 * p2 - k2 - lam],
        ])
        L = np.array([p0 + lam * dlt, p0 + lam * dlt])
        q0 = -0.5 * lam * dlt * dlt
    return Q, L, q0


def assemble_lqg(params: ModelParams) -> ContractLQG:
    """Assemble the reduced PDE data (Q, L, q0, m, sigma) for a principal model."""
    Q, L, q0 = quadratic_flow_coefficients(params)
    return ContractLQG(Q=Q, L=L, q0=q0, m=gradient_couplings(params), sigma=(params.sigma1, params.sigma2))
