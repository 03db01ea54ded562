"""Model parameters and primitive economic functions.

Three related production models share one parameter container:

* ``SINGLE_FIRM`` -- one firm runs a polluting and a clean technology under a
  regulator's incentive payment.
* ``TWO_FIRM_REGULATED`` -- two competing firms, each paid by the regulator.
* ``TWO_FIRM_NASH`` -- two competing firms with no regulator.

All functions accept state vectors as array-likes whose last axis has length 2,
so they evaluate pointwise on batches of simulated states as well as on a
single ``(x1, x2)`` pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from .errors import ConfigMismatch, MissingField, OutOfRange, UnexpectedField, WrongKind, flag, integer, real


class Kind(enum.Enum):
    """Which of the three production models a parameter set describes."""

    SINGLE_FIRM = "single_firm"
    TWO_FIRM_REGULATED = "two_firm_regulated"
    TWO_FIRM_NASH = "two_firm_nash"


PRINCIPAL_KINDS = (Kind.SINGLE_FIRM, Kind.TWO_FIRM_REGULATED)


@dataclass(frozen=True)
class ModelParams:
    """Immutable scalar constants of one model instance.

    Attributes:
        kind: model variant, gates which optional fields must be present.
        gamma1, gamma2: effort efficiencies (> 0); effort a costs a^2/(2*gamma).
        sigma1, sigma2: diffusion volatilities of the two state processes (> 0).
        p0, p1, p2: price intercept and slopes (>= 0).
        horizon: terminal time T (> 0).
        eta_a: agent risk aversion, single-firm model only (> 0).
        eta1, eta2: per-firm risk aversions, two-firm models only (> 0).
        eta_p: principal risk aversion, absent for the Nash model (> 0).
        kappa, lambda_: social-cost weights (>= 0), principal models only.
        delta: social-cost production target (any real), principal models only.
        literal_signs: keep the single-firm model's alternate sign conventions
            (revenue slope +p2 on the clean technology and deviation weight
            lambda instead of lambda/2) instead of the default conventions
            shared with the two-firm models.

    Instances returned by :func:`validate_params` satisfy all range invariants.
    Direct construction skips validation; tests use it for limiting cases such
    as sigma = 0 that the validated domain excludes.
    """

    kind: Kind
    gamma1: float
    gamma2: float
    sigma1: float
    sigma2: float
    p0: float
    p1: float
    p2: float
    horizon: float
    eta_a: float | None = None
    eta1: float | None = None
    eta2: float | None = None
    eta_p: float | None = None
    kappa: float | None = None
    lambda_: float | None = None
    delta: float | None = None
    literal_signs: bool = False

    @property
    def has_principal(self) -> bool:
        return self.kind in PRINCIPAL_KINDS

    def agent_aversions(self) -> tuple[float, ...]:
        """Risk aversions of the agents, in firm order."""
        if self.kind is Kind.SINGLE_FIRM:
            return (self.eta_a,)
        return (self.eta1, self.eta2)

    def gamma(self, firm: int) -> float:
        return self.gamma1 if integer("firm", firm, 1, 2) == 1 else self.gamma2


def _require_kind(params: ModelParams, *kinds: Kind) -> None:
    """Raise :class:`WrongKind` unless ``params`` describes one of ``kinds``."""
    if params.kind not in kinds:
        allowed = ", ".join(k.value for k in kinds)
        raise WrongKind(f"operation requires model kind in {{{allowed}}}, got {params.kind.value}")


def _require_solved_for(params: ModelParams, what: str, t_end: float, kind: Kind | None = None) -> None:
    """Raise :class:`ConfigMismatch` unless ``what``, solved on [0, ``t_end``] for
    ``kind`` (None when it records none), belongs to ``params``: the same kind,
    and a horizon within 1e-9."""
    if kind is not None and kind is not params.kind:
        raise ConfigMismatch(f"{what} solved for {kind.value}, params are {params.kind.value}")
    if abs(t_end - params.horizon) > 1e-9:
        raise ConfigMismatch(f"{what} horizon {t_end} != params horizon {params.horizon}")


# Field sets per kind, beyond those common to every kind.
_COMMON = ("gamma1", "gamma2", "sigma1", "sigma2", "p0", "p1", "p2", "horizon")
_KIND_FIELDS = {
    Kind.SINGLE_FIRM: ("eta_a", "eta_p", "kappa", "lambda_", "delta"),
    Kind.TWO_FIRM_REGULATED: ("eta1", "eta2", "eta_p", "kappa", "lambda_", "delta"),
    Kind.TWO_FIRM_NASH: ("eta1", "eta2"),
}
_POSITIVE = ("gamma1", "gamma2", "sigma1", "sigma2", "horizon",
             "eta_a", "eta1", "eta2", "eta_p")
_NON_NEGATIVE = ("p0", "p1", "p2", "kappa", "lambda_")


def validate_params(raw: Mapping) -> ModelParams:
    """Build validated :class:`ModelParams` from a flat mapping.

    Accepts ``"lambda"`` as a spelling of ``lambda_``, and as ``kind`` a
    :class:`Kind` or one of its three values.  Rejects missing or
    unexpected fields for the declared kind, numeric fields that are not real
    numbers (booleans and strings included), non-finite numbers, values
    violating sign constraints, and a ``literal_signs`` that is not a bool;
    errors name the offending field.
    """
    data = dict(raw)
    if "lambda" in data:
        if "lambda_" in data:
            raise UnexpectedField("lambda", "both 'lambda' and 'lambda_' supplied")
        data["lambda_"] = data.pop("lambda")

    kind_raw = data.pop("kind", None)
    if kind_raw is None:
        raise MissingField("kind")
    try:
        kind = Kind(kind_raw)
    except ValueError:
        raise OutOfRange("kind", f"unknown model kind {kind_raw!r}, expected one of "
                                 f"{', '.join(k.value for k in Kind)}") from None

    literal_signs = flag("literal_signs", data.pop("literal_signs", False))

    required = _COMMON + _KIND_FIELDS[kind]
    known = {f.name for f in fields(ModelParams)} - {"kind", "literal_signs"}
    for name in data:
        if name not in known:
            raise UnexpectedField(name, f"unknown field '{name}'")
        if name not in required:
            raise UnexpectedField(name)

    values = {}
    for name in required:
        if name not in data:
            raise MissingField(name)
        values[name] = real(name, data[name], positive=name in _POSITIVE,
                            non_negative=name in _NON_NEGATIVE)

    return ModelParams(kind=kind, literal_signs=literal_signs, **values)


def _split_state(x) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1] != 2:
        raise OutOfRange("x", f"state vector must have last axis 2, got shape {arr.shape}")
    return arr[..., 0], arr[..., 1]


def price(params: ModelParams, x):
    """Common price factor p0 - p1*x1 - p2*x2, the one :func:`revenue_f` uses
    (+p2*x2 for the single firm under ``literal_signs``)."""
    x1, x2 = _split_state(x)
    return _price_factor(params, x1, x2, np.empty(x1.shape), np.empty(x1.shape))[()]


def _price_factor(params: ModelParams, x1, x2, out, scratch):
    np.multiply(params.p1, x1, out=out)
    np.subtract(params.p0, out, out=out)
    np.multiply(params.p2, x2, out=scratch)
    # Single-firm literal convention flips the slope of the clean technology.
    if params.literal_signs and params.kind is Kind.SINGLE_FIRM:
        return np.add(out, scratch, out=out)
    return np.subtract(out, scratch, out=out)


def revenue_f(params: ModelParams, x, per_firm: bool = False, out=None, scratch=None):
    """Revenue flow: the price factor times the produced quantity.

    By default the quantity is x1 + x2, the whole market.  ``per_firm=True``
    gives the two firm revenues, each weighted by its own coordinate, stacked
    on a last axis of length 2 like the state.  ``out`` receives the result
    and ``scratch``, shaped like one state coordinate, holds an intermediate;
    each is allocated when None.
    """
    x1, x2 = _split_state(x)
    if per_firm:
        out = np.empty(x1.shape + (2,)) if out is None else out
        f1, f2 = out[..., 0], out[..., 1]
        p = _price_factor(params, x1, x2, f1, f2)
        np.multiply(p, x2, out=f2)
        np.multiply(p, x1, out=f1)
        return out
    out = np.empty(x1.shape) if out is None else out
    scratch = np.empty(x1.shape) if scratch is None else scratch
    p = _price_factor(params, x1, x2, out, scratch)
    return np.multiply(p, np.add(x1, x2, out=scratch), out=out)


def social_cost_g(params: ModelParams, x, out=None, scratch=None):
    """Regulator's running social cost.

    Default form for both principal models:
    ``0.5*kappa*x_d^2 + 0.5*lambda*(x1 + x2 - delta)^2`` where the penalized
    coordinate x_d is x1 for the single-firm model and x2 for the two-firm
    model.  Under ``literal_signs`` the single-firm deviation term carries
    weight lambda instead of lambda/2.  ``out`` receives the result and
    ``scratch``, shaped like it, holds an intermediate; each is allocated
    when None.
    """
    if params.kind not in PRINCIPAL_KINDS:
        _require_kind(params, *PRINCIPAL_KINDS)
    x1, x2 = _split_state(x)
    if params.kind is Kind.SINGLE_FIRM:
        xd = x1
        w = params.lambda_ if params.literal_signs else 0.5 * params.lambda_
    else:
        xd = x2
        w = 0.5 * params.lambda_
    out = np.empty(x1.shape) if out is None else out
    dev = np.empty(x1.shape) if scratch is None else scratch
    np.add(x1, x2, out=dev)
    np.subtract(dev, params.delta, out=dev)
    np.multiply(w, dev, out=out)
    np.multiply(out, dev, out=out)
    quad = np.multiply(0.5 * params.kappa, xd, out=dev)
    np.multiply(quad, xd, out=quad)
    return np.add(quad, out, out=out)

