"""Every config type and firm index checks its fields with the shared checks.

The regression cases are inputs the library once accepted as something else
or failed on with a raw TypeError.  The property tests feed arbitrary JSON-like
values to each numeric field and require acceptance exactly for a finite real
(an integer, for counts) in range, and otherwise an OutOfRange naming the field.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decarb import (
    ConfigMismatch,
    Deviation,
    OutOfRange,
    SimConfig,
    best_response,
    certainty_surface,
    feedback_strategies,
    hjb_residual_nash,
    hjb_residual_principal,
    nash,
    rk4_backward,
    simulate_nash,
    simulate_principal,
    solve_nash,
    solve_principal,
    validate_params,
)
from decarb.riccati import OdeTable, TimeGrid
from decarb.verify import GridSpec
from conftest import NASH_FIXTURE, SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE

NASH = validate_params(NASH_FIXTURE)
SINGLE_FIRM = validate_params(SINGLE_FIRM_FIXTURE)
TWO_FIRM = validate_params(TWO_FIRM_FIXTURE)

LIBRARY_CASES = [
    pytest.param("seed", lambda: SimConfig(seed=1.5), id="SimConfig-seed-1.5"),
    pytest.param("seed", lambda: SimConfig(seed=True), id="SimConfig-seed-True"),
    pytest.param("antithetic", lambda: SimConfig(antithetic="no"), id="SimConfig-antithetic-text"),
    pytest.param("n_paths", lambda: SimConfig(n_paths=4.0), id="SimConfig-n_paths-4.0"),
    pytest.param("dt", lambda: SimConfig(dt=float("nan")), id="SimConfig-dt-nan"),
    pytest.param("dt", lambda: SimConfig(dt="0.1"), id="SimConfig-dt-text"),
    pytest.param("y0", lambda: SimConfig(y0=float("nan")), id="SimConfig-y0-nan"),
    pytest.param("n_nodes", lambda: TimeGrid(1.0, 2.5), id="TimeGrid-n_nodes-2.5"),
    pytest.param("n_nodes", lambda: TimeGrid(1.0, 3.0), id="TimeGrid-n_nodes-3.0"),
    pytest.param("firm", lambda: best_response(NASH, True, 0.5, 11), id="best_response-True"),
    pytest.param("firm", lambda: best_response(NASH, 1.0, 0.5, 11), id="best_response-1.0"),
    pytest.param("firm", lambda: certainty_surface(solve_nash(NASH, 11), True, 0.0, 0.0, 0.0),
                 id="certainty_surface-True"),
    pytest.param("firm", lambda: certainty_surface(solve_nash(NASH, 11), 1.0, 0.0, 0.0, 0.0),
                 id="certainty_surface-1.0"),
    pytest.param("firm", lambda: NASH.gamma(True), id="gamma-True"),
    pytest.param("firm", lambda: NASH.gamma(1.0), id="gamma-1.0"),
    pytest.param("firm", lambda: Deviation(firm=True), id="Deviation-firm-True"),
    pytest.param("scale", lambda: Deviation(1, scale=float("inf")), id="Deviation-scale-inf"),
]


@pytest.mark.parametrize("field, build", LIBRARY_CASES)
def test_library_boundary_names_field(field, build):
    with pytest.raises(OutOfRange) as exc:
        build()
    assert exc.value.field == field


# booleans, text, None, floats with NaN and infinities, integers inside and
# beyond the float range, and lists of such scalars
_SCALARS = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10, 10),
    st.integers(min_value=2 ** 1024),
    st.integers(max_value=-2 ** 1024),
)
VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))


def finite(value) -> bool:
    """A real number, not a bool, that a float holds finitely; drawn integers
    are either small or beyond the float range."""
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return abs(value) < 2 ** 1024
    return isinstance(value, float) and math.isfinite(value)


def count(value, minimum, maximum=math.inf) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and minimum <= value <= maximum


def finite_list(value, length=None) -> bool:
    return (isinstance(value, list) and length in (None, len(value))
            and all(map(finite, value)))


def check_boundary(build, value, accepted: bool, field: str) -> None:
    if accepted:
        build(value)
        return
    with pytest.raises(OutOfRange) as exc:
        build(value)
    assert exc.value.field == field


POSITIVE = {"gamma1", "gamma2", "sigma1", "sigma2", "horizon", "eta_a", "eta1", "eta2", "eta_p"}
NON_NEGATIVE = {"p0", "p1", "p2", "kappa", "lambda"}
PARAM_FIELDS = [(fixture, key) for fixture in (SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE, NASH_FIXTURE)
                for key in fixture if key != "kind"]


@pytest.mark.parametrize("fixture, key", PARAM_FIELDS,
                         ids=[f"{f['kind']}-{k}" for f, k in PARAM_FIELDS])
@settings(max_examples=15, deadline=None)
@given(value=VALUES)
def test_validate_params_accepts_exactly_finite_reals_in_range(fixture, key, value):
    accepted = finite(value) and (value > 0 if key in POSITIVE
                                  else value >= 0 if key in NON_NEGATIVE else True)
    check_boundary(lambda v: validate_params(dict(fixture, **{key: v})), value, accepted,
                   "lambda_" if key == "lambda" else key)


SIM_RULES = {
    # antithetic sampling, the default, pairs the paths
    "n_paths": lambda v: count(v, 2, np.iinfo(np.intp).max) and v % 2 == 0,
    "dt": lambda v: finite(v) and v > 0,
    "seed": lambda v: count(v, -math.inf),
    "x0": lambda v: finite_list(v, 2),
    "y0": lambda v: finite_list(v) if isinstance(v, list) else finite(v),
    "antithetic": lambda v: isinstance(v, bool),
}


@pytest.mark.parametrize("field", SIM_RULES)
@settings(max_examples=40, deadline=None)
@given(value=VALUES)
def test_sim_config_accepts_exactly_valid_fields(field, value):
    check_boundary(lambda v: SimConfig(**{field: v}), value, SIM_RULES[field](value), field)


GRID_RULES = {
    "n_points": lambda v: count(v, 2),
    "n_time_slices": lambda v: count(v, 1),
    "x_min": lambda v: finite(v) and v < 2.0,  # the default x_max
    "x_max": lambda v: finite(v) and v > -2.0,  # the default x_min
}


@pytest.mark.parametrize("field", GRID_RULES)
@settings(max_examples=40, deadline=None)
@given(value=VALUES)
def test_grid_spec_accepts_exactly_valid_fields(field, value):
    # a finite x_min at or above x_max is an empty grid, which names x_max
    named = "x_max" if field == "x_min" and finite(value) else field
    check_boundary(lambda v: GridSpec(**{field: v}), value, GRID_RULES[field](value), named)


@settings(max_examples=60, deadline=None)
@given(t_end=VALUES, n_nodes=VALUES)
def test_time_grid_accepts_exactly_valid_fields(t_end, n_nodes):
    check_boundary(lambda v: TimeGrid(v, 11), t_end, finite(t_end) and t_end > 0, "t_end")
    check_boundary(lambda v: TimeGrid(1.0, v), n_nodes, count(n_nodes, 2), "n_nodes")


# sizes no array can have: numpy refuses them before allocating anything
HUGE = 2 ** 62
ONE = OdeTable("one", ("w",), (), ("1.0",))


def simulated(params, **cfg):
    """Simulate ``params``, solved on 11 nodes, with the settings ``cfg``."""
    cfg = SimConfig(**{"n_paths": 64, **cfg})
    if params.has_principal:
        return simulate_principal(params, solve_principal(params, 11), cfg)
    return simulate_nash(params, feedback_strategies(solve_nash(params, 11), params), cfg)


@pytest.mark.parametrize("field, error, run", [
    pytest.param("n_nodes", OutOfRange, lambda: rk4_backward(ONE, (), [0.0], TimeGrid(1.0, HUGE)),
                 id="rk4_backward"),
    pytest.param("n_nodes", OutOfRange, lambda: solve_principal(SINGLE_FIRM, HUGE), id="single-firm"),
    pytest.param("n_nodes", OutOfRange, lambda: solve_principal(TWO_FIRM, HUGE), id="two-firm"),
    pytest.param("n_nodes", OutOfRange, lambda: solve_nash(NASH, HUGE), id="solve_nash"),
    pytest.param("n_nodes", OutOfRange, lambda: best_response(NASH, 1, 0.5, HUGE), id="best_response"),
    pytest.param("n_points", OutOfRange,
                 lambda: hjb_residual_principal(solve_principal(TWO_FIRM, 11), TWO_FIRM, GridSpec(n_points=HUGE)),
                 id="hjb_residual_principal-n_points"),
    pytest.param("n_time_slices", OutOfRange,
                 lambda: hjb_residual_nash(solve_nash(NASH, 11), NASH, GridSpec(n_time_slices=HUGE)),
                 id="hjb_residual_nash-n_time_slices"),
    pytest.param("dt", ConfigMismatch, lambda: simulated(TWO_FIRM, dt=1e-300), id="principal-dt-1e-300"),
    pytest.param("dt", ConfigMismatch, lambda: simulated(NASH, dt=5e-324), id="nash-dt-5e-324"),
])
def test_size_beyond_any_array_names_field(field, error, run):
    with pytest.raises(error) as exc:
        run()
    assert exc.value.field == field


def refused(monkeypatch, name: str, size: int) -> None:
    """Let ``np.<name>`` raise MemoryError, as a machine without the memory
    does, when asked for an array of ``size`` elements."""
    allocate = getattr(np, name)

    def refusing(shape, *args, **kwargs):
        if int(np.prod(shape)) == size:
            raise MemoryError(f"cannot allocate {size} elements")
        return allocate(shape, *args, **kwargs)

    monkeypatch.setattr(np, name, refusing)


def out_of_memory(*args, **kwargs):
    raise MemoryError("cannot allocate")


@pytest.mark.parametrize("field, error, refuse, run", [
    pytest.param("n_nodes", OutOfRange, lambda mp: refused(mp, "empty", 11 * 6),
                 lambda: solve_principal(TWO_FIRM, 11), id="solve_principal"),
    pytest.param("n_nodes", OutOfRange, lambda mp: refused(mp, "zeros", 11 * 12),
                 lambda: solve_nash(NASH, 11), id="solve_nash"),
    pytest.param("n_nodes", OutOfRange, lambda mp: mp.setattr(nash, "rk4_stage_times", out_of_memory),
                 lambda: best_response(NASH, 1, 0.5, 11), id="best_response"),
    pytest.param("n_points", OutOfRange, lambda mp: mp.setattr(np, "meshgrid", out_of_memory),
                 lambda: hjb_residual_principal(solve_principal(TWO_FIRM, 11), TWO_FIRM),
                 id="hjb_residual_principal"),
    pytest.param("n_time_slices", OutOfRange, lambda mp: mp.setattr(GridSpec, "slice_times", out_of_memory),
                 lambda: hjb_residual_nash(solve_nash(NASH, 11), NASH), id="hjb_residual_nash"),
    pytest.param("n_paths", OutOfRange, lambda mp: refused(mp, "empty", 64),
                 lambda: simulated(TWO_FIRM, dt=0.1), id="n_paths"),
    pytest.param("dt", ConfigMismatch, lambda mp: refused(mp, "arange", 11),
                 lambda: simulated(NASH, dt=0.1), id="dt"),
])
def test_size_beyond_memory_names_field(monkeypatch, field, error, refuse, run):
    refuse(monkeypatch)
    with pytest.raises(error) as exc:
        run()
    assert exc.value.field == field
    assert isinstance(exc.value.__cause__, MemoryError)
