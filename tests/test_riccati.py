import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decarb import (
    BlowUp,
    ContractLQG,
    Kind,
    OutOfHorizon,
    OutOfRange,
    TimeGrid,
    best_response,
    mc,
    nash,
    oracle_rates,
    rate_profile,
    rates_two,
    riccati,
    rk4_backward,
    solve_lqg,
    solve_nash,
    solve_principal,
    validate_params,
)
from decarb.nash import _BR_TABLES, _NASH
from decarb.riccati import BLOWUP_LIMIT, _BLOCK, _LQG, OdeTable, rk4_stage_times
from conftest import NASH_FIXTURE, SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE, reference_rk4, swap_firms

# rows of the six columns (A11, A12, A22, B1, B2, C) at 1001 nodes, recorded
# before the Riccati right-hand side moved from 2x2 matrix products to closed
# scalar form; the rounding may differ in the last bit
PRINCIPAL_1001_ROWS = {
    "two-firm": (TWO_FIRM_FIXTURE, {
        0: (-1.0110927296729613, -0.7572024815290328, -1.343913547764705,
            0.889180259300163, 0.8097636062742287, -0.03338528632320819),
        500: (-0.804464001618848, -0.6845297483068172, -1.0403528451507764,
              0.7226640286633724, 0.6997170071070457, -0.13759141640133105),
        999: (-0.0021999964200368474, -0.0019999961451817754, -0.0027999956551906656,
              0.0019999966343202157, 0.0019999963399847717, -0.0005000834144948539),
    }),
    "single-firm": (SINGLE_FIRM_FIXTURE, {
        0: (-1.323956124901045, -0.7397277838890112, -0.8894674829989997,
            0.707820586007507, 1.0447902532056779, -0.04120303924758687),
        500: (-1.1111496531559246, -0.6690246053644565, -0.666993504912559,
              0.6597722679615492, 0.7574855509342948, -0.13852152257374095),
        999: (-0.0031999937906047045, -0.001999995782945121, -0.0017999970617760023,
              0.0019999956606968237, 0.0019999969517524754, -0.0005000709146879467),
    }),
}


def make_lqg(Q=None, L=None, q0=0.0, m=(0.0, 0.0), sigma=(0.0, 0.0)) -> ContractLQG:
    return ContractLQG(
        Q=np.zeros((2, 2)) if Q is None else np.asarray(Q, float),
        L=np.zeros(2) if L is None else np.asarray(L, float),
        q0=q0,
        m=m,
        sigma=sigma,
    )


class TestTimeGrid:
    def test_nodes_hit_endpoints(self):
        g = TimeGrid(1.0, 5)
        np.testing.assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.dt == 0.25

    def test_invalid(self):
        with pytest.raises(OutOfRange):
            TimeGrid(0.0, 10)
        with pytest.raises(OutOfRange):
            TimeGrid(1.0, 1)

    @pytest.mark.parametrize("t_end, n_nodes, field", [
        (0.0, 10, "t_end"), (-1.0, 10, "t_end"), (float("nan"), 10, "t_end"),
        (1.0, 1, "n_nodes"), (1.0, -5, "n_nodes"),
    ])
    def test_invalid_names_field(self, t_end, n_nodes, field):
        with pytest.raises(OutOfRange) as exc:
            TimeGrid(t_end, n_nodes)
        assert exc.value.field == field


# da/dt = -(1 + a^2), a(T) = 0 has solution a(t) = tan(T - t)
TANGENT = OdeTable("tangent", ("w",), (), ("-(1.0 + w * w)",))
# a table whose derivative is its drive, read at rk4_stage_times
DRIVEN = OdeTable("driven", ("w",), (), ("x",), drive="x")


def tangent(grid: TimeGrid) -> np.ndarray:
    return rk4_backward(TANGENT, (), np.array([0.0]), grid)


class TestRK4:
    def test_zero_rhs_keeps_terminal(self):
        grid = TimeGrid(1.0, 11)
        zero = OdeTable("zero", ("w", "z"), (), ("0.0", "0.0"))
        traj = rk4_backward(zero, (), np.array([3.0, -2.0]), grid)
        assert np.all(traj == [3.0, -2.0])

    def test_scalar_riccati_tangent(self):
        traj = tangent(TimeGrid(0.5, 1001))
        assert abs(traj[0, 0] - math.tan(0.5)) <= 1e-9

    @pytest.mark.parametrize("n_nodes", [11, 21, 1001])
    def test_one_state_table_equals_reference(self, n_nodes):
        # the kernel must unpack a single state from its row ("_u0_1, = _u")
        grid = TimeGrid(0.5, n_nodes)
        want = reference_rk4(TANGENT.rhs(()), [0.0], grid)
        assert np.array_equal(tangent(grid), want)

    @pytest.mark.parametrize("n_nodes", [257, 258, 513, 514])
    @pytest.mark.parametrize("table, args", [
        (_LQG, (-1.0, -0.5, -1.5, 0.3, 0.2, 0.7, 0.4, 0.04, 0.09, -0.1)),
        (nash._nash_live(), (0.04, 0.09, 1.0, 1.0, 1.5, 1.0, 1.0, 0.6, 0.4)),
    ], ids=["lqg", "nash_live"])
    def test_block_edges_equal_reference(self, table, args, n_nodes):
        # 256, 257, 512 and 513 steps: a march that ends on a block edge or one
        # step past it, each block resuming from the last row of the one before
        grid = TimeGrid(1.0, n_nodes)
        terminal = np.linspace(-0.5, 0.5, len(table.states))
        want = reference_rk4(table.rhs(args), terminal, grid)
        assert np.array_equal(rk4_backward(table, args, terminal, grid), want)

    def test_stage_times_integrate_cubic_exactly(self):
        # RK4 on du/dt = f(t) is Simpson's rule, exact for cubics, so a
        # drive read at a wrong stage time shows at once
        grid = TimeGrid(1.0, 11)
        cubic = [3.0 * t * t for t in rk4_stage_times(grid)]
        traj = rk4_backward(DRIVEN, (), np.array([1.0]), grid, cubic)
        np.testing.assert_allclose(traj[:, 0], grid.nodes ** 3, rtol=0.0, atol=1e-14)

    def test_fourth_order_convergence(self):
        # measured on coarse grids; at 1000 steps the error is already at the
        # rounding floor and halving shows nothing
        def err(n):
            return abs(tangent(TimeGrid(0.5, n))[0, 0] - math.tan(0.5))

        assert err(11) / err(21) >= 12.0
        assert err(21) / err(41) >= 12.0

    def test_blow_up_detected_with_time(self):
        # tan escapes at T - t = pi/2, i.e. near t = 2 - pi/2 ~ 0.43
        with pytest.raises(BlowUp) as exc:
            tangent(TimeGrid(2.0, 2001))
        assert 0.3 < exc.value.t_escape < 0.5


def reference_escape(c: float, grid: TimeGrid):
    """Step-by-step RK4 on u' = -(c + u^2), u(T) = 0, checked after every step."""
    nodes = grid.nodes.tolist()
    h = -grid.dt
    half, sixth = 0.5 * h, h / 6.0
    u = 0.0
    for k in range(grid.n_nodes - 1, 0, -1):
        k1 = -(c + u * u)
        k2 = -(c + (u + half * k1) * (u + half * k1))
        k3 = -(c + (u + half * k2) * (u + half * k2))
        k4 = -(c + (u + h * k3) * (u + h * k3))
        u = u + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not abs(u) <= BLOWUP_LIMIT:
            return nodes[k - 1]
    return None


SHIFTED_TANGENT = OdeTable("shifted_tangent", ("w",), ("c",), ("-(c + w * w)",))


class TestBlockedBlowUpCheck:
    # nodes at the integers 0 .. 1000, so every stage time is exact; the
    # steps from nodes 1000 .. 1001 - _BLOCK form the first block
    GRID = TimeGrid(1000.0, 1001)

    @classmethod
    def driven(cls, f) -> np.ndarray:
        """March DRIVEN from 0 with the derivative ``f(t)`` at each stage time."""
        drive = [f(t) for t in rk4_stage_times(cls.GRID)]
        return rk4_backward(DRIVEN, (), np.array([0.0]), cls.GRID, drive)

    @classmethod
    def jump_below(cls, j) -> np.ndarray:
        """Zero down to node j and huge below it: u escapes at node j - 1."""
        return cls.driven(lambda t: -1e15 if t < j else 0.0)

    @pytest.mark.parametrize("escape", [
        900,                      # inside the first block
        1000 - _BLOCK,            # last row of the first block
        999 - _BLOCK,             # first row of the second block
        10, 0,                    # inside the final partial block, and its last row
    ])
    def test_escape_node_in_any_block_position(self, escape):
        with pytest.raises(BlowUp) as exc:
            self.jump_below(escape + 1)
        assert exc.value.t_escape == float(escape)

    def test_blocked_store_keeps_every_row(self):
        one = OdeTable("one", ("w",), (), ("1.0",))
        traj = rk4_backward(one, (), np.array([0.0]), self.GRID)
        np.testing.assert_array_equal(traj[:, 0], self.GRID.nodes - 1000.0)

    def test_nan_at_one_node(self):
        # the step into node 600 reads the drive at t = 600 in its last stage
        with pytest.raises(BlowUp) as exc:
            self.driven(lambda t: math.nan if t == 600.0 else 0.0)
        assert exc.value.t_escape == 600.0

    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(0.05, 50.0), horizon=st.floats(0.05, 6.0),
           n_nodes=st.integers(2, 3 * _BLOCK + 7))
    def test_escape_matches_step_by_step_check(self, c, horizon, n_nodes):
        grid = TimeGrid(horizon, n_nodes)
        want = reference_escape(c, grid)
        try:
            rk4_backward(SHIFTED_TANGENT, (c,), np.array([0.0]), grid)
            got = None
        except BlowUp as exc:
            got = exc.t_escape
        assert got == want


def record_rk4_calls(monkeypatch) -> list:
    """Route every solve's integrator call through a recorder, at the module
    attributes the solves look up, as a tracer wrapping them from outside does."""
    calls = []

    def recorder(table, args, terminal, grid, drive=None):
        calls.append((table, args, grid))
        return rk4_backward(table, args, terminal, grid, drive)

    for module in (riccati, nash):
        monkeypatch.setattr(module, "rk4_backward", recorder)
    return calls


class TestFusedKernel:
    def test_trajectory_is_column_major(self):
        # every column is contiguous, so np.interp and the CSV writer read it without a copy
        traj = rk4_backward(_LQG, (1.0,) * 10, np.zeros(6), TimeGrid(1.0, 2 * _BLOCK + 3))
        assert traj.flags.f_contiguous and traj.shape == (2 * _BLOCK + 3, 6)

    @pytest.mark.parametrize("fixture", [SINGLE_FIRM_FIXTURE, TWO_FIRM_FIXTURE])
    @pytest.mark.parametrize("n_nodes", [201, 1001])
    def test_lqg_equals_generic_stepper(self, monkeypatch, fixture, n_nodes):
        calls = record_rk4_calls(monkeypatch)
        v = solve_principal(validate_params(fixture), n_nodes)
        [(table, args, grid)] = calls
        assert table is riccati._LQG
        generic = reference_rk4(table.rhs(args), np.zeros(6), grid)
        assert np.array_equal(np.column_stack(v.columns), generic)

    def test_second_solve_does_not_compile(self, two_firm):
        solve_principal(two_firm, 201)
        before = riccati._compile.cache_info()
        solve_principal(two_firm, 201)
        after = riccati._compile.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 1

    def test_nothing_compiled_at_import(self):
        src = str(Path(riccati.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import decarb.cli, decarb.riccati as r; "
                "assert r._compile.cache_info().currsize == decarb.nash._nash_live.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], check=True)

    @pytest.mark.parametrize("states, derivs, consts, message", [
        (("w",), ("w ** 2",), (), "plain float"),             # ** can raise OverflowError
        (("w",), ("abs(w)",), (), "plain float"),             # calls
        (("w",), ("w (w)",), (), "plain float"),
        (("w",), ("w * x",), (), "plain float"),              # unknown name
        (("w",), ("w.real",), (), "plain float"),             # attributes
        (("w",), ("w",), (("k", "1.0 / w"),), "plain float"),  # division in a constant
        (("w",), ("w\n+ 1.0",), (), "plain float"),           # line breaks, which ast.parse rejects
        (("w",), ("w\n w",), (), "plain float"),
        (("w",), ("w\r+ 1.0",), (), "plain float"),
        (("w", "v"), ("w",), (), "clashing or malformed"),    # a state without a derivative
        (("w", "w"), ("w", "w"), (), "clashing or malformed"),
        ((), (), (), "clashing or malformed"),                # no state
        (("lambda",), ("lambda",), (), "clashing or malformed"),  # a keyword
        (("ﬁ", "fi"), ("fi", "fi"), (), "clashing or malformed"),  # one name once NFKC-normalized
        (("w",), ("w * 1j",), (), "plain float"),             # a complex literal
        (("w",), ("w + ٣",), (), "plain float"),              # a non-ASCII digit
        (("w",), ("1.0w",), (), "plain float"),
        (("w",), ("2",), (), "plain float"),                  # an int, which gives int values
        (("w",), ("w + " + "9" * 400,), (), "plain float"),   # an int too large for a float
    ])
    def test_table_must_be_plain_float_arithmetic(self, states, derivs, consts, message):
        with pytest.raises(ValueError, match=message):
            riccati._compile(OdeTable("bad", states, (), derivs, consts))

    @pytest.mark.parametrize("expr", [
        "w" + " + w" * 400,    # deep enough for the tree walks and ast.unparse to recurse too far
        "w" + " + w" * 3000,   # deep enough for ast.parse itself
        "-" * 100_000 + "w",   # deep enough for the parser's own stack
        "w" + " + w" * 100,    # one level past the bound
    ], ids=["sum400", "sum3000", "neg100000", "sum101"])
    def test_nesting_is_bounded(self, expr):
        for consts, deriv in (((), expr), ((("k", expr),), "k")):
            with pytest.raises(ValueError, match="'deep': an expression nests deeper than 100 levels"):
                riccati._compile(OdeTable("deep", ("w",), (), (deriv,), consts))

    def test_nesting_to_the_bound_compiles(self):
        # a sum of 100 terms nests 100 levels; so does 99 negations of a name
        table = OdeTable("deep", ("w", "v"), (), ("w" + " + w" * 99, "-" * 99 + "v"))
        assert table.rhs(())(0.0, (0.5, 2.0)) == (50.0, -2.0)
        traj = rk4_backward(table, (), np.array([1.0, 1.0]), TimeGrid(1e-3, 3))
        assert np.isfinite(traj).all()

    @pytest.mark.parametrize("consts", [
        (("k", "2.0 * w"),),                 # a state
        (("k", "2.0 * x"),),                 # the drive
        (("k", "2.0 * k"),),                 # itself
        (("k", "2.0 * m"), ("m", "c")),      # a later constant
    ])
    def test_constant_reads_params_and_earlier_constants_only(self, consts):
        with pytest.raises(ValueError, match="plain float"):
            riccati._compile(OdeTable("bad", ("w",), ("c",), ("w * k",), consts, "x"))

    def test_constant_reads_an_earlier_constant(self):
        # k = 2c and m = 3k: w' = m, so w(0) = w(T) - 6c T exactly in these binary fractions
        table = OdeTable("consts", ("w",), ("c",), ("m",), (("k", "2.0 * c"), ("m", "3.0 * k")))
        traj = rk4_backward(table, (0.5,), np.array([1.0]), TimeGrid(1.0, 5))
        np.testing.assert_array_equal(traj[:, 0], [-2.0, -1.25, -0.5, 0.25, 1.0])

    @pytest.mark.parametrize("table", [
        # the names of a builtin and of the step's own quantities are free
        OdeTable("free_names", ("h", "u", "range", "top"), ("half",), ("u", "-h", "half * range", "range - top")),
        # a state's name prefixed with d is another state's name
        OdeTable("x_dx", ("x", "dx"), (), ("0.0", "dx")),
    ], ids=lambda t: t.name)
    def test_any_other_names_march_equal_to_reference(self, table):
        grid = TimeGrid(1.0, 101)
        terminal = np.linspace(1.0, 0.25, len(table.states))
        args = (0.5,) * len(table.params)
        traj = rk4_backward(table, args, terminal, grid)
        assert np.array_equal(traj, reference_rk4(table.rhs(args), terminal, grid))
        if table.name == "x_dx":
            assert traj[0, 1] == pytest.approx(0.25 * math.exp(-1.0), rel=1e-9)

    @pytest.mark.parametrize("table, drive", [
        (DRIVEN, None),
        (DRIVEN, [0.0] * 29),
        (DRIVEN, [0.0] * 31),
        (TANGENT, [0.0] * 30),
    ], ids=["missing", "short", "long", "unread"])
    def test_drive_must_fit_the_table(self, table, drive):
        # a caller's bug, not a bad field: a plain ValueError before any march
        with pytest.raises(ValueError, match="drive") as exc:
            rk4_backward(table, (), np.array([0.0]), TimeGrid(1.0, 11), drive)
        assert type(exc.value) is ValueError


# the guard's property test draws tables from these states, and expressions
# that alternate operands and operators, each drawn either from the table's
# own names and arithmetic or from these tokens
GUARD_STATES = ["w", "v", "h", "u", "range", "j", "dw", "_w", "if", "top"]
GUARD_OPERANDS = ["w", "v", "h", "u", "range", "dw", "c", "k", "m", "x", "1.0", "2", "1j", "1e999", "9" * 400,
                  "٣", "if", "abs", "(", ")", "[0]", "-"]
GUARD_OPERATORS = ["+", "-", "*", "/", "**", "@", ",", "\n", "(", ")"]


@st.composite
def guard_tables(draw) -> OdeTable:
    states = draw(st.lists(st.sampled_from(GUARD_STATES), max_size=3, unique=True))
    params = draw(st.lists(st.sampled_from(["c", "a"]), unique=True))
    consts = draw(st.lists(st.sampled_from(["k", "m"]), unique=True))
    drive = draw(st.sampled_from([None, "x", "a"]))
    # two in three tokens from the table's own names and arithmetic
    own = st.sampled_from([*states, *params, *consts, *filter(None, [drive]), "1.0"])
    operands = st.sampled_from([own, own, st.sampled_from(GUARD_OPERANDS)]).flatmap(lambda s: s)
    arithmetic = st.sampled_from(["+", "-", "*"])
    operators = st.sampled_from([arithmetic, arithmetic, st.sampled_from(GUARD_OPERATORS)]).flatmap(lambda s: s)
    exprs = st.builds(lambda sep, first, rest: sep.join([first, *(t for pair in rest for t in pair)]),
                      st.sampled_from(["", " "]), operands, st.lists(st.tuples(operators, operands), max_size=2))
    return OdeTable("random", tuple(states), tuple(params), tuple(draw(exprs) for _ in states),
                    tuple((name, draw(exprs)) for name in consts), drive)


class TestGuard:
    @settings(max_examples=400, deadline=None)
    @given(table=guard_tables(), values=st.lists(st.floats(), min_size=6, max_size=6),
           n_nodes=st.integers(2, 20))
    def test_admits_only_plain_float_arithmetic(self, table, values, n_nodes):
        """A table the guard accepts evaluates to floats on any floats, and
        marches or escapes; any other raises ValueError."""
        try:
            riccati._compile(table)
        except ValueError:
            return
        width = len(table.states)
        args, x, terminal = values[:len(table.params)], values[2], values[3:3 + width]
        assert all(type(d) is float for d in table.rhs(args)(x, terminal))
        drive = [x] * (3 * n_nodes - 3) if table.drive else None
        try:
            rk4_backward(table, args, np.array(terminal), TimeGrid(1.0, n_nodes), drive)
        except BlowUp:
            pass


def outcome(march):
    """The rows ``march()`` returns, or the escape time it raises."""
    try:
        return march()
    except BlowUp as exc:
        return exc.t_escape


def bounded(lo, hi, n):
    return st.tuples(*[st.floats(lo, hi)] * n)


class TestKernelEqualsReference:
    """Each shipped table's compiled kernel against the reference stepper on
    its right-hand side, over random parameters and grids: every row equal bit
    for bit, or both escaping at the same node."""

    SETTINGS = settings(max_examples=40, deadline=None)
    GRIDS = dict(horizon=st.floats(0.05, 3.0), n_nodes=st.integers(2, 3 * _BLOCK + 7))
    # s1, s2 (squared volatilities); e1, e2, g1, g2; p0, p1, p2
    GAME = st.tuples(*[st.floats(0.01, 1.5)] * 2, *[st.floats(0.2, 3.0)] * 4, *[st.floats(0.0, 2.0)] * 3)

    @staticmethod
    def check(table, args, rhs, terminal, horizon, n_nodes, drive=None):
        grid = TimeGrid(horizon, n_nodes)
        got = outcome(lambda: rk4_backward(table, args, np.array(terminal), grid, drive))
        want = outcome(lambda: reference_rk4(rhs, terminal, grid))
        assert type(got) is type(want)
        assert np.array_equal(got, want)

    @SETTINGS
    @given(q=bounded(-3.0, 3.0, 5), m=bounded(-3.0, 3.0, 2), d=bounded(0.0, 2.0, 2),
           q0=st.floats(-1.0, 1.0), terminal=bounded(-1.0, 1.0, 6), **GRIDS)
    def test_lqg(self, q, m, d, q0, terminal, horizon, n_nodes):
        args = (*q, *m, *d, q0)
        self.check(_LQG, args, _LQG.rhs(args), terminal, horizon, n_nodes)

    @SETTINGS
    @given(args=GAME, **GRIDS)
    def test_nash(self, args, horizon, n_nodes):
        self.check(_NASH, args, _NASH.rhs(args), [0.0] * 12, horizon, n_nodes)

    @SETTINGS
    @given(firm=st.sampled_from([1, 2]), args=GAME, opponent=st.floats(-2.0, 2.0), **GRIDS)
    def test_best_response(self, firm, args, opponent, horizon, n_nodes):
        table = _BR_TABLES[firm]
        rhs = table.rhs(args)
        self.check(table, args, lambda t, u: rhs(opponent, u), [0.0] * 6, horizon, n_nodes,
                   [opponent] * (3 * n_nodes - 3))


# a product read three ways, (a * x) * y, a * (x * y) and x * a; the march may
# share only whole product nodes, a * x and x * y here
GROUPINGS = OdeTable("groupings", ("x", "y"), ("a",), ("a * x * y - x * a", "a * (x * y) + a * x - x * y"))


class TestMarchForm:
    def test_shares_whole_products_only(self):
        negated, shared, derivs = riccati._march_form(GROUPINGS)
        assert (negated, shared, derivs) == ({}, ["a * x", "x * y"], ["_0 * y - x * a", "a * _1 + _0 - _1"])

    def test_product_groupings_keep_their_bits(self):
        # a kernel that read a * x * y as a * (x * y) differs from the
        # reference wherever the two groupings round apart, as in these draws
        rng = np.random.default_rng(5)
        draws = [(float(rng.uniform(-2.0, 2.0)), rng.uniform(-1.0, 1.0, 2).tolist()) for _ in range(8)]
        assert any((a * x) * y != a * (x * y) for a, (x, y) in draws)
        for a, terminal in draws:
            TestKernelEqualsReference.check(GROUPINGS, (a,), GROUPINGS.rhs((a,)), terminal, 0.5, 101)

    def test_negated_parameters_become_constants(self):
        negated, _, derivs = riccati._march_form(_LQG)
        assert negated == {f"_{n}_neg": f"-{n}" for n in ("q11", "q12", "q22", "l1", "l2")}
        assert not any("-q" in d or "-l" in d for d in derivs)

    @pytest.mark.parametrize("table", [_LQG, nash._nash_live(), *_BR_TABLES.values()], ids=lambda t: t.name)
    def test_shipped_tables_share_four_products(self, table):
        assert len(riccati._march_form(table)[1]) == 4


class TestTracerContract:
    """perfbench's tracer times the ODE layer by wrapping ``rk4_backward`` at
    ``decarb.riccati`` and ``decarb.nash``; each solve must call it there, once."""

    @pytest.mark.parametrize("solve", [
        lambda: solve_principal(validate_params(TWO_FIRM_FIXTURE), 201),
        lambda: solve_nash(validate_params(NASH_FIXTURE), 201),
        lambda: best_response(validate_params(NASH_FIXTURE), 2, 0.5, 201),
    ], ids=["solve_principal", "solve_nash", "best_response"])
    def test_each_solve_calls_the_module_attribute_once(self, monkeypatch, solve):
        calls = record_rk4_calls(monkeypatch)
        solved = solve()
        assert [grid for _, _, grid in calls] == [solved.grid]


class TestSolveLQG:
    def test_linear_case_without_coupling(self):
        Q = np.array([[2.0, 0.5], [0.5, -1.0]])
        L = np.array([1.0, -3.0])
        v = solve_lqg(make_lqg(Q=Q, L=L), horizon=1.0, n_nodes=101)
        for k, t in enumerate(v.grid.nodes):
            np.testing.assert_allclose(v.A[k], Q * (1.0 - t), atol=1e-10)
            np.testing.assert_allclose(v.B[k], L * (1.0 - t), atol=1e-10)

    def test_constant_term_collects_trace_and_flow(self):
        # A = Q*(T-t) with M = 0, so dC/dt = -0.5*Tr(Sigma Sigma^T A) - q0
        Q = np.array([[1.0, 0.0], [0.0, 2.0]])
        v = solve_lqg(make_lqg(Q=Q, q0=0.25, sigma=(1.0, 1.0)), horizon=1.0, n_nodes=201)
        # C(0) = int_0^T [0.5*(Q11+Q22)*(T-s) + q0] ds = 0.5*3*0.5 + 0.25
        assert v.C[0] == pytest.approx(1.0, abs=1e-10)

    def test_matrix_riccati_blow_up(self):
        lqg = make_lqg(Q=4.0 * np.eye(2), m=(1.0, 1.0))
        with pytest.raises(BlowUp):
            solve_lqg(lqg, horizon=2.0, n_nodes=2001)


class TestSolvePrincipal:
    def test_zero_forcing(self):
        p = validate_params(dict(TWO_FIRM_FIXTURE, p0=0.0, p1=0.0, p2=0.0,
                                 kappa=0.0, delta=0.0, **{"lambda": 0.0}))
        v = solve_principal(p, 101)
        assert not v.A.any() and not v.B.any() and not v.C.any()

    def test_terminal_data_bitwise_zero(self, two_firm):
        v = solve_principal(two_firm, 201)
        assert np.all(v.A[-1] == 0.0) and np.all(v.B[-1] == 0.0) and v.C[-1] == 0.0

    def test_symmetry_preserved(self, two_firm):
        v = solve_principal(two_firm)
        gap = np.max(np.abs(v.A - np.transpose(v.A, (0, 2, 1))))
        assert gap <= 1e-12

    def test_horizon_consistency(self, two_firm):
        # autonomous coefficients: the tail of a long solve equals a short solve
        v_long = solve_principal(two_firm, 1001)
        short = validate_params(dict(TWO_FIRM_FIXTURE, horizon=0.6))
        v_short = solve_principal(short, 601)
        A_long, B_long, C_long = v_long.coeffs_at(0.4)
        np.testing.assert_allclose(A_long, v_short.A[0], atol=1e-8)
        np.testing.assert_allclose(B_long, v_short.B[0], atol=1e-8)
        assert C_long == pytest.approx(v_short.C[0], abs=1e-8)

    def test_records_kind(self, two_firm):
        assert solve_principal(two_firm, 101).kind is Kind.TWO_FIRM_REGULATED

    @pytest.mark.parametrize("name", sorted(PRINCIPAL_1001_ROWS))
    def test_pinned_rows(self, name):
        fixture, rows = PRINCIPAL_1001_ROWS[name]
        v = solve_principal(validate_params(fixture), 1001)
        for k, row in rows.items():
            assert v.grid.nodes[k] == k / 1000
            for got, want in zip((c[k] for c in v.columns), row):
                assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), (k, got, want)


class TestFirmSwap:
    """Without the cost on firm 2's output (kappa = 0) the regulated model
    tells the firms apart only by their parameters: relabelling them maps A to
    P A P (P the exchange matrix), reverses B and keeps C."""

    # a few roundings of values of order one, relative to max(1, |v|); the
    # largest gap measured is 1.1e-16 (A, 16001 nodes)
    BOUND = 4 * np.finfo(float).eps

    @staticmethod
    def gaps(kappa: float, n_nodes: int) -> tuple[float, float, float]:
        fixture = dict(TWO_FIRM_FIXTURE, kappa=kappa)
        v, w = (solve_principal(validate_params(f), n_nodes) for f in (fixture, swap_firms(fixture)))
        return tuple(float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))
                     for a, b in ((v.A[:, ::-1, ::-1], w.A), (v.B[:, ::-1], w.B), (v.C, w.C)))

    @pytest.mark.parametrize("n_nodes", [1001, 16001])
    def test_relabelling_maps_coefficients(self, n_nodes):
        assert max(self.gaps(0.0, n_nodes)) <= self.BOUND

    def test_cost_on_firm_2_breaks_the_map(self):
        assert self.gaps(1.0, 1001)[0] > 0.1


class TestBetweenNodes:
    """Every reader of a solved trajectory between nodes runs ``np.interp`` on
    its columns, with one rounding slack at the horizon's ends."""

    def test_value_function_reads_the_simulators_bits(self, two_firm):
        v = solve_principal(two_firm, 1001)
        ts = np.random.default_rng(23).uniform(0.0, two_firm.horizon, 1000)
        A_T, B_t = mc._interp_coeffs(v, ts)
        for t, A, B in zip(ts, A_T, B_t):
            got_A, got_B, _ = v.coeffs_at(t)
            assert got_A.tobytes() == A.T.tobytes() and got_B.tobytes() == B[:, 0].tobytes()

    def test_a_read_copies_no_column(self, two_firm):
        """The nodes are built once per grid and the columns made contiguous
        once, and ``np.interp`` copies an array only when it is not contiguous
        and writeable, so a read costs the same at any node count."""
        v = solve_principal(two_firm, 201)
        assert v.grid.nodes is v.grid.nodes and v.columns is v.columns
        assert all(c.flags.c_contiguous and c.flags.writeable for c in (v.grid.nodes, *v.columns))

    @pytest.mark.parametrize("reader", ["coeffs_at", "strategy", "certainty_surface"])
    def test_one_rounding_slack(self, two_firm, nash_params, reader):
        v = solve_principal(two_firm, 101)
        game = solve_nash(nash_params, 101)
        strategy = nash.feedback_strategies(game, nash_params)[0]
        read = {
            "coeffs_at": lambda t: np.hstack([c.ravel() for c in v.coeffs_at(t)]),
            "strategy": lambda t: np.asarray(strategy(t, 0.5, -0.5)),
            "certainty_surface": lambda t: np.asarray(nash.certainty_surface(game, 1, t, 0.3, -0.8)),
        }[reader]
        end = two_firm.horizon
        assert end == nash_params.horizon == 1.0
        assert read(end + 5e-13).tobytes() == read(end).tobytes()
        assert read(-5e-13).tobytes() == read(0.0).tobytes()
        for t in (end + 2e-12, -2e-12, math.nan):
            with pytest.raises(OutOfHorizon):
                read(t)


class TestValueFn:
    def test_terminal_value_and_gradient(self, two_firm):
        v = solve_principal(two_firm, 201)
        val, grad = v.value_and_gradient(two_firm.horizon, (0.7, -1.2))
        assert val == 0.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_origin_returns_constant_and_linear_parts(self, two_firm):
        v = solve_principal(two_firm, 201)
        val, grad = v.value_and_gradient(0.35, (0.0, 0.0))
        A, B, C = v.coeffs_at(0.35)
        assert val == pytest.approx(C, abs=1e-15)
        np.testing.assert_allclose(grad, B, atol=1e-15)

    def test_out_of_horizon(self, two_firm):
        v = solve_principal(two_firm, 201)
        with pytest.raises(OutOfHorizon):
            v.value(1.5, (0.0, 0.0))
        with pytest.raises(OutOfHorizon):
            v.value(-0.1, (0.0, 0.0))

    def test_gradient_matches_finite_differences(self, two_firm):
        v = solve_principal(two_firm)
        h = 1e-5
        rng = np.random.default_rng(8)
        for _ in range(10):
            t = rng.uniform(0.0, 1.0)
            x = rng.normal(size=2)
            _, grad = v.value_and_gradient(t, x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (v.value(t, x + e) - v.value(t, x - e)) / (2.0 * h)
                assert fd == pytest.approx(grad[i], rel=1e-8, abs=1e-8)


class TestRateProfile:
    def test_zero_at_terminal_time(self, two_firm):
        v = solve_principal(two_firm, 201)
        r = rate_profile(two_firm, v, two_firm.horizon, (1.3, -0.4))
        assert np.all(r.as_array() == 0.0)

    def test_matches_gradient_composition(self, two_firm):
        v = solve_principal(two_firm, 201)
        t, x = 0.3, np.array([0.5, -0.25])
        r = rate_profile(two_firm, v, t, x)
        expected = rates_two(two_firm, v.gradient(t, x))
        np.testing.assert_array_equal(r.as_array(), expected.as_array())

    def test_matches_brute_force_maximizer(self, two_firm):
        v = solve_principal(two_firm, 201)
        t, x = 0.25, np.array([0.4, 0.1])
        r = rate_profile(two_firm, v, t, x)
        z_hat, _ = oracle_rates(two_firm, v.gradient(t, x))
        np.testing.assert_allclose(r.as_array(), z_hat, atol=1e-6)

    def test_single_firm_rates(self, single_firm):
        v = solve_principal(single_firm, 201)
        r = rate_profile(single_firm, v, 0.5, (0.2, 0.2))
        z_hat, _ = oracle_rates(single_firm, v.gradient(0.5, (0.2, 0.2)))
        np.testing.assert_allclose(r.as_array(), z_hat, atol=1e-6)
