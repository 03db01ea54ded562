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

The coefficient systems here and in :mod:`decarb.nash` are written once each
as an :class:`OdeTable` of expressions.  On a system's first solve each
expression is parsed once, and everything after works on its syntax tree:
the guard in front of ``exec`` admits only float arithmetic on the names the
expression may read, and the source compiled is the checked trees unparsed,
with the table's names renamed where the march needs it.  The table is
compiled into straight-line Python with the four RK4 stages inlined,
which marches a block of steps about twice as fast as calling a right-hand
side per stage, with the same bits.  The march also skips repeated work,
by two rewrites of the table's syntax trees: a negated parameter (``-q11``)
is negated once per call, and a product of two names that occurs twice or
more (``m1 * a11``) is computed once per stage.  Each rewrite does the same
IEEE operation on the same operands, once instead of several times, so
every value keeps its bits.  The candidates are tree nodes, so ``c * a * b``,
which is ``(c * a) * b``, shares ``c * a`` and never ``a * b``, which rounds
differently.  The right-hand side keeps the table's expressions as written,
so classic RK4 calling it once per stage checks every march bit for bit.
"""

from __future__ import annotations

import ast
import functools
import keyword
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .contract import ContractLQG, assemble_lqg, rates_single, rates_two, IncentiveRates
from .errors import BlowUp, OutOfHorizon, holding, integer, real
from .model import Kind, ModelParams

BLOWUP_LIMIT = 1e12
_BLOCK = 256  # RK4 steps stored and checked together


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes on [0, t_end], endpoints included; construction checks both
    fields and holds ``t_end`` as a float, so the integrator steps in float arithmetic."""

    t_end: float
    n_nodes: int = 1001

    def __post_init__(self):
        object.__setattr__(self, "t_end", real("t_end", self.t_end, positive=True))
        integer("n_nodes", self.n_nodes, 2)

    @property
    def dt(self) -> float:
        return self.t_end / (self.n_nodes - 1)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The nodes, built once on first use; callers read them, never write them."""
        return np.linspace(0.0, self.t_end, self.n_nodes)


def rk4_stage_times(grid: TimeGrid) -> list[float]:
    """Every stage time of :func:`rk4_backward`'s steps on this grid, in the
    order its ``drive`` lists its values.

    Built with the integrator's own float expressions (``t``, ``t + half``,
    ``t + h``), so a drive sampled at these values is the time-dependent input
    each stage reads.
    """
    h = -grid.dt
    half = 0.5 * h
    return [s for t in grid.nodes[1:].tolist() for s in (t, t + half, t + h)]


class OdeTable(NamedTuple):
    """A coefficient ODE system, written once as expressions over floats.

    ``derivs[i]`` is the derivative of ``states[i]``, and there is at least
    one state.  A derivative reads the states, the ``params`` bound per
    solve, the ``consts`` and, when ``drive`` names one, a time-dependent
    input.  The ``consts`` are ``(name, expression)`` pairs computed in the
    listed order once per call, so each reads only the params and the
    constants listed before it.  The expressions hold only these names,
    float literals (``2.0``, not ``2``), ``+``, ``-``, ``*``, unary ``-`` and
    parentheses, nested at most 100 levels deep (a sum of 100 terms; the
    deepest shipped derivative nests 9), which :func:`_check_table` checks on
    their syntax trees, so evaluating them never raises: an overflow gives
    inf or NaN, which the integrator's block check reports.  The names are
    distinct identifiers, none a keyword or starting with ``_``; the
    generated code names its own variables with a leading ``_``, so no other
    name is reserved (``h`` and ``range`` are states like any other).
    """

    name: str
    states: tuple[str, ...]
    params: tuple[str, ...]
    derivs: tuple[str, ...]
    consts: tuple[tuple[str, str], ...] = ()
    drive: str | None = None

    def rhs(self, args: Sequence[float]):
        """``rhs(x, u)`` with ``args`` bound to ``params``: ``x`` is the drive's value
        (unused without a drive) and ``u`` unpacks into the states, as floats or
        as node-sampled columns."""
        return functools.partial(_compile(self)["rhs"], *args)


def _check_table(table: OdeTable) -> tuple[list[ast.expr], list[ast.expr]]:
    """The syntax trees of ``table``'s constants and derivatives; ValueError
    unless the table is as :class:`OdeTable` describes, its names NFKC-normal
    so that no two compile to one."""
    names = [*table.states, *table.params, *(n for n, _ in table.consts), *filter(None, [table.drive])]
    if (len(set(names)) != len(names) or not table.states or len(table.derivs) != len(table.states)
            or not all(n.isidentifier() and not keyword.iskeyword(n) and not n.startswith("_")
                       and unicodedata.normalize("NFKC", n) == n for n in names)):
        raise ValueError(f"ODE table {table.name!r} has clashing or malformed names")
    known = set(table.params)
    consts = []
    for name, expr in table.consts:
        consts.append(_parsed(table, expr, known))
        known.add(name)
    known.update(names)
    return consts, [_parsed(table, expr, known) for expr in table.derivs]


# the recursive tree walks and ast.unparse stay far inside Python's recursion limit
_MAX_DEPTH = 100
# the node types of plain float arithmetic besides names and float literals
_ARITHMETIC = frozenset({ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.UnaryOp, ast.USub, ast.Load})


def _depth(tree: ast.expr) -> int:
    """Levels of nested expressions in ``tree``, counted level by level, not by recursion."""
    depth, level = 0, [tree]
    while level:
        depth += 1
        level = [child for node in level for child in ast.iter_child_nodes(node) if isinstance(child, ast.expr)]
    return depth


def _parsed(table: OdeTable, expr: str, known: set[str]) -> ast.expr:
    """``expr``'s syntax tree, if it holds only ``+``, ``-``, ``*``, unary ``-``,
    names in ``known`` and float literals, nested at most ``_MAX_DEPTH`` levels."""
    too_deep = ValueError(f"ODE table {table.name!r}: an expression nests deeper than {_MAX_DEPTH} levels")
    try:
        tree = ast.parse(expr, mode="eval").body
    except (RecursionError, MemoryError) as exc:  # the parser's own limits on nesting
        raise too_deep from exc
    except (SyntaxError, ValueError):
        tree = None
    if tree is not None and _depth(tree) > _MAX_DEPTH:
        raise too_deep
    if tree is not None and all(type(node) in _ARITHMETIC or type(node) is ast.Name and node.id in known
                                or type(node) is ast.Constant and type(node.value) is float
                                for node in ast.walk(tree)):
        return tree
    raise ValueError(f"ODE table {table.name!r}: {expr!r} is not plain float arithmetic")


def _bottom_up(node: ast.expr, rewrite) -> ast.expr:
    """``node``, a tree of plain float arithmetic, with ``rewrite`` applied to
    each of its subtrees, innermost first; new nodes are built, and ``node``
    is left as it is."""
    match node:
        case ast.BinOp(left, op, right):
            node = ast.BinOp(_bottom_up(left, rewrite), op, _bottom_up(right, rewrite))
        case ast.UnaryOp(op, operand):
            node = ast.UnaryOp(op, _bottom_up(operand, rewrite))
    return rewrite(node)


def _renamed(node: ast.expr, names: Mapping[str, str]) -> ast.expr:
    """``node`` with every name that is a key of ``names`` replaced by its value."""
    return _bottom_up(node, lambda n: ast.Name(names[n.id]) if isinstance(n, ast.Name) and n.id in names else n)


def _product(node: ast.AST) -> str | None:
    """``"a * b"`` when ``node`` is the product of two names, else None."""
    match node:
        case ast.BinOp(ast.Name(a), ast.Mult(), ast.Name(b)):
            return f"{a} * {b}"
    return None


def _march_form(table: OdeTable, names: Mapping[str, str] = {}, shared_name: str = "_{}",
                derivs: Sequence[ast.expr] = ()) -> tuple[dict[str, str], list[str], list[str]]:
    """``table``'s derivatives as ``march`` evaluates them (see the module notes),
    with each state that is a key of ``names`` written as its value; ``derivs``
    are their checked trees, which :func:`_check_table` gives when empty.

    Returns the per-call negations (``{"_q11_neg": "-q11"}``), the products
    of two names that occur twice or more, and the derivatives, which read
    the negations by name and the i-th shared product as ``shared_name.format(i)``.
    """
    per_call = {*table.params, *(n for n, _ in table.consts)}
    negated: dict[str, str] = {}

    def hoist(node):
        match node:
            case ast.UnaryOp(ast.USub(), ast.Name(name)) if name in per_call:
                negated[f"_{name}_neg"] = f"-{name}"
                return ast.Name(f"_{name}_neg")
        return node

    trees = [_bottom_up(_renamed(tree, names), hoist) for tree in derivs or _check_table(table)[1]]
    counts = Counter(_product(node) for tree in trees for node in ast.walk(tree))
    shared = [product for product, n in counts.items() if product and n > 1]

    def share(node):
        product = _product(node)
        return ast.Name(shared_name.format(shared.index(product))) if product in shared else node

    return negated, shared, [ast.unparse(_bottom_up(tree, share)) for tree in trees]


@functools.cache
def _compile(table: OdeTable) -> dict:
    """Generate and compile ``table``'s functions ``rhs`` and ``march``, once per table.

    ``rhs(*params, x, _u)`` evaluates the derivatives once, as the table
    writes them.  ``march(_u, _steps, _rows, _half, _h, _sixth, _drive,
    *params)`` runs one RK4 step per index j of ``_steps``, from the state
    ``_u``, and extends the flat list ``_rows`` by the states after each,
    building no list per step; :func:`rk4_backward` passes j = 3k - 3 for
    the step from node k.  It runs the float operations of a classic RK4
    step that calls ``rhs`` once per stage, in the same order, with every
    stage written out: state i enters stage s as ``_u{i}_{s}``, its
    derivative there is ``_k{i}_{s}``, and the drive reads ``_drive[j]``,
    ``_drive[j + 1]`` and ``_drive[j + 2]``, as the stage times are listed.
    The derivatives are in :func:`_march_form`, with shared product i held
    in stage s as ``_p{i}_{s}``: one template per expression, its stage
    names filled in per stage.  Every name the code adds starts with ``_``
    and is indexed by position, so none can be a table's name or another's.
    The source holds the checked trees, unparsed, and the fixed stage
    arithmetic; parameter values arrive as arguments.
    """
    consts, derivs = _check_table(table)
    states, drive = table.states, table.drive
    negated, shared, templates = _march_form(
        table, {S: f"_u{i}_{{s}}" for i, S in enumerate(states)}, "_p{}_{{s}}", derivs)
    read = {node.id for tree in derivs for node in ast.walk(tree) if isinstance(node, ast.Name)}
    head = [f"    {name} = {ast.unparse(tree)}" for (name, _), tree in zip(table.consts, consts)]
    row = "".join(f"_u{i}_1, " for i in range(len(states)))
    lines = [f"def rhs({', '.join([*table.params, drive or '_t', '_u'])}):", *head,
             f"    {', '.join(states)}, = _u", f"    return ({', '.join(map(ast.unparse, derivs))},)",
             f"def march({', '.join(['_u, _steps, _rows, _half, _h, _sixth, _drive', *table.params])}):",
             *head, f"    {row}= _u", *(f"    {name} = {expr}" for name, expr in negated.items()),
             "    _extend = _rows.extend", "    for _j in _steps:"]
    body = []
    for s, (step, at) in enumerate(((None, "_j"), ("_half", "_j + 1"), ("_half", None), ("_h", "_j + 2")), 1):
        if drive and at:
            body.append(f"{drive} = _drive[{at}]")
        if step:
            body += [f"_u{i}_{s} = _u{i}_1 + {step} * _k{i}_{s - 1}" for i, S in enumerate(states) if S in read]
        body += [f"_p{i}_{s} = " + p.format(s=s) for i, p in enumerate(shared)]
        body += [f"_k{i}_{s} = " + d.format(s=s) for i, d in enumerate(templates)]
    body += [f"_u{i}_1 = _u{i}_1 + _sixth * (_k{i}_1 + 2.0 * _k{i}_2 + 2.0 * _k{i}_3 + _k{i}_4)"
             for i in range(len(states))]
    body.append(f"_extend(({row}))")
    namespace: dict = {}
    exec(compile("\n".join(lines + ["        " + line for line in body]),
                 f"<rk4 {table.name}>", "exec"), namespace)
    return namespace


def rk4_backward(table: OdeTable, args: Sequence[float], terminal: np.ndarray, grid: TimeGrid,
                 drive: list[float] | None = None) -> np.ndarray:
    """March ``table``'s du/dt = f(t, u), with ``args`` as its ``params``, from
    u(T) = terminal back to t = 0.

    Returns the trajectory on all grid nodes, shape (n_nodes, len(terminal)),
    row k holding u(t_k); the terminal row is the terminal data bit for bit.
    The array is column-major, so each coefficient's column is a contiguous
    view that ``np.interp`` and the CSV writer read without a copy.
    The table's compiled kernel runs classic RK4 with every stage inlined.
    ``drive`` (None for a table without one) holds the drive's value at each
    time :func:`rk4_stage_times` lists, three per step; a drive that does
    not fit the table and grid is a caller's bug and raises ValueError.  A
    grid too large to hold raises :class:`~decarb.errors.OutOfRange` naming
    ``n_nodes``.

    Rows are collected flat in blocks of ``_BLOCK`` steps, each read into an
    array by one ``np.fromiter``, checked at once and stored with one slice
    assignment; the next block resumes from the last row's values.
    :class:`BlowUp` reports the first node, in marching order, with a
    coefficient beyond ``BLOWUP_LIMIT``, NaN or inf: the node a check after
    every step would report.  A table's float
    ``+``, ``-`` and ``*`` give inf or NaN rather than raise, so marching on
    past an escape to the end of its block changes nothing.
    """
    terminal = np.asarray(terminal, dtype=float)
    n, width = grid.n_nodes, terminal.size
    if (drive is None) != (table.drive is None) or drive is not None and len(drive) != 3 * n - 3:
        raise ValueError(f"ODE table {table.name!r} reads "
                         + (f"3 * (n_nodes - 1) = {3 * n - 3} drive values" if table.drive else "no drive"))
    h = -grid.dt
    march = _compile(table)["march"]
    extra = (0.5 * h, h, h / 6.0, drive, *args)
    with holding("n_nodes", n):
        out = np.empty((n, width), order="F")
    out[-1] = terminal
    u = terminal.tolist()
    for top in range(n - 1, 0, -_BLOCK):
        rows = []
        march(u, range(3 * top - 3, 3 * max(top - _BLOCK, 0) - 3, -3), rows, *extra)
        block = np.fromiter(rows, float, len(rows)).reshape(-1, width)
        _check_block(block, grid, top - 1)
        out[top - len(block):top] = block[::-1]
        u = rows[-width:]
    return out


def _check_block(block: np.ndarray, grid: TimeGrid, first: int) -> None:
    """Raise BlowUp at the first escaped row; row i holds u at node ``first - i``
    of ``grid``, whose nodes are built only then."""
    ok = np.abs(block) <= BLOWUP_LIMIT  # also catches NaN and inf
    if not ok.all():
        i = int(np.argmin(ok.all(axis=1)))
        raise BlowUp(float(grid.nodes[first - i]))


def centered_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order centered difference along axis 0 at nodes 2 .. n-3."""
    return (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (12.0 * dt)


def _between_nodes(t: float, nodes: np.ndarray, *columns: np.ndarray) -> list:
    """``np.interp`` of each of ``columns``, sampled on ``nodes``, at ``t``; a NaN ``t``, or
    one beyond [0, nodes[-1]] by more than a 1e-12 rounding slack, raises :class:`OutOfHorizon`."""
    if not -1e-12 <= t <= nodes[-1] + 1e-12:
        raise OutOfHorizon(f"t = {t:.6g} outside [0, {nodes[-1]:.6g}]")
    return [np.interp(t, nodes, c) for c in columns]


@dataclass(frozen=True)
class QuadraticValueFn:
    """Time-sampled quadratic value function of a principal model.

    A has shape (n_nodes, 2, 2) and stays symmetric; B is (n_nodes, 2); C is
    (n_nodes,).  Evaluation interpolates coefficients linearly between nodes
    (O(dt^2), far below the solver's accuracy needs at the default grid) by
    ``np.interp`` on :attr:`columns`, as the simulator does, so both read the
    same bits.
    """

    grid: TimeGrid
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    kind: Kind | None = None

    def coeffs_at(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Interpolated (A(t), B(t), C(t))."""
        a11, a12, a22, b1, b2, c = _between_nodes(t, self.grid.nodes, *self.columns)
        return np.array([[a11, a12], [a12, a22]]), np.array([b1, b2]), c

    @functools.cached_property
    def columns(self) -> tuple[np.ndarray, ...]:
        """A11, A12, A22, B1, B2 and C, each a contiguous column on the grid
        nodes, where every reader takes them from; only the A columns are
        copied, once, the others being views of the integrator's output."""
        return tuple(map(np.ascontiguousarray, (*self.A.reshape(-1, 4)[:, [0, 1, 3]].T, *self.B.T, self.C)))

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


# The Riccati system in scalar form; M and Sigma are diagonal, d_i = sigma_i^2
_LQG = OdeTable(
    name="lqg",
    states=("a11", "a12", "a22", "b1", "b2", "c"),
    params=("q11", "q12", "q22", "l1", "l2", "m1", "m2", "d1", "d2", "q0"),
    derivs=(
        "-q11 - (m1 * a11 * a11 + m2 * a12 * a12)",
        "-q12 - (m1 * a11 * a12 + m2 * a12 * a22)",
        "-q22 - (m1 * a12 * a12 + m2 * a22 * a22)",
        "-l1 - (m1 * a11 * b1 + m2 * a12 * b2)",
        "-l2 - (m1 * a12 * b1 + m2 * a22 * b2)",
        "-0.5 * (d1 * a11 + d2 * a22) - 0.5 * (m1 * b1 * b1 + m2 * b2 * b2) - q0",
    ),
)


def solve_lqg(
    lqg: ContractLQG,
    horizon: float,
    n_nodes: int = 1001,
    kind: Kind | None = None,
) -> QuadraticValueFn:
    """Integrate the Riccati system for given quadratic PDE data."""
    q11, q12, q22 = float(lqg.Q[0, 0]), 0.5 * float(lqg.Q[0, 1] + lqg.Q[1, 0]), float(lqg.Q[1, 1])
    l1, l2 = map(float, lqg.L)
    m1, m2 = map(float, lqg.m)
    d1, d2 = (s * s for s in map(float, lqg.sigma))
    q0 = float(lqg.q0)
    grid = TimeGrid(horizon, n_nodes)
    traj = rk4_backward(_LQG, (q11, q12, q22, l1, l2, m1, m2, d1, d2, q0), np.zeros(6), grid)
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
