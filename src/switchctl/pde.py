"""Finite-difference solver for the coupled m-regime parabolic systems.

Backward problems of the form

    V_s + a(s,x,i) V_xx + beta(s,x,i) V_x + [Q(x) V(s,x,.)]_i + source_i = 0,
    V(T,x,i) given,

are stepped with Crank-Nicolson in the diffusion/drift part.  The regime
coupling and the (possibly field-dependent) source are explicit but
Heun-corrected: a predictor step uses their values at the known level,
the corrector re-evaluates them on the predicted field and averages,
which restores second-order accuracy in time without an m-coupled
implicit solve.  The explicit coupling needs dt * max|q_ii| < 1; the
solver enforces it.

Every solve takes this step through one kernel, ``_step``, on R rows
that share the coefficients and differ in anchor, terminal and Dirichlet
data.  The row axis is the vectorized one: a step makes one LAPACK
factorization of the m regimes' banded matrices, stacked
block-diagonally, and two back-substitutions (predictor, corrector) with
all R rows as right-hand sides, and the source calls g once per regime
for all rows.  The march holds its rows regime-major, (R, m, n_x): each
row is already the column-major right-hand side (m*n_x,) of LAPACK's
``dgbtrs``, so ``rhs.reshape(R, -1).T`` hands it the R rows with no
copy, and every regime's values lie in one contiguous run of n_x.
Fields handed out (ValueField, TwoTimeField) stay (n_t, n_x, m), as
transposed views of the march's levels where they can.
Every solve goes through the one backward march, solve_rows_batch,
which reads no coefficient itself: the problem forms each step's a,
beta and source, an HJBProblem from b, sigma and g under the controls
the march freezes, a LinearPDEProblem from its prescribed a, beta and
source.  solve_linear_parabolic marches one row.  A controlled march
freezes the controls a caller's callback returns at each level:
solve_representation passes the node values of a given strategy,
solve_hjb the minimizer on its own row, the equilibrium solver the
minimizer on the diagonal, and the partition cycles the minimizer on
the row of the player who owns the step.

The HJB variant picks the control at the known time level (analytic
minimizer when supplied, otherwise a deterministic grid search with ties
broken toward the smallest control), freezes it, and takes one linear
step: policy-evaluation splitting.  The grid search sums one regime's
Hamiltonian in place on an (n_x, n_u) view of all (node, control)
pairs, with the value's derivatives and coupling as n_x columns that
broadcast against it, from node and control stacks that a march builds
once per grid and control set; a call takes about 215 us on toy-lq
(n_x 41, 257 controls, m 2) on a 2-vCPU VM.

Domain truncation: the problems live on all of R, so the grid imposes
either linear extrapolation (vanishing second difference) or Dirichlet
data at the edges; error norms should exclude the configured buffer.

The banded LU routines are scipy's own ``dgbtrf`` and ``dgbtrs``, bound
from its compiled LAPACK extension ``scipy.linalg._flapack`` on the
first step (``_lapack``).  The extension is loaded by file, so the
``scipy.linalg`` package ``__init__`` (some 300 modules and 28 MB that
the step never calls) does not run; ``scipy.linalg.lapack`` exposes the
same function objects, so the results are scipy's bit for bit.
"""

import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigError, NumericError
from .fields import (BC_EXTRAPOLATE, FeedbackStrategy, ValueField, as_policy,
                     d1, d2)


class TruncationWarning(UserWarning):
    """Grid-searched minimum landed on the clamp of an unbounded control set."""


@dataclass
class ControlSet:
    """Interval or finite control set, with a clamp for unbounded search."""

    lo: float = -np.inf
    hi: float = np.inf
    values: np.ndarray = None       # finite set, overrides the interval
    clamp: tuple = (-10.0, 10.0)
    n_grid: int = 257

    def search_grid(self):
        if self.values is not None:
            return np.sort(np.asarray(self.values, dtype=float)), False
        lo = self.lo if np.isfinite(self.lo) else self.clamp[0]
        hi = self.hi if np.isfinite(self.hi) else self.clamp[1]
        clamped = (lo != self.lo) or (hi != self.hi)
        return np.linspace(lo, hi, self.n_grid), clamped


@dataclass
class LinearPDEProblem:
    """Closed (strategy already substituted) linear representation PDE."""

    a: callable                 # a(s, x, i) -> (n_x,)
    beta: callable              # beta(s, x, i) -> (n_x,)
    grid: object
    m: int
    q_table: np.ndarray = None  # (n_x, m, m) generator on the grid
    source: callable = None     # source(s, x, i, v_i, vx_i, qv_i), pointwise in x
    terminal: np.ndarray = None         # (n_x, m)
    dirichlet: callable = None          # dirichlet(times) -> (n_t, m, 2) edges

    def step_coefficients(self, s_mid, controls, tau):
        """A step's (a, beta, sources) from the prescribed coefficients at
        the mid time; no control or anchor enters, and the source is
        called once per row and regime."""
        x = self.grid.x
        a, beta = (_by_regime(self.m, x, lambda lab: fn(s_mid, x, lab))
                   for fn in (self.a, self.beta))

        def sources(s, v, qv, vx):
            out = np.zeros(v.shape)
            if self.source is not None:
                for r in range(len(v)):
                    out[r] = _by_regime(self.m, x[1:-1], lambda lab: self.source(
                        s, x[1:-1], lab, v[r, lab - 1], vx[r, lab - 1],
                        qv[r, lab - 1]))
            return out

        return a, beta, sources


@dataclass
class HJBProblem:
    """Hamiltonian block: coefficients with an explicit control argument.

    b, sigma and g must be pointwise along the leading axis of x and u
    (u is (n, control_dim)) for any length n, not only n_x: the grid
    search evaluates them on n_u * n_x stacked nodes, and forms four
    n_u * n_x float64 arrays of its own per regime (the sum, one term
    buffer, and the y and qv stacks that g reads), 0.68 MB at peak per
    call with what toy-lq's b, sigma and g allocate (n_x 41, n_u 257,
    m 2).  The grid search minimizes over one control: control_dim > 1
    needs psi.  g must also broadcast
    over anchor rows: the march and the residual call it once per regime
    for R rows, with tau an (R, 1) column, x (n,), y, z and qv (R, n)
    and u (n, control_dim), and read the output broadcast to (R, n); a
    g that ignores tau may return (n,).  The march passes the n_x - 2
    interior nodes, the residual the interior nodes it checks.
    """

    b: callable                 # b(s, x, i, u) -> (n,)
    sigma: callable             # sigma(s, x, i, u) -> (n,)
    g: callable                 # g(tau, s, x, i, y, z, qv, u) -> (n,) or (R, n)
    anchor: float
    control_set: ControlSet
    grid: object
    m: int
    q_table: np.ndarray = None
    psi: callable = None        # psi(tau, s, x, i, v_all, p, P) -> (n_x, d)
    terminal: np.ndarray = None
    dirichlet: callable = None  # dirichlet(times) -> (n_t, m, 2) edges
    control_dim: int = 1
    control_names: list = None

    def step_coefficients(self, s_mid, controls, tau):
        """A step's (a, beta, sources) under the frozen (n_x, m,
        control_dim) controls for rows anchored at tau, an (R, 1)
        column: a = sigma^2 / 2 and beta = b as (m, n_x) stacks at the
        mid time, and a source that calls g once per regime and stage
        for all rows on the interior nodes, where the step reads it."""
        x, m = self.grid.x, self.m
        n_inner = len(x) - 2

        def frozen(fn, s):
            return _by_regime(m, x, lambda lab: fn(s, x, lab,
                                                   controls[:, lab - 1]))

        def sources(s, v, qv, vx):
            z = vx * frozen(self.sigma, s)[:, 1:-1]
            out = np.empty(v.shape)
            for i in range(m):
                out[:, i] = _pointwise("g", self.g(
                    tau, s, x[1:-1], i + 1, v[:, i], z[:, i], qv[:, i],
                    controls[1:-1, i]), (len(v), n_inner))
            return out

        a = 0.5 * frozen(self.sigma, s_mid)**2
        return a, frozen(self.b, s_mid), sources


@dataclass
class HJBSolution:
    value: ValueField
    strategy: FeedbackStrategy


def _check_stability(q_table, times):
    if q_table is None or len(times) < 2:
        return   # a one-node window takes no step
    dt_max = float(np.max(np.diff(times)))
    qmax = float(np.max(np.abs(np.einsum("xii->xi", q_table))))
    if dt_max * qmax >= 1.0:
        raise ConfigError(
            f"explicit regime coupling needs dt*max|q_ii| < 1; "
            f"got {dt_max * qmax:g} (refine the time grid)")


def _qv(q_table, v, nodes=slice(None)):
    """[Q(x) v(x, .)]_i on the grid nodes ``nodes``; ``v`` is regime-major,
    (..., m, n), the values there, and ``q_table`` is (n_x, m, m) on the
    whole grid.

    The sum over j runs in order from zero, one whole-array product per
    j that adds regime row j: for m <= 2 that is the one rounding of the
    exact sum, the value np.einsum gives, at a fraction of its cost on a
    batch of rows.
    """
    out = np.zeros(v.shape)
    if q_table is not None:
        # [j, i, x] = Q(x)_ij on the nodes, copied so that each product reads rows
        q_ji = np.ascontiguousarray(q_table[nodes].transpose(2, 1, 0))
        for j in range(v.shape[-2]):
            out += q_ji[j] * v[..., j, None, :]
    return out


def _implicit_bands(a, beta, dt, dx, bc):
    """I - dt/2 (a D2 + beta D1) with BC rows, for all regimes at once.

    ``a`` and ``beta`` are (m, n_x).  The m (2,2)-banded matrices sit
    block-diagonally in one (7, m*n_x) Fortran-ordered array in LAPACK's
    gbtrf layout: A[j, j+d] in row 4 - d, rows 0-1 free for the fill-in
    of pivoting.  The entries coupling two blocks are zero.  The edge
    rows come from a copy of ``_boundary_bands``; only the interior rows
    j = 1..n_x-2 are formed here.
    """
    m, n_x = a.shape
    ab = _boundary_bands(m, n_x, tuple(bc)).copy()
    a, beta = a[:, 1:-1], beta[:, 1:-1]
    a_dx2, beta_dx = a / dx**2, beta / (2 * dx)
    ab[:, 1:-1, 4] = 1.0 + dt * a / dx**2                    # A[j, j]
    ab[:, 2:, 3] = -0.5 * dt * (a_dx2 + beta_dx)            # A[j, j+1]
    ab[:, :-2, 5] = -0.5 * dt * (a_dx2 - beta_dx)           # A[j, j-1]
    return ab.reshape(m * n_x, 7).T


@cache
def _boundary_bands(m, n_x, bc):
    """The (m, n_x, 7) memory of ``_implicit_bands``' array with only its
    edge rows set: identity (Dirichlet) or a vanishing second
    difference.  Read-only; each step copies it."""
    ab = np.zeros((m, n_x, 7))          # memory order of the (7, m*n_x) array
    ab[:, 0, 4] = ab[:, -1, 4] = 1.0
    if bc[0] == BC_EXTRAPOLATE:
        ab[:, 1, 3], ab[:, 2, 2] = -2.0, 1.0                # A[0, 1], A[0, 2]
    if bc[1] == BC_EXTRAPOLATE:
        ab[:, -2, 5], ab[:, -3, 6] = -2.0, 1.0              # A[-1, -2], A[-1, -3]
    ab.flags.writeable = False
    return ab


def _by_regime(m, x, fn):
    """(m, n_x) stack of ``fn(lab)`` for the labels 1..m, broadcast along x."""
    out = np.empty((m, len(x)))
    for i in range(m):
        out[i] = fn(i + 1)
    return out


def _edges(grid, fns, times, m):
    """Dirichlet data on ``times`` as (R, n_t, m, 2) for the R rows whose
    ``dirichlet(times)`` callables (or None) are ``fns``: one call per
    row, and zeros without a call if no edge reads them or no step runs."""
    shape = (len(times), m, 2)
    if all(edge == BC_EXTRAPOLATE for edge in grid.bc) or len(times) < 2:
        return np.broadcast_to(0.0, (len(fns),) + shape)
    if None in fns:
        raise ConfigError("dirichlet boundary requires data")
    out = np.empty((len(fns),) + shape)
    for r, fn in enumerate(fns):
        table = np.asarray(fn(times), dtype=float)
        if table.shape != shape:
            raise ConfigError(f"dirichlet returned shape {table.shape} on "
                              f"{len(times)} times; it must return "
                              f"(len(times), m, 2) = {shape}")
        out[r] = table
    return out


@cache
def _lapack():
    """scipy's ``dgbtrf`` and ``dgbtrs``, without ``scipy.linalg``'s __init__.

    Imports the top-level scipy package only, then loads the f2py
    extension ``scipy.linalg._flapack`` from scipy's ``linalg`` directory.
    CPython registers a single-phase extension in ``sys.modules``, so a
    later ``import scipy.linalg`` reuses it, and a load after
    ``scipy.linalg`` yields the same functions.  A missing extension is
    an ``ImportError``.
    """
    import importlib.machinery as machinery
    import importlib.util
    import os

    import scipy

    name = "scipy.linalg._flapack"
    finder = machinery.FileFinder(
        os.path.join(scipy.__path__[0], "linalg"),
        (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"{name} not found under {finder.path}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgbtrf, flapack.dgbtrs


def _step(v_next, s_lo, s_hi, grid, a, beta, q_table, sources, edges):
    """One backward step s_hi -> s_lo of the predictor/corrector scheme.

    ``v_next`` is regime-major, (R, m, n_x), and so is the result; the
    rows share ``a`` and ``beta`` ((m, n_x) at the mid time) and differ
    in their sources and in ``edges``, their (R, m, 2) Dirichlet data at
    s_lo.  The explicit regime coupling and source enter the interior
    rows of the system only (the edge rows carry the boundary
    condition), so both are formed on the interior nodes alone:
    ``sources(s, v, qv, vx)`` is given the rows, their coupling and their
    central-difference x-derivative there, each (R, m, n_x - 2), and
    returns the source there.  The predictor's derivative is the
    explicit stencil's own gradient.
    The m regimes' banded matrices, stacked block-diagonally, take one
    LAPACK factorization (dgbtrf) per step and two back-substitutions
    (dgbtrs), predictor and corrector, with the R rows as right-hand
    sides: the C-ordered (R, m, n_x) right-hand sides are the
    Fortran-ordered (m*n_x, R) ones dgbtrs reads, as a free view, and
    its result reads back the same way.  Partial pivoting never leaves a
    block, so each regime's solution is the one of its own matrix.
    """
    dt = s_hi - s_lo
    dx = grid.dx
    n_rows = len(v_next)
    lap = (v_next[..., 2:] - 2 * v_next[..., 1:-1] + v_next[..., :-2]) / dx**2
    grad = (v_next[..., 2:] - v_next[..., :-2]) / (2 * dx)
    expl = v_next.copy()
    expl[..., 1:-1] += 0.5 * dt * (a[:, 1:-1] * lap + beta[:, 1:-1] * grad)
    for edge, j in ((0, 0), (1, -1)):
        expl[..., j] = 0.0 if grid.bc[edge] == BC_EXTRAPOLATE else edges[..., edge]
    # bound on first use: `import switchctl` and the Monte Carlo paths never
    # load scipy, and no run loads the scipy.linalg package
    dgbtrf, dgbtrs = _lapack()
    lu, piv, info = dgbtrf(_implicit_bands(a, beta, dt, dx, grid.bc), 2, 2,
                           overwrite_ab=1)
    if info != 0:
        raise NumericError(f"banded factorization failed at s={s_lo:g} "
                           f"(LAPACK info {info})")

    def solve(expl_extra):
        rhs = expl.copy()
        rhs[..., 1:-1] += dt * expl_extra
        out = dgbtrs(lu, 2, 2, rhs.reshape(n_rows, -1).T, piv, overwrite_b=1)[0]
        return out.T.reshape(expl.shape)

    inner = slice(1, -1)
    qv1 = _qv(q_table, v_next[..., inner], inner)
    src1 = sources(s_hi, v_next[..., 1:-1], qv1, grad)
    v_pred = solve(qv1 + src1)
    qv2 = _qv(q_table, v_pred[..., inner], inner)
    src2 = sources(s_lo, v_pred[..., 1:-1], qv2,
                   (v_pred[..., 2:] - v_pred[..., :-2]) / (2 * dx))
    v_new = solve(0.5 * (qv1 + qv2) + 0.5 * (src1 + src2))
    if not np.isfinite(v_new).all():
        raise NumericError(f"backward step produced non-finite values at "
                           f"s={s_lo:g}")
    return v_new


def solve_linear_parabolic(problem, times):
    """Backward solve of a closed linear system; returns the full field.

    A one-row solve_rows_batch: the coefficients are prescribed, so no
    control is frozen.
    """
    times = np.asarray(times, dtype=float)
    rows = _one_row(problem, times)
    solve_rows_batch(problem, times, lambda k: None, [0.0], rows,
                     [problem.dirichlet])
    return ValueField(times, problem.grid, rows[0].swapaxes(1, 2))


def _pointwise(name, out, shape):
    """A model callable's output broadcast to the node shape."""
    try:
        return out if np.shape(out) == shape else np.broadcast_to(out, shape)
    except ValueError:
        raise ConfigError(f"model callable {name} returned shape "
                          f"{np.shape(out)} on nodes of shape {shape}; it "
                          f"must be pointwise along x and u and broadcast "
                          f"over anchor rows") from None


def _hamiltonian(coeffs, tau, s, x, lab, y, p, pp, qv, u, view=None):
    """p b + 0.5 sigma^2 pp + qv + g of regime ``lab`` at a stack of nodes.

    ``coeffs`` carries the callables b, sigma and g.  ``x`` is (n,) and
    ``u`` is (n, control_dim) for any stack length n; ``y`` (the value),
    ``p``, ``pp`` and ``qv`` are (n,), or (R, n) for R anchor rows with
    ``tau`` an (R, 1) column.  The result has the broadcast shape of x
    and y.  With ``view``, a shape of n entries, the outputs of b, sigma
    and g are read as that view and y, p, pp and qv broadcast against
    it: the grid search's (n_x, n_u) view of its node-major stack, with
    (n_x, 1) columns, where g is handed y and qv broadcast to the view,
    as (n,) stacks.  The sum accumulates in place in the order
    ((p b + 0.5 sigma^2 pp) + qv) + g.
    """
    shape = np.broadcast_shapes(x.shape, y.shape) if view is None else x.shape

    def read(name, out):
        out = _pointwise(name, out, shape)
        return out if view is None else out.reshape(view)

    b = read("b", coeffs.b(s, x, lab, u))
    sg = read("sigma", coeffs.sigma(s, x, lab, u))
    ham = p * b
    term = np.square(sg, dtype=float)       # 0.5 sigma^2 pp, then z = p sigma
    term *= 0.5
    term *= pp
    ham += term
    ham += qv
    z = np.multiply(p, sg, out=term)
    if view is not None:
        y, qv = (_stacked(col, view).reshape(shape) for col in (y, qv))
        z = z.reshape(shape)
    ham += read("g", coeffs.g(tau, s, x, lab, y, z, qv, u))
    return ham


def _stacked(values, view):
    """A new C-ordered array of shape ``view`` holding ``values`` broadcast."""
    out = np.empty(view)
    out[...] = values
    return out


def _search_stacks(x, control_set):
    """The grid search's controls and (node, control) stacks on nodes x:
    ``(grid_u, clamped, x_stack, u_stack)``, read-only, node-major: x_stack
    is each node n_u times and u_stack (n_x * n_u, 1) the n_x copies of
    the controls.  Kept in ``_SEARCH_STACKS``, at most 8 entries (the
    oldest dropped first), keyed on the bytes of x and of the control
    set's values and on the repr of its other fields, exact to the sign
    of a zero, so that a march builds them once."""
    cs = control_set
    values = None if cs.values is None else np.asarray(cs.values, dtype=float)
    key = (x.tobytes(), repr((cs.lo, cs.hi, cs.clamp, cs.n_grid)),
           None if values is None else (values.shape, values.tobytes()))
    if key not in _SEARCH_STACKS:
        grid_u, clamped = cs.search_grid()
        stacks = (grid_u, np.repeat(x, len(grid_u)),
                  np.tile(grid_u, len(x))[:, None])
        for arr in stacks:
            arr.flags.writeable = False
        if len(_SEARCH_STACKS) == 8:
            del _SEARCH_STACKS[next(iter(_SEARCH_STACKS))]
        _SEARCH_STACKS[key] = (stacks[0], clamped, *stacks[1:])
    return _SEARCH_STACKS[key]


_SEARCH_STACKS = {}


def controls_on_grid(problem, s, v_all):
    """Minimizing control at every (x, regime) node from a value snapshot.

    Uses the analytic minimizer when the problem supplies one, otherwise
    a deterministic grid search over the (possibly clamped) control set,
    ties broken toward the smallest control.  The search evaluates one
    regime's Hamiltonian on all n_x x n_u (node, control) pairs at once,
    on stacks built once per grid and control set (``_search_stacks``);
    it searches one control, so control_dim > 1 needs ``psi``.
    ``v_all`` is (n_x, m); the derivatives are taken on its regime rows,
    ``v_all.T``, which the march hands in contiguous.
    """
    grid = problem.grid
    x = grid.x
    n_x = grid.n_x
    if problem.psi is None and problem.control_dim != 1:
        raise ConfigError(f"the grid search minimizes over one control, but "
                          f"control_dim is {problem.control_dim}: a problem "
                          f"with several controls needs an analytic "
                          f"minimizer psi")
    out = np.empty((n_x, problem.m, problem.control_dim))
    v_rows = np.asarray(v_all, dtype=float).T        # (m, n_x)
    p_rows = d1(v_rows, grid.dx)
    pp_rows = d2(v_rows, grid.dx)
    if problem.psi is not None:
        for i in range(problem.m):
            u = np.asarray(problem.psi(problem.anchor, s, x, i + 1, v_all,
                                       p_rows[i], pp_rows[i]), dtype=float)
            out[:, i, :] = u[:, None] if u.ndim == 1 else u
        return out
    qv = _qv(problem.q_table, v_rows)
    grid_u, clamped, x_stack, u_stack = _search_stacks(x, problem.control_set)
    n_u = len(grid_u)
    for i in range(problem.m):
        ham = _hamiltonian(problem, problem.anchor, s, x_stack, i + 1,
                           v_rows[i, :, None], p_rows[i, :, None],
                           pp_rows[i, :, None], qv[i, :, None], u_stack,
                           view=(n_x, n_u))
        # first occurrence of the minimum = smallest control on ties
        best_idx = np.argmin(ham, axis=1)
        if clamped and (np.any(best_idx == 0) or np.any(best_idx == n_u - 1)):
            warnings.warn(
                f"Hamiltonian minimum hit the control clamp "
                f"{problem.control_set.clamp} on an unbounded control set",
                TruncationWarning)
        out[:, i, 0] = grid_u[best_idx]
    return out


def solve_hjb(problem, times):
    """Backward HJB solve; returns the value field and the strategy field.

    The march freezes, at each level, the minimizer on the row itself:
    policy-evaluation splitting.
    """
    times = np.asarray(times, dtype=float)
    rows = _one_row(problem, times)
    controls = np.empty((len(times), problem.grid.n_x, problem.m,
                         problem.control_dim))

    def minimizer(k):
        controls[k] = controls_on_grid(problem, times[k], rows[0, k].T)
        return controls[k]

    solve_rows_batch(problem, times, minimizer, [problem.anchor], rows,
                     [problem.dirichlet])
    minimizer(0)
    return HJBSolution(value=ValueField(times, problem.grid,
                                        rows[0].swapaxes(1, 2)),
                       strategy=_feedback_strategy(problem, times, controls))


def _feedback_strategy(problem, times, controls):
    """The strategy of a controlled march: its (n_t, n_x, m, control_dim)
    ``controls`` on ``times`` and the problem's grid, bounded by the
    problem's control set and named by its control names."""
    cs = problem.control_set
    return FeedbackStrategy(times, problem.grid, controls,
                            bounds=[(cs.lo, cs.hi)] * problem.control_dim,
                            names=problem.control_names)


def _strategy_nodes(strategy, s, grid, m, control_dim):
    """Controls at one time node for every (x, regime) from any policy
    form (``fields.as_policy``); a FeedbackStrategy's own node values on
    a node hit."""
    if isinstance(strategy, FeedbackStrategy):
        k = int(np.argmin(np.abs(strategy.times - s)))
        if abs(strategy.times[k] - s) <= 1e-9 and strategy.grid == grid:
            return strategy.node_values(k)
    policy = as_policy(strategy, control_dim)
    out = np.empty((grid.n_x, m, control_dim))
    for lab in range(1, m + 1):
        out[:, lab - 1, :] = policy(s, grid.x, lab)
    return out


def solve_representation(problem, times, strategy):
    """Linear representation solve: the HJB stepping with a given strategy.

    ``strategy`` is any form ``fields.as_policy`` reads (None, a constant,
    a callable or a FeedbackStrategy); it is evaluated at the known time
    level of each step and frozen, the exact counterpart of the
    policy-evaluation splitting in solve_hjb.
    Solving with the strategy returned by solve_hjb reproduces its value
    field bit for bit.  This is a one-row solve_rows_batch.
    """
    times = np.asarray(times, dtype=float)
    grid = problem.grid
    rows = _one_row(problem, times)
    solve_rows_batch(
        problem, times,
        lambda k: _strategy_nodes(strategy, times[k], grid, problem.m,
                                  problem.control_dim),
        [problem.anchor], rows, [problem.dirichlet])
    return ValueField(times, grid, rows[0].swapaxes(1, 2))


def _one_row(problem, times):
    """A one-row level buffer (1, n_t, m, n_x) holding the problem's
    terminal data at its last level; a ConfigError without them."""
    if problem.terminal is None:
        raise ConfigError(f"{type(problem).__name__} needs terminal data")
    rows = np.empty((1, len(times), problem.m, problem.grid.n_x))
    rows[0, -1] = np.asarray(problem.terminal, dtype=float).T
    return rows


def _rows(idx):
    """Row indices as a slice when they run consecutively, so that a step
    reads and writes views of the level buffer; an index array otherwise."""
    idx = np.asarray(idx, dtype=np.int64)
    n = len(idx)
    if n and idx[-1] - idx[0] == n - 1 and (n < 3 or np.all(idx[1:] > idx[:-1])):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def solve_rows_batch(problem, times, controls, anchors, rows,
                     dirichlet_fns=None, active_from=None):
    """The backward march: a batch of anchor rows under per-level controls.

    ``rows`` is a caller-owned, regime-major (R, L, m, n_x) level buffer:
    level k of row r lives at ``rows[r, k % L]``, and the march steps it
    down in place from each row's terminal data at level n_t - 1.
    L = n_t keeps every level (terminal data at ``[:, -1]``); L = 2 keeps
    the level a step reads and the one it writes.  The rows share the coefficients
    and differ only in the anchor entering g, the terminal data and
    (optionally) the Dirichlet data: row r's ``dirichlet_fns[r](times)``
    is called once as the solve starts and returns its (n_t, m, 2) edge
    values.  ``active_from[r]`` is the lowest time index row r reaches;
    nothing below it is written.

    ``controls(k)`` returns the (n_x, m, control_dim) controls that stay
    frozen over the step times[k] -> times[k-1], or a list of
    ``(row indices, controls)`` groups that split the active rows, one
    step each.  It is called once per level that some row steps from,
    after every row holds level k, so it may read the rows (and, with
    L >= 2, level k + 1 too); ``rows[r, k].T`` is the (n_x, m) level that
    controls_on_grid reads.  A LinearPDEProblem freezes no control; its
    ``controls(k)`` returns None.  Each step factorizes the regimes'
    stacked banded matrices once and solves its rows as the right-hand
    sides; a group of consecutive rows is stepped as a slice of the
    buffer.  The march reads no coefficient itself: each group's
    ``problem.step_coefficients(s_mid, controls, tau)``, with the rows'
    anchors as an (R, 1) column, returns the step's (m, n_x) a and beta
    at the mid time and its source (see HJBProblem and
    LinearPDEProblem).
    """
    times = np.asarray(times, dtype=float)
    _check_stability(problem.q_table, times)
    grid = problem.grid
    m = problem.m
    anchors = np.asarray(anchors, dtype=float)
    active_from = np.zeros(len(anchors), dtype=np.int64) if active_from is None \
        else np.asarray(active_from, dtype=np.int64)
    edges = _edges(grid, [None] * len(anchors) if dirichlet_fns is None
                   else dirichlet_fns, times, m)
    if rows.shape[0] != len(anchors) or rows.shape[2:] != (m, grid.n_x):
        raise ConfigError(f"level buffer of shape {rows.shape}; the march "
                          f"needs (R, L, m, n_x) = ({len(anchors)}, L, {m}, "
                          f"{grid.n_x})")
    n_levels = rows.shape[1]
    for k in range(len(times) - 1, 0, -1):
        s_hi, s_lo = times[k], times[k - 1]
        act = np.flatnonzero(active_from <= k - 1)
        if len(act) == 0:
            continue
        groups = controls(k)
        if groups is None or isinstance(groups, np.ndarray):
            groups = [(act, groups)]
        s_mid = 0.5 * (s_lo + s_hi)
        for idx, u_star in groups:
            if len(idx) == 0:
                continue
            sel = _rows(idx)
            a, beta, sources = problem.step_coefficients(s_mid, u_star,
                                                         anchors[sel, None])
            rows[sel, (k - 1) % n_levels] = _step(
                rows[sel, k % n_levels], s_lo, s_hi, grid, a, beta,
                problem.q_table, sources, edges[sel, k - 1])
