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
for all rows.  solve_linear_parabolic marches one row under prescribed
coefficients.  Every controlled solve goes through the one backward
march, solve_rows_batch, which freezes the controls a caller's callback
returns at each level: solve_representation passes the node values of a
given strategy, solve_hjb the minimizer on its own row, the equilibrium
solver the minimizer on the diagonal, and the partition cycles the
minimizer on the row of the player who owns the step.

The HJB variant picks the control at the known time level (analytic
minimizer when supplied, otherwise a deterministic grid search with ties
broken toward the smallest control), freezes it, and takes one linear
step: policy-evaluation splitting.

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
from .fields import (BC_EXTRAPOLATE, FeedbackStrategy, ValueField, d1, d2)


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
    source: callable = None     # source(s, x, i, v_i, vx_i, qv_i) -> (n_x,)
    terminal: np.ndarray = None         # (n_x, m)
    dirichlet: callable = None          # dirichlet(times) -> (n_t, m, 2) edges


@dataclass
class HJBProblem:
    """Hamiltonian block: coefficients with an explicit control argument.

    b, sigma and g must be pointwise along the leading axis of x and u
    (u is (n, control_dim)) for any length n, not only n_x: the grid
    search evaluates them on n_u * n_x stacked nodes, with a few
    n_u * n_x float64 temporaries per regime.  g must also broadcast
    over anchor rows: the march and the residual call it once per regime
    for R rows, with tau an (R, 1) column, x (n_x,), y, z and qv
    (R, n_x) and u (n_x, control_dim), and read the output broadcast to
    (R, n_x); a g that ignores tau may return (n_x,).
    """

    b: callable                 # b(s, x, i, u) -> (n,)
    sigma: callable             # sigma(s, x, i, u) -> (n,)
    g: callable                 # g(tau, s, x, i, y, z, qv, u) -> (n,) or (R, n_x)
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


def _qv(q_table, v):
    """[Q(x) v(x, .)]_i on the grid; ``v`` is (..., n_x, m).

    The sum over j runs in order from zero, one whole-array product per
    j: for m <= 2 that is the one rounding of the exact sum, the value
    np.einsum gives, at a fraction of its cost on a batch of rows.
    """
    out = np.zeros(v.shape)
    if q_table is not None:
        for j in range(v.shape[-1]):
            out += q_table[:, :, j] * v[..., j, None]
    return out


def _implicit_bands(a, beta, dt, dx, bc):
    """I - dt/2 (a D2 + beta D1) with BC rows, for all regimes at once.

    ``a`` and ``beta`` are (n_x, m).  The m (2,2)-banded matrices sit
    block-diagonally in one (7, m*n_x) Fortran-ordered array in LAPACK's
    gbtrf layout: A[j, j+d] in row 4 - d, rows 0-1 free for the fill-in
    of pivoting.  The entries coupling two blocks are zero.
    """
    n_x, m = a.shape
    a, beta = a.T, beta.T
    ab = np.zeros((m, n_x, 7))          # memory order of the (7, m*n_x) array
    ab[:, :, 4] = 1.0 + dt * a / dx**2
    ab[:, 1:, 3] = (-0.5 * dt * (a / dx**2 + beta / (2 * dx)))[:, :-1]  # A[j, j+1]
    ab[:, :-1, 5] = (-0.5 * dt * (a / dx**2 - beta / (2 * dx)))[:, 1:]  # A[j, j-1]
    # boundary rows: identity (Dirichlet) or a vanishing second difference
    extrapolate = [edge == BC_EXTRAPOLATE for edge in bc]
    ab[:, [0, -1], 4] = 1.0
    ab[:, 1, 3], ab[:, 2, 2] = (-2.0, 1.0) if extrapolate[0] else (0.0, 0.0)
    ab[:, -2, 5], ab[:, -3, 6] = (-2.0, 1.0) if extrapolate[1] else (0.0, 0.0)
    return ab.reshape(m * n_x, 7).T


def _by_regime(m, x, fn):
    """(n_x, m) stack of ``fn(lab)`` for the labels 1..m, broadcast along x."""
    return np.stack([np.broadcast_to(fn(i + 1), x.shape) for i in range(m)],
                    axis=1)


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

    ``v_next`` is (R, n_x, m); the rows share ``a`` and ``beta`` ((n_x, m)
    at the mid time) and differ in ``sources(s, v, qv)`` -> (R, n_x, m)
    and in ``edges``, their (R, m, 2) Dirichlet data at s_lo.  The m
    regimes' banded matrices, stacked block-diagonally, take one LAPACK
    factorization (dgbtrf) per step and two back-substitutions (dgbtrs),
    predictor and corrector, with the R rows as right-hand sides.
    Partial pivoting never leaves a block, so each regime's solution is
    the one of its own matrix.
    """
    dt = s_hi - s_lo
    dx = grid.dx
    n_rows, n_x, m = v_next.shape
    lap = (v_next[:, 2:] - 2 * v_next[:, 1:-1] + v_next[:, :-2]) / dx**2
    grad = (v_next[:, 2:] - v_next[:, :-2]) / (2 * dx)
    expl = v_next.copy()
    expl[:, 1:-1] += 0.5 * dt * (a[1:-1] * lap + beta[1:-1] * grad)
    for edge, j in ((0, 0), (1, -1)):
        expl[:, j] = 0.0 if grid.bc[edge] == BC_EXTRAPOLATE else edges[:, :, edge]
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
        rhs[:, 1:-1] += dt * expl_extra[:, 1:-1]
        # (R, n_x, m) -> the Fortran-ordered (m*n_x, R) right-hand sides
        rhs = np.ascontiguousarray(rhs.transpose(0, 2, 1)).reshape(n_rows, -1).T
        out = dgbtrs(lu, 2, 2, rhs, piv, overwrite_b=1)[0]
        return np.ascontiguousarray(
            out.T.reshape(n_rows, m, n_x).transpose(0, 2, 1))

    qv1 = _qv(q_table, v_next)
    src1 = sources(s_hi, v_next, qv1)
    v_pred = solve(qv1 + src1)
    qv2 = _qv(q_table, v_pred)
    src2 = sources(s_lo, v_pred, qv2)
    v_new = solve(0.5 * (qv1 + qv2) + 0.5 * (src1 + src2))
    if not np.all(np.isfinite(v_new)):
        raise NumericError(f"backward step produced non-finite values at "
                           f"s={s_lo:g}")
    return v_new


def solve_linear_parabolic(problem, times):
    """Backward solve of a closed linear system; returns the full field."""
    times = np.asarray(times, dtype=float)
    _check_stability(problem.q_table, times)
    grid = problem.grid
    x = grid.x
    m = problem.m
    values = np.empty((len(times), grid.n_x, m))
    if problem.terminal is None:
        raise ConfigError("linear problem needs terminal data")
    values[-1] = problem.terminal

    def sources(s, v, qv):
        if problem.source is None:
            return np.zeros_like(v)
        vx = d1(v[0], grid.dx, axis=0)
        return _by_regime(m, x, lambda lab: problem.source(
            s, x, lab, v[0, :, lab - 1], vx[:, lab - 1], qv[0, :, lab - 1]))[None]

    edges = _edges(grid, [problem.dirichlet], times, m)
    for k in range(len(times) - 2, -1, -1):
        s_lo, s_hi = times[k], times[k + 1]
        s_mid = 0.5 * (s_lo + s_hi)
        a, beta = (_by_regime(m, x, lambda lab: fn(s_mid, x, lab))
                   for fn in (problem.a, problem.beta))
        values[k] = _step(values[k + 1][None], s_lo, s_hi, grid, a, beta,
                          problem.q_table, sources, edges[:, k])[0]
    return ValueField(times, grid, values)


def _pointwise(name, out, shape):
    """A model callable's output broadcast to the node shape."""
    try:
        return out if np.shape(out) == shape else np.broadcast_to(out, shape)
    except ValueError:
        raise ConfigError(f"model callable {name} returned shape "
                          f"{np.shape(out)} on nodes of shape {shape}; it "
                          f"must be pointwise along x and u and broadcast "
                          f"over anchor rows") from None


def _hamiltonian(coeffs, tau, s, x, lab, y, p, pp, qv, u):
    """p b + 0.5 sigma^2 pp + qv + g of regime ``lab`` at a stack of nodes.

    ``coeffs`` carries the callables b, sigma and g.  ``x`` is (n,) and
    ``u`` is (n, control_dim) for any stack length n; ``y`` (the value),
    ``p``, ``pp`` and ``qv`` are (n,), or (R, n) for R anchor rows with
    ``tau`` an (R, 1) column.  The result has the broadcast shape of x
    and y.
    """
    shape = np.broadcast_shapes(x.shape, y.shape)
    b = _pointwise("b", coeffs.b(s, x, lab, u), shape)
    sg = _pointwise("sigma", coeffs.sigma(s, x, lab, u), shape)
    return (p * b + 0.5 * sg**2 * pp + qv
            + _pointwise("g", coeffs.g(tau, s, x, lab, y, p * sg, qv, u), shape))


def controls_on_grid(problem, s, v_all):
    """Minimizing control at every (x, regime) node from a value snapshot.

    Uses the analytic minimizer when the problem supplies one, otherwise
    a deterministic grid search over the (possibly clamped) control set,
    ties broken toward the smallest control.  The search evaluates one
    regime's Hamiltonian on all n_u x n_x (control, node) pairs at once.
    """
    grid = problem.grid
    x = grid.x
    n_x = grid.n_x
    out = np.empty((n_x, problem.m, problem.control_dim))
    p_all = d1(v_all, grid.dx, axis=0)
    pp_all = d2(v_all, grid.dx, axis=0)
    if problem.psi is not None:
        for i in range(problem.m):
            u = np.asarray(problem.psi(problem.anchor, s, x, i + 1, v_all,
                                       p_all[:, i], pp_all[:, i]), dtype=float)
            out[:, i, :] = u[:, None] if u.ndim == 1 else u
        return out
    qv = _qv(problem.q_table, v_all)
    grid_u, clamped = problem.control_set.search_grid()
    n_u = len(grid_u)
    x_stack = np.tile(x, n_u)
    u_stack = np.repeat(grid_u, n_x)[:, None]
    for i in range(problem.m):
        ham = _hamiltonian(problem, problem.anchor, s, x_stack, i + 1,
                           np.tile(v_all[:, i], n_u), np.tile(p_all[:, i], n_u),
                           np.tile(pp_all[:, i], n_u), np.tile(qv[:, i], n_u),
                           u_stack)
        # first occurrence of the minimum = smallest control on ties
        best_idx = np.argmin(ham.reshape(n_u, n_x), axis=0)
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
    if problem.terminal is None:
        raise ConfigError("HJB problem needs terminal data")
    grid = problem.grid
    values = np.empty((len(times), grid.n_x, problem.m))
    values[-1] = problem.terminal
    controls = np.empty(values.shape + (problem.control_dim,))

    def minimizer(k):
        controls[k] = controls_on_grid(problem, times[k], values[k])
        return controls[k]

    solve_rows_batch(problem, times, minimizer, [problem.anchor], values[None],
                     [problem.dirichlet])
    minimizer(0)
    value = ValueField(times, grid, values)
    cs = problem.control_set
    bounds = [(cs.lo, cs.hi)] * problem.control_dim if cs is not None else None
    strategy = FeedbackStrategy(times, grid, controls, bounds=bounds,
                                names=problem.control_names)
    return HJBSolution(value=value, strategy=strategy)


def _strategy_nodes(strategy, s, grid, m, control_dim):
    """Controls at one time node for every (x, regime); exact on node hits."""
    if isinstance(strategy, FeedbackStrategy):
        k = int(np.argmin(np.abs(strategy.times - s)))
        if abs(strategy.times[k] - s) <= 1e-9 and strategy.grid == grid:
            return strategy.node_values(k)
    out = np.empty((grid.n_x, m, control_dim))
    for lab in range(1, m + 1):
        u = np.asarray(strategy(s, grid.x, lab), dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        out[:, lab - 1, :] = u
    return out


def solve_representation(problem, times, strategy):
    """Linear representation solve: the HJB stepping with a given strategy.

    ``strategy`` is a FeedbackStrategy or a callable (s, x, i) -> control;
    it is evaluated at the known time level of each step and frozen, the
    exact counterpart of the policy-evaluation splitting in solve_hjb.
    Solving with the strategy returned by solve_hjb reproduces its value
    field bit for bit.  This is a one-row solve_rows_batch.
    """
    times = np.asarray(times, dtype=float)
    if problem.terminal is None:
        raise ConfigError("representation problem needs terminal data")
    grid = problem.grid
    m = problem.m
    values = np.empty((len(times), grid.n_x, m))
    values[-1] = problem.terminal
    solve_rows_batch(
        problem, times,
        lambda k: _strategy_nodes(strategy, times[k], grid, m,
                                  problem.control_dim),
        [problem.anchor], values[None], [problem.dirichlet])
    return ValueField(times, grid, values)


def solve_rows_batch(problem, times, controls, anchors, rows,
                     dirichlet_fns=None, active_from=None):
    """The backward march: a batch of anchor rows under per-level controls.

    ``rows`` is a caller-owned (R, L, n_x, m) level buffer: level k of
    row r lives at ``rows[r, k % L]``, and the march steps it down in
    place from each row's terminal data at level n_t - 1.  L = n_t keeps
    every level (terminal data at ``[:, -1]``); L = 2 keeps the level a
    step reads and the one it writes.  The rows share the coefficients
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
    L >= 2, level k + 1 too).  Each step factorizes the regimes' stacked
    banded matrices once and solves its rows as the right-hand sides;
    the source calls g once per regime and stage for all of them, with
    their anchors as an (R, 1) column (see HJBProblem).
    """
    times = np.asarray(times, dtype=float)
    _check_stability(problem.q_table, times)
    grid = problem.grid
    x = grid.x
    m = problem.m
    anchors = np.asarray(anchors, dtype=float)
    active_from = np.zeros(len(anchors), dtype=np.int64) if active_from is None \
        else np.asarray(active_from, dtype=np.int64)
    edges = _edges(grid, [None] * len(anchors) if dirichlet_fns is None
                   else dirichlet_fns, times, m)
    n_levels = rows.shape[1]

    def frozen(fn, s, u):
        return _by_regime(m, x, lambda lab: fn(s, x, lab, u[:, lab - 1]))

    for k in range(len(times) - 1, 0, -1):
        s_hi, s_lo = times[k], times[k - 1]
        act = np.flatnonzero(active_from <= k - 1)
        if len(act) == 0:
            continue
        groups = controls(k)
        if isinstance(groups, np.ndarray):
            groups = [(act, groups)]
        s_mid = 0.5 * (s_lo + s_hi)
        for idx, u_star in groups:
            if len(idx) == 0:
                continue
            tau = anchors[idx, None]
            a = 0.5 * frozen(problem.sigma, s_mid, u_star)**2
            beta = frozen(problem.b, s_mid, u_star)

            def sources(s, v, qv):
                z = d1(v, grid.dx, axis=1) * frozen(problem.sigma, s, u_star)
                return np.stack([_pointwise("g", problem.g(
                    tau, s, x, i + 1, v[..., i], z[..., i], qv[..., i],
                    u_star[:, i]), v.shape[:2]) for i in range(m)], axis=-1)

            rows[idx, (k - 1) % n_levels] = _step(
                rows[idx, k % n_levels], s_lo, s_hi, grid, a, beta,
                problem.q_table, sources, edges[idx, k - 1])
