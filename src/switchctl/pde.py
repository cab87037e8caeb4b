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
solver enforces the configured bound.

The HJB variant picks the control at the known time level (analytic
minimizer when supplied, otherwise a deterministic grid search with ties
broken toward the smallest control), freezes it, and takes one linear
step: policy-evaluation splitting.

Domain truncation: the problems live on all of R, so the grid imposes
either linear extrapolation (vanishing second difference) or Dirichlet
data at the edges; error norms should exclude the configured buffer.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import ConfigError, DomainError, NumericError
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
    terminal_fn: callable = None        # h(x, i), used by the kernel oracle
    dirichlet: callable = None          # dirichlet(s, i) -> (left, right)
    stability_bound: float = 1.0


@dataclass
class HJBProblem:
    """Hamiltonian block: coefficients with an explicit control argument.

    b, sigma and g must be pointwise along the leading axis of x and u
    (u is (n, control_dim)) for any length n, not only n_x: the grid
    search evaluates them on n_u * n_x stacked nodes, with a few
    n_u * n_x float64 temporaries per regime.
    """

    b: callable                 # b(s, x, i, u) -> (n,)
    sigma: callable             # sigma(s, x, i, u) -> (n,)
    g: callable                 # g(tau, s, x, i, y, z, qv, u) -> (n,)
    anchor: float
    control_set: ControlSet
    grid: object
    m: int
    q_table: np.ndarray = None
    psi: callable = None        # psi(tau, s, x, i, v_all, p, P) -> (n_x, d)
    terminal: np.ndarray = None
    dirichlet: callable = None
    control_dim: int = 1
    control_names: list = None
    stability_bound: float = 1.0


@dataclass
class HJBSolution:
    value: ValueField
    strategy: FeedbackStrategy


def _check_stability(q_table, times, bound):
    if q_table is None:
        return
    dt_max = float(np.max(np.diff(times)))
    qmax = float(np.max(np.abs(np.einsum("xii->xi", q_table))))
    if dt_max * qmax >= bound:
        raise ConfigError(
            f"explicit regime coupling needs dt*max|q_ii| < {bound:g}; "
            f"got {dt_max * qmax:g} (refine the time grid)")


def _qv(q_table, v_all):
    if q_table is None:
        return np.zeros_like(v_all)
    return np.einsum("xij,xj->xi", q_table, v_all)


def _implicit_matrix(a_i, beta_i, dt, dx, bc, n_x):
    """(2,2)-banded matrix of I - dt/2 (a D2 + beta D1) with BC rows."""
    lower = -0.5 * dt * (a_i / dx**2 - beta_i / (2 * dx))
    diag = 1.0 + dt * a_i / dx**2
    upper = -0.5 * dt * (a_i / dx**2 + beta_i / (2 * dx))
    ab = np.zeros((5, n_x))
    ab[2, :] = diag
    ab[1, 1:] = upper[:-1]       # A[j, j+1]
    ab[3, :-1] = lower[1:]       # A[j, j-1]
    # boundary rows: identity (Dirichlet) or a vanishing second difference
    extrapolate = [edge == BC_EXTRAPOLATE for edge in bc]
    ab[2, [0, -1]] = 1.0
    ab[1, 1], ab[0, 2] = (-2.0, 1.0) if extrapolate[0] else (0.0, 0.0)
    ab[3, -2], ab[4, -3] = (-2.0, 1.0) if extrapolate[1] else (0.0, 0.0)
    return ab


def _explicit_half(v_i, a_i, beta_i, dt, dx):
    """(I + dt/2 (a D2 + beta D1)) v at interior nodes; edges copied."""
    out = v_i.copy()
    lap = (v_i[2:] - 2 * v_i[1:-1] + v_i[:-2]) / dx**2
    grad = (v_i[2:] - v_i[:-2]) / (2 * dx)
    out[1:-1] = v_i[1:-1] + 0.5 * dt * (a_i[1:-1] * lap + beta_i[1:-1] * grad)
    return out


def _linear_step(v_next, s_lo, s_hi, grid, m, a_fn, beta_fn, q_table, source,
                 dirichlet, bc):
    """One backward step s_hi -> s_lo of the predictor/corrector scheme."""
    dt = s_hi - s_lo
    dx = grid.dx
    x = grid.x
    n_x = grid.n_x
    s_mid = 0.5 * (s_lo + s_hi)
    qv1 = _qv(q_table, v_next)
    a_im = np.stack([np.broadcast_to(a_fn(s_mid, x, i + 1), x.shape)
                     for i in range(m)], axis=1)
    beta_im = np.stack([np.broadcast_to(beta_fn(s_mid, x, i + 1), x.shape)
                        for i in range(m)], axis=1)

    def sources(s, v_all, qv):
        if source is None:
            return np.zeros_like(v_all)
        vx = d1(v_all, dx, axis=0)
        return np.stack([np.broadcast_to(
            source(s, x, i + 1, v_all[:, i], vx[:, i], qv[:, i]), x.shape)
            for i in range(m)], axis=1)

    src1 = sources(s_hi, v_next, qv1)

    def solve(expl_extra):
        out = np.empty_like(v_next)
        for i in range(m):
            rhs = _explicit_half(v_next[:, i], a_im[:, i], beta_im[:, i], dt, dx)
            rhs[1:-1] += dt * expl_extra[1:-1, i]
            for edge, j in ((0, 0), (1, n_x - 1)):
                if bc[edge] == BC_EXTRAPOLATE:
                    rhs[j] = 0.0
                else:
                    if dirichlet is None:
                        raise ConfigError("dirichlet boundary requires data")
                    rhs[j] = dirichlet(s_lo, i + 1)[edge]
            ab = _implicit_matrix(a_im[:, i], beta_im[:, i], dt, dx, bc, n_x)
            try:
                out[:, i] = solve_banded((2, 2), ab, rhs)
            except Exception as exc:  # LinAlgError and friends
                raise NumericError(f"linear solve failed at s={s_lo:g}: {exc}")
        return out

    v_pred = solve(qv1 + src1)
    qv2 = _qv(q_table, v_pred)
    src2 = sources(s_lo, v_pred, qv2)
    return solve(0.5 * (qv1 + qv2) + 0.5 * (src1 + src2))


def solve_linear_parabolic(problem, times):
    """Backward solve of a closed linear system; returns the full field."""
    times = np.asarray(times, dtype=float)
    _check_stability(problem.q_table, times, problem.stability_bound)
    grid = problem.grid
    n_t = len(times)
    values = np.empty((n_t, grid.n_x, problem.m))
    if problem.terminal is None:
        raise ConfigError("linear problem needs terminal data")
    values[-1] = problem.terminal
    for k in range(n_t - 2, -1, -1):
        values[k] = _linear_step(values[k + 1], times[k], times[k + 1], grid,
                                 problem.m, problem.a, problem.beta,
                                 problem.q_table, problem.source,
                                 problem.dirichlet, grid.bc)
        if not np.all(np.isfinite(values[k])):
            raise NumericError(f"linear solve produced non-finite values at "
                               f"s={times[k]:g}")
    return ValueField(times, grid, values)


def _pointwise(name, out, shape):
    """A model callable's output broadcast to the stacked node shape."""
    try:
        return out if np.shape(out) == shape else np.broadcast_to(out, shape)
    except ValueError:
        raise ConfigError(f"model callable {name} returned shape "
                          f"{np.shape(out)} on {shape[0]} stacked nodes; it "
                          f"must be pointwise along x and u") from None


def _hamiltonian(coeffs, tau, s, x, lab, y, p, pp, qv, u):
    """p b + 0.5 sigma^2 pp + qv + g of regime ``lab`` at a stack of nodes.

    ``coeffs`` carries the callables b, sigma and g; ``x``, ``y`` (the
    value), ``p``, ``pp``, ``qv`` are (n,) and ``u`` is (n, control_dim)
    for any stack length n.
    """
    shape = x.shape
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


def _frozen_coefficients(problem, u_star):
    """a, beta and the source of one linear step, controls frozen at u_star."""

    def a_fn(s, x, lab):
        sg = np.broadcast_to(problem.sigma(s, x, lab, u_star[:, lab - 1]), x.shape)
        return 0.5 * sg**2

    def beta_fn(s, x, lab):
        return np.broadcast_to(problem.b(s, x, lab, u_star[:, lab - 1]), x.shape)

    def source(s, x, lab, v_i, vx_i, qv_i):
        z = vx_i * np.broadcast_to(problem.sigma(s, x, lab, u_star[:, lab - 1]), x.shape)
        return problem.g(problem.anchor, s, x, lab, v_i, z, qv_i, u_star[:, lab - 1])

    return a_fn, beta_fn, source


def solve_hjb(problem, times):
    """Backward HJB solve; returns the value field and the strategy field."""
    times = np.asarray(times, dtype=float)
    _check_stability(problem.q_table, times, problem.stability_bound)
    grid = problem.grid
    m = problem.m
    n_t = len(times)
    values = np.empty((n_t, grid.n_x, m))
    controls = np.empty((n_t, grid.n_x, m, problem.control_dim))
    if problem.terminal is None:
        raise ConfigError("HJB problem needs terminal data")
    values[-1] = problem.terminal
    controls[-1] = controls_on_grid(problem, times[-1], values[-1])
    for k in range(n_t - 2, -1, -1):
        s_lo, s_hi = times[k], times[k + 1]
        a_fn, beta_fn, source = _frozen_coefficients(problem, controls[k + 1])
        values[k] = _linear_step(values[k + 1], s_lo, s_hi, grid, m, a_fn,
                                 beta_fn, problem.q_table, source,
                                 problem.dirichlet, grid.bc)
        if not np.all(np.isfinite(values[k])):
            raise NumericError(f"HJB solve produced non-finite values at s={s_lo:g}")
        controls[k] = controls_on_grid(problem, s_lo, values[k])
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
    field bit for bit.
    """
    times = np.asarray(times, dtype=float)
    _check_stability(problem.q_table, times, problem.stability_bound)
    grid = problem.grid
    m = problem.m
    n_t = len(times)
    values = np.empty((n_t, grid.n_x, m))
    if problem.terminal is None:
        raise ConfigError("representation problem needs terminal data")
    values[-1] = problem.terminal
    for k in range(n_t - 2, -1, -1):
        u_star = _strategy_nodes(strategy, times[k + 1], grid, m,
                                 problem.control_dim)
        a_fn, beta_fn, source = _frozen_coefficients(problem, u_star)
        values[k] = _linear_step(values[k + 1], times[k], times[k + 1], grid, m,
                                 a_fn, beta_fn, problem.q_table, source,
                                 problem.dirichlet, grid.bc)
        if not np.all(np.isfinite(values[k])):
            raise NumericError(f"representation solve produced non-finite "
                               f"values at s={times[k]:g}")
    return ValueField(times, grid, values)


def solve_rows_batch(problem, times, strategy, anchors, terminals,
                     dirichlet_fns=None, active_from=None):
    """Batch of representation solves that share coefficients and strategy.

    The rows differ only in the anchor entering the source, the terminal
    data, and (optionally) per-row Dirichlet data, so each backward step
    factorizes one banded matrix per regime and back-substitutes all
    rows at once.  ``active_from[r]`` is the lowest time index row r
    reaches; below it the output stays NaN.  Returns an array
    (n_rows, n_t, n_x, m).
    """
    times = np.asarray(times, dtype=float)
    _check_stability(problem.q_table, times, problem.stability_bound)
    grid = problem.grid
    m = problem.m
    dx = grid.dx
    x = grid.x
    n_x = grid.n_x
    n_t = len(times)
    anchors = np.asarray(anchors, dtype=float)
    n_rows = len(anchors)
    if active_from is None:
        active_from = np.zeros(n_rows, dtype=np.int64)
    active_from = np.asarray(active_from, dtype=np.int64)
    q_table = problem.q_table

    out = np.full((n_rows, n_t, n_x, m), np.nan)
    out[:, -1] = terminals

    def qv_of(v):
        if q_table is None:
            return np.zeros_like(v)
        return np.einsum("xij,axj->axi", q_table, v)

    def sources(s, v, qv, act, u_star, sg_im):
        vx = d1(v, dx, axis=1)
        src = np.empty_like(v)
        for r, row in enumerate(act):
            for i in range(m):
                src[r, :, i] = problem.g(anchors[row], s, x, i + 1, v[r, :, i],
                                         vx[r, :, i] * sg_im[:, i], qv[r, :, i],
                                         u_star[:, i])
        return src

    for k in range(n_t - 1, 0, -1):
        s_hi, s_lo = times[k], times[k - 1]
        dt = s_hi - s_lo
        s_mid = 0.5 * (s_lo + s_hi)
        act = np.where(active_from <= k - 1)[0]
        if len(act) == 0:
            continue
        u_star = _strategy_nodes(strategy, s_hi, grid, m, problem.control_dim)
        a_im = np.empty((n_x, m))
        beta_im = np.empty((n_x, m))
        sg_hi = np.empty((n_x, m))
        sg_lo = np.empty((n_x, m))
        for i in range(m):
            sg_mid = np.broadcast_to(problem.sigma(s_mid, x, i + 1, u_star[:, i]),
                                     x.shape)
            a_im[:, i] = 0.5 * sg_mid**2
            beta_im[:, i] = np.broadcast_to(problem.b(s_mid, x, i + 1,
                                                      u_star[:, i]), x.shape)
            sg_hi[:, i] = np.broadcast_to(problem.sigma(s_hi, x, i + 1,
                                                        u_star[:, i]), x.shape)
            sg_lo[:, i] = np.broadcast_to(problem.sigma(s_lo, x, i + 1,
                                                        u_star[:, i]), x.shape)
        v_next = out[act, k]
        qv1 = qv_of(v_next)
        src1 = sources(s_hi, v_next, qv1, act, u_star, sg_hi)

        def solve(expl_extra):
            res = np.empty_like(v_next)
            for i in range(m):
                lap = (v_next[:, 2:, i] - 2 * v_next[:, 1:-1, i]
                       + v_next[:, :-2, i]) / dx**2
                grad = (v_next[:, 2:, i] - v_next[:, :-2, i]) / (2 * dx)
                rhs = v_next[:, :, i].copy()
                rhs[:, 1:-1] += 0.5 * dt * (a_im[1:-1, i] * lap
                                            + beta_im[1:-1, i] * grad)
                rhs[:, 1:-1] += dt * expl_extra[:, 1:-1, i]
                for edge, j in ((0, 0), (1, n_x - 1)):
                    if grid.bc[edge] == BC_EXTRAPOLATE:
                        rhs[:, j] = 0.0
                    else:
                        if dirichlet_fns is None:
                            raise ConfigError("dirichlet boundary requires data")
                        for r, row in enumerate(act):
                            rhs[r, j] = dirichlet_fns[row](s_lo, i + 1)[edge]
                ab = _implicit_matrix(a_im[:, i], beta_im[:, i], dt, dx,
                                      grid.bc, n_x)
                try:
                    res[:, :, i] = solve_banded((2, 2), ab, rhs.T).T
                except Exception as exc:
                    raise NumericError(f"linear solve failed at s={s_lo:g}: {exc}")
            return res

        v_pred = solve(qv1 + src1)
        qv2 = qv_of(v_pred)
        src2 = sources(s_lo, v_pred, qv2, act, u_star, sg_lo)
        v_new = solve(0.5 * (qv1 + qv2) + 0.5 * (src1 + src2))
        if not np.all(np.isfinite(v_new)):
            raise NumericError(f"batch solve produced non-finite values at "
                               f"s={s_lo:g}")
        out[act, k - 1] = v_new
    return out


def apply_generator(fld, s_idx, x_idx, i, u, dynamics, q_table):
    """Central-difference generator 0.5 sigma^2 D2 V + b D1 V + [Q V]_i.

    ``i`` is a regime label in 1..m; interior nodes only.
    """
    grid = fld.grid
    if not (0 < x_idx < grid.n_x - 1):
        raise DomainError("apply_generator is defined at interior nodes only")
    s = fld.times[s_idx]
    xj = grid.x[x_idx]
    v = fld.values[s_idx]
    dv = (v[x_idx + 1, i - 1] - v[x_idx - 1, i - 1]) / (2 * grid.dx)
    d2v = (v[x_idx + 1, i - 1] - 2 * v[x_idx, i - 1] + v[x_idx - 1, i - 1]) / grid.dx**2
    u_arr = np.atleast_2d(np.asarray(u, dtype=float))
    x_arr = np.array([xj])
    b = float(np.asarray(dynamics.drift(s, x_arr, i, u_arr)).ravel()[0])
    sg = float(np.asarray(dynamics.diffusion(s, x_arr, i, u_arr)).ravel()[0])
    qv = 0.0
    if q_table is not None:
        qv = float(q_table[x_idx, i - 1] @ v[x_idx])
    return 0.5 * sg**2 * d2v + b * dv + qv


def kernel_oracle(problem, times, refine=8, pad_sigmas=8.0):
    """Gaussian-kernel solution for constant-coefficient heat problems.

    Requires constant diffusion per regime, zero drift, zero source and
    zero coupling; the terminal datum must be supplied as a callable
    ``terminal_fn(x, i)`` defined beyond the grid (integration uses a
    padded, refined quadrature grid).
    """
    times = np.asarray(times, dtype=float)
    grid = problem.grid
    x = grid.x
    a_const = []
    for i in range(problem.m):
        vals = np.broadcast_to(problem.a(times[0], x, i + 1), x.shape)
        later = np.broadcast_to(problem.a(times[-1], x, i + 1), x.shape)
        if np.ptp(vals) > 1e-14 or np.max(np.abs(vals - later)) > 1e-14:
            raise ConfigError("kernel oracle requires constant diffusion")
        if np.max(np.abs(np.broadcast_to(problem.beta(times[0], x, i + 1), x.shape))) > 0:
            raise ConfigError("kernel oracle requires zero drift")
        a_const.append(float(vals[0]))
    if problem.source is not None:
        raise ConfigError("kernel oracle requires zero source")
    if problem.q_table is not None and np.max(np.abs(problem.q_table)) > 0:
        raise ConfigError("kernel oracle requires zero regime coupling")
    if problem.terminal_fn is None:
        raise ConfigError("kernel oracle needs terminal_fn for quadrature")

    T = times[-1]
    values = np.empty((len(times), grid.n_x, problem.m))
    for i in range(problem.m):
        pad = pad_sigmas * np.sqrt(max(2 * a_const[i] * (T - times[0]), 0.0)) + grid.dx
        fine_dx = grid.dx / refine
        y = np.arange(grid.x_min - pad, grid.x_max + pad + fine_dx / 2, fine_dx)
        hy = np.asarray(problem.terminal_fn(y, i + 1), dtype=float)
        dy = y[1] - y[0]
        for k, s in enumerate(times):
            var = 2 * a_const[i] * (T - s)
            if var <= 1e-300:
                values[k, :, i] = np.asarray(problem.terminal_fn(x, i + 1))
                continue
            kernel = np.exp(-((x[:, None] - y[None, :]) ** 2) / (2 * var))
            kernel /= np.sqrt(2 * np.pi * var)
            w = np.full(len(y), dy)
            w[0] = w[-1] = dy / 2
            values[k, :, i] = kernel @ (hy * w)
    return ValueField(times, grid, values)
