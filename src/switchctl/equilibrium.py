"""Equilibrium two-time solver: one backward march on the diagonal.

The unknown Theta(tau, s, x, i) lives on the triangle tau <= s of one
global time grid.  Every anchor row is a linear representation equation
closed under the strategy read off the diagonal Theta(s, s) through the
minimizer map, and a backward step s_hi -> s_lo freezes the controls at
s_hi.  So the discrete equilibrium equations are lower-triangular in s:
once every row holds its value at level k, row k's value there is the
diagonal, the diagonal gives the controls at level k, and those controls
take every row anchored below k one step down.  One backward march over
all rows solves the system exactly, with no iteration.  The march holds
two levels of every row; what outlives a level (the diagonal, the
controls, the rows asked for, the residual) is read off as the level is
reached, so memory is O(n_t n_x m) unless every row is kept.

When the model declares an anchor basis (g and h polynomials of degree
< K in the anchor, g affine in (y, z, qv) with anchor-free coefficients),
each step is linear in the row and in its anchor terms, so every anchor
row is the Lagrange mix of the K node rows: the march steps those K rows
and forms each anchor row it reads as that mix.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .fields import (BC_DIRICHLET, FeedbackStrategy, TwoTimeField,
                     ValueField, d1, refuse_oversized)
from .pde import (_hamiltonian, _pointwise, _qv, controls_on_grid,
                  solve_rows_batch)


class ClampWarning(UserWarning):
    """The analytic minimizer clamped its derivative inputs away from zero."""


@dataclass
class EquilibriumSolution:
    theta: TwoTimeField            # the kept anchor rows
    value: ValueField              # the diagonal
    strategy: FeedbackStrategy
    log: list = field(default_factory=list)
    residual: float = None         # the in-march residual, when asked for


def strategy_from_diagonal(model, grid, times, diag, q_table=None,
                           node_range=None):
    """Minimizer map applied on the diagonal: controls at every node.

    Returns an array (n_t, n_x, m, control_dim); ``node_range`` limits
    the recomputation to a slice of time nodes.
    """
    problem = model.hjb_problem(times[0], grid)
    if q_table is not None:
        problem.q_table = q_table
    n_t = len(times)
    out = np.empty((n_t, grid.n_x, model.m, model.control_dim))
    rng = range(n_t) if node_range is None else node_range
    for j in rng:
        problem.anchor = float(times[j])
        out[j] = controls_on_grid(problem, float(times[j]), diag[j])
    return out


def march_bytes(n_t, n_x, m, control_dim, n_marched, n_kept, dirichlet):
    """Bytes solve_equilibrium stores: ``n_kept`` two-time rows, the
    two-level buffer of the ``n_marched`` rows it steps, the controls,
    the diagonal and, with Dirichlet edges, the (n_marched, n_t, m, 2)
    edge table."""
    row = 8 * n_t * n_x * m
    edges = 8 * n_marched * n_t * m * 2 if dirichlet else 0
    return (n_kept + control_dim + 1) * row + 16 * n_marched * n_x * m + edges


def solve_equilibrium(model, grid, times, boundary=None, keep_rows=None,
                      residual=False):
    """Solve the equilibrium system in one backward march.

    Every anchor row starts from its terminal data h(tau) at T.  At each
    level k, from the last down, the diagonal value Theta(s_k, s_k) gives
    the controls at s_k, and rows 0..k-1 take one step to level k-1 under
    them, each with its own anchor and Dirichlet data: one
    solve_rows_batch call with row j active from level j, on a buffer
    that holds two levels of every row.  With a declared
    ``model.anchor_basis`` the buffer holds the K node rows instead, all
    active down to level 0, and every anchor row read below is their
    Lagrange mix; the declaration is checked first (``_basis_weights``).
    As level k is reached the diagonal, the rows named in ``keep_rows``
    (anchor indices; all rows by default, none for ``()``) and, when
    ``residual`` is set, the residual between levels k and k+1 are read
    off it.  The kept rows are ``theta``; ``residual(model, solution)``
    of a solution that keeps every row equals the in-march residual.
    ``boundary`` is an optional factory tau -> dirichlet for anchored
    Dirichlet data, where dirichlet(times) returns the row's (n_t, m, 2)
    edge values.  What is stored is refused before allocation when it
    needs more than half the physical memory.  The log stays empty: the
    march takes no sweeps.
    """
    times = np.asarray(times, dtype=float)
    n_t = len(times)
    shape = (model.m, grid.n_x)                     # regime-major levels
    n_kept = n_t if keep_rows is None else len(set(keep_rows))
    basis = model.anchor_basis
    n_marched = n_t if basis is None else len(basis)
    refuse_oversized(
        march_bytes(n_t, grid.n_x, model.m, model.control_dim, n_marched,
                    n_kept, BC_DIRICHLET in grid.bc),
        f"equilibrium march of {n_marched} rows keeping {n_kept} rows on "
        f"n_t={n_t} times x n_x={grid.n_x} nodes x m={model.m} regimes")
    if basis is None:
        weights = None
        anchors, active_from = times, np.arange(n_t)
    else:
        weights = _basis_weights(model, grid, times, boundary)
        anchors, active_from = np.asarray(basis, dtype=float), None
    theta = TwoTimeField(times, grid, model.m, keep_rows)
    kept = theta.anchor_rows
    levels = np.empty((n_marched, 2) + shape)   # level k of row j: [j, k % 2]
    for j, tau in enumerate(anchors):
        levels[j, (n_t - 1) % 2] = model.terminal_values(float(tau), grid).T
    dirichlet_fns = [boundary(float(t)) for t in anchors] \
        if boundary is not None else None
    problem = model.hjb_problem(0.0, grid)
    diag = np.empty((n_t,) + shape)
    controls = np.empty((n_t, grid.n_x, model.m, model.control_dim))
    residual_level = _residual_levels(model, grid, times, controls) \
        if residual else None
    worst = None
    clamps_before = getattr(model, "psi_clamp_count", 0)

    def anchor_rows(level, idx):
        """The anchor rows ``idx`` (a slice or index array) at one level."""
        return level[idx] if weights is None else _mix(weights[idx], level)

    def minimizer(k):
        nonlocal worst
        level = levels[:, k % 2]
        diag[k] = anchor_rows(level, slice(k, k + 1))[0]
        n = np.searchsorted(kept, k, side="right")    # kept rows reaching k
        theta.values[:n, k] = anchor_rows(level, kept[:n]).swapaxes(1, 2)
        problem.anchor = float(times[k])
        controls[k] = controls_on_grid(problem, float(times[k]), diag[k].T)
        if residual_level is not None:
            worst = residual_level(
                k, anchor_rows(level, slice(0, min(k + 1, n_t - 1))))
        return controls[k]

    solve_rows_batch(problem, times, minimizer, anchors, levels, dirichlet_fns,
                     active_from=active_from)
    minimizer(0)
    fired = getattr(model, "psi_clamp_count", 0) - clamps_before
    if fired:
        warnings.warn(f"minimizer derivative clamp fired {fired} times "
                      f"during the equilibrium solve", ClampWarning)
    cs = model.control_set
    strategy = FeedbackStrategy(times, grid, controls,
                                bounds=[(cs.lo, cs.hi)] * model.control_dim,
                                names=model.control_names)
    return EquilibriumSolution(theta=theta,
                               value=ValueField(times, grid, diag.swapaxes(1, 2)),
                               strategy=strategy, residual=worst)


def _lagrange_weights(taus, nodes):
    """(len(taus), K) Lagrange weights of the K anchor ``nodes`` at
    ``taus``: L_j(tau) = prod over l != j of (tau - tau_l) / (tau_j -
    tau_l), in node order, so exactly one and zero at the nodes."""
    taus = np.asarray(taus, dtype=float)
    out = np.ones((len(taus), len(nodes)))
    for j, tau_j in enumerate(nodes):
        for l, tau_l in enumerate(nodes):
            if l != j:
                out[:, j] *= (taus - tau_l) / (tau_j - tau_l)
    return out


def _mix(weights, rows):
    """sum_j weights[:, j] rows[j] for (n, K) weights and K rows: one
    elementwise multiply-add per node, in node order, so an entry's
    value does not depend on how many entries are formed at once."""
    w = weights.reshape(weights.shape + (1,) * (rows.ndim - 1))
    out = w[:, 0] * rows[0]
    for j in range(1, len(rows)):
        out += w[:, j] * rows[j]
    return out


# anchors, as fractions of the horizon, at which a declared basis is checked
_BASIS_PROBES = (0.13, 0.5, 0.87)
_BASIS_RTOL = 1e-9


def _basis_weights(model, grid, times, boundary):
    """The (n_t, K) Lagrange weights of ``times`` on ``model.anchor_basis``,
    once the declaration holds on a fixed probe set.

    At the nodes and at ``_BASIS_PROBES`` of the horizon, g is evaluated
    on the grid at the first and last time, in every regime, with probe
    controls from the control set and five (y, z, qv) probes: zero, the
    three unit vectors and one mixed probe.  g must be affine in (y, z, qv)
    with the same slopes at every anchor, and g, h and (when given) the
    Dirichlet tables at the probe anchors must equal their Lagrange
    mixes of the node values.  Anything else is a ConfigError naming
    anchor_basis: the mix would be silently wrong.
    """
    nodes = np.asarray(model.anchor_basis, dtype=float)
    if nodes.ndim != 1 or len(nodes) == 0 or \
            len(np.unique(nodes)) < len(nodes):
        raise ConfigError(f"anchor_basis {model.anchor_basis!r} must be one "
                          f"or more distinct anchor nodes")
    k = len(nodes)
    anchors = np.concatenate([nodes, model.T * np.asarray(_BASIS_PROBES)])
    w_probe = _lagrange_weights(anchors[k:], nodes)
    x = grid.x
    grid_u = model.control_set.search_grid()[0]
    u = np.repeat(grid_u[np.linspace(0, len(grid_u) - 1, len(x)).astype(int)]
                  [:, None], model.control_dim, axis=1)
    zero, one = np.zeros_like(x), np.ones_like(x)
    mixed = (0.3 + 0.5 * x, 0.2 - 0.7 * x, 0.1 * x - 0.4)
    probes = [(zero, zero, zero), (one, zero, zero), (zero, one, zero),
              (zero, zero, one), mixed]

    def refuse(what):
        raise ConfigError(f"anchor_basis {nodes.tolist()}: {what}")

    def close(got, want):
        scale = max(1.0, float(np.max(np.abs(want))))
        return np.allclose(got, want, rtol=_BASIS_RTOL,
                           atol=_BASIS_RTOL * scale)

    def spanned(values):
        """Values at the probe anchors equal the mixes of the node values."""
        return close(values[k:], _mix(w_probe, values[:k]))

    # g[anchor, s, regime, (y, z, qv) probe, x]
    g = np.array([[[[_pointwise("g", model.g(float(tau), float(s), x, i, *p, u),
                                x.shape) for p in probes]
                    for i in range(1, model.m + 1)]
                   for s in (times[0], times[-1])] for tau in anchors])
    slopes = g[..., 1:4, :] - g[..., :1, :]
    affine = g[..., 0, :] + sum(c * slopes[..., j, :]
                                for j, c in enumerate(mixed))
    if not (close(g[..., 4, :], affine) and close(slopes, slopes[:1])):
        refuse("g is not affine in (y, z, qv) with anchor-free coefficients")
    if not spanned(g):
        refuse(f"g is not a polynomial of degree < {k} in the anchor")
    if not spanned(np.stack([model.terminal_values(float(tau), grid)
                             for tau in anchors])):
        refuse(f"h is not a polynomial of degree < {k} in the anchor")
    if boundary is not None and not spanned(np.stack(
            [np.asarray(boundary(float(tau))(times), dtype=float)
             for tau in anchors])):
        refuse(f"the Dirichlet data are not polynomials of degree < {k} in "
               f"the anchor")
    return _lagrange_weights(times, nodes)


def _residual_levels(model, grid, times, controls):
    """The residual of the equilibrium system, fed one level at a time.

    Returns ``level(k, rows)``, to be called for k from the last level
    down with ``rows`` holding rows 0..min(k, n_t - 2) at level k,
    regime-major (n_rows, m, n_x), after ``controls[k]`` is set; it
    returns the running maximum.  The residual of every row and
    interior node at the pair (k, k+1) couples the forward time
    difference with the average of the Hamiltonian at the two levels,
    evaluated along the strategy on the interior nodes only.  Rows
    0..k share the level-k controls, so the Hamiltonian is evaluated
    once per level and regime over all of them.  The rows of level k+1
    and their Hamiltonian are held, not copied, until level k is fed, so
    the caller must leave them unchanged until then: the march's
    two-level buffer overwrites level k+1 only with level k-1.
    """
    n_t = len(times)
    q_table = model.q_table(grid)
    interior = grid.interior_mask()
    interior[0] = interior[-1] = False
    # the interior is one run of nodes away from both edges: a slice, with
    # its left and right neighbours for the central differences
    nodes = np.flatnonzero(interior)
    lo, hi = (nodes[0], nodes[-1] + 1) if len(nodes) else (1, 1)
    inner = slice(lo, hi)
    left, right = slice(lo - 1, hi - 1), slice(lo + 1, hi + 1)
    worst = 0.0
    upper = None                     # (rows, Hamiltonian) at level k + 1

    def hamiltonian(k, v):
        """The rows ``v`` (n_rows, m, n_x) at level k: their interior
        nodes (n_rows, m, n_inner) and the Hamiltonian there, with
        ``fields.d1`` and ``d2``'s central differences."""
        v_in = v[..., inner]
        vx = (v[..., right] - v[..., left]) / (2 * grid.dx)
        vxx = (v[..., right] - 2 * v_in + v[..., left]) / grid.dx**2
        qv = _qv(q_table, v_in, inner)
        tau = times[:len(v), None]
        s = float(times[k])
        out = np.empty(v_in.shape)
        for i in range(model.m):
            out[:, i] = _hamiltonian(model, tau, s, grid.x[inner], i + 1,
                                     v_in[:, i], vx[:, i], vxx[:, i], qv[:, i],
                                     controls[k, inner, i, :])
        return v_in, out

    def level(k, rows):
        nonlocal worst, upper
        v = rows[:min(k + 1, n_t - 1)]
        if len(v) == 0:
            return worst
        v, ham = hamiltonian(k, v)
        if upper is not None:
            v_hi, ham_hi = upper
            dt = times[k + 1] - times[k]
            res = (v_hi[:k + 1] - v) / dt + 0.5 * (ham_hi[:k + 1] + ham)
            worst = max(worst, float(np.max(np.abs(res))))
        upper = (v, ham)
        return worst

    return level


def residual(model, solution):
    """Max finite-difference residual of the equilibrium system.

    Needs a solution that keeps every anchor row (a DomainError
    otherwise); ``solve_equilibrium(..., residual=True)`` gives the same
    number without keeping them.
    """
    theta = solution.theta
    if len(theta.anchor_rows) < len(theta.times):
        raise DomainError("the residual needs every anchor row; solve with "
                          "residual=True instead")
    level = _residual_levels(model, theta.grid, theta.times,
                             solution.strategy.values)
    worst = 0.0
    for k in range(len(theta.times) - 1, -1, -1):
        worst = level(k, theta.values[:, k].swapaxes(1, 2))
    return worst


def compare_to_partition(solution, pi_solution):
    """Sup-norm distances between the cycle outputs and the equilibrium.

    Returns the distances of the two-time fields, their space derivative
    quotients, and the strategies over the interior.
    """
    theta = solution.theta
    if len(pi_solution.times) != len(theta.times) or \
            np.max(np.abs(pi_solution.times - theta.times)) > 1e-12 or \
            not (pi_solution.grid == theta.grid):
        raise ConfigError("partition and equilibrium runs must share grids")
    grid = theta.grid
    interior = grid.interior_mask()
    d_theta = 0.0
    d_theta_x = 0.0
    for tau_idx in range(len(theta.times)):
        row_pi = pi_solution.theta_row(tau_idx)
        row_eq = theta.row(tau_idx).values
        diff = np.abs(row_pi - row_eq)[:, interior, :]
        d_theta = max(d_theta, float(np.max(diff)))
        dx_diff = np.abs(d1(row_pi, grid.dx, axis=1) - d1(row_eq, grid.dx, axis=1))
        d_theta_x = max(d_theta_x, float(np.max(dx_diff[:, interior, :])))
    d_psi = pi_solution.strategy.sup_diff(solution.strategy, interior)
    return {"sup_diff_theta": d_theta, "sup_diff_theta_x": d_theta_x,
            "sup_diff_psi": d_psi}
