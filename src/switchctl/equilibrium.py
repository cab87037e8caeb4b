"""Equilibrium two-time solver: one backward march on the diagonal.

The unknown Theta(tau, s, x, i) lives on the triangle tau <= s of one
global time grid.  Every anchor row is a linear representation equation
closed under the strategy read off the diagonal Theta(s, s) through the
minimizer map, and a backward step s_hi -> s_lo freezes the controls at
s_hi.  So the discrete equilibrium equations are lower-triangular in s:
once every row holds its value at level k, row k's value there is the
diagonal, the diagonal gives the controls at level k, and those controls
take every row anchored below k one step down.  One backward march over
all rows solves the system exactly, with no iteration.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fields import FeedbackStrategy, TwoTimeField, ValueField, d1, d2
from .pde import _hamiltonian, _qv, controls_on_grid, solve_rows_batch


class ClampWarning(UserWarning):
    """The analytic minimizer clamped its derivative inputs away from zero."""


@dataclass
class EquilibriumSolution:
    theta: TwoTimeField
    value: ValueField              # the diagonal
    strategy: FeedbackStrategy
    log: list = field(default_factory=list)


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


def solve_equilibrium(model, grid, times, boundary=None):
    """Solve the equilibrium system in one backward march.

    Every anchor row starts from its terminal data h(tau) at T.  At each
    level k, from the last down, the diagonal value Theta(s_k, s_k) gives
    the controls at s_k, and rows 0..k-1 take one step to level k-1 under
    them, each with its own anchor and Dirichlet data: one
    solve_rows_batch call with row j active from level j, writing
    straight into the two-time field.  ``boundary`` is an optional
    factory tau -> dirichlet for anchored Dirichlet data, where
    dirichlet(times) returns the row's (n_t, m, 2) edge values.  The log
    stays empty: the march takes no sweeps.
    """
    times = np.asarray(times, dtype=float)
    n_t = len(times)
    theta = TwoTimeField(times, grid, model.m)
    rows = theta.values
    for j in range(n_t):
        rows[j, -1] = model.terminal_values(float(times[j]), grid)
    dirichlet_fns = [boundary(float(t)) for t in times] \
        if boundary is not None else None
    problem = model.hjb_problem(0.0, grid)
    controls = np.empty((n_t, grid.n_x, model.m, model.control_dim))
    clamps_before = getattr(model, "psi_clamp_count", 0)

    def minimizer(k):
        problem.anchor = float(times[k])
        controls[k] = controls_on_grid(problem, float(times[k]), rows[k, k])
        return controls[k]

    solve_rows_batch(problem, times, minimizer, times, rows, dirichlet_fns,
                     active_from=np.arange(n_t))
    minimizer(0)
    fired = getattr(model, "psi_clamp_count", 0) - clamps_before
    if fired:
        warnings.warn(f"minimizer derivative clamp fired {fired} times "
                      f"during the equilibrium solve", ClampWarning)
    cs = model.control_set
    strategy = FeedbackStrategy(times, grid, controls,
                                bounds=[(cs.lo, cs.hi)] * model.control_dim,
                                names=model.control_names)
    return EquilibriumSolution(theta=theta, value=theta.diagonal(),
                               strategy=strategy)


def residual(model, solution):
    """Max finite-difference residual of the equilibrium system.

    For every anchor row and interior node the residual couples the
    forward time difference with the average of the Hamiltonian at the
    two levels, evaluated along the stored diagonal strategy.  Rows
    0..k share the level-k controls, so the Hamiltonian is evaluated
    once per level and regime over all of them.
    """
    theta = solution.theta
    times = theta.times
    grid = theta.grid
    rows = theta.values
    q_table = model.q_table(grid)
    interior = grid.interior_mask()
    interior[0] = interior[-1] = False
    controls = solution.strategy.values
    worst = 0.0

    def hamiltonian(k, n_rows):
        """Rows 0..n_rows-1 at level k: (n_rows, n_x, m)."""
        v = rows[:n_rows, k]
        vx = d1(v, grid.dx, axis=1)
        vxx = d2(v, grid.dx, axis=1)
        qv = _qv(q_table, v)
        tau = times[:n_rows, None]
        s = float(times[k])
        return np.stack([_hamiltonian(model, tau, s, grid.x, i + 1, v[..., i],
                                      vx[..., i], vxx[..., i], qv[..., i],
                                      controls[k, :, i, :])
                         for i in range(theta.m)], axis=-1)

    ham_hi = None
    for k in range(len(times) - 2, -1, -1):
        if ham_hi is None:
            ham_hi = hamiltonian(k + 1, k + 1)
        ham_lo = hamiltonian(k, k + 1)
        dt = times[k + 1] - times[k]
        res = (rows[:k + 1, k + 1] - rows[:k + 1, k]) / dt \
            + 0.5 * (ham_hi[:k + 1] + ham_lo)
        worst = max(worst, float(np.max(np.abs(res[:, interior]))))
        ham_hi = ham_lo
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
        row_eq = theta.values[tau_idx, tau_idx:]
        diff = np.abs(row_pi - row_eq)[:, interior, :]
        d_theta = max(d_theta, float(np.max(diff)))
        dx_diff = np.abs(d1(row_pi, grid.dx, axis=1) - d1(row_eq, grid.dx, axis=1))
        d_theta_x = max(d_theta_x, float(np.max(dx_diff[:, interior, :])))
    d_psi = pi_solution.strategy.sup_diff(solution.strategy, interior)
    return {"sup_diff_theta": d_theta, "sup_diff_theta_x": d_theta_x,
            "sup_diff_psi": d_psi}
