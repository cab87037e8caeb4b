"""Equilibrium two-time solver: fixed point on the diagonal.

The unknown Theta(tau, s, x, i) lives on the triangle tau <= s of one
global time grid.  Given a diagonal guess v(s, x, i), the strategy is
read off the diagonal through the minimizer map, every anchor row
becomes a linear representation equation closed under that strategy,
and the diagonal is replaced by the freshly solved one.  The iteration
is a contraction only over short horizons, so the solver marches
backward in slabs: within a slab the rows are swept to stationarity
while everything to the right stays frozen; each row's tail beyond the
slab is solved once, when its slab begins, against the already
converged strategy.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceError
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
    final_residual: float = None


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


def solve_equilibrium(model, grid, times, tol=1e-8, max_sweeps=40,
                      slab=None, boundary=None, max_slab_halvings=3):
    """Solve the equilibrium system; returns fields, strategy and the log.

    ``slab`` is the slab width in time units (default T/8); it is halved
    and the solve restarted when a slab fails to converge within
    ``max_sweeps``.  ``boundary`` is an optional factory
    tau -> dirichlet(s, i) for anchored Dirichlet data.
    """
    times = np.asarray(times, dtype=float)
    horizon = times[-1] - times[0]
    if slab is None:
        slab = horizon / 8.0
    if slab <= 0 or slab > horizon + 1e-12:
        raise ConfigError("slab width must lie in (0, T]")
    log = []
    clamps_before = getattr(model, "psi_clamp_count", 0)
    for attempt in range(max_slab_halvings + 1):
        try:
            solution = _solve_with_slab(model, grid, times, tol, max_sweeps,
                                        slab, boundary, log)
            fired = getattr(model, "psi_clamp_count", 0) - clamps_before
            if fired:
                warnings.warn(f"minimizer derivative clamp fired {fired} "
                              f"times during the equilibrium solve",
                              ClampWarning)
            return solution
        except ConvergenceError:
            if attempt == max_slab_halvings:
                raise
            slab /= 2.0
            log.append({"event": "slab_halved", "slab": slab})


def _solve_with_slab(model, grid, times, tol, max_sweeps, slab, boundary, log):
    n_t = len(times)
    m = model.m
    q_table = model.q_table(grid)
    dt = times[1] - times[0]
    slab_steps = max(1, int(round(slab / dt)))

    theta = TwoTimeField(times, grid, m)
    diag = np.empty((n_t, grid.n_x, m))
    for j in range(n_t):
        diag[j] = model.terminal_values(times[j], grid)
    theta.values[n_t - 1, n_t - 1] = diag[n_t - 1]
    controls = strategy_from_diagonal(model, grid, times, diag, q_table)

    template = model.hjb_problem(0.0, grid)
    template.q_table = q_table

    def strategy_view():
        cs = model.control_set
        return FeedbackStrategy(times, grid, controls,
                                bounds=[(cs.lo, cs.hi)] * model.control_dim,
                                names=model.control_names)

    b_idx = n_t - 1
    while b_idx > 0:
        a_idx = max(0, b_idx - slab_steps)
        rows = np.arange(a_idx, b_idx)
        anchors = times[rows]
        dirichlet_fns = [boundary(float(t)) for t in anchors] \
            if boundary is not None else None
        h_rows = np.stack([model.terminal_values(float(t), grid)
                           for t in anchors])
        # tails of this slab's rows, solved once against the frozen strategy
        if b_idx < n_t - 1:
            tails = solve_rows_batch(template, times[b_idx:], strategy_view(),
                                     anchors, h_rows, dirichlet_fns)
            theta.values[rows, b_idx:] = tails
            terminals = theta.values[rows, b_idx]
        else:
            terminals = h_rows
        active_from = rows - a_idx
        sweep = 0
        prev_change = np.inf
        while True:
            sweep += 1
            segs = solve_rows_batch(template, times[a_idx:b_idx + 1],
                                    strategy_view(), anchors, terminals,
                                    dirichlet_fns, active_from=active_from)
            for r, tau_idx in enumerate(rows):
                theta.values[tau_idx, tau_idx:b_idx + 1] = segs[r, r:]
            new_diag = theta.values[rows, rows]
            change = float(np.max(np.abs(new_diag - diag[a_idx:b_idx])))
            log.append({"sweep": sweep, "slab_end": float(times[b_idx]),
                        "diag_change": change})
            if change < tol:
                diag[a_idx:b_idx] = new_diag
                controls[a_idx:b_idx] = strategy_from_diagonal(
                    model, grid, times, diag, q_table,
                    range(a_idx, b_idx))[a_idx:b_idx]
                break
            if sweep >= max_sweeps:
                raise ConvergenceError(
                    f"diagonal sweep stalled at change {change:g} on slab "
                    f"ending {times[b_idx]:g}", history=log)
            if change > prev_change:
                # a growing change signals a control flicker; damp it out
                diag[a_idx:b_idx] = 0.5 * (diag[a_idx:b_idx] + new_diag)
            else:
                diag[a_idx:b_idx] = new_diag
            prev_change = change
            controls[a_idx:b_idx] = strategy_from_diagonal(
                model, grid, times, diag, q_table, range(a_idx, b_idx))[a_idx:b_idx]
        b_idx = a_idx

    value = ValueField(times, grid, diag.copy())
    cs = model.control_set
    strategy = FeedbackStrategy(times, grid, controls.copy(),
                                bounds=[(cs.lo, cs.hi)] * model.control_dim,
                                names=model.control_names)
    return EquilibriumSolution(theta=theta, value=value, strategy=strategy,
                               log=log)


def residual(model, solution, buffer_frac=None):
    """Max finite-difference residual of the equilibrium system.

    For every anchor row and interior node the residual couples the
    forward time difference with the average of the Hamiltonian at the
    two levels, evaluated along the stored diagonal strategy.
    """
    theta = solution.theta
    times = theta.times
    grid = theta.grid
    m = theta.m
    q_table = model.q_table(grid)
    interior = grid.interior_mask(buffer_frac)
    interior[0] = interior[-1] = False
    controls = solution.strategy.values
    worst = 0.0

    def hamiltonian(tau, k, v_all):
        vx = d1(v_all, grid.dx, axis=0)
        vxx = d2(v_all, grid.dx, axis=0)
        qv = _qv(q_table, v_all)
        s = float(times[k])
        return np.stack([_hamiltonian(model, tau, s, grid.x, i + 1, v_all[:, i],
                                      vx[:, i], vxx[:, i], qv[:, i],
                                      controls[k, :, i, :])
                         for i in range(m)], axis=1)

    for tau_idx in range(len(times) - 1):
        tau = float(times[tau_idx])
        ham_hi = None
        for k in range(len(times) - 2, tau_idx - 1, -1):
            v_hi = theta.values[tau_idx, k + 1]
            v_lo = theta.values[tau_idx, k]
            if ham_hi is None:
                ham_hi = hamiltonian(tau, k + 1, v_hi)
            ham_lo = hamiltonian(tau, k, v_lo)
            dt = times[k + 1] - times[k]
            res = (v_hi - v_lo) / dt + 0.5 * (ham_hi + ham_lo)
            worst = max(worst, float(np.max(np.abs(res[interior]))))
            ham_hi = ham_lo
    return worst


def compare_to_partition(solution, pi_solution, buffer_frac=None):
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
    interior = grid.interior_mask(buffer_frac)
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
