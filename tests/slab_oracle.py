"""Slab-swept fixed point on the equilibrium diagonal, kept as a test oracle.

Given a diagonal guess v(s, x, i), the strategy is read off the diagonal
through the minimizer map, every anchor row becomes a linear
representation equation closed under that strategy, and the diagonal is
replaced by the freshly solved one.  The iteration is a contraction only
over short horizons, so it marches backward in slabs: within a slab the
rows are swept to stationarity while everything to the right stays
frozen; each row's tail beyond the slab is solved once, when its slab
begins, against the already converged strategy.  A growing change is
damped, and a slab that exhausts ``max_sweeps`` halves the slab width
and restarts the solve.

``switchctl.equilibrium.solve_equilibrium`` solves the same discrete
system exactly in one backward march; this iteration reaches it to
``tol``.  Its log records every sweep: ``{"sweep", "slab_end",
"diag_change"}``, and ``{"event": "slab_halved", "slab"}`` on a restart.
"""

import numpy as np

from switchctl.equilibrium import EquilibriumSolution, strategy_from_diagonal
from switchctl.errors import ConfigError, ConvergenceError
from switchctl.fields import FeedbackStrategy, TwoTimeField, ValueField
from switchctl.pde import solve_rows_batch


def slab_solve(model, grid, times, tol=1e-8, max_sweeps=40, slab=None,
               boundary=None, max_slab_halvings=3):
    """The equilibrium system by slab sweeps; returns the solution and log.

    ``slab`` is the slab width in time units (default T/8).  ``boundary``
    is an optional factory tau -> dirichlet(times) for anchored Dirichlet
    data.
    """
    times = np.asarray(times, dtype=float)
    horizon = times[-1] - times[0]
    if slab is None:
        slab = horizon / 8.0
    if slab <= 0 or slab > horizon + 1e-12:
        raise ConfigError("slab width must lie in (0, T]")
    log = []
    for attempt in range(max_slab_halvings + 1):
        try:
            return _solve_with_slab(model, grid, times, tol, max_sweeps,
                                    slab, boundary, log)
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
    cs = model.control_set

    def strategy_view():
        return FeedbackStrategy(times, grid, controls,
                                bounds=[(cs.lo, cs.hi)] * model.control_dim,
                                names=model.control_names)

    def strategy_nodes(k0):
        """Controls of the strategy view at the nodes of times[k0:]."""
        view = strategy_view()
        return lambda k: view.node_values(k0 + k)

    b_idx = n_t - 1
    while b_idx > 0:
        a_idx = max(0, b_idx - slab_steps)
        rows = np.arange(a_idx, b_idx)
        anchors = times[rows]
        dirichlet_fns = [boundary(float(t)) for t in anchors] \
            if boundary is not None else None
        block = theta.values[a_idx:b_idx]     # this slab's rows, in place
        block[:, -1] = np.stack([model.terminal_values(float(t), grid)
                                 for t in anchors])
        # tails of this slab's rows, solved once against the frozen strategy
        if b_idx < n_t - 1:
            solve_rows_batch(template, times[b_idx:], strategy_nodes(b_idx),
                             anchors, block[:, b_idx:].swapaxes(2, 3),
                             dirichlet_fns)
        active_from = rows - a_idx
        sweep = 0
        prev_change = np.inf
        while True:
            sweep += 1
            solve_rows_batch(template, times[a_idx:b_idx + 1],
                             strategy_nodes(a_idx), anchors,
                             block[:, a_idx:b_idx + 1].swapaxes(2, 3),
                             dirichlet_fns,
                             active_from=active_from)
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

    return EquilibriumSolution(theta=theta,
                               value=ValueField(times, grid, diag.copy()),
                               strategy=strategy_view(), log=log)
