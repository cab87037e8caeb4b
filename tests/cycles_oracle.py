"""Partition cycles as one solve per game, kept as a test oracle.

Cycle k (k = N..1) first solves the linear representation equation on
[t_k, T] under the strategy already built to the right, anchored at
t_{k-1} with terminal data h(t_{k-1}, ., .), then the HJB equation on
[t_{k-1}, t_k] with the representation value at t_k as terminal, and
extends the strategy from the fresh minimizers: 2N - 1 one-row solves.
``switchctl.partition.run_cycles`` steps the N knot-anchored rows in one
backward march instead; the two agree bit for bit.
"""

import numpy as np

from switchctl.fields import FeedbackStrategy, ValueField
from switchctl.partition import PiSolution
from switchctl.pde import solve_hjb, solve_representation


def cycles_loop(model, partition, grid, times, boundary=None):
    """The cycle run as N HJB and N - 1 representation solves."""
    times = np.asarray(times, dtype=float)
    kidx = partition.knot_indices(times)
    n_t = len(times)
    n_players = partition.n_players
    m = model.m
    cs = model.control_set
    bounds = [(cs.lo, cs.hi)] * model.control_dim

    value = np.empty((n_t, grid.n_x, m))
    controls = np.empty((n_t, grid.n_x, m, model.control_dim))
    blocks = {}

    for k in range(n_players, 0, -1):
        a_idx, b_idx = kidx[k - 1], kidx[k]
        tau = float(partition.knots[k - 1])
        dirichlet = boundary(tau) if boundary is not None else None
        if k == n_players:
            terminal = model.terminal_values(tau, grid)
            tail_values = None
        else:
            rep_problem = model.hjb_problem(tau, grid, dirichlet=dirichlet)
            built = FeedbackStrategy(times[b_idx:], grid, controls[b_idx:],
                                     bounds=bounds)
            theta_tail = solve_representation(rep_problem, times[b_idx:], built)
            terminal = theta_tail.values[0]
            tail_values = theta_tail.values
        hjb_problem = model.hjb_problem(tau, grid, terminal=terminal,
                                        dirichlet=dirichlet)
        sol = solve_hjb(hjb_problem, times[a_idx:b_idx + 1])
        # the knot node belongs to the next player (right continuity)
        hi = b_idx + 1 if k == n_players else b_idx
        value[a_idx:hi] = sol.value.values[:hi - a_idx]
        controls[a_idx:hi] = sol.strategy.values[:hi - a_idx]
        if tail_values is None:
            block_values = sol.value.values
        else:
            block_values = np.concatenate([sol.value.values[:-1], tail_values])
        blocks[k] = ValueField(times[a_idx:], grid, block_values)

    strategy = FeedbackStrategy(times, grid, controls, bounds=bounds,
                                names=model.control_names)
    return PiSolution(partition=partition, times=times, grid=grid,
                      value=ValueField(times, grid, value),
                      strategy=strategy, theta_blocks=blocks, knot_idx=kidx)
