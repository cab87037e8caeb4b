"""N-player partition cycles: backward construction of the concatenated
value, the per-player continuation blocks, and the cycle strategy.

Cycle k (k = N..1) first solves the linear representation equation on
[t_k, T] under the strategy already built to the right, anchored at
t_{k-1} with terminal data h(t_{k-1}, ., .), then the HJB equation on
[t_{k-1}, t_k] with the representation value at t_k as terminal, and
extends the strategy from the fresh minimizers.  The concatenated value
is right-continuous at interior knots; each player's block equals the
concatenated value on the player's own interval as an exact array
identity by construction.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .fields import FeedbackStrategy, TwoTimeField, ValueField, node_index
from .pde import solve_hjb, solve_representation


@dataclass
class Partition:
    """Knots 0 = t_0 < ... < t_N = T, snapped to the PDE time grid."""

    knots: np.ndarray

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        if len(self.knots) < 2 or np.any(np.diff(self.knots) <= 0):
            raise ConfigError("partition knots must be strictly increasing")

    @classmethod
    def uniform(cls, t_end, n_players):
        return cls(np.linspace(0.0, float(t_end), int(n_players) + 1))

    @property
    def n_players(self):
        return len(self.knots) - 1

    def mesh(self):
        return float(np.max(np.diff(self.knots)))

    def anchor(self, s):
        """t^Pi(s): the left knot of the interval containing s."""
        if s < self.knots[0] - 1e-12 or s > self.knots[-1] + 1e-12:
            raise DomainError(f"time {s:g} outside the partition horizon")
        j = int(np.clip(np.searchsorted(self.knots, s, side="right") - 1,
                        0, self.n_players - 1))
        return float(self.knots[j])

    def knot_indices(self, times):
        """Time-grid index of each knot; the knots must span the grid."""
        if abs(self.knots[0] - times[0]) > 1e-9 or abs(self.knots[-1] - times[-1]) > 1e-9:
            raise ConfigError(
                f"partition knots {self.knots.tolist()} must run from the time "
                f"grid's start {times[0]:g} to its end {times[-1]:g}")
        return [node_index(times, t) for t in self.knots]


@dataclass
class PiSolution:
    """Outputs of one cycle run on a shared (times, grid) pair."""

    partition: Partition
    times: np.ndarray
    grid: object
    value: ValueField              # concatenated value on [0, T]
    strategy: FeedbackStrategy     # cycle strategy on [0, T]
    theta_blocks: dict = field(default_factory=dict)  # player k -> ValueField on [t_{k-1}, T]
    knot_idx: list = None

    def theta_row(self, tau_idx):
        """Two-time row at times[tau_idx]: the block of the player owning tau."""
        tau = self.times[tau_idx]
        j = int(np.clip(np.searchsorted(self.partition.knots, tau, side="right") - 1,
                        0, self.partition.n_players - 1))
        block = self.theta_blocks[j + 1]
        offset = tau_idx - self.knot_idx[j]
        return block.values[offset:]

    def theta_two_time(self):
        out = TwoTimeField(self.times, self.grid, self.value.m)
        for tau_idx in range(len(self.times)):
            out.set_row(tau_idx, self.theta_row(tau_idx))
        return out


def run_cycles(model, partition, grid, times, boundary=None):
    """Run the backward cycles; returns the PiSolution.

    ``boundary`` is an optional factory tau -> dirichlet supplying
    anchored Dirichlet data (used with ansatz-consistent truncation):
    dirichlet(times) returns the (n_t, m, 2) edge values on a window.
    """
    times = np.asarray(times, dtype=float)
    kidx = partition.knot_indices(times)
    n_t = len(times)
    n_players = partition.n_players
    m = model.m

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
                                     bounds=[(model.control_set.lo,
                                              model.control_set.hi)] * model.control_dim)
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

    cs = model.control_set
    strategy = FeedbackStrategy(times, grid, controls,
                                bounds=[(cs.lo, cs.hi)] * model.control_dim,
                                names=model.control_names)
    return PiSolution(partition=partition, times=times, grid=grid,
                      value=ValueField(times, grid, value),
                      strategy=strategy, theta_blocks=blocks, knot_idx=kidx)


def refine_and_compare(solutions, equilibrium=None):
    """Convergence table across PiSolutions of decreasing mesh.

    Each row reports the sup-norm distance of the concatenated value and
    the strategy to the previous (coarser) solution over the interior,
    and, when an equilibrium solution is supplied, the distance to its
    diagonal value and strategy.  ``solutions`` is consumed one at a
    time, so a generator keeps at most two solutions alive.  Returns
    ``(table, last solution)``.
    """
    table = []
    prev = None
    for sol in solutions:
        interior = sol.grid.interior_mask()
        row = {"mesh": sol.partition.mesh(), "n_players": sol.partition.n_players,
               "sup_diff_V": None, "sup_diff_Psi": None}
        if prev is not None:
            row["sup_diff_V"] = sol.value.sup_diff(prev.value, interior)
            row["sup_diff_Psi"] = sol.strategy.sup_diff(prev.strategy, interior)
        if equilibrium is not None:
            row["sup_dist_V_eq"] = sol.value.sup_diff(equilibrium.value, interior)
            row["sup_dist_Psi_eq"] = sol.strategy.sup_diff(equilibrium.strategy,
                                                           interior)
        table.append(row)
        prev = sol
    return table, prev
