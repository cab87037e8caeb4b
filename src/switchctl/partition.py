"""N-player partition cycles: backward construction of the concatenated
value, the per-player continuation blocks, and the cycle strategy.

Player k (k = 1..N) acts on [t_{k-1}, t_k) and prices the future from
its own anchor t_{k-1}: its block solves the HJB equation on its own
interval and, beyond t_k, the linear representation equation under the
strategy the later players built.  These multi-person games are the rows
of one backward march, pde.solve_rows_batch: row k - 1 is anchored at
t_{k-1}, starts from h(t_{k-1}, ., .) at T and stops at t_{k-1}, and the
controls of each step are those of the player who owns it.  The
concatenated value is right-continuous at interior knots: a node
belongs to the player who starts there, and T to the last player, by the
one rule ``node_owners`` that the cycles, their two-time rows and the
ODE mirror merton.partition_phi read.  Each player's block equals the
concatenated value on the player's own interval as an exact array
identity by construction.
"""

from dataclasses import dataclass, field

import numpy as np

from . import pde
from .errors import ConfigError
from .fields import (BC_DIRICHLET, FeedbackStrategy, TwoTimeField, ValueField,
                     node_index, refuse_oversized)
# still bound because perfbench/tracing.py patches them here (ROADMAP item 5)
from .pde import solve_hjb, solve_representation  # noqa: F401


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

    def knot_indices(self, times):
        """Time-grid index of each knot; the knots must span the grid."""
        if abs(self.knots[0] - times[0]) > 1e-9 or abs(self.knots[-1] - times[-1]) > 1e-9:
            raise ConfigError(
                f"partition knots {self.knots.tolist()} must run from the time "
                f"grid's start {times[0]:g} to its end {times[-1]:g}")
        return [node_index(times, t) for t in self.knots]


def node_owners(kidx, nodes):
    """Player (0-based) owning each time node index in ``nodes``, from
    the knots' node indices ``kidx``: player r owns [kidx[r], kidx[r+1]),
    right-continuous at knots, and the last player also owns T."""
    return np.minimum(np.searchsorted(kidx, nodes, side="right") - 1,
                      len(kidx) - 2)


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
        j = int(node_owners(self.knot_idx, tau_idx))
        return self.theta_blocks[j + 1].values[tau_idx - self.knot_idx[j]:]

    def theta_two_time(self):
        out = TwoTimeField(self.times, self.grid, self.value.m)
        for tau_idx in range(len(self.times)):
            out.set_row(tau_idx, self.theta_row(tau_idx))
        return out


def cycles_bytes(n_t, n_x, m, control_dim, n_players, dirichlet):
    """Bytes run_cycles stores: the (n_players, n_t, m, n_x) rows, the
    controls and, with Dirichlet edges, the (n_players, n_t, m, 2) edge
    table."""
    edges = 8 * n_players * n_t * m * 2 if dirichlet else 0
    return 8 * n_t * n_x * m * (n_players + control_dim) + edges


def refuse_oversized_cycles(model, partition, grid, n_t):
    """ConfigError when what run_cycles stores (``cycles_bytes``) for
    ``partition`` on n_t times exceeds half the physical memory."""
    n = partition.n_players
    refuse_oversized(cycles_bytes(n_t, grid.n_x, model.m, model.control_dim,
                                  n, BC_DIRICHLET in grid.bc),
                     f"partition cycles of {n} players (n_t={n_t}, "
                     f"n_x={grid.n_x}, m={model.m})")


def run_cycles(model, partition, grid, times, boundary=None):
    """Run the backward cycles as one march; returns the PiSolution.

    Row j is anchored at knot t_j, starts from h(t_j) at T and is active
    from t_j's level.  A step from s_k in player r + 1's interval
    (t_r, t_{r+1}] freezes the minimizer on the owner's row r for every
    row; at an interior knot s_k = t_{r+1} the earlier rows price the
    stored strategy there instead, the minimizer on row r + 1, so that
    step takes two control groups.  ``boundary`` is an optional factory
    tau -> dirichlet supplying anchored Dirichlet data (used with
    ansatz-consistent truncation): dirichlet(times) returns the
    (n_t, m, 2) edge values on a window.  What is stored is refused
    before allocation when it needs more than half the physical memory.
    """
    times = np.asarray(times, dtype=float)
    kidx = partition.knot_indices(times)
    anchors = partition.knots[:-1]
    n_rows = partition.n_players
    refuse_oversized_cycles(model, partition, grid, len(times))
    rows = np.empty((n_rows, len(times), model.m, grid.n_x))  # regime-major
    for j, tau in enumerate(anchors):
        rows[j, -1] = model.terminal_values(float(tau), grid).T
    problem = model.hjb_problem(0.0, grid)
    controls = np.empty((len(times), grid.n_x, model.m, model.control_dim))

    def minimizer(r, k):
        problem.anchor = float(anchors[r])
        return pde.controls_on_grid(problem, float(times[k]), rows[r, k].T)

    def step_controls(k):
        r = int(node_owners(kidx, k - 1))   # the step belongs to node k-1's owner
        own = minimizer(r, k)
        if k != kidx[r + 1] or r + 1 == n_rows:
            controls[k] = own
            return own
        controls[k] = minimizer(r + 1, k)
        return [(np.arange(r), controls[k]), ([r], own)]

    pde.solve_rows_batch(problem, times, step_controls, anchors, rows,
                         [boundary(float(tau)) for tau in anchors]
                         if boundary is not None else None,
                         active_from=kidx[:-1])
    controls[0] = minimizer(0, 0)
    cs = model.control_set
    strategy = FeedbackStrategy(times, grid, controls,
                                bounds=[(cs.lo, cs.hi)] * model.control_dim,
                                names=model.control_names)
    # the fields are (n_t, n_x, m) views of the regime-major rows
    node_major = rows.swapaxes(2, 3)
    nodes = np.arange(len(times))
    return PiSolution(
        partition=partition, times=times, grid=grid,
        value=ValueField(times, grid, node_major[node_owners(kidx, nodes), nodes]),
        strategy=strategy, knot_idx=kidx,
        theta_blocks={j + 1: ValueField(times[kidx[j]:], grid,
                                        node_major[j, kidx[j]:])
                      for j in range(n_rows)})


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
