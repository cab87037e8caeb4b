"""Recursive cost of feedback strategies, and spike-perturbation checks.

The cost of a strategy from anchor t is the solution of the linear
representation equation closed under that strategy; its value at
(t, x, i) is the recursive cost, its space derivative (times the
diffusion) is the martingale-integrand component, and regime shifts of
the field supply the jump component.

Local optimality of an equilibrium strategy is tested in PDE form: an
arbitrary control on [t, t+eps] concatenated with the equilibrium
strategy afterwards is priced by solving the representation equation on
the spike window with the equilibrium row at t+eps as terminal data,
and the per-unit-time gain (perturbed minus equilibrium cost)/eps is
reported as a field over (x, i).  The deterministic field statement
implies the conditional-expectation statement along the equilibrium
state, without Monte Carlo noise in an O(eps) comparison.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResolutionError
from .fields import ValueField, d1, node_index
from .pde import controls_on_grid, solve_representation, _strategy_nodes


@dataclass
class RecursiveCostField:
    """Anchored cost field Y(t; s, x, i) with derived components."""

    anchor: float
    field: ValueField
    model: object
    strategy: object

    def cost(self, x, i):
        """J(t, x, i; strategy) = Y(t; t, x, i)."""
        return self.field.at(self.anchor, x, i)

    def z_values(self, s_idx):
        """Z(t; s, x, i) = Y_x sigma at a time node (one-sided at edges)."""
        grid = self.field.grid
        s = float(self.field.times[s_idx])
        vx = d1(self.field.values[s_idx], grid.dx, axis=0)
        u = _strategy_nodes(self.strategy, s, grid, self.field.m,
                            getattr(self.model, "control_dim", 1))
        out = np.empty_like(vx)
        for i in range(self.field.m):
            sg = np.broadcast_to(self.model.sigma(s, grid.x, i + 1, u[:, i]),
                                 grid.x.shape)
            out[:, i] = vx[:, i] * sg
        return out

    def regime_shift(self, s_idx, i, j):
        """Gamma component: Y(t; s, x, j) - Y(t; s, x, i)."""
        v = self.field.values[s_idx]
        return v[:, j - 1] - v[:, i - 1]


def evaluate_cost(model, strategy, t, grid, times, boundary=None):
    """Price a feedback strategy from anchor t through the representation PDE.

    ``times`` must start at t and end at the model horizon; ``strategy``
    is a FeedbackStrategy or a callable (s, x, i) -> control defined on
    the whole window.  ``boundary`` is an optional factory tau ->
    dirichlet, with dirichlet(times) the (n_t, m, 2) edge values.
    """
    times = np.asarray(times, dtype=float)
    if abs(times[0] - t) > 1e-9:
        raise ConfigError("cost evaluation times must start at the anchor")
    problem = model.hjb_problem(t, grid,
                                dirichlet=boundary(t) if boundary else None)
    field = solve_representation(problem, times, strategy)
    return RecursiveCostField(anchor=t, field=field, model=model,
                              strategy=strategy)


@dataclass
class SpikeGain:
    epsilon: float
    gain: np.ndarray          # (n_x, m) field of (J_perturbed - J_eq)/eps
    min_gain: float
    interior: np.ndarray


def _as_spike_policy(perturbation, control_dim):
    if isinstance(perturbation, (int, float, tuple, list, np.ndarray)):
        const = np.atleast_1d(np.asarray(perturbation, dtype=float))
        if const.size != control_dim:
            raise ConfigError("constant perturbation has the wrong control size")

        def policy(s, x, i):
            return np.broadcast_to(const, (len(np.atleast_1d(x)), const.size)).copy()

        return policy
    return perturbation


def spike_window(times, t, eps):
    """Node indices of the spike window [t, t+eps] on ``times``.

    A ResolutionError unless eps spans at least two time steps, and a
    ConfigError unless both ends are nodes.
    """
    dt = times[1] - times[0]
    if eps < 2 * dt - 1e-12:
        raise ResolutionError(
            f"spike width {eps:g} must span at least two time steps ({dt:g})")
    return node_index(times, t), node_index(times, t + eps)


def spike_gain(model, solution, t, eps, perturbation, boundary=None):
    """Per-unit-time cost gain of a spike perturbation on [t, t+eps].

    ``solution`` is an EquilibriumSolution; ``perturbation`` a constant
    control, a callable, or a FeedbackStrategy.  Needs eps spanning at
    least two time steps of the solution grid.
    """
    theta = solution.theta
    times = theta.times
    grid = theta.grid
    t_idx, e_idx = spike_window(times, t, eps)
    row = theta.row(t_idx).values      # a DomainError if it was not kept
    problem = model.hjb_problem(float(t), grid,
                                dirichlet=boundary(float(t)) if boundary else None)
    problem.terminal = row[e_idx - t_idx].copy()
    policy = _as_spike_policy(perturbation, model.control_dim)
    pert = solve_representation(problem, times[t_idx:e_idx + 1], policy)
    base = row[0]
    gain = (pert.values[0] - base) / eps
    interior = grid.interior_mask()
    return SpikeGain(epsilon=float(eps), gain=gain,
                     min_gain=float(np.min(gain[interior, :])),
                     interior=interior)


def anchored_minimizer_policy(model, solution, t):
    """The pre-committed spike choice: the minimizer map anchored at t,
    fed with the stored equilibrium row Theta(t; s, ., .).

    The minimizer covers every regime at once, so the controls of the
    last time node asked for are kept and shared by its regimes."""
    theta = solution.theta
    times = theta.times
    grid = theta.grid
    t_idx = node_index(times, t)
    row = theta.row(t_idx).values      # a DomainError if it was not kept
    problem = model.hjb_problem(float(t), grid)
    last = {}

    def policy(s, x, i):
        if last.get("s") != s:
            k = node_index(times, s)
            last["s"] = s
            last["u"] = controls_on_grid(problem, float(s), row[k - t_idx])
        return last["u"][:, i - 1, :].copy()

    return policy


def spike_ladder(model, solution, t, epsilons, perturbation, boundary=None):
    """Spike gains over an epsilon ladder plus the extrapolated intercept.

    Fits min_gain ~ a + b eps and reports the intercept a, the numerical
    stand-in for the liminf as eps -> 0.
    """
    gains = [spike_gain(model, solution, t, eps, perturbation, boundary)
             for eps in epsilons]
    eps_arr = np.asarray([g.epsilon for g in gains])
    min_arr = np.asarray([g.min_gain for g in gains])
    if len(gains) >= 2:
        slope, intercept = np.polyfit(eps_arr, min_arr, 1)
    else:
        slope, intercept = 0.0, float(min_arr[0])
    return {"gains": gains, "epsilons": list(map(float, eps_arr)),
            "min_gains": list(map(float, min_arr)),
            "slope": float(slope), "intercept": float(intercept)}
