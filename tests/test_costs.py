import numpy as np
import pytest

from switchctl.costs import (anchored_minimizer_policy, evaluate_cost,
                             spike_gain, spike_ladder)
from switchctl.equilibrium import solve_equilibrium
from switchctl.errors import ConfigError, ResolutionError
from switchctl.fields import d1, time_grid
from switchctl.models import (ControlModel, toy_anchored_model,
                              uniform_mark_density)
from switchctl.pde import ControlSet, solve_hjb
from switchctl.sde import simulate_ensemble
from switchctl.switching import RegimeGeometry, rate_matrix


@pytest.fixture(scope="module")
def toy_eq():
    model = toy_anchored_model(True)
    grid = model.default_grid(61)
    times = time_grid(0, 1, 80)
    sol = solve_equilibrium(model, grid, times)
    return model, grid, times, sol


def test_equilibrium_strategy_reprices_to_diagonal(toy_eq):
    model, grid, times, sol = toy_eq
    for t_idx in (0, 16, 40, 56, 72):
        t = float(times[t_idx])
        cost = evaluate_cost(model, sol.strategy, t, grid, times[t_idx:])
        diff = np.abs(cost.field.values[0] - sol.theta.values[t_idx, t_idx])
        assert np.max(diff) <= 1e-8


def test_cost_without_running_term_matches_monte_carlo():
    # g = 0 reduces the recursive cost to E[h(t, X_T, alpha_T)]
    model = toy_anchored_model(True)
    model.g = lambda tau, s, x, i, y, z, qv, u: np.zeros_like(np.asarray(x, float))
    grid = model.default_grid(121)
    times = time_grid(0, 1, 100)
    u0 = 0.3

    def policy(s, x, i):
        return np.full((len(np.atleast_1d(x)), 1), u0)

    cost = evaluate_cost(model, policy, 0.0, grid, times)
    n = 40_000
    res = simulate_ensemble(model.dynamics, model.geometry, model.levy,
                            (0.0, 0.4, 1), policy, h=1e-3, t_end=1.0,
                            n_paths=n, seed=99)
    payoff = (1.0 + 0.5 * 0.0) * res.state_T**2  # h(0, x, i) = x^2
    mc, se = float(np.mean(payoff)), float(np.std(payoff, ddof=1) / np.sqrt(n))
    pde_val = float(cost.cost(0.4, 1))
    assert abs(pde_val - mc) <= 3 * se + 2e-3


def test_state_dependent_generator_matches_monte_carlo():
    # uniform marks on [-1, 1] with Delta_12 = [0, c(x)) and
    # Delta_21 = [-1, -1 + d(x)): q_12 rises and q_21 falls across [0, 0.4],
    # and h = 3 1{i = 2} prices the regime at T, so the PDE's Q(x) is
    # checked against the exact-jump simulation of the same model
    def c(x):
        return 0.4 * (1 + np.tanh(3 * x))

    def d_end(x):
        return -1 + 0.4 * (1 - np.tanh(3 * x))

    geometry = RegimeGeometry([[0.0, 0.0, c], [-1.0, d_end, d_end]], beta0=1.0)
    model = ControlModel(
        name="switch-payoff", m=2,
        b=lambda s, x, i, u: u[:, 0],
        sigma=lambda s, x, i, u: np.full_like(np.asarray(x, dtype=float), 0.4),
        g=lambda tau, s, x, i, y, z, qv, u: np.zeros_like(np.asarray(x, float)),
        h=lambda tau, x, i: np.full_like(np.asarray(x, float), 3.0 * (i == 2)),
        control_set=ControlSet(lo=-1.0, hi=1.0), T=1.0,
        geometry=geometry, levy=uniform_mark_density(), x_domain=(-2.5, 3.0))
    assert model.dynamics.drift is model.b and model.dynamics.diffusion is model.sigma
    grid = model.default_grid(121)
    times = time_grid(0, 1, 100)
    n = 20_000
    res = simulate_ensemble(model.dynamics, model.geometry, model.levy,
                            (0.0, 0.0, 1), 0.3, h=0.01, t_end=1.0,
                            n_paths=n, seed=1)
    payoff = 3.0 * (res.regime_T == 2)
    mc, se = float(np.mean(payoff)), float(np.std(payoff, ddof=1) / np.sqrt(n))
    z = {}
    for label, q_const in (("Q(x)", None),
                           ("Q(0)", rate_matrix(geometry, model.levy, 0.0))):
        model.q_const = q_const
        cost = evaluate_cost(model, 0.3, 0.0, grid, times)
        z[label] = (float(cost.cost(0.0, 1)) - mc) / se
    assert abs(z["Q(x)"]) <= 3 and abs(z["Q(0)"]) >= 4, z


def test_verification_inequality_toy(toy_eq):
    model, grid, times, _ = toy_eq
    hjb = solve_hjb(model.hjb_problem(0.0, grid), times)
    interior = grid.interior_mask()
    rng = np.random.default_rng(11)
    for _ in range(5):
        u0 = float(rng.uniform(-1, 1))

        def policy(s, x, i, _u=u0):
            return np.full((len(np.atleast_1d(x)), 1), _u)

        cost = evaluate_cost(model, policy, 0.0, grid, times)
        gap = (hjb.value.values - cost.field.values)[:, interior, :]
        assert np.max(gap) <= 1e-3


def test_monotone_in_terminal_data(toy_eq):
    model, grid, times, sol = toy_eq
    cost1 = evaluate_cost(model, sol.strategy, 0.0, grid, times)
    bumped = toy_anchored_model(True)
    bumped.h = lambda tau, x, i: (1.0 + 0.5 * tau) * np.asarray(x) ** 2 + 0.25
    cost2 = evaluate_cost(bumped, sol.strategy, 0.0, grid, times)
    assert np.all(cost2.field.values >= cost1.field.values - 1e-10)


def test_z_extraction_same_stencil(toy_eq):
    model, grid, times, sol = toy_eq
    cost = evaluate_cost(model, sol.strategy, 0.0, grid, times)
    k = 10
    z = cost.z_values(k)
    vx = d1(cost.field.values[k], grid.dx, axis=0)
    # sigma is 0.4 for the toy model, so Z = 0.4 * dTheta/dx, bit for bit
    assert np.array_equal(z, vx * 0.4)


def test_regime_shift_component(toy_eq):
    model, grid, times, sol = toy_eq
    cost = evaluate_cost(model, sol.strategy, 0.0, grid, times)
    shift = cost.regime_shift(5, 1, 2)
    v = cost.field.values[5]
    assert np.array_equal(shift, v[:, 1] - v[:, 0])


# ---- spike perturbations ----------------------------------------------------

def test_spike_of_equilibrium_strategy_is_zero(toy_eq):
    model, grid, times, sol = toy_eq
    out = spike_gain(model, sol, t=0.25, eps=0.25, perturbation=sol.strategy)
    assert abs(out.min_gain) <= 1e-10
    assert np.max(np.abs(out.gain)) <= 1e-10


def test_spike_resolution_error(toy_eq):
    model, grid, times, sol = toy_eq
    with pytest.raises(ResolutionError):
        spike_gain(model, sol, t=0.25, eps=0.5 * (times[1] - times[0]),
                   perturbation=sol.strategy)


def test_spike_anchor_must_be_node(toy_eq):
    model, grid, times, sol = toy_eq
    with pytest.raises(ConfigError):
        spike_gain(model, sol, t=0.2501, eps=0.25, perturbation=sol.strategy)


def test_constant_spikes_gain_floor(toy_eq):
    # suboptimal controls cannot improve by more than O(eps)
    model, grid, times, sol = toy_eq
    t = 0.25
    ladder = {}
    for u0 in (-0.8, 0.0, 0.6):
        out = spike_ladder(model, sol, t, [0.1, 0.05, 0.025], (u0,))
        mins = np.asarray(out["min_gains"])
        cs = -mins / np.asarray(out["epsilons"])
        assert np.all(mins >= -0.05 * np.asarray(out["epsilons"]) - 1e-9)
        assert out["intercept"] >= -1e-3
        ladder[u0] = out
    # a strictly suboptimal control costs extra at order one per unit time
    assert max(ladder[-0.8]["min_gains"]) > 0


def test_spike_constant_of_the_wrong_size_rejected(toy_eq):
    model, grid, times, sol = toy_eq
    for pert in ((0.1, 0.2), []):
        with pytest.raises(ConfigError, match="constant control needs 1 entries") \
                as info:
            spike_gain(model, sol, 0.25, 0.05, pert)
        assert info.value.exit_code == 2


def test_anchored_minimizer_spike_two_sided(toy_eq):
    model, grid, times, sol = toy_eq
    t = 0.25
    pol = anchored_minimizer_policy(model, sol, t)
    for eps in (0.1, 0.05, 0.025):
        out = spike_gain(model, sol, t, eps, pol)
        assert out.min_gain <= 1e-12
        assert abs(out.min_gain) <= 0.2 * eps
