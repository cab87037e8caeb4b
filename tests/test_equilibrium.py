import numpy as np
import pytest

from switchctl.equilibrium import (compare_to_partition, residual,
                                   solve_equilibrium, strategy_from_diagonal)
from switchctl.errors import ConfigError
from switchctl.fields import time_grid
from switchctl.merton import partition_phi
from switchctl.models import (ControlModel, merton_equilibrium_boundary,
                              merton_partition_boundary)
from switchctl.partition import Partition, run_cycles
from switchctl.pde import ControlSet, solve_hjb


def affine_model(c1=1.0, c2=1.0, c3=0.5):
    """Manufactured model whose equilibrium field is affine:
    Theta*(tau, s, x, i) = c0 + c1 x + c3 tau + c2 (T - s)."""
    u_star = -c1 / 2.0
    G = c2 - c1 * u_star - u_star**2

    def g(tau, s, x, i, y, z, qv, u):
        return u[:, 0] ** 2 + G + 0.0 * np.asarray(x)

    def h(tau, x, i):
        return 2.0 + c1 * np.asarray(x, dtype=float) + c3 * tau

    return ControlModel(
        name="affine", m=2,
        b=lambda s, x, i, u: u[:, 0],
        sigma=lambda s, x, i, u: np.full_like(np.asarray(x, dtype=float), 0.5),
        g=g, h=h,
        control_set=ControlSet(lo=-1.0, hi=1.0),
        T=1.0, q_const=np.array([[-0.25, 0.25], [0.4, -0.4]]),
        x_domain=(-2.0, 2.0))


def test_affine_manufactured_exact_and_residual():
    model = affine_model()
    grid = model.default_grid(41)
    times = time_grid(0, 1, 40)
    sol = solve_equilibrium(model, grid, times, tol=1e-12)
    c1, c2, c3 = 1.0, 1.0, 0.5
    for tau_idx in (0, 13, 40):
        tau = times[tau_idx]
        want = (2.0 + c1 * grid.x[None, :, None] + c3 * tau
                + c2 * (1.0 - times[tau_idx:, None, None]))
        got = sol.theta.values[tau_idx, tau_idx:]
        assert np.max(np.abs(got - want)) <= 1e-9
    assert residual(model, sol) <= 1e-9


def test_affine_converges_fast():
    model = affine_model()
    grid = model.default_grid(41)
    times = time_grid(0, 1, 40)
    sol = solve_equilibrium(model, grid, times, tol=1e-12)
    sweeps = [e for e in sol.log if "sweep" in e]
    # 8 slabs, each stationary from the second sweep on
    assert all(e["diag_change"] < 1e-12 for e in sweeps if e["sweep"] >= 2)


def test_terminal_rows_exact(mt_ti):
    model, times, phi = mt_ti["model"], mt_ti["times"], mt_ti["phi"]
    grid = model.default_grid(61)
    sol = solve_equilibrium(model, grid, times, tol=1e-10,
                            boundary=merton_equilibrium_boundary(model, phi, grid))
    for tau_idx in (0, 80, 159):
        want = model.terminal_values(times[tau_idx], grid)
        assert np.allclose(sol.theta.values[tau_idx, -1], want, atol=1e-12)


def test_anchor_free_rows_constant_and_match_hjb(toy_tc):
    grid = toy_tc.default_grid(61)
    times = time_grid(0, 1, 80)
    sol = solve_equilibrium(toy_tc, grid, times, tol=1e-11)
    direct = solve_hjb(toy_tc.hjb_problem(0.0, grid), times)
    assert sol.value.sup_diff(direct.value) <= 1e-8
    for tau_idx in (0, 20, 60):
        row = sol.theta.values[tau_idx, tau_idx:]
        want = direct.value.values[tau_idx:]
        assert np.max(np.abs(row - want)) <= 1e-8


def test_zero_cost_constant_terminal_converges_immediately():
    model = ControlModel(
        name="flat", m=2,
        b=lambda s, x, i, u: u[:, 0],
        sigma=lambda s, x, i, u: np.full_like(np.asarray(x, dtype=float), 0.3),
        g=lambda tau, s, x, i, y, z, qv, u: np.zeros_like(np.asarray(x, dtype=float)),
        h=lambda tau, x, i: np.full_like(np.asarray(x, dtype=float), 4.2),
        control_set=ControlSet(lo=-1.0, hi=1.0),
        T=1.0, q_const=np.array([[-0.3, 0.3], [0.2, -0.2]]))
    grid = model.default_grid(31)
    times = time_grid(0, 1, 32)
    sol = solve_equilibrium(model, grid, times, tol=1e-12)
    tri = sol.theta.values[~np.isnan(sol.theta.values)]
    assert np.allclose(tri, 4.2, atol=1e-12)
    sweeps = [e for e in sol.log if "sweep" in e]
    assert all(e["sweep"] == 1 for e in sweeps)


def test_merton_matches_phi_ansatz(mt_ti):
    model, times, phi = mt_ti["model"], mt_ti["times"], mt_ti["phi"]
    grid = model.default_grid(81)
    sol = solve_equilibrium(model, grid, times, tol=1e-10,
                            boundary=merton_equilibrium_boundary(model, phi, grid))
    interior = grid.interior_mask()
    xs = grid.x[interior]
    gamma = model.spec.gamma
    worst = 0.0
    for tau_idx in range(0, len(times), 13):
        want = -phi.eq[tau_idx, tau_idx:, :][:, None, :] \
            * xs[None, :, None] ** gamma
        got = sol.theta.values[tau_idx, tau_idx:][:, interior, :]
        worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
    assert worst <= 5e-3


def test_strategy_consistency_bit_exact(mt_ti):
    model, times, phi = mt_ti["model"], mt_ti["times"], mt_ti["phi"]
    grid = model.default_grid(41)
    sol = solve_equilibrium(model, grid, times, tol=1e-10,
                            boundary=merton_equilibrium_boundary(model, phi, grid))
    again = strategy_from_diagonal(model, grid, times, sol.value.values,
                                   model.q_table(grid))
    assert np.array_equal(again, sol.strategy.values)


def test_anchor_lipschitz(mt_ti):
    model, times, phi = mt_ti["model"], mt_ti["times"], mt_ti["phi"]
    grid = model.default_grid(61)
    sol = solve_equilibrium(model, grid, times, tol=1e-10,
                            boundary=merton_equilibrium_boundary(model, phi, grid))
    interior = grid.interior_mask()
    pairs = [(0, 16), (16, 48), (48, 96)]
    for a, b in pairs:
        gap = np.nanmax(np.abs(sol.theta.values[a, b:] - sol.theta.values[b, b:])
                        [:, interior, :])
        c = gap / (times[b] - times[a])
        assert c <= 1.5  # Lipschitz in the anchor with a modest constant


def test_residual_scales_with_grid(mt_ti):
    model, phi_times, phi = mt_ti["model"], mt_ti["times"], mt_ti["phi"]
    from switchctl.merton import solve_equilibrium_ode
    cs = []
    for n_x, n_t in ((41, 80), (81, 160)):
        times = time_grid(0, model.T, n_t)
        phi_n = solve_equilibrium_ode(model.spec, times, tol=1e-13)
        grid = model.default_grid(n_x)
        sol = solve_equilibrium(model, grid, times, tol=1e-10,
                                boundary=merton_equilibrium_boundary(model, phi_n, grid))
        res = residual(model, sol)
        dt = times[1] - times[0]
        cs.append(res / (dt + grid.dx**2))
    assert 0.2 <= cs[0] / cs[1] <= 5.0


def test_compare_to_partition_time_consistent(toy_tc):
    grid = toy_tc.default_grid(41)
    times = time_grid(0, 1, 64)
    eq = solve_equilibrium(toy_tc, grid, times, tol=1e-11)
    pi = run_cycles(toy_tc, Partition.uniform(1.0, 4), grid, times)
    out = compare_to_partition(eq, pi)
    assert out["sup_diff_theta"] <= 1e-7
    assert out["sup_diff_psi"] <= 1e-7


def test_compare_to_partition_grid_mismatch(toy_tc):
    grid = toy_tc.default_grid(41)
    times = time_grid(0, 1, 64)
    eq = solve_equilibrium(toy_tc, grid, times, tol=1e-10)
    other = run_cycles(toy_tc, Partition.uniform(1.0, 2),
                       toy_tc.default_grid(21), time_grid(0, 1, 64))
    with pytest.raises(ConfigError, match="share"):
        compare_to_partition(eq, other)


def test_merton_partition_converges_to_equilibrium(mt_ti):
    model, times, phi = mt_ti["model"], mt_ti["times"], mt_ti["phi"]
    grid = model.default_grid(61)
    eq = solve_equilibrium(model, grid, times, tol=1e-10,
                           boundary=merton_equilibrium_boundary(model, phi, grid))
    dists = []
    for n in (2, 4, 8):
        part = Partition.uniform(model.T, n)
        mirror = partition_phi(model.spec, part.knots, times)
        pi = run_cycles(model, part, grid, times,
                        boundary=merton_partition_boundary(model, mirror, grid))
        dists.append(compare_to_partition(eq, pi)["sup_diff_theta"])
    assert dists[1] < dists[0] and dists[2] < dists[1]
    ratios = [dists[0] / dists[1], dists[1] / dists[2]]
    # first order in the mesh
    assert all(1.3 <= r <= 3.0 for r in ratios), (dists, ratios)


def test_sweep_changes_shrink_geometrically():
    # geometric decay of the diagonal change holds for presets with
    # control-independent diffusion (the well-posedness setting); the
    # worked example has sigma(u) and is only required to converge.
    from switchctl.models import toy_anchored_model
    model = toy_anchored_model(True)
    grid = model.default_grid(41)
    times = time_grid(0, 1, 80)
    sol = solve_equilibrium(model, grid, times, tol=1e-11)
    by_slab = {}
    for e in sol.log:
        if "sweep" in e:
            by_slab.setdefault(e["slab_end"], []).append(e["diag_change"])
    for changes in by_slab.values():
        for a, b in zip(changes[1:], changes[2:]):
            if a > 1e-14:
                assert b / a < 1.0


def test_merton_sweeps_converge_with_bounded_chatter(mt_ti):
    # outside (H5) (control-dependent diffusion) the iteration may
    # chatter near the truncation boundary; it must stay bounded, be
    # damped, and still reach the tolerance within the sweep budget
    model, times, phi = mt_ti["model"], mt_ti["times"], mt_ti["phi"]
    import warnings as _warnings
    from switchctl.models import merton_model, merton_spec
    fresh = merton_model(merton_spec(True))
    grid = fresh.default_grid(41)
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        sol = solve_equilibrium(fresh, grid, times, tol=1e-11,
                                boundary=merton_equilibrium_boundary(fresh, phi, grid))
    by_slab = {}
    for e in sol.log:
        if "sweep" in e:
            by_slab.setdefault(e["slab_end"], []).append(e["diag_change"])
    for changes in by_slab.values():
        assert changes[-1] < 1e-11
        assert max(changes[2:], default=0.0) < 1e-2  # chatter stays small


def test_psi_clamp_counter_and_warning():
    import warnings as _w
    from switchctl.models import merton_model, merton_spec
    model = merton_model(merton_spec(True))
    before = model.psi_clamp_count
    # a flat value snapshot forces the derivative clamp
    x = np.linspace(0.5, 2.5, 11)
    v_all = np.zeros((11, 2))
    model.psi(0.0, 0.0, x, 1, v_all, np.zeros(11), np.zeros(11))
    assert model.psi_clamp_count > before


def test_nonconvergence_raises_with_history(mt_ti):
    from switchctl.errors import ConvergenceError
    from switchctl.models import merton_model, merton_spec
    import warnings as _warnings
    model = merton_model(merton_spec(True))
    grid = model.default_grid(31)
    times = time_grid(0, 1, 40)
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError) as err:
            solve_equilibrium(model, grid, times, tol=1e-12, max_sweeps=1,
                              max_slab_halvings=0,
                              boundary=merton_equilibrium_boundary(
                                  model, mt_ti["phi"], grid))
    assert err.value.history


def test_compare_matches_refine_table_entry(toy_tc):
    # definitional cross-check: the strategy distance reported against a
    # partition equals the equilibrium column of the refinement table
    from switchctl.partition import refine_and_compare
    grid = toy_tc.default_grid(41)
    times = time_grid(0, 1, 64)
    eq = solve_equilibrium(toy_tc, grid, times, tol=1e-11)
    part = Partition.uniform(1.0, 4)
    pi = run_cycles(toy_tc, part, grid, times)
    direct = compare_to_partition(eq, pi, buffer_frac=grid.buffer_frac)
    table = refine_and_compare(toy_tc, [part], grid, times, equilibrium=eq)
    assert table[0]["sup_dist_Psi_eq"] == direct["sup_diff_psi"]


def test_partition_convergence_state_dependent_rates(toy_ti):
    # the mesh law in the well-posed setting (control-free diffusion)
    # with genuinely state-dependent switching rates: the anchor weight
    # is linear in tau here, so the staircase error halves exactly
    grid = toy_ti.default_grid(61)
    times = time_grid(0, 1, 80)
    eq = solve_equilibrium(toy_ti, grid, times, tol=1e-11)
    dists = []
    for n in (2, 4, 8):
        pi = run_cycles(toy_ti, Partition.uniform(1.0, n), grid, times)
        dists.append(compare_to_partition(eq, pi)["sup_diff_theta"])
    ratios = [dists[0] / dists[1], dists[1] / dists[2]]
    assert all(1.8 <= r <= 2.2 for r in ratios), (dists, ratios)


def reference_residual(model, solution):
    """The residual with one Hamiltonian loop per regime, written out."""
    from switchctl.fields import d1, d2
    theta = solution.theta
    times, grid = theta.times, theta.grid
    q_table = model.q_table(grid)
    interior = grid.interior_mask(None)
    interior[0] = interior[-1] = False
    x = grid.x
    controls = solution.strategy.values

    def hamiltonian(tau, k, v_all):
        out = np.empty((grid.n_x, theta.m))
        vx = d1(v_all, grid.dx, axis=0)
        vxx = d2(v_all, grid.dx, axis=0)
        qv = np.einsum("xij,xj->xi", q_table, v_all)
        s = float(times[k])
        for i in range(theta.m):
            u = controls[k, :, i, :]
            b = np.broadcast_to(model.b(s, x, i + 1, u), x.shape)
            sg = np.broadcast_to(model.sigma(s, x, i + 1, u), x.shape)
            out[:, i] = (0.5 * sg**2 * vxx[:, i] + b * vx[:, i] + qv[:, i]
                         + model.g(tau, s, x, i + 1, v_all[:, i],
                                   vx[:, i] * sg, qv[:, i], u))
        return out

    worst = 0.0
    for tau_idx in range(len(times) - 1):
        tau = float(times[tau_idx])
        for k in range(len(times) - 2, tau_idx - 1, -1):
            v_hi = theta.values[tau_idx, k + 1]
            v_lo = theta.values[tau_idx, k]
            res = (v_hi - v_lo) / (times[k + 1] - times[k]) + 0.5 * (
                hamiltonian(tau, k + 1, v_hi) + hamiltonian(tau, k, v_lo))
            worst = max(worst, float(np.max(np.abs(res[interior]))))
    return worst


def test_residual_equals_per_regime_loop(toy_ti):
    grid = toy_ti.default_grid(21)
    times = time_grid(0, 1, 16)
    sol = solve_equilibrium(toy_ti, grid, times, tol=1e-10)
    got = residual(toy_ti, sol)
    assert got > 0
    assert got == reference_residual(toy_ti, sol)
