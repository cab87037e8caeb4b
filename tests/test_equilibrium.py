import numpy as np
import pytest

from switchctl.equilibrium import (compare_to_partition, residual,
                                   solve_equilibrium, strategy_from_diagonal)
from switchctl.errors import ConfigError, DomainError
from switchctl.fields import time_grid
from switchctl.merton import partition_phi
from switchctl.models import (ControlModel, merton_equilibrium_boundary,
                              merton_partition_boundary)
from switchctl.partition import Partition, run_cycles
from switchctl.pde import ControlSet, solve_hjb, solve_rows_batch

from slab_oracle import slab_solve


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
    sol = solve_equilibrium(model, grid, times)
    c1, c2, c3 = 1.0, 1.0, 0.5
    for tau_idx in (0, 13, 40):
        tau = times[tau_idx]
        want = (2.0 + c1 * grid.x[None, :, None] + c3 * tau
                + c2 * (1.0 - times[tau_idx:, None, None]))
        got = sol.theta.values[tau_idx, tau_idx:]
        assert np.max(np.abs(got - want)) <= 1e-9
    assert residual(model, sol) <= 1e-9


def test_merton_dirichlet_tables_equal_per_call_interpolation():
    # the merton-pde grid; each row's table from its anchor node on
    # equals the per-(s, regime) interpolation the tables replaced
    from switchctl.merton import solve_equilibrium_ode
    from switchctl.models import merton_model, merton_spec
    model = merton_model(merton_spec(True))
    grid = model.default_grid(61)
    times = time_grid(0.0, model.T, 96)
    gamma = model.spec.gamma

    def per_call(t, rows, k0):
        want = np.empty((len(times) - k0, model.m, 2))
        for k, s in enumerate(times[k0:]):
            for i in range(model.m):
                col = rows[:, i]
                valid = ~np.isnan(col)
                phi = float(np.interp(s, t[valid], col[valid]))
                want[k, i] = [-phi * x_edge**gamma
                              for x_edge in (grid.x_min, grid.x_max)]
        return want

    phi = solve_equilibrium_ode(model.spec, times, tol=1e-12)
    boundary = merton_equilibrium_boundary(model, phi, grid)
    for j, tau in enumerate(times):
        got = boundary(float(tau))(times)[j:]
        assert np.all(got == per_call(phi.times, phi.eq[j], j))
    for n in (4, 8):
        part = Partition.uniform(times[-1], n)
        mirror = partition_phi(model.spec, part.knots, times)
        boundary = merton_partition_boundary(model, mirror, grid)
        for k, a_idx in enumerate(part.knot_indices(times)[:-1], start=1):
            got = boundary(float(part.knots[k - 1]))(times[a_idx:])
            assert np.all(got == per_call(mirror.times, mirror.rows[k], a_idx))


def test_affine_converges_fast():
    model = affine_model()
    grid = model.default_grid(41)
    times = time_grid(0, 1, 40)
    sol = slab_solve(model, grid, times, tol=1e-12)
    sweeps = [e for e in sol.log if "sweep" in e]
    # 8 slabs, each stationary from the second sweep on
    assert all(e["diag_change"] < 1e-12 for e in sweeps if e["sweep"] >= 2)


def test_terminal_rows_exact(mt_ti):
    model, times, phi = mt_ti["model"], mt_ti["times"], mt_ti["phi"]
    grid = model.default_grid(61)
    sol = solve_equilibrium(model, grid, times,
                            boundary=merton_equilibrium_boundary(model, phi, grid))
    for tau_idx in (0, 80, 159):
        want = model.terminal_values(times[tau_idx], grid)
        assert np.allclose(sol.theta.values[tau_idx, -1], want, atol=1e-12)


def test_anchor_free_rows_constant_and_match_hjb(toy_tc):
    grid = toy_tc.default_grid(61)
    times = time_grid(0, 1, 80)
    sol = solve_equilibrium(toy_tc, grid, times)
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
    sol = slab_solve(model, grid, times, tol=1e-12)
    tri = sol.theta.values[~np.isnan(sol.theta.values)]
    assert np.allclose(tri, 4.2, atol=1e-12)
    sweeps = [e for e in sol.log if "sweep" in e]
    assert all(e["sweep"] == 1 for e in sweeps)


def test_merton_matches_phi_ansatz(mt_ti):
    model, times, phi = mt_ti["model"], mt_ti["times"], mt_ti["phi"]
    grid = model.default_grid(81)
    sol = solve_equilibrium(model, grid, times,
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
    sol = solve_equilibrium(model, grid, times,
                            boundary=merton_equilibrium_boundary(model, phi, grid))
    again = strategy_from_diagonal(model, grid, times, sol.value.values,
                                   model.q_table(grid))
    assert np.array_equal(again, sol.strategy.values)


def test_anchor_lipschitz(mt_ti):
    model, times, phi = mt_ti["model"], mt_ti["times"], mt_ti["phi"]
    grid = model.default_grid(61)
    sol = solve_equilibrium(model, grid, times,
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
        sol = solve_equilibrium(model, grid, times,
                                boundary=merton_equilibrium_boundary(model, phi_n, grid))
        res = residual(model, sol)
        dt = times[1] - times[0]
        cs.append(res / (dt + grid.dx**2))
    assert 0.2 <= cs[0] / cs[1] <= 5.0


def test_compare_to_partition_time_consistent(toy_tc):
    grid = toy_tc.default_grid(41)
    times = time_grid(0, 1, 64)
    eq = solve_equilibrium(toy_tc, grid, times)
    pi = run_cycles(toy_tc, Partition.uniform(1.0, 4), grid, times)
    out = compare_to_partition(eq, pi)
    assert out["sup_diff_theta"] <= 1e-7
    assert out["sup_diff_psi"] <= 1e-7


def test_compare_to_partition_grid_mismatch(toy_tc):
    grid = toy_tc.default_grid(41)
    times = time_grid(0, 1, 64)
    eq = solve_equilibrium(toy_tc, grid, times)
    other = run_cycles(toy_tc, Partition.uniform(1.0, 2),
                       toy_tc.default_grid(21), time_grid(0, 1, 64))
    with pytest.raises(ConfigError, match="share"):
        compare_to_partition(eq, other)


def test_merton_partition_converges_to_equilibrium(mt_ti):
    model, times, phi = mt_ti["model"], mt_ti["times"], mt_ti["phi"]
    grid = model.default_grid(61)
    eq = solve_equilibrium(model, grid, times,
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
    sol = slab_solve(model, grid, times, tol=1e-11)
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
        sol = slab_solve(fresh, grid, times, tol=1e-11,
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
            slab_solve(model, grid, times, tol=1e-12, max_sweeps=1,
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
    eq = solve_equilibrium(toy_tc, grid, times)
    part = Partition.uniform(1.0, 4)
    pi = run_cycles(toy_tc, part, grid, times)
    direct = compare_to_partition(eq, pi)
    table, _ = refine_and_compare([pi], equilibrium=eq)
    assert table[0]["sup_dist_Psi_eq"] == direct["sup_diff_psi"]


def test_partition_convergence_state_dependent_rates(toy_ti):
    # the mesh law in the well-posed setting (control-free diffusion)
    # with genuinely state-dependent switching rates: the anchor weight
    # is linear in tau here, so the staircase error halves exactly
    grid = toy_ti.default_grid(61)
    times = time_grid(0, 1, 80)
    eq = solve_equilibrium(toy_ti, grid, times)
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
    sol = solve_equilibrium(toy_ti, grid, times)
    got = residual(toy_ti, sol)
    assert got > 0
    assert got == reference_residual(toy_ti, sol)


def _preset_case(preset, n_x, n_t):
    """Model, grid, times and Dirichlet factory as the CLI builds them."""
    from switchctl.merton import solve_equilibrium_ode
    from switchctl.models import MODEL_PRESETS
    model = MODEL_PRESETS[preset]()
    grid = model.default_grid(n_x)
    times = time_grid(0.0, model.T, n_t)
    boundary = None
    if model.spec is not None:
        phi = solve_equilibrium_ode(model.spec, times, tol=1e-12)
        boundary = merton_equilibrium_boundary(model, phi, grid)
    return model, grid, times, boundary


def test_march_matches_slab_oracle_merton():
    import warnings as _warnings
    model, grid, times, boundary = _preset_case("merton-ti", 61, 96)
    sol = solve_equilibrium(model, grid, times, boundary=boundary)
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")   # the sweeps fire the psi clamp
        ref = slab_solve(model, grid, times, tol=1e-9, boundary=boundary)
    got, want = sol.theta.values, ref.theta.values
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.nanmax(np.abs(got - want)) <= 1e-12
    assert residual(model, sol) == residual(model, ref)
    assert sol.log == []


def test_march_matches_slab_oracle_toy_lq_bit_exact():
    # the anchor-row march; the basis march is pinned to it below
    from dataclasses import replace
    model, grid, times, _ = _preset_case("toy-lq", 41, 64)
    model = replace(model, anchor_basis=None)
    sol = solve_equilibrium(model, grid, times)
    ref = slab_solve(model, grid, times, tol=1e-10)
    assert np.array_equal(sol.theta.values, ref.theta.values, equal_nan=True)
    assert np.array_equal(sol.strategy.values, ref.strategy.values)
    assert np.array_equal(sol.value.values, ref.value.values)


def test_march_rows_are_representation_solves(toy_ti):
    # the march solves the discrete system exactly: under the strategy
    # read off its own diagonal, each row re-solved alone is the row
    # (on the anchor-row march)
    from dataclasses import replace
    from switchctl.pde import solve_representation
    toy_ti = replace(toy_ti, anchor_basis=None)
    grid = toy_ti.default_grid(21)
    times = time_grid(0, 1, 24)
    sol = solve_equilibrium(toy_ti, grid, times)
    for tau_idx in (0, 7, 23, 24):
        problem = toy_ti.hjb_problem(float(times[tau_idx]), grid)
        row = solve_representation(problem, times[tau_idx:], sol.strategy)
        assert np.array_equal(row.values, sol.theta.values[tau_idx, tau_idx:])


def test_march_fires_no_psi_clamp():
    # the clamps came from the sweeps' intermediate diagonals; the march
    # evaluates the minimizer on the equilibrium diagonal only
    import warnings as _warnings
    from switchctl.equilibrium import ClampWarning
    model, grid, times, boundary = _preset_case("merton-ti", 41, 64)
    before = model.psi_clamp_count
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        solve_equilibrium(model, grid, times, boundary=boundary)
    assert model.psi_clamp_count == before
    assert not [w for w in caught if issubclass(w.category, ClampWarning)]


def test_residual_equals_per_regime_loop_merton():
    # the merton-pde benchmark case: merton-ti with the phi Dirichlet edges
    model, grid, times, boundary = _preset_case("merton-ti", 61, 96)
    sol = solve_equilibrium(model, grid, times, boundary=boundary)
    got = residual(model, sol)
    assert got > 0
    assert got == reference_residual(model, sol)


def test_anchor_free_g_march_rows_are_representation_solves():
    # g ignores tau and returns one (n_x,) array for every anchor row
    from switchctl.pde import solve_representation
    model = affine_model()
    grid = model.default_grid(21)
    times = time_grid(0, 1, 24)
    sol = solve_equilibrium(model, grid, times)
    for tau_idx in (0, 7, 23, 24):
        problem = model.hjb_problem(float(times[tau_idx]), grid)
        row = solve_representation(problem, times[tau_idx:], sol.strategy)
        assert np.array_equal(row.values, sol.theta.values[tau_idx, tau_idx:])
    assert residual(model, sol) == reference_residual(model, sol)


def test_g_not_broadcasting_over_anchor_rows_rejected(toy_ti):
    from dataclasses import replace
    grid = toy_ti.default_grid(21)
    times = time_grid(0, 1, 8)
    sol = solve_equilibrium(toy_ti, grid, times)
    bad = replace(toy_ti, g=lambda tau, s, x, i, y, z, qv, u:
                  np.zeros(len(x) + 1))
    problem = bad.hjb_problem(0.0, grid)
    rows = np.empty((3, len(times), bad.m, grid.n_x))
    rows[:, -1] = problem.terminal.T
    with pytest.raises(ConfigError, match="callable g") as err:
        solve_rows_batch(problem, times, sol.strategy.node_values,
                         times[:3], rows)
    assert err.value.exit_code == 2
    with pytest.raises(ConfigError, match="callable g"):
        residual(bad, sol)


@pytest.fixture(scope="module")
def merton_pde_case():
    """The merton-pde benchmark grid (merton-ti, n_x 61, n_t 96) with the
    phi Dirichlet edges, and its solve keeping every row."""
    model, grid, times, boundary = _preset_case("merton-ti", 61, 96)
    full = solve_equilibrium(model, grid, times, boundary=boundary)
    return model, grid, times, boundary, full


def _assert_kept_outputs_equal(model, grid, times, boundary, full, anchor):
    for keep in ((), [anchor], [0, anchor, len(times) - 1]):
        sol = solve_equilibrium(model, grid, times, boundary=boundary,
                                keep_rows=keep, residual=True)
        assert sol.theta.values.shape == (len(keep), len(times), grid.n_x,
                                          model.m)
        assert np.array_equal(sol.value.values, full.value.values)
        assert np.array_equal(sol.strategy.values, full.strategy.values)
        for tau_idx in keep:
            assert np.array_equal(sol.theta.row(tau_idx).values,
                                  full.theta.row(tau_idx).values)
        assert sol.residual == residual(model, full)
    assert full.residual is None


def test_kept_outputs_equal_the_keep_all_solve_merton(merton_pde_case):
    model, grid, times, boundary, full = merton_pde_case
    _assert_kept_outputs_equal(model, grid, times, boundary, full, 24)
    sol = solve_equilibrium(model, grid, times, boundary=boundary,
                            keep_rows=(), residual=True)
    assert sol.residual == 2.3536695255750306e-3


def test_kept_outputs_equal_the_keep_all_solve_toy_lq():
    # the toy-verify grid; row 16 is its spike anchor 0.25
    model, grid, times, _ = _preset_case("toy-lq", 41, 64)
    full = solve_equilibrium(model, grid, times)
    _assert_kept_outputs_equal(model, grid, times, None, full, 16)


def test_rows_not_kept_raise_domain_error(toy_ti):
    from switchctl.costs import anchored_minimizer_policy, spike_gain
    grid = toy_ti.default_grid(21)
    times = time_grid(0, 1, 16)
    sol = solve_equilibrium(toy_ti, grid, times, keep_rows=[4])
    assert sol.theta.values.shape == (1, 17, 21, toy_ti.m)
    spike_gain(toy_ti, sol, 0.25, 0.125, 0.0)
    for call in (lambda: spike_gain(toy_ti, sol, 0.5, 0.125, 0.0),
                 lambda: anchored_minimizer_policy(toy_ti, sol, 0.5),
                 lambda: residual(toy_ti, sol),
                 lambda: sol.theta.diagonal()):
        with pytest.raises(DomainError):
            call()


def test_partition_knot_rows_converge_first_order(merton_pde_case):
    # the paper's limit Theta^Pi -> Theta: the distance of each knot row
    # of the N-player cycles to the equilibrium row at that knot shrinks
    # like the mesh 1/N, down to N = n_t, one player per time step
    model, grid, times, _, eq = merton_pde_case
    interior = grid.interior_mask()
    dist = {}
    for n in (16, 32, 48, 96):
        part = Partition.uniform(times[-1], n)
        mirror = partition_phi(model.spec, part.knots, times)
        pi = run_cycles(model, part, grid, times,
                        boundary=merton_partition_boundary(model, mirror, grid))
        dist[n] = max(
            float(np.max(np.abs(pi.theta_blocks[j + 1].values
                                - eq.theta.row(k).values)[:, interior]))
            for j, k in enumerate(pi.knot_idx[:-1]))
    assert 1.8 <= dist[16] / dist[32] <= 2.2, dist
    assert 1.8 <= dist[48] / dist[96] <= 2.2, dist
    assert all(0.10 <= n * d <= 0.12 for n, d in dist.items()), dist


def test_recursive_cost_in_z_is_a_drift_shift():
    # Girsanov: on toy-lq (sigma = 0.4) a running cost + 0.3 z, with
    # z = sigma V_x, is the drift u + 0.3 sigma; the march's z-path must
    # reproduce the shifted model to second order in dt, control for control
    from dataclasses import replace
    from switchctl.models import MODEL_PRESETS
    base = MODEL_PRESETS["toy-lq"]()
    g0, b0 = base.g, base.b
    rec = replace(base, g=lambda tau, s, x, i, y, z, qv, u:
                  g0(tau, s, x, i, y, z, qv, u) + 0.3 * z)
    shifted = replace(base, b=lambda s, x, i, u: b0(s, x, i, u) + 0.3 * 0.4)
    grid = base.default_grid(41)
    interior = grid.interior_mask()
    gaps = []
    for n_t in (64, 128):
        times = time_grid(0.0, base.T, n_t)
        got = solve_equilibrium(rec, grid, times)
        want = solve_equilibrium(shifted, grid, times)
        assert np.array_equal(got.strategy.values, want.strategy.values)
        gaps.append(float(np.max(np.abs(
            got.value.values - want.value.values)[:, interior])))
    assert gaps[0] <= 1e-6
    assert gaps[0] / gaps[1] >= 3.5


def test_recursive_cost_in_y_is_a_discount_weight():
    # Duffie-Epstein: a running cost - rho Y with rho = kappa/(1+kappa(s-tau))
    # discounts by (1+kappa(s-tau))/(1+kappa(r-tau)), so under g = h = 1 the
    # rows are the hyperbolic model's (weight 1/(1+kappa(s-tau)), bequest
    # 1/(1+kappa(T-tau))) times 1+kappa(s-tau); the diagonals agree to
    # second order in dt
    from dataclasses import replace
    from switchctl.fields import node_index
    from switchctl.merton import MertonSpec, solve_equilibrium_ode
    from switchctl.models import ansatz_dirichlet, merton_model, merton_spec
    kappa = 1.0
    market = merton_spec(True, kappa=kappa)
    T = market.T

    def spec(g, h):
        return MertonSpec(b=market.b, sigma=market.sigma, gamma=market.gamma,
                          g=g, h=h, q=market.q, T=T)

    hyp = spec(lambda tau, s: 1.0 / (1.0 + kappa * (s - tau)),
               lambda tau: 1.0 / (1.0 + kappa * (T - np.asarray(tau, dtype=float))))
    flat = spec(lambda tau, s: 1.0 + 0.0 * (np.asarray(s) - tau),
                lambda tau: np.ones_like(np.asarray(tau, dtype=float)))
    twin = merton_model(hyp)
    flat_model = merton_model(flat)
    g0 = flat_model.g
    rec = replace(flat_model, g=lambda tau, s, x, i, y, z, qv, u:
                  g0(tau, s, x, i, y, z, qv, u) - kappa / (1.0 + kappa * (s - tau)) * y)
    grid = twin.default_grid(61)
    gaps = []
    for n_t in (96, 192):
        times = time_grid(0.0, T, n_t)
        phi = solve_equilibrium_ode(hyp, times, tol=1e-12)

        def rec_boundary(tau):
            scale = 1.0 + kappa * (times - tau)
            rows = phi.eq[node_index(times, tau)] * scale[:, None]
            return ansatz_dirichlet(grid, times, rows, hyp.gamma)

        want = solve_equilibrium(twin, grid, times, keep_rows=(),
                                 boundary=merton_equilibrium_boundary(twin, phi, grid))
        got = solve_equilibrium(rec, grid, times, keep_rows=(), boundary=rec_boundary)
        gaps.append(float(np.max(np.abs(got.value.values - want.value.values))))
    assert gaps[0] <= 2e-5
    assert gaps[0] / gaps[1] >= 3.5


def test_recursive_cost_in_qv_is_a_scaled_generator():
    # a running cost + 0.5 QV is the generator scaled by 1.5; the regime
    # weights (1, 2) make the regimes' rows differ, so Q(x) moves them
    from dataclasses import replace
    from switchctl.models import MODEL_PRESETS
    base = MODEL_PRESETS["toy-lq"]()
    w = (1.0, 2.0)
    asym = replace(
        base,
        g=lambda tau, s, x, i, y, z, qv, u:
            u[:, 0] ** 2 + w[i - 1] * (1.0 + 0.5 * tau) * x**2,
        h=lambda tau, x, i:
            w[i - 1] * (1.0 + 0.5 * tau) * np.asarray(x, dtype=float) ** 2)
    assert asym.anchor_basis == (0.0, 1.0)
    g0 = asym.g
    rec = replace(asym, g=lambda tau, s, x, i, y, z, qv, u:
                  g0(tau, s, x, i, y, z, qv, u) + 0.5 * qv)
    scaled = replace(asym)
    scaled.q_table = lambda grid: 1.5 * asym.q_table(grid)
    grid = base.default_grid(41)
    for n_t in (64, 128):
        times = time_grid(0.0, base.T, n_t)
        got = solve_equilibrium(rec, grid, times, keep_rows=())
        want = solve_equilibrium(scaled, grid, times, keep_rows=())
        plain = solve_equilibrium(asym, grid, times, keep_rows=())
        assert _relative_gap(got.value.values, want.value.values) <= 1e-12
        assert np.array_equal(got.strategy.values, want.strategy.values)
        assert _relative_gap(want.value.values, plain.value.values) >= 1e-3


def _relative_gap(got, want):
    return float(np.nanmax(np.abs(got - want)) / np.nanmax(np.abs(want)))


@pytest.mark.parametrize("n_x, n_t", [(41, 64), (81, 256)])
def test_basis_march_matches_the_anchor_row_march_toy_lq(n_x, n_t):
    # toy-lq's weight 1 + 0.5 tau: the rows are exact mixes of the rows
    # anchored at 0 and 1, up to rounding
    from dataclasses import replace
    model, grid, times, _ = _preset_case("toy-lq", n_x, n_t)
    assert model.anchor_basis == (0.0, 1.0)
    got = solve_equilibrium(model, grid, times, keep_rows=[16], residual=True)
    want = solve_equilibrium(replace(model, anchor_basis=None), grid, times,
                             keep_rows=[16], residual=True)
    assert _relative_gap(got.value.values, want.value.values) <= 1e-13
    assert _relative_gap(got.theta.row(16).values,
                         want.theta.row(16).values) <= 1e-13
    assert np.array_equal(got.strategy.values, want.strategy.values)
    assert abs(got.residual - want.residual) <= 1e-12 * want.residual


def test_basis_rows_are_representation_solves(toy_ti):
    # each mixed row is, up to rounding, the row re-solved alone under
    # the strategy read off the basis diagonal
    from switchctl.pde import solve_representation
    grid = toy_ti.default_grid(21)
    times = time_grid(0, 1, 24)
    sol = solve_equilibrium(toy_ti, grid, times)
    for tau_idx in (0, 7, 23, 24):
        problem = toy_ti.hjb_problem(float(times[tau_idx]), grid)
        row = solve_representation(problem, times[tau_idx:], sol.strategy)
        assert _relative_gap(sol.theta.values[tau_idx, tau_idx:],
                             row.values) <= 1e-13
    assert residual(toy_ti, sol) == reference_residual(toy_ti, sol)


def test_one_node_basis_rows_are_one_row(toy_tc):
    # toy-lq-tc has no anchor in g or h: one basis row, and every anchor
    # row at a level is that row exactly
    grid = toy_tc.default_grid(21)
    times = time_grid(0, 1, 16)
    assert toy_tc.anchor_basis == (0.0,)
    values = solve_equilibrium(toy_tc, grid, times).theta.values
    assert np.nanmax(values, axis=0).tolist() == \
        np.nanmin(values, axis=0).tolist()
    assert not np.isnan(values[0]).any()


def test_contradicted_anchor_basis_refused_before_the_march(toy_ti,
                                                            monkeypatch):
    from dataclasses import replace
    from switchctl import equilibrium
    from switchctl.fields import BC_DIRICHLET

    def no_march(*args, **kwargs):
        raise AssertionError("the march started")

    monkeypatch.setattr(equilibrium, "solve_rows_batch", no_march)
    g0, h0 = toy_ti.g, toy_ti.h
    grid = toy_ti.default_grid(21)
    times = time_grid(0, 1, 16)
    bad = [
        (replace(toy_ti, g=lambda tau, s, x, i, y, z, qv, u:
                 g0(tau, s, x, i, y, z, qv, u) + tau**2 * x**2),
         "g is not a polynomial"),
        (replace(toy_ti, g=lambda tau, s, x, i, y, z, qv, u:
                 g0(tau, s, x, i, y, z, qv, u) + 0.1 * y**2), "not affine"),
        (replace(toy_ti, g=lambda tau, s, x, i, y, z, qv, u:
                 g0(tau, s, x, i, y, z, qv, u) + tau * z), "not affine"),
        (replace(toy_ti, h=lambda tau, x, i: h0(tau, x, i) * (1 + tau**2)),
         "h is not a polynomial"),
        (replace(toy_ti, anchor_basis=(0.0, 0.0)), "distinct"),
    ]
    for model, words in bad:
        with pytest.raises(ConfigError, match="anchor_basis") as err:
            solve_equilibrium(model, grid, times)
        assert err.value.exit_code == 2
        assert words in str(err.value)
    # Dirichlet data quadratic in the anchor contradict a two-node basis
    edges = toy_ti.default_grid(21, bc=(BC_DIRICHLET, BC_DIRICHLET))
    with pytest.raises(ConfigError, match="anchor_basis .*Dirichlet"):
        solve_equilibrium(toy_ti, edges, times, boundary=lambda tau: (
            lambda t: np.full((len(t), 2, 2), tau**2)))
