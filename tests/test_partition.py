import numpy as np
import pytest

from switchctl.errors import ConfigError
from switchctl.fields import time_grid
from switchctl.merton import partition_phi
from switchctl.models import ansatz_dirichlet, merton_partition_boundary
from switchctl.partition import (Partition, node_owners, refine_and_compare,
                                 run_cycles)
from switchctl.pde import solve_hjb, solve_representation

from cycles_oracle import cycles_loop


# ---- knots ------------------------------------------------------------------

def test_knot_off_grid_rejected(toy_ti):
    times = time_grid(0, 1, 64)
    grid = toy_ti.default_grid(41)
    with pytest.raises(ConfigError, match="node"):
        run_cycles(toy_ti, Partition(np.array([0.0, 0.3001, 1.0])), grid, times)


# ---- cycle runs -------------------------------------------------------------

def test_single_player_equals_plain_hjb(toy_ti):
    times = time_grid(0, 1, 64)
    grid = toy_ti.default_grid(61)
    sol = run_cycles(toy_ti, Partition.uniform(1.0, 1), grid, times)
    direct = solve_hjb(toy_ti.hjb_problem(0.0, grid), times)
    assert np.array_equal(sol.value.values, direct.value.values)
    assert np.array_equal(sol.strategy.values, direct.strategy.values)


def test_block_identity_on_own_interval(mt_ti):
    model, times = mt_ti["model"], mt_ti["times"]
    grid = model.default_grid(81)
    part = Partition.uniform(model.T, 4)
    mirror = partition_phi(model.spec, part.knots, times)
    sol = run_cycles(model, part, grid, times,
                     boundary=merton_partition_boundary(model, mirror, grid))
    kidx = sol.knot_idx
    for k in range(1, 5):
        a, b = kidx[k - 1], kidx[k]
        hi = b + 1 if k == 4 else b
        block = sol.theta_blocks[k]
        assert np.array_equal(block.values[:hi - a], sol.value.values[a:hi])


def test_time_consistent_collapse(toy_tc):
    times = time_grid(0, 1, 64)
    grid = toy_tc.default_grid(61)
    sol1 = run_cycles(toy_tc, Partition.uniform(1.0, 1), grid, times)
    sol4 = run_cycles(toy_tc, Partition.uniform(1.0, 4), grid, times)
    assert sol1.value.sup_diff(sol4.value) <= 1e-8
    assert sol1.strategy.sup_diff(sol4.strategy) <= 1e-8


def test_merton_cycles_match_ode_mirror(mt_ti):
    model, times = mt_ti["model"], mt_ti["times"]
    grid = model.default_grid(81)
    part = Partition.uniform(model.T, 4)
    mirror = partition_phi(model.spec, part.knots, times)
    sol = run_cycles(model, part, grid, times,
                     boundary=merton_partition_boundary(model, mirror, grid))
    interior = grid.interior_mask()
    xs = grid.x[interior]
    gamma = model.spec.gamma
    worst = 0.0
    for k in range(len(times)):
        want = -mirror.value[k][None, :] * xs[:, None] ** gamma
        got = sol.value.values[k][interior, :]
        worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
    assert worst <= 5e-3


def test_two_time_rows_follow_anchor(mt_ti):
    model, times = mt_ti["model"], mt_ti["times"]
    grid = model.default_grid(41)
    part = Partition.uniform(model.T, 2)
    mirror = partition_phi(model.spec, part.knots, times)
    sol = run_cycles(model, part, grid, times,
                     boundary=merton_partition_boundary(model, mirror, grid))
    # rows within one interval are identical (theta depends on tau only
    # through the owning player)
    r1 = sol.theta_row(3)
    r2 = sol.theta_row(5)
    assert np.array_equal(r1[2:], r2)
    # terminal data of a row is the owning player's anchored bequest
    tt = sol.theta_two_time()
    owners = node_owners(part.knot_indices(times), [0, 41, 90, 140])
    for tau_idx, owner in zip((0, 41, 90, 140), owners):
        want = model.terminal_values(part.knots[owner], grid)
        assert np.allclose(tt.values[tau_idx, -1], want, atol=1e-12)


def test_theta_row_at_a_snapped_knot_is_the_next_players_row(toy_ti):
    # the knot 0.6000000000000001 snaps to node 9 (0.6), which belongs to
    # player 4 like the cycles' own value there
    times = time_grid(0.0, 1.0, 15)
    part = Partition.uniform(1.0, 5)
    assert part.knots[3] > times[9] and part.knot_indices(times)[3] == 9
    sol = run_cycles(toy_ti, part, toy_ti.default_grid(11), times)
    assert np.array_equal(sol.theta_row(9), sol.theta_blocks[4].values)
    assert np.array_equal(sol.theta_row(9)[0], sol.value.values[9])


def test_node_owners_right_continuous_and_t_to_the_last():
    kidx = [0, 3, 5, 9]
    assert node_owners(kidx, np.arange(10)).tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 2, 2]
    assert node_owners(kidx, 3) == 1
    assert node_owners([0, 4], np.arange(5)).tolist() == [0] * 5   # one player


def test_knot_local_optimality(mt_ti):
    # at each knot the concatenated value undercuts randomized constant
    # proportional controls played over the player's own interval
    from switchctl.merton import solve_proportional_cost

    model, times = mt_ti["model"], mt_ti["times"]
    spec = model.spec
    grid = model.default_grid(81)
    part = Partition.uniform(model.T, 2)
    mirror = partition_phi(spec, part.knots, times)
    boundary = merton_partition_boundary(model, mirror, grid)
    sol = run_cycles(model, part, grid, times, boundary=boundary)
    rng = np.random.default_rng(3)
    interior = grid.interior_mask()
    xs = grid.x[interior]
    kidx = sol.knot_idx
    for k in (1, 2):
        a, b = kidx[k - 1], kidx[k]
        tau = float(part.knots[k - 1])
        terminal = sol.theta_blocks[k].values[b - a]
        seg_times = times[a:b + 1]
        phi_term = mirror.rows[k][b]
        for _ in range(5):
            theta_p = rng.uniform(0.5, 4.0)
            kappa_p = rng.uniform(0.3, 1.5)

            def policy(s, x, i):
                x = np.atleast_1d(np.asarray(x, dtype=float))
                return np.stack([theta_p * x, kappa_p * x], axis=1)

            phi_prop = solve_proportional_cost(
                spec, tau, lambda s: np.full(spec.m, theta_p),
                lambda s: np.full(spec.m, kappa_p), seg_times,
                terminal=phi_term)

            dirichlet = ansatz_dirichlet(grid, seg_times, phi_prop, spec.gamma)
            problem = model.hjb_problem(tau, grid, terminal=terminal,
                                        dirichlet=dirichlet)
            field = solve_representation(problem, seg_times, policy)
            # the priced field itself follows the proportional-cost ansatz
            want = -phi_prop[0][None, :] * xs[:, None] ** spec.gamma
            rel = np.max(np.abs(field.values[0][interior] / want - 1.0))
            assert rel <= 5e-3
            # local optimality at the knot, up to twice the grid error
            gap = (sol.value.values[a] - field.values[0])[interior, :]
            assert np.max(gap) <= 2e-3


# ---- the one march against the per-game loop -------------------------------

def assert_march_equals_loop(model, part, grid, times, boundary=None):
    got = run_cycles(model, part, grid, times, boundary=boundary)
    want = cycles_loop(model, part, grid, times, boundary=boundary)
    assert got.knot_idx == want.knot_idx
    assert np.array_equal(got.value.values, want.value.values)
    assert np.array_equal(got.strategy.values, want.strategy.values)
    assert sorted(got.theta_blocks) == sorted(want.theta_blocks)
    for k, block in want.theta_blocks.items():
        assert np.array_equal(got.theta_blocks[k].times, block.times)
        assert np.array_equal(got.theta_blocks[k].values, block.values)


@pytest.fixture(scope="module")
def merton_96():
    from switchctl.models import merton_model, merton_spec
    model = merton_model(merton_spec(True))
    return model, model.default_grid(61), time_grid(0.0, model.T, 96)


def assert_merton_march_equals_loop(model, part, grid, times):
    mirror = partition_phi(model.spec, part.knots, times)
    assert_march_equals_loop(model, part, grid, times,
                             merton_partition_boundary(model, mirror, grid))


@pytest.mark.parametrize("n_players", [1, 4, 8, 16])
def test_march_equals_cycle_loop_merton(merton_96, n_players):
    model, grid, times = merton_96
    assert_merton_march_equals_loop(model, Partition.uniform(model.T, n_players),
                                    grid, times)


@pytest.mark.parametrize("n_players", [1, 4, 8])
def test_march_equals_cycle_loop_toy(toy_ti, n_players):
    assert_march_equals_loop(toy_ti, Partition.uniform(1.0, n_players),
                             toy_ti.default_grid(41), time_grid(0, 1, 64))


def test_march_equals_cycle_loop_nonuniform_knots(toy_ti, merton_96):
    # a one-step first player, a knot on the second node from the end
    times = time_grid(0, 1, 32)
    assert_march_equals_loop(toy_ti, Partition(times[[0, 1, 8, 10, 23, 31, 32]]),
                             toy_ti.default_grid(41), times)
    model, grid, times = merton_96
    assert_merton_march_equals_loop(model, Partition(times[[0, 7, 8, 50, 95, 96]]),
                                    grid, times)


def test_march_equals_cycle_loop_every_node_a_knot(toy_ti, merton_96):
    times = time_grid(0, 1, 16)
    assert_march_equals_loop(toy_ti, Partition(times), toy_ti.default_grid(41),
                             times)
    model, grid, _ = merton_96
    times = time_grid(0.0, model.T, 12)
    assert_merton_march_equals_loop(model, Partition(times), grid, times)


def test_single_player_march_equals_plain_hjb_with_dirichlet(merton_96):
    model, grid, times = merton_96
    part = Partition.uniform(model.T, 1)
    mirror = partition_phi(model.spec, part.knots, times)
    boundary = merton_partition_boundary(model, mirror, grid)
    sol = run_cycles(model, part, grid, times, boundary=boundary)
    direct = solve_hjb(model.hjb_problem(0.0, grid, dirichlet=boundary(0.0)),
                       times)
    assert np.array_equal(sol.value.values, direct.value.values)
    assert np.array_equal(sol.theta_blocks[1].values, direct.value.values)
    assert np.array_equal(sol.strategy.values, direct.strategy.values)


# ---- refine_and_compare -----------------------------------------------------

def test_refine_identical_partitions_zero(toy_tc):
    times = time_grid(0, 1, 64)
    grid = toy_tc.default_grid(41)
    parts = [Partition.uniform(1.0, 2), Partition.uniform(1.0, 2)]
    table, _ = refine_and_compare(run_cycles(toy_tc, p, grid, times) for p in parts)
    assert table[1]["sup_diff_V"] == 0.0
    assert table[1]["sup_diff_Psi"] == 0.0


def test_refine_time_consistent_all_small(toy_tc):
    times = time_grid(0, 1, 64)
    grid = toy_tc.default_grid(41)
    parts = [Partition.uniform(1.0, n) for n in (1, 2, 4)]
    table, _ = refine_and_compare(run_cycles(toy_tc, p, grid, times) for p in parts)
    for row in table[1:]:
        assert row["sup_diff_V"] <= 1e-8
        assert row["sup_diff_Psi"] <= 1e-8


def test_refine_merton_decreasing(mt_ti):
    model, times = mt_ti["model"], mt_ti["times"]
    grid = model.default_grid(61)
    parts = [Partition.uniform(model.T, n) for n in (2, 4, 8)]

    def boundary_for(part):
        mirror = partition_phi(model.spec, part.knots, times)
        return merton_partition_boundary(model, mirror, grid)

    sols = [run_cycles(model, p, grid, times, boundary=boundary_for(p))
            for p in parts]
    interior = grid.interior_mask()
    d1v = sols[0].value.sup_diff(sols[1].value, interior)
    d2v = sols[1].value.sup_diff(sols[2].value, interior)
    assert d2v < d1v


def test_strategy_jump_at_knots_bounded_by_mesh(mt_ti):
    # the anchor jump across a knot moves the strategy by at most
    # (Lipschitz in the anchor) * mesh on the sampled grid
    model, times = mt_ti["model"], mt_ti["times"]
    grid = model.default_grid(61)
    interior = grid.interior_mask()
    cs = []
    for n in (4, 8):
        part = Partition.uniform(model.T, n)
        mirror = partition_phi(model.spec, part.knots, times)
        sol = run_cycles(model, part, grid, times,
                         boundary=merton_partition_boundary(model, mirror, grid))
        kidx = sol.knot_idx
        jump = 0.0
        for k in kidx[1:-1]:
            gap = np.abs(sol.strategy.values[k] - sol.strategy.values[k - 1])
            jump = max(jump, float(np.max(gap[interior])))
        cs.append(jump / part.mesh())
    # the fitted Lipschitz constant is stable as the mesh halves
    assert cs[1] <= 2.5 * cs[0]
