import numpy as np
import pytest

from switchctl import merton, sde
from switchctl.errors import ConfigError, ConvergenceError, DomainError
from switchctl.fields import time_grid
from switchctl.merton import (MertonSpec, anchored_policy, equilibrium_policy,
                              monte_carlo_payoff, partition_phi,
                              solve_equilibrium_ode,
                              solve_precommitted, solve_proportional_cost,
                              solve_time_consistent, strategies,
                              wealth_dynamics)
from switchctl.models import (constant_rate_geometry, merton_spec,
                              uniform_mark_density)
from switchctl.partition import Partition
from switchctl.sde import simulate_ensemble

import phi_oracle


def single_regime_spec(g0=0.0, h0=2.0):
    return MertonSpec(b=[0.1], sigma=[0.2], gamma=0.5,
                      g=lambda tau, s: g0 + 0.0 * np.asarray(s),
                      h=lambda tau: h0 * np.ones_like(np.asarray(tau, dtype=float)),
                      q=np.array([[0.0]]), T=1.0)


def anchor_free_spec():
    return merton_spec(time_inconsistent=False)


def hyperbolic_spec():
    return merton_spec(time_inconsistent=True, kappa=1.0)


TIMES = time_grid(0.0, 1.0, 800)


# ---- time-consistent system -------------------------------------------------

def test_zero_consumption_closed_form():
    spec = single_regime_spec()
    phi = solve_time_consistent(spec, TIMES)
    A = spec.drift_gain()[0]
    want = 2.0 * np.exp(A * (1.0 - TIMES))
    assert np.max(np.abs(phi[:, 0] - want)) <= 1e-8


def test_phi_tc_bounded_below_by_h_and_monotone():
    spec = anchor_free_spec()
    phi = solve_time_consistent(spec, TIMES)
    assert np.all(phi >= 1.0 - 1e-12)
    assert np.all(np.diff(phi, axis=0) <= 1e-12)


def test_invalid_spec_rejected():
    with pytest.raises(ConfigError):
        MertonSpec(b=[0.1], sigma=[0.2], gamma=1.5,
                   g=lambda tau, s: 1.0, h=lambda tau: np.ones_like(np.asarray(tau)),
                   q=np.array([[0.0]]))
    with pytest.raises(ConfigError):
        MertonSpec(b=[0.1, 0.2], sigma=[0.2, -0.1], gamma=0.5,
                   g=lambda tau, s: 1.0,
                   h=lambda tau: np.ones_like(np.asarray(tau)),
                   q=np.zeros((2, 2)))


# ---- pre-committed system ----------------------------------------------------

def test_precommitted_equals_tc_for_anchor_free_data():
    spec = anchor_free_spec()
    phi_tc = solve_time_consistent(spec, TIMES)
    for tau in (0.0, 0.3):
        phi_pre = solve_precommitted(spec, tau, TIMES)
        valid = ~np.isnan(phi_pre[:, 0])
        assert np.max(np.abs(phi_pre[valid] - phi_tc[valid])) <= 1e-10


def test_precommitted_terminal_row_exact():
    spec = hyperbolic_spec()
    for tau in (0.0, 0.5):
        phi_pre = solve_precommitted(spec, tau, TIMES)
        assert np.allclose(phi_pre[-1], float(spec.h(tau)), atol=0)


def test_precommitted_anchor_dependence_shows():
    spec = MertonSpec(b=[0.10, 0.06], sigma=[0.2, 0.3], gamma=0.5,
                      g=lambda tau, s: 1.0 + 0.0 * np.asarray(s),
                      h=lambda tau: 1.0 + 0.5 * np.asarray(tau, dtype=float),
                      q=np.array([[-0.3, 0.3], [0.3, -0.3]]), T=1.0)
    a = solve_precommitted(spec, 0.0, TIMES)
    b = solve_precommitted(spec, 0.5, TIMES)
    both = ~np.isnan(a[:, 0]) & ~np.isnan(b[:, 0])
    assert np.max(np.abs(a[both] - b[both])) > 0.1


# ---- equilibrium system ------------------------------------------------------

def test_equilibrium_reduces_to_tc_for_anchor_free_data():
    spec = anchor_free_spec()
    sol = solve_equilibrium_ode(spec, TIMES, tol=1e-12)
    phi_tc = solve_time_consistent(spec, TIMES)
    assert np.max(np.abs(sol.eq_diag - phi_tc)) <= 1e-8
    for k in (0, 200, 640):
        row = sol.eq[k, k:, :]
        assert np.max(np.abs(row - phi_tc[k:])) <= 1e-8


def test_equilibrium_terminal_rows():
    spec = hyperbolic_spec()
    sol = solve_equilibrium_ode(spec, TIMES)
    assert np.allclose(sol.eq[:, -1, 0], spec.h(TIMES), atol=0)
    assert sol.eq_diag[-1, 0] == float(spec.h(1.0))


def test_equilibrium_hyperbolic_converges_geometrically():
    # iterations[j] is the largest change any step saw in round j
    spec = hyperbolic_spec()
    sol = solve_equilibrium_ode(spec, TIMES, tol=1e-12)
    log = np.asarray(sol.iterations)
    assert log[-1] < 1e-12
    assert np.all(np.diff(log) < 0)


def test_equilibrium_ode_is_causal():
    # the march reads only the diagonal at and after each step, so a
    # later start reproduces the tail of the full solve bit for bit
    spec = hyperbolic_spec()
    times = time_grid(0.0, 1.0, 200)
    full = solve_equilibrium_ode(spec, times)
    for j in (1, 50, 197):
        tail = solve_equilibrium_ode(spec, times[j:])
        assert np.array_equal(tail.eq, full.eq[j:, j:], equal_nan=True)
        assert np.array_equal(tail.eq_diag, full.eq_diag[j:])


def test_equilibrium_positivity():
    spec = hyperbolic_spec()
    sol = solve_equilibrium_ode(spec, TIMES)
    tri = sol.eq[~np.isnan(sol.eq)]
    assert np.all(tri >= float(np.min(spec.h(TIMES))) - 1e-9)


def test_equilibrium_row_priced_by_proportional_cost():
    # each anchored row is the price of the equilibrium feedback rule
    spec = hyperbolic_spec()
    sol = solve_equilibrium_ode(spec, TIMES, tol=1e-12)
    from scipy.interpolate import CubicSpline
    splines = [CubicSpline(TIMES, sol.eq_diag[:, i]) for i in range(spec.m)]
    frac = spec.investment_fraction()
    gam = spec.gamma

    def theta(s):
        return frac

    def kappa(s):
        phi_ss = np.array([float(sp(s)) for sp in splines])
        return (float(spec.g(s, s)) / phi_ss) ** (1 / (1 - gam))

    for tau_idx in (0, 320):
        tau = TIMES[tau_idx]
        priced = solve_proportional_cost(
            spec, tau, theta, kappa, TIMES,
            terminal=float(spec.h(tau)) * np.ones(spec.m), k_stop=tau_idx)
        row = sol.eq[tau_idx]
        valid = ~np.isnan(priced[:, 0])
        assert np.max(np.abs(priced[valid] - row[valid])) <= 1e-8


# ---- strategies ---------------------------------------------------------------

def test_strategy_pair_arithmetic():
    spec = single_regime_spec(g0=1.0)
    u, c = strategies(spec, phi_ss=1.0, s=0.0, x=1.0, i=1, g_weight=1.0)
    assert u == pytest.approx(5.0)
    assert c == pytest.approx(1.0)


def test_strategy_unit_consumption_when_weight_matches_phi():
    spec = anchor_free_spec()
    u, c = strategies(spec, phi_ss=0.7, s=0.2, x=3.0, i=2, g_weight=0.7)
    assert c == pytest.approx(3.0)


def test_strategy_linear_in_wealth():
    spec = anchor_free_spec()
    u1, _ = strategies(spec, 1.0, 0.1, 1.5, 1)
    u2, _ = strategies(spec, 1.0, 0.1, 3.0, 1)
    assert u2 == pytest.approx(2 * u1)


def test_strategy_requires_positive_wealth():
    spec = anchor_free_spec()
    with pytest.raises(DomainError):
        strategies(spec, 1.0, 0.1, -1.0, 1)


@pytest.mark.parametrize("label", [0, -1, 3])
def test_strategy_rejects_unknown_regime_label(label):
    spec = anchor_free_spec()
    with pytest.raises(DomainError, match="regime label") as info:
        strategies(spec, 1.0, 0.1, 1.0, label)
    assert info.value.exit_code == 2


def test_investment_fraction_anchor_free():
    spec = hyperbolic_spec()
    sol = solve_equilibrium_ode(spec, time_grid(0, 1, 200))
    pol = equilibrium_policy(spec, sol)
    for s in (0.0, 0.33, 0.9):
        u = pol(s, np.array([1.0, 2.0]), 1)
        assert np.allclose(u[:, 0] / np.array([1.0, 2.0]),
                           spec.investment_fraction()[0])


# ---- Monte Carlo ---------------------------------------------------------------

def test_zero_strategy_payoff_exact():
    spec = hyperbolic_spec()
    geo = constant_rate_geometry(spec.q)
    zero_policy = lambda s, x, i: np.zeros((len(np.atleast_1d(x)), 2))
    est, se = monte_carlo_payoff(
        spec, zero_policy, t=0.0, x=1.3, i=1, n_paths=200, seed=5, h_step=0.01,
        geometry=geo, levy=uniform_mark_density())
    assert est == pytest.approx(float(spec.h(0.0)) * 1.3**spec.gamma, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_mc_matches_tc_value():
    spec = anchor_free_spec()
    phi = solve_time_consistent(spec, TIMES)
    pol = anchored_policy(spec, 0.0, solve_precommitted(spec, 0.0, TIMES), TIMES)
    geo = constant_rate_geometry(spec.q)
    est, se = monte_carlo_payoff(spec, pol, t=0.0, x=1.0, i=1,
                                 n_paths=20_000, seed=77, h_step=1e-3,
                                 geometry=geo, levy=uniform_mark_density())
    want = phi[0, 0] * 1.0**spec.gamma
    assert abs(est - want) <= 3 * se + 2e-3  # 3 SE plus the O(h) weak bias


def test_mc_matches_equilibrium_value():
    spec = hyperbolic_spec()
    sol = solve_equilibrium_ode(spec, TIMES)
    pol = equilibrium_policy(spec, sol)
    geo = constant_rate_geometry(spec.q)
    t0, x0, i0 = 0.0, 1.2, 2
    est, se = monte_carlo_payoff(spec, pol, t=t0, x=x0, i=i0,
                                 n_paths=20_000, seed=78, h_step=1e-3,
                                 geometry=geo, levy=uniform_mark_density())
    want = sol.eq_diag[0, i0 - 1] * x0**spec.gamma
    assert abs(est - want) <= 3 * se + 2e-3


def test_wealth_dynamics_signature():
    spec = anchor_free_spec()
    dyn = wealth_dynamics(spec)
    u = np.array([[1.0, 0.5]])
    x = np.array([2.0])
    assert dyn.drift(0.0, x, 1, u)[0] == pytest.approx(0.10 * 1.0 - 0.5)
    assert dyn.diffusion(0.0, x, 2, u)[0] == pytest.approx(0.30 * 1.0)


def test_mc_wealth_crossing_zero_reports_resolution():
    from switchctl.errors import ResolutionError
    spec = hyperbolic_spec()
    geo = constant_rate_geometry(spec.q)
    greedy = lambda s, x, i: np.stack(
        [0.0 * np.atleast_1d(x), 50.0 * np.ones_like(np.atleast_1d(x))], axis=1)
    with pytest.raises(ResolutionError, match="smaller step"):
        monte_carlo_payoff(spec, greedy, 0.0, 1.0, 1, n_paths=50, seed=1,
                           h_step=0.25, geometry=geo,
                           levy=uniform_mark_density())


def small_equilibrium_policy():
    spec = hyperbolic_spec()
    sol = solve_equilibrium_ode(spec, time_grid(0.0, spec.T, 100))
    return spec, sol, equilibrium_policy(spec, sol)


def small_payoff(spec, pol, t, x, i, n_paths=512):
    return monte_carlo_payoff(spec, pol, t, x, i, n_paths=n_paths, seed=2024,
                              h_step=1e-2, geometry=constant_rate_geometry(spec.q),
                              levy=uniform_mark_density())


def test_spline_policy_scalar_s_is_bitwise_the_broadcast_policy():
    spec, sol, pol = small_equilibrium_policy()
    knots = sol.times[::7]
    mids = 0.5 * (sol.times[:-1] + sol.times[1:])[::9]
    x = np.linspace(0.05, 3.0, 37)
    for s in [*knots, *mids, spec.T]:
        for i in (1, 2):
            got = pol(s, x, i)
            want = pol(np.full(x.shape, s), x, i)
            assert got.shape == want.shape == (len(x), 2)
            assert np.array_equal(got, want), (s, i)


@pytest.mark.parametrize("label", [0, -1, 3])
def test_spline_policy_rejects_unknown_regime_label(label):
    # label 0 once answered for regime m and -1 for regime 1
    _, _, pol = small_equilibrium_policy()
    x = np.array([0.5, 1.0])
    for s in (0.3, np.array([0.3, 0.6])):
        with pytest.raises(DomainError, match="regime label") as info:
            pol(s, x, label)
        assert info.value.exit_code == 2


def test_mc_payoff_pinned_bitwise():
    # recorded before the node-synchronous march (x86-64, AVX-512, numpy
    # 2.4.6); a regrouping of paths must not change a single bit
    spec, _, pol = small_equilibrium_policy()
    assert small_payoff(spec, pol, 0.0, 1.0, 1) == (1.2915099641894878,
                                                    0.02264984923045578)
    assert small_payoff(spec, pol, 0.25, 0.8, 2) == (1.0646699835938023,
                                                     0.007640594162161918)


def test_mc_payoff_pinned_bitwise_in_short_blocks(monkeypatch):
    # 7 base steps a block for the 512 paths: many refills, and jumps
    # that straddle block ends
    monkeypatch.setattr(sde, "_NORMALS_BLOCK_BYTES", 8 * 512 * 7)
    test_mc_payoff_pinned_bitwise()


def test_mc_payoff_one_policy_call_per_node_and_regime(monkeypatch):
    spec, _, pol = small_equilibrium_policy()
    calls, in_hook = {}, [False]

    def counting(s, x, i):
        assert not in_hook[0], "the node hook called the policy"
        if np.ndim(s) == 0:
            calls[(float(s), i)] = calls.get((float(s), i), 0) + 1
        return pol(s, x, i)

    def traced_ensemble(*args, node_hook, **kw):
        def hook(*a):
            in_hook[0] = True
            try:
                node_hook(*a)
            finally:
                in_hook[0] = False
        return simulate_ensemble(*args, node_hook=hook, **kw)

    monkeypatch.setattr(merton, "simulate_ensemble", traced_ensemble)
    small_payoff(spec, counting, 0.0, 1.0, 1, n_paths=300)
    nodes = {s for s, _ in calls}
    assert len(nodes) == 101                       # every base node, T included
    assert max(calls.values()) == 1


def test_mc_payoff_needs_two_paths():
    spec, _, pol = small_equilibrium_policy()
    for n in (0, 1):
        with pytest.raises(ConfigError, match="n_paths"):
            small_payoff(spec, pol, 0.0, 1.0, 1, n_paths=n)


def test_mc_payoff_rejects_nonpositive_start_wealth():
    spec, _, pol = small_equilibrium_policy()
    for x0 in (0.0, -0.5):
        with pytest.raises(DomainError, match="wealth must be positive"):
            small_payoff(spec, pol, 0.0, x0, 1)


def test_mc_payoff_rejects_unknown_start_regime():
    spec, _, pol = small_equilibrium_policy()
    for i0 in (0, 3):
        with pytest.raises(ConfigError, match="regime"):
            small_payoff(spec, pol, 0.0, 1.0, i0)


def test_precommitted_anchor_at_or_past_the_last_node_rejected():
    # the grid ends at 0.5, before T = 1: no step is left below the anchor
    spec = hyperbolic_spec()
    times = time_grid(0.0, 0.5, 8)
    for tau in (0.5, 0.75):
        with pytest.raises(DomainError, match=f"tau={tau:g}.*last time node 0.5"):
            solve_precommitted(spec, tau, times)
    off_node = solve_precommitted(spec, 0.3, times)
    assert np.isnan(off_node[:5]).all() and np.isfinite(off_node[5:]).all()


# ---- stage tables against the per-stage-call oracle ---------------------------

@pytest.mark.parametrize("n_steps", [800, 96, 2, 1])
def test_equilibrium_ode_matches_per_stage_oracle(n_steps):
    spec = hyperbolic_spec()
    times = time_grid(0.0, spec.T, n_steps)
    got = solve_equilibrium_ode(spec, times, tol=1e-13)
    want = phi_oracle.solve_equilibrium_ode(spec, times, tol=1e-13)
    assert np.array_equal(got.eq, want.eq, equal_nan=True)
    assert np.array_equal(got.eq_diag, want.eq_diag)
    assert got.iterations == want.iterations


def test_equilibrium_ode_matches_per_stage_oracle_anchor_free():
    spec = anchor_free_spec()
    times = time_grid(0.0, spec.T, 64)
    got = solve_equilibrium_ode(spec, times, tol=1e-12)
    want = phi_oracle.solve_equilibrium_ode(spec, times, tol=1e-12)
    assert np.array_equal(got.eq, want.eq, equal_nan=True)
    assert got.iterations == want.iterations


def test_equilibrium_ode_nonconvergence_matches_oracle():
    spec = hyperbolic_spec()
    times = time_grid(0.0, spec.T, 96)
    errors = []
    for solve in (solve_equilibrium_ode, phi_oracle.solve_equilibrium_ode):
        with pytest.raises(ConvergenceError) as info:
            solve(spec, times, tol=1e-13, max_iter=1)
        errors.append(info.value)
    got, want = errors
    assert str(got) == str(want)
    assert got.history == want.history


def test_phi_rows_are_the_dense_triangle_rows():
    # merton-ti: each row copied out of the packed levels is, bit for bit,
    # the row of the dense triangle that ``eq`` builds from them
    spec = merton_spec(time_inconsistent=True)
    sol = solve_equilibrium_ode(spec, time_grid(0.0, spec.T, 96), tol=1e-13)
    eq = sol.eq
    for j in range(len(sol.times)):
        assert np.array_equal(sol.row(j), eq[j], equal_nan=True), j


def _phi_bytes(n, m):
    return 8 * n * (n + 1) // 2 * m


def test_phi_march_stores_the_packed_triangle_only():
    # n(n+1)/2 m float64 values; the dense n^2 m layout would peak at twice
    import tracemalloc
    spec = hyperbolic_spec()
    times = time_grid(0.0, spec.T, 400)
    packed = _phi_bytes(len(times), spec.m)
    tracemalloc.start()
    try:
        sol = solve_equilibrium_ode(spec, times, tol=1e-13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.levels.nbytes == packed
    assert peak < 1.25 * packed, (peak, packed)


def test_oversized_phi_triangle_refused_before_allocation(monkeypatch):
    import tracemalloc
    from switchctl import fields
    spec = hyperbolic_spec()
    times = time_grid(0.0, spec.T, 400)
    need = _phi_bytes(401, spec.m)
    monkeypatch.setattr(fields, "physical_memory_bytes", lambda: 2 * need - 2)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            solve_equilibrium_ode(spec, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.exit_code == 2
    assert str(need) in str(info.value) and "n_t=401" in str(info.value)
    assert peak < need / 10, peak
    # twice the triangle is enough
    monkeypatch.setattr(fields, "physical_memory_bytes", lambda: 2 * need)
    assert solve_equilibrium_ode(spec, times).levels.nbytes == need


PHI_HEADER = ("tau", "s", "i", "phi")


def _dense_phi_csv(path, sol):
    """phi.csv as written from the dense NaN-padded triangle."""
    from switchctl.fields import write_csv
    times, eq = sol.times, sol.eq
    a, k, i = np.nonzero(~np.isnan(eq))
    write_csv(path, PHI_HEADER, (times[a], times[k], i + 1, eq[a, k, i]))


def test_phi_csv_rows_equal_the_dense_table(tmp_path):
    from switchctl.cli import main
    from switchctl.fields import write_csv_blocks
    sol = solve_equilibrium_ode(hyperbolic_spec(), time_grid(0.0, 1.0, 48),
                                tol=1e-12)
    _dense_phi_csv(tmp_path / "dense.csv", sol)
    write_csv_blocks(tmp_path / "rows.csv", PHI_HEADER, sol.csv_rows())
    want = (tmp_path / "dense.csv").read_bytes()
    assert want.count(b"\n") == 1 + 49 * 50 // 2 * 2
    assert (tmp_path / "rows.csv").read_bytes() == want
    # the CLI merton run's eq variant writes the same bytes
    cfg = tmp_path / "eq.ini"
    cfg.write_text("[model]\npreset = merton-ti\n[grid]\nn_t = 48\n"
                   "[solver]\nvariant = eq\ntol = 1e-12\n")
    assert main(["merton", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "phi.csv").read_bytes() == want


def test_phi_csv_writer_holds_no_dense_triangle(tmp_path):
    # the dense (n, n, m) triangle at n_t 400 takes 2.57 MB; the row
    # writer holds one row's arrays and one block of text at a time
    # (a 0.15 MB peak, against 11.8 MB writing from the triangle)
    import tracemalloc
    from switchctl.fields import write_csv_blocks
    spec = hyperbolic_spec()
    sol = solve_equilibrium_ode(spec, time_grid(0.0, spec.T, 400), tol=1e-13)
    dense = 8 * 401 * 401 * spec.m
    tracemalloc.start()
    try:
        write_csv_blocks(tmp_path / "phi.csv", PHI_HEADER, sol.csv_rows())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense / 4, (peak, dense)


# node indices of uneven knots on 96 steps, two of them adjacent
UNEVEN_KNOTS = [0, 5, 9, 40, 41, 77, 96]


# N = 96, the uneven knots and merton-tc at N = 16 each break if the
# earlier rows' regime coupling is one stacked (R, m) @ (m, m) product
# instead of one one-row product per row
@pytest.mark.parametrize("n_players, time_inconsistent", [
    pytest.param(4, True, id="4"), pytest.param(8, True, id="8"),
    pytest.param(96, True, id="96"), pytest.param(None, True, id="uneven"),
    pytest.param(16, False, id="tc-16"), pytest.param(None, False, id="tc-uneven")])
def test_partition_phi_matches_per_stage_oracle(n_players, time_inconsistent):
    spec = merton_spec(time_inconsistent=time_inconsistent)
    times = time_grid(0.0, spec.T, 96)
    knots = (Partition.uniform(spec.T, n_players).knots if n_players
             else times[UNEVEN_KNOTS])
    got = partition_phi(spec, knots, times)
    want = phi_oracle.partition_phi(spec, knots, times)
    assert np.array_equal(got.value, want.value, equal_nan=True)
    assert got.rows.keys() == want.rows.keys()
    for k in want.rows:
        assert np.array_equal(got.rows[k], want.rows[k], equal_nan=True), k


@pytest.mark.parametrize("n_players", [1, 2, 8, 96])
def test_partition_phi_is_one_backward_march(monkeypatch, n_players):
    # one pass of the optimal system over [0, T] and one pricing pass over
    # every interval but the first: 2n - n/N RK4 steps, not one re-pricing
    # chain per player
    calls = []
    step = merton._rk4_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(merton, "_rk4_step", counted)
    spec = hyperbolic_spec()
    n = 96
    partition_phi(spec, Partition.uniform(spec.T, n_players).knots,
                  time_grid(0.0, spec.T, n))
    assert len(calls) == 2 * n - n // n_players < 2 * n


def test_proportional_cost_prices_anchors_as_rows():
    # R anchors at once give each anchor's own solve, bit for bit
    spec = hyperbolic_spec()
    times = time_grid(0.0, spec.T, 48)
    frac = spec.investment_fraction()
    taus = np.array([0.0, 0.25, 0.5])
    kappa = lambda s: np.array([0.8, 1.1]) + 0.2 * s
    both = solve_proportional_cost(spec, taus, lambda s: frac, kappa, times)
    assert both.shape == (len(times), len(taus), spec.m)
    for r, tau in enumerate(taus):
        one = solve_proportional_cost(spec, tau, lambda s: frac, kappa, times)
        assert np.array_equal(both[:, r], one), tau
