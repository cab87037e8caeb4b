"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Everything is oracle- or property-based at desk
scale; random draws use fixed seeds so the suite is deterministic.
"""

import json
import time

import numpy as np
import pytest

from switchctl.cli import main as cli_main
from switchctl.costs import anchored_minimizer_policy, evaluate_cost, spike_gain
from switchctl.equilibrium import compare_to_partition, solve_equilibrium
from switchctl.fields import SpatialGrid, time_grid
from switchctl.merton import (partition_phi, solve_equilibrium_ode,
                              solve_precommitted, solve_proportional_cost,
                              solve_time_consistent, equilibrium_policy,
                              monte_carlo_payoff, MertonSpec)
from switchctl.models import (affine_threshold_geometry, ansatz_dirichlet,
                              constant_rate_geometry,
                              constant_threshold_geometry, merton_model,
                              merton_spec, merton_equilibrium_boundary,
                              merton_partition_boundary,
                              tanh_threshold_geometry, toy_anchored_model,
                              uniform_mark_density)
from switchctl.partition import Partition, run_cycles
from switchctl.pde import LinearPDEProblem, solve_hjb, \
    solve_linear_parabolic, solve_representation
from switchctl.sde import ControlledDynamics, estimate_transition_rate
from switchctl.switching import rate_matrix

from pde_oracles import kernel_oracle


def report(num, name, ok, detail):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def mt_acc():
    """Shared worked-example artifacts: phi tables and the equilibrium field."""
    model = merton_model(merton_spec(True))
    times = time_grid(0.0, model.T, 160)
    grid = model.default_grid(81)
    phi = solve_equilibrium_ode(model.spec, times, tol=1e-13)
    boundary = merton_equilibrium_boundary(model, phi, grid)
    eq = solve_equilibrium(model, grid, times, boundary=boundary)
    return {"model": model, "times": times, "grid": grid, "phi": phi,
            "boundary": boundary, "eq": eq}


def test_criterion_01_transition_rate_law():
    start = time.perf_counter()
    geometry = tanh_threshold_geometry()
    levy = uniform_mark_density()
    dyn = ControlledDynamics(
        drift=lambda s, x, i, u: np.zeros_like(x),
        diffusion=lambda s, x, i, u: np.full_like(x, 0.1), m=2)
    ds, n = 1e-3, 100_000
    worst = 0.0
    for cell, (x, i, j) in enumerate(
            [(x, i, j) for x in (-1.0, 0.0, 1.0) for i, j in ((1, 2), (2, 1))]):
        q = rate_matrix(geometry, levy, x)[i - 1, j - 1]
        est = estimate_transition_rate(dyn, geometry, levy, x, i, j, ds, n,
                                       seed=1000 + cell, q_theory=q)
        se0 = np.sqrt(q * ds * (1 - q * ds) / n) / ds
        z = abs(est.rate - q) / se0
        worst = max(worst, z)
        assert not est.anomaly
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 and elapsed < 30.0
    report(1, "transition-rate law", ok,
           f"max |rate-q|/SE = {worst:.2f} (<=3), runtime {elapsed:.1f}s (<30s)")


def test_criterion_02_generator_validity():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-3, 3, 1000)
    levy = uniform_mark_density()
    worst = 0.0
    for geometry in (constant_threshold_geometry(), affine_threshold_geometry(),
                     tanh_threshold_geometry()):
        for x in xs:
            q = rate_matrix(geometry, levy, float(x))
            scale = max(np.max(np.abs(q)), 1e-300)
            worst = max(worst, float(np.max(np.abs(q.sum(axis=1)))) / scale)
            for i in (1, 2):
                assert geometry.interval(i, i, float(x)) is None
    report(2, "generator validity", worst <= 1e-12,
           f"max relative row sum {worst:.2e} (<=1e-12); Delta_ii empty at "
           f"3000 sampled states")


def test_criterion_03_verification_inequality(mt_acc):
    start = time.perf_counter()
    model, times, grid = mt_acc["model"], mt_acc["times"], mt_acc["grid"]
    spec = model.spec
    gamma = spec.gamma
    phi_pre = solve_precommitted(spec, 0.0, times)

    hjb_dirichlet = ansatz_dirichlet(grid, times, phi_pre, gamma)
    hjb = solve_hjb(model.hjb_problem(0.0, grid, dirichlet=hjb_dirichlet), times)
    interior = grid.interior_mask()
    xs = grid.x[interior]
    ansatz = -phi_pre[:, None, :] * xs[None, :, None] ** gamma
    grid_error = float(np.max(np.abs(hjb.value.values[:, interior, :] - ansatz)))

    rng = np.random.default_rng(21)
    worst_violation = -np.inf
    for _ in range(5):
        theta_p = float(rng.uniform(0.5, 4.0))
        kappa_p = float(rng.uniform(0.3, 1.5))

        def policy(s, x, i, tp=theta_p, kp=kappa_p):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            return np.stack([tp * x, kp * x], axis=1)

        phi_prop = solve_proportional_cost(
            spec, 0.0, lambda s: np.full(spec.m, theta_p),
            lambda s: np.full(spec.m, kappa_p), times)

        cost_dirichlet = ansatz_dirichlet(grid, times, phi_prop, gamma)
        cost = evaluate_cost(model, policy, 0.0, grid, times,
                             boundary=lambda tau, _d=cost_dirichlet: _d)
        gap = (hjb.value.values - cost.field.values)[:, interior, :]
        worst_violation = max(worst_violation, float(np.max(gap)))
    elapsed = time.perf_counter() - start
    ok = worst_violation <= 2 * grid_error and elapsed < 120.0
    report(3, "verification inequality", ok,
           f"max (V - J) = {worst_violation:.2e} vs 2x grid error "
           f"{2 * grid_error:.2e}, runtime {elapsed:.0f}s (<120s)")


def test_criterion_04_kernel_oracle():
    grid = SpatialGrid(-3, 3, 401)
    times = time_grid(0, 1, 400)

    def bump(x):
        x = np.asarray(x, dtype=float)
        z = (x / 1.5) ** 2
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(z < 1, np.exp(-1 / np.maximum(1 - z, 1e-300)), 0.0)

    problem = LinearPDEProblem(
        a=lambda s, x, i: np.full_like(np.asarray(x, float), 0.05),
        beta=lambda s, x, i: np.zeros_like(np.asarray(x, float)),
        grid=grid, m=1, terminal=bump(grid.x)[:, None])
    fd = solve_linear_parabolic(problem, times)
    oracle = kernel_oracle(problem, times, lambda x, i: bump(x))
    sup = fd.sup_diff(oracle, grid.interior_mask(0.1))
    report(4, "kernel oracle", sup <= 1e-3,
           f"interior sup |FD - convolution| = {sup:.2e} (<=1e-3) at "
           f"n_x=401, n_t=400")


def test_criterion_05_convergence_order():
    import sys
    sys.path.insert(0, "tests")
    from test_pde import _manufactured_error
    errs = [_manufactured_error(n, n, "dirichlet") for n in (40, 80, 160)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    report(5, "convergence order", ok,
           f"error ratios {r1:.2f}, {r2:.2f} under two (dt, dx) halvings "
           f"(window [3, 5])")


def test_criterion_06_time_consistent_collapse():
    model = toy_anchored_model(False)
    grid = model.default_grid(61)
    times = time_grid(0, 1, 80)
    sol1 = run_cycles(model, Partition.uniform(1.0, 1), grid, times)
    sol4 = run_cycles(model, Partition.uniform(1.0, 4), grid, times)
    d_part = sol1.value.sup_diff(sol4.value)
    eq = solve_equilibrium(model, grid, times)
    spread = 0.0
    for k in range(len(times)):
        col = eq.theta.values[:k + 1, k]        # anchors tau <= s, fixed s
        spread = max(spread, float(np.max(np.max(col, axis=0)
                                          - np.min(col, axis=0))))
    ok = d_part <= 1e-6 and spread <= 1e-6
    report(6, "time-consistent collapse", ok,
           f"|V(N=1) - V(N=4)| = {d_part:.2e}, max anchor-pair gap = "
           f"{spread:.2e} (both <=1e-6)")


def test_criterion_07_merton_reduction():
    times = time_grid(0, 1, 800)
    spec = merton_spec(False).__class__ and merton_spec(False)
    phi_tc = solve_time_consistent(spec, times)
    sol = solve_equilibrium_ode(spec, times, tol=1e-13)
    gap = float(np.max(np.abs(sol.eq_diag - phi_tc)))
    single = MertonSpec(b=[0.1], sigma=[0.2], gamma=0.5,
                        g=lambda tau, s: 0.0 * np.asarray(s),
                        h=lambda tau: 2.0 * np.ones_like(np.asarray(tau, float)),
                        q=np.array([[0.0]]), T=1.0)
    phi1 = solve_time_consistent(single, times)
    closed = 2.0 * np.exp(single.drift_gain()[0] * (1.0 - times))
    gap1 = float(np.max(np.abs(phi1[:, 0] - closed)))
    ok = gap <= 1e-8 and gap1 <= 1e-8
    report(7, "merton reduction", ok,
           f"|phi_eq - phi_tc| = {gap:.2e}, zero-consumption closed form "
           f"gap = {gap1:.2e} (both <=1e-8)")


def test_criterion_08_ansatz_cross_validation(mt_acc):
    model, times, grid = mt_acc["model"], mt_acc["times"], mt_acc["grid"]
    phi, eq = mt_acc["phi"], mt_acc["eq"]
    interior = grid.interior_mask()
    xs = grid.x[interior]
    gamma = model.spec.gamma
    worst = 0.0
    for tau_idx in range(0, len(times), 7):
        want = -phi.eq[tau_idx, tau_idx:, :][:, None, :] \
            * xs[None, :, None] ** gamma
        got = eq.theta.values[tau_idx, tau_idx:][:, interior, :]
        worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
    report(8, "ansatz cross-validation", worst <= 5e-3,
           f"max interior relative gap Theta/x^gamma vs phi = {worst:.2e} "
           f"(<=5e-3)")


def test_criterion_09_monte_carlo_vs_ode(mt_acc):
    start = time.perf_counter()
    model = mt_acc["model"]
    spec = model.spec
    times = time_grid(0.0, spec.T, 800)
    phi = solve_equilibrium_ode(spec, times, tol=1e-13)
    policy = equilibrium_policy(spec, phi)
    geometry = constant_rate_geometry(spec.q)
    t0, x0, i0 = 0.0, 1.0, 1
    est, se = monte_carlo_payoff(spec, policy, t0, x0, i0, n_paths=100_000,
                                 seed=424242, h_step=1e-3,
                                 geometry=geometry, levy=uniform_mark_density())
    want = phi.eq_diag[0, i0 - 1] * x0**spec.gamma
    z = abs(est - want) / se
    elapsed = time.perf_counter() - start
    ok = z <= 3.0 and elapsed < 120.0
    report(9, "Monte Carlo vs ODE value", ok,
           f"|payoff - phi x^gamma|/SE = {z:.2f} (<=3), runtime "
           f"{elapsed:.0f}s (<120s)")


def test_criterion_10_partition_convergence(mt_acc):
    model, times, grid = mt_acc["model"], mt_acc["times"], mt_acc["grid"]
    eq = mt_acc["eq"]
    dists = []
    for n in (4, 8, 16):
        part = Partition.uniform(model.T, n)
        mirror = partition_phi(model.spec, part.knots, times)
        pi = run_cycles(model, part, grid, times,
                        boundary=merton_partition_boundary(model, mirror, grid))
        dists.append(compare_to_partition(eq, pi)["sup_diff_theta"])
    r1, r2 = dists[0] / dists[1], dists[1] / dists[2]
    ok = 1.5 <= r1 <= 2.5 and 1.5 <= r2 <= 2.5
    report(10, "partition convergence", ok,
           f"|Theta^Pi - Theta| = {[f'{d:.3e}' for d in dists]}, halving "
           f"ratios {r1:.2f}, {r2:.2f} (window [1.5, 2.5])")


def test_criterion_11_approximate_local_optimality(mt_acc):
    model, eq, boundary = mt_acc["model"], mt_acc["eq"], mt_acc["boundary"]
    t0 = 0.25
    epsilons = [0.1, 0.05, 0.025]
    policy = anchored_minimizer_policy(model, eq, t0)
    mins = []
    for eps in epsilons:
        out = spike_gain(model, eq, t0, eps, policy, boundary=boundary)
        mins.append(out.min_gain)
    mins = np.asarray(mins)
    eps_arr = np.asarray(epsilons)
    # fitted C: the slopes of the linear min-gain law over adjacent epsilons
    cs = [-(mins[k] - mins[k + 1]) / (eps_arr[k] - eps_arr[k + 1])
          for k in range(len(epsilons) - 1)]
    c_max = max(cs)
    stable = max(cs) / min(cs) <= 2.0
    floor_ok = bool(np.all(mins >= -c_max * eps_arr - 1e-12))
    slope, intercept = np.polyfit(eps_arr, mins, 1)
    # constant proportional spikes cannot do better than the floor either
    for theta_p, kappa_p in ((2.0, 0.5), (5.0, 1.0)):
        def pert(s, x, i, tp=theta_p, kp=kappa_p):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            return np.stack([tp * x, kp * x], axis=1)
        for eps in epsilons:
            g = spike_gain(model, eq, t0, eps, pert, boundary=boundary)
            floor_ok = floor_ok and g.min_gain >= -c_max * eps - 1e-12
    ok = stable and floor_ok and intercept >= -1e-3
    report(11, "approximate local optimality", ok,
           f"min gains {[f'{v:+.2e}' for v in mins]}, fitted C "
           f"{[f'{c:.3e}' for c in cs]} (stability {max(cs) / min(cs):.2f} "
           f"<=2), intercept {intercept:+.2e} (>=-1e-3)")


def test_criterion_12_reproducibility(tmp_path):
    cfg = tmp_path / "repro.ini"
    cfg.write_text("""
[model]
geometry = tanh
drift = 0.1*x
sigma = 0.2
x0 = 0.5
i0 = 1
[grid]
t_max = 2.0
[solver]
h = 0.05
n_paths = 2000
ds = 0.001
[run]
seed = 37
""")
    digests = []
    for sub in ("simulate", "rates"):
        pair = []
        for run in ("a", "b"):
            out = tmp_path / f"{sub}_{run}"
            assert cli_main([sub, str(cfg), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            blob = {a["name"]: (out / a["name"]).read_bytes()
                    for a in manifest["artifacts"]}
            blob["manifest.json"] = (out / "manifest.json").read_bytes()
            pair.append(blob)
        digests.append(pair[0] == pair[1])
    ok = all(digests)
    report(12, "reproducibility", ok,
           "two consecutive runs produced byte-identical artifacts for "
           "simulate and rates")
