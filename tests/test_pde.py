from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from switchctl.errors import ConfigError, DomainError, NumericError
from switchctl.fields import SpatialGrid, time_grid
from switchctl.pde import (ControlSet, HJBProblem, LinearPDEProblem,
                           controls_on_grid, solve_hjb, solve_linear_parabolic,
                           solve_representation, solve_rows_batch)
from switchctl.sde import ControlledDynamics

from pde_oracles import (apply_generator, gaussian, heat_constants,
                         kernel_oracle, quadrature)


def const(val):
    return lambda s, x, i: np.full_like(np.asarray(x, dtype=float), val)


def q_const(grid, q):
    return np.tile(np.asarray(q, dtype=float), (grid.n_x, 1, 1))


def smooth_bump(x, half_width=1.5):
    x = np.asarray(x, dtype=float)
    z = (x / half_width) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(z < 1.0, np.exp(-1.0 / np.maximum(1.0 - z, 1e-300)), 0.0)
    return out


# ---- solve_linear_parabolic ------------------------------------------------

def test_constants_are_exact_solutions():
    grid = SpatialGrid(-1, 1, 21)
    times = time_grid(0, 1, 20)
    problem = LinearPDEProblem(a=const(0.01), beta=const(0.0), grid=grid, m=2,
                               q_table=q_const(grid, [[-0.2, 0.2], [0.3, -0.3]]),
                               terminal=np.full((21, 2), 3.5))
    fld = solve_linear_parabolic(problem, times)
    assert np.allclose(fld.values, 3.5, atol=1e-13)


def test_x_independent_matches_matrix_exponential():
    grid = SpatialGrid(-1, 1, 31)
    times = time_grid(0, 1, 200)
    q = np.array([[-0.2, 0.2], [0.35, -0.35]])
    h = np.array([1.0, -0.5])
    problem = LinearPDEProblem(a=const(1e-6), beta=const(0.0), grid=grid, m=2,
                               q_table=q_const(grid, q),
                               terminal=np.tile(h, (31, 1)))
    fld = solve_linear_parabolic(problem, times)
    for k, s in enumerate(times):
        want = expm(q * (1.0 - s)) @ h
        assert np.max(np.abs(fld.values[k] - want[None, :])) <= 1e-6


def test_fd_matches_kernel_oracle():
    grid = SpatialGrid(-3, 3, 201)
    times = time_grid(0, 1, 200)
    problem = LinearPDEProblem(
        a=const(0.05), beta=const(0.0), grid=grid, m=1,
        terminal=smooth_bump(grid.x)[:, None])
    fd = solve_linear_parabolic(problem, times)
    oracle = kernel_oracle(problem, times, lambda x, i: smooth_bump(x))
    interior = grid.interior_mask(0.1)
    assert fd.sup_diff(oracle, interior) <= 1e-3


def manufactured_problem(grid, with_dirichlet=False):
    """V*(s,x,i) = exp(-s) (1 + x^2), matching source, nonzero Q."""
    a0, b0 = 0.3, 0.1
    q = np.array([[-0.3, 0.3], [0.2, -0.2]])

    def v_star(s, x):
        return np.exp(-s) * (1.0 + np.asarray(x) ** 2)

    def source(s, x, i, v_i, vx_i, qv_i):
        # -V*_s - a V*_xx - b V*_x; [Q V*]_i vanishes (equal across regimes)
        return np.exp(-s) * (1.0 + x**2) - a0 * 2 * np.exp(-s) - b0 * 2 * x * np.exp(-s)

    dirichlet = None
    if with_dirichlet:
        def dirichlet(times):
            edges = v_star(np.asarray(times)[:, None], [grid.x_min, grid.x_max])
            return np.repeat(edges[:, None], 2, axis=1)
    problem = LinearPDEProblem(
        a=const(a0), beta=const(b0), grid=grid, m=2,
        q_table=q_const(grid, q),
        source=source,
        terminal=np.stack([v_star(1.0, grid.x)] * 2, axis=1),
        dirichlet=dirichlet)
    return problem, v_star


def _manufactured_error(n_x, n_t, bc):
    grid = SpatialGrid(-1, 1, n_x, bc=bc)
    times = time_grid(0, 1, n_t)
    problem, v_star = manufactured_problem(grid, with_dirichlet=(bc == "dirichlet"))
    fld = solve_linear_parabolic(problem, times)
    want = np.stack([np.stack([v_star(s, grid.x)] * 2, axis=1) for s in times])
    interior = grid.interior_mask(0.1)
    return float(np.max(np.abs(fld.values - want)[:, interior, :]))


def test_manufactured_convergence_order():
    # MMS needs boundary data consistent with V*: the extrapolation
    # closure is a different continuous boundary condition (zero edge
    # curvature), which a global quadratic violates at O(1).
    errs = [_manufactured_error(n, n, "dirichlet") for n in (40, 80, 160)]
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 3.0 <= r1 <= 5.0, (errs, r1, r2)
    assert 3.0 <= r2 <= 5.0, (errs, r1, r2)


def test_residual_reproduces_source():
    grid = SpatialGrid(-1, 1, 81)
    times = time_grid(0, 1, 80)
    problem, _ = manufactured_problem(grid)
    fld = solve_linear_parabolic(problem, times)
    dyn = ControlledDynamics(
        drift=lambda s, x, i, u: np.full_like(x, 0.1),
        diffusion=lambda s, x, i, u: np.full_like(x, np.sqrt(2 * 0.3)),
        m=2)
    dt = times[1] - times[0]
    worst = 0.0
    for k in range(1, len(times) - 1, 7):
        for j in range(8, grid.n_x - 8, 9):
            for i in (1, 2):
                v_s = (fld.values[k + 1, j, i - 1] - fld.values[k - 1, j, i - 1]) / (2 * dt)
                gen = apply_generator(fld, k, j, i, (0.0,), dyn, problem.q_table)
                g = problem.source(times[k], grid.x[j], i,
                                   fld.values[k, j, i - 1], 0.0, 0.0)
                worst = max(worst, abs(v_s + gen + g))
    assert worst <= 5e-3  # O(dt + dx^2) at this resolution


def test_stability_bound_enforced():
    grid = SpatialGrid(-1, 1, 11)
    times = time_grid(0, 1, 2)  # dt = 0.5
    problem = LinearPDEProblem(a=const(0.01), beta=const(0.0), grid=grid, m=2,
                               q_table=q_const(grid, [[-3.0, 3.0], [3.0, -3.0]]),
                               terminal=np.zeros((11, 2)))
    with pytest.raises(ConfigError, match="dt"):
        solve_linear_parabolic(problem, times)


# ---- apply_generator -------------------------------------------------------

def field_from(grid, times, fn, m=2):
    from switchctl.fields import ValueField
    vals = np.stack([np.stack([fn(s, grid.x, i) for i in range(1, m + 1)], axis=1)
                     for s in times])
    return ValueField(times, grid, vals)


def test_generator_linear_field():
    grid = SpatialGrid(-1, 1, 21)
    times = time_grid(0, 1, 4)
    fld = field_from(grid, times, lambda s, x, i: x)
    dyn = ControlledDynamics(
        drift=lambda s, x, i, u: np.full_like(x, 2.0),
        diffusion=lambda s, x, i, u: np.full_like(x, 0.7),
        m=2)
    out = apply_generator(fld, 0, 10, 1, (0.0,), dyn, None)
    assert out == pytest.approx(2.0, abs=1e-12)


def test_generator_quadratic_field():
    grid = SpatialGrid(-1, 1, 41)
    times = time_grid(0, 1, 4)
    fld = field_from(grid, times, lambda s, x, i: x**2)
    dyn = ControlledDynamics(
        drift=lambda s, x, i, u: np.zeros_like(x),
        diffusion=lambda s, x, i, u: np.full_like(x, 1.0),
        m=2)
    for j in (1, 10, 20, 39):
        assert apply_generator(fld, 0, j, 1, (0.0,), dyn, None) == pytest.approx(1.0, abs=1e-9)


def test_generator_regime_constants():
    grid = SpatialGrid(-1, 1, 21)
    times = time_grid(0, 1, 4)
    fld = field_from(grid, times, lambda s, x, i: np.full_like(x, float(i)))
    q = np.array([[-0.4, 0.4], [0.1, -0.1]])
    dyn = ControlledDynamics(
        drift=lambda s, x, i, u: np.zeros_like(x),
        diffusion=lambda s, x, i, u: np.zeros_like(x),
        m=2)
    out = apply_generator(fld, 0, 5, 1, (0.0,), dyn, q_const(grid, q))
    assert out == pytest.approx(q[0] @ np.array([1.0, 2.0]), abs=1e-12)


def test_generator_boundary_rejected():
    grid = SpatialGrid(-1, 1, 21)
    times = time_grid(0, 1, 4)
    fld = field_from(grid, times, lambda s, x, i: x)
    dyn = ControlledDynamics(
        drift=lambda s, x, i, u: np.zeros_like(x),
        diffusion=lambda s, x, i, u: np.zeros_like(x), m=2)
    with pytest.raises(DomainError):
        apply_generator(fld, 0, 0, 1, (0.0,), dyn, None)


# ---- kernel oracle ---------------------------------------------------------

def test_kernel_oracle_gaussian_closed_form():
    grid = SpatialGrid(-4, 4, 161)
    times = time_grid(0, 0.5, 50)
    problem = LinearPDEProblem(
        a=const(0.5), beta=const(0.0), grid=grid, m=1,
        terminal=np.exp(-grid.x**2 / 2)[:, None])
    oracle = kernel_oracle(problem, times,
                           lambda x, i: np.exp(-np.asarray(x)**2 / 2))
    for k, s in enumerate(times):
        v = 2 * 0.5 * (0.5 - s)
        want = np.exp(-grid.x**2 / (2 * (1 + v))) / np.sqrt(1 + v)
        assert np.max(np.abs(oracle.values[k, :, 0] - want)) <= 1e-6


def test_kernel_oracle_fft_equals_dense_quadrature():
    # the dense form: one Gaussian row per node over every quadrature node
    grid = SpatialGrid(-4, 4, 161)
    times = time_grid(0, 0.5, 50)
    problem = LinearPDEProblem(
        a=const(0.5), beta=const(0.0), grid=grid, m=1,
        terminal=np.exp(-grid.x**2 / 2)[:, None])
    h = lambda x, i: np.exp(-np.asarray(x)**2 / 2)
    oracle = kernel_oracle(problem, times, h)
    (a_i,) = heat_constants(problem, times)
    y, w = quadrature(grid, a_i, times[-1] - times[0])
    for k, s in enumerate(times[:-1]):
        kernel = gaussian(grid.x[:, None] - y[None, :], 2 * a_i * (times[-1] - s))
        dense = kernel @ (h(y, 1) * w)
        assert np.max(np.abs(oracle.values[k, :, 0] - dense)) <= 1e-12


def test_kernel_oracle_terminal_limit_and_symmetry():
    grid = SpatialGrid(-2, 2, 81)
    times = time_grid(0, 0.3, 30)
    problem = LinearPDEProblem(
        a=const(0.1), beta=const(0.0), grid=grid, m=1,
        terminal=smooth_bump(grid.x, 1.0)[:, None])
    oracle = kernel_oracle(problem, times, lambda x, i: smooth_bump(x, 1.0))
    assert np.allclose(oracle.values[-1, :, 0], smooth_bump(grid.x, 1.0), atol=1e-12)
    assert np.allclose(oracle.values[0, :, 0], oracle.values[0, ::-1, 0], atol=1e-12)


def test_kernel_oracle_rejects_nonconstant():
    grid = SpatialGrid(-2, 2, 41)
    times = time_grid(0, 0.3, 10)
    problem = LinearPDEProblem(
        a=lambda s, x, i: 0.1 + 0.01 * x**2, beta=const(0.0), grid=grid, m=1,
        terminal=np.zeros((41, 1)))
    with pytest.raises(ConfigError, match="constant"):
        kernel_oracle(problem, times, lambda x, i: 0 * np.asarray(x))


# ---- solve_hjb -------------------------------------------------------------

def toy_hjb(grid, u_set, anchor=0.0):
    """dX = u ds + 0.4 dW, running cost u^2 + x^2, terminal x^2."""
    return HJBProblem(
        b=lambda s, x, i, u: u[:, 0],
        sigma=lambda s, x, i, u: np.full_like(x, 0.4),
        g=lambda tau, s, x, i, y, z, qv, u: u[:, 0] ** 2 + x**2,
        anchor=anchor,
        control_set=u_set,
        grid=grid, m=2,
        q_table=q_const(grid, [[-0.2, 0.2], [0.2, -0.2]]),
        terminal=np.stack([grid.x**2, grid.x**2], axis=1))


def test_hjb_singleton_equals_linear():
    grid = SpatialGrid(-2, 2, 81)
    times = time_grid(0, 1, 80)
    u0 = 0.25
    problem = toy_hjb(grid, ControlSet(values=np.array([u0])))
    sol = solve_hjb(problem, times)
    linear = LinearPDEProblem(
        a=const(0.5 * 0.4**2), beta=const(u0), grid=grid, m=2,
        q_table=problem.q_table,
        source=lambda s, x, i, v_i, vx_i, qv_i: u0**2 + x**2,
        terminal=problem.terminal)
    fld = solve_linear_parabolic(linear, times)
    assert sol.value.sup_diff(fld) <= 1e-12
    assert np.all(sol.strategy.values == u0)


def test_hjb_value_dominated_by_any_fixed_control():
    grid = SpatialGrid(-2, 2, 81)
    times = time_grid(0, 1, 80)
    problem = toy_hjb(grid, ControlSet(lo=-1.0, hi=1.0))
    sol = solve_hjb(problem, times)
    interior = grid.interior_mask(0.1)
    for u0 in (-0.6, 0.0, 0.8):
        linear = LinearPDEProblem(
            a=const(0.5 * 0.4**2), beta=const(u0), grid=grid, m=2,
            q_table=problem.q_table,
            source=lambda s, x, i, v_i, vx_i, qv_i: u0**2 + x**2,
            terminal=problem.terminal)
        fld = solve_linear_parabolic(linear, times)
        gap = (sol.value.values - fld.values)[:, interior, :]
        assert np.max(gap) <= 1e-3  # V <= J up to grid error


def test_hjb_comparison_principle():
    grid = SpatialGrid(-2, 2, 61)
    times = time_grid(0, 1, 60)
    p1 = toy_hjb(grid, ControlSet(lo=-1.0, hi=1.0))
    p2 = toy_hjb(grid, ControlSet(lo=-1.0, hi=1.0))
    p2.terminal = p1.terminal + 0.5
    v1 = solve_hjb(p1, times).value
    v2 = solve_hjb(p2, times).value
    assert np.all(v1.values <= v2.values + 1e-8)


def test_hjb_strategy_recomputable_from_field():
    grid = SpatialGrid(-2, 2, 41)
    times = time_grid(0, 1, 40)
    problem = toy_hjb(grid, ControlSet(lo=-1.0, hi=1.0))
    sol = solve_hjb(problem, times)
    for k in (0, 17, 40):
        again = controls_on_grid(problem, times[k], sol.value.values[k])
        assert np.array_equal(again, sol.strategy.values[k])


def test_hjb_quadratic_has_interior_minimum():
    # analytic check at one node: argmin over u of p*u + u^2 is -p/2
    grid = SpatialGrid(-2, 2, 41)
    times = time_grid(0, 1, 40)
    problem = toy_hjb(grid, ControlSet(lo=-1.0, hi=1.0))
    sol = solve_hjb(problem, times)
    from switchctl.fields import d1
    k = 20
    p = d1(sol.value.values[k], grid.dx, axis=0)
    want = np.clip(-p / 2, -1, 1)
    got = sol.strategy.values[k, :, :, 0]
    # grid search has resolution 2/256
    assert np.max(np.abs(got - want)) <= 2.0 / 256 + 1e-9


def test_truncation_warning_on_unbounded_argmin():
    grid = SpatialGrid(-1, 1, 21)
    times = time_grid(0, 0.1, 4)
    problem = HJBProblem(
        b=lambda s, x, i, u: u[:, 0],
        sigma=lambda s, x, i, u: np.full_like(x, 0.3),
        g=lambda tau, s, x, i, y, z, qv, u: -u[:, 0],  # minimum escapes to +inf
        anchor=0.0,
        control_set=ControlSet(lo=-np.inf, hi=np.inf, clamp=(-2.0, 2.0)),
        grid=grid, m=1,
        terminal=np.zeros((21, 1)))
    with pytest.warns(Warning, match="clamp"):
        solve_hjb(problem, times)


# ---- vectorized grid search against the per-control loop --------------------

def reference_controls(problem, s, v_all):
    """The grid search one control value at a time: a Hamiltonian call per
    control, smallest control on ties."""
    from switchctl.fields import d1, d2
    grid = problem.grid
    x = grid.x
    p_all = d1(v_all, grid.dx, axis=0)
    pp_all = d2(v_all, grid.dx, axis=0)
    qv = np.zeros_like(v_all) if problem.q_table is None else \
        np.einsum("xij,xj->xi", problem.q_table, v_all)
    grid_u, _ = problem.control_set.search_grid()
    out = np.empty((grid.n_x, problem.m, 1))
    for i in range(problem.m):
        lab = i + 1
        p, pp = p_all[:, i], pp_all[:, i]
        ham = np.empty((len(grid_u), grid.n_x))
        for k, u_val in enumerate(grid_u):
            u_arr = np.full((grid.n_x, 1), u_val)
            bi = np.broadcast_to(problem.b(s, x, lab, u_arr), x.shape)
            sgi = np.broadcast_to(problem.sigma(s, x, lab, u_arr), x.shape)
            ham[k] = (p * bi + 0.5 * sgi**2 * pp + qv[:, i]
                      + problem.g(problem.anchor, s, x, lab, v_all[:, i],
                                  p * sgi, qv[:, i], u_arr))
        out[:, i, 0] = grid_u[np.argmin(ham, axis=0)]
    return out


def test_grid_search_matches_per_control_loop_along_solve():
    grid = SpatialGrid(-2, 2, 41)
    times = time_grid(0, 1, 40)
    problem = toy_hjb(grid, ControlSet(lo=-1.0, hi=1.0))
    sol = solve_hjb(problem, times)
    for k in (0, 5, 17, 31, 39, 40):
        v = sol.value.values[k]
        want = reference_controls(problem, times[k], v)
        assert np.array_equal(controls_on_grid(problem, times[k], v), want)
        assert np.array_equal(sol.strategy.values[k], want)


def test_grid_search_flat_hamiltonian_picks_smallest_control():
    grid = SpatialGrid(-1, 1, 21)
    problem = HJBProblem(
        b=lambda s, x, i, u: 0.0 * u[:, 0],
        sigma=lambda s, x, i, u: np.full_like(x, 0.3),
        g=lambda tau, s, x, i, y, z, qv, u: x**2 + 0.0 * u[:, 0],
        anchor=0.0, control_set=ControlSet(lo=-0.5, hi=2.0, n_grid=33),
        grid=grid, m=2, q_table=q_const(grid, [[-0.2, 0.2], [0.2, -0.2]]))
    v = np.random.default_rng(3).normal(size=(21, 2))
    got = controls_on_grid(problem, 0.4, v)
    assert np.array_equal(got, reference_controls(problem, 0.4, v))
    assert np.all(got == -0.5)


def test_grid_search_unsorted_finite_set():
    grid = SpatialGrid(-2, 2, 31)
    times = time_grid(0, 1, 30)
    values = np.array([0.5, -1.0, 0.0, 1.0, -0.25, 0.75])
    problem = HJBProblem(
        b=lambda s, x, i, u: u[:, 0] * (1.0 + 0.2 * i * np.tanh(x)),
        sigma=lambda s, x, i, u: 0.3 + 0.1 * u[:, 0] ** 2 + 0.05 * x**2,
        g=lambda tau, s, x, i, y, z, qv, u: (u[:, 0] ** 2 + x**2
                                             + 0.1 * z * u[:, 0]),
        anchor=0.0, control_set=ControlSet(values=values),
        grid=grid, m=2, q_table=q_const(grid, [[-0.2, 0.2], [0.3, -0.3]]),
        terminal=np.stack([grid.x**2, 0.5 * grid.x**2], axis=1))
    sol = solve_hjb(problem, times)
    for k in (0, 12, 29, 30):
        v = sol.value.values[k]
        got = controls_on_grid(problem, times[k], v)
        assert np.array_equal(got, reference_controls(problem, times[k], v))
        assert set(np.unique(got)) <= set(values)


def test_grid_search_single_regime_clamp_warns():
    from switchctl.pde import TruncationWarning
    grid = SpatialGrid(-1, 1, 21)
    problem = HJBProblem(
        b=lambda s, x, i, u: u[:, 0],
        sigma=lambda s, x, i, u: np.full_like(x, 0.3),
        g=lambda tau, s, x, i, y, z, qv, u: -u[:, 0],
        anchor=0.0,
        control_set=ControlSet(lo=-np.inf, hi=np.inf, clamp=(-2.0, 2.0)),
        grid=grid, m=1)
    v = (0.3 * grid.x**2)[:, None]
    with pytest.warns(TruncationWarning, match="clamp"):
        got = controls_on_grid(problem, 0.0, v)
    assert np.array_equal(got, reference_controls(problem, 0.0, v))
    assert got.shape == (21, 1, 1)


def test_grid_search_rejects_non_pointwise_callable():
    grid = SpatialGrid(-1, 1, 21)
    problem = toy_hjb(grid, ControlSet(lo=-1.0, hi=1.0))
    problem.b = lambda s, x, i, u: np.zeros(21)   # ignores the stack length
    with pytest.raises(ConfigError, match=r"callable b returned shape \(21,\)") \
            as err:
        controls_on_grid(problem, 0.0, np.zeros((21, 2)))
    assert err.value.exit_code == 2


def test_grid_search_alternating_problems_keep_their_own_stacks():
    # two grids and two control sets in turn: a search never reads the
    # stacks of the other problem
    rng = np.random.default_rng(11)
    problems = [toy_hjb(SpatialGrid(-2, 2, 41), ControlSet(lo=-1.0, hi=1.0)),
                toy_hjb(SpatialGrid(-1, 3, 23), ControlSet(lo=-0.5, hi=2.0,
                                                           n_grid=65))]
    for k in range(6):
        problem = problems[k % 2]
        v = rng.normal(size=(problem.grid.n_x, 2))
        got = controls_on_grid(problem, 0.1 * k, v)
        assert got.shape == (problem.grid.n_x, 2, 1)
        assert np.array_equal(got, reference_controls(problem, 0.1 * k, v))


def test_grid_search_scalar_b_and_sigma():
    grid = SpatialGrid(-1, 1, 21)
    problem = HJBProblem(
        b=lambda s, x, i, u: 0.3,
        sigma=lambda s, x, i, u: 0.2 * i,
        g=lambda tau, s, x, i, y, z, qv, u: (u[:, 0] - 0.1 * y) ** 2 + z * u[:, 0],
        anchor=0.0, control_set=ControlSet(lo=-1.0, hi=1.0, n_grid=41),
        grid=grid, m=2, q_table=q_const(grid, [[-0.2, 0.2], [0.3, -0.3]]))
    v = np.random.default_rng(5).normal(size=(21, 2))
    got = controls_on_grid(problem, 0.4, v)
    assert np.array_equal(got, reference_controls(problem, 0.4, v))
    assert len(np.unique(got)) > 2


def test_grid_search_builds_its_stacks_once_per_march(monkeypatch):
    from switchctl import equilibrium, pde
    from switchctl.models import toy_anchored_model

    class Builds(dict):
        """The grid search's memo, counting the stacks stored in it."""
        count = 0

        def __setitem__(self, key, stacks):
            Builds.count += 1
            super().__setitem__(key, stacks)

    calls = []
    minimizer = equilibrium.controls_on_grid
    monkeypatch.setattr(pde, "_SEARCH_STACKS", Builds())
    monkeypatch.setattr(equilibrium, "controls_on_grid",
                        lambda *a: calls.append(1) or minimizer(*a))
    model = toy_anchored_model(True)
    equilibrium.solve_equilibrium(model, model.default_grid(41),
                                  time_grid(0, 1, 48))
    assert len(calls) == 49
    assert Builds.count == 1


def test_three_node_grid_is_a_config_error():
    # the minimizer's second derivative reads four nodes at each edge
    grid = SpatialGrid(-1, 1, 3)
    problem = toy_hjb(grid, ControlSet(lo=-1.0, hi=1.0))
    calls = [lambda: controls_on_grid(problem, 0.0, np.zeros((3, 2))),
             lambda: solve_hjb(problem, time_grid(0, 1, 4))]
    for call in calls:
        with pytest.raises(ConfigError, match="reads four nodes") as err:
            call()
        assert err.value.exit_code == 2


def test_grid_search_needs_psi_for_several_controls():
    grid = SpatialGrid(-1, 1, 21)
    problem = toy_hjb(grid, ControlSet(lo=-1.0, hi=1.0))
    problem.control_dim = 2
    problem.g = lambda tau, s, x, i, y, z, qv, u: u[:, 0] ** 2 + u[:, 1] ** 2
    with pytest.raises(ConfigError, match="control_dim is 2.*psi") as err:
        controls_on_grid(problem, 0.0, np.zeros((21, 2)))
    assert err.value.exit_code == 2


def test_hamiltonian_stack_equals_written_out_sum():
    from switchctl.pde import _hamiltonian
    grid = SpatialGrid(-2, 2, 41)
    problem = toy_hjb(grid, ControlSet(lo=-1.0, hi=1.0))
    problem.sigma = lambda s, x, i, u: 0.2 + 0.3 * u[:, 0] ** 2 + 0.1 * x
    rng = np.random.default_rng(7)
    n = 5 * grid.n_x
    x = np.tile(grid.x, 5)
    y, p, pp, qv = rng.normal(size=(4, n))
    u = rng.uniform(-1, 1, size=(n, 1))
    b = problem.b(0.3, x, 2, u)
    sg = problem.sigma(0.3, x, 2, u)
    want = (0.5 * sg**2 * pp + b * p + qv
            + problem.g(0.1, 0.3, x, 2, y, p * sg, qv, u))
    got = _hamiltonian(problem, 0.1, 0.3, x, 2, y, p, pp, qv, u)
    assert np.array_equal(got, want)


# ---- solve_rows_batch ------------------------------------------------------

def anchored_hjb(grid):
    """Toy HJB whose running cost depends on the anchor through exp(tau - s)."""
    return HJBProblem(
        b=lambda s, x, i, u: u[:, 0] + 0.1 * i * x,
        sigma=lambda s, x, i, u: 0.3 + 0.1 * np.tanh(x) + 0.05 * s,
        g=lambda tau, s, x, i, y, z, qv, u: (u[:, 0] ** 2 + np.exp(tau - s) * x**2
                                             + 0.1 * z * u[:, 0] - 0.05 * y),
        anchor=0.0, control_set=ControlSet(lo=-1.0, hi=1.0, n_grid=33),
        grid=grid, m=2, q_table=q_const(grid, [[-0.2, 0.2], [0.3, -0.3]]),
        terminal=np.stack([grid.x**2, 0.5 * grid.x**2], axis=1))


def row_dirichlet(tau):
    def dirichlet(times):
        s, i = np.asarray(times)[:, None], np.arange(1, 3)
        return np.stack([np.exp(tau - s) + i, 2.0 * i - tau * s], axis=-1)
    return dirichlet


@pytest.mark.parametrize("bc", ["dirichlet", ("dirichlet", "extrapolate"),
                                "extrapolate"])
def test_rows_batch_rows_equal_representation(bc):
    grid = SpatialGrid(-2, 2, 41, bc=bc)
    times = time_grid(0, 1, 24)
    problem = anchored_hjb(grid)
    problem.dirichlet = row_dirichlet(0.0) if "dirichlet" in grid.bc else None
    strategy = solve_hjb(problem, times).strategy
    active_from = np.array([0, 5, 11, 17, 23])
    anchors = times[active_from]
    terminals = np.stack([np.stack([(1 + tau) * grid.x**2,
                                    np.cos(grid.x) + tau], axis=1)
                          for tau in anchors])
    fns = [row_dirichlet(tau) for tau in anchors] \
        if "dirichlet" in grid.bc else None
    batch = np.full((len(anchors), len(times), 2, grid.n_x), np.nan)
    batch[:, -1] = terminals.swapaxes(1, 2)
    solve_rows_batch(problem, times, strategy.node_values, anchors, batch,
                     fns, active_from=active_from)
    assert batch.shape == (len(anchors), len(times), 2, grid.n_x)
    for r, (tau, k0) in enumerate(zip(anchors, active_from)):
        row = replace(problem, anchor=tau, terminal=terminals[r],
                      dirichlet=fns[r] if fns else None)
        want = solve_representation(row, times[k0:], strategy).values
        assert np.array_equal(batch[r, k0:].swapaxes(1, 2), want)
        assert np.all(np.isnan(batch[r, :k0]))


def test_rows_batch_steps_scattered_rows_as_gathers():
    # rows whose active sets are not consecutive are gathered and
    # scattered by index, not sliced; each still equals its own solve
    grid = SpatialGrid(-2, 2, 41)
    times = time_grid(0, 1, 24)
    problem = anchored_hjb(grid)
    strategy = solve_hjb(problem, times).strategy
    active_from = np.array([11, 0, 17, 0, 5])
    anchors = times[active_from]
    terminals = np.stack([np.stack([(1 + tau) * grid.x**2,
                                    np.cos(grid.x) + tau], axis=1)
                          for tau in anchors])
    batch = np.full((len(anchors), len(times), 2, grid.n_x), np.nan)
    batch[:, -1] = terminals.swapaxes(1, 2)
    solve_rows_batch(problem, times, strategy.node_values, anchors, batch,
                     active_from=active_from)
    for r, (tau, k0) in enumerate(zip(anchors, active_from)):
        row = replace(problem, anchor=tau, terminal=terminals[r])
        want = solve_representation(row, times[k0:], strategy).values
        assert np.array_equal(batch[r, k0:].swapaxes(1, 2), want)


def test_rows_batch_linear_rows_equal_their_own_solves():
    # a value-dependent source is read row by row
    grid = SpatialGrid(-1, 1, 41, bc="dirichlet")
    times = time_grid(0, 1, 24)
    problem, _ = manufactured_problem(grid, with_dirichlet=True)
    problem.source = lambda s, x, i, v, vx, qv: np.sin(v + x) * i - 0.2 * vx
    terminals = [problem.terminal, np.stack([np.cos(grid.x)] * 2, axis=1)]
    rows = np.empty((2, len(times), 2, grid.n_x))
    rows[:, -1] = np.swapaxes(terminals, 1, 2)
    solve_rows_batch(problem, times, lambda k: None, [0.0, 0.0], rows,
                     [problem.dirichlet] * 2)
    for r, terminal in enumerate(terminals):
        want = solve_linear_parabolic(replace(problem, terminal=terminal),
                                      times).values
        assert np.array_equal(rows[r].swapaxes(1, 2), want)


def test_rows_batch_refuses_a_buffer_of_another_layout():
    grid = SpatialGrid(-2, 2, 21)
    times = time_grid(0, 1, 8)
    problem = anchored_hjb(grid)
    controls = lambda k: np.zeros((grid.n_x, 2, 1))
    for shape in ((2, len(times), grid.n_x, 2), (3, len(times), 2, grid.n_x)):
        rows = np.zeros(shape)
        with pytest.raises(ConfigError, match="level buffer of shape") as err:
            solve_rows_batch(problem, times, controls, [0.0, 0.5], rows)
        assert err.value.exit_code == 2


def counting(fn):
    def wrapped(times):
        wrapped.calls += 1
        return fn(times)
    wrapped.calls = 0
    return wrapped


def test_dirichlet_data_read_once_per_row_and_solve():
    grid = SpatialGrid(-2, 2, 21, bc="dirichlet")
    times = time_grid(0, 1, 12)
    problem = anchored_hjb(grid)
    problem.dirichlet = counting(row_dirichlet(0.0))
    sol = solve_hjb(problem, times)
    assert problem.dirichlet.calls == 1

    linear = LinearPDEProblem(a=const(0.05), beta=const(0.1), grid=grid, m=2,
                              terminal=problem.terminal,
                              dirichlet=counting(row_dirichlet(0.0)))
    solve_linear_parabolic(linear, times)
    assert linear.dirichlet.calls == 1

    active_from = np.array([0, 3, 7])
    fns = [counting(row_dirichlet(tau)) for tau in times[active_from]]
    rows = np.empty((3, len(times), 2, grid.n_x))
    rows[:, -1] = problem.terminal.T
    solve_rows_batch(problem, times, sol.strategy.node_values,
                     times[active_from], rows, fns, active_from=active_from)
    assert [fn.calls for fn in fns] == [1, 1, 1]


def test_dirichlet_table_of_wrong_shape_rejected():
    grid = SpatialGrid(-2, 2, 21, bc="dirichlet")
    times = time_grid(0, 1, 8)
    problem = anchored_hjb(grid)
    linear = LinearPDEProblem(a=const(0.05), beta=const(0.0), grid=grid, m=2,
                              terminal=problem.terminal,
                              dirichlet=lambda t: row_dirichlet(0.0)(t)[:, 0])
    rows = np.empty((2, len(times), 2, grid.n_x))
    rows[:, -1] = problem.terminal.T
    short = lambda t: row_dirichlet(0.5)(t[1:])
    calls = [lambda: solve_linear_parabolic(linear, times),
             lambda: solve_rows_batch(problem, times,
                                      lambda k: np.zeros((grid.n_x, 2, 1)),
                                      [0.0, 0.5], rows,
                                      [row_dirichlet(0.0), short])]
    for call in calls:
        with pytest.raises(ConfigError, match="dirichlet returned shape") as err:
            call()
        assert err.value.exit_code == 2


def test_dirichlet_edge_without_data_rejected():
    grid = SpatialGrid(-2, 2, 21, bc=("extrapolate", "dirichlet"))
    times = time_grid(0, 1, 8)
    problem = anchored_hjb(grid)
    linear = LinearPDEProblem(a=const(0.05), beta=const(0.0), grid=grid, m=2,
                              terminal=problem.terminal)
    def controls(k):
        return np.zeros((grid.n_x, 2, 1))

    rows = np.empty((1, len(times), 2, grid.n_x))
    rows[:, -1] = problem.terminal.T
    calls = [lambda: solve_linear_parabolic(linear, times),
             lambda: solve_hjb(problem, times),
             lambda: solve_rows_batch(problem, times, controls, [0.0], rows)]
    for call in calls:
        with pytest.raises(ConfigError, match="dirichlet boundary requires data"):
            call()


def test_representation_reads_every_policy_form():
    # a constant is the matching callable bit for bit, a FeedbackStrategy
    # off its nodes is called like any callable, and a constant of the
    # wrong size is a ConfigError
    grid = SpatialGrid(-2, 2, 41)
    times = time_grid(0, 1, 16)
    problem = toy_hjb(grid, ControlSet(lo=-1.0, hi=1.0))
    want = solve_representation(problem, times,
                                lambda s, x, i: np.full(len(x), 0.25)).values
    for policy in (0.25, (0.25,), np.array([0.25])):
        got = solve_representation(problem, times, policy).values
        assert np.array_equal(got, want)
    strategy = solve_hjb(problem, time_grid(0, 1, 7)).strategy
    got = solve_representation(problem, times, strategy).values
    want = solve_representation(problem, times,
                                lambda s, x, i: strategy(s, x, i)).values
    assert np.array_equal(got, want)
    zero = solve_representation(problem, times, None).values
    assert np.array_equal(zero, solve_representation(problem, times, 0.0).values)
    for policy in ((0.1, 0.2), []):
        with pytest.raises(ConfigError, match="constant control needs 1 entries") \
                as info:
            solve_representation(problem, times, policy)
        assert info.value.exit_code == 2


def test_one_node_window_returns_terminal_data():
    grid = SpatialGrid(-2, 2, 21)
    times = time_grid(0, 1, 8)[-1:]
    problem = anchored_hjb(grid)
    linear = LinearPDEProblem(a=const(0.05), beta=const(0.1), grid=grid, m=2,
                              q_table=problem.q_table, terminal=problem.terminal)
    strategy = solve_hjb(problem, time_grid(0, 1, 8)).strategy
    for fld in (solve_linear_parabolic(linear, times),
                solve_hjb(problem, times).value,
                solve_representation(problem, times, strategy)):
        assert fld.values.shape == (1, grid.n_x, 2)
        assert np.array_equal(fld.values[0], problem.terminal)


# ---- the stacked banded step against the per-regime oracle -----------------

@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n_rows", [1, 7])
@pytest.mark.parametrize("bc", ["extrapolate", "dirichlet",
                                ("dirichlet", "extrapolate")])
def test_step_equals_per_regime_solve_banded(m, n_rows, bc):
    from switchctl.pde import _step
    from step_oracle import step_per_regime
    grid = SpatialGrid(-2, 2, 33, bc=bc)
    rng = np.random.default_rng(100 * m + n_rows)
    a = rng.uniform(0.01, 0.5, size=(grid.n_x, m)).T
    beta = rng.normal(0.0, 1.0, size=(grid.n_x, m)).T
    q = rng.uniform(0.1, 0.6, size=(grid.n_x, m, m))
    q[:, np.arange(m), np.arange(m)] = 0.0
    q[:, np.arange(m), np.arange(m)] = -q.sum(axis=2)
    v_next = rng.normal(size=(n_rows, grid.n_x, m)).swapaxes(1, 2)
    edges = rng.normal(size=(n_rows, m, 2))
    weight = rng.uniform(0.5, 1.5, size=(n_rows, 1, m)).swapaxes(1, 2)

    def sources(s, v, qv, vx):
        return weight * np.sin(v + s) - 0.3 * qv + 0.2 * vx

    args = (v_next, 0.4, 0.45, grid, a, beta, q, sources, edges)
    got = _step(*args)
    assert got.shape == (n_rows, m, grid.n_x)
    assert np.array_equal(got, step_per_regime(*args))


# ---- failures surface as NumericError ---------------------------------------

def test_singular_step_raises_numeric_error():
    # a = -dx^2/dt zeroes the middle diagonal entry of the second regime's
    # block: the solve must fail with the step's time in the message
    from switchctl.pde import _step
    grid = SpatialGrid(0, 1, 3, bc="dirichlet")
    a = np.array([[0.1, -0.5]] * 3).T        # dx = dt = 0.5: exact zero
    v = np.ones((2, 2, 3))
    with pytest.raises(NumericError, match="failed at s=0.25"):
        _step(v, 0.25, 0.75, grid, a, np.zeros((2, 3)), None,
              lambda s, v, qv, vx: np.zeros_like(v), np.zeros((2, 2, 2)))


def nan_at(fn, j):
    def wrapped(*args):
        out = np.array(fn(*args), dtype=float)
        out[j] = np.nan
        return out
    return wrapped


def test_nan_coefficient_raises_numeric_error():
    grid = SpatialGrid(-2, 2, 21)
    times = time_grid(0, 1, 8)
    problem = anchored_hjb(grid)
    linear = LinearPDEProblem(a=nan_at(const(0.05), 7), beta=const(0.1),
                              grid=grid, m=2, terminal=problem.terminal)
    with pytest.raises(NumericError):
        solve_linear_parabolic(linear, times)

    problem.sigma = nan_at(problem.sigma, 7)
    rows = np.empty((3, len(times), 2, grid.n_x))
    rows[:, -1] = problem.terminal.T
    with pytest.raises(NumericError):
        solve_rows_batch(problem, times, lambda k: np.zeros((grid.n_x, 2, 1)),
                         [0.0, 0.3, 0.6], rows)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_regime_coupling_equals_einsum(m):
    from switchctl.pde import _qv
    rng = np.random.default_rng(m)
    q = rng.normal(size=(17, m, m))
    q[3] = 0.0
    v = rng.normal(size=(5, m, 17))
    v[0, :, 4] = -0.0
    want = np.einsum("xij,...jx->...ix", q, v)
    for got, ref in ((_qv(q, v), want), (_qv(q, v[2]), want[2])):
        if m <= 2:   # one rounding of the exact sum, signed zeros included
            assert np.array_equal(got, ref)
            assert not np.any(np.signbit(got) != np.signbit(ref))
        else:        # einsum's summation order is its own
            assert np.allclose(got, ref, rtol=1e-14, atol=1e-14)
    assert np.array_equal(_qv(None, v), np.zeros_like(v))
