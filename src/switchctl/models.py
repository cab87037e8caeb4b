"""Model presets: switching geometries, mark densities, and the bundles
of coefficients the PDE/game layers consume.

A ControlModel packages the Hamiltonian data (b, sigma, g, h, psi,
control set), the generator source (state-dependent geometry or a
constant matrix), and simulation dynamics.  Minimization convention
throughout: maximization examples are negated at this boundary.
"""

from dataclasses import dataclass, field

import numpy as np

from . import merton as merton_mod
from .errors import ConfigError
from .fields import BC_DIRICHLET, BC_EXTRAPOLATE, SpatialGrid
from .pde import ControlSet, HJBProblem
from .sde import ControlledDynamics
from .switching import LevyMeasure, RegimeGeometry, rate_matrix_table


# ---------------------------------------------------------------------------
# switching presets

def uniform_mark_density(beta0=1.0):
    return LevyMeasure(lambda th: np.full_like(np.asarray(th, dtype=float),
                                               1.0 / (2 * beta0)), beta0)


def constant_threshold_geometry(beta0=1.0):
    """Delta_12 = [0, 0.4) and Delta_21 = [-0.6, -0.2)."""
    rows = [[0.0, 0.0, 0.4],
            [-0.6, -0.2, -0.2]]
    return RegimeGeometry(rows, beta0=beta0)


def tanh_threshold_geometry(beta0=1.0):
    """q_12(x) = (0.2 + 0.1 tanh x)/2 rising, q_21 falling, under the
    uniform mark density: regime 2 is entered more readily at high x."""
    rows = [
        [0.0, 0.0, lambda x: 0.2 + 0.1 * np.tanh(x)],
        [-0.6, lambda x: -0.4 - 0.1 * np.tanh(x), lambda x: -0.4 - 0.1 * np.tanh(x)],
    ]
    return RegimeGeometry(rows, beta0=beta0)


def affine_threshold_geometry(beta0=1.0):
    """Affine-clamped thresholds: q_12 = (0.2 + 0.05 x clipped to [0, 0.5])/2."""
    rows = [
        [0.0, 0.0, lambda x: np.clip(0.2 + 0.05 * x, 0.0, 0.5)],
        [-0.8, lambda x: -0.8 + np.clip(0.3 - 0.05 * x, 0.0, 0.5),
         lambda x: -0.8 + np.clip(0.3 - 0.05 * x, 0.0, 0.5)],
    ]
    return RegimeGeometry(rows, beta0=beta0)


def all_empty_geometry(m=2, beta0=1.0):
    rows = [[0.0] * (m + 1) for _ in range(m)]
    return RegimeGeometry(rows, beta0=beta0)


def constant_rate_geometry(q, beta0=1.0):
    """Geometry realizing a constant generator under the uniform density.

    Row i lays the intervals for j != i consecutively from -beta0 with
    widths 2 beta0 q_ij; requires sum_j q_ij <= 1 per row.
    """
    q = np.asarray(q, dtype=float)
    m = q.shape[0]
    rows = []
    for i in range(m):
        offdiag = np.sum(q[i]) - q[i, i]
        if offdiag > 1.0 + 1e-12:
            raise ConfigError("total jump rate per row must not exceed the "
                              "unit mark intensity")
        row = [-beta0]
        for j in range(m):
            width = 0.0 if j == i else 2 * beta0 * q[i, j]
            row.append(row[-1] + width)
        rows.append(row)
    return RegimeGeometry(rows, beta0=beta0)


GEOMETRY_PRESETS = {
    "constant": constant_threshold_geometry,
    "tanh": tanh_threshold_geometry,
    "affine": affine_threshold_geometry,
    "empty": all_empty_geometry,
}


# ---------------------------------------------------------------------------
# control models

@dataclass
class ControlModel:
    """Everything the PDE/game layers need about one control problem.

    b, sigma and g are evaluated pointwise along the leading axis of x
    and u (u is (n, control_dim)) for any length n: the grid-search
    minimizer calls them on n_u * n_x stacked nodes, so a callable that
    ignores its input length is rejected with a ConfigError.
    """

    name: str
    m: int
    b: callable                   # b(s, x, i, u) -> (n,)
    sigma: callable                # sigma(s, x, i, u) -> (n,)
    g: callable                    # g(tau, s, x, i, y, z, qv, u) -> (n,)
    h: callable                    # h(tau, x, i) -> (n,)
    control_set: ControlSet
    T: float
    control_dim: int = 1
    control_names: list = None
    psi: callable = None
    q_const: np.ndarray = None
    geometry: RegimeGeometry = None
    levy: LevyMeasure = None
    dynamics: ControlledDynamics = None
    x_domain: tuple = (-2.0, 2.0)
    bc: tuple = (BC_EXTRAPOLATE, BC_EXTRAPOLATE)
    spec: object = None            # worked-example parameters, when applicable
    psi_clamp_count: int = 0
    _q_cache: dict = field(default_factory=dict, repr=False)

    def q_table(self, grid):
        if self.q_const is not None:
            return np.tile(self.q_const, (grid.n_x, 1, 1))
        if self.geometry is None:
            return None
        key = (grid.x_min, grid.x_max, grid.n_x)
        if key not in self._q_cache:
            self._q_cache[key] = rate_matrix_table(self.geometry, self.levy, grid.x)
        return self._q_cache[key]

    def default_grid(self, n_x, bc=None):
        return SpatialGrid(self.x_domain[0], self.x_domain[1], n_x,
                           bc=self.bc if bc is None else bc)

    def terminal_values(self, tau, grid):
        return np.stack([np.asarray(self.h(tau, grid.x, i), dtype=float)
                         for i in range(1, self.m + 1)], axis=1)

    def hjb_problem(self, tau, grid, terminal=None, dirichlet=None):
        return HJBProblem(
            b=self.b, sigma=self.sigma, g=self.g, anchor=tau,
            control_set=self.control_set, grid=grid, m=self.m,
            q_table=self.q_table(grid), psi=self.psi,
            terminal=self.terminal_values(tau, grid) if terminal is None else terminal,
            dirichlet=dirichlet, control_dim=self.control_dim,
            control_names=self.control_names)


def toy_anchored_model(time_inconsistent=True, state_dependent_q=True):
    """Bounded-control test model: dX = u ds + 0.4 dW, cost u^2 + w(tau) x^2.

    The anchor weight w(tau) = 1 + 0.5 tau makes it time-inconsistent;
    with ``time_inconsistent=False`` the weight is frozen at one.  Q(x)
    comes from the tanh geometry unless ``state_dependent_q`` is False.
    """
    def weight(tau):
        return 1.0 + (0.5 * tau if time_inconsistent else 0.0)

    def g(tau, s, x, i, y, z, qv, u):
        return u[:, 0] ** 2 + weight(tau) * x**2

    def h(tau, x, i):
        return weight(tau) * np.asarray(x, dtype=float) ** 2

    geometry = tanh_threshold_geometry() if state_dependent_q else None
    levy = uniform_mark_density() if state_dependent_q else None
    q_const = None if state_dependent_q else np.array([[-0.2, 0.2], [0.2, -0.2]])
    dynamics = ControlledDynamics(
        drift=lambda s, x, i, u: u[:, 0],
        diffusion=lambda s, x, i, u: np.full_like(x, 0.4),
        m=2, control_dim=1)
    return ControlModel(
        name="toy-lq", m=2,
        b=lambda s, x, i, u: u[:, 0],
        sigma=lambda s, x, i, u: np.full_like(np.asarray(x, dtype=float), 0.4),
        g=g, h=h,
        control_set=ControlSet(lo=-1.0, hi=1.0),
        T=1.0, dynamics=dynamics,
        q_const=q_const, geometry=geometry, levy=levy,
        x_domain=(-2.0, 2.0), bc=(BC_EXTRAPOLATE, BC_EXTRAPOLATE))


def merton_spec(time_inconsistent=True, kappa=1.0, T=1.0):
    """Two-regime market with hyperbolic anchored discounting."""
    if time_inconsistent:
        g = lambda tau, s: 1.0 / (1.0 + kappa * (s - tau))
    else:
        g = lambda tau, s: np.exp(-0.5 * s) + 0.0 * np.asarray(tau)
    return merton_mod.MertonSpec(
        b=[0.10, 0.06], sigma=[0.20, 0.30], gamma=0.5,
        g=g, h=lambda tau: np.ones_like(np.asarray(tau, dtype=float)),
        q=np.array([[-0.3, 0.3], [0.3, -0.3]]), T=T,
        name="merton-ti" if time_inconsistent else "merton-tc")


def merton_model(spec, eps_clamp=1e-8, control_cap=100.0, x_domain=(0.5, 2.5)):
    """Minimization adapter for the worked example (values negated).

    The analytic minimizer clamps its derivative inputs away from zero
    by ``eps_clamp`` (the value gradient must stay negative and the
    curvature positive for the minimization form) and truncates its
    outputs at ``control_cap``: near a boundary the discrete curvature
    of an x^gamma profile can cross zero through grid noise, and an
    uncapped minimizer would answer with an enormous position.  Clamp
    events are counted on the returned model.
    """
    gam = spec.gamma
    model = None  # forward reference for the clamp counter

    def psi(tau, s, x, i, v_all, p, pp):
        p_eff = np.minimum(p, -eps_clamp)
        pp_eff = np.maximum(pp, eps_clamp)
        u_raw = -spec.b[i - 1] * p_eff / (spec.sigma[i - 1] ** 2 * pp_eff)
        c_raw = (gam * float(spec.g(tau, s)) / (-p_eff)) ** (1 / (1 - gam))
        u = np.clip(u_raw, -control_cap, control_cap)
        c = np.clip(c_raw, 0.0, control_cap)
        fired = int(np.sum(p_eff != p) + np.sum(pp_eff != pp)
                    + np.sum(u != u_raw) + np.sum(c != c_raw))
        if fired and model is not None:
            model.psi_clamp_count += fired
        return np.stack([u, c], axis=1)

    def b(s, x, i, u):
        return spec.b[i - 1] * u[:, 0] - u[:, 1]

    def sigma(s, x, i, u):
        return spec.sigma[i - 1] * u[:, 0]

    def g(tau, s, x, i, y, z, qv, u):
        c = np.maximum(u[:, 1], 0.0)
        return -float(spec.g(tau, s)) * c**gam

    def h(tau, x, i):
        return -float(spec.h(tau)) * np.asarray(x, dtype=float) ** gam

    geometry = constant_rate_geometry(spec.q)
    model = ControlModel(
        name=spec.name, m=spec.m, b=b, sigma=sigma, g=g, h=h,
        control_set=ControlSet(lo=-np.inf, hi=np.inf),
        T=spec.T, control_dim=2, control_names=["invest", "consume"],
        psi=psi, q_const=spec.q,
        geometry=geometry, levy=uniform_mark_density(),
        dynamics=merton_mod.wealth_dynamics(spec),
        x_domain=x_domain, bc=(BC_DIRICHLET, BC_DIRICHLET),
        spec=spec)
    return model


def ansatz_dirichlet(grid, phi_interp, gamma, sign=-1.0):
    """Dirichlet data sign * phi(s, i) x^gamma at the two grid edges."""
    edges = (grid.x_min, grid.x_max)

    def dirichlet(s, i):
        phi = float(phi_interp(s, i))
        return (sign * phi * edges[0] ** gamma, sign * phi * edges[1] ** gamma)

    return dirichlet


def phi_row_interp(times, rows):
    """Interpolant (s, i) -> phi for a (n, m) table with NaN-prefixed rows."""
    times = np.asarray(times, dtype=float)

    def interp(s, i):
        col = rows[:, i - 1]
        valid = ~np.isnan(col)
        return float(np.interp(s, times[valid], col[valid]))

    return interp


def merton_partition_boundary(model, mirror, grid):
    """Anchored Dirichlet data for cycle runs, from the ODE mirror rows."""
    spec = model.spec
    knots = mirror.knots

    def boundary(tau):
        j = int(np.argmin(np.abs(knots[:-1] - tau)))
        if abs(knots[j] - tau) > 1e-9:
            raise ConfigError(f"anchor {tau:g} is not a partition knot")
        interp = phi_row_interp(mirror.times, mirror.rows[j + 1])
        return ansatz_dirichlet(grid, interp, spec.gamma, sign=-1.0)

    return boundary


def merton_equilibrium_boundary(model, phi_solution, grid):
    """Per-row Dirichlet data for the equilibrium solver, from phi rows."""
    spec = model.spec
    times = phi_solution.times

    def boundary(tau):
        t_idx = int(np.argmin(np.abs(times - tau)))
        if abs(times[t_idx] - tau) > 1e-9:
            raise ConfigError(f"anchor {tau:g} is not a grid node")
        interp = phi_row_interp(times, phi_solution.eq[t_idx])
        return ansatz_dirichlet(grid, interp, spec.gamma, sign=-1.0)

    return boundary


def merton_precommitted_boundary(model, grid, times):
    """Anchored Dirichlet data from the pre-committed system."""
    spec = model.spec

    def boundary(tau):
        rows = merton_mod.solve_precommitted(spec, tau, times)
        interp = phi_row_interp(times, rows)
        return ansatz_dirichlet(grid, interp, spec.gamma, sign=-1.0)

    return boundary


MODEL_PRESETS = {
    "merton-ti": lambda: merton_model(merton_spec(True)),
    "merton-tc": lambda: merton_model(merton_spec(False)),
    "toy-lq": lambda: toy_anchored_model(True),
    "toy-lq-tc": lambda: toy_anchored_model(False),
}
