"""Model presets: switching geometries, mark densities, and the bundles
of coefficients the PDE/game layers consume.

A ControlModel packages the Hamiltonian data (b, sigma, g, h, psi,
control set) and the generator source (state-dependent geometry or a
constant matrix); its simulation dynamics are its own b and sigma.
Minimization convention throughout: maximization examples are negated
at this boundary.
"""

from dataclasses import dataclass, field

import numpy as np

from . import merton as merton_mod
from .errors import ConfigError
from .fields import BC_DIRICHLET, BC_EXTRAPOLATE, SpatialGrid, node_index
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
    ignores its input length is rejected with a ConfigError.  g is also
    evaluated for R anchor rows at once, with tau an (R, 1) column and
    y, z, qv (R, n_x), and must broadcast to (R, n_x) there (see
    pde.HJBProblem); its output is rejected with a ConfigError if not.

    ``anchor_basis`` declares K anchor nodes tau_1..tau_K such that g
    and h are polynomials of degree < K in tau and g is affine in
    (y, z, qv) with tau-free coefficients (Dirichlet data, when given,
    must be polynomials in tau as well).  Then every anchor row is the
    Lagrange mix of the K node rows, and the equilibrium march steps
    those K rows only; the solver checks the declaration on probes first.
    """

    name: str
    m: int
    b: callable                   # b(s, x, i, u) -> (n,)
    sigma: callable                # sigma(s, x, i, u) -> (n,)
    g: callable                    # g(tau, s, x, i, y, z, qv, u) -> (n,) or (R, n_x)
    h: callable                    # h(tau, x, i) -> (n,)
    control_set: ControlSet
    T: float
    control_dim: int = 1
    control_names: list = None
    psi: callable = None
    q_const: np.ndarray = None
    geometry: RegimeGeometry = None
    levy: LevyMeasure = None
    x_domain: tuple = (-2.0, 2.0)
    bc: tuple = (BC_EXTRAPOLATE, BC_EXTRAPOLATE)
    spec: object = None            # worked-example parameters, when applicable
    anchor_basis: tuple = None     # K anchor nodes spanning g and h in tau
    psi_clamp_count: int = 0
    _q_cache: dict = field(default_factory=dict, repr=False)

    @property
    def dynamics(self):
        """The Monte Carlo engine's view of the same b and sigma."""
        return ControlledDynamics(drift=self.b, diffusion=self.sigma, m=self.m,
                                  control_dim=self.control_dim)

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


def toy_anchored_model(time_inconsistent=True):
    """Bounded-control test model: dX = u ds + 0.4 dW, cost u^2 + w(tau) x^2.

    The anchor weight w(tau) = 1 + 0.5 tau makes it time-inconsistent;
    with ``time_inconsistent=False`` the weight is frozen at one.  Q(x)
    comes from the tanh geometry.  g and h are affine in tau, so the
    anchor basis is the nodes (0, T), or (0,) when the weight is frozen.
    """
    def weight(tau):
        return 1.0 + (0.5 * tau if time_inconsistent else 0.0)

    def g(tau, s, x, i, y, z, qv, u):
        return u[:, 0] ** 2 + weight(tau) * x**2

    def h(tau, x, i):
        return weight(tau) * np.asarray(x, dtype=float) ** 2

    return ControlModel(
        name="toy-lq", m=2,
        b=lambda s, x, i, u: u[:, 0],
        sigma=lambda s, x, i, u: np.full_like(np.asarray(x, dtype=float), 0.4),
        g=g, h=h,
        control_set=ControlSet(lo=-1.0, hi=1.0),
        T=1.0,
        geometry=tanh_threshold_geometry(), levy=uniform_mark_density(),
        x_domain=(-2.0, 2.0), bc=(BC_EXTRAPOLATE, BC_EXTRAPOLATE),
        anchor_basis=(0.0, 1.0) if time_inconsistent else (0.0,))


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


def merton_model(spec, x_domain=(0.5, 2.5)):
    """Minimization adapter for the worked example (values negated).

    The analytic minimizer clamps its derivative inputs away from zero
    by 1e-8 (the value gradient must stay negative and the curvature
    positive for the minimization form) and truncates its outputs at
    100: near a boundary the discrete curvature of an x^gamma profile
    can cross zero through grid noise, and an uncapped minimizer would
    answer with an enormous position.  Clamp events are counted on the
    returned model.
    """
    gam = spec.gamma
    model = None  # forward reference for the clamp counter

    def psi(tau, s, x, i, v_all, p, pp):
        p_eff = np.minimum(p, -1e-8)
        pp_eff = np.maximum(pp, 1e-8)
        u_raw = -spec.b[i - 1] * p_eff / (spec.sigma[i - 1] ** 2 * pp_eff)
        c_raw = (gam * float(spec.g(tau, s)) / (-p_eff)) ** (1 / (1 - gam))
        out = np.empty((len(u_raw), 2))
        # np.clip's values, in two ufunc calls without its wrapper
        u = np.minimum(np.maximum(u_raw, -100.0), 100.0, out=out[:, 0])
        c = np.clip(c_raw, 0.0, 100.0, out=out[:, 1])
        fired = (np.count_nonzero(p_eff != p) + np.count_nonzero(pp_eff != pp)
                 + np.count_nonzero(u != u_raw) + np.count_nonzero(c != c_raw))
        if fired and model is not None:
            model.psi_clamp_count += fired
        return out

    def g(tau, s, x, i, y, z, qv, u):
        c = np.maximum(u[:, 1], 0.0)
        return -np.asarray(spec.g(tau, s), dtype=float) * c**gam

    def h(tau, x, i):
        return -float(spec.h(tau)) * np.asarray(x, dtype=float) ** gam

    geometry = constant_rate_geometry(spec.q)
    wealth = merton_mod.wealth_dynamics(spec)
    model = ControlModel(
        name=spec.name, m=spec.m, b=wealth.drift, sigma=wealth.diffusion,
        g=g, h=h,
        control_set=ControlSet(lo=-np.inf, hi=np.inf),
        T=spec.T, control_dim=2, control_names=["invest", "consume"],
        psi=psi, q_const=spec.q,
        geometry=geometry, levy=uniform_mark_density(),
        x_domain=x_domain, bc=(BC_DIRICHLET, BC_DIRICHLET),
        spec=spec)
    return model


def ansatz_dirichlet(grid, phi_times, phi_rows, gamma):
    """Dirichlet data -phi(s, i) x^gamma at the two grid edges.

    ``phi_rows`` is an (n, m) phi table on ``phi_times`` whose columns may
    start with NaN.  Returns the callable times -> (len(times), m, 2) that
    interpolates each regime's column on its valid entries.
    """
    x_edges = np.array([grid.x_min ** gamma, grid.x_max ** gamma])

    def dirichlet(times):
        phi = np.empty((len(times), phi_rows.shape[1]))
        for i, col in enumerate(phi_rows.T):
            valid = ~np.isnan(col)
            phi[:, i] = np.interp(times, phi_times[valid], col[valid])
        return -phi[:, :, None] * x_edges

    return dirichlet


def merton_partition_boundary(model, mirror, grid):
    """Anchored Dirichlet data for cycle runs, from the ODE mirror rows."""
    knots = mirror.knots

    def boundary(tau):
        rows = mirror.rows[node_index(knots[:-1], tau) + 1]
        return ansatz_dirichlet(grid, mirror.times, rows, model.spec.gamma)

    return boundary


def merton_equilibrium_boundary(model, phi_solution, grid):
    """Per-row Dirichlet data for the equilibrium solver, from phi rows.

    Each anchor's table copies its row out of the packed triangle
    (``PhiSolution.row``) when it is built, so the anchors of a march hold
    no row between their calls.
    """
    times = phi_solution.times

    def boundary(tau):
        j = node_index(times, tau)
        return lambda s: ansatz_dirichlet(grid, times, phi_solution.row(j),
                                          model.spec.gamma)(s)

    return boundary


MODEL_PRESETS = {
    "merton-ti": lambda: merton_model(merton_spec(True)),
    "merton-tc": lambda: merton_model(merton_spec(False)),
    "toy-lq": lambda: toy_anchored_model(True),
    "toy-lq-tc": lambda: toy_anchored_model(False),
}
