"""Regime-switching consumption/investment example with power utility.

Wealth follows dX = [b(alpha) u - c] ds + sigma(alpha) u dW for a
two-point (or general finite) market-mode chain with constant generator
Q, and the payoff E[ int g(tau,s) c(s)^gamma ds + h(tau) X(T)^gamma ] is
*maximized*.  Everything of interest reduces under the x^gamma ansatz to
ODE systems for phi(s, i):

* time-consistent weights  -> a single backward system (phi_tc),
* anchored (pre-committed) -> the same system with g(tau,.), h(tau),
* equilibrium              -> a two-time family phi(tau, s, i) coupled
  through its own diagonal, solved by one backward march whose step
  fixes the one unknown diagonal value it reads,
* any proportional strategy (u, c) = (theta x, kappa x) -> a linear
  system, which prices arbitrary such strategies exactly.

The optimal/equilibrium investment fraction is b(i)/((1-gamma) sigma(i)^2)
for every variant; only the consumption rate distinguishes them.

Sign convention: this module works with the natural maximization
objects.  The PDE core minimizes, so its adapter (see models.py) negates
values and data once at the boundary.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, ConvergenceError, DomainError, NumericError,
                     ResolutionError)
from .fields import refuse_oversized, regime_index
from .partition import Partition, node_owners
from .sde import ControlledDynamics, simulate_ensemble


@dataclass
class MertonSpec:
    """Market parameters and anchored weights; m regimes."""

    b: np.ndarray                 # appreciation rate per regime
    sigma: np.ndarray             # volatility per regime
    gamma: float                  # risk exponent in (0, 1)
    g: callable                   # consumption weight g(tau, s) > 0, vectorized
    h: callable                   # bequest weight h(tau) > 0, vectorized
    q: np.ndarray                 # constant generator matrix (m, m)
    T: float = 1.0
    name: str = "merton"

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.m = len(self.b)
        if np.any(self.sigma <= 0):
            raise ConfigError("volatilities must be positive")
        if not 0 < self.gamma < 1:
            raise ConfigError("risk exponent gamma must lie in (0, 1)")
        if self.q.shape != (self.m, self.m):
            raise ConfigError("generator shape must match the regime count")
        if np.max(np.abs(self.q.sum(axis=1))) > 1e-12:
            raise ConfigError("generator rows must sum to zero")
        if np.any(self.q - np.diag(np.diag(self.q)) < 0):
            raise ConfigError("generator off-diagonals must be nonnegative")
        taus = np.linspace(0, self.T, 5)
        if np.any(np.asarray(self.h(taus)) <= 0):
            raise ConfigError("bequest weight must be positive")
        for tau in taus:
            ss = np.linspace(tau, self.T, 5)
            # zero weight is allowed (no-consumption closed forms); negative is not
            if np.any(np.asarray(self.g(tau, ss)) < 0):
                raise ConfigError("consumption weight must be nonnegative")

    def drift_gain(self):
        """gamma b_i^2 / (2 (1-gamma) sigma_i^2) per regime."""
        return self.gamma * self.b**2 / (2 * (1 - self.gamma) * self.sigma**2)

    def investment_fraction(self):
        """Optimal investment fraction b_i / ((1-gamma) sigma_i^2), all variants."""
        return self.b / ((1 - self.gamma) * self.sigma**2)


@dataclass
class PhiSolution:
    """The equilibrium phi triangle on a shared time grid, packed by level.

    Level k (time s_k) holds phi(tau_j, s_k, .) for the rows j = 0..k as
    the contiguous block ``levels[k(k+1)/2 : (k+1)(k+2)/2]``, so the
    (n(n+1)/2, m) array is half the dense (n, n, m) triangle.  ``row(j)``
    copies one row out; ``eq`` builds the dense triangle anew on each
    access.  Both are NaN where a row is undefined (s < tau_j).
    ``csv_rows`` hands out the long-format table row by row.
    """

    times: np.ndarray
    eq_diag: np.ndarray = None     # (n, m)
    iterations: list = field(default_factory=list)
    levels: np.ndarray = None      # (n(n+1)/2, m), level by level

    def row(self, j):
        """phi(tau_j, s, .) on every time node as a new (n, m) array."""
        n = len(self.times)
        k = np.arange(j, n)
        out = np.full((n, self.levels.shape[1]), np.nan)
        out[j:] = self.levels[k * (k + 1) // 2 + j]
        return out

    def csv_rows(self):
        """The (tau, s, i, phi) columns of the long-format table, one
        tuple per row tau_j, in (tau, s, i) order: the dense triangle's
        entries that are not NaN, with no dense array formed.  A tuple
        holds one row's arrays only (``phi_bytes(n, m, csv=True)``)."""
        times = self.times
        n = len(times)
        labels = np.arange(1, self.levels.shape[1] + 1)
        for j in range(n):
            k = np.arange(j, n)
            yield times[j], times[j:, None], labels, self.levels[k * (k + 1) // 2 + j]

    @property
    def eq(self):
        """The dense (n, n, m) triangle phi[tau_j, s_k, .], NaN for k < j."""
        n = len(self.times)
        out = np.full((n, n, self.levels.shape[1]), np.nan)
        for k in range(n):
            at = k * (k + 1) // 2
            out[:k + 1, k] = self.levels[at:at + k + 1]
        return out


def phi_bytes(n, m, csv=False):
    """Bytes of the packed phi triangle on n times and m regimes; with
    ``csv``, plus the largest row tuple of ``PhiSolution.csv_rows`` (its
    values and four n-long index temporaries)."""
    return 8 * (n * (n + 1) // 2) * m + (8 * n * (m + 4) if csv else 0)


def _rk4_stages(s_hi, s_lo):
    """Step dt and the stage times (k1, k2 and k3, k4) from s_hi to s_lo."""
    dt = s_lo - s_hi  # negative
    return dt, (s_hi, s_hi + dt / 2, s_lo)


def _rk4_step(rhs, dt, stages, y, s_lo, k1=None):
    """One classical RK4 step of y' = rhs(stage, y) over ``dt``, ending at s_lo.

    ``stages`` holds what rhs reads at k1, at k2 and k3, and at k4: the
    stage times of ``_rk4_stages``, or data tabled on them.  ``k1``, when
    given, is rhs(stages[0], y) as the caller already has it.
    """
    if k1 is None:
        k1 = rhs(stages[0], y)
    k2 = rhs(stages[1], y + dt / 2 * k1)
    k3 = rhs(stages[1], y + dt / 2 * k2)
    k4 = rhs(stages[2], y + dt * k3)
    y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    if (y <= 0).any() or not np.isfinite(y).all():
        raise NumericError(
            f"phi integration left the positive cone at s={s_lo:g}; "
            f"the weights do not define a valid problem")
    return y


def _rk4_backward(times, terminal, rhs, k_stop=0):
    """Integrate y' = rhs(s, y) from times[-1] down to times[k_stop]."""
    n = len(times)
    out = np.full((n,) + np.shape(terminal), np.nan)
    out[-1] = terminal
    y = np.asarray(terminal, dtype=float)
    for k in range(n - 1, k_stop, -1):
        dt, stages = _rk4_stages(times[k], times[k - 1])
        y = _rk4_step(rhs, dt, stages, y, times[k - 1])
        out[k - 1] = y
    return out


def _optimal_rhs(spec, weight):
    """Right-hand side of the optimal phi system under the weight ``weight(s)``."""
    A = spec.drift_gain()
    gam = spec.gamma

    def rhs(s, y):
        gs = float(weight(s))
        return -(A * y + (1 - gam) * gs ** (1 / (1 - gam)) * y ** (gam / (gam - 1))
                 + y @ spec.q.T)

    return rhs


def solve_time_consistent(spec, times):
    """Backward system for the anchor-free weights; phi_i(T) = h."""
    hT = float(spec.h(spec.T)) * np.ones(spec.m)
    return _rk4_backward(np.asarray(times, dtype=float), hT,
                         _optimal_rhs(spec, lambda s: spec.g(s, s)))


def solve_precommitted(spec, tau, times):
    """Anchored system with weights g(tau, .), h(tau); defined on s >= tau."""
    times = np.asarray(times, dtype=float)
    if not 0 <= tau < spec.T:
        raise DomainError("anchor tau must lie in [0, T)")
    if tau >= times[-1]:
        raise DomainError(f"anchor tau={tau:g} must lie before the last time "
                          f"node {times[-1]:g}")
    k_stop = int(np.searchsorted(times, tau - 1e-12))
    hT = float(spec.h(tau)) * np.ones(spec.m)
    return _rk4_backward(times, hT, _optimal_rhs(spec, lambda s: spec.g(tau, s)),
                         k_stop=k_stop)


def solve_proportional_cost(spec, tau, theta, kappa, times, terminal=None,
                            k_stop=0):
    """Value of an arbitrary proportional strategy (theta x, kappa x).

    ``theta(s)`` and ``kappa(s)`` return per-regime arrays; the payoff is
    anchored at ``tau``.  This is a linear system, integrated with the
    same scheme as the optimal variants, and serves as the independent
    price for suboptimal feedback rules.  An array of R anchors prices
    it under each at once, as the rows of an (n, R, m) result; a row
    couples its regimes by its own one-row product with q^T, so it takes
    the bits it takes alone.
    """
    times = np.asarray(times, dtype=float)
    gam = spec.gamma
    qT = spec.q.T

    def rhs(s, y):
        th = np.asarray(theta(s), dtype=float)
        ka = np.asarray(kappa(s), dtype=float)
        lin = gam * (spec.b * th - ka) + 0.5 * spec.sigma**2 * th**2 * gam * (gam - 1)
        g = np.asarray(spec.g(tau, s), dtype=float)[..., None]
        return -(lin * y + (y[..., None, :] @ qT)[..., 0, :] + g * ka**gam)

    if terminal is None:
        terminal = np.asarray(spec.h(tau), dtype=float)[..., None] * np.ones(spec.m)
    return _rk4_backward(times, np.asarray(terminal, dtype=float), rhs,
                         k_stop=k_stop)


def solve_equilibrium_ode(spec, times, tol=1e-12, max_iter=200):
    """Two-time family phi(tau, s, i) coupled through its diagonal d(s) = phi(s, s).

    One backward march: every row tau_j starts at h(tau_j) at T.  The step
    s_k -> s_{k-1} reads d at its RK4 stages from the Lagrange cubic through
    the known d(s_k), d(s_{k+1}), d(s_{k+2}) (fewer nodes near T) and the
    unknown d(s_{k-1}), which is row k-1's own value after the step: rounds
    of that one row's step fix it to ``tol`` (at most ``max_iter``), then
    rows 0..k-1 take the step once.  ``iterations[j]`` of the returned
    PhiSolution is the largest change any step saw in round j.

    The triangle is stored packed by level (see PhiSolution): the step
    reads level k's rows 0..k-1 and writes level k-1 as contiguous
    slices.  Its n(n+1)/2 m float64 values are refused with a
    ConfigError, before they are allocated, when they exceed half the
    physical memory.

    What the grid fixes is tabled once per step: the three stage times,
    their Lagrange weights, g(s, s) and the column g(tau_j, s) of rows
    0..k-1.  k1 sits on s_k, where the unknown's Lagrange weight is
    exactly zero, so its diagonal, powers and row k-1's k1 are formed once
    per step; a round forms the diagonal and its two powers at the other
    two stage times.  The all-rows step reuses those of the converged round.
    """
    times = np.asarray(times, dtype=float)
    n = len(times)
    size = n * (n + 1) // 2
    refuse_oversized(phi_bytes(n, spec.m),
                     f"the equilibrium phi triangle (n_t={n}, m={spec.m})")
    A = spec.drift_gain()
    gam = spec.gamma
    p_c, p_g = 1 / (1 - gam), gam / (1 - gam)
    qT = spec.q.T
    at = [k * (k + 1) // 2 for k in range(n + 1)]   # level k is at[k]:at[k + 1]
    phi = np.empty((size, spec.m))
    phi[at[n - 1]:] = np.asarray(spec.h(times), dtype=float)[:, None]
    log = []

    def rhs(stage, y):
        r_c, g_term = stage   # (g/d)^p_c and g(tau_rows, s) (g/d)^p_g
        return -(A * y - gam * y * r_c + g_term + y @ qT)

    for k in range(n - 1, 0, -1):
        dt, s_stages = _rk4_stages(times[k], times[k - 1])
        nodes = times[k - 1:k + 3]
        known = [phi[at[j] + j] for j in range(k, min(k + 3, n))]
        weights = [[math.prod((s - t) / (t_j - t) for t in nodes if t != t_j)
                    for t_j in nodes] for s in s_stages]
        g_diag = [float(spec.g(s, s)) for s in s_stages]
        # rows tau_j <= s_{k-1} <= s, so g stays on its domain
        g_rows = [np.asarray(spec.g(times[:k], s), dtype=float)[:, None]
                  for s in s_stages]

        def stage_powers(w, g_ss, d_lo):
            d = w[0] * d_lo      # Lagrange sum, left to right
            for w_j, d_j in zip(w[1:], known):
                d = d + w_j * d_j
            if (d <= 0).any():
                raise NumericError("diagonal phi left the positive cone")
            r = g_ss / d
            return r ** p_c, r ** p_g

        # d(s_{k-1})'s weight at s_k is 0.0, so k1 is the same every round
        d_lo = phi[at[k] + k]
        r_c, r_g = stage_powers(weights[0], g_diag[0], d_lo)
        first = (r_c, g_rows[0] * r_g)
        y_row = phi[at[k] + k - 1:at[k] + k]
        row_first = (r_c, first[1][k - 1:])
        k1_row = rhs(row_first, y_row)
        for rnd in range(max_iter):
            pw = [stage_powers(w, g_ss, d_lo) for w, g_ss in zip(weights[1:], g_diag[1:])]
            stages = [row_first] + [(r_c, g[k - 1:] * r_g)
                                    for (r_c, r_g), g in zip(pw, g_rows[1:])]
            new = _rk4_step(rhs, dt, stages, y_row, times[k - 1], k1=k1_row)[0]
            change = float(np.abs(new - d_lo).max())
            if rnd == len(log):
                log.append(change)
            log[rnd] = max(log[rnd], change)
            if change < tol:
                break
            d_lo = new
        else:
            raise ConvergenceError(
                f"equilibrium phi diagonal at s={times[k - 1]:g} did not reach "
                f"{tol:g} in {max_iter} rounds", history=log)
        stages = [first] + [(r_c, g * r_g) for (r_c, r_g), g in zip(pw, g_rows[1:])]
        phi[at[k - 1]:at[k]] = _rk4_step(rhs, dt, stages, phi[at[k]:at[k] + k],
                                         times[k - 1])
    diag = phi[np.asarray(at[:n]) + np.arange(n)]
    return PhiSolution(times=times, eq_diag=diag, iterations=log, levels=phi)


def _gtsv(dl, d, du, b):
    """Solve the tridiagonal system (dl, d, du) z = b; LAPACK dgtsv, op for op.

    Python floats, one right-hand side, n >= 2: Gaussian elimination with
    partial pivoting (a row swap fills in the second superdiagonal, kept
    in ``dl``), then back substitution.  The lists are overwritten; the
    solution is returned in ``b``.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise NumericError("spline system is singular")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise NumericError("spline system is singular")
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


class _Spline:
    """Not-a-knot cubic spline through (x, y), bit for bit scipy's CubicSpline.

    Construction repeats scipy 1.17's arithmetic op for op: the slopes,
    the (1, 1)-banded system for the node derivatives with de Boor's
    not-a-knot ends (clamped to the chord for n = 2, the dense 3x3
    parabola system for n = 3), solved by ``_gtsv``, and the Hermite
    coefficients c[0..3] per interval, highest power first, in ``c``
    (n-1, 4).  A point reads interval searchsorted(x[1:-1], s, "right"),
    so the end intervals extrapolate, and sums its row in the order of
    scipy's evaluate_poly1.  ``at`` reads one point on Python floats, and
    a call maps it over an array.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = x.size
        if x.ndim != 1 or y.shape != x.shape or n < 2:
            raise ConfigError(f"a spline needs at least two nodes, one value "
                              f"each; got times {x.shape} and values {y.shape}")
        if not np.isfinite(x).all():
            raise ConfigError("spline node times must be finite")
        dx = np.diff(x)
        if (dx <= 0).any():
            raise ConfigError("spline node times must be strictly increasing")
        if not np.isfinite(y).all():
            raise NumericError("spline node values must be finite")
        slope = np.diff(y) / dx
        if n == 3:
            A = np.array([[1.0, 1.0, 0.0],
                          [dx[1], 2 * (dx[0] + dx[1]), dx[0]],
                          [0.0, 1.0, 1.0]])
            b = np.array([2 * slope[0], 3 * (dx[0] * slope[1] + dx[1] * slope[0]),
                          2 * slope[1]])
            s = np.linalg.solve(A, b)
        else:
            diag = np.zeros(n)
            upper = np.zeros(n - 1)
            lower = np.zeros(n - 1)
            b = np.empty(n)
            diag[1:-1] = 2 * (dx[:-1] + dx[1:])
            upper[1:] = dx[:-1]
            lower[:-1] = dx[1:]
            b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
            if n == 2:
                diag[:] = 1.0
                b[:] = slope[0]
            else:
                d = x[2] - x[0]
                diag[0], upper[0] = dx[1], d
                b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
                d = x[-1] - x[-3]
                diag[-1], lower[-1] = dx[-2], d
                b[-1] = (dx[-1]**2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
            s = np.array(_gtsv(lower.tolist(), diag.tolist(), upper.tolist(),
                               b.tolist()))
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]),
                          axis=1)
        self._inner = x[1:-1].tolist()
        self._rows = list(zip(x[:-1].tolist(), *self.c.T.tolist()))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return np.array([self.at(v) for v in s.ravel().tolist()]).reshape(s.shape)

    def at(self, s):
        s = float(s)
        x0, c0, c1, c2, c3 = self._rows[bisect_right(self._inner, s)]
        d = s - x0
        d2 = d * d
        return ((0.0 + c3 + c2 * d) + c1 * d2) + c0 * (d2 * d)


@dataclass
class PartitionPhi:
    """ODE mirror of the N-player cycles under the x^gamma ansatz; the
    rows are views of the march's one (N, n, m) array."""

    times: np.ndarray
    knots: np.ndarray
    value: np.ndarray            # (n, m): concatenated player values
    rows: dict = field(default_factory=dict)   # player k -> (n, m), NaN before t_{k-1}


def partition_phi(spec, knots, times):
    """Mirror the whole partition-cycle construction at ODE level.

    Knots must be nodes of ``times``.  Row r (player r + 1, anchored at
    t_r) starts at h(t_r) at T, and one backward march takes the rows
    over the intervals from the last: on player r + 1's interval
    [t_r, t_{r+1}] row r solves the anchored optimal system, and rows
    0..r-1 then price that player's strategy together as one (r, m)
    linear system (``solve_proportional_cost`` with r anchors).  No step
    straddles a strategy kink.  The player's consumption rate is tabled
    by one call per regime of the in-package not-a-knot spline
    (``_Spline``, bit for bit scipy's ``CubicSpline``) on all the RK4
    stage times of its interval, which is where the pricing reads it.
    The concatenated value at a node is the row of the player who owns
    it (``partition.node_owners``).
    """
    times = np.asarray(times, dtype=float)
    knots = np.asarray(knots, dtype=float)
    n = len(times)
    N = len(knots) - 1
    kidx = Partition(knots).knot_indices(times)
    frac = spec.investment_fraction()
    phi = np.full((N, n, spec.m), np.nan)
    phi[:, -1] = np.asarray(spec.h(knots[:-1]), dtype=float)[:, None]
    for r in range(N - 1, -1, -1):
        lo, hi = kidx[r], kidx[r + 1]
        seg = times[lo:hi + 1]
        tau = knots[r]
        phi[r, lo:hi + 1] = _rk4_backward(seg, phi[r, hi],
                                          _optimal_rhs(spec, lambda s: spec.g(tau, s)))
        if r == 0:
            break
        stage_s = np.ravel([_rk4_stages(seg[j], seg[j - 1])[1]
                            for j in range(1, len(seg))])
        phi_s = np.stack([_Spline(seg, phi[r, lo:hi + 1, i])(stage_s)
                          for i in range(spec.m)], axis=1)
        g_s = np.asarray(spec.g(tau, stage_s), dtype=float)[:, None]
        kappa = (g_s / np.maximum(phi_s, 1e-300)) ** (1 / (1 - spec.gamma))
        priced = solve_proportional_cost(spec, knots[:r], lambda s: frac,
                                         dict(zip(stage_s.tolist(), kappa)).__getitem__,
                                         seg, terminal=phi[:r, hi])
        phi[:r, lo:hi + 1] = priced.swapaxes(0, 1)
    value = phi[node_owners(kidx, np.arange(n)), np.arange(n)]
    return PartitionPhi(times=times, knots=knots, value=value,
                        rows={r + 1: phi[r] for r in range(N)})


def strategies(spec, phi_ss, s, x, i, g_weight=None):
    """Closed-form (investment, consumption) pair at one point.

    ``phi_ss`` is the diagonal value phi(s, s, i) for the equilibrium
    variant; feeding an anchored phi(tau; s, i) with ``g_weight``
    g(tau, s) gives the pre-committed pair, and the anchor-free data the
    time-consistent one.  The investment leg is the same in every
    variant.
    """
    if x <= 0:
        raise DomainError("wealth must be positive")
    col = regime_index(i, spec.m)
    if g_weight is None:
        g_weight = float(spec.g(s, s))
    u = spec.investment_fraction()[col] * x
    c = (g_weight / phi_ss) ** (1 / (1 - spec.gamma)) * x
    return u, c


def _spline_feedback(spec, times, phi, weight):
    """Feedback (u, c) = (frac x, (weight(s) / phi(s))^(1/(1-gamma)) x).

    ``phi`` (len(times), m) is read between nodes by a not-a-knot cubic
    spline per regime (``_Spline``, bit for bit scipy's ``CubicSpline``);
    the investment leg is the same in every variant.  At a float ``s``
    the spline runs on Python floats, the weight and the power once on a
    one-element array (the same numpy loops as per point, so the same
    bits), and the rate is broadcast over ``x``.  A regime label outside
    1..m raises DomainError.
    """
    splines = [_Spline(times, phi[:, i]) for i in range(spec.m)]
    frac = spec.investment_fraction()
    p_c = 1 / (1 - spec.gamma)
    m = spec.m

    def policy(s, x, i):
        col = regime_index(i, m)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        w = np.asarray(weight(s_arr), dtype=float)
        sp = splines[col]
        phi_s = sp.at(s) if isinstance(s, float) else sp(s_arr)
        out = np.empty((x.shape[0], 2))
        out[:, 0] = frac[col] * x
        out[:, 1] = (w / phi_s) ** p_c * x
        return out

    return policy


def equilibrium_policy(spec, phi_solution):
    """Feedback (u, c) built from the equilibrium diagonal."""
    return _spline_feedback(spec, phi_solution.times, phi_solution.eq_diag,
                            lambda s: spec.g(s, s))


def anchored_policy(spec, tau, phi_rows, times):
    """Feedback (u, c) from an anchored row phi(tau; s, i) (pre-committed)."""
    valid = ~np.isnan(phi_rows[:, 0])
    return _spline_feedback(spec, times[valid], phi_rows[valid],
                            lambda s: spec.g(tau, s))


def wealth_dynamics(spec):
    """ControlledDynamics for dX = (b u - c) ds + sigma u dW."""
    b, sg = spec.b, spec.sigma

    def drift(s, x, i, u):
        return b[i - 1] * u[:, 0] - u[:, 1]

    def diffusion(s, x, i, u):
        return sg[i - 1] * u[:, 0]

    return ControlledDynamics(drift=drift, diffusion=diffusion, m=spec.m,
                              control_dim=2)


def monte_carlo_payoff(spec, policy, t, x, i, n_paths, seed, h_step,
                       geometry, levy):
    """Simulated payoff of a proportional policy against the anchored weights.

    Returns (estimate, standard error) of
    E[int_t^T g(t,s) c(s)^gamma ds + h(t) X(T)^gamma] with the running
    integral accumulated by the trapezoid rule on the base grid, from the
    consumption the simulation evaluated at each node.
    """
    if n_paths < 2:
        raise ConfigError("the payoff standard error needs n_paths >= 2")
    if np.any(np.asarray(x) <= 0):
        raise DomainError("wealth must be positive")
    dyn = wealth_dynamics(spec)
    gam = spec.gamma
    acc = np.zeros(n_paths)
    prev = np.zeros(n_paths)
    state = {}

    def hook(k, s, xs, alphas, lo, hi, u):
        if np.any(xs <= 0):
            raise ResolutionError(
                "wealth hit zero during simulation; use a smaller step h")
        integrand = float(spec.g(t, s)) * u[:, 1]**gam
        if k > 0:
            ds = s - state["s_prev"]
            acc[lo:hi] += 0.5 * ds * (prev[lo:hi] + integrand)
        prev[lo:hi] = integrand
        state["s_prev"] = s

    res = simulate_ensemble(dyn, geometry, levy, (t, x, i), policy, h_step,
                            spec.T, n_paths, seed, node_hook=hook)
    payoff = acc + float(spec.h(t)) * res.state_T**gam
    return float(np.mean(payoff)), float(np.std(payoff, ddof=1) / np.sqrt(n_paths))
