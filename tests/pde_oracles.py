"""Independent checks of the finite-difference solver, kept as test oracles.

``apply_generator`` evaluates the central-difference generator at one
node of a field.  ``kernel_oracle`` solves a constant-coefficient heat
problem by Gaussian-kernel quadrature of its terminal datum; the
quadrature nodes are uniform at a spacing of dx/8, so x_i - y_j depends
on 8i - j only and each level is one discrete convolution, taken by FFT.
"""

import numpy as np

from switchctl.errors import ConfigError, DomainError
from switchctl.fields import ValueField

QUADRATURE_REFINE = 8


def apply_generator(fld, s_idx, x_idx, i, u, dynamics, q_table):
    """Central-difference generator 0.5 sigma^2 D2 V + b D1 V + [Q V]_i.

    ``i`` is a regime label in 1..m; interior nodes only.
    """
    grid = fld.grid
    if not (0 < x_idx < grid.n_x - 1):
        raise DomainError("apply_generator is defined at interior nodes only")
    s = fld.times[s_idx]
    xj = grid.x[x_idx]
    v = fld.values[s_idx]
    dv = (v[x_idx + 1, i - 1] - v[x_idx - 1, i - 1]) / (2 * grid.dx)
    d2v = (v[x_idx + 1, i - 1] - 2 * v[x_idx, i - 1] + v[x_idx - 1, i - 1]) / grid.dx**2
    u_arr = np.atleast_2d(np.asarray(u, dtype=float))
    x_arr = np.array([xj])
    b = float(np.asarray(dynamics.drift(s, x_arr, i, u_arr)).ravel()[0])
    sg = float(np.asarray(dynamics.diffusion(s, x_arr, i, u_arr)).ravel()[0])
    qv = 0.0
    if q_table is not None:
        qv = float(q_table[x_idx, i - 1] @ v[x_idx])
    return 0.5 * sg**2 * d2v + b * dv + qv


def heat_constants(problem, times):
    """Per-regime diffusion a_i of a constant-coefficient heat problem."""
    x = problem.grid.x
    a_const = []
    for i in range(problem.m):
        vals = np.broadcast_to(problem.a(times[0], x, i + 1), x.shape)
        later = np.broadcast_to(problem.a(times[-1], x, i + 1), x.shape)
        if np.ptp(vals) > 1e-14 or np.max(np.abs(vals - later)) > 1e-14:
            raise ConfigError("kernel oracle requires constant diffusion")
        if np.max(np.abs(np.broadcast_to(problem.beta(times[0], x, i + 1), x.shape))) > 0:
            raise ConfigError("kernel oracle requires zero drift")
        a_const.append(float(vals[0]))
    if problem.source is not None:
        raise ConfigError("kernel oracle requires zero source")
    if problem.q_table is not None and np.max(np.abs(problem.q_table)) > 0:
        raise ConfigError("kernel oracle requires zero regime coupling")
    return a_const


def quadrature(grid, a_i, horizon):
    """Trapezoid nodes y at dx/8, padded by eight kernel standard
    deviations, and their weights."""
    pad = 8.0 * np.sqrt(max(2 * a_i * horizon, 0.0)) + grid.dx
    fine_dx = grid.dx / QUADRATURE_REFINE
    y = np.arange(grid.x_min - pad, grid.x_max + pad + fine_dx / 2, fine_dx)
    w = np.full(len(y), y[1] - y[0])
    w[0] = w[-1] = w[0] / 2
    return y, w


def gaussian(dist, var):
    return np.exp(-dist**2 / (2 * var)) / np.sqrt(2 * np.pi * var)


def kernel_oracle(problem, times, terminal_fn):
    """Gaussian-kernel solution for constant-coefficient heat problems.

    Requires constant diffusion per regime, zero drift, zero source and
    zero coupling; the terminal datum ``terminal_fn(x, i)`` must be
    defined beyond the grid, on the quadrature nodes.
    """
    times = np.asarray(times, dtype=float)
    grid = problem.grid
    x = grid.x
    a_const = heat_constants(problem, times)
    T = times[-1]
    values = np.empty((len(times), grid.n_x, problem.m))
    for i in range(problem.m):
        y, w = quadrature(grid, a_const[i], T - times[0])
        f = np.asarray(terminal_fn(y, i + 1), dtype=float) * w
        # x_i - y_j = (x_0 - y_0) + (8i - j) dy for lags 8i - j in [-(n_y-1), 8(n_x-1)]
        lags = np.arange(1 - len(y), QUADRATURE_REFINE * (grid.n_x - 1) + 1)
        dist = (x[0] - y[0]) + lags * (y[1] - y[0])
        n_fft = 1 << (len(f) + len(lags) - 2).bit_length()   # no wrap-around
        f_hat = np.fft.rfft(f, n_fft)
        pick = len(y) - 1 + QUADRATURE_REFINE * np.arange(grid.n_x)
        for k, s in enumerate(times):
            var = 2 * a_const[i] * (T - s)
            if var <= 1e-300:
                values[k, :, i] = np.asarray(terminal_fn(x, i + 1))
                continue
            conv = np.fft.irfft(f_hat * np.fft.rfft(gaussian(dist, var), n_fft),
                                n_fft)
            values[k, :, i] = conv[pick]
    return ValueField(times, grid, values)
