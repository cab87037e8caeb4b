"""Per-stage-call phi integrations, kept as a test oracle.

This is the phi layer as it was before the stage tables: the equilibrium
march rebuilds the Lagrange weights of the diagonal, g(s, s) and the
column g(tau_rows, s) inside every right-hand-side call, and the
partition mirror evaluates each player's consumption rate by one scalar
spline call per regime and stage.  ``switchctl.merton`` tables all of it
once per step (per segment for the partition mirror); elementwise
float64 arithmetic does not fuse, so the two agree bit for bit.  The
march keeps the dense (n, n, m) triangle and returns it as a plain
record with PhiSolution's attribute names, so it is also the oracle of
the packed level layout.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy.interpolate import CubicSpline

from switchctl.errors import ConvergenceError, NumericError
from switchctl.merton import PartitionPhi
from switchctl.partition import Partition


def _rk4_step(rhs, s_hi, s_lo, y):
    dt = s_lo - s_hi  # negative
    k1 = rhs(s_hi, y)
    k2 = rhs(s_hi + dt / 2, y + dt / 2 * k1)
    k3 = rhs(s_hi + dt / 2, y + dt / 2 * k2)
    k4 = rhs(s_lo, y + dt * k3)
    y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    if np.any(y <= 0) or not np.all(np.isfinite(y)):
        raise NumericError(
            f"phi integration left the positive cone at s={s_lo:g}; "
            f"the weights do not define a valid problem")
    return y


def _rk4_backward(times, terminal, rhs):
    out = np.full((len(times),) + np.shape(terminal), np.nan)
    out[-1] = terminal
    y = np.asarray(terminal, dtype=float)
    for k in range(len(times) - 1, 0, -1):
        y = _rk4_step(rhs, times[k], times[k - 1], y)
        out[k - 1] = y
    return out


def _lagrange(nodes, values, s):
    return sum(math.prod((s - t) / (t_j - t) for t in nodes if t != t_j) * v_j
               for t_j, v_j in zip(nodes, values))


def solve_equilibrium_ode(spec, times, tol=1e-12, max_iter=200):
    times = np.asarray(times, dtype=float)
    n = len(times)
    A = spec.drift_gain()
    gam = spec.gamma
    phi = np.full((n, n, spec.m), np.nan)
    phi[:, -1, :] = np.asarray(spec.h(times), dtype=float)[:, None]
    log = []

    def step(k, rows, d_lo):
        nodes = times[k - 1:k + 3]
        diag = [d_lo] + [phi[j, j] for j in range(k, min(k + 3, n))]

        def rhs(s, y):
            d = _lagrange(nodes, diag, s)
            if np.any(d <= 0):
                raise NumericError("diagonal phi left the positive cone")
            r = float(spec.g(s, s)) / d
            gres = np.asarray(spec.g(times[rows], s), dtype=float)[:, None]
            return -(A * y - gam * y * r ** (1 / (1 - gam))
                     + gres * r ** (gam / (1 - gam)) + y @ spec.q.T)

        return _rk4_step(rhs, times[k], times[k - 1], phi[rows, k])

    for k in range(n - 1, 0, -1):
        d_lo = phi[k, k]
        for rnd in range(max_iter):
            new = step(k, slice(k - 1, k), d_lo)[0]
            change = float(np.max(np.abs(new - d_lo)))
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
        phi[:k, k - 1] = step(k, slice(0, k), d_lo)
    idx = np.arange(n)
    return SimpleNamespace(times=times, eq=phi, eq_diag=phi[idx, idx],
                           iterations=log)


def partition_phi(spec, knots, times):
    times = np.asarray(times, dtype=float)
    knots = np.asarray(knots, dtype=float)
    n = len(times)
    N = len(knots) - 1
    kidx = Partition(knots).knot_indices(times)
    gam = spec.gamma
    frac = spec.investment_fraction()
    value = np.full((n, spec.m), np.nan)
    rows = {}
    interval_kappa = [None] * N

    def optimal_rhs(tau):
        A = spec.drift_gain()

        def rhs(s, y):
            gs = float(spec.g(tau, s))
            return -(A * y + (1 - gam) * gs ** (1 / (1 - gam))
                     * y ** (gam / (gam - 1)) + y @ spec.q.T)
        return rhs

    def cost_rhs(tau, kappa):
        def rhs(s, y):
            ka = np.asarray(kappa(s), dtype=float)
            lin = (gam * (spec.b * frac - ka)
                   + 0.5 * spec.sigma**2 * frac**2 * gam * (gam - 1))
            return -(lin * y + y @ spec.q.T + float(spec.g(tau, s)) * ka**gam)
        return rhs

    for k in range(N, 0, -1):
        a_idx, b_idx = kidx[k - 1], kidx[k]
        tau = knots[k - 1]
        tail = np.full((n, spec.m), np.nan)
        if k < N:
            y = float(spec.h(tau)) * np.ones(spec.m)
            for seg in range(N - 1, k - 1, -1):
                lo, hi = kidx[seg], kidx[seg + 1]
                block = _rk4_backward(times[lo:hi + 1], y,
                                      cost_rhs(tau, interval_kappa[seg]))
                tail[lo:hi + 1] = block
                y = block[0]
            terminal = tail[b_idx]
        else:
            terminal = float(spec.h(tau)) * np.ones(spec.m)
        seg_times = times[a_idx:b_idx + 1]
        own = _rk4_backward(seg_times, terminal, optimal_rhs(tau))
        row = np.full((n, spec.m), np.nan)
        row[a_idx:b_idx + 1] = own
        if k < N:
            row[b_idx:] = tail[b_idx:]
        rows[k] = row
        value[a_idx:b_idx + 1] = own
        if k < N:
            value[b_idx] = rows[k + 1][b_idx]

        splines = [CubicSpline(seg_times, own[:, i]) for i in range(spec.m)]

        def seg_kappa(s, _sp=splines, _tau=tau):
            phi = np.array([max(float(sp(s)), 1e-300) for sp in _sp])
            return (float(spec.g(_tau, s)) / phi) ** (1 / (1 - gam))

        interval_kappa[k - 1] = seg_kappa
    return PartitionPhi(times=times, knots=knots, value=value, rows=rows)
