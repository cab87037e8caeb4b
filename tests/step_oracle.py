"""Per-regime banded backward step, kept as a test oracle.

This is the backward step with one scipy ``solve_banded`` call per regime
in the predictor and again in the corrector, each regime's (2,2)-banded
matrix factorized on its own.  ``switchctl.pde._step`` stacks the m
matrices block-diagonally and factorizes them once per step; partial
pivoting never leaves a block, so the two agree bit for bit.  The
regime coupling is ``pde._qv`` and the source's x-derivative
``fields.d1`` in both, so the comparison isolates the banded solves.
Rows are regime-major, (R, m, n_x), as in the step.  The oracle forms
the coupling and the source on every node and adds their interior
values; the step forms them on the interior nodes only, which agrees
for a source that is pointwise in x.
"""

import numpy as np
from scipy.linalg import solve_banded

from switchctl.errors import NumericError
from switchctl.fields import BC_EXTRAPOLATE, d1
from switchctl.pde import _qv


def implicit_matrix(a_i, beta_i, dt, dx, bc, n_x):
    """(2,2)-banded matrix of I - dt/2 (a D2 + beta D1) with BC rows."""
    lower = -0.5 * dt * (a_i / dx**2 - beta_i / (2 * dx))
    diag = 1.0 + dt * a_i / dx**2
    upper = -0.5 * dt * (a_i / dx**2 + beta_i / (2 * dx))
    ab = np.zeros((5, n_x))
    ab[2, :] = diag
    ab[1, 1:] = upper[:-1]       # A[j, j+1]
    ab[3, :-1] = lower[1:]       # A[j, j-1]
    # boundary rows: identity (Dirichlet) or a vanishing second difference
    extrapolate = [edge == BC_EXTRAPOLATE for edge in bc]
    ab[2, [0, -1]] = 1.0
    ab[1, 1], ab[0, 2] = (-2.0, 1.0) if extrapolate[0] else (0.0, 0.0)
    ab[3, -2], ab[4, -3] = (-2.0, 1.0) if extrapolate[1] else (0.0, 0.0)
    return ab


def step_per_regime(v_next, s_lo, s_hi, grid, a, beta, q_table, sources,
                    edges):
    """``pde._step`` with one banded solve per regime and stage."""
    dt = s_hi - s_lo
    dx = grid.dx
    lap = (v_next[..., 2:] - 2 * v_next[..., 1:-1] + v_next[..., :-2]) / dx**2
    grad = (v_next[..., 2:] - v_next[..., :-2]) / (2 * dx)
    expl = v_next.copy()
    expl[..., 1:-1] += 0.5 * dt * (a[:, 1:-1] * lap + beta[:, 1:-1] * grad)
    for edge, j in ((0, 0), (1, -1)):
        expl[..., j] = 0.0 if grid.bc[edge] == BC_EXTRAPOLATE else edges[..., edge]
    mats = [implicit_matrix(a[i], beta[i], dt, dx, grid.bc, grid.n_x)
            for i in range(a.shape[0])]

    def solve(expl_extra):
        rhs = expl.copy()
        rhs[..., 1:-1] += dt * expl_extra[..., 1:-1]
        out = np.empty_like(rhs)
        for i, ab in enumerate(mats):
            try:
                out[:, i] = solve_banded((2, 2), ab, rhs[:, i].T).T
            except Exception as exc:  # LinAlgError and friends
                raise NumericError(f"linear solve failed at s={s_lo:g}: {exc}")
        return out

    qv1 = _qv(q_table, v_next)
    src1 = sources(s_hi, v_next, qv1, d1(v_next, dx))
    v_pred = solve(qv1 + src1)
    qv2 = _qv(q_table, v_pred)
    src2 = sources(s_lo, v_pred, qv2, d1(v_pred, dx))
    v_new = solve(0.5 * (qv1 + qv2) + 0.5 * (src1 + src2))
    if not np.all(np.isfinite(v_new)):
        raise NumericError(f"backward step produced non-finite values at "
                           f"s={s_lo:g}")
    return v_new
