"""State-dependent switching geometry.

A regime chain on M = {1, ..., m} is driven by a unit-mass Poisson mark
process: regime i jumps to j when the mark theta falls into the interval
Delta_ij(x) = [beta_{i,j-1}(x), beta_ij(x)), where x is the current
state.  Each row i of the threshold table must be nondecreasing in j,
satisfy beta_{i,i-1} = beta_ii (so Delta_ii is always empty), and stay
inside [-beta0, beta0].  Rows are placed independently of one another:
only the intervals of the *current* regime's row compete for a mark, so
no cross-row constraint is needed or enforced.

Jump rates are q_ij(x) = pi(Delta_ij(x)) for a mark density pi_0 that is
normalized to total mass one; diagonals are minus the row sums, which
makes Q(x) a proper generator matrix.
"""

import numpy as np

from .errors import GeometryError, NumericError

_ORDER_TOL = 1e-12


def _as_callable(f):
    if callable(f):
        return f
    value = float(f)
    return lambda x, _v=value: np.full_like(np.asarray(x, dtype=float), _v)


class RegimeGeometry:
    """Threshold table beta_ij(x) defining the mark intervals.

    Parameters
    ----------
    rows : sequence of sequences
        ``rows[i-1][j]`` is beta_ij for j = 0..m (callables of x or
        constants).  Row i must satisfy beta_{i,i-1} = beta_ii.
    beta0 : float
        Mark-space half width; all thresholds must lie in [-beta0, beta0].

    The ordering is checked on 201 states evenly spaced over [-5, 5].
    """

    def __init__(self, rows, beta0):
        self.m = len(rows)
        if self.m < 1:
            raise GeometryError("at least one regime is required")
        for row in rows:
            if len(row) != self.m + 1:
                raise GeometryError(
                    f"each threshold row needs {self.m + 1} entries, got {len(row)}")
        self.beta0 = float(beta0)
        if self.beta0 <= 0:
            raise GeometryError("beta0 must be positive")
        self.rows = [[_as_callable(f) for f in row] for row in rows]
        self._validate(np.linspace(-5.0, 5.0, 201))

    def threshold(self, i, j, x):
        """beta_ij(x) for regime label i in 1..m and j in 0..m."""
        return np.asarray(self.rows[i - 1][j](np.asarray(x, dtype=float)), dtype=float)

    def _validate(self, xs):
        for i in range(1, self.m + 1):
            vals = np.stack([self.threshold(i, j, xs) for j in range(self.m + 1)])
            if np.any(np.abs(vals) > self.beta0 + _ORDER_TOL):
                k = int(np.argmax(np.max(np.abs(vals), axis=0) > self.beta0 + _ORDER_TOL))
                raise GeometryError(
                    f"threshold row {i} leaves [-beta0, beta0] at x={xs[k]:g}")
            diffs = np.diff(vals, axis=0)
            if np.any(diffs < -_ORDER_TOL):
                j, k = np.argwhere(diffs < -_ORDER_TOL)[0]
                raise GeometryError(
                    f"chain ordering violated: beta_{i}{j}(x) > beta_{i}{j + 1}(x) "
                    f"at (i={i}, j={j + 1}, x={xs[k]:g})")
            gap = np.abs(vals[i] - vals[i - 1])
            if np.any(gap > _ORDER_TOL):
                k = int(np.argmax(gap))
                raise GeometryError(
                    f"beta_{i}{i - 1} must equal beta_{i}{i} (Delta_ii empty); "
                    f"differs at x={xs[k]:g}")

    def interval(self, i, j, x):
        """Half-open mark interval Delta_ij(x) as ``(lo, hi)``.

        Empty intervals are returned as ``None``.  Reversed endpoints
        are an ordering violation and raise GeometryError.
        """
        if not (1 <= i <= self.m and 1 <= j <= self.m):
            raise GeometryError(f"regime labels must lie in 1..{self.m}, got ({i}, {j})")
        lo = float(self.threshold(i, j - 1, x))
        hi = float(self.threshold(i, j, x))
        if hi < lo - _ORDER_TOL:
            raise GeometryError(
                f"reversed interval endpoints for (i={i}, j={j}, x={x:g})")
        if hi <= lo:
            return None
        return (lo, hi)

    def mark_to_jump(self, x, i, theta):
        """Post-jump regime for a mark theta seen in regime i at state x."""
        if abs(theta) > self.beta0:
            raise GeometryError(
                f"mark theta={theta:g} outside [-beta0, beta0]")
        hit = None
        for j in range(1, self.m + 1):
            iv = self.interval(i, j, x)
            if iv is not None and iv[0] <= theta < iv[1]:
                if hit is not None:
                    raise GeometryError(
                        f"mark theta={theta:g} lies in two intervals for "
                        f"(i={i}, x={x:g}); intervals must be disjoint")
                hit = j
        return i if hit is None else hit

    def mark_to_jump_array(self, x, i, theta):
        """Vectorized mark_to_jump: x, i, theta are equal-length arrays.

        Relies on the validated row ordering (intervals of one row are
        disjoint by construction), so the first hit wins.
        """
        x = np.asarray(x, dtype=float)
        i = np.asarray(i)
        theta = np.asarray(theta, dtype=float)
        out = i.copy()
        for lab in range(1, self.m + 1):
            mask = i == lab
            if not np.any(mask):
                continue
            xs = x[mask]
            ths = theta[mask]
            res = out[mask]
            prev = np.asarray(self.rows[lab - 1][0](xs), dtype=float)
            undecided = np.ones(xs.shape, dtype=bool)
            for j in range(1, self.m + 1):
                cur = np.asarray(self.rows[lab - 1][j](xs), dtype=float)
                hit = undecided & (prev <= ths) & (ths < cur)
                res[hit] = j
                undecided &= ~hit
                prev = cur
            out[mask] = res
        return out


class LevyMeasure:
    """Mark density pi_0 on [-beta0, beta0], normalized to total mass one.

    The density must be nonnegative; the total mass is verified by
    quadrature at construction.  ``sample_from_uniform`` maps uniforms
    through the numerically inverted CDF, which keeps mark draws a
    deterministic function of the underlying random stream.
    """

    def __init__(self, density, beta0, interval_mass_bound=None):
        self.density = _as_callable(density)
        self.beta0 = float(beta0)
        self.interval_mass_bound = interval_mass_bound
        grid = np.linspace(-self.beta0, self.beta0, 4097)
        dens = np.asarray(self.density(grid), dtype=float)
        if np.any(dens < 0):
            raise NumericError("mark density must be nonnegative")
        total = self.measure(-self.beta0, self.beta0)
        if abs(total - 1.0) > 1e-8:
            raise NumericError(
                f"mark density must integrate to 1 over [-beta0, beta0]; got {total:.3e}")
        self.total_mass = 1.0
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
        cdf /= cdf[-1]
        self._cdf_grid = grid
        self._cdf = cdf

    def measure(self, lo, hi):
        """Integral of pi_0 over [lo, hi), 0 if empty, by adaptive Simpson."""
        if hi <= lo:
            return 0.0
        lo = max(lo, -self.beta0)
        hi = min(hi, self.beta0)
        if hi <= lo:
            return 0.0
        return _adaptive_simpson(self.density, lo, hi, 1e-10)

    def interval_measure(self, iv):
        return 0.0 if iv is None else self.measure(iv[0], iv[1])

    def sample_from_uniform(self, u):
        """Inverse-CDF transform of uniforms in [0, 1) to marks."""
        u = np.asarray(u, dtype=float)
        return np.interp(u, self._cdf, self._cdf_grid)


def _adaptive_simpson(f, a, b, tol):
    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = (lo + hi) / 2.0
        lm, rm = (lo + mid) / 2.0, (mid + hi) / 2.0
        flm, frm = float(f(lm)), float(f(rm))
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth >= 48:
            raise NumericError(
                f"quadrature failed to converge on [{lo:g}, {hi:g}] at tol {tol:g}")
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, flm, fmid, left, tol / 2.0, depth + 1)
                + recurse(mid, hi, fmid, frm, fhi, right, tol / 2.0, depth + 1))

    fa, fb = float(f(a)), float(f(b))
    fm = float(f((a + b) / 2.0))
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def rate_matrix(geometry, levy, x):
    """Generator matrix Q(x): q_ij = pi(Delta_ij(x)), diagonal = -row sum."""
    m = geometry.m
    q = np.zeros((m, m))
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i == j:
                continue
            q[i - 1, j - 1] = levy.interval_measure(geometry.interval(i, j, x))
        q[i - 1, i - 1] = -np.sum(q[i - 1])
    if levy.interval_mass_bound is not None:
        if np.any(q - np.diag(np.diag(q)) > levy.interval_mass_bound + 1e-12):
            raise NumericError(
                f"an interval mass exceeds the configured bound "
                f"{levy.interval_mass_bound:g} at x={x:g}")
    return q


def rate_matrix_table(geometry, levy, xs):
    """Q(x) stacked over a state array; shape (len(xs), m, m)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return np.stack([rate_matrix(geometry, levy, float(x)) for x in xs])


def interval_measure_gap(geometry, levy, i, j, x, delta):
    """Mass of (Delta^delta \\ Delta) and (Delta \\ Delta^-delta) at x.

    The inflated/deflated intervals extremize the endpoints over the
    ball |y - x| <= delta, searched on 64 points.  Used to
    estimate the Lipschitz constant of x -> pi(Delta_ij(x)) empirically.
    """
    if delta < 0:
        raise GeometryError("delta must be nonnegative")
    if delta == 0:
        return (0.0, 0.0)
    ys = np.linspace(x - delta, x + delta, 64)
    lo_all = geometry.threshold(i, j - 1, ys)
    hi_all = geometry.threshold(i, j, ys)
    lo = float(geometry.threshold(i, j - 1, x))
    hi = float(geometry.threshold(i, j, x))
    lo_out, hi_out = float(np.min(lo_all)), float(np.max(hi_all))
    lo_in, hi_in = float(np.max(lo_all)), float(np.min(hi_all))
    if hi <= lo:
        gap_out = levy.measure(lo_out, hi_out)
        return (gap_out, 0.0)
    gap_out = levy.measure(lo_out, lo) + levy.measure(hi, hi_out)
    if hi_in <= lo_in:
        gap_in = levy.measure(lo, hi)
    else:
        gap_in = levy.measure(lo, lo_in) + levy.measure(hi_in, hi)
    return (gap_out, gap_in)
