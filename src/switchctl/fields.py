"""Grids and grid-backed fields shared by the PDE and simulation layers.

Regime labels are 1..m throughout the public API; the regime axis of
every array is the 0-based index ``label - 1``.  Value fields store
V[s_idx, x_idx, regime_idx] on a strictly increasing time grid; strategy
fields add a trailing control-component axis and interpolate bilinearly
in (s, x) with clamping to the control bounds.
"""

import json
import math
import os

import numpy as np

from .errors import ConfigError, DomainError

BC_EXTRAPOLATE = "extrapolate"
BC_DIRICHLET = "dirichlet"


class SpatialGrid:
    """Uniform 1-D grid on [x_min, x_max] with a boundary-condition tag per edge."""

    def __init__(self, x_min, x_max, n_x, bc=(BC_EXTRAPOLATE, BC_EXTRAPOLATE),
                 buffer_frac=0.15):
        if n_x < 3:
            raise ConfigError("n_x must be at least 3")
        if not x_max > x_min:
            raise ConfigError("x_max must exceed x_min")
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.n_x = int(n_x)
        self.dx = (self.x_max - self.x_min) / (self.n_x - 1)
        self.x = np.linspace(self.x_min, self.x_max, self.n_x)
        if isinstance(bc, str):
            bc = (bc, bc)
        for tag in bc:
            if tag not in (BC_EXTRAPOLATE, BC_DIRICHLET):
                raise ConfigError(f"unknown boundary tag '{tag}'")
        self.bc = tuple(bc)
        self.buffer_frac = float(buffer_frac)

    def interior_mask(self, buffer_frac=None):
        """Nodes at least ``buffer_frac`` of the width away from both edges."""
        frac = self.buffer_frac if buffer_frac is None else buffer_frac
        pad = frac * (self.x_max - self.x_min)
        return (self.x >= self.x_min + pad) & (self.x <= self.x_max - pad)

    def __eq__(self, other):
        return (isinstance(other, SpatialGrid) and self.n_x == other.n_x
                and self.x_min == other.x_min and self.x_max == other.x_max)


def time_grid(t0, t1, n_steps):
    """Uniform time grid with ``n_steps`` intervals from t0 to t1."""
    if not t1 > t0:
        raise ConfigError("time grid needs t1 > t0")
    if n_steps < 1:
        raise ConfigError("time grid needs at least one step")
    return np.linspace(float(t0), float(t1), int(n_steps) + 1)


def node_index(times, s):
    """Index of the node of ``times`` within 1e-9 of ``s``; ConfigError
    if there is none."""
    k = int(np.argmin(np.abs(np.asarray(times) - s)))
    if abs(times[k] - s) > 1e-9:
        raise ConfigError(f"time {s:g} is not a node of the time grid")
    return k


def regime_index(i, m):
    """The 0-based regime axis index of label ``i``; a DomainError that
    names the label unless it is one of 1..m."""
    try:
        ok = 0 < i <= m and i == int(i)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise DomainError(f"regime label {i!r} is not in 1..{m}")
    return int(i) - 1


def d1(values, dx, axis=-1):
    """First derivative, central inside, one-sided second order at edges."""
    v = np.asarray(values, dtype=float).swapaxes(axis, -1)
    out = np.empty_like(v)
    out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2 * dx)
    out[..., 0] = (-3 * v[..., 0] + 4 * v[..., 1] - v[..., 2]) / (2 * dx)
    out[..., -1] = (3 * v[..., -1] - 4 * v[..., -2] + v[..., -3]) / (2 * dx)
    return out.swapaxes(axis, -1)


def d2(values, dx, axis=-1):
    """Second derivative, central inside, one-sided second order at edges."""
    v = np.asarray(values, dtype=float).swapaxes(axis, -1)
    out = np.empty_like(v)
    out[..., 1:-1] = (v[..., 2:] - 2 * v[..., 1:-1] + v[..., :-2]) / dx**2
    out[..., 0] = (2 * v[..., 0] - 5 * v[..., 1] + 4 * v[..., 2] - v[..., 3]) / dx**2
    out[..., -1] = (2 * v[..., -1] - 5 * v[..., -2] + 4 * v[..., -3]
                    - v[..., -4]) / dx**2
    return out.swapaxes(axis, -1)


def _bracket(nodes, value):
    """Index k and weight w with value = (1-w)*nodes[k] + w*nodes[k+1]."""
    if value < nodes[0] - 1e-12 or value > nodes[-1] + 1e-12:
        raise DomainError(f"query {value:g} outside grid [{nodes[0]:g}, {nodes[-1]:g}]")
    k = int(np.clip(np.searchsorted(nodes, value, side="right") - 1, 0, len(nodes) - 2))
    w = (value - nodes[k]) / (nodes[k + 1] - nodes[k])
    return k, float(np.clip(w, 0.0, 1.0))


class ValueField:
    """Grid values V[s_idx, x_idx, regime_idx] over a shared time grid."""

    def __init__(self, times, grid, values):
        self.times = np.asarray(times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("time grid must be strictly increasing")
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        if self.values.shape[:2] != (len(self.times), grid.n_x):
            raise ConfigError(
                f"field shape {self.values.shape} does not match grids "
                f"({len(self.times)}, {grid.n_x}, m)")
        self.m = self.values.shape[2]

    def time_index(self, s):
        return node_index(self.times, s)

    def at(self, s, x, i):
        """Bilinear interpolation in (s, x) for regime label i; a label
        outside 1..m is a DomainError."""
        col = regime_index(i, self.m)
        k, ws = _bracket(self.times, s)
        x = np.asarray(x, dtype=float)
        lo = np.interp(x, self.grid.x, self.values[k, :, col])
        hi = np.interp(x, self.grid.x, self.values[k + 1, :, col])
        return (1 - ws) * lo + ws * hi

    def sup_diff(self, other, interior=None):
        """Sup-norm difference over an optional interior node mask."""
        diff = np.abs(self.values - other.values)
        if interior is not None:
            diff = diff[:, interior, :]
        return float(np.max(diff))

    def to_csv(self, path):
        """Long-format CSV: s, x, i, value. Regime labels are 1..m."""
        write_csv(path, ("s", "x", "i", "value"),
                  (*_node_columns(self.times, self.grid, self.m), self.values))

    def to_binary(self, path):
        """JSON header line + little-endian float64 dump (C order)."""
        header = {
            "kind": "value_field",
            "t0": self.times[0],
            "t1": self.times[-1],
            "n_t": len(self.times) - 1,
            "x_min": self.grid.x_min,
            "x_max": self.grid.x_max,
            "n_x": self.grid.n_x,
            "m": self.m,
            "shape": list(self.values.shape),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.write(self.values.astype("<f8").tobytes(order="C"))

    @classmethod
    def from_binary(cls, path):
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
            raw = fh.read()
        values = np.frombuffer(raw, dtype="<f8").reshape(header["shape"])
        grid = SpatialGrid(header["x_min"], header["x_max"], header["n_x"])
        times = time_grid(header["t0"], header["t1"], header["n_t"])
        return cls(times, grid, values.copy())


class FeedbackStrategy:
    """Grid-backed feedback map (s, x, i) -> control in U.

    Controls may be vector valued; ``values`` has shape
    (n_t, n_x, m, control_dim).  Interpolation is bilinear in (s, x) and
    the result is clamped componentwise to the control bounds.
    """

    def __init__(self, times, grid, values, bounds=None, names=None):
        self.times = np.asarray(times, dtype=float)
        self.grid = grid
        values = np.asarray(values, dtype=float)
        if values.ndim == 3:
            values = values[..., None]
        self.values = values
        self.m = values.shape[2]
        self.control_dim = values.shape[3]
        if bounds is None:
            bounds = [(-np.inf, np.inf)] * self.control_dim
        self.bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        self.names = list(names) if names else [f"u{k}" for k in range(self.control_dim)]

    def __call__(self, s, x, i):
        """Control at (s, x-array, regime label i); shape (len(x), control_dim).

        ``s`` is one time for every point of x, or an array of one time
        per point.  A label outside 1..m is a DomainError.
        """
        col = regime_index(i, self.m)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        s = np.asarray(s, dtype=float)
        times = self.times
        if np.any(s < times[0] - 1e-12) or np.any(s > times[-1] + 1e-12):
            raise DomainError("time query outside the strategy's time grid")
        ks = np.clip(np.searchsorted(times, s, side="right") - 1,
                     0, len(times) - 2)
        ws = np.broadcast_to(np.clip(
            (s - times[ks]) / (times[ks + 1] - times[ks]), 0.0, 1.0), x.shape)
        out = np.empty((x.shape[0], self.control_dim))
        for k in np.unique(ks):
            # a scalar s puts every point in one bracket
            sel = slice(None) if ks.ndim == 0 else ks == k
            for c in range(self.control_dim):
                lo = np.interp(x[sel], self.grid.x, self.values[k, :, col, c])
                hi = np.interp(x[sel], self.grid.x, self.values[k + 1, :, col, c])
                out[sel, c] = np.clip((1 - ws[sel]) * lo + ws[sel] * hi,
                                      self.bounds[c][0], self.bounds[c][1])
        return out

    def node_values(self, k):
        """Clamped control values at time node k; shape (n_x, m, control_dim)."""
        out = self.values[k].copy()
        for c in range(self.control_dim):
            out[..., c] = np.clip(out[..., c], self.bounds[c][0], self.bounds[c][1])
        return out

    def sup_diff(self, other, interior=None):
        diff = np.abs(self.values - other.values)
        if interior is not None:
            diff = diff[:, interior]
        return float(np.max(diff))

    def to_csv(self, path):
        """Long-format CSV: s, x, i, then one column per control component."""
        write_csv(path, ("s", "x", "i", *self.names),
                  (*_node_columns(self.times, self.grid, self.m),
                   *np.moveaxis(self.values, -1, 0)))


def as_policy(policy, control_dim):
    """Any policy form as a feedback map f(s, x, i) -> (len(x), control_dim).

    None is the zero control; a number or a sequence of numbers is a
    constant of exactly ``control_dim`` entries; a callable, a
    FeedbackStrategy included, is called, and a 1-D result becomes one
    column.  Anything else, or a constant of another size, is a
    ConfigError.
    """
    if callable(policy):
        def f(s, x, i):
            out = np.asarray(policy(s, x, i), dtype=float)
            return out[:, None] if out.ndim == 1 else out

        return f
    try:
        const = (np.zeros(control_dim) if policy is None
                 else np.ravel(policy).astype(float))
    except (TypeError, ValueError):
        raise ConfigError("a policy must be None, a number, a sequence of numbers "
                          f"or a callable f(s, x, i), got {policy!r}") from None
    if const.size != control_dim:
        raise ConfigError(f"a constant control needs {control_dim} entries, "
                          f"got {const.size}")

    def f(s, x, i):
        return np.broadcast_to(const, (len(np.atleast_1d(x)), control_dim)).copy()

    return f


# lines joined and written per block: large enough to amortize the
# per-block numpy calls, small enough that the joined text stays small
CSV_BLOCK = 256


def write_csv(path, header, columns):
    """Long-format CSV: the names in ``header``, then one line per element
    of the broadcast ``columns`` in C order.  Floats are written as
    ``repr`` of the Python float, integers as integers.

    A broadcast column is formatted once per distinct entry, on its own
    array, and a full column block by block, so the text held in memory
    stays bounded; each entry carries its separator, and a block's lines
    are the columns' texts summed as object arrays.
    """
    write_csv_blocks(path, header, [columns])


def write_csv_blocks(path, header, blocks):
    """``write_csv`` of the lines of each column tuple in ``blocks``, one
    tuple after the other; ``blocks`` may be a generator, so that only
    one tuple's columns are held at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            _write_lines(fh, columns)


def _write_lines(fh, columns):
    columns = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    n_lines = math.prod(shape)
    parts = []          # (flat entries, separator still to append or None)
    for k, c in enumerate(columns):
        end = "\n" if k == len(columns) - 1 else ","
        if c.size < n_lines:
            parts.append((np.broadcast_to(_csv_text(c, end), shape).flat, None))
        else:
            parts.append((np.broadcast_to(c, shape).flat, end))
    for start in range(0, n_lines, CSV_BLOCK):
        block = slice(start, start + CSV_BLOCK)
        texts = [flat[block] if end is None else _csv_text(flat[block], end)
                 for flat, end in parts]
        lines = texts[0]
        for text in texts[1:]:
            lines = lines + text
        fh.write("".join(lines.tolist()))


def _csv_text(values, end):
    """``repr(v) + end`` for every entry, as an object array of the same shape."""
    out = np.empty(values.shape, dtype=object)
    out.flat[:] = [repr(v) + end for v in values.ravel().tolist()]
    return out


def _node_columns(times, grid, m):
    """(s, x, regime label) columns that broadcast over (n_t, n_x, m)."""
    return times[:, None, None], grid.x[:, None], np.arange(1, m + 1)


def physical_memory_bytes():
    """Physical memory of the machine, or None where sysconf cannot tell."""
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return total if total > 0 else None


def two_time_bytes(n_t, n_x, m, n_rows=None):
    """Bytes of the float64 array behind a TwoTimeField of ``n_rows``
    anchor rows (all n_t by default)."""
    return 8 * (n_t if n_rows is None else n_rows) * n_t * n_x * m


def refuse_oversized(need, what):
    """ConfigError when ``need`` bytes exceed half the physical memory;
    ``what`` names the allocation and its grid."""
    total = physical_memory_bytes()
    if total is not None and need > total // 2:
        raise ConfigError(
            f"{what} needs {need} bytes, more than half of the {total} "
            f"bytes of physical memory (coarsen the grid)")


class TwoTimeField:
    """Two-time field Theta[row, s_idx, x_idx, regime_idx] on kept anchor rows.

    Rows share the single global time grid; the row anchored at
    times[tau_idx] is defined for s_idx >= tau_idx (NaN below).  By
    default every anchor is kept, so ``values`` is the n_t x n_t
    triangle and its diagonal Theta(s, s, x, i) an exact array diagonal;
    ``rows`` keeps only the listed anchor indices, in increasing order
    (``anchor_rows``), and ``row`` finds them.  A field larger than half
    the physical memory is refused with a ConfigError before it is
    allocated.
    """

    def __init__(self, times, grid, m, rows=None):
        self.times = np.asarray(times, dtype=float)
        self.grid = grid
        self.m = m
        n_t = len(self.times)
        self.anchor_rows = np.arange(n_t) if rows is None else \
            np.unique(np.asarray(rows, dtype=np.int64))
        if len(self.anchor_rows) and not (
                0 <= self.anchor_rows[0] and self.anchor_rows[-1] < n_t):
            raise ConfigError(f"anchor rows {self.anchor_rows.tolist()} "
                              f"outside the {n_t} time nodes")
        self._slot = {int(j): r for r, j in enumerate(self.anchor_rows)}
        n_rows = len(self.anchor_rows)
        refuse_oversized(two_time_bytes(n_t, grid.n_x, m, n_rows),
                         f"two-time field on n_t={n_t} times x "
                         f"n_x={grid.n_x} nodes x m={m} regimes")
        self.values = np.full((n_rows, n_t, grid.n_x, m), np.nan)

    def row(self, tau_idx):
        """Row anchored at times[tau_idx] as a ValueField on [tau, T]; a
        DomainError if that row was not kept."""
        try:
            slot = self._slot[int(tau_idx)]
        except KeyError:
            raise DomainError(
                f"the two-time row anchored at s={self.times[tau_idx]:g} "
                f"was not kept (kept rows: {self.anchor_rows.tolist()})") \
                from None
        return ValueField(self.times[tau_idx:], self.grid,
                          self.values[slot, tau_idx:])

    def set_row(self, tau_idx, values):
        self.row(tau_idx).values[...] = values

    def diagonal(self):
        """Theta(s, s, x, i) as a ValueField over the whole time grid."""
        n_t = len(self.times)
        diag = np.stack([self.row(k).values[0] for k in range(n_t)])
        return ValueField(self.times, self.grid, diag)
