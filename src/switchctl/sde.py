"""Monte Carlo engine for the coupled state/regime dynamics.

The regime chain rides a unit-rate Poisson clock (the mark measure has
total mass one), so jump times are drawn exactly as exponential
inter-arrivals and merged into the Euler grid as extra nodes.  Between
nodes X follows an Euler-Maruyama update under the current regime; at a
jump time X is first diffused to the jump time and only then is the
regime updated from the mark, evaluated at the post-diffusion state.

Randomness is organized as counter-based per-path streams: path p of a
run with seed s draws from ``Philox(key=[s, p])``, consuming, in order,
its jump inter-arrival times, one uniform per in-horizon jump (mapped
through the mark CDF), and one standard normal per sub-interval of its
merged grid.  Ensembles are therefore order-independent across paths
and bit-reproducible for a fixed seed.

The contract is per path; the implementation is per chunk and block.
``_Noise`` builds one generator per chunk and moves it between paths by
copying 14 words: numpy's Philox state struct (counter and key
pointers, buffer position, buffer) and the key and counter stored right
after it.  A path enters its stream, in the state of a fresh
``Philox(key=[s, p])``, by one copy of a template row that holds its
index in the key word, so no Philox is constructed per path; the layout
is checked against numpy's public state once per chunk, before any
draw.  Jump times and marks are drawn for the whole horizon.  Normals
are drawn B base steps at a time into a time-major window of the chunk's
paths, with B set by the window's byte budget (256 steps at 8192 paths),
and each path's stream is paused between blocks as a copy of its words.
A block draws one normal per base step and per jump up to its end node,
which bounds what the path consumes there; a normal that a zero-length
sub-step (a jump at a node, two jumps at one time) left unconsumed
carries over to the next block.  Drawing a stream in pieces yields the
same values as drawing it at once, so every path consumes the same
normals in the same order whatever B is, and memory grows with B, not
with the horizon.

One loop, ``_march``, walks the merged grid for every entry point.  It
advances K state copies of each path (K = 1 for ensembles and single
paths, K = 2 for the common-random-number coupling), and all copies of
path p consume path p's stream.  ``simulate_path`` records the base
nodes and the regime-changing jumps in event order as its merged grid.

The loop is node-synchronous: every path sits at base node s_k when
interval k starts.  The controls are evaluated there once per regime at
the scalar s_k, handed to the node hooks, and used for one sub-step of
every path, to its next jump or to s_{k+1}; only paths that jumped take
further sub-steps.  Paths are gathered by integer index arrays through
1-D views: one per state copy and per control column, and flat views of
the normals window and the jump tables.  Each path takes the same
sub-steps with the same normals whatever the grouping, so with
elementwise coefficients and policies the outputs do not depend on it.
"""

import ctypes
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .fields import as_policy, write_csv

_MAX_JUMP_DRAWS = 4096
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
# a chunk's normals window holds B base steps of every path, B the most
# that fits here: 256 steps at 8192 paths
_NORMALS_BLOCK_BYTES = 16 << 20
# a Philox position as uint64 words: numpy's philox_state struct (counter
# and key pointers, buffer_pos, the 4-word buffer, has_uint32 and
# uinteger), then the key and the counter the generator stores after it
_STATE_WORDS = 14
_KEY_WORD = 9           # key[1], the path index
# the row-major tile that paths draw their blocks into before its
# transposed copy into the window: at most this many paths and, unless a
# single path's block is larger, this many bytes
_TILE_PATHS = 512
_TILE_BYTES = 4 << 20


def path_stream(seed, path_index):
    """Generator for the (seed, path_index) counter-based stream.

    Every path of a run draws from this stream, whatever the chunking.
    ``_Noise`` opens it once per chunk and moves the generator to each
    path's stream and position instead of calling this per path.
    """
    key = np.array([np.uint64(seed & _MASK64), np.uint64(path_index)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class ControlledDynamics:
    """Scalar controlled drift/diffusion pair with m regimes.

    ``drift`` and ``diffusion`` must be vectorized: they receive s (scalar
    or array), x (array), a regime label i in 1..m, and u of shape
    (len(x), control_dim), and return arrays shaped like x.
    """

    drift: callable
    diffusion: callable
    m: int
    control_dim: int = 1


@dataclass
class JumpRecord:
    time: float
    mark: float
    regime_from: int
    regime_to: int
    state: float


@dataclass
class Path:
    """One sampled trajectory on the merged (Euler + jump) grid."""

    times: np.ndarray
    states: np.ndarray
    regimes: np.ndarray
    jumps: list
    seed: int
    path_index: int

    def to_csv(self, path):
        write_csv(path, ("t", "X", "alpha"), (self.times, self.states, self.regimes))

    def jump_log(self):
        return [
            {"time": j.time, "mark": j.mark, "from": j.regime_from,
             "to": j.regime_to, "state": j.state}
            for j in self.jumps
        ]


@dataclass
class EnsembleResult:
    nodes: np.ndarray
    state_T: np.ndarray
    regime_T: np.ndarray
    n_jumps: np.ndarray
    states: np.ndarray = None     # (n_paths, n_nodes) if recorded
    regimes: np.ndarray = None


def _state_words(bitgen):
    """A uint64 view of the Philox position of ``bitgen``, in 14 words.

    Copying a row into the view moves the generator to the position the
    row holds, and copying the view out pauses the stream there.  The
    view aliases the generator's memory: whoever holds it holds the
    generator too.  Words 0 and 1 point into that memory, so a row goes
    back only into the view it came from.  The layout is numpy's, not its
    public API, so it is checked against one read of the public state.
    Only 64-bit draws are made, so no half-used 32-bit word is ever
    pending.
    """
    address = bitgen.ctypes.state_address
    words = np.frombuffer((ctypes.c_uint64 * _STATE_WORDS).from_address(address),
                          dtype=np.uint64)
    st = bitgen.state
    # words 0 and 1 point at the counter (word 10) and the key (word 8)
    public = [address + 80, address + 64, st["buffer_pos"], *st["buffer"],
              *st["state"]["key"], *st["state"]["counter"]]
    seen = [words[0], words[1], words[2] & 0xFFFF_FFFF, *words[3:7], *words[8:]]
    if [int(w) for w in seen] != [int(w) for w in public]:
        raise NumericError(f"numpy {np.__version__} lays out the Philox state "
                           f"differently from the {_STATE_WORDS} words through "
                           f"which Monte Carlo streams are paused")
    return words


def _jump_columns(horizon):
    """Jump columns to allocate before any path is drawn.

    A unit-rate Poisson count on ``horizon`` exceeds this with
    probability below about 1e-9, so widening is rare.
    """
    return int(horizon + 6.0 * np.sqrt(horizon)) + 8


def _widen(a, cols, fill):
    out = np.full((a.shape[0], cols), fill)
    out[:, :a.shape[1]] = a
    return out


def _arrivals(gen, first, horizon):
    """A path's jump times after t0 within ``horizon``, on its unit-rate clock.

    ``first`` holds the path's first 8 inter-arrival times; more are drawn
    in eights until the clock passes the horizon.
    """
    cum = np.cumsum(first)
    while cum[-1] <= horizon:
        if len(cum) >= _MAX_JUMP_DRAWS:
            raise NumericError("jump count cap exceeded; intensity is fixed "
                               "to one so this indicates a horizon misuse")
        cum = np.concatenate([cum, cum[-1] + np.cumsum(gen.standard_exponential(8))])
    return cum[:np.count_nonzero(cum <= horizon)]


class _Noise:
    """One chunk's noise: jumps and marks for the whole horizon, normals by block.

    ``jt`` and ``mu`` (n, width) hold each path's jump times (inf-padded)
    and marks, ``n_jumps`` their counts.  ``normals`` is a time-major
    window (rows, n): rows 0..fill[p] - 1 of column p are path p's next
    normals.  Block b covers the base intervals [bB, (b+1)B).  By the end
    of a block that ends at node e, path p has drawn e normals plus one
    per jump at or before ``nodes[e]``.  That bounds what ``_march``
    consumes by then, since a zero-length sub-step consumes nothing; the
    last block brings the total to ``n_steps + n_jumps[p]``.

    One generator serves the chunk, and ``_words`` is its position.  Each
    path enters its stream by one copy of ``entry``, a fresh stream of the
    seed with the path's index in the key word, and draws, in turn, its
    jump times, its marks and its first block.  Between blocks its stream
    is paused as its row of ``position`` (n, 14), which is kept only when
    there is a second block, and resumed by copying that row back.  A path
    draws its block into a row of a row-major tile, and each full tile is
    copied, transposed, into the window.
    """

    def __init__(self, seed, path_indices, nodes, with_jumps):
        self.paths, self.nodes = path_indices, nodes
        self.n_steps = n_steps = len(nodes) - 1
        n = len(path_indices)
        self.block = e = max(1, min(n_steps, _NORMALS_BLOCK_BYTES // (8 * n)))
        one_block = e == n_steps
        t0, horizon = nodes[0], float(nodes[-1] - nodes[0])
        cap = _jump_columns(horizon) if with_jumps else 0
        jt = np.full((n, cap + 1), np.inf)
        mu = np.zeros((n, cap + 1))
        self.n_jumps = np.zeros(n, dtype=np.int64)
        self.normals = np.zeros((e + cap, n))
        tile_paths = max(1, min(n, _TILE_PATHS, _TILE_BYTES // (8 * (e + cap))))
        self.tile = tile = np.zeros((tile_paths, e + cap))
        heads = list(tile[:, :e])       # where a jump-free path draws its first block
        position = None if one_block else np.empty((n, _STATE_WORDS), dtype=np.uint64)
        self.position = position
        fill = None if one_block else np.empty(n, dtype=np.int64)
        gen = self.gen = path_stream(seed, path_indices[0])
        words = self._words = _state_words(gen.bit_generator)
        entry = words.copy()
        exponentials, uniforms = gen.standard_exponential, gen.random
        normals = gen.standard_normal
        first = np.empty(8)
        for g0 in range(0, n, tile_paths):
            g1 = min(n, g0 + tile_paths)
            for j, p in enumerate(path_indices[g0:g1].tolist()):
                k = g0 + j
                entry[_KEY_WORD] = p
                words[:] = entry
                nj = 0
                if with_jumps:
                    exponentials(out=first)
                    if first[0] <= horizon:     # else none: the usual case for small ds
                        arrivals = _arrivals(gen, first, horizon)
                        nj = len(arrivals)
                        if nj > cap:
                            cap = 2 * nj
                            jt = _widen(jt, cap + 1, np.inf)
                            mu = _widen(mu, cap + 1, 0.0)
                            self._widen_window(e + cap)
                            tile = self.tile
                            heads = list(tile[:, :e])
                        jt[k, :nj] = t0 + arrivals
                        uniforms(out=mu[k, :nj])
                        self.n_jumps[k] = nj
                if one_block:
                    normals(out=tile[j, :n_steps + nj] if nj else heads[j])
                else:
                    q = e + (nj and int(np.searchsorted(jt[k, :nj], nodes[e], "right")))
                    fill[k] = q
                    normals(out=tile[j, :q] if nj else heads[j])
                    position[k] = words
            self._flush(g0, g1)
        if one_block:
            fill = n_steps + self.n_jumps
        self.fill = self.drawn = fill
        width = int(self.n_jumps.max(initial=0)) + 1
        self.jt, self.mu = jt[:, :width], mu[:, :width]
        # the whole padded tables, flat: jump j of path k sits at
        # k * jump_cols + j, so ``_march`` reads it with one 1-D take
        self.jt_flat, self.mu_flat = jt.reshape(-1), mu.reshape(-1)
        self.jump_cols = jt.shape[1]

    def _widen_window(self, rows):
        window = np.zeros((rows, self.normals.shape[1]))
        window[:len(self.normals)] = self.normals
        self.normals = window
        self.tile = _widen(self.tile, rows, 0.0)

    def _flush(self, g0, g1):
        self.normals[:, g0:g1] = self.tile[:g1 - g0].T

    def refill(self, k, ptr):
        """Fill the window for the block that starts at base node k.

        ``ptr`` holds each path's next unconsumed row.  Those not yet
        consumed move to the front of the path's column, the new draws
        follow them, and ``ptr`` is reset to 0.
        """
        e = min(k + self.block, self.n_steps)
        last = e == self.n_steps
        if last:
            need = self.n_steps + self.n_jumps
        else:
            need = e + np.count_nonzero(self.jt <= self.nodes[e], axis=1)
        left = self.fill - ptr
        self.fill = left + need - self.drawn
        self.drawn = need
        tile, window = self.tile, self.normals
        words, normals = self._words, self.gen.standard_normal
        n = len(self.paths)
        for g0 in range(0, n, len(tile)):
            g1 = min(n, g0 + len(tile))
            group = zip(self.position[g0:g1], left[g0:g1].tolist(),
                        ptr[g0:g1].tolist(), self.fill[g0:g1].tolist())
            for j, (row, a, start, end) in enumerate(group):
                if a:
                    tile[j, :a] = window[start:start + a, g0 + j]
                words[:] = row
                normals(out=tile[j, a:end])
                if not last:
                    row[:] = words
            self._flush(g0, g1)
        ptr[:] = 0


def _em_update(dynamics, s, x, lab, u, dt, z):
    """One Euler-Maruyama sub-step of paths all in regime ``lab``.

    ``s`` is a scalar or one time per path; ``x``, ``u``, ``dt`` and ``z``
    hold the paths' states, controls, step lengths and normals.
    """
    b = np.asarray(dynamics.drift(s, x, lab, u), dtype=float)
    sg = np.asarray(dynamics.diffusion(s, x, lab, u), dtype=float)
    return x + b * dt + sg * np.sqrt(dt) * z


def _base_nodes(t0, t_end, h):
    """Euler nodes on [t0, t_end], the step snapped to a whole number of steps."""
    if h <= 0:
        raise ConfigError("step h must be positive")
    if t_end <= t0:
        raise ConfigError("empty simulation horizon")
    return np.linspace(t0, t_end, max(1, int(round((t_end - t0) / h))) + 1)


def _check_counts(n_paths, chunk_size):
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    if chunk_size < 1:
        raise ConfigError("chunk_size must be >= 1")


def _check_regimes(i0, dynamics, geometry, what="start regime"):
    """Reject a geometry whose regime count is not the dynamics' m, and
    regimes ``i0`` (scalar or per path) outside 1..m."""
    m = dynamics.m
    if geometry is not None and geometry.m != m:
        raise ConfigError(f"the switching geometry has {geometry.m} regimes "
                          f"but the dynamics have {m}")
    i0 = np.asarray(i0)
    ok = (i0 >= 1) & (i0 <= m) & (i0 == np.floor(i0))
    if not ok.all():
        raise ConfigError(f"{what} {i0[~ok].ravel()[0].item()!r} "
                          f"is not a regime label in 1..{m}")


def _per_path(v, n_paths, name):
    """``v`` as one value per path: a scalar or a single value is repeated."""
    v = np.asarray(v)
    if v.ndim > 1:
        raise ConfigError(f"per-path {name} must be one-dimensional, "
                          f"not of shape {v.shape}")
    if v.size not in (1, n_paths):
        raise ConfigError(f"per-path {name} has {v.size} entries "
                          f"but n_paths is {n_paths}")
    return np.broadcast_to(v, (n_paths,))


def _march(dynamics, geometry, levy, pol, nodes, noise, x, alpha, on_jump=None,
           on_node=None):
    """Walk K state copies of n paths over the merged Euler/jump grid, in place.

    ``x`` and ``alpha`` are (K, n); every copy of path p consumes path p's
    jump times, marks and normals from ``noise``, a ``_Noise`` whose
    window is refilled at the start of every block.

    Every path sits at base node s_k when interval k starts, so the
    controls are evaluated there once per copy and regime, at the scalar
    s_k, and every path takes its first sub-step with them: to its next
    jump or to s_{k+1}.  Only paths that jump take further sub-steps, each
    from its own jump time.  ``on_node(k, s, u)`` runs at every base node,
    k = 0 and the last included, with the (K, n, control_dim) node
    controls ``u``; ``on_jump(rows, s, theta)`` runs after the regimes of
    ``rows`` updated at their jump times ``s``.
    """
    n_copies, n = x.shape
    labels = range(1, dynamics.m + 1)
    # gathers and scatters go through per-copy 1-D views, which cost about
    # a third of indexing the (K, n) arrays; normals, jump times and marks
    # are read by one 1-D take each from flat views of their row-major tables
    xs, alphas = list(x), list(alpha)
    z_flat = noise.normals.reshape(-1)
    jt_flat, mu_flat, cols = noise.jt_flat, noise.mu_flat, noise.jump_cols
    paths = np.arange(n)
    ptr = np.zeros(n, dtype=np.int64)      # next normal to consume
    jat = paths * cols                     # flat position of the next jump
    jnext = jt_flat.take(jat)              # time of that jump
    # node controls control dimension first, so each column scatters in
    # 1-D; the hooks see them as (K, n, control_dim)
    u_cols = np.empty((n_copies, dynamics.control_dim, n))
    u = u_cols.transpose(0, 2, 1)

    def node_controls(s):
        groups = []
        for xc, ac, uc in zip(xs, alphas, u_cols):
            for lab in labels:
                idx = np.flatnonzero(ac == lab)
                if idx.size:
                    xr = xc[idx]
                    ur = pol(s, xr, lab)
                    for col, ur_col in zip(uc, ur.T, strict=True):
                        col[idx] = ur_col
                    groups.append((xc, lab, idx, xr, ur))
        return groups

    def jump_substeps(rows, s, dt):
        # paths past a jump, each from its own time s
        z = z_flat.take(ptr[rows] * n + rows)
        for xc, ac in zip(xs, alphas):
            a = ac[rows]
            for lab in labels:
                sel = np.flatnonzero(a == lab)
                if sel.size:
                    r = rows[sel]
                    xr = xc[r]
                    xc[r] = _em_update(dynamics, s[sel], xr, lab, pol(s[sel], xr, lab),
                                       dt[sel], z[sel])
        ptr[rows] += 1

    for k in range(len(nodes) - 1):
        if k and k % noise.block == 0:
            noise.refill(k, ptr)
        s, t_next = nodes[k], nodes[k + 1]
        groups = node_controls(s)
        if on_node is not None:
            on_node(k, s, u)
        dt = np.minimum(jnext, t_next) - s
        z = z_flat.take(ptr * n + paths)
        for xc, lab, idx, xr, ur in groups:
            xc[idx] = _em_update(dynamics, s, xr, lab, ur, dt[idx], z[idx])
        # dt = 0 only for a jump at s_k itself: that step leaves x as it is
        # and must not consume the path's normal
        ptr += dt > 0
        sub = np.flatnonzero(jnext <= t_next)
        while sub.size:
            s_jump = jnext[sub]
            at = jat[sub]
            theta = levy.sample_from_uniform(mu_flat.take(at))
            for xc, ac in zip(xs, alphas):
                ac[sub] = geometry.mark_to_jump_array(xc[sub], ac[sub], theta)
            if on_jump is not None:
                on_jump(sub, s_jump, theta)
            at += 1
            jat[sub] = at
            after = jt_flat.take(at)
            jnext[sub] = after
            dt = np.minimum(after, t_next) - s_jump
            moving = dt > 0
            if moving.any():
                jump_substeps(sub[moving], s_jump[moving], dt[moving])
            sub = sub[after <= t_next]
        if not np.isfinite(x).all():
            raise NumericError(f"state blew up at step {k + 1} (t={t_next:g})")
    if on_node is not None:
        node_controls(nodes[-1])
        on_node(len(nodes) - 1, nodes[-1], u)


def simulate_ensemble(dynamics, geometry, levy, init, policy, h, t_end, n_paths,
                      seed, record_nodes=False, node_hook=None, chunk_size=8192):
    """Simulate ``n_paths`` paths of (X, alpha) from ``init = (t0, x0, i0)``.

    ``h`` is the base Euler step (snapped so the horizon is an integer
    number of steps); jump times are inserted as extra nodes.  ``x0`` and
    ``i0`` may be scalars or per-path arrays; ``i0`` must lie in 1..m.
    ``node_hook(k, s, X, alpha, lo, hi, u)`` is called at every base node
    with the chunk's global path range [lo, hi) and the chunk's controls
    ``u`` (hi - lo, control_dim) at that node, the ones the next Euler
    sub-step uses.
    """
    _check_counts(n_paths, chunk_size)
    t0, x0, i0 = init
    _check_regimes(i0, dynamics, geometry)
    nodes = _base_nodes(t0, t_end, h)
    n_steps = len(nodes) - 1
    x0 = _per_path(x0, n_paths, "x0").astype(float)
    i0 = _per_path(i0, n_paths, "i0").astype(np.int64)
    pol = as_policy(policy, dynamics.control_dim)

    res = EnsembleResult(nodes=nodes,
                         state_T=np.empty(n_paths),
                         regime_T=np.empty(n_paths, dtype=np.int64),
                         n_jumps=np.zeros(n_paths, dtype=np.int64))
    if record_nodes:
        res.states = np.empty((n_paths, n_steps + 1))
        res.regimes = np.empty((n_paths, n_steps + 1), dtype=np.int64)

    for lo in range(0, n_paths, chunk_size):
        hi = min(lo + chunk_size, n_paths)
        noise = _Noise(seed, np.arange(lo, hi), nodes, geometry is not None)
        res.n_jumps[lo:hi] = noise.n_jumps
        x = x0[None, lo:hi].copy()
        alpha = i0[None, lo:hi].copy()

        def on_node(k, s, u):
            if record_nodes:
                res.states[lo:hi, k] = x[0]
                res.regimes[lo:hi, k] = alpha[0]
            if node_hook is not None:
                node_hook(k, s, x[0], alpha[0], lo, hi, u[0])

        _march(dynamics, geometry, levy, pol, nodes, noise, x, alpha, on_node=on_node)
        res.state_T[lo:hi] = x[0]
        res.regime_T[lo:hi] = alpha[0]
        del noise       # or the next chunk's window is built beside this one
    return res


def simulate_path(dynamics, geometry, levy, init, policy, h, t_end, seed,
                  path_index=0):
    """Single trajectory with the full merged grid and jump log.

    The merged grid holds the base nodes and the jumps that changed the
    regime, recorded in event order.
    """
    t0, x0, i0 = init
    _check_regimes(i0, dynamics, geometry)
    nodes = _base_nodes(t0, t_end, h)
    pol = as_policy(policy, dynamics.control_dim)
    noise = _Noise(seed, np.array([path_index]), nodes, geometry is not None)
    x = np.full((1, 1), x0, dtype=float)
    alpha = np.full((1, 1), i0, dtype=np.int64)
    times, states, regimes, jumps = [], [], [], []

    def record(s):
        times.append(s)
        states.append(x[0, 0])
        regimes.append(alpha[0, 0])

    def on_jump(rows, s, theta):
        if alpha[0, 0] != regimes[-1]:
            jumps.append(JumpRecord(time=float(s[0]), mark=float(theta[0]),
                                    regime_from=int(regimes[-1]),
                                    regime_to=int(alpha[0, 0]), state=float(x[0, 0])))
            record(jumps[-1].time)

    _march(dynamics, geometry, levy, pol, nodes, noise, x, alpha, on_jump=on_jump,
           on_node=lambda k, s, u: record(s))
    return Path(times=np.asarray(times), states=np.asarray(states),
                regimes=np.asarray(regimes, dtype=np.int64),
                jumps=jumps, seed=seed, path_index=path_index)


@dataclass
class RateEstimate:
    rate: float
    se: float
    n_transitions: int
    n_paths: int
    anomaly: bool = False


def estimate_transition_rate(dynamics, geometry, levy, x, i, j, ds, n_paths,
                             seed, q_theory=None):
    """Empirical frequency of alpha(t0 + ds) = j over paths started at (x, i).

    Returns the frequency divided by ds together with its binomial
    standard error.  If ``q_theory`` is supplied and no transition is
    seen although q*ds*n_paths > 25, the estimate is flagged anomalous.
    """
    _check_regimes(j, dynamics, geometry, "target regime")
    if j == i:
        raise ConfigError("transition rate needs j != i")
    res = simulate_ensemble(dynamics, geometry, levy, (0.0, x, i), None, ds,
                            ds, n_paths, seed)
    hits = int(np.sum(res.regime_T == j))
    p = hits / n_paths
    rate = p / ds
    # Laplace-smoothed binomial SE so small counts do not zero it out
    ps = (hits + 1.0) / (n_paths + 2.0)
    se = float(np.sqrt(ps * (1 - ps) / n_paths) / ds)
    anomaly = bool(hits == 0 and q_theory is not None and q_theory * ds * n_paths > 25)
    return RateEstimate(rate=rate, se=se, n_transitions=hits, n_paths=n_paths,
                        anomaly=anomaly)


def coupled_pair_divergence(dynamics, geometry, levy, strategy, xi1, xi2, i,
                            n_paths, seed, h, t_end, t0=0.0, chunk_size=8192):
    """Common-random-number coupling of two starts (xi1, i) and (xi2, i).

    Both paths consume identical jump times, marks, and Brownian
    increments.  Returns (P(regime histories split by T),
    E[sup_{s<=T} |X1 - X2|^2 on full agreement]).
    """
    _check_counts(n_paths, chunk_size)
    for name, v in (("xi1", xi1), ("xi2", xi2), ("i", i)):
        if np.ndim(v):
            raise ConfigError(f"{name} must be a scalar, not of shape {np.shape(v)}")
    _check_regimes(i, dynamics, geometry)
    nodes = _base_nodes(t0, t_end, h)
    pol = as_policy(strategy, dynamics.control_dim)
    split = 0
    sup_sum = 0.0
    for lo in range(0, n_paths, chunk_size):
        hi = min(lo + chunk_size, n_paths)
        noise = _Noise(seed, np.arange(lo, hi), nodes, geometry is not None)
        x = np.empty((2, hi - lo))
        x[0], x[1] = float(xi1), float(xi2)
        alpha = np.full((2, hi - lo), int(i), dtype=np.int64)
        agree = np.ones(hi - lo, dtype=bool)
        supsq = (x[0] - x[1]) ** 2

        def on_jump(rows, s, theta):
            agree[rows] &= alpha[0, rows] == alpha[1, rows]
            supsq[rows] = np.maximum(supsq[rows], (x[0, rows] - x[1, rows]) ** 2)

        def on_node(k, s, u):
            np.maximum(supsq, (x[0] - x[1]) ** 2, out=supsq)

        _march(dynamics, geometry, levy, pol, nodes, noise, x, alpha,
               on_jump=on_jump, on_node=on_node)
        split += int(np.sum(~agree))
        sup_sum += float(np.sum(supsq[agree]))
        del noise
    return split / n_paths, sup_sum / n_paths
