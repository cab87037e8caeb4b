"""Whole-horizon Monte Carlo noise, kept as a test oracle.

This is the chunk noise as it was before the normals were streamed by
block: every path of the chunk draws its jump times, its marks and all
``n_steps + n_jumps`` of its normals up front, into an (n, n_steps +
width) row-major matrix.  ``switchctl.sde._Noise`` draws the same
streams in the same order but pauses each path's stream between blocks,
so its jumps, marks and the normals of its blocks joined together equal
these bit for bit.
"""

import numpy as np

from switchctl import sde
from switchctl.errors import NumericError


def _rekey(gen, seed, p):
    """Put ``gen`` in the state of a fresh ``path_stream(seed, p)``."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & sde._MASK64, p)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _widen(a, cols, fill):
    out = np.full((a.shape[0], cols), fill)
    out[:, :a.shape[1]] = a
    return out


def pregenerate(seed, path_indices, t0, t_end, n_steps, with_jumps):
    """Draw each path's noise in the canonical order; pad across the chunk.

    Returns (jump times, marks, jump counts, normals); the first two and
    the last are padded with inf, 0 and 0 past each path's own draws.
    """
    horizon = t_end - t0
    n = len(path_indices)
    cap = sde._jump_columns(horizon) if with_jumps else 0
    jt_pad = np.full((n, cap + 1), np.inf)
    mu_pad = np.zeros((n, cap + 1))
    normals = np.zeros((n, n_steps + cap + 1))
    n_jumps = np.zeros(n, dtype=np.int64)
    gen = sde.path_stream(seed, path_indices[0])
    for k, p in enumerate(path_indices.tolist()):
        _rekey(gen, seed, p)
        nj = 0
        if with_jumps:
            e = gen.standard_exponential(8)
            if e[0] <= horizon:
                cum = np.cumsum(e)
                while cum[-1] <= horizon:
                    if len(cum) >= sde._MAX_JUMP_DRAWS:
                        raise NumericError("jump count cap exceeded")
                    more = np.cumsum(gen.standard_exponential(8))
                    cum = np.concatenate([cum, cum[-1] + more])
                nj = int(np.count_nonzero(cum <= horizon))
                if nj > cap:
                    cap = 2 * nj
                    jt_pad = _widen(jt_pad, cap + 1, np.inf)
                    mu_pad = _widen(mu_pad, cap + 1, 0.0)
                    normals = _widen(normals, n_steps + cap + 1, 0.0)
                jt_pad[k, :nj] = t0 + cum[:nj]
                gen.random(out=mu_pad[k, :nj])
                n_jumps[k] = nj
        gen.standard_normal(out=normals[k, :n_steps + nj])
    width = int(n_jumps.max(initial=0)) + 1
    return jt_pad[:, :width], mu_pad[:, :width], n_jumps, normals[:, :n_steps + width]
