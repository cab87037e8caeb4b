import numpy as np
import pytest
from scipy.linalg import expm

from switchctl import sde
from switchctl.errors import ConfigError, NumericError
from switchctl.fields import as_policy
from switchctl.sde import (ControlledDynamics, coupled_pair_divergence,
                           estimate_transition_rate, simulate_ensemble,
                           simulate_path)
from switchctl.switching import rate_matrix

from noise_oracle import pregenerate
from test_switching import (constant_geometry, empty_geometry, tanh_geometry,
                            uniform_levy)


def dyn(b=0.0, sigma=0.0, m=2):
    return ControlledDynamics(
        drift=lambda s, x, i, u: np.full_like(x, b),
        diffusion=lambda s, x, i, u: np.full_like(x, sigma),
        m=m)


def drifted(m=2):
    # state-dependent, polynomial only (bitwise stable across array sizes)
    return ControlledDynamics(
        drift=lambda s, x, i, u: 0.1 * x * (1.0 if i == 1 else -1.0),
        diffusion=lambda s, x, i, u: 0.2 + 0.0 * x,
        m=m)


def test_zero_coefficients_no_switching_constant():
    path = simulate_path(dyn(0, 0), empty_geometry(), uniform_levy(),
                         (0.0, 1.5, 1), None, h=0.1, t_end=1.0, seed=1)
    assert np.all(path.states == 1.5)
    assert np.all(path.regimes == 1)
    assert path.jumps == []


def test_unit_drift_exact_on_grid():
    path = simulate_path(dyn(1.0, 0.0), empty_geometry(), uniform_levy(),
                         (0.0, 2.0, 1), None, h=0.25, t_end=1.0, seed=3)
    on_nodes = np.isin(path.times, np.linspace(0, 1, 5))
    assert np.allclose(path.states, 2.0 + path.times, atol=1e-12)
    assert on_nodes.sum() == 5


def test_brownian_variance_oracle():
    n = 30_000
    res = simulate_ensemble(dyn(0.0, 1.0), empty_geometry(), uniform_levy(),
                            (0.0, 0.0, 1), None, h=0.02, t_end=1.0,
                            n_paths=n, seed=11)
    sample_var = np.var(res.state_T, ddof=1)
    se = 1.0 * np.sqrt(2.0 / (n - 1))
    assert abs(sample_var - 1.0) <= 3 * se


def test_path_reproducible_bitwise():
    a = simulate_path(drifted(), tanh_geometry(), uniform_levy(),
                      (0.0, 0.5, 1), None, h=0.05, t_end=2.0, seed=42)
    b = simulate_path(drifted(), tanh_geometry(), uniform_levy(),
                      (0.0, 0.5, 1), None, h=0.05, t_end=2.0, seed=42)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.regimes, b.regimes)


def test_ensemble_order_independent_of_chunking():
    kw = dict(init=(0.0, 0.5, 1), policy=None, h=0.05, t_end=1.0,
              n_paths=23, seed=9)
    a = simulate_ensemble(drifted(), constant_geometry(), uniform_levy(), **kw)
    b = simulate_ensemble(drifted(), constant_geometry(), uniform_levy(),
                          chunk_size=7, **kw)
    assert np.array_equal(a.state_T, b.state_T)
    assert np.array_equal(a.regime_T, b.regime_T)


def test_regime_changes_only_at_recorded_jumps():
    geo = tanh_geometry()
    levy = uniform_levy()
    path = simulate_path(drifted(), geo, levy, (0.0, 0.0, 1), None,
                         h=0.05, t_end=4.0, seed=5)
    jump_times = {j.time for j in path.jumps}
    for k in range(1, len(path.times)):
        if path.regimes[k] != path.regimes[k - 1]:
            assert path.times[k] in jump_times
    for j in path.jumps:
        assert geo.mark_to_jump(j.state, j.regime_from, j.mark) == j.regime_to


def test_transition_rate_constant_preset():
    geo = constant_geometry()
    levy = uniform_levy()
    q12 = rate_matrix(geo, levy, 0.0)[0, 1]
    est = estimate_transition_rate(dyn(0.0, 0.1), geo, levy, x=0.0, i=1, j=2,
                                   ds=1e-3, n_paths=60_000, seed=21,
                                   q_theory=q12)
    assert not est.anomaly
    # score-test SE at the theoretical rate (counts are small at ds = 1e-3)
    se0 = np.sqrt(q12 * 1e-3 * (1 - q12 * 1e-3) / 60_000) / 1e-3
    assert abs(est.rate - q12) <= 3 * se0


def test_transition_rate_all_empty_exact_zero():
    est = estimate_transition_rate(dyn(), empty_geometry(), uniform_levy(),
                                   x=0.0, i=1, j=2, ds=1e-3, n_paths=2000, seed=2)
    assert est.rate == 0.0 and est.n_transitions == 0


def test_transition_rate_tanh_at_zero():
    geo = tanh_geometry()
    levy = uniform_levy()
    q12 = rate_matrix(geo, levy, 0.0)[0, 1]
    assert q12 == pytest.approx(0.1, abs=1e-10)
    est = estimate_transition_rate(dyn(0.0, 0.1), geo, levy, x=0.0, i=1, j=2,
                                   ds=1e-3, n_paths=60_000, seed=22,
                                   q_theory=q12)
    se0 = np.sqrt(q12 * 1e-3 * (1 - q12 * 1e-3) / 60_000) / 1e-3
    assert abs(est.rate - q12) <= 3 * se0


def test_occupation_matches_matrix_exponential():
    geo = constant_geometry()
    levy = uniform_levy()
    q = rate_matrix(geo, levy, 0.0)
    n = 30_000
    res = simulate_ensemble(dyn(0.0, 0.0), geo, levy, (0.0, 0.0, 1), None,
                            h=0.1, t_end=1.0, n_paths=n, seed=31)
    p2 = np.mean(res.regime_T == 2)
    want = expm(q * 1.0)[0, 1]
    se = np.sqrt(want * (1 - want) / n)
    assert abs(p2 - want) <= 3 * se


def test_moment_and_modulus_stability():
    # E[sup |X(t+r)-X(t)|^p] <= C ds^{p/2} with stable C under halving (p=4)
    geo = tanh_geometry()
    levy = uniform_levy()
    cs = []
    for ds in (0.2, 0.1):
        res = simulate_ensemble(drifted(), geo, levy, (0.0, 0.5, 1), None,
                                h=ds / 8, t_end=ds, n_paths=4000, seed=17,
                                record_nodes=True)
        sup4 = np.max(np.abs(res.states - 0.5), axis=1) ** 4
        cs.append(np.mean(sup4) / ds**2)
    assert 0.25 <= cs[0] / cs[1] <= 4.0


def test_coupled_identical_starts_zero():
    out = coupled_pair_divergence(drifted(), tanh_geometry(), uniform_levy(),
                                  None, 0.5, 0.5, 1, n_paths=500, seed=4,
                                  h=0.05, t_end=1.0)
    assert out == (0.0, 0.0)


def test_coupled_constant_thresholds_never_split():
    prob, gap = coupled_pair_divergence(drifted(), constant_geometry(),
                                        uniform_levy(), None, 0.2, 0.8, 1,
                                        n_paths=2000, seed=6, h=0.05, t_end=1.0)
    assert prob == 0.0
    assert gap > 0.0


def test_coupled_divergence_monotone_in_initial_gap():
    geo = tanh_geometry()
    levy = uniform_levy()
    seps = [0.8, 0.4, 0.2, 0.1]
    probs, gaps = [], []
    for k, s in enumerate(seps):
        p, g = coupled_pair_divergence(drifted(), geo, levy, None,
                                       0.0, s, 1, n_paths=6000, seed=8,
                                       h=0.05, t_end=2.0)
        probs.append(p)
        gaps.append(g)
    assert all(a >= b - 5e-3 for a, b in zip(probs, probs[1:]))
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_blowup_reports_step_index():
    bad = ControlledDynamics(
        drift=lambda s, x, i, u: x * 1e4,
        diffusion=lambda s, x, i, u: np.zeros_like(x),
        m=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="step"):
            simulate_path(bad, empty_geometry(), uniform_levy(), (0.0, 1.0, 1),
                          None, h=0.5, t_end=40.0, seed=1)


def test_bad_horizon_rejected():
    with pytest.raises(ConfigError):
        simulate_ensemble(dyn(), empty_geometry(), uniform_levy(),
                          (1.0, 0.0, 1), None, h=0.1, t_end=1.0,
                          n_paths=1, seed=0)


def test_zero_transition_anomaly_flagged():
    est = estimate_transition_rate(dyn(), empty_geometry(), uniform_levy(),
                                   x=0.0, i=1, j=2, ds=0.01, n_paths=10_000,
                                   seed=3, q_theory=0.3)
    assert est.n_transitions == 0 and est.anomaly


def test_coupled_blowup_reports_step_index():
    bad = ControlledDynamics(
        drift=lambda s, x, i, u: x * 1e4,
        diffusion=lambda s, x, i, u: np.zeros_like(x),
        m=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="step"):
            coupled_pair_divergence(bad, empty_geometry(), uniform_levy(), None,
                                    1.0, 2.0, 1, n_paths=4, seed=1, h=0.5,
                                    t_end=40.0)


def test_ensemble_rows_equal_simulate_path():
    kw = dict(init=(0.0, 0.0, 1), policy=None, h=0.05, t_end=6.0, seed=7)
    n_switches = 0
    for p in (0, 2):
        res = simulate_ensemble(drifted(), tanh_geometry(), uniform_levy(),
                                n_paths=p + 1, record_nodes=True, **kw)
        path = simulate_path(drifted(), tanh_geometry(), uniform_levy(),
                             path_index=p, **kw)
        on_nodes = np.isin(path.times, res.nodes)
        assert np.array_equal(path.times[on_nodes], res.nodes)
        assert np.array_equal(path.states[on_nodes], res.states[p])
        assert np.array_equal(path.regimes[on_nodes], res.regimes[p])
        assert path.states[-1] == res.state_T[p]
        assert path.regimes[-1] == res.regime_T[p]
        n_switches += len(path.jumps)
    assert n_switches >= 1


def fresh_stream_noise(seed, p, horizon, n_steps, with_jumps):
    """Path p's draws in the documented order, from a freshly built Philox."""
    # a list key above 2**63 would pass through float64, so build uint64
    key = np.array([seed & 0xFFFF_FFFF_FFFF_FFFF, p], dtype=np.uint64)
    g = np.random.Generator(np.random.Philox(key=key))
    arrivals = np.empty(0)
    if with_jumps:
        cum = np.cumsum(g.standard_exponential(8))
        while cum[-1] <= horizon:
            cum = np.concatenate([cum, cum[-1] + np.cumsum(g.standard_exponential(8))])
        arrivals = cum[cum <= horizon]
    marks = g.random(len(arrivals))
    return arrivals, marks, g.standard_normal(n_steps + len(arrivals))


def short_blocks(monkeypatch, n_paths, block, tile_paths=None, jump_columns=0):
    """Make a chunk of ``n_paths`` draw its normals ``block`` base steps at a
    time and, given its jump columns, copy ``tile_paths`` paths per tile."""
    monkeypatch.setattr(sde, "_NORMALS_BLOCK_BYTES", 8 * n_paths * block)
    if tile_paths is not None:
        monkeypatch.setattr(sde, "_TILE_BYTES", 8 * tile_paths * (block + jump_columns))


def joined_block_normals(noise):
    """Each path's normals, its blocks joined, every drawn normal consumed."""
    columns = range(len(noise.paths))
    parts = [[noise.normals[:noise.fill[c], c].copy()] for c in columns]
    for k in range(noise.block, noise.n_steps, noise.block):
        noise.refill(k, noise.fill.copy())
        for c in columns:
            parts[c].append(noise.normals[:noise.fill[c], c].copy())
    return [np.concatenate(p) for p in parts]


def assert_noise_matches_fresh_streams(seed, first, t0, t_end, n_steps, with_jumps):
    idx = np.arange(first, first + 40)
    jt, mu, n_jumps, normals = pregenerate(seed, idx, t0, t_end, n_steps, with_jumps)
    noise = sde._Noise(seed, idx, np.linspace(t0, t_end, n_steps + 1), with_jumps)
    assert np.array_equal(noise.jt, jt)
    assert np.array_equal(noise.mu, mu)
    assert np.array_equal(noise.n_jumps, n_jumps)
    blocks = joined_block_normals(noise)
    refs = [fresh_stream_noise(seed, p, t_end - t0, n_steps, with_jumps) for p in idx]
    width = max(len(r[0]) for r in refs) + 1
    assert jt.shape == mu.shape == (len(idx), width)
    assert normals.shape == (len(idx), n_steps + width)
    for k, (arrivals, marks, z) in enumerate(refs):
        nj = len(arrivals)
        assert n_jumps[k] == nj
        assert np.array_equal(jt[k, :nj], t0 + arrivals)
        assert np.all(jt[k, nj:] == np.inf)
        assert np.array_equal(mu[k, :nj], marks)
        assert np.all(mu[k, nj:] == 0.0)
        assert np.array_equal(normals[k, :n_steps + nj], z)
        assert np.all(normals[k, n_steps + nj:] == 0.0)
        assert np.array_equal(blocks[k], z)
    return n_jumps


STREAM_CASES = [
    (5, 0, 20.5, 10, True),       # long horizon: the 8-block extension runs
    (3, 0, 0.51, 1, True),        # one-step paths, mostly without a jump
    (3, 0, 1.5, 5, False),
    (-1, 0, 2.5, 4, True),
    (9, 8192, 1.5, 3, True),      # the path indices of a second chunk
    (2**70 + 9, 100, 3.5, 6, True),   # a seed past 64 bits keys by its low word
]


@pytest.mark.parametrize("seed, first, t_end, n_steps, with_jumps", STREAM_CASES)
def test_pregenerate_matches_fresh_philox_streams(seed, first, t_end, n_steps,
                                                  with_jumps):
    n_jumps = assert_noise_matches_fresh_streams(seed, first, 0.5, t_end,
                                                 n_steps, with_jumps)
    if t_end > 20:
        assert n_jumps.max() > 8
    if t_end < 1:
        assert np.any(n_jumps == 0)


@pytest.mark.parametrize("seed, first, t_end, n_steps, with_jumps", STREAM_CASES)
def test_block_streams_match_fresh_philox_streams_in_short_blocks(
        monkeypatch, seed, first, t_end, n_steps, with_jumps):
    # 2 steps a block, 7 paths a tile: 5 full tiles and a part
    cap = sde._jump_columns(t_end - 0.5) if with_jumps else 0
    short_blocks(monkeypatch, 40, 2, 7, cap)
    test_pregenerate_matches_fresh_philox_streams(seed, first, t_end, n_steps,
                                                  with_jumps)


def test_pregenerate_widens_jump_columns(monkeypatch):
    monkeypatch.setattr(sde, "_jump_columns", lambda horizon: 0)
    n_jumps = assert_noise_matches_fresh_streams(5, 0, 0.5, 20.5, 10, True)
    assert n_jumps.max() > 8


def test_pregenerate_widens_jump_columns_in_short_blocks(monkeypatch):
    short_blocks(monkeypatch, 40, 2, 7, 0)
    test_pregenerate_widens_jump_columns(monkeypatch)


def public_position(bitgen):
    """The words ``sde._state_words`` compares with numpy's state: buffer_pos,
    the buffer, the key and the counter."""
    st = bitgen.state
    return [st["buffer_pos"], *st["buffer"], *st["state"]["key"],
            *st["state"]["counter"]]


def word_position(words):
    return [int(words[2]) & 0xFFFF_FFFF, *map(int, words[3:7]), *map(int, words[8:])]


@pytest.mark.parametrize("seed", [1, 2**70 + 9])
def test_state_words_round_trip_the_public_state(seed):
    gen = sde.path_stream(seed, 5)
    bitgen = gen.bit_generator
    words = sde._state_words(bitgen)
    assert words.shape == (sde._STATE_WORDS,)
    assert word_position(words) == [int(w) for w in public_position(bitgen)]
    assert int(words[8]) == seed & 0xFFFF_FFFF_FFFF_FFFF
    assert int(words[sde._KEY_WORD]) == 5
    seen_pos = set()
    for draws in (1, 2, 3, 5, 7):
        bitgen.random_raw(draws)
        assert word_position(words) == [int(w) for w in public_position(bitgen)]
        seen_pos.add(bitgen.state["buffer_pos"])
        saved, state = words.copy(), bitgen.state
        ahead = gen.standard_normal(9)
        words[:] = saved
        assert np.array_equal(gen.standard_normal(9), ahead)
        # a generator of another path resumed through the public setter
        # draws the same
        public = sde.path_stream(seed, 6)
        public.bit_generator.state = state
        assert np.array_equal(public.standard_normal(9), ahead)
        words[:] = saved
    assert seen_pos == {1, 2, 3}


class _ShiftedState:
    """A Philox whose public state reads one counter step ahead of its memory."""

    def __init__(self, bitgen):
        self.ctypes = bitgen.ctypes
        self._bitgen = bitgen

    @property
    def state(self):
        st = self._bitgen.state
        st["state"]["counter"][0] += 1
        return st


def test_state_words_layout_mismatch_is_a_numeric_error():
    gen = sde.path_stream(3, 0)
    with pytest.raises(NumericError, match=f"numpy {np.__version__}"):
        sde._state_words(_ShiftedState(gen.bit_generator))


@pytest.mark.parametrize("chunk_size", [0, -4])
def test_chunk_size_must_be_positive(chunk_size):
    with pytest.raises(ConfigError, match="chunk_size must be >= 1"):
        simulate_ensemble(dyn(), empty_geometry(), uniform_levy(), (0.0, 0.0, 1),
                          None, h=0.1, t_end=1.0, n_paths=5, seed=0,
                          chunk_size=chunk_size)
    with pytest.raises(ConfigError, match="chunk_size must be >= 1"):
        coupled_pair_divergence(drifted(), tanh_geometry(), uniform_levy(), None,
                                0.5, 0.6, 1, n_paths=5, seed=4, h=0.05,
                                t_end=1.0, chunk_size=chunk_size)


@pytest.mark.parametrize("i0", [0, 3, -1, 1.5])
def test_start_regime_outside_labels_rejected(i0):
    kw = dict(h=0.1, t_end=1.0, seed=0)
    with pytest.raises(ConfigError, match="regime"):
        simulate_ensemble(drifted(), tanh_geometry(), uniform_levy(), (0.0, 0.0, i0),
                          None, n_paths=4, **kw)
    with pytest.raises(ConfigError, match="regime"):
        simulate_ensemble(drifted(), tanh_geometry(), uniform_levy(),
                          (0.0, 0.0, np.array([1, 2, i0, 1])), None, n_paths=4, **kw)
    with pytest.raises(ConfigError, match="regime"):
        simulate_path(drifted(), tanh_geometry(), uniform_levy(), (0.0, 0.0, i0),
                      None, **kw)
    with pytest.raises(ConfigError, match="regime"):
        coupled_pair_divergence(drifted(), tanh_geometry(), uniform_levy(), None,
                                0.5, 0.6, i0, n_paths=4, seed=0, h=0.1, t_end=1.0)


@pytest.mark.parametrize("xi1, i, name", [
    (np.zeros(3), 1, r"xi1 must be a scalar, not of shape \(3,\)"),
    (0.5, np.array([1, 2]), r"i must be a scalar, not of shape \(2,\)"),
])
def test_coupled_pair_starts_must_be_scalars(monkeypatch, xi1, i, name):
    def no_paths(*args, **kwargs):
        raise AssertionError("drew paths before checking the starts")

    monkeypatch.setattr(sde, "_Noise", no_paths)
    with pytest.raises(ConfigError, match=name) as info:
        coupled_pair_divergence(drifted(), tanh_geometry(), uniform_levy(), None,
                                xi1, 0.6, i, n_paths=4, seed=0, h=0.1, t_end=1.0)
    assert info.value.exit_code == 2


def test_constant_policy_of_the_wrong_size_rejected(monkeypatch):
    def no_paths(*args, **kwargs):
        raise AssertionError("drew paths before checking the policy")

    monkeypatch.setattr(sde, "_Noise", no_paths)
    kw = dict(h=0.1, t_end=1.0, seed=0)
    for policy in ((0.1, 0.2), [], np.zeros(3)):
        with pytest.raises(ConfigError, match="constant control needs 1 entries"):
            simulate_ensemble(drifted(), tanh_geometry(), uniform_levy(),
                              (0.0, 0.0, 1), policy, n_paths=4, **kw)
        with pytest.raises(ConfigError, match="constant control needs 1 entries"):
            simulate_path(drifted(), tanh_geometry(), uniform_levy(),
                          (0.0, 0.0, 1), policy, **kw)


@pytest.mark.parametrize("policy", ["abc", object()])
def test_unreadable_policy_is_a_config_error(policy):
    with pytest.raises(ConfigError, match="a policy must be None, a number") as info:
        as_policy(policy, 1)
    assert info.value.exit_code == 2


def test_unreadable_policy_rejected_before_paths(monkeypatch):
    def no_paths(*args, **kwargs):
        raise AssertionError("drew paths before checking the policy")

    monkeypatch.setattr(sde, "_Noise", no_paths)
    with pytest.raises(ConfigError, match="or a callable") as info:
        simulate_ensemble(drifted(), tanh_geometry(), uniform_levy(), (0.0, 0.0, 1),
                          "abc", h=0.1, t_end=1.0, n_paths=4, seed=0)
    assert info.value.exit_code == 2


def test_constant_policy_equals_its_callable():
    kw = dict(h=0.05, t_end=1.0, n_paths=64, seed=8, record_nodes=True)
    dynamics = ControlledDynamics(
        drift=lambda s, x, i, u: u[:, 0] - 0.1 * x,
        diffusion=lambda s, x, i, u: 0.2 + 0.0 * x, m=2)
    runs = [simulate_ensemble(dynamics, tanh_geometry(), uniform_levy(),
                              (0.0, 0.5, 1), policy, **kw)
            for policy in (0.3, [0.3], lambda s, x, i: np.full(len(x), 0.3))]
    for res in runs[1:]:
        assert np.array_equal(res.states, runs[0].states)
        assert np.array_equal(res.regimes, runs[0].regimes)


@pytest.mark.parametrize("j", [0, -1, 3, 1.5])
def test_target_regime_outside_labels_rejected_before_simulating(monkeypatch, j):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the target regime")

    monkeypatch.setattr(sde, "simulate_ensemble", no_simulation)
    with pytest.raises(ConfigError, match=f"target regime {j!r} is not a regime "
                                          r"label in 1\.\.2"):
        estimate_transition_rate(dyn(), tanh_geometry(), uniform_levy(), 0.0, 1, j,
                                 0.01, 100, 0)


@pytest.mark.parametrize("x0, i0, message", [
    (np.zeros(3), 1, "per-path x0 has 3 entries but n_paths is 4"),
    (0.0, np.ones(5, dtype=int), "per-path i0 has 5 entries but n_paths is 4"),
    (np.zeros(0), 1, "per-path x0 has 0 entries but n_paths is 4"),
    (np.zeros((4, 1)), 1, r"per-path x0 must be one-dimensional, not of shape \(4, 1\)"),
])
def test_per_path_start_length_must_be_n_paths(x0, i0, message):
    with pytest.raises(ConfigError, match=message):
        simulate_ensemble(drifted(), tanh_geometry(), uniform_levy(), (0.0, x0, i0),
                          None, h=0.1, t_end=1.0, n_paths=4, seed=0)


@pytest.mark.parametrize("m", [1, 3])
def test_geometry_regime_count_must_match_dynamics(m):
    kw = dict(h=0.1, t_end=1.0, seed=0)
    calls = [
        lambda: simulate_ensemble(drifted(m), tanh_geometry(), uniform_levy(),
                                  (0.0, 0.0, 1), None, n_paths=4, **kw),
        lambda: simulate_path(drifted(m), tanh_geometry(), uniform_levy(),
                              (0.0, 0.0, 1), None, **kw),
        lambda: coupled_pair_divergence(drifted(m), tanh_geometry(),
                                        uniform_levy(), None, 0.5, 0.6, 1,
                                        n_paths=4, seed=0, h=0.1, t_end=1.0),
        lambda: estimate_transition_rate(drifted(m), tanh_geometry(),
                                         uniform_levy(), 0.0, 1, 2, 0.01, 10, 0),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match=f"geometry has 2 regimes but "
                                              f"the dynamics have {m}"):
            call()


def test_node_hook_sees_the_controls_of_the_next_step():
    seen = []

    def policy(s, x, i):
        return np.stack([x + s, np.full(len(x), float(i))], axis=1)

    def hook(k, s, xs, alphas, lo, hi, u):
        assert u.shape == (hi - lo, 2)
        assert np.array_equal(u[:, 0], xs + s)
        assert np.array_equal(u[:, 1], alphas)
        seen.append(k)

    two_dim = ControlledDynamics(drift=lambda s, x, i, u: u[:, 0] - x - s,
                                 diffusion=lambda s, x, i, u: 0.1 * u[:, 1],
                                 m=2, control_dim=2)
    simulate_ensemble(two_dim, tanh_geometry(), uniform_levy(),
                      (0.0, np.linspace(-1, 1, 50), np.arange(50) % 2 + 1), policy,
                      h=0.1, t_end=3.0, n_paths=50, seed=3, node_hook=hook,
                      chunk_size=20)
    assert seen == list(range(31)) * 3


def march_fixed_arrivals(monkeypatch, arrivals, nodes, seed=1):
    """March one path of dyn(0, 1) from 0.25 whose clock rings at ``arrivals``.

    Returns the jump times the march processed, the end state, the normals
    of the path's stream (drawn after its first 8 inter-arrival times and
    one mark per jump) and the noise.
    """
    monkeypatch.setattr(sde, "_arrivals", lambda gen, first, horizon: np.array(arrivals))
    g = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    assert g.standard_exponential(8)[0] <= nodes[-1] - nodes[0]     # the clock rings
    g.random(len(arrivals))
    z = g.standard_normal(len(nodes) - 1 + len(arrivals))
    noise = sde._Noise(seed, np.array([0]), nodes, True)
    x = np.full((1, 1), 0.25)
    alpha = np.ones((1, 1), dtype=np.int64)
    jumps = []
    sde._march(dyn(0.0, 1.0), empty_geometry(), uniform_levy(), as_policy(None, 1),
               nodes, noise, x, alpha, on_jump=lambda rows, s, th: jumps.extend(s))
    return jumps, x[0, 0], z, noise


def test_jump_at_start_node_consumes_no_normal(monkeypatch):
    # a jump exactly at s_0 is a zero-length sub-step: the path's first
    # normal must go to the step after the jump
    nodes = np.linspace(0.0, 1.0, 5)
    jumps, x, z, _ = march_fixed_arrivals(monkeypatch, [0.0], nodes)
    want = 0.25
    for zk in z[:4]:
        want = want + 0.0 + 0.5 * zk
    assert jumps == [0.0]
    assert x == want


def test_jump_at_start_node_consumes_no_normal_in_short_blocks(monkeypatch):
    short_blocks(monkeypatch, 1, 2)
    test_jump_at_start_node_consumes_no_normal(monkeypatch)


@pytest.mark.parametrize("block", [None, 2])
def test_jump_at_block_boundary_node_carries_its_normal(monkeypatch, block):
    # block 0 draws a normal for the jump at s_2 = 0.5, where it ends; the
    # jump's sub-step has zero length, so that normal opens block 1
    if block:
        short_blocks(monkeypatch, 1, block)
    nodes = np.linspace(0.0, 1.0, 5)
    jumps, x, z, noise = march_fixed_arrivals(monkeypatch, [0.5], nodes)
    assert noise.block == (block or 4)
    want = 0.25
    for zk in z[:4]:
        want = want + 0.0 + 0.5 * zk
    assert jumps == [0.5]
    assert x == want


@pytest.mark.parametrize("block", [None, 2])
def test_two_jumps_at_one_time_consume_one_normal(monkeypatch, block):
    # the second jump at 0.3 leaves a zero-length sub-step; block 0 drew
    # for both, so one normal carries over into block 1
    if block:
        short_blocks(monkeypatch, 1, block)
    nodes = np.linspace(0.0, 1.0, 5)
    jumps, x, z, _ = march_fixed_arrivals(monkeypatch, [0.3, 0.3], nodes)
    want = 0.25
    for dt, zk in zip([0.25, 0.3 - 0.25, 0.5 - 0.3, 0.25, 0.25], z):
        want = want + 0.0 * dt + 1.0 * np.sqrt(dt) * zk
    assert jumps == [0.3, 0.3]
    assert x == want


@pytest.mark.parametrize("n_paths", [0, -3])
def test_n_paths_must_be_positive(n_paths):
    calls = [
        lambda: simulate_ensemble(dyn(), empty_geometry(), uniform_levy(),
                                  (0.0, 0.0, 1), None, h=0.1, t_end=1.0,
                                  n_paths=n_paths, seed=0),
        lambda: coupled_pair_divergence(drifted(), tanh_geometry(), uniform_levy(),
                                        None, 0.5, 0.6, 1, n_paths=n_paths, seed=4,
                                        h=0.05, t_end=1.0),
        lambda: estimate_transition_rate(dyn(), tanh_geometry(), uniform_levy(),
                                         0.0, 1, 2, 0.01, n_paths, 0),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="n_paths must be >= 1"):
            call()


@pytest.mark.parametrize("n, n_steps", [(8192, 1000), (64, 100_000), (1, 10)])
def test_normals_window_bounded_by_its_budget(n, n_steps):
    # the whole-horizon matrix would take n * n_steps * 8 bytes: 51 MB at
    # (64, 100_000), whatever the budget
    nodes = np.linspace(0.0, 10.0, n_steps + 1)
    noise = sde._Noise(1, np.arange(n), nodes, True)
    cap = sde._jump_columns(10.0)
    tile_cap = max(sde._TILE_BYTES, 8 * noise.tile.shape[1])
    assert noise.normals.nbytes <= sde._NORMALS_BLOCK_BYTES + n * cap * 8
    assert noise.tile.nbytes <= tile_cap
    assert noise.block == min(n_steps, sde._NORMALS_BLOCK_BYTES // (8 * n))
    # a one-block chunk keeps no paused positions; else one row of words a path
    if noise.block == n_steps:
        assert noise.position is None
    else:
        assert noise.position.nbytes == n * sde._STATE_WORDS * 8
    if (n, n_steps) == (8192, 1000):
        assert noise.block == 256


def test_ensemble_rows_equal_simulate_path_in_short_blocks(monkeypatch):
    # 7 steps a block for the single path, 2 for the three-path ensemble
    short_blocks(monkeypatch, 1, 7)
    test_ensemble_rows_equal_simulate_path()


@pytest.mark.parametrize("geometry, xi1, xi2, n_paths, seed, t_end", [
    (tanh_geometry, 0.5, 0.5, 500, 4, 1.0),
    (constant_geometry, 0.2, 0.8, 2000, 6, 1.0),
    (tanh_geometry, 0.0, 0.8, 6000, 8, 2.0),
    (tanh_geometry, 0.0, 0.1, 6000, 8, 2.0),
])
def test_coupled_results_equal_in_short_blocks(monkeypatch, geometry, xi1, xi2,
                                               n_paths, seed, t_end):
    # both copies of a path read its normals through one window pointer
    def run():
        return coupled_pair_divergence(drifted(), geometry(), uniform_levy(), None,
                                       xi1, xi2, 1, n_paths=n_paths, seed=seed,
                                       h=0.05, t_end=t_end)

    want = run()
    short_blocks(monkeypatch, n_paths, 7)
    assert run() == want
