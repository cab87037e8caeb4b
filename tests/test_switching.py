import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchctl.errors import GeometryError
from switchctl.switching import (LevyMeasure, RegimeGeometry,
                                 interval_measure_gap, rate_matrix,
                                 rate_matrix_table)


def uniform_levy(beta0=1.0):
    return LevyMeasure(lambda th: np.full_like(np.asarray(th, dtype=float),
                                               1.0 / (2 * beta0)), beta0)


def constant_geometry():
    """Delta_12 = [0, 0.4), Delta_21 = [-0.6, -0.2)."""
    rows = [[0.0, 0.0, 0.4],
            [-0.6, -0.2, -0.2]]
    return RegimeGeometry(rows, beta0=1.0)


def tanh_geometry():
    rows = [
        [0.0, 0.0, lambda x: 0.2 + 0.1 * np.tanh(x)],
        [-0.6, lambda x: -0.4 - 0.1 * np.tanh(x), lambda x: -0.4 - 0.1 * np.tanh(x)],
    ]
    return RegimeGeometry(rows, beta0=1.0)


def empty_geometry(m=2):
    rows = [[0.0] * (m + 1) for _ in range(m)]
    return RegimeGeometry(rows, beta0=1.0)


# ---- interval -------------------------------------------------------------

def test_interval_ii_always_empty():
    geo = constant_geometry()
    for x in (-2.0, 0.0, 1.5):
        assert geo.interval(1, 1, x) is None
        assert geo.interval(2, 2, x) is None


def test_interval_constant_endpoints():
    geo = constant_geometry()
    assert geo.interval(1, 2, 0.3) == (0.0, 0.4)


def test_interval_empty_when_endpoints_coincide():
    rows = [[0.0, 0.0, 0.4, 0.4],
            [-0.6, -0.2, -0.2, -0.1],
            [0.5, 0.6, 0.7, 0.7]]
    geo = RegimeGeometry(rows, beta0=1.0)
    assert geo.interval(1, 3, 0.0) is None  # beta_12 = beta_13 = 0.4


def test_reversed_row_rejected_at_construction():
    rows = [[0.0, 0.0, -0.4],
            [-0.6, -0.2, -0.2]]
    with pytest.raises(GeometryError, match="chain ordering"):
        RegimeGeometry(rows, beta0=1.0)


def test_delta_ii_nonempty_rejected():
    rows = [[0.0, 0.1, 0.4],
            [-0.6, -0.2, -0.2]]
    with pytest.raises(GeometryError, match="Delta_ii"):
        RegimeGeometry(rows, beta0=1.0)


def test_thresholds_outside_beta0_rejected():
    rows = [[0.0, 0.0, 1.4],
            [-0.6, -0.2, -0.2]]
    with pytest.raises(GeometryError, match="beta0"):
        RegimeGeometry(rows, beta0=1.0)


# ---- mark_to_jump ---------------------------------------------------------

def test_mark_inside_interval_jumps():
    geo = constant_geometry()
    assert geo.mark_to_jump(0.0, 1, 0.2) == 2


def test_mark_outside_all_intervals_stays():
    geo = constant_geometry()
    assert geo.mark_to_jump(0.0, 1, -0.9) == 1


def test_mark_second_row():
    geo = constant_geometry()
    assert geo.mark_to_jump(0.0, 2, -0.5) == 1
    assert geo.mark_to_jump(0.0, 2, 0.2) == 2


def test_mark_to_jump_array_matches_scalar():
    geo = tanh_geometry()
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2, 2, 200)
    regs = rng.integers(1, 3, 200)
    thetas = rng.uniform(-1, 1, 200)
    vec = geo.mark_to_jump_array(xs, regs, thetas)
    scal = [geo.mark_to_jump(x, int(i), th) for x, i, th in zip(xs, regs, thetas)]
    assert np.array_equal(vec, np.asarray(scal))


# ---- rate_matrix ----------------------------------------------------------

def test_rate_matrix_constant_preset():
    geo = constant_geometry()
    q = rate_matrix(geo, uniform_levy(), 0.0)
    assert np.allclose(q, [[-0.2, 0.2], [0.2, -0.2]], atol=1e-12)


def test_rate_matrix_all_empty_is_zero():
    q = rate_matrix(empty_geometry(), uniform_levy(), 0.3)
    assert np.all(q == 0.0)


def test_rate_matrix_rows_sum_to_zero():
    geo = tanh_geometry()
    levy = uniform_levy()
    for x in np.linspace(-3, 3, 11):
        q = rate_matrix(geo, levy, x)
        scale = max(np.max(np.abs(q)), 1.0)
        assert np.max(np.abs(q.sum(axis=1))) <= 1e-12 * scale
        off = q - np.diag(np.diag(q))
        assert np.all(off >= 0)


def test_rate_matrix_tanh_values():
    geo = tanh_geometry()
    q = rate_matrix(geo, uniform_levy(), 0.0)
    assert q[0, 1] == pytest.approx(0.1, abs=1e-10)
    assert q[1, 0] == pytest.approx(0.1, abs=1e-10)
    q1 = rate_matrix(geo, uniform_levy(), 1.0)
    assert q1[0, 1] == pytest.approx((0.2 + 0.1 * np.tanh(1.0)) / 2, abs=1e-10)


def test_rate_matrix_table_shape():
    geo = tanh_geometry()
    tab = rate_matrix_table(geo, uniform_levy(), np.linspace(-1, 1, 5))
    assert tab.shape == (5, 2, 2)


# ---- interval_measure_gap -------------------------------------------------

def test_gap_zero_for_constant_thresholds():
    geo = constant_geometry()
    levy = uniform_levy()
    for delta in (0.0, 0.1, 0.5):
        out, inn = interval_measure_gap(geo, levy, 1, 2, 0.0, delta)
        assert out == 0.0 and inn == 0.0


def test_gap_zero_at_delta_zero():
    geo = tanh_geometry()
    assert interval_measure_gap(geo, uniform_levy(), 1, 2, 0.5, 0.0) == (0.0, 0.0)


def test_gap_lipschitz_bound():
    # tanh has Lipschitz constant 1, so beta_12 moves at most 0.1*delta;
    # with density 1/2 each of the two gaps is at most 2 * 0.05 * delta.
    geo = tanh_geometry()
    levy = uniform_levy()
    c, L = 0.5, 0.1
    for x in (-1.0, 0.0, 2.0):
        for delta in (0.05, 0.2, 0.8):
            out, inn = interval_measure_gap(geo, levy, 1, 2, x, delta)
            assert out + inn <= 4 * c * L * delta + 1e-9


def test_gap_monotone_and_vanishing():
    geo = tanh_geometry()
    levy = uniform_levy()
    deltas = [0.4, 0.2, 0.1, 0.05, 0.0125]
    gaps = [sum(interval_measure_gap(geo, levy, 2, 1, 0.3, d)) for d in deltas]
    assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.02


# ---- Levy measure ---------------------------------------------------------

def test_levy_mass_must_be_one():
    from switchctl.errors import NumericError
    with pytest.raises(NumericError, match="integrate to 1"):
        LevyMeasure(lambda th: np.full_like(np.asarray(th, float), 1.0), beta0=1.0)


def test_levy_sampler_matches_cdf():
    levy = uniform_levy()
    u = np.linspace(0, 1, 9)
    marks = levy.sample_from_uniform(u)
    assert np.allclose(marks, -1 + 2 * u, atol=1e-9)


def test_nonuniform_levy_quadrature():
    beta0 = 1.0
    dens = lambda th: (1.0 + np.cos(np.pi * th / beta0)) / (2 * beta0)
    levy = LevyMeasure(dens, beta0)
    # analytic integral over [0, 0.4)
    want = 0.4 / 2 + np.sin(np.pi * 0.4) / (2 * np.pi)
    assert levy.measure(0.0, 0.4) == pytest.approx(want, abs=1e-9)


# ---- property tests -------------------------------------------------------

@st.composite
def _sorted_rows(draw):
    m = draw(st.integers(2, 4))
    rows = []
    for i in range(1, m + 1):
        vals = sorted(draw(st.lists(st.floats(-1, 1, allow_nan=False),
                                    min_size=m + 1, max_size=m + 1)))
        vals[i - 1] = vals[i]  # enforce beta_{i,i-1} = beta_ii, order preserved
        rows.append(vals)
    return rows


@settings(max_examples=60, deadline=None)
@given(_sorted_rows(), st.floats(-1, 1), st.floats(-1, 1))
def test_intervals_partition_no_overlap(rows, x, theta):
    geo = RegimeGeometry(rows, beta0=1.0)
    for i in range(1, geo.m + 1):
        hits = 0
        for j in range(1, geo.m + 1):
            iv = geo.interval(i, j, x)
            if iv is not None and iv[0] <= theta < iv[1]:
                hits += 1
        assert hits <= 1
        target = geo.mark_to_jump(x, i, float(np.clip(theta, -1, 1)))
        assert 1 <= target <= geo.m


def test_interval_mass_bound_enforced():
    from switchctl.errors import NumericError
    levy = LevyMeasure(lambda th: np.full_like(np.asarray(th, float), 0.5),
                       beta0=1.0, interval_mass_bound=0.1)
    geo = constant_geometry()  # q_12 = 0.2 > 0.1
    with pytest.raises(NumericError, match="bound"):
        rate_matrix(geo, levy, 0.0)
