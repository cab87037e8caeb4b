"""The in-package not-a-knot spline against scipy's CubicSpline, bit for bit.

``merton._Spline`` reads the φ tables between nodes; it repeats
``scipy.interpolate.CubicSpline``'s arithmetic op for op, so the
coefficients and every value, in range or extrapolated, must carry the
same bits.  scipy stays the reference here, as in ``phi_oracle``.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from switchctl.errors import ConfigError, NumericError
from switchctl.merton import PhiSolution, _Spline, equilibrium_policy
from switchctl.models import merton_spec


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def nodes(n, kind, rng):
    if kind == "graded":
        # spacings over four decades make the tridiagonal solve swap rows
        return np.concatenate([[0.0], np.cumsum(np.exp(rng.uniform(-6.0, 3.0, n - 1)))])
    x = np.linspace(0.0, 1.0, n)
    if kind == "jittered" and n > 2:
        x[1:-1] += rng.uniform(-0.3, 0.3, n - 2) / (n - 1)
    return x


def queries(x):
    span = x[-1] - x[0]
    beyond = [x[0] - 0.5 * span, x[0] - 1e-9, x[-1] + 1e-9, x[-1] + 0.5 * span]
    return np.concatenate([x, 0.5 * (x[:-1] + x[1:]), beyond])


@pytest.mark.parametrize("kind", ["uniform", "jittered", "graded"])
@pytest.mark.parametrize("n", [2, 3, 4, 13, 25, 97, 801])
def test_spline_is_bitwise_scipy_cubic_spline(n, kind):
    rng = np.random.default_rng(n)
    x = nodes(n, kind, rng)
    assert (np.diff(x) > 0).all()
    # a phi-like positive decreasing profile with some roughness
    y = 1.0 + np.exp(-2.0 * x) + 0.01 * rng.standard_normal(n)
    want = CubicSpline(x, y)
    got = _Spline(x, y)
    assert np.array_equal(bits(got.c), bits(want.c.T))
    q = queries(x)
    values = got(q)
    assert np.array_equal(bits(values), bits(want(q)))
    for s, v in zip(q.tolist(), values.tolist()):
        assert bits(got.at(s)) == bits(got(np.array([s]))[0]) == bits(v), s


def test_spline_scalar_reads_numpy_floats():
    x = np.linspace(0.0, 1.0, 9)
    sp = _Spline(x, np.cos(x))
    assert bits(sp.at(np.float64(0.37))) == bits(sp.at(0.37))


@pytest.mark.parametrize("x, y", [
    ([0.0], [1.0]),
    ([], []),
    (0.0, 1.0),
    ([0.0, 0.5, 1.0], [1.0, 2.0]),
])
def test_spline_needs_two_nodes_with_one_value_each(x, y):
    with pytest.raises(ConfigError, match="at least two nodes"):
        _Spline(x, y)


@pytest.mark.parametrize("x", [[0.0, 0.5, 0.5, 1.0], [0.0, 0.7, 0.4, 1.0],
                               [1.0, 0.0]])
def test_spline_needs_strictly_increasing_times(x):
    with pytest.raises(ConfigError, match="strictly increasing"):
        _Spline(x, np.ones(len(x)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spline_needs_finite_times(bad):
    with pytest.raises(ConfigError, match="times must be finite"):
        _Spline([0.0, bad, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spline_needs_finite_values(bad):
    with pytest.raises(NumericError, match="values must be finite"):
        _Spline([0.0, 0.5, 1.0, 2.0], [1.0, bad, 1.0, 1.0])


def test_policy_on_bad_phi_raises_typed_errors():
    spec = merton_spec(time_inconsistent=True)
    one_node = PhiSolution(times=np.array([0.0]), eq_diag=np.ones((1, spec.m)))
    with pytest.raises(ConfigError) as info:
        equilibrium_policy(spec, one_node)
    assert info.value.exit_code == 2
    times = np.linspace(0.0, 1.0, 5)
    diag = np.ones((5, spec.m))
    diag[2, 1] = np.inf
    with pytest.raises(NumericError) as info:
        equilibrium_policy(spec, PhiSolution(times=times, eq_diag=diag))
    assert info.value.exit_code == 3
