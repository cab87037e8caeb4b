import numpy as np
import pytest

from switchctl.errors import ConfigError, DomainError
from switchctl.expressions import eval_expression
from switchctl.fields import (FeedbackStrategy, SpatialGrid, TwoTimeField,
                              ValueField, d1, d2, time_grid)


def make_field(n_t=5, n_x=11, m=2):
    grid = SpatialGrid(-1, 1, n_x)
    times = time_grid(0, 1, n_t - 1)
    vals = np.stack([np.stack([np.sin(grid.x + s) + i for i in range(m)], axis=1)
                     for s in times])
    return ValueField(times, grid, vals)


def test_grid_validation():
    with pytest.raises(ConfigError):
        SpatialGrid(0, 1, 2)
    with pytest.raises(ConfigError):
        SpatialGrid(1, 0, 11)
    with pytest.raises(ConfigError):
        time_grid(1, 1, 4)


def test_derivative_stencils_second_order():
    grid = SpatialGrid(-1, 1, 21)
    # both stencils (central and one-sided edges) are exact on quadratics
    v = 4 * grid.x**2 + grid.x
    assert np.allclose(d1(v, grid.dx), 8 * grid.x + 1, atol=1e-9)
    assert np.allclose(d2(v, grid.dx), 8.0, atol=1e-9)
    # the d2 stencils are exact on cubics as well
    w = grid.x**3
    assert np.allclose(d2(w, grid.dx), 6 * grid.x, atol=1e-9)


def test_field_interpolation_and_node_lookup():
    fld = make_field()
    assert fld.at(0.0, fld.grid.x, 1) == pytest.approx(np.sin(fld.grid.x), abs=1e-12)
    mid = fld.at(0.125, np.array([0.05]), 2)
    assert np.isfinite(mid).all()
    with pytest.raises(DomainError):
        fld.at(2.0, np.array([0.0]), 1)
    with pytest.raises(ConfigError):
        fld.time_index(0.33)


def test_binary_round_trip(tmp_path):
    fld = make_field()
    path = tmp_path / "field.bin"
    fld.to_binary(path)
    back = ValueField.from_binary(path)
    assert np.array_equal(back.values, fld.values)
    assert np.array_equal(back.times, fld.times)
    assert back.grid == fld.grid
    # header is a single JSON line describing the grid
    import json
    header = json.loads(open(path, "rb").readline())
    assert header["n_x"] == fld.grid.n_x and header["m"] == fld.m


def test_csv_long_format(tmp_path):
    fld = make_field(n_t=2, n_x=3, m=2)
    path = tmp_path / "field.csv"
    fld.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,x,i,value"
    assert len(lines) == 1 + 2 * 3 * 2
    s, x, i, v = lines[1].split(",")
    assert float(s) == fld.times[0] and int(i) == 1
    assert float(v) == fld.values[0, 0, 0]


# entries whose repr is easy to get wrong: exponent forms, signed zero,
# non-finite values and the smallest subnormal
AWKWARD = [1e-05, 1e16, -0.0, np.nan, np.inf, -np.inf, 5e-324]


def awkward_grid_values(shape, seed=0):
    vals = np.random.default_rng(seed).standard_normal(shape)
    vals.reshape(-1)[:len(AWKWARD)] = AWKWARD
    vals.reshape(-1)[-len(AWKWARD):] = AWKWARD
    return vals


def awkward_times(n_t):
    # strictly increasing, starting -0.0, 5e-324, 1e-05 and ending at 1e16
    return np.concatenate([[-0.0, 5e-324, 1e-05], np.linspace(0.1, 1.0, n_t - 4),
                           [1e16]])


def test_csv_bytes_match_per_line_writers(tmp_path):
    # 12 x 13 x 2 = 312 lines, more than one CSV_BLOCK
    from switchctl.fields import CSV_BLOCK
    from switchctl.sde import Path
    import csv_oracle

    n_t, n_x, m = 12, 13, 2
    assert n_t * n_x * m > CSV_BLOCK
    grid = SpatialGrid(-1, 1, n_x)
    times = awkward_times(n_t)
    fld = ValueField(times, grid, awkward_grid_values((n_t, n_x, m)))
    strat = FeedbackStrategy(times, grid, awkward_grid_values((n_t, n_x, m, 2), 1),
                             names=["invest", "consume"])
    n_nodes = 2 * CSV_BLOCK + 3
    sample = Path(times=np.linspace(0.0, 2.0, n_nodes),
                  states=awkward_grid_values(n_nodes, 2),
                  regimes=np.arange(n_nodes, dtype=np.int64) % 3 + 1,
                  jumps=[], seed=0, path_index=0)
    for obj, oracle in ((fld, csv_oracle.value_field_csv),
                        (strat, csv_oracle.strategy_csv),
                        (sample, csv_oracle.path_csv)):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        obj.to_csv(got)
        oracle(obj, want)
        assert got.read_bytes() == want.read_bytes()


def test_phi_table_bytes_match_per_line_writer(tmp_path):
    # NaN-prefixed rows, as in the pre-committed and equilibrium tables
    from switchctl.cli import _Artifacts, _write_phi_table
    from switchctl.fields import CSV_BLOCK
    import csv_oracle

    n_t, m = 150, 2
    times = awkward_times(n_t)
    phi = awkward_grid_values((3, n_t, m))
    phi[0, :40] = np.nan
    phi[1, 1:7, 1] = np.nan
    taus = [-0.0, 1e-05, 0.25]
    _write_phi_table(_Artifacts(str(tmp_path)), "got.csv", taus, times, phi)
    csv_oracle.phi_table_csv(tmp_path / "want.csv", times,
                             {tau: phi[a] for a, tau in enumerate(taus)})
    want = (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "got.csv").read_bytes() == want
    assert want.count(b"\n") > CSV_BLOCK + 1


@pytest.mark.parametrize("columns", [
    # integer columns: int64 labels, int32 and negative counts, with floats
    (awkward_times(4)[:, None, None, None],
     np.array([3, -1], dtype=np.int32)[:, None, None],
     np.array([-7, 0, 2**40], dtype=np.int64)[:, None], np.arange(1, 4)),
    # zero-size columns, alone and broadcast against others
    (np.zeros(0),),
    (np.zeros((0, 1)), np.arange(3), 2.5),
    # 0-d columns against one long column, over several blocks
    (np.float64(-0.0), 7, awkward_grid_values(600, 3)),
    # one column that spans the broadcast shape, a last block of one line
    (awkward_grid_values((2, 3, 43), 4), np.arange(43)),
], ids=["integers", "empty", "empty-broadcast", "scalars", "full-column"])
def test_write_csv_matches_per_entry_oracle(tmp_path, columns):
    from switchctl.fields import write_csv
    import csv_oracle

    header = [f"c{j}" for j in range(len(columns))]
    write_csv(tmp_path / "got.csv", header, columns)
    csv_oracle.write_csv(tmp_path / "want.csv", header, columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_strategy_clamps_to_bounds():
    grid = SpatialGrid(-1, 1, 5)
    times = time_grid(0, 1, 2)
    vals = np.full((3, 5, 2, 1), 3.0)
    strat = FeedbackStrategy(times, grid, vals, bounds=[(-1.0, 1.0)])
    out = strat(0.5, np.array([0.0, 0.3]), 1)
    assert np.all(out == 1.0)


def test_strategy_at_times_matches_scalar_calls():
    grid = SpatialGrid(-1, 1, 9)
    times = time_grid(0, 1, 4)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(5, 9, 2, 2))
    strat = FeedbackStrategy(times, grid, vals)
    ss = np.array([0.1, 0.4, 0.9])
    xs = np.array([-0.5, 0.0, 0.7])
    batch = strat(ss, xs, 2)
    for k in range(3):
        single = strat(float(ss[k]), xs[k:k + 1], 2)
        assert np.allclose(batch[k], single[0], atol=1e-14)


@pytest.fixture(scope="module")
def toy_lq_solution():
    from switchctl.equilibrium import solve_equilibrium
    from switchctl.models import MODEL_PRESETS
    model = MODEL_PRESETS["toy-lq"]()
    grid = model.default_grid(11)
    return solve_equilibrium(model, grid, time_grid(0, 1, 8))


@pytest.mark.parametrize("label", [0, -1, 3])
def test_value_field_rejects_unknown_regime_label(toy_lq_solution, label):
    # label 0 once answered for regime m, and 3 raised a bare IndexError
    value = toy_lq_solution.value
    assert value.m == 2
    with pytest.raises(DomainError, match=f"regime label {label} ") as info:
        value.at(0.3, np.array([0.0, 0.5]), label)
    assert info.value.exit_code == 2


@pytest.mark.parametrize("label", [0, -1, 3])
def test_feedback_strategy_rejects_unknown_regime_label(toy_lq_solution, label):
    # label 0 once answered for regime m, -1 for regime 1, and 3 raised
    # a bare IndexError
    strategy = toy_lq_solution.strategy
    assert strategy.m == 2
    for s in (0.3, np.array([0.3, 0.6])):
        with pytest.raises(DomainError, match=f"regime label {label} ") as info:
            strategy(s, np.array([0.0, 0.5]), label)
        assert info.value.exit_code == 2


def test_two_time_field_rows_and_diagonal():
    grid = SpatialGrid(-1, 1, 5)
    times = time_grid(0, 1, 3)
    tt = TwoTimeField(times, grid, 2)
    for k in range(4):
        tt.set_row(k, np.full((4 - k, 5, 2), float(k)))
    diag = tt.diagonal()
    assert np.allclose(diag.values[2], 2.0)
    row = tt.row(1)
    assert row.values.shape == (3, 5, 2)
    assert np.isnan(tt.values[2, 0]).all()


def test_two_time_field_refused_from_its_estimate(monkeypatch):
    # 1001 times x 401 nodes x 2 regimes is 6.4 GB: refused on a 7 GB
    # machine before the array exists, accepted on a larger one
    from switchctl import fields
    assert fields.two_time_bytes(1001, 401, 2) == 8 * 1001**2 * 401 * 2
    grid = SpatialGrid(-1, 1, 401)
    times = time_grid(0, 1, 1000)
    allocated = []      # np.full stands in for the allocation
    monkeypatch.setattr(fields.np, "full", lambda *a, **k: allocated.append(a))
    monkeypatch.setattr(fields, "physical_memory_bytes", lambda: 7 * 10**9)
    with pytest.raises(ConfigError, match="6428838416 bytes") as err:
        TwoTimeField(times, grid, 2)
    assert err.value.exit_code == 2
    assert "n_t=1001" in str(err.value) and "n_x=401" in str(err.value)
    assert allocated == []
    monkeypatch.setattr(fields, "physical_memory_bytes", lambda: 16 * 10**9)
    TwoTimeField(times, grid, 2)
    assert allocated == [((1001, 1001, 401, 2), np.nan)]


def test_eval_expression_op():
    assert eval_expression("2^3^2", {}) == 512
    assert eval_expression("x + tau", {"x": 1.0, "tau": 0.5}) == 1.5
