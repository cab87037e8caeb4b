import json
import os
import sys

from switchctl.cli import main

SIM_CFG = """
[model]
regimes = 2
beta0 = 1.0
beta_1 = 0, 0, 0.2 + 0.1*tanh(x)
beta_2 = -0.6, -0.4 - 0.1*tanh(x), -0.4 - 0.1*tanh(x)
drift = 0.1*x
sigma = 0.2
x0 = 0.5
i0 = 1
[grid]
t_max = 2.0
[solver]
h = 0.05
[run]
seed = 42
"""

RATES_EMPTY_CFG = """
[model]
geometry = empty
[solver]
n_paths = 500
ds = 0.001
rate_states = -1.0, 0.0, 1.0
[run]
seed = 4
"""

RATES_TANH_CFG = """
[model]
geometry = tanh
drift = 0
sigma = 0.1
[solver]
n_paths = 3000
ds = 0.02
rate_states = -1.0, 0.0, 1.0
[run]
seed = 5
workers = {workers}
"""

EQ_CFG = """
[model]
preset = merton-ti
[grid]
n_x = 41
n_t = 64
[solver]
tol = 1e-9
[run]
seed = 9
"""

VERIFY_CFG = """
[model]
preset = toy-lq
[grid]
n_x = 41
n_t = 64
[solver]
tol = 1e-10
epsilons = 0.125, 0.0625
spike_anchor = 0.25
[run]
seed = 9
"""


def run_cli(tmp_path, name, cfg_text, args=()):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(cfg_text)
    out = tmp_path / f"{name}_out"
    code = main([*args[:1], str(cfg), "--out", str(out), *args[1:]])
    return code, out


def test_simulate_writes_path_and_manifest(tmp_path, capsys):
    code, out = run_cli(tmp_path, "sim", SIM_CFG, ("simulate",))
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["subcommand"] == "simulate"
    lines = (out / "path.csv").read_text().splitlines()
    assert lines[0] == "t,X,alpha"
    manifest = json.loads((out / "manifest.json").read_text())
    names = [a["name"] for a in manifest["artifacts"]]
    assert names == ["jumps.json", "path.csv"]


def test_rates_empty_geometry_exact_zeros(tmp_path, capsys):
    code, out = run_cli(tmp_path, "rates", RATES_EMPTY_CFG, ("rates",))
    assert code == 0
    table = json.loads((out / "rates.json").read_text())
    assert len(table) == 6
    assert all(r["q_theory"] == 0.0 and r["q_empirical"] == 0.0 for r in table)


def test_rates_threaded_cells_match_serial(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SWITCHCTL_WORKERS", raising=False)
    tables = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # interleave the cells' threads finely
    try:
        for workers in (1, 2):
            code, out = run_cli(tmp_path, f"rates{workers}",
                                RATES_TANH_CFG.format(workers=workers), ("rates",))
            assert code == 0
            tables[workers] = (out / "rates.json").read_bytes()
    finally:
        sys.setswitchinterval(interval)
    assert tables[1] == tables[2]
    assert any(r["q_empirical"] > 0 for r in json.loads(tables[1]))


def test_equilibrium_run_and_residual_log(tmp_path, capsys):
    code, out = run_cli(tmp_path, "eq", EQ_CFG, ("equilibrium",))
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert "sweeps" not in summary
    rows = [json.loads(line) for line in
            (out / "residual_log.jsonl").read_text().splitlines()]
    # the march takes no sweeps: the log is the final residual alone
    assert rows == [{"residual": summary["final_residual"]}]
    assert rows[-1]["residual"] is not None
    assert (out / "value.csv").exists() and (out / "strategy.csv").exists()


def test_verify_runs_and_reports_intercept(tmp_path, capsys):
    code, out = run_cli(tmp_path, "ver", VERIFY_CFG, ("verify",))
    assert code == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["epsilon"] == [0.125, 0.0625]
    assert payload["intercept_estimate"] >= -1e-3
    assert (out / "gain.csv").exists()


def test_verify_epsilon_below_resolution_fails(tmp_path, capsys):
    bad = VERIFY_CFG.replace("epsilons = 0.125, 0.0625",
                             "epsilons = 0.001")
    code, out = run_cli(tmp_path, "verbad", bad, ("verify",))
    assert code != 0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ResolutionError"


def test_config_error_exit_code(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "bad", "[model]\npresett = x\n", ("simulate",))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "preset" in err["message"]


def test_simulate_start_regime_outside_labels_exit_2(tmp_path, capsys):
    code, out = run_cli(tmp_path, "sim", SIM_CFG.replace("i0 = 1", "i0 = 5"),
                        ("simulate",))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "start regime 5" in err["message"]
    assert not (out / "path.csv").exists()


def test_simulate_geometry_regime_count_mismatch_exit_2(tmp_path, capsys):
    # the 2-regime tanh preset under 1-regime dynamics used to freeze the
    # path in regime 2 (seed 6 jumps there at t ~ 1.50)
    cfg = """
[model]
geometry = tanh
regimes = 1
drift = 0.1*x
sigma = 0.2
x0 = 0.5
i0 = 1
[grid]
t_max = 8
[solver]
h = 0.05
[run]
seed = 6
"""
    code, out = run_cli(tmp_path, "sim", cfg, ("simulate",))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "geometry has 2 regimes but the dynamics have 1" in err["message"]
    assert not (out / "path.csv").exists()


def test_dry_run_prints_plan_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "plan.ini"
    cfg.write_text(EQ_CFG)
    out = tmp_path / "plan_out"
    code = main(["equilibrium", str(cfg), "--out", str(out), "--dry-run"])
    assert code == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["subcommand"] == "equilibrium"
    assert "value.csv" in plan["artifacts"]
    assert not out.exists()


def test_merton_subcommand_variants(tmp_path, capsys):
    base = """
[model]
preset = merton-ti
[grid]
n_t = 64
[solver]
variant = VARIANT
[run]
seed = 3
"""
    for variant in ("tc", "pre", "eq"):
        code, out = run_cli(tmp_path, f"m_{variant}",
                            base.replace("VARIANT", variant), ("merton",))
        assert code == 0
        header = (out / "phi.csv").read_text().splitlines()[0]
        assert header == "tau,s,i,phi"
        report = json.loads((out / "comparison.json").read_text())
        assert report["variant"] == variant
    # the last report is the eq variant's
    assert report["rounds"] >= 1 and report["final_change"] < 1e-12


def test_reproducibility_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "re.ini"
    cfg.write_text(SIM_CFG)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"re_{run}"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("path.csv", "jumps.json", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_env_override_output_dir(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.ini"
    cfg.write_text(SIM_CFG)
    target = tmp_path / "env_out"
    monkeypatch.setenv("SWITCHCTL_OUTDIR", str(target))
    assert main(["simulate", str(cfg)]) == 0
    assert (target / "path.csv").exists()


def test_partition_solve_subcommand(tmp_path, capsys):
    cfg_text = """
[model]
preset = merton-ti
[grid]
n_x = 41
n_t = 64
[solver]
partitions = 1, 2
[run]
seed = 5
"""
    code, out = run_cli(tmp_path, "psv", cfg_text, ("partition-solve",))
    assert code == 0
    table = json.loads((out / "convergence.json").read_text())
    assert table[0]["sup_diff_V"] is None
    assert table[1]["sup_diff_V"] >= 0.0
    assert (out / "value.csv").exists()


def test_dry_run_all_subcommands(tmp_path, capsys):
    cfg = tmp_path / "all.ini"
    cfg.write_text(EQ_CFG + "\n")
    for sub in ("simulate", "rates", "partition-solve", "equilibrium",
                "merton", "verify"):
        out = tmp_path / f"dry_{sub}"
        assert main([sub, str(cfg), "--out", str(out), "--dry-run"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["subcommand"] == sub and plan["artifacts"]
        assert not out.exists()


SMALL_MERTON_CFG = """
[model]
preset = merton-ti
[grid]
n_x = 21
n_t = 16
[solver]
partitions = 1, 2
[run]
seed = 2
"""


def test_dry_run_plan_names_the_written_artifacts(tmp_path, capsys):
    configs = {
        "simulate": SIM_CFG,
        "rates": RATES_EMPTY_CFG,
        "partition-solve": SMALL_MERTON_CFG,
        "equilibrium": SMALL_MERTON_CFG,
        "merton": SMALL_MERTON_CFG,
        "verify": VERIFY_CFG.replace("n_x = 41\nn_t = 64", "n_x = 21\nn_t = 32"),
    }
    for k, formats in enumerate(("csv", "bin", "csv, bin")):
        for sub, text in configs.items():
            cfg = f"{text}\n[output]\nformats = {formats}\n"
            name = f"{sub}_{k}"
            assert run_cli(tmp_path, name, cfg, (sub, "--dry-run"))[0] == 0
            plan = json.loads(capsys.readouterr().out)["artifacts"]
            code, out = run_cli(tmp_path, name, cfg, (sub,))
            assert code == 0
            capsys.readouterr()
            manifest = json.loads((out / "manifest.json").read_text())
            written = [a["name"] for a in manifest["artifacts"]]
            assert sorted(plan) == sorted([*written, "manifest.json"]), (sub, formats)


def test_partition_knots_must_span_the_time_grid(tmp_path, capsys):
    base = """
[model]
preset = toy-lq
[grid]
n_x = 21
n_t = 16
[solver]
knots = KNOTS
[run]
seed = 1
"""
    for name, knots in (("late_start", "0.25, 0.5, 1.0"),
                        ("early_end", "0, 0.25, 0.5")):
        code, out = run_cli(tmp_path, name, base.replace("KNOTS", knots),
                            ("partition-solve",))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "partition knots" in err["message"]
        assert "start 0 to its end 1" in err["message"]
        assert not (out / "value.csv").exists()


def test_nonconvergence_exit_code_4(tmp_path, capsys, monkeypatch):
    # the phi fixed point behind the Dirichlet data, held to one sweep
    import functools
    from switchctl import merton
    monkeypatch.setattr(merton, "solve_equilibrium_ode", functools.partial(
        merton.solve_equilibrium_ode, max_iter=1))
    bad = EQ_CFG.replace("tol = 1e-9", "tol = 1e-13")
    code, _ = run_cli(tmp_path, "noconv", bad, ("equilibrium",))
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConvergenceError"


def test_workers_env_must_be_a_positive_integer(tmp_path, capsys, monkeypatch):
    for value in ("abc", "0"):
        monkeypatch.setenv("SWITCHCTL_WORKERS", value)
        code, _ = run_cli(tmp_path, "workers", SIM_CFG, ("simulate", "--dry-run"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "SWITCHCTL_WORKERS" in err["message"]


def test_oversized_two_time_field_exit_code_2(tmp_path, capsys, monkeypatch):
    # verify keeps one two-time row; the march's estimate counts it, the
    # two-level buffer, the controls and the diagonal, and on a machine
    # with less than twice that memory the run is refused before the
    # march starts
    from switchctl import equilibrium, fields
    need = equilibrium.march_bytes(1001, 401, 2, 1, 1, False)
    assert need == 8 * 1001 * 401 * 2 * (1 + 2 + 1 + 1)
    monkeypatch.setattr(fields, "physical_memory_bytes", lambda: need)

    def no_march(*args, **kwargs):
        raise AssertionError("the march started")

    monkeypatch.setattr(equilibrium, "solve_rows_batch", no_march)
    # a ladder whose windows end on nodes of this grid (0.3125 is not one),
    # so that the ladder check, made before the march, passes
    big = VERIFY_CFG.replace("n_x = 41\nn_t = 64", "n_x = 401\nn_t = 1000")
    big = big.replace("0.125, 0.0625", "0.125, 0.05")
    code, out = run_cli(tmp_path, "big", big, ("verify",))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert str(need) in err["message"]
    assert "n_t=1001" in err["message"] and "n_x=401" in err["message"]
    assert not (out / "verify.json").exists()


def test_equilibrium_memory_stays_off_the_triangle(tmp_path, capsys):
    # merton-ti at n_x 61, n_t 192, where the n_t^2 triangle alone would
    # take 36 MB: the CLI keeps no two-time row, and its traced peak
    # (5.5 MB, against 41 MB with the triangle) stays far below it
    import tracemalloc
    from switchctl import fields
    assert fields.two_time_bytes(193, 61, 2) > 36 * 10**6
    cfg = EQ_CFG.replace("n_x = 41\nn_t = 64", "n_x = 61\nn_t = 192")
    tracemalloc.start()
    try:
        code, out = run_cli(tmp_path, "eq192", cfg, ("equilibrium",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (out / "value.csv").exists()
    assert peak < 12 * 10**6, peak


def test_merton_pre_anchor_past_the_grid_exit_2(tmp_path, capsys):
    base = """
[model]
preset = merton-ti
[grid]
n_t = 8
t_max = TMAX
[solver]
variant = pre
anchor = ANCHOR
[run]
seed = 1
"""

    def cfg(t_max, anchor):
        return base.replace("TMAX", t_max).replace("ANCHOR", anchor)

    # a grid that stops short of T is refused before any solve
    code, out = run_cli(tmp_path, "short", cfg("0.5", "0.3"), ("merton",))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "t_max = 0.5" in err["message"] and "T = 1" in err["message"]
    assert not (out / "phi.csv").exists()
    # an anchor at T, the last node of the full grid, is outside [0, T)
    code, out = run_cli(tmp_path, "late", cfg("1.0", "1.0"), ("merton",))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "[0, T)" in err["message"]
    assert not (out / "phi.csv").exists()
    # an off-node anchor inside the grid still runs
    code, out = run_cli(tmp_path, "inside", cfg("1.0", "0.3"), ("merton",))
    assert code == 0
    assert (out / "phi.csv").exists()


def test_grid_short_of_the_horizon_exit_2_for_pde_and_phi(tmp_path, capsys):
    short = EQ_CFG.replace("n_t = 64", "n_t = 64\nt_max = 0.5")
    for sub in ("merton", "equilibrium", "partition-solve", "verify"):
        code, out = run_cli(tmp_path, sub, short, (sub,))
        assert code == 2, sub
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "t_max" in err["message"]
        assert not (out / "manifest.json").exists()


def test_verify_checks_the_spike_ladder_before_the_march(tmp_path, capsys,
                                                         monkeypatch):
    import switchctl.cli as cli

    def no_march(*args, **kwargs):
        raise AssertionError("the equilibrium march must not start")

    monkeypatch.setattr(cli, "solve_equilibrium", no_march)
    # at n_t 100 the window end 0.25 + 0.25 is a node, 0.25 + 0.0625 is not
    off_node = VERIFY_CFG.replace("n_t = 64", "n_t = 100").replace(
        "0.125, 0.0625", "0.25, 0.0625")
    code, out = run_cli(tmp_path, "off", off_node, ("verify",))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "0.3125" in err["message"]
    assert not (out / "verify.json").exists()
    # a window narrower than two steps fails just as early
    narrow = VERIFY_CFG.replace("0.125, 0.0625", "0.125, 0.015625")
    code, out = run_cli(tmp_path, "narrow", narrow, ("verify",))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ResolutionError"
    assert not (out / "verify.json").exists()


def test_artifact_record_hashes_in_blocks(tmp_path):
    import hashlib
    from switchctl.cli import HASH_BLOCK_BYTES, _Artifacts
    payloads = {"long.bin": bytes(range(256)) * (HASH_BLOCK_BYTES * 7 // 512),
                "empty.bin": b""}
    art = _Artifacts(str(tmp_path))
    for name, data in payloads.items():
        (tmp_path / name).write_bytes(data)
        art.add(name)
    assert len(payloads["long.bin"]) > 3 * HASH_BLOCK_BYTES
    assert art.records == [
        {"name": name, "bytes": len(data),
         "sha256": hashlib.sha256(data).hexdigest()}
        for name, data in payloads.items()]


def test_cli_keeps_freed_heap_for_the_grid_search():
    # after the CLI's malloc setting, the grid-search minimizer reuses
    # the heap its temporaries (about 1 MB per call here) were freed to,
    # where glibc's defaults fault those pages in again at every call
    import ctypes
    import platform
    import resource
    import pytest
    from switchctl import cli
    from switchctl.models import toy_anchored_model
    from switchctl.pde import controls_on_grid
    if platform.libc_ver()[0] != "glibc" or \
            not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("malloc thresholds are a glibc setting")
    cli._keep_freed_heap()
    model = toy_anchored_model(True)
    grid = model.default_grid(41)
    problem = model.hjb_problem(0.25, grid)
    v = model.terminal_values(0.5, grid)
    controls_on_grid(problem, 0.5, v)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        controls_on_grid(problem, 0.5, v)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 20 * 20, faults
