import hashlib
import json
import os

import pytest

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

RATES_PIN_CFG = """
[model]
geometry = tanh
drift = 0
sigma = 0.5
[solver]
n_paths = 4000
ds = 0.5
rate_states = -1.0, 0.0, 1.0
[run]
seed = 11
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


def test_rates_workers_setting_changes_no_byte(tmp_path, capsys):
    tables = {}
    for workers in (1, 2):
        code, out = run_cli(tmp_path, f"rates{workers}",
                            RATES_TANH_CFG.format(workers=workers), ("rates",))
        assert code == 0
        tables[workers] = (out / "rates.json").read_bytes()
    assert tables[1] == tables[2]
    assert any(r["q_empirical"] > 0 for r in json.loads(tables[1]))


def test_rates_pinned_bitwise(tmp_path, capsys):
    # recorded when each path still built its own Philox state mapping
    # (x86-64, numpy 2.4.6); with ds 0.5 two paths in five jump and the
    # marks read states moved by the normals, so every draw counts
    code, out = run_cli(tmp_path, "rates_pin", RATES_PIN_CFG, ("rates",))
    assert code == 0
    table = json.loads((out / "rates.json").read_text())
    assert [r["q_empirical"] for r in table] == [0.0575, 0.123, 0.089, 0.097,
                                                 0.1175, 0.05]


RATES_CONSTANT_CFG = """
[model]
geometry = constant
beta0 = BETA0
[solver]
n_paths = 100
ds = 0.01
rate_states = 0.0
[run]
seed = 3
"""


def test_geometry_preset_reads_model_beta0():
    from switchctl.cli import _geometry_from_config
    from switchctl.config import parse_config
    cfg = parse_config(RATES_CONSTANT_CFG.replace("BETA0", "2"))
    geometry, levy = _geometry_from_config(cfg)
    assert geometry.beta0 == 2.0 and levy.beta0 == 2.0


def test_geometry_preset_outside_model_beta0_exit_2(tmp_path, capsys):
    # the constant preset's threshold -0.6 leaves [-0.5, 0.5]
    code, out = run_cli(tmp_path, "narrow",
                        RATES_CONSTANT_CFG.replace("BETA0", "0.5"), ("rates",))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GeometryError"
    assert "[-beta0, beta0]" in err["message"]
    assert not (out / "rates.json").exists()


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


TOY_GRID_CFG = """
[model]
preset = toy-lq
[grid]
GRID
n_x = 11
n_t = 8
[solver]
partitions = 1
[run]
seed = 1
"""


@pytest.mark.parametrize("line, ends", [("x_min = -1.0", (-1.0, 2.0)),
                                        ("x_max = 1.5", (-2.0, 1.5))])
def test_lone_grid_end_overrides_its_own_end(tmp_path, capsys, line, ends):
    # toy-lq's preset x_domain is (-2, 2)
    code, out = run_cli(tmp_path, "lone", TOY_GRID_CFG.replace("GRID", line),
                        ("partition-solve",))
    assert code == 0
    xs = [float(row.split(",")[1])
          for row in (out / "value.csv").read_text().splitlines()[1:]]
    assert (min(xs), max(xs)) == ends


def test_reversed_grid_ends_rejected(tmp_path, capsys):
    for name, lines in (("reversed", "x_min = 1.0\nx_max = -1.0"),
                        ("lone_past_end", "x_min = 2.5")):
        code, out = run_cli(tmp_path, name, TOY_GRID_CFG.replace("GRID", lines),
                            ("partition-solve",))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "x_max must exceed x_min" in err["message"]
        assert not (out / "value.csv").exists()


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


def test_workers_key_is_checked_and_nothing_else_reads_it(tmp_path, capsys,
                                                         monkeypatch):
    # every run is serial: [run] workers is range-checked for old configs,
    # the plan does not show it, and no environment variable overrides it
    monkeypatch.setenv("SWITCHCTL_WORKERS", "abc")
    code, _ = run_cli(tmp_path, "workers", SIM_CFG + "workers = 1\n",
                      ("simulate", "--dry-run"))
    assert code == 0
    assert "workers" not in json.loads(capsys.readouterr().out)
    code, out = run_cli(tmp_path, "workers1", SIM_CFG + "workers = 1\n",
                        ("simulate",))
    assert code == 0 and (out / "path.csv").exists()
    capsys.readouterr()
    code, _ = run_cli(tmp_path, "workers0", SIM_CFG + "workers = 0\n",
                      ("simulate", "--dry-run"))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "workers" in err["message"]


def test_oversized_two_time_field_exit_code_2(tmp_path, capsys, monkeypatch):
    # verify marches the 751 times of [t0, T] = [0.25, 1] and keeps one
    # two-time row; the march's estimate counts it, the controls, the
    # diagonal and the two-level buffer of toy-lq's two anchor-basis
    # rows, and on a machine with less than twice that memory the run is
    # refused before the march starts
    from switchctl import equilibrium, fields
    need = equilibrium.march_bytes(751, 401, 2, 1, 2, 1, False)
    assert need == 8 * 401 * 2 * (751 * (1 + 1 + 1) + 2 * 2)
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
    assert "n_t=751" in err["message"] and "n_x=401" in err["message"]
    assert not (out / "verify.json").exists()


def test_oversized_phi_triangle_exit_code_2(tmp_path, capsys, monkeypatch):
    # merton-ti at n_t 64: the 65-node phi triangle packed by level takes
    # 65 * 66 / 2 * 2 float64 values; with less than twice that memory the
    # merton run and the merton equilibrium and verify boundaries are
    # refused before the phi march allocates it
    from switchctl import fields
    need = 8 * 65 * 66 // 2 * 2
    monkeypatch.setattr(fields, "physical_memory_bytes", lambda: 2 * need - 2)
    verify = VERIFY_CFG.replace("toy-lq", "merton-ti")
    for sub, cfg, artifact in (("merton", EQ_CFG, "phi.csv"),
                               ("equilibrium", EQ_CFG, "value.csv"),
                               ("verify", verify, "verify.json")):
        code, out = run_cli(tmp_path, sub, cfg, (sub,))
        assert code == 2, sub
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError", sub
        assert "phi triangle" in err["message"] and str(need) in err["message"]
        assert not (out / artifact).exists(), sub


def test_merton_eq_refusal_counts_the_phi_csv_rows(tmp_path, capsys,
                                                  monkeypatch):
    # the merton run's eq variant also writes phi.csv row by row: with
    # room for the packed triangle but not for it and one row's arrays,
    # the run is refused before the march
    from switchctl import fields, merton
    packed = 8 * 65 * 66 // 2 * 2
    need = merton.phi_bytes(65, 2, csv=True)
    assert need == packed + 8 * 65 * (2 + 4)
    monkeypatch.setattr(fields, "physical_memory_bytes", lambda: 2 * need - 2)
    code, out = run_cli(tmp_path, "short", EQ_CFG, ("merton",))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert str(need) in err["message"] and str(packed) in err["message"]
    assert not (out / "phi.csv").exists()
    monkeypatch.setattr(fields, "physical_memory_bytes", lambda: 2 * need)
    code, out = run_cli(tmp_path, "room", EQ_CFG, ("merton",))
    assert code == 0 and (out / "phi.csv").exists()


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


def test_verify_refuses_an_empty_or_repeated_ladder_before_the_march(
        tmp_path, capsys, monkeypatch):
    # an empty ladder has no gain to report, and a repeated width makes
    # the intercept fit singular
    import switchctl.cli as cli

    def no_march(*args, **kwargs):
        raise AssertionError("the equilibrium march must not start")

    monkeypatch.setattr(cli, "solve_equilibrium", no_march)
    for name, ladder, words in (("empty", "", "at least one width"),
                                ("repeated", "0.125, 0.125", "distinct")):
        cfg = VERIFY_CFG.replace("0.125, 0.0625", ladder)
        code, out = run_cli(tmp_path, name, cfg, ("verify",))
        assert code == 2, name
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and words in err["message"]
        assert "epsilons" in err["message"]
        assert not (out / "verify.json").exists()


@pytest.mark.parametrize("preset", ["toy-lq", "merton-ti"])
def test_verify_marches_from_the_spike_anchor(tmp_path, capsys, monkeypatch,
                                              preset):
    # the march covers [t0, T] only, and verify's artifacts are byte for
    # byte those of a full-grid solve followed by the same ladder
    import numpy as np
    from switchctl import cli, equilibrium
    from switchctl.costs import anchored_minimizer_policy, spike_ladder
    from switchctl.fields import write_csv
    march = equilibrium.solve_rows_batch
    lengths = []

    def recording(problem, times, *args, **kwargs):
        lengths.append(len(times))
        return march(problem, times, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "solve_rows_batch", recording)
    cfg = VERIFY_CFG.replace("toy-lq", preset)
    code, out = run_cli(tmp_path, preset, cfg, ("verify",))
    assert code == 0
    assert lengths == [65 - 16]          # times[16:], t0 = 0.25 on n_t = 64
    config = cli.parse_config(cfg)
    model = cli._model_from_config(config)
    grid, times = cli._grids(config, model)
    boundary = cli._merton_boundary(model, times, grid, 1e-10)
    sol = equilibrium.solve_equilibrium(model, grid, times,
                                        boundary=boundary, keep_rows=[16])
    assert lengths[1:] == [65]
    ladder = spike_ladder(model, sol, 0.25, [0.125, 0.0625],
                          anchored_minimizer_policy(model, sol, 0.25),
                          boundary=boundary)
    want = json.dumps({"epsilon": ladder["epsilons"],
                       "min_gain": ladder["min_gains"],
                       "intercept_estimate": ladder["intercept"],
                       "anchor": 0.25}, sort_keys=True, default=float) + "\n"
    assert (out / "verify.json").read_text() == want
    write_csv(str(tmp_path / "gain.csv"), ("x", "i", "gain"),
              (grid.x[:, None], np.arange(1, model.m + 1),
               ladder["gains"][-1].gain))
    assert (out / "gain.csv").read_bytes() == \
        (tmp_path / "gain.csv").read_bytes()


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
    # the heap its temporaries (about 0.68 MB per call here) were freed to,
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


PDE_PIN_MERTON_CFG = """
[model]
preset = merton-ti
[grid]
n_x = 25
n_t = 24
[solver]
partitions = 2, 4
[run]
seed = 3
"""

PDE_PIN_TOY_CFG = """
[model]
preset = toy-lq
[grid]
n_x = 21
n_t = 32
[solver]
tol = 1e-10
epsilons = 0.125, 0.0625
spike_anchor = 0.25
[run]
seed = 3
"""


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("sub, cfg_text, pins", [
    ("partition-solve", PDE_PIN_MERTON_CFG, {
        "value.csv":
            "8cf9dcc629ddfd071144a2ae5ace0e2e2b48ef6f81f764a12f5b0fcdea2f32aa",
        "strategy.csv":
            "28f76e962089bbe2aef4bb7ecf832eb4d30d18d40179beb21cc4efaba587a433"}),
    ("equilibrium", PDE_PIN_MERTON_CFG, {
        "value.csv":
            "c84b5f965ddd8254fdc55fcbee3ee12b4d9c88f474764fce676ca2cf1b9f6182",
        "strategy.csv":
            "68e813915f0acea11b6713b0d7cc8abc2265f2b02ad079b1ecb7f53cf8ca142d"}),
    ("verify", PDE_PIN_TOY_CFG, {
        "gain.csv":
            "e478451bf3a1c32c0722db2487b3ccf80ad1ebd2ce3e65f9d7572784efd9d616"}),
])
def test_pde_subcommands_pinned_bitwise(tmp_path, capsys, sub, cfg_text, pins):
    # recorded with the march's rows stored (R, n_x, m) (x86-64, numpy
    # 2.4.6, scipy 1.17.1): merton-ti marches with the phi Dirichlet
    # edges and the analytic minimizer, toy-lq with extrapolated edges
    # and the grid search
    code, out = run_cli(tmp_path, "pin", cfg_text, (sub,))
    assert code == 0
    assert {name: _sha256(out / name) for name in pins} == pins


@pytest.mark.parametrize("sub", ["equilibrium", "partition-solve"])
def test_three_node_grid_exit_2(tmp_path, capsys, sub):
    # the one-sided second derivative at an edge reads four nodes
    cfg = TOY_GRID_CFG.replace("GRID\n", "").replace("n_x = 11", "n_x = 3")
    code, out = run_cli(tmp_path, "three", cfg, (sub,))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "n_x must be at least 4" in err["message"]
    assert "stencil" in err["message"]
    assert not out.exists() or not any(out.iterdir())


def test_oversized_cycles_exit_code_2(tmp_path, capsys, monkeypatch):
    # toy-lq, four players on 1001 times x 401 nodes: the rows take
    # 25.7 MB; on a machine with less than twice what the cycles store
    # the run is refused before the rows are allocated
    import tracemalloc
    from switchctl import fields, partition
    need = partition.cycles_bytes(1001, 401, 2, 1, 4, False)
    rows = 8 * 4 * 1001 * 2 * 401
    assert need == rows + 8 * 1001 * 401 * 2
    monkeypatch.setattr(fields, "physical_memory_bytes", lambda: need)
    cfg = TOY_GRID_CFG.replace("GRID\n", "").replace(
        "n_x = 11\nn_t = 8", "n_x = 401\nn_t = 1000").replace(
        "partitions = 1", "partitions = 4")
    tracemalloc.start()
    try:
        code, out = run_cli(tmp_path, "big", cfg, ("partition-solve",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert str(need) in err["message"]
    assert "n_t=1001" in err["message"] and "n_x=401" in err["message"]
    assert peak < rows, (peak, rows)
    assert not (out / "value.csv").exists()


def test_oversized_partition_refused_before_any_march(tmp_path, capsys,
                                                      monkeypatch):
    # memory for the cycles of N = 2 but not of N = 8: the N = 8 refusal
    # comes before the N = 1 and N = 2 marches, not after them
    from switchctl import fields, partition, pde
    fits, refused = (partition.cycles_bytes(65, 41, 2, 1, n, False)
                     for n in (2, 8))
    monkeypatch.setattr(fields, "physical_memory_bytes", lambda: 2 * fits)
    marches = []
    march = pde.solve_rows_batch

    def counted(*args, **kwargs):
        marches.append(1)
        return march(*args, **kwargs)

    monkeypatch.setattr(pde, "solve_rows_batch", counted)
    cfg = TOY_GRID_CFG.replace("GRID\n", "").replace(
        "n_x = 11\nn_t = 8", "n_x = 41\nn_t = 64").replace(
        "partitions = 1", "partitions = 1, 2, 8")
    code, out = run_cli(tmp_path, "parts", cfg, ("partition-solve",))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert str(refused) in err["message"] and "8 players" in err["message"]
    assert marches == []
