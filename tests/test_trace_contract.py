"""The benchmark tracer's view of equilibrium, verify and partition runs.

``perfbench/tracing.py`` counts layers by patching switchctl's public
functions by module attribute.  A refactor that stops calling a patched
name, or calls the backward march more than once per equilibrium solve
or cycle run, changes these counts.
"""

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

from switchctl import cli
from switchctl.fields import time_grid
from switchctl.partition import Partition

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402

TOY_CFG = """
[model]
preset = toy-lq
[grid]
n_x = 21
n_t = 16
[run]
seed = 1
"""


def traced_run(tmp_path, subcommand, cfg_text):
    """One traced CLI run; returns the tracer."""
    cfg = tmp_path / "toy.ini"
    cfg.write_text(cfg_text)
    tracer = tracing.Tracer()

    def run():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli.main([subcommand, str(cfg),
                             "--out", str(tmp_path / "out")])

    assert tracer.run_op(run) == 0
    return tracer


def test_equilibrium_is_one_march(tmp_path):
    tracer = traced_run(tmp_path, "equilibrium", TOY_CFG)
    counts = tracer.layer_metrics(tracer.op)
    n_nodes = 17
    assert counts["pde.rows_batch_calls"] == 1
    # toy-lq's two anchor-basis rows each step from T down to times[0]
    assert counts["pde.row_steps"] == 2 * (n_nodes - 1) == 32
    # one minimizer call per level of the diagonal
    assert counts["pde.minimizer_calls"] == n_nodes == 17
    # the CLI keeps no two-time row
    assert counts["equilibrium.theta_mb"] == 0


def test_verify_keeps_one_two_time_row(tmp_path):
    cfg = TOY_CFG + "[solver]\nepsilons = 0.125\nspike_anchor = 0.25\n"
    tracer = traced_run(tmp_path, "verify", cfg)
    counts = tracer.layer_metrics(tracer.op)
    # the spike anchor's row on the 13 times of [0.25, 1] that verify
    # marches, x 21 nodes x 2 regimes of float64
    assert counts["equilibrium.theta_mb"] == 13 * 21 * 2 * 8 / 1e6
    assert counts["pde.rows_batch_calls"] == 1 + 1      # march + one spike


def test_verify_spike_policy_searches_each_node_once(tmp_path):
    cfg = TOY_CFG + "[solver]\nepsilons = 0.25, 0.125\nspike_anchor = 0.25\n"
    tracer = traced_run(tmp_path, "verify", cfg)
    counts = tracer.layer_metrics(tracer.op)
    # one minimizer call per level of the 13-time march, then one per
    # node the wider window steps from; the narrower rung's 2 nodes
    # are among those 4
    assert counts["pde.minimizer_calls"] == 13 + 4
    assert counts["pde.row_steps"] == 2 * 12 + 4 + 2


def test_partition_solve_cycle_and_write_spans(tmp_path):
    tracer = traced_run(tmp_path, "partition-solve",
                        TOY_CFG + "[solver]\npartitions = 1, 2, 4\n")
    spans = tracer.self_times(tracer.op)
    counts = tracer.layer_metrics(tracer.op)
    # one cycle run per partition, players summed over the partitions
    assert spans["partition.cycles"][1] == 3
    assert counts["partition.players"] == 1 + 2 + 4
    # each cycle run is one backward march: row j steps from T down to
    # knot t_j, and the minimizer runs once per level and once more at
    # each interior knot, 16 + N calls per run
    assert counts["pde.rows_batch_calls"] == 3
    assert counts["pde.row_steps"] == 16 + (16 + 8) + (16 + 12 + 8 + 4) == 80
    assert counts["pde.minimizer_calls"] == (16 + 1) + (16 + 2) + (16 + 4) == 55
    # value.csv and strategy.csv
    assert spans["fields.write"][1] == 2


def cycle_counts(n_t, partitions):
    """(row-steps, minimizer calls) of the cycle runs on n_t steps: row j
    of a run steps from T down to knot t_j, and the minimizer runs once
    per level, once more at each interior knot and once at s_0."""
    times = time_grid(0, 1, n_t)
    n_nodes = n_t + 1
    kidx = [Partition.uniform(1.0, n).knot_indices(times) for n in partitions]
    steps = sum(n_nodes - 1 - k for knots in kidx for k in knots[:-1])
    calls = sum(n_nodes + n - 1 for n in partitions)
    return steps, calls


def test_partition_run_is_one_march_per_partition(tmp_path):
    tracer = traced_run(tmp_path, "partition-solve",
                        TOY_CFG + "[solver]\npartitions = 2, 4\n")
    counts = tracer.layer_metrics(tracer.op)
    assert counts["pde.rows_batch_calls"] == 2
    steps, calls = cycle_counts(16, (2, 4))
    assert counts["pde.row_steps"] == steps == (16 + 8) + (16 + 12 + 8 + 4)
    assert counts["pde.minimizer_calls"] == calls == (17 + 1) + (17 + 3)


def test_merton_pde_counts(tmp_path):
    # the benchmark's merton-pde operation: both cycle runs, then the
    # equilibrium march of the 97 anchor rows with one minimizer call per
    # level of its diagonal
    cfg = os.path.join(os.path.dirname(tracing.__file__), "configs",
                       "merton-pde.ini")
    with open(cfg, encoding="utf-8") as fh:
        text = fh.read().format(seed=1)
    keys = ("pde.rows_batch_calls", "pde.row_steps", "pde.minimizer_calls")
    totals = dict.fromkeys(keys, 0)
    for sub in ("partition-solve", "equilibrium"):
        (tmp_path / sub).mkdir()
        counts = traced_run(tmp_path / sub, sub, text).layer_metrics(0)
        for key in keys:
            totals[key] += counts[key]
    steps, calls = cycle_counts(96, (4, 8))
    assert steps + 96 * 97 // 2 == 5328 and calls + 97 == 301
    assert totals == {"pde.rows_batch_calls": 3, "pde.row_steps": 5328,
                      "pde.minimizer_calls": 301}


MERTON_CFG = """
[model]
preset = merton-ti
[grid]
n_x = 21
n_t = 16
[solver]
partitions = 1, 2
variant = eq
[run]
seed = 2
"""


def test_phi_layer_spans(tmp_path):
    # one phi solve per run, traced through the patched module names
    for subcommand in ("merton", "equilibrium"):
        tracer = traced_run(tmp_path, subcommand, MERTON_CFG)
        spans = tracer.self_times(tracer.op)
        counts = tracer.layer_metrics(tracer.op)
        assert spans["merton.phi_ode"][1] == 1
        assert "merton.partition_phi" not in spans
        # rounds of the 16-step march at tol 1e-12
        assert counts["merton.phi_iterations"] == 5
    tracer = traced_run(tmp_path, "partition-solve", MERTON_CFG)
    spans = tracer.self_times(tracer.op)
    # one ODE mirror per partition, and no equilibrium phi solve
    assert spans["merton.partition_phi"][1] == 2
    assert "merton.phi_ode" not in spans


def test_dirichlet_tables_read_once_per_row_and_solve(tmp_path):
    # the tracer wraps what each boundary(tau) returns: one call per
    # anchor row of the equilibrium march, and one per knot-anchored row
    # of a cycle run, N for N players
    tracer = traced_run(tmp_path, "equilibrium", MERTON_CFG)
    assert tracer.layer_metrics(tracer.op)["models.dirichlet_calls"] == 17
    tracer = traced_run(tmp_path, "partition-solve", MERTON_CFG)
    assert tracer.layer_metrics(tracer.op)["models.dirichlet_calls"] == 1 + 2
