"""The benchmark tracer's view of one equilibrium run.

``perfbench/tracing.py`` counts layers by patching switchctl's public
functions by module attribute.  A refactor that stops calling a patched
name, or calls the backward march more than once per equilibrium solve,
changes these counts.
"""

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

from switchctl import cli

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


def test_equilibrium_is_one_march(tmp_path):
    cfg = tmp_path / "toy.ini"
    cfg.write_text(TOY_CFG)
    tracer = tracing.Tracer()

    def run():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli.main(["equilibrium", str(cfg),
                             "--out", str(tmp_path / "out")])

    assert tracer.run_op(run) == 0
    counts = tracer.layer_metrics(tracer.op)
    n_nodes = 17
    assert counts["pde.rows_batch_calls"] == 1
    # row j steps from T down to its anchor times[j]
    assert counts["pde.row_steps"] == n_nodes * (n_nodes - 1) // 2 == 136
    # one minimizer call per level of the diagonal
    assert counts["pde.minimizer_calls"] == n_nodes == 17
