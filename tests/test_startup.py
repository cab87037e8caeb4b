"""Which scipy modules a fresh process loads.

``import switchctl`` loads numpy alone.  The banded step binds scipy's
compiled LAPACK extension, ``scipy.linalg._flapack``, on its first call
without running the ``scipy.linalg`` package ``__init__``, and the φ
splines are the package's own, so nothing loads ``scipy.linalg`` or
``scipy.interpolate``.  The exact list of scipy modules is not pinned:
the top-level ``scipy`` ``__init__`` varies by version.  Each CLI check
runs ``python -m switchctl`` in a fresh interpreter and reads
``sys.modules`` after it exits; the library checks run a script.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# runs ``python -m switchctl ARGV...`` in this process, then prints the
# exit code and the loaded scipy modules as the last line of stdout
RUN_AND_LIST = """
import json, runpy, sys
sys.argv = ["switchctl", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("switchctl", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "scipy": sorted(
    name for name in sys.modules if name.split(".")[0] == "scipy")}))
"""

CONFIGS = {
    "rates": """
[model]
geometry = tanh
drift = 0
sigma = 0.1
[solver]
n_paths = 50
ds = 0.02
rate_states = 0.0
[run]
seed = 5
""",
    "simulate": """
[model]
geometry = tanh
drift = 0.1*x
sigma = 0.2
x0 = 0.5
i0 = 1
[grid]
t_max = 0.5
[solver]
h = 0.05
[run]
seed = 42
""",
    "verify": """
[model]
preset = toy-lq
[grid]
n_x = 21
n_t = 16
[solver]
epsilons = 0.25, 0.125
spike_anchor = 0.25
[run]
seed = 9
""",
    "partition-solve": """
[model]
preset = merton-ti
[grid]
n_x = 21
n_t = 16
[solver]
partitions = 1, 2
[run]
seed = 5
""",
    "equilibrium": """
[model]
preset = merton-ti
[grid]
n_x = 21
n_t = 16
[run]
seed = 5
""",
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    return env


def _fresh(args, cwd):
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _scipy_after(tmp_path, subcommand):
    cfg = tmp_path / f"{subcommand}.ini"
    cfg.write_text(CONFIGS[subcommand])
    out = _fresh(["-c", RUN_AND_LIST, subcommand, str(cfg),
                  "--out", str(tmp_path / subcommand)], tmp_path)
    report = json.loads(out.strip().splitlines()[-1])
    assert report["code"] == 0
    assert (tmp_path / subcommand / "manifest.json").exists()
    return set(report["scipy"])


def test_importing_the_cli_loads_no_scipy(tmp_path):
    out = _fresh(["-c", "import sys, switchctl.cli; print(sorted("
                  "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                 tmp_path)
    assert out.strip() == "[]"


def test_rates_and_simulate_load_no_scipy(tmp_path):
    assert _scipy_after(tmp_path, "rates") == set()
    assert _scipy_after(tmp_path, "simulate") == set()


def _assert_lapack_extension_only(loaded):
    assert "scipy.linalg._flapack" in loaded
    assert "scipy.linalg" not in loaded
    assert "scipy.interpolate" not in loaded


def test_toy_verify_loads_lapack_but_not_interpolate(tmp_path):
    _assert_lapack_extension_only(_scipy_after(tmp_path, "verify"))


def test_partition_solve_loads_lapack_but_not_interpolate(tmp_path):
    _assert_lapack_extension_only(_scipy_after(tmp_path, "partition-solve"))


def test_equilibrium_loads_the_lapack_extension_only(tmp_path):
    _assert_lapack_extension_only(_scipy_after(tmp_path, "equilibrium"))


def test_bound_lapack_routines_are_scipys_own(tmp_path):
    # a solve binds the extension first; scipy.linalg imported afterwards
    # must hand out the very same function objects
    script = """
from switchctl import pde
from switchctl.equilibrium import solve_equilibrium
from switchctl.fields import time_grid
from switchctl.models import MODEL_PRESETS
model = MODEL_PRESETS["toy-lq"]()
solve_equilibrium(model, model.default_grid(21), time_grid(0.0, model.T, 8))
dgbtrf, dgbtrs = pde._lapack()
import scipy.linalg.lapack as lapack
print(dgbtrf is lapack.dgbtrf and dgbtrs is lapack.dgbtrs)
"""
    assert _fresh(["-c", script], tmp_path).strip().splitlines()[-1] == "True"


def test_merton_payoff_and_partition_phi_load_no_scipy(tmp_path):
    script = """
import sys
from switchctl import merton, models
from switchctl.fields import time_grid
from switchctl.partition import Partition
spec = models.merton_spec(True)
times = time_grid(0.0, spec.T, 40)
policy = merton.equilibrium_policy(spec, merton.solve_equilibrium_ode(spec, times))
est, se = merton.monte_carlo_payoff(
    spec, policy, 0.0, 1.0, 1, n_paths=64, seed=3, h_step=0.05,
    geometry=models.constant_rate_geometry(spec.q),
    levy=models.uniform_mark_density())
mirror = merton.partition_phi(spec, Partition.uniform(spec.T, 4).knots, times)
assert se > 0 and len(mirror.rows) == 4
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _fresh(["-c", script], tmp_path).strip().splitlines()[-1] == "[]"


def test_python_dash_m_runs_the_cli(tmp_path):
    cfg = tmp_path / "rates.ini"
    cfg.write_text(CONFIGS["rates"])
    out = _fresh(["-m", "switchctl", "rates", str(cfg),
                  "--out", str(tmp_path / "out")], tmp_path)
    summary = json.loads(out)
    assert summary["subcommand"] == "rates" and summary["cells"] == 2
    assert (tmp_path / "out" / "rates.json").exists()
