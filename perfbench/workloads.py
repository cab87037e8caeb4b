"""The benchmark's four workloads: inputs made from a seed, one operation,
and the check of that operation's outputs.

Each workload drives switchctl from outside through its public entry
points: ``switchctl.cli.main`` for the three CLI workloads and
``switchctl.merton.monte_carlo_payoff`` for ``mc-payoff``.  The amount of
work does not depend on the seed; the seed only feeds the program's
random streams (and ``[run] seed``), so every seed times the same work.
"""

import configparser
import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from switchctl import cli, merton, models
from switchctl.fields import time_grid
from switchctl.partition import Partition, run_cycles

HERE = os.path.dirname(os.path.abspath(__file__))

ANSATZ_TOL = 5e-3          # criterion 08's relative gap over the interior
INTERCEPT_FLOOR = -1e-3    # criterion 11's floor on the spike-gain intercept
# z-bounds with a false-alarm rate near 5e-5 per operation: one test for
# mc-payoff, six cells (a union bound) for mc-rates.
PAYOFF_Z = 4.0
RATE_Z = 4.5


def config_text(name, seed, sizes):
    """The pinned config of a CLI workload, with the seed set and the
    ``{(section, key): value}`` overrides in ``sizes`` applied."""
    with open(os.path.join(HERE, "configs", f"{name}.ini"),
              encoding="utf-8") as fh:
        text = fh.read().format(seed=int(seed))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    for (section, key), value in sizes.items():
        parser[section][key] = str(value)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def _cli(subcommand, cfg_path, outdir):
    """One CLI invocation; returns (exit code, its stderr)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main([subcommand, cfg_path, "--out", outdir])
    return code, err.getvalue().strip()


def _outputs(dirs):
    """({label: sha256 of its manifest.json}, total artifact bytes)."""
    manifests, total = {}, 0
    for label, path in dirs.items():
        with open(os.path.join(path, "manifest.json"), "rb") as fh:
            raw = fh.read()
        manifests[label] = hashlib.sha256(raw).hexdigest()
        total += sum(a["bytes"] for a in json.loads(raw)["artifacts"])
    return manifests, total


def _load_field(path, n_t, n_x, m):
    """A long-format value CSV (s, x, i, value) as an (n_t, n_x, m) array."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 3].reshape(n_t, n_x, m)


class OpResult:
    """Outcome of one operation: its check and what the trace needs."""

    def __init__(self, ok, detail, manifests, artifact_bytes, extra=None):
        self.ok = ok
        self.detail = detail
        self.manifests = manifests          # output name -> manifest sha256
        self.artifact_bytes = artifact_bytes
        self.extra = extra or {}


class Workload:
    """Inputs for one workload and seed; ``run`` performs one operation.

    ``sizes`` overrides the pinned sizes; the smoke test passes small ones.
    """

    def __init__(self, name, seed, workdir, sizes=None):
        self.name = name
        self.seed = int(seed)
        self.workdir = workdir
        self.sizes = sizes or {}
        os.makedirs(workdir, exist_ok=True)
        self.setup()

    def setup(self):
        raise NotImplementedError

    def prepare_check(self):
        """Reference data for the checks; built once, outside any timing."""

    def run(self, outdir, tracer=None):
        """One operation writing into ``outdir``; returns an OpResult.
        ``tracer`` is set when the operation is traced."""
        raise NotImplementedError


class CliWorkload(Workload):
    subcommands = ()

    def setup(self):
        self.cfg_path = os.path.join(self.workdir, f"{self.name}.ini")
        text = config_text(self.name, self.seed, self.sizes)
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.config = cli.parse_config(text)

    def run(self, outdir, tracer=None):
        dirs = {sub: os.path.join(outdir, sub) for sub in self.subcommands}
        failed = []
        for sub, path in dirs.items():
            code, err = _cli(sub, self.cfg_path, path)
            if code != 0:
                failed.append(f"{sub} exit {code}: {err}")
        if failed:
            return OpResult(False, "; ".join(failed), {}, 0)
        manifests, total = _outputs(dirs)
        ok, detail, extra = self.check(dirs)
        return OpResult(ok, detail, manifests, total, extra)


class MertonPde(CliWorkload):
    subcommands = ("partition-solve", "equilibrium")

    def prepare_check(self):
        model = models.MODEL_PRESETS[self.config.get("model", "preset")]()
        self.grid = model.default_grid(self.config.get("grid", "n_x"))
        self.times = time_grid(0.0, min(self.config.get("grid", "t_max"),
                                        model.T),
                               self.config.get("grid", "n_t"))
        self.interior = self.grid.interior_mask()
        self.gamma = model.spec.gamma
        phi = merton.solve_equilibrium_ode(model.spec, self.times, tol=1e-13)
        n = len(self.times)
        diag = phi.eq[np.arange(n), np.arange(n)]            # (n_t, m)
        self.ansatz = -diag[:, None, :] * self.grid.x[None, :, None] ** self.gamma
        self.m = model.m
        # the coarsest cycles, for the check that the finest partition lies
        # closer to the equilibrium (the CLI writes only the finest value)
        self.n_coarse, self.n_fine = self.config.get("solver", "partitions")
        part = Partition.uniform(self.times[-1], self.n_coarse)
        mirror = merton.partition_phi(model.spec, part.knots, self.times)
        self.v_coarse = run_cycles(
            model, part, self.grid, self.times,
            boundary=models.merton_partition_boundary(model, mirror, self.grid)
        ).value.values

    def check(self, dirs):
        shape = (len(self.times), self.grid.n_x, self.m)
        eq_dir, part_dir = dirs["equilibrium"], dirs["partition-solve"]
        with open(os.path.join(eq_dir, "residual_log.jsonl")) as fh:
            residual = json.loads(fh.read().splitlines()[-1])["residual"]
        v_eq = _load_field(os.path.join(eq_dir, "value.csv"), *shape)
        v_pi = _load_field(os.path.join(part_dir, "value.csv"), *shape)
        gap = float(np.max(np.abs(v_eq[:, self.interior] /
                                  self.ansatz[:, self.interior] - 1.0)))
        d_coarse = float(np.max(np.abs(self.v_coarse - v_eq)[:, self.interior]))
        d_fine = float(np.max(np.abs(v_pi - v_eq)[:, self.interior]))
        problems = []
        if residual is None or not math.isfinite(residual):
            problems.append(f"residual {residual!r} not finite")
        if not gap <= ANSATZ_TOL:
            problems.append(f"ansatz gap {gap:.3e} > {ANSATZ_TOL:g}")
        distances = (f"distance to equilibrium N={self.n_coarse} "
                     f"{d_coarse:.3e}, N={self.n_fine} {d_fine:.3e}")
        if not d_fine < d_coarse:
            problems.append(f"partition distance does not shrink: {distances}")
        detail = f"residual {residual:.4e}, ansatz gap {gap:.3e}, {distances}"
        return not problems, "; ".join(problems) or detail, \
            {"eq_residual": residual}


class ToyVerify(CliWorkload):
    subcommands = ("verify",)

    def check(self, dirs):
        with open(os.path.join(dirs["verify"], "verify.json")) as fh:
            intercept = json.load(fh)["intercept_estimate"]
        ok = intercept >= INTERCEPT_FLOOR
        return ok, f"intercept {intercept:+.3e} (>= {INTERCEPT_FLOOR:g})", {}


class McRates(CliWorkload):
    subcommands = ("rates",)

    def check(self, dirs):
        with open(os.path.join(dirs["rates"], "rates.json")) as fh:
            table = json.load(fh)
        n = self.config.get("solver", "n_paths")
        ds = self.config.get("solver", "ds")
        worst, problems = 0.0, []
        for cell in table:
            q = cell["q_theory"]
            se0 = math.sqrt(q * ds * (1 - q * ds) / n) / ds
            z = abs(cell["q_empirical"] - q) / se0 if se0 > 0 else \
                (0.0 if cell["q_empirical"] == q else math.inf)
            worst = max(worst, z)
            if cell["anomaly"]:
                problems.append(f"cell {cell['x']},{cell['i']}->{cell['j']} "
                                f"flagged anomalous")
        if not worst <= RATE_Z:
            problems.append(f"max |rate-q|/SE {worst:.2f} > {RATE_Z}")
        return not problems, "; ".join(problems) or \
            f"{len(table)} cells, max |rate-q|/SE {worst:.2f}", {}


class McPayoff(Workload):
    """Criterion 09's model: the equilibrium phi-ODE, then the Monte Carlo
    payoff of its policy from (t, x, i) = (0, 1, 1), at 1/12 of its paths."""

    FULL = {"ode_steps": 800, "n_paths": 8192, "h": 1e-3}

    def setup(self):
        self.sizes = {**self.FULL, **self.sizes}
        self.spec = models.merton_spec(True)
        self.times = time_grid(0.0, self.spec.T, self.sizes["ode_steps"])
        self.geometry = models.constant_rate_geometry(self.spec.q)
        self.levy = models.uniform_mark_density()

    def run(self, outdir, tracer=None):
        os.makedirs(outdir, exist_ok=True)
        phi = merton.solve_equilibrium_ode(self.spec, self.times, tol=1e-13)
        policy = merton.equilibrium_policy(self.spec, phi)
        if tracer is not None:
            from tracing import instrument_geometry
            policy = tracer.wrap(policy, "merton.policy")
            instrument_geometry(tracer, self.geometry)
        x0, i0 = 1.0, 1
        est, se = merton.monte_carlo_payoff(
            self.spec, policy, 0.0, x0, i0, n_paths=self.sizes["n_paths"],
            seed=self.seed, h_step=self.sizes["h"], geometry=self.geometry,
            levy=self.levy)
        want = float(phi.eq_diag[0, i0 - 1]) * x0 ** self.spec.gamma
        payload = json.dumps({"estimate": est, "se": se, "phi_x_gamma": want},
                             sort_keys=True).encode() + b"\n"
        with open(os.path.join(outdir, "payoff.json"), "wb") as fh:
            fh.write(payload)
        manifest = {"artifacts": [{"name": "payoff.json", "bytes": len(payload),
                                   "sha256": hashlib.sha256(payload).hexdigest()}]}
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True)
            fh.write("\n")
        manifests, total = _outputs({"payoff": outdir})
        z = abs(est - want) / se
        ok = z <= PAYOFF_Z
        return OpResult(ok, f"|payoff - phi x^gamma|/SE = {z:.2f} "
                            f"(<= {PAYOFF_Z:g})", manifests, total)


WORKLOADS = {
    "merton-pde": MertonPde,
    "toy-verify": ToyVerify,
    "mc-rates": McRates,
    "mc-payoff": McPayoff,
}


def build(name, seed, workdir, sizes=None):
    """Set up one workload: config files, parsed config and inputs."""
    return WORKLOADS[name](name, seed, workdir, sizes)
