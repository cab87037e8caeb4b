"""Command-line interface: config parsing, dispatch, artifact emission.

Subcommands: simulate, rates, partition-solve, equilibrium, merton,
verify.  Each run writes its artifacts into one output directory plus a
manifest listing every file with its SHA-256; identical config and seed
produce byte-identical artifacts.  A one-line JSON summary goes to
stdout; structured errors go to stderr as JSON with exit codes 2
(config), 3 (numeric), 4 (non-convergence).
"""

import argparse
import ctypes
import hashlib
import json
import os
import sys

import numpy as np

from . import merton as merton_mod
from .config import parse_config
from .costs import (anchored_minimizer_policy, check_spike_ladder,
                    spike_ladder)
from .equilibrium import solve_equilibrium
# still bound because perfbench/tracing.py patches it here (ROADMAP item 5)
from .equilibrium import residual as equilibrium_residual  # noqa: F401
from .errors import ConfigError, SwitchctlError
from .expressions import CoefficientExpression
from .fields import (node_index, refuse_oversized, time_grid, write_csv,
                     write_csv_blocks)
from .models import (GEOMETRY_PRESETS, MODEL_PRESETS,
                     merton_equilibrium_boundary, merton_partition_boundary,
                     uniform_mark_density)
from .partition import (Partition, refine_and_compare, refuse_oversized_cycles,
                        run_cycles)
from .sde import ControlledDynamics, estimate_transition_rate, simulate_path
from .switching import LevyMeasure, RegimeGeometry, rate_matrix

SUBCOMMANDS = ("simulate", "rates", "partition-solve", "equilibrium",
               "merton", "verify")
# Artifacts are hashed in blocks of this size, so hashing needs no more
# memory for a large file.  Larger blocks (64 KiB, 1 MiB) fragmented the
# heap: merton-pde's peak RSS rose by 7.6 MB after about 30 operations.
HASH_BLOCK_BYTES = 1 << 13


def _keep_freed_heap():
    """Ask glibc's malloc to keep freed heap memory in the process.

    glibc returns the top of the heap to the system whenever more than
    its trim threshold (128 KiB) is free there, and raises that
    threshold only after the process frees a larger mmapped block.  The
    grid-search minimizer allocates and frees about 0.76 MB of
    temporaries per call, so until such a block is freed every call
    faults its pages in again: 8,700 minor faults per toy-lq verify at
    n_x 41 and n_t 64, against a handful with this setting.  These are
    the values glibc's own adaptive thresholds top out at.  Without
    glibc's mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


def main(argv=None):
    _keep_freed_heap()
    parser = argparse.ArgumentParser(
        prog="switchctl",
        description="time-inconsistent control of regime-switching diffusions")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("config", help="path to the run configuration file")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the config and print the plan only")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail(ConfigError(f"cannot read config: {exc}"))
        return 2
    try:
        config = parse_config(text)
        outdir = _output_dir(config, args.out)
        runner = _RUNNERS[args.subcommand]
        if args.dry_run:
            plan = {"subcommand": args.subcommand, "output": outdir,
                    "artifacts": runner(config, outdir, plan_only=True)}
            print(json.dumps(plan, sort_keys=True))
            return 0
        os.makedirs(outdir, exist_ok=True)
        summary = runner(config, outdir, plan_only=False)
        summary.update({"subcommand": args.subcommand, "output": outdir})
        print(json.dumps(summary, sort_keys=True, default=float))
        return 0
    except SwitchctlError as exc:
        _fail(exc)
        return exc.exit_code
    except Exception as exc:  # unexpected failures map to numeric errors
        _fail(exc, code=3)
        return 3


def _fail(exc, code=None):
    payload = {"error": type(exc).__name__, "message": str(exc),
               "exit_code": code if code is not None else
               getattr(exc, "exit_code", 3)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _output_dir(config, override):
    if override:
        return override
    env = os.environ.get("SWITCHCTL_OUTDIR")
    if env:
        return env
    return config.get("output", "directory")


# ---------------------------------------------------------------------------
# artifact plumbing

class _Artifacts:
    def __init__(self, outdir):
        self.outdir = outdir
        self.records = []

    def path(self, name):
        return os.path.join(self.outdir, name)

    def add(self, name):
        digest = hashlib.sha256()
        size = 0
        with open(self.path(name), "rb") as fh:
            while block := fh.read(HASH_BLOCK_BYTES):
                digest.update(block)
                size += len(block)
        self.records.append({"name": name, "bytes": size,
                             "sha256": digest.hexdigest()})

    def write_json(self, name, payload):
        with open(self.path(name), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, sort_keys=True, default=float)
            fh.write("\n")
        self.add(name)

    def write_jsonl(self, name, rows):
        with open(self.path(name), "w", encoding="utf-8", newline="\n") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True, default=float))
                fh.write("\n")
        self.add(name)

    def finish(self):
        manifest = {"artifacts": sorted(self.records, key=lambda r: r["name"])}
        with open(self.path("manifest.json"), "w", encoding="utf-8",
                  newline="\n") as fh:
            json.dump(manifest, fh, sort_keys=True)
            fh.write("\n")
        return manifest


def _field_names(stem, formats):
    """Artifact names of a field written in the ``[output] formats``."""
    names = [f"{stem}.csv"] if "csv" in formats else []
    if "bin" in formats or "binary" in formats:
        names.append(f"{stem}.bin")
    return names


def _write_field(art, field, stem, formats):
    for name in _field_names(stem, formats):
        write = field.to_csv if name.endswith(".csv") else field.to_binary
        write(art.path(name))
        art.add(name)


# ---------------------------------------------------------------------------
# model construction from config

def _geometry_from_config(config):
    model_cfg = config["model"]
    preset = model_cfg.get("geometry")
    if preset is not None:
        beta0 = model_cfg["beta0"]
        return GEOMETRY_PRESETS[preset](beta0=beta0), uniform_mark_density(beta0)
    m = model_cfg["regimes"]
    rows = []
    for i in range(1, m + 1):
        exprs = model_cfg.get(f"beta_{i}")
        if exprs is None:
            raise ConfigError(f"[model] beta_{i}: required for {m} regimes "
                              f"(or set 'geometry' to a preset)")
        if len(exprs) != m + 1:
            raise ConfigError(f"[model] beta_{i}: needs {m + 1} entries")
        rows.append([_expr_of_x(e) for e in exprs])
    geometry = RegimeGeometry(rows, beta0=model_cfg["beta0"])
    density_expr = model_cfg.get("density")
    if density_expr is None:
        levy = uniform_mark_density(model_cfg["beta0"])
    else:
        levy = LevyMeasure(_expr_of_x(density_expr), model_cfg["beta0"])
    return geometry, levy


def _expr_of_x(expr):
    return lambda x: np.broadcast_to(
        np.asarray(expr(x=np.asarray(x, dtype=float)), dtype=float),
        np.asarray(x, dtype=float).shape)


def _dynamics_from_config(config):
    model_cfg = config["model"]
    drift = model_cfg.get("drift") or CoefficientExpression("0")
    sigma = model_cfg.get("sigma") or CoefficientExpression("0")
    m = model_cfg["regimes"]

    def make(expr):
        def fn(s, x, i, u):
            x = np.asarray(x, dtype=float)
            out = expr(s=s, t=s, x=x, u=u[:, 0] if u.ndim > 1 else u)
            return np.broadcast_to(np.asarray(out, dtype=float), x.shape)
        return fn

    return ControlledDynamics(drift=make(drift), diffusion=make(sigma), m=m)


def _model_from_config(config):
    """The preset's model, each end of its x_domain overridden by
    ``[grid] x_min`` or ``x_max`` when set."""
    model = MODEL_PRESETS[config.get("model", "preset")]()
    x_min = config.get("grid", "x_min")
    x_max = config.get("grid", "x_max")
    model.x_domain = (model.x_domain[0] if x_min is None else x_min,
                      model.x_domain[1] if x_max is None else x_max)
    return model


def _grids(config, model):
    n_x = config.get("grid", "n_x")
    grid = model.default_grid(n_x)
    grid.buffer_frac = config.get("grid", "buffer")
    t_max = config.get("grid", "t_max")
    if t_max < model.T:
        raise ConfigError(f"[grid] t_max = {t_max:g} is below the model "
                          f"horizon T = {model.T:g}")
    times = time_grid(0.0, model.T, config.get("grid", "n_t"))
    return grid, times


def _merton_boundary(model, times, grid, tol):
    if model.spec is None:
        return None
    phi = merton_mod.solve_equilibrium_ode(model.spec, times, tol=min(tol, 1e-12))
    return merton_equilibrium_boundary(model, phi, grid)


# ---------------------------------------------------------------------------
# subcommands

def _run_simulate(config, outdir, plan_only):
    planned = ["path.csv", "jumps.json", "manifest.json"]
    if plan_only:
        return planned
    geometry, levy = _geometry_from_config(config)
    dynamics = _dynamics_from_config(config)
    path = simulate_path(
        dynamics, geometry, levy,
        (0.0, config.get("model", "x0"), config.get("model", "i0")),
        None, h=config.get("solver", "h"), t_end=config.get("grid", "t_max"),
        seed=config.get("run", "seed"))
    art = _Artifacts(outdir)
    path.to_csv(art.path("path.csv"))
    art.add("path.csv")
    art.write_json("jumps.json", path.jump_log())
    art.finish()
    return {"nodes": len(path.times), "jumps": len(path.jumps)}


def _run_rates(config, outdir, plan_only):
    planned = ["rates.json", "manifest.json"]
    if plan_only:
        return planned
    geometry, levy = _geometry_from_config(config)
    dynamics = _dynamics_from_config(config)
    xs = config.get("solver", "rate_states")
    ds = config.get("solver", "ds")
    n_paths = config.get("solver", "n_paths")
    seed = config.get("run", "seed")
    m = geometry.m
    cells = [(x, i, j) for x in xs for i in range(1, m + 1)
             for j in range(1, m + 1) if i != j]

    table = []
    for cell_index, (x, i, j) in enumerate(cells):
        q = rate_matrix(geometry, levy, x)[i - 1, j - 1]
        est = estimate_transition_rate(dynamics, geometry, levy, x, i, j, ds,
                                       n_paths, seed + cell_index, q_theory=q)
        table.append({"x": x, "i": i, "j": j, "q_theory": q,
                      "q_empirical": est.rate, "se": est.se,
                      "anomaly": est.anomaly})
    art = _Artifacts(outdir)
    art.write_json("rates.json", table)
    art.finish()
    return {"cells": len(table)}


def _run_partition_solve(config, outdir, plan_only):
    formats = config.get("output", "formats")
    planned = [*_field_names("value", formats), "strategy.csv",
               "convergence.json", "manifest.json"]
    if plan_only:
        return planned
    model = _model_from_config(config)
    grid, times = _grids(config, model)
    knots = config.get("solver", "knots")
    if knots is not None:
        parts = [Partition(np.asarray(knots))]
    else:
        parts = [Partition.uniform(times[-1], n)
                 for n in config.get("solver", "partitions")]
    for part in parts:      # every partition, before the first march runs
        refuse_oversized_cycles(model, part, grid, len(times))

    def boundary_for(part):
        if model.spec is None:
            return None
        mirror = merton_mod.partition_phi(model.spec, part.knots, times)
        return merton_partition_boundary(model, mirror, grid)

    table, final = refine_and_compare(
        run_cycles(model, part, grid, times, boundary=boundary_for(part))
        for part in parts)
    art = _Artifacts(outdir)
    _write_field(art, final.value, "value", formats)
    final.strategy.to_csv(art.path("strategy.csv"))
    art.add("strategy.csv")
    art.write_json("convergence.json", table)
    art.finish()
    return {"partitions": len(parts), "finest_mesh": parts[-1].mesh()}


def _run_equilibrium(config, outdir, plan_only):
    formats = config.get("output", "formats")
    planned = [*_field_names("value", formats), "strategy.csv",
               "residual_log.jsonl", "manifest.json"]
    if plan_only:
        return planned
    model = _model_from_config(config)
    grid, times = _grids(config, model)
    tol = config.get("solver", "tol")
    boundary = _merton_boundary(model, times, grid, tol)
    sol = solve_equilibrium(model, grid, times, boundary=boundary,
                            keep_rows=(), residual=True)
    final_res = sol.residual
    art = _Artifacts(outdir)
    _write_field(art, sol.value, "value", formats)
    sol.strategy.to_csv(art.path("strategy.csv"))
    art.add("strategy.csv")
    art.write_jsonl("residual_log.jsonl", [{"residual": final_res}])
    art.finish()
    return {"final_residual": final_res}


def _run_merton(config, outdir, plan_only):
    planned = ["phi.csv", "strategy.csv", "comparison.json", "manifest.json"]
    if plan_only:
        return planned
    model = _model_from_config(config)
    if model.spec is None:
        raise ConfigError("the merton subcommand needs a merton-* preset")
    spec = model.spec
    _grid, times = _grids(config, model)
    variant = config.get("solver", "variant")
    tol = config.get("solver", "tol")
    anchor = config.get("solver", "anchor")
    phi_tc = merton_mod.solve_time_consistent(spec, times)
    art = _Artifacts(outdir)
    report = {"variant": variant}
    if variant == "tc":
        _write_phi_table(art, "phi.csv", [0.0], times, phi_tc[None])
        phi_rows = phi_tc
    elif variant == "pre":
        phi_pre = merton_mod.solve_precommitted(spec, anchor, times)
        _write_phi_table(art, "phi.csv", [anchor], times, phi_pre[None])
        phi_rows = phi_pre
        report["max_gap_pre_tc"] = float(np.nanmax(np.abs(phi_pre - phi_tc)))
    else:
        n, m = len(times), spec.m
        refuse_oversized(merton_mod.phi_bytes(n, m, csv=True),
                         f"the equilibrium phi triangle of "
                         f"{merton_mod.phi_bytes(n, m)} bytes (n_t={n}, m={m}) "
                         f"with its phi.csv rows")
        sol = merton_mod.solve_equilibrium_ode(spec, times, tol=min(tol, 1e-12))
        write_csv_blocks(art.path("phi.csv"), _PHI_HEADER, sol.csv_rows())
        art.add("phi.csv")
        phi_rows = sol.eq_diag
        report["max_gap_eq_tc"] = float(np.nanmax(np.abs(sol.eq_diag - phi_tc)))
        report["rounds"] = len(sol.iterations)
        report["final_change"] = sol.iterations[-1]
    k, i = np.nonzero(~np.isnan(phi_rows))
    pairs = []
    for s, label, phi in zip(times[k].tolist(), (i + 1).tolist(), phi_rows[k, i]):
        g_weight = float(spec.g(anchor, s)) if variant == "pre" else None
        pairs.append(merton_mod.strategies(spec, phi, s, 1.0, label,
                                           g_weight=g_weight))
    u, c = np.array(pairs, dtype=float).reshape(-1, 2).T
    write_csv(art.path("strategy.csv"), ("s", "i", "invest_fraction", "consume_rate"),
              (times[k], i + 1, u, c))
    art.add("strategy.csv")
    art.write_json("comparison.json", report)
    art.finish()
    return report


_PHI_HEADER = ("tau", "s", "i", "phi")


def _write_phi_table(art, name, taus, times, phi):
    """phi[tau_idx, s_idx, i - 1] in long format; NaN entries are dropped."""
    a, k, i = np.nonzero(~np.isnan(phi))
    write_csv(art.path(name), _PHI_HEADER,
              (np.asarray(taus, dtype=float)[a], times[k], i + 1, phi[a, k, i]))
    art.add(name)


def _run_verify(config, outdir, plan_only):
    planned = ["verify.json", "gain.csv", "manifest.json"]
    if plan_only:
        return planned
    model = _model_from_config(config)
    grid, times = _grids(config, model)
    tol = config.get("solver", "tol")
    boundary = _merton_boundary(model, times, grid, tol)
    t0 = config.get("solver", "spike_anchor")
    epsilons = config.get("solver", "epsilons")
    check_spike_ladder(times, t0, epsilons)    # fail before the march
    # the equilibrium is time-consistent: its march down to t0 never reads
    # a level below t0, so [t0, T] gives the row at t0 as the whole grid does
    sol = solve_equilibrium(model, grid, times[node_index(times, t0):],
                            boundary=boundary, keep_rows=[0])
    policy = anchored_minimizer_policy(model, sol, t0)
    ladder = spike_ladder(model, sol, t0, epsilons, policy, boundary=boundary)
    art = _Artifacts(outdir)
    art.write_json("verify.json", {
        "epsilon": ladder["epsilons"], "min_gain": ladder["min_gains"],
        "intercept_estimate": ladder["intercept"], "anchor": t0})
    gain = ladder["gains"][-1]
    write_csv(art.path("gain.csv"), ("x", "i", "gain"),
              (grid.x[:, None], np.arange(1, model.m + 1), gain.gain))
    art.add("gain.csv")
    art.finish()
    return {"min_gain": ladder["min_gains"][-1],
            "intercept_estimate": ladder["intercept"]}


_RUNNERS = {
    "simulate": _run_simulate,
    "rates": _run_rates,
    "partition-solve": _run_partition_solve,
    "equilibrium": _run_equilibrium,
    "merton": _run_merton,
    "verify": _run_verify,
}


if __name__ == "__main__":
    sys.exit(main())
