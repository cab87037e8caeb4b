"""switchctl benchmark: one workload per run, checked outputs, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times operations with tracing off and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs one
untraced and then traced operations and reports the per-layer metrics,
the tracing overhead, and the fidelity and counter-determinism checks.
The last line of standard output is the result object; a line before it
carries the details (samples, extra metrics, environment).  Exit code 0
on a completed run (``correct`` says whether every check passed), 2 when
the run cannot start.
"""

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3


def nproc():
    return len(os.sched_getaffinity(0))


def prepare_process():
    """Thread caps, worker count and import path; call before numpy loads.

    Returns an error message when the program source is missing.
    """
    cap = nproc()
    for var in THREAD_VARS:
        try:
            os.environ[var] = str(min(int(os.environ[var]), cap))
        except (KeyError, ValueError):
            os.environ[var] = str(cap)
    # the configs pin workers = 1 and --out; outside overrides must not leak in
    os.environ.pop("SWITCHCTL_WORKERS", None)
    os.environ.pop("SWITCHCTL_OUTDIR", None)
    if not os.path.isfile(os.path.join(SRC, "switchctl", "__init__.py")):
        return f"switchctl source not found under {SRC}"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return None


def _quantiles(values):
    """Median, and the highest percentile with at least ten samples beyond
    it (None when there are fewer than eleven samples)."""
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 11:
        pct = 100 * (len(values) - 10) // len(values)
        out[f"p{pct}"] = values[-11]
    return out


def measure_setup(workload, seed, probes):
    """Median wall time of fresh processes that import switchctl, parse the
    workload's config and build its inputs."""
    times = []
    for k in range(probes):
        workdir = os.path.join(WORK, f"probe-{os.getpid()}-{k}")
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload,
               str(seed), workdir]
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: "
                               f"{proc.stderr.decode(errors='replace')}")
    return times


def environment():
    """Versions, cores, thread caps and cache sizes to record with results."""
    import numpy
    import scipy
    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": nproc(),
           "threads": {v: os.environ.get(v) for v in THREAD_VARS},
           "git_sha": _git_sha(), "caches": _caches()}
    return env


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _caches():
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            vals = []
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key)) as fh:
                    vals.append(fh.read().strip())
            out[f"L{vals[0]}-{vals[1]}"] = vals[2]
    except OSError:
        pass
    return out


def timed_op(wl, k, tracer=None):
    """Operation ``k``, timed; returns (wall seconds, OpResult).  An
    exception counts as a failed operation and the run goes on."""
    import workloads
    outdir = os.path.join(wl.workdir, f"op{k}")
    start = time.perf_counter()
    try:
        if tracer is None:
            res = wl.run(outdir)
        else:
            res = tracer.run_op(lambda: wl.run(outdir, tracer))
    except Exception as exc:
        traceback.print_exc()
        res = workloads.OpResult(False, f"exception: {exc!r}", {}, 0)
    wall = time.perf_counter() - start
    shutil.rmtree(outdir, ignore_errors=True)
    if not res.ok:
        print(f"perfbench: operation {k} failed: {res.detail}", file=sys.stderr)
    return wall, res


def run_untraced(wl, seconds, probes, report):
    """End-to-end metrics: set-up, per-operation wall time, peak RSS."""
    setup = measure_setup(wl.name, wl.seed, probes)
    wl.prepare_check()
    walls, results = [], []
    start = time.perf_counter()
    # start another operation only while it is expected to end in time
    while not walls or \
            time.perf_counter() - start + statistics.median(walls) <= seconds:
        wall, res = timed_op(wl, len(walls))
        walls.append(wall)
        results.append(res)
        report.update(res.extra)
    failed = sum(not r.ok for r in results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.update(wall_s=_quantiles(walls), wall_s_samples=walls,
                  setup_s_samples=setup,
                  ops_failed_frac=failed / len(walls),
                  checks=[r.detail for r in results])
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": rss_mb}
    return metrics, len(walls), failed


def run_traced(wl, seconds, report):
    """Per-layer metrics from traced operations, with the tracing overhead,
    the fidelity check and the counter-determinism check.

    Operation 0 runs untraced; the rest run traced, at least two of them.
    """
    import tracing
    wl.prepare_check()
    tracer = tracing.Tracer()
    untraced_wall, ref = timed_op(wl, 0)
    ops = []                     # (wall, OpResult, layer metrics, ok)
    start = time.perf_counter()
    while len(ops) < 2 or \
            time.perf_counter() - start + ops[-1][0] <= seconds - untraced_wall:
        wall, res = timed_op(wl, len(ops) + 1, tracer)
        layer = tracer.layer_metrics(tracer.op)
        layer["cli.artifact_bytes"] = res.artifact_bytes
        ok = res.ok
        # fidelity: tracing must not change a single byte of the outputs
        if res.manifests != ref.manifests:
            ok = False
            print(f"perfbench: fidelity: traced manifests {res.manifests} "
                  f"differ from untraced {ref.manifests}", file=sys.stderr)
        # determinism: every count repeats exactly between traced operations
        diff = {k: (ops[0][2][k], layer[k]) for k in tracing.COUNT_METRICS
                if ops and layer[k] != ops[0][2][k]}
        if diff:
            ok = False
            print(f"perfbench: counter determinism: counts differ {diff}",
                  file=sys.stderr)
        ops.append((wall, res, layer, ok))

    first = ops[0][2]
    metrics = {name: statistics.median(op[2][name] for op in ops)
               for name in first}
    metrics.update({name: first[name] for name in tracing.COUNT_METRICS})
    traced_walls = [op[0] for op in ops]
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - untraced_wall)
    report.update(traced_wall_s=traced_walls, untraced_wall_s=untraced_wall,
                  checks=[ref.detail] + [op[1].detail for op in ops])
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    trace_path = os.path.join(WORK, "traces",
                              f"{wl.name}-seed{wl.seed}-{os.getpid()}.json.gz")
    with gzip.open(trace_path, "wt") as fh:
        json.dump(dict(tracer.dump(), workload=wl.name, seed=wl.seed), fh)
    report["trace_file"] = os.path.relpath(trace_path, ROOT)
    failed = (not ref.ok) + sum(not op[3] for op in ops)
    return metrics, len(ops) + 1, failed


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None, sizes=None, probes=SETUP_PROBES):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = prepare_process()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (valid: "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in
              (spec["per_layer"] if args.trace else spec["end_to_end"])]

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    report = {"workload": args.workload, "seed": args.seed}
    try:
        wl = workloads.build(args.workload, args.seed, workdir, sizes)
        if args.trace:
            metrics, attempted, failed = run_traced(wl, args.seconds, report)
        else:
            metrics, attempted, failed = run_untraced(wl, args.seconds,
                                                      probes, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    report["environment"] = environment()
    print(json.dumps({"detail": report}, default=float))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
