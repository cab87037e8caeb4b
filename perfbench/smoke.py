"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size with tracing off and on, and checks
that each run passes its output checks and prints exactly the metric
names (and units) that BENCHMARK.json lists.  Then checks that the
benchmark refuses to run, with a nonzero exit and no result line, from a
directory holding only BENCHMARK.json and the benchmark's own files.
Takes about a minute.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

TINY = {
    "merton-pde": {("grid", "n_x"): 31, ("grid", "n_t"): 32},
    "toy-verify": {("grid", "n_x"): 21, ("grid", "n_t"): 32},
    "mc-rates": {("solver", "n_paths"): 2000},
    "mc-payoff": {"ode_steps": 100, "n_paths": 512, "h": 1e-2},
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_names(spec):
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    assert not bad, f"malformed names {bad}"
    assert len(names) == len(set(names)), "a name is used twice"


def run_tiny(workload, trace):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                         "1", "--trace", str(trace)],
                        sizes=TINY[workload], probes=1)
    assert code == 0, f"{workload} trace {trace}: exit {code}"
    return json.loads(buf.getvalue().splitlines()[-1])


def check_bare_directory(spec):
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark ran without the program source"
    assert b'"correct"' not in proc.stdout, "printed a result without source"


def main():
    spec = run.benchmark_spec()
    check_names(spec)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(wl["name"], trace)
            assert set(result) == RESULT_KEYS, sorted(result)
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            want = [m["name"] for m in spec[group]]
            assert list(result["metrics"]) == want, \
                f"{wl['name']} trace {trace}: metric names differ"
            for name, entry in result["metrics"].items():
                assert entry["unit"] == units[name]
                assert isinstance(entry["value"], (int, float))
            print(f"smoke: {wl['name']} trace {trace} ok", flush=True)
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    check_bare_directory(spec)
    print("smoke: bare directory refused, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
