"""Set-up probe: one fresh process that does a workload's set-up and exits.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

The benchmark times this process from launch to exit: interpreter start,
``import switchctl`` (with numpy and scipy), config parsing and input
construction, which is everything a run does before its first operation.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import prepare_process  # noqa: E402


def main(argv):
    workload, seed, workdir = argv
    problem = prepare_process()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    import workloads
    workloads.build(workload, int(seed), workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
