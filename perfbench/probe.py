"""Set-up probe: import nctorus, build one workload's inputs, print `ready`.

run.py starts this script several times per run and times each start
from spawn to the `ready` line, which covers interpreter start, the
imports, configuration and element construction, and seeded input
generation.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main(argv):
    workload, seed = argv
    WORKLOADS[workload].build(int(seed))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
