"""Run every workload in turn, each in a fresh process, with the same
seed, run length and trace setting. Run from the root of a checkout:

    python3 bench/run_all.py --seed N --seconds S --trace 0|1

Each workload prints its metrics as ``bench/run.py`` does. The exit code
is the largest of the runs' exit codes.
"""

import subprocess
import sys
from pathlib import Path

WORKLOADS = ("scan", "probe", "verify")
RUN = Path(__file__).resolve().parent / "run.py"


def main(argv) -> int:
    codes = []
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        done = subprocess.run([sys.executable, str(RUN), "--workload", workload, *argv])
        codes.append(done.returncode)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
