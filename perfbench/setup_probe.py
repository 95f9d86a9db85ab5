"""One set-up, as a fresh process pays it before its first request:
import the CLI and write the workload's generated instance files.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIRECTORY

run.py starts this several times and reports the median wall time.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import uplift_zero.cli  # noqa: E402,F401  (the import is what is timed)

import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    docs, _ = workloads.generate(workload, seed)
    workloads.write_instances(directory, docs)
