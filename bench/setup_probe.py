"""Set-up probe: import tclkraus, parse and validate one workload's inputs.

Usage: python3 bench/setup_probe.py WORKLOAD INPUT_PATH

Prints ``ready`` once the inputs are loaded.  The benchmark starts this in a
fresh interpreter and times it from process start to that line, which is the
set-up a CLI user pays before any solve begins.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports tclkraus)

workloads.WORKLOADS[sys.argv[1]].load(sys.argv[2])
print("ready", flush=True)
