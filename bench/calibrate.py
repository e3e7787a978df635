"""Calibration helper: times fixed kernels each time it reads a line.

Usage: python3 bench/calibrate.py   (driven by run_bench.py over a pipe)

For every line on standard input, a space-separated list of kernel names,
it prints one JSON line ``{name: seconds, ...}``.  It runs in its own
process so the kernels' memory and imports do not count against the
benchmark process, whose peak resident memory is a metric.  The kernels
never call the package:

* "python": scipy quadrature of Python callbacks and many small complex
  products, the interpreter-bound work of most solves and of set-up;
* "blas": 768-dim complex matrix products, the dense work that dominates
  the exact oracle.
"""

import json
import sys
import time

import numpy as np
from scipy.integrate import quad

SMALL = np.eye(4, dtype=complex)
BIG = np.random.default_rng(0).normal(size=(768, 768)) * (1.0 + 0.5j)


# each kernel takes about 0.2 s: shorter ones sample the host's speed at an
# instant and scatter more than the solves they scale


def python_kernel():
    for k in list(range(60)) * 3:
        quad(lambda x: np.cos(k * x) * np.exp(-x), 0.0, 10.0, limit=200)
    acc = SMALL
    for _ in range(9000):
        acc = (acc @ SMALL) * 0.5 + SMALL


def blas_kernel():
    for _ in range(3):
        BIG @ BIG


KERNELS = {"python": python_kernel, "blas": blas_kernel}


def timed(name):
    t0 = time.perf_counter()
    KERNELS[name]()
    return time.perf_counter() - t0


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps({name: timed(name) for name in line.split()}), flush=True)
