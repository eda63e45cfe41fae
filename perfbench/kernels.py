"""The tensor kernels timed alone, at Hilbert dimensions 4, 64, 256 and 1024.

Each kernel runs on the input the workloads give it at that dimension: the
partial transpose and partial trace of a rank-8 Wishart state, eigvalsh of
its partial transpose, and the SVD that `schmidt_decompose` runs on a pure
state of that dimension. A kernel repeats for at least MIN_TIME seconds
and MIN_REPS calls; its metric is the median call time.

Run as a script, it prints the d=1024 eigvalsh time under the BLAS thread
settings of its environment; `one_thread_eigvalsh` uses that to get the
single-thread baseline in a fresh process.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import paths

LAYOUTS = {4: ((2, 2), (0,)), 64: ((8, 8), (0,)), 256: ((16, 16), (0,)),
           1024: ((2, 16, 32), (0, 2))}
MIN_TIME = 0.1
MIN_REPS = 3
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def median_call(fn) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < MIN_TIME:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def inputs(d: int, seed: int):
    from qchain import states, tensor

    layout = tensor.SubsystemLayout(*LAYOUTS[d])
    rho = states.random_density_matrix(layout, min(8, d), seed).matrix
    pt = tensor.partial_transpose(rho, layout)
    amps = states.random_haar_pure(layout, seed).amplitudes
    return layout, rho, pt, tensor.bipartite_matrix(amps, layout)


def kernel_times(seed: int) -> dict:
    import numpy as np
    from qchain import tensor

    out = {}
    for d in LAYOUTS:
        layout, rho, pt, mat = inputs(d, seed)
        out[f"tensor.kernel.eigvalsh.d{d}_s"] = median_call(lambda: np.linalg.eigvalsh(pt))
        out[f"tensor.kernel.partial_transpose.d{d}_s"] = median_call(
            lambda: tensor.partial_transpose(rho, layout))
        out[f"tensor.kernel.svd.d{d}_s"] = median_call(
            lambda: np.linalg.svd(mat, full_matrices=False))
        out[f"tensor.kernel.partial_trace.d{d}_s"] = median_call(
            lambda: tensor.partial_trace(rho, layout, layout.party_a))
    return out


def eigvalsh_1024(seed: int) -> float:
    import numpy as np

    pt = inputs(1024, seed)[2]
    return median_call(lambda: np.linalg.eigvalsh(pt))


def one_thread_eigvalsh(seed: int) -> float:
    """d=1024 eigvalsh in a child process with one BLAS thread."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), str(seed)],
                          capture_output=True, env={**os.environ, **ONE_THREAD},
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


if __name__ == "__main__":
    paths.use_checkout_source()
    print(repr(eigvalsh_1024(int(sys.argv[1]))))
