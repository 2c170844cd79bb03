"""Calibration kernels: how fast this host runs each kind of work right now.

The host's speed drifts: for minutes at a time pure-Python work runs up to
1.7x slower, while BLAS-bound work slows by about 15%. Each invocation's
time is therefore scaled by the speed of a kernel of its own kind, timed in
the same process right after it. See README.md.
"""

import time

import numpy as np

# Each kernel's time on the 2-vCPU host the benchmark was defined on.
PYTHON_REF_S = 0.0165
GRID_REF_S = 0.026

_SMALL = (np.random.default_rng(0).standard_normal((128, 128))
          + 1j * np.random.default_rng(1).standard_normal((128, 128)))
_LARGE = (np.random.default_rng(2).standard_normal((256, 256))
          + 1j * np.random.default_rng(3).standard_normal((256, 256)))
_GRID = np.linspace(0.0, 1.0, 256 * 512).reshape(256, 512)


def python_speed():
    """PYTHON_REF_S over the time of 3000 scalar numpy calls shaped like a
    Sellmeier evaluation (range check, square root) and a small complex
    SVD: the solvers' kind of work. Above 1 on a faster moment."""
    start = time.perf_counter()
    x = 0.0
    for i in range(3000):
        lam = np.asarray(0.8 + 1e-6 * i)
        if np.min(lam) < 0.2:
            break
        x += float(np.sqrt(2.0 + 0.01 / (lam * lam - 0.01)))
    np.linalg.svd(_SMALL, compute_uv=False)
    return PYTHON_REF_S / (time.perf_counter() - start)


def grid_speed():
    """GRID_REF_S over the time of elementwise transcendentals on a grid
    and a 256x256 complex SVD: the grid commands' kind of work."""
    start = time.perf_counter()
    np.sinc(np.exp(-_GRID * _GRID))
    np.linalg.svd(_LARGE, compute_uv=False)
    return GRID_REF_S / (time.perf_counter() - start)
