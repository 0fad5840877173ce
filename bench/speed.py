"""Machine-speed calibration for timings on a shared host.

On a shared 2-CPU host the speed of the same code drifts by 20-40 % over
seconds (a fixed loop was measured at 19-29 ms per 5-second window), which
swamps any change worth detecting.  The benchmark therefore times a small
fixed kernel next to every request and scales the request's time by
``REFERENCE_S / kernel time``: it reports seconds on a machine where the
kernel takes ``REFERENCE_S``.  The kernel mixes the operations projflat
spends its time on (small numpy vectors, norms, dot products, Python float
arithmetic and JSON output), so it slows down together with the program.
It is the benchmark's own code and does not change between commits.

Measured on 4 request shapes over 120 s: the spread of 12-second window
medians fell from 12-13 % (raw) to 1.4-2.4 % (scaled).
"""

import json
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0023
_X = np.array([0.1, 0.2])
_Y = np.array([0.3, -0.4])


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(150):
        v = _Y + _X * (0.001 * i)
        acc += float(np.linalg.norm(v)) + float(v @ _X)
        acc += len(json.dumps({"i": i, "v": [acc, 0.5 * i], "r": repr(acc)})) * 1e-9
    if acc != acc:  # keeps the result live
        raise ArithmeticError("calibration kernel produced NaN")
    return perf_counter() - t0


def factors(kernels, half_window=5):
    """Scale factor of each request from the kernel times around it.

    ``kernels[i]`` ran just before request i and ``kernels[i + 1]`` just
    after it.  Request i uses REFERENCE_S over the median of the
    ``2 * half_window`` kernel times nearest to it.  A single kernel run
    jitters by about 18 % (5th-95th percentile of consecutive ratios); the
    median over the window follows the drift without that jitter.
    """
    out = []
    for i in range(len(kernels) - 1):
        lo = max(0, i + 1 - half_window)
        window = kernels[lo:i + 1 + half_window]
        out.append(REFERENCE_S / statistics.median(window))
    return out
