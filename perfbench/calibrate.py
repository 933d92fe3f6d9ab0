"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of the same code drifts by a quarter or more
over minutes, and process CPU time drifts with it, so neither wall nor CPU
time of one run can be compared with a run made minutes later. The
benchmark therefore times a fixed numpy job, made of the operations the
engine spends its time in (a 1x1-conv GEMM, a 3x3 depthwise
multiply-accumulate over strided views, batch-norm reductions and
hard-swish, at the two batch sizes the workloads run), right before and
after each call it measures. The job does not
use the engine, so a change to the engine does not move it.

A timing is reported at reference speed: scaled by ``REF_S`` over the
job's time around it, i.e. as if the job had taken ``REF_S`` seconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the job's typical time on a 2-core Xeon VM (numpy 2.4, OpenBLAS); only a
# scale, so that normalized timings read in familiar seconds
REF_S = 0.15

REPEATS = 3


class Calibration:
    """A fixed job on fixed arrays: one block of the network on 14x14
    feature maps, at batch 128 and at batch 256 (the profile batch), so
    that both working-set sizes the workloads use are in it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        f32 = np.float32
        self.arrays = [
            (rng.standard_normal((b * 14 * 14, 16)).astype(f32),
             rng.standard_normal((b, 48, 16, 16)).astype(f32))
            for b in (128, 256)]
        self.w = rng.standard_normal((16, 48)).astype(f32)
        self.k = rng.standard_normal((48, 3, 3)).astype(f32)
        self.times = []

    def _block(self, cols, xp):
        y = cols @ self.w
        dw = cols.T @ y
        out = np.zeros((xp.shape[0], 48, 14, 14), np.float32)
        for i in range(3):
            for j in range(3):
                out += (xp[:, :, i:i + 14, j:j + 14]
                        * self.k[:, i, j].reshape(1, 48, 1, 1))
        mean = out.mean(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        var = out.var(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        z = (out - mean) / np.sqrt(var + 1e-5)
        z = z * np.clip(z + 3.0, 0.0, 6.0) / 6.0
        return float(z.sum()) + float(dw.sum())

    def _job(self):
        return sum(self._block(cols, xp) for cols, xp in self.arrays)

    def measure(self):
        """Median seconds of the job over REPEATS runs; also kept in
        self.times."""
        ts = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._job()
            ts.append(time.perf_counter() - t0)
        self.times.append(statistics.median(ts))
        return self.times[-1]

    def speed(self, before, after):
        """Machine speed relative to reference around one measured call,
        from the job's times before and after it (> 1 is faster)."""
        return REF_S / ((before + after) / 2)
