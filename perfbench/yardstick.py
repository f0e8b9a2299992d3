"""Machine-speed yardsticks for the end-to-end timings.

The shared machines this benchmark runs on change speed by up to a factor of
two for seconds at a time (on both vCPUs, whichever one a process is pinned
to), so a run's raw wall times say as much about its neighbours as about
lowdin-kit. A yardstick is a fixed piece of work that never touches
lowdin-kit, timed on the same CPU right before and right after each op. An
op's wall time is scaled by NOMINAL_S / (median of the yardstick times next
to it): the result is what the op would take with the machine at its
nominal speed. A change to the package moves the scaled times in the same
proportion as the raw ones.

- `Yardstick` (weights): in process, the benchmark's own plain-numpy Lowdin
  reference (`pure_reference` and `density_reference`, small LAPACK calls)
  plus a modified Gram-Schmidt loop (Python-level vector ops), both at d=16.
  The two parts follow the two kinds of work the workloads do; either alone
  tracks the other kind less well.
- `LargeYardstick` (engines): eight runs of `Yardstick` plus a plain-numpy
  QR and Gram matrix of a 256 x 128 basis, the two halves taking about
  equal time. The d=256 engines work on arrays far larger than the caches
  the small parts fit in, and the machine's slow phases slow the two sizes
  by different amounts; the small half follows the d=64 ops (which set the
  engines p50), the large half the d=256 ones (p90 and throughput).
- `ProcessYardstick` (cli): a `python -c "import numpy"` child, because the
  speed of a fresh process tracks an in-process loop poorly.

The NOMINAL_S values are the yardstick times on a 2-vCPU Xeon VM at 2.1 GHz
(Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread) in its fast
phases.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import (_complex_gaussian, _np_qr, density_reference, pure_reference,
                       random_density, random_overlap, shared_component_basis)


class Yardstick:
    NOMINAL_S = 0.6e-3
    REPS = 2  # runs per sample next to an op
    SETUP_REPS = 8  # runs per sample next to a set-up
    DIM = 16

    def __init__(self):
        rng = np.random.default_rng(16)
        self.overlap = random_overlap(rng, self.DIM)
        self.rho = random_density(rng, self.DIM)
        self.raw = _complex_gaussian(rng, self.DIM)
        self.cols = shared_component_basis(rng, 2 * self.DIM, self.DIM, 1.0)
        self.sample()  # warm-up

    def _run(self) -> None:
        density_reference(self.overlap, self.rho)
        pure_reference(self.overlap, self.raw)
        q = np.empty_like(self.cols)
        for k in range(self.DIM):
            v = self.cols[:, k].copy()
            for j in range(k):
                v -= (q[:, j].conj() @ v) * q[:, j]
            q[:, k] = v / np.linalg.norm(v)

    def sample(self, reps: int = 0) -> list[float]:
        """Wall times of `reps` (default REPS) yardstick runs."""
        times = []
        for _ in range(reps or self.REPS):
            t0 = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - t0)
        return times

    def scale(self, samples: list[float]) -> float:
        """Factor taking a wall time measured next to `samples` to nominal speed."""
        return self.NOMINAL_S / statistics.median(samples)


class LargeYardstick(Yardstick):
    NOMINAL_S = 9.5e-3
    REPS = 1
    SETUP_REPS = 4
    SMALL_RUNS = 8  # gives the small and the large part about equal time

    def __init__(self):
        self.large = shared_component_basis(np.random.default_rng(256), 256, 128, 1.0)
        super().__init__()

    def _run(self) -> None:
        for _ in range(self.SMALL_RUNS):
            super()._run()
        _np_qr(self.large)
        self.large.conj().T @ self.large


class ProcessYardstick(Yardstick):
    NOMINAL_S = 0.105
    REPS = SETUP_REPS = 1

    def __init__(self, env: dict):
        self.env = env
        self.sample()

    def _run(self) -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env, check=True)
