"""A fixed numpy/scipy kernel that measures how fast the machine is right now.

On a shared virtual machine the same job's CPU time drifts by 20-30% for
minutes at a time, when other guests load the host's cores, caches and
memory. Medians over one run do not remove a drift that lasts longer than
the run. The benchmark therefore times this kernel in its parent process
after every job and scales its times by ``REFERENCE_S / median sample``:
a drift that slows the kernel and the jobs alike cancels, a change to
``twistsense`` does not, because the kernel calls no ``twistsense`` code.

The kernel mixes what the workloads spend their time on, in about equal
shares: a dense Hermitian eigensolve, a Pade ``expm``, repeated
matrix-vector propagation, a loop of small array operations in Python and
page-faulting 16 MiB of fresh memory.
"""

from __future__ import annotations

import mmap
import time

import numpy as np
import scipy.linalg

# Median CPU seconds of one sample on a 2-vCPU Intel Xeon at 2.0 GHz
# (numpy 2, OpenBLAS on one thread) while the host was quiet. It only sets
# the scale of the reported times, so that they read as seconds.
REFERENCE_S = 0.155

_DIM = 300
_EXPM_DIM = 160
_PAGES_BYTES = 16 << 20


class Yardstick:
    """Fixed inputs, made once; ``sample`` reruns the kernel on them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((_DIM, _DIM)) + 1j * rng.standard_normal((_DIM, _DIM))
        self.hermitian = (a + a.conj().T) / 30
        b = rng.standard_normal((_EXPM_DIM, _EXPM_DIM))
        b = b + 1j * rng.standard_normal((_EXPM_DIM, _EXPM_DIM))
        self.generator = (b - b.conj().T) / 15
        self.evals, self.evecs = np.linalg.eigh(self.hermitian)
        self.sample()  # first call loads LAPACK code paths

    def sample(self) -> float:
        """CPU seconds (user plus system) of one run of the kernel."""
        start = time.thread_time()
        np.linalg.eigh(self.hermitian)
        for _ in range(2):
            scipy.linalg.expm(self.generator)
        u = self.evecs
        phases = np.exp(0.01j * self.evals)
        v = u[:, 0].copy()
        for _ in range(80):
            v = u @ (phases * (u.conj().T @ v))
        total = 0.0
        for i in range(6000):
            k = i % (_DIM - 4)
            total += float(np.sum(v[k : k + 4].real))
        pages = mmap.mmap(-1, _PAGES_BYTES)
        np.frombuffer(pages, np.uint8).fill(1)
        pages.close()
        return time.thread_time() - start
