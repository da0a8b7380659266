"""Reference kernel: fixed numpy/scipy work that never calls the package.

The benchmark times this kernel before the first repetition and after each
one.  The speed of the machine it was written on drifts by up to 1.5x over
minutes, and a workload's time follows the drift.  Dividing the workload's
time by the kernel's time, both measured in the same run, takes most of
the drift out.  A change to the package moves the workload's time and not
the kernel's.

The kernel mixes the kinds of work the workloads do: an interpreter loop,
scipy.sparse assembly at the algebra suite's size, a dense complex
Hermitian eigensolve and a Krylov-style sparse complex matvec loop at the
fiber's size.  One call takes about 0.3 s.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

SMALL_DIM = 35       # algebra basis
SMALL_NNZ = 120
DENSE_DIM = 500
SPARSE_DIM = 2925    # fiber dimension
SPARSE_NNZ = 10725   # nonzeros of the fiber Hamiltonian


class ReferenceKernel:
    """The kernel's inputs, built once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.integers(0, SMALL_DIM, size=SMALL_NNZ)
        self.cols = rng.integers(0, SMALL_DIM, size=SMALL_NNZ)
        self.vals = rng.normal(size=SMALL_NNZ)
        a = rng.normal(size=(DENSE_DIM, DENSE_DIM)) + 1j * rng.normal(size=(DENSE_DIM, DENSE_DIM))
        self.dense = a + a.conj().T
        s = sp.csr_matrix((rng.normal(size=SPARSE_NNZ) * (1 + 1j),
                           (rng.integers(0, SPARSE_DIM, size=SPARSE_NNZ),
                            rng.integers(0, SPARSE_DIM, size=SPARSE_NNZ))),
                          shape=(SPARSE_DIM, SPARSE_DIM))
        self.sparse = (s + s.conj().T).tocsr()
        self.vec = rng.normal(size=SPARSE_DIM) + 0j

    def _work(self):
        counts = {}
        for i in range(200_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        shape = (SMALL_DIM, SMALL_DIM)
        for _ in range(100):
            a = sp.csr_matrix((self.vals, (self.rows, self.cols)), shape=shape)
            b = sp.csr_matrix((self.vals, (self.cols, self.rows)), shape=shape)
            np.linalg.norm((a @ b - b @ a).toarray())
        np.linalg.eigh(self.dense)
        y = self.vec
        for _ in range(600):
            z = self.sparse @ y
            y = z - np.vdot(y, z) * y
            y /= np.linalg.norm(y)

    def run(self) -> tuple[float, float]:
        """Run the kernel once; returns its (wall, CPU) seconds."""
        t0, c0 = time.perf_counter(), time.process_time()
        self._work()
        return time.perf_counter() - t0, time.process_time() - c0
