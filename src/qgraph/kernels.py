"""Hot numeric kernels: eigenphases of the bond propagation matrix.

Everything the secular solver needs at a wavenumber k comes from the
eigenvalues of the unitary matrix U(k) = D(k) S: the secular residual is
the distance of the nearest eigenphase to zero (U unitary makes I - U
normal, so singular values of I - U are |1 - e^{i theta_j}|), and the sum
of principal eigenphases yields an exact level count between two probe
points.  The kernel batches the LAPACK eigenvalue work over stacked
matrices, one per wavenumber.

Kernels are single-threaded on purpose: parallelism lives at the
configuration level in the ensemble runner, which keeps results
bit-identical at any worker count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eigenphases", "eigenphases_numpy"]

TWO_PI = 2.0 * np.pi


def eigenphases(
    ks: np.ndarray, lengths: np.ndarray, chis: np.ndarray, smat: np.ndarray
) -> np.ndarray:
    """Principal eigenphases of U(k) = diag(exp(i(k*l_b + chi_b))) @ S.

    ks: (n,) wavenumbers; lengths, chis: (2E,) per-directed-bond metric
    lengths and fixed magnetic offsets; smat: (2E, 2E) complex vertex
    scattering matrix.  Returns (n, 2E) phases in [0, 2*pi).
    """
    d = np.exp(1j * (ks[:, None] * lengths[None, :] + chis[None, :]))
    u = d[:, :, None] * smat[None, :, :]
    ev = np.linalg.eigvals(u)
    return np.mod(np.angle(ev), TWO_PI)


# perfbench/workloads.py times the kernel under this name and runs unchanged
# against every commit it compares, so the name stays.
eigenphases_numpy = eigenphases
