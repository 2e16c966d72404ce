"""Hot numeric kernels: eigenphases of the bond propagation matrix.

Everything the secular solver needs at a wavenumber k comes from the
eigenvalues of the unitary matrix U(k) = D(k) S: the secular residual is
the distance of the nearest eigenphase to zero (U unitary makes I - U
normal, so singular values of I - U are |1 - e^{i theta_j}|), and the sum
of principal eigenphases yields an exact level count between two probe
points.

The phases come from a Hermitian problem through the Cayley map.  For a
unitary W with no eigenvalue at -1, M = (I + W)^-1 makes
H = i (M - M^H) Hermitian (the Hermitian part of i (I - W)(I + W)^-1), and
an eigenvalue e^{i phi} of W, phi in (-pi, pi), becomes the eigenvalue
lambda = tan(phi / 2) of H.  One batched `inv` and one batched `eigvalsh`
thus replace the general (non-Hermitian) eigensolver.  Rounding in M is
about eps * max|lambda|, so the phase error grows near the pole phi = pi.
The kernel therefore takes W = e^{-i alpha} U: a first pass at alpha = 0,
then the points whose max|lambda| exceeds
T = max(100, cot(pi / (2 (m + 1)))) again with alpha raised by
2 pi / (m + 1), m = 2E the bond count.  Of the m + 1 equally spaced poles
one lies at least pi / (m + 1) from all m phases, where
|lambda| <= cot(pi / (2 (m + 1))) <= T, so at most m + 1 passes are made
and every accepted phase carries an error of at most about 100 eps.

Kernels are single-threaded on purpose: parallelism lives at the
configuration level in the ensemble runner, which keeps results
bit-identical at any worker count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eigenphases", "eigenphases_numpy"]

TWO_PI = 2.0 * np.pi


def _cayley_tangents(w: np.ndarray) -> np.ndarray:
    """tan(phi / 2) for the eigenphases phi in (-pi, pi) of each unitary w.

    An eigenvalue at exactly -1 anywhere in the batch makes I + w singular;
    then every row is returned as infinite, which sends the whole batch to
    the next rotation.
    """
    try:
        m = np.linalg.inv(np.eye(w.shape[-1]) + w)
    except np.linalg.LinAlgError:
        return np.full(w.shape[:2], np.inf)
    return np.linalg.eigvalsh(1j * (m - m.conj().swapaxes(-1, -2)))


def eigenphases(
    ks: np.ndarray, lengths: np.ndarray, chis: np.ndarray, smat: np.ndarray
) -> np.ndarray:
    """Principal eigenphases of U(k) = diag(exp(i(k*l_b + chi_b))) @ S.

    ks: (n,) wavenumbers; lengths, chis: (2E,) per-directed-bond metric
    lengths and fixed magnetic offsets; smat: (2E, 2E) complex vertex
    scattering matrix.  Returns (n, 2E) phases in [0, 2*pi).
    """
    m = lengths.size
    d = np.exp(1j * (ks[:, None] * lengths[None, :] + chis[None, :]))
    u = d[:, :, None] * smat[None, :, :]
    step = TWO_PI / (m + 1)
    bound = max(100.0, 1.0 / np.tan(np.pi / (2 * (m + 1))))
    phases = np.empty(u.shape[:2])
    todo = np.arange(ks.size)
    for turn in range(m + 1):
        alpha = turn * step
        lam = _cayley_tangents(u if turn == 0 else np.exp(-1j * alpha) * u[todo])
        # a point that exceeded the bound at every earlier rotation is within
        # it at the last one in exact arithmetic, so that pass accepts all
        done = (np.abs(lam).max(axis=1) <= bound) | (turn == m)
        phases[todo[done]] = alpha + 2.0 * np.arctan(lam[done])
        todo = todo[~done]
        if todo.size == 0:
            break
    return np.mod(phases, TWO_PI)


# perfbench/workloads.py times the kernel under this name and runs unchanged
# against every commit it compares, so the name stays.
eigenphases_numpy = eigenphases
