"""Hot numeric kernels: eigenvalues of the vertex matrix and eigenphases of
the bond propagation matrix.

`vertex_eigenvalues` drives the solver's search.  The V x V Hermitian
vertex secular matrix is M = cot(x) @ cot_part + csc(x) @ csc_part at the
edge phases x_e = k l_e, one matrix product per graph away from constant
incidence arrays, and a batched `eigvalsh` gives its eigenvalues, whose
signs, with the poles sin x_e = 0 passed, count the levels up to k.  One
call serves the points of every graph the solver runs in lockstep.

`eigenphases` verifies the search independently.  Everything it needs at
a wavenumber k comes from the eigenvalues of the unitary matrix
U(k) = D(k) S: the secular residual is the distance of the nearest
eigenphase to zero (U unitary makes I - U normal, so singular values of
I - U are |1 - e^{i theta_j}|), and the sum of principal eigenphases
yields an exact level count between two probe points.

The phases come from a Hermitian problem through the Cayley map.  For a
unitary W with no eigenvalue at -1, Q = (I + W)^-1 makes
H = i (Q - Q^H) Hermitian (the Hermitian part of i (I - W)(I + W)^-1), and
an eigenvalue e^{i phi} of W, phi in (-pi, pi), becomes the eigenvalue
lambda = tan(phi / 2) of H.  One batched `inv` and one batched `eigvalsh`
thus replace the general (non-Hermitian) eigensolver.  Rounding in Q is
about eps * max|lambda|, so the phase error grows near the pole phi = pi.
The kernel therefore takes W = e^{-i alpha} U: a first pass at alpha = 0,
then the points whose max|lambda| exceeds
T = max(100, cot(pi / (2 (m + 1)))) again with alpha raised by
2 pi / (m + 1), m = 2E the bond count.  Of the m + 1 equally spaced poles
one lies at least pi / (m + 1) from all m phases, where
|lambda| <= cot(pi / (2 (m + 1))) <= T, so at most m + 1 passes are made
and every accepted phase carries an error of at most about 100 eps.

Kernels are single-threaded on purpose.  A campaign splits its sides
into one chunk per worker, the workers split the chunks, and one batch
holds the points of all sides of a chunk.  A point's result does not
depend on the other points of its batch, which keeps results
bit-identical at any worker count.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["eigenphases", "eigenphases_numpy", "vertex_eigenvalues"]

TWO_PI = 2.0 * np.pi


def _cayley_tangents(w: np.ndarray) -> np.ndarray:
    """tan(phi / 2) for the eigenphases phi in (-pi, pi) of each unitary w.

    An eigenvalue at exactly -1 anywhere in the batch makes I + w singular;
    then every row is returned as infinite, which sends the whole batch to
    the next rotation.
    """
    try:
        q = np.linalg.inv(np.eye(w.shape[-1]) + w)
    except np.linalg.LinAlgError:
        return np.full(w.shape[:2], np.inf)
    return np.linalg.eigvalsh(1j * (q - q.conj().swapaxes(-1, -2)))


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
    # np.mod maps a phase a hair below 0 to exactly 2 pi
    phases = np.mod(phases, TWO_PI)
    phases[phases == TWO_PI] = 0.0
    return phases


# perfbench/workloads.py times the kernel under this name and runs unchanged
# against every commit it compares, so the name stays.
eigenphases_numpy = eigenphases


def vertex_eigenvalues(
    x: np.ndarray, cot_part: np.ndarray, csc_part: np.ndarray, owner: np.ndarray | None = None
) -> np.ndarray:
    """Ascending eigenvalues of the vertex matrices at the edge phases x.

    M = cot(x) @ cot_part + csc(x) @ csc_part, reshaped to V x V.  x: (n, E)
    edge phases k * l_e, none a multiple of pi; cot_part (E, V*V) real and
    csc_part (E, V*V) complex, from `solver.vertex_basis`.  Returns (n, V).

    Graphs with one vertex and edge count share a call: cot_part and
    csc_part then stack their arrays to (G, E, V*V), and owner (n,) names
    the graph of each row.  Each graph's rows, in their order, go through
    the products with that graph's arrays alone, and `eigvalsh` solves
    every matrix on its own, so a row's eigenvalues do not depend on the
    other graphs in the call.
    """
    if owner is None:
        cot_part, csc_part = cot_part[None], csc_part[None]
        owner = np.zeros(len(x), dtype=np.intp)
    csc = 1.0 / np.sin(x)
    cot = np.cos(x) * csc
    m = np.empty((len(x), cot_part.shape[-1]), dtype=np.complex128)
    for g in np.flatnonzero(np.bincount(owner, minlength=len(cot_part))):
        rows = np.flatnonzero(owner == g)
        m[rows] = cot[rows] @ cot_part[g] + csc[rows] @ csc_part[g]
    side = math.isqrt(cot_part.shape[-1])
    return np.linalg.eigvalsh(m.reshape(-1, side, side))
