import numpy as np

from qgraph import kernels
from qgraph.solver import bond_basis, bond_matrix

from conftest import random_k4


def test_eigenphases_match_bond_matrix_reference(rng):
    # the batched kernel against one eigvals call per bond_matrix(g, k)
    for _ in range(10):
        g = random_k4(rng, phase_scale=1.5)
        lengths, chis, smat = bond_basis(g)
        ks = rng.uniform(0.1, 60.0, size=20)
        got = np.sort(kernels.eigenphases(ks, lengths, chis, smat), axis=1)
        want = np.sort(
            [
                np.mod(np.angle(np.linalg.eigvals(bond_matrix(g, float(k)))), 2 * np.pi)
                for k in ks
            ],
            axis=1,
        )
        assert np.abs(got - want).max() < 1e-12


def test_unitarity_of_bond_matrix(rng):
    # 1000 random (graph, k) draws: every singular value of U equals 1
    for _ in range(50):
        g = random_k4(rng, phase_scale=float(rng.uniform(0, 2)))
        for k in rng.uniform(0.1, 60.0, size=20):
            u = bond_matrix(g, float(k))
            sv = np.linalg.svd(u, compute_uv=False)
            assert np.abs(sv - 1.0).max() < 1e-10


def test_norm_preservation_random_vectors(rng):
    g = random_k4(rng, phase_scale=0.7)
    for k in rng.uniform(0.5, 30.0, size=10):
        u = bond_matrix(g, float(k))
        x = rng.normal(size=u.shape[0]) + 1j * rng.normal(size=u.shape[0])
        assert abs(np.linalg.norm(u @ x) - np.linalg.norm(x)) < 1e-12 * np.linalg.norm(x)
