"""Independent real-space reference solver used only by the tests.

Discretizes one lattice period on a uniform grid with a second-order
finite-difference kinetic stencil and a Bloch phase across the boundary,
then extracts the lowest eigenpairs of the sparse Hamiltonian by
shift-invert Lanczos.  This shares no code path with the plane-wave
solver under test.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dwsim.lattice import LatticeConfig
from reference_hamiltonian import potential_matrix


def _lowest_eigenpairs(cfg: LatticeConfig, n_points: int, n_states: int, q_over_kl: float, vectors: bool):
    dim = cfg.spin.dim
    period = cfg.period_m
    z = np.arange(n_points) * period / n_points
    h_x = np.pi / n_points  # grid step in units of 1/k_L

    main = np.full(n_points, 2.0 / h_x**2, dtype=complex)
    off = np.full(n_points - 1, -1.0 / h_x**2, dtype=complex)
    kin = sp.diags([main, off, off], [0, 1, -1], format="lil", dtype=complex)
    bloch = np.exp(1j * np.pi * q_over_kl)
    kin[0, n_points - 1] = -bloch.conjugate() / h_x**2
    kin[n_points - 1, 0] = -bloch / h_x**2
    ham = sp.kron(kin.tocsr(), sp.eye(dim, format="csr"), format="csr")

    blocks = [potential_matrix(cfg, zz) for zz in z]
    ham = ham + sp.block_diag(blocks, format="csr")

    # the kinetic part is positive semidefinite, so the lowest pointwise
    # potential eigenvalue bounds the spectrum from below
    sigma = float(np.min(np.linalg.eigvalsh(np.stack(blocks)))) - 5.0
    return spla.eigsh(ham.tocsc(), k=n_states, sigma=sigma, which="LM", return_eigenvectors=vectors)


def reference_energies(
    cfg: LatticeConfig,
    n_points: int = 2048,
    n_states: int = 6,
    q_over_kl: float = 0.0,
) -> np.ndarray:
    """Lowest eigenvalues (E_R) of the real-space Hamiltonian at one q."""
    vals = _lowest_eigenpairs(cfg, n_points, n_states, q_over_kl, vectors=False)
    return np.sort(np.real(vals))


def reference_states(
    cfg: LatticeConfig,
    n_points: int = 2048,
    n_states: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest q=0 eigenpairs of the real-space Hamiltonian.

    Returns the ascending energies (E_R) and the spinor wavefunctions,
    shape (n_points, 2F+1, n_states), sampled at z_j = j * period /
    n_points and normalized to one over the period.  Each state's global
    phase makes its largest-magnitude entry real positive; the q=0
    Hamiltonian is real, so a non-degenerate state is then real.
    """
    vals, vecs = _lowest_eigenpairs(cfg, n_points, n_states, 0.0, vectors=True)
    order = np.argsort(np.real(vals))
    vals, vecs = np.real(vals[order]), vecs[:, order]
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n_states)]
    vecs = vecs * (np.abs(peak) / peak)
    dz = cfg.period_m / n_points
    psi = vecs.reshape(n_points, cfg.spin.dim, n_states) / np.sqrt(dz)
    return vals, psi
