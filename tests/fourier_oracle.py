"""Independent Fourier-grid propagator used only by the tests.

The Fourier grid Hamiltonian of Marston & Balint-Kurti (J. Chem. Phys. 91,
3571 (1989)) on M points z_j = j * period / M of one lattice period, at
q = 0: the kinetic energy is diagonal in the grid's discrete Fourier modes,
4 m^2 E_R for mode exp(2 pi i m j / M), and is applied through numpy's FFT;
the potential is the on-site block U(z_j) of
``reference_hamiltonian.potential_matrix``.  A static run is one ``eigh`` of
the (M (2F+1)) matrix.  Plane-wave coefficients reach the grid by this
module's own DFT.  This shares no code path with ``dwsim.bands``.
"""
from __future__ import annotations

import numpy as np

from dwsim.lattice import LatticeConfig
from reference_hamiltonian import potential_matrix


def grid_hamiltonian(cfg: LatticeConfig, n_points: int) -> np.ndarray:
    """The q=0 Hamiltonian (E_R) on ``n_points`` grid points, index j * (2F+1) + s."""
    dim = cfg.spin.dim
    m = np.fft.fftfreq(n_points, 1.0 / n_points)  # integer mode numbers
    kinetic = np.fft.ifft(4.0 * m[:, None] ** 2 * np.fft.fft(np.eye(n_points), axis=0), axis=0)
    ham = np.kron(kinetic, np.eye(dim)).reshape(n_points, dim, n_points, dim)
    j = np.arange(n_points)
    ham[j, :, j, :] += potential_matrix(cfg, j * cfg.period_m / n_points)
    return ham.reshape(n_points * dim, n_points * dim)


def coefficients_to_grid(cfg: LatticeConfig, coef: np.ndarray, n_points: int) -> np.ndarray:
    """Unit-norm grid vector of the q=0 coefficients c_{n,s}, n = -N..N:
    sum_n c_{n,s} exp(2 pi i n j / M) / sqrt(M), exact while N < M / 2."""
    n = np.arange(-cfg.n_planewaves, cfg.n_planewaves + 1)
    if 2 * cfg.n_planewaves >= n_points:
        raise ValueError(f"{n_points} grid points alias plane waves |n| <= {cfg.n_planewaves}")
    dft = np.exp(2j * np.pi * np.outer(np.arange(n_points), n) / n_points) / np.sqrt(n_points)
    return (dft @ np.asarray(coef).reshape(len(n), cfg.spin.dim)).reshape(-1)


def static_observables(cfg: LatticeConfig, coef_l, coef_r, t_us, n_points: int):
    """p_L, p_R and <F_z> at ``t_us`` of |L> evolved under the grid Hamiltonian of ``cfg``."""
    left, right = (coefficients_to_grid(cfg, c, n_points) for c in (coef_l, coef_r))
    vals, vecs = np.linalg.eigh(grid_hamiltonian(cfg, n_points))
    phases = np.exp(-1j * cfg.species.rad_per_us_per_er() * np.outer(vals, t_us))
    psi_t = vecs @ (phases * (vecs.conj().T @ left)[:, None])  # (M (2F+1), nt)
    m_f = np.tile(cfg.spin.m_values, n_points)
    return (np.abs(left.conj() @ psi_t) ** 2, np.abs(right.conj() @ psi_t) ** 2,
            m_f @ np.abs(psi_t) ** 2)
