"""Reference functions used only by the tests: the potential matrix U(z)
and the dense plane-wave Bloch Hamiltonian.

The Bloch Hamiltonian is written as Kronecker products of plane-wave
matrices and spin matrices, straight from the Fourier series of U(z), so
it shares no code with ``dwsim.bands._bloch_matrix``, which it checks.
Basis: index p * (2F+1) + s is plane wave exp(i (q + 2 n k_L) z),
n = p - N, with spin m_F = s - F.
"""
from __future__ import annotations

import numpy as np

from dwsim.lattice import LatticeConfig, fictitious_zeeman_er, potential_coefficients, scalar_potential_er


def potential_matrix(cfg: LatticeConfig, z_m: np.ndarray | float) -> np.ndarray:
    """Hermitian potential matrix U(z) in E_R: (2F+1)x(2F+1) for a scalar
    z, stacked to shape (len(z), 2F+1, 2F+1) for an array of positions."""
    ops, species = cfg.spin, cfg.species
    u_j = np.asarray(scalar_potential_er(cfg, z_m))[..., None, None]
    b_z = np.asarray(fictitious_zeeman_er(cfg, z_m) + species.mg_to_er(cfg.bz_mg))[..., None, None]
    mat = u_j * np.eye(ops.dim) + b_z * ops.fz + species.mg_to_er(cfg.bx_mg) * ops.fx
    return mat.astype(complex)


def assemble_bloch_hamiltonian(cfg: LatticeConfig, q_over_kl: float) -> np.ndarray:
    """Full complex Bloch Hamiltonian at quasimomentum q (units of k_L), in E_R.

    H = kinetic (q + 2n)^2 + offset, plus the uniform Zeeman term in every
    plane wave, plus the e^{+2 i k_L z} Fourier weight of U(z) from plane
    wave n to n + 1 and its adjoint from n + 1 to n.  The spatial factor
    cos(2 k_L z) has weight 1/2 and sin(2 k_L z) 1/(2i); the scalar term of
    ``potential_coefficients`` is given as its weight already.
    """
    offset, scalar, fictitious = potential_coefficients(cfg)
    ops, species = cfg.spin, cfg.species
    n = np.arange(-cfg.n_planewaves, cfg.n_planewaves + 1)
    spatial = 0.5 if cfg.fictitious_phase == "paper_cos" else 0.5 / 1j
    raising = scalar * np.eye(ops.dim) + spatial * fictitious * ops.fz
    zeeman = species.mg_to_er(cfg.bx_mg) * ops.fx + species.mg_to_er(cfg.bz_mg) * ops.fz
    return (
        np.kron(np.diag((q_over_kl + 2.0 * n) ** 2 + offset), np.eye(ops.dim))
        + np.kron(np.eye(len(n)), zeeman)
        + np.kron(np.eye(len(n), k=-1), raising)
        + np.kron(np.eye(len(n), k=1), raising.conj().T)
    ).astype(complex)
