import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dwsim import LatticeConfig, bands, cesium_f4, solve_bands, wannier_doublet
from dwsim.bands import (
    CERTIFY_EXTRA_PLANEWAVES,
    CERTIFY_RTOL,
    GAP_ROUNDING_ER,
    _band_energies,
    _bloch_matrix,
    _edge_pairs,
    _fix_phase,
    _spin_basis,
    _spin_blocks,
    bloch_to_zgrid,
    localized_doublet,
    q0_sectors,
    q_grid,
    solve_q0,
)
from dwsim.errors import ConvergenceError
from dwsim.lattice import FICTITIOUS_PHASES
from reference_hamiltonian import assemble_bloch_hamiltonian, potential_matrix
from two_level import two_level_model


def test_theta_zero_block_diagonal():
    cfg = LatticeConfig(theta_deg=0.0, bx_mg=5.0, n_planewaves=8)
    # with B_x only on the diagonal-in-n Fx term, spin blocks still mix;
    # kill the fields entirely for the decoupling check
    ham = assemble_bloch_hamiltonian(cfg.replace(bx_mg=5.0, bz_mg=0.0), 0.3)
    # off-diagonal-in-n blocks must be diagonal in spin for theta = 0
    dim = 9
    blk = ham[dim : 2 * dim, 0:dim]
    np.testing.assert_allclose(blk, np.diag(np.diag(blk)), atol=1e-14)


def test_free_particle_limit():
    cfg = LatticeConfig(u1_er=1e-12, theta_deg=80.0, bx_mg=1e-12, n_planewaves=8)
    q = 0.37
    vals = np.linalg.eigvalsh(assemble_bloch_hamiltonian(cfg, q))
    n = np.arange(-8, 9)
    expected = np.sort(np.repeat((q + 2 * n) ** 2, 9))
    np.testing.assert_allclose(vals, expected[: len(vals)], atol=1e-8)


def test_hermiticity(cfg):
    ham = assemble_bloch_hamiltonian(cfg, 0.21)
    assert np.max(np.abs(ham - ham.conj().T)) < 1e-14


def test_dimension_guard():
    # the q=0 solve and the Bloch matrix refuse a basis above MAX_DIMENSION
    # before allocating it
    cfg = LatticeConfig(n_planewaves=600)
    with pytest.raises(ValueError):
        solve_q0(cfg)
    with pytest.raises(ValueError):
        _bloch_matrix(cfg, *_spin_blocks(cfg), 0.0, cfg.n_planewaves)


def test_theta_zero_degeneracy_and_harmonic_gap():
    cfg = LatticeConfig(u1_er=84.0, theta_deg=0.0, bx_mg=1e-9, n_planewaves=12, n_q=9)
    sol = solve_bands(cfg, n_bands=18)
    # every scalar band appears (2F+1)-fold degenerate
    for k in range(len(sol.q_over_kl)):
        grp0 = sol.energies[k, 0:9]
        grp1 = sol.energies[k, 9:18]
        assert grp0.max() - grp0.min() < 1e-8
        assert grp1.max() - grp1.min() < 1e-8
    # centroid gap vs harmonic estimate 2 sqrt(V0 E_R), V0 = 8 U1 / 3
    centroid0 = sol.energies[:, 0:9].mean()
    centroid1 = sol.energies[:, 9:18].mean()
    harmonic = 2.0 * math.sqrt(8.0 * 84.0 / 3.0)
    assert abs((centroid1 - centroid0) - harmonic) / harmonic < 0.10


def test_certification_spots_truncation():
    # an extremely deep lattice overwhelms the minimal basis
    cfg = LatticeConfig(u1_er=2000.0, theta_deg=80.0, bx_mg=85.0, n_planewaves=8, n_q=1)
    with pytest.raises(ConvergenceError):
        solve_bands(cfg, n_bands=6)


def test_certification_spots_unconverged_doublet_gap():
    # At U_1 = 800 E_R, theta = 60 deg, B_x = 300 mG with N = 8 the energies
    # drift by 1.1e-4 relative, inside the tolerance, while the doublet gap
    # (2.7 E_R) drifts by 3.7e-3: only the gap check sees the truncation.
    cfg = LatticeConfig(u1_er=800.0, theta_deg=60.0, bx_mg=300.0, n_planewaves=8, n_q=1)
    solve_bands(cfg, n_bands=1)
    with pytest.raises(ConvergenceError, match=r"doublet gap not converged: N=8 gives .* E_R, N=16 gives .* E_R"):
        solve_bands(cfg, n_bands=2)


def test_certification_keeps_its_tolerance_at_the_edge():
    # For F = 1/2 at U_1 = 400 E_R, theta = 45 deg, B_x = 50 mG with N = 8 the
    # gap drifts by 3e-5 and the energies by at most 2.4e-4 through band 4,
    # which the N vs N+8 comparison accepts; band 5 drifts by 1.39e-3, just
    # over the tolerance, and the comparison reports it.
    cfg = LatticeConfig(
        u1_er=400.0, theta_deg=45.0, bx_mg=50.0, n_planewaves=8, n_q=1, species=dataclasses.replace(cesium_f4(), f=0.5)
    )
    solve_bands(cfg, n_bands=4)
    with pytest.raises(ConvergenceError, match=r"band 5: N=8 gives 286.271933 E_R, N=16 gives 285.875139 E_R"):
        solve_bands(cfg, n_bands=5)


def test_variational_monotonicity(cfg):
    energies = []
    for n_pw in (10, 14, 18):
        c = cfg.replace(n_planewaves=n_pw, n_q=1)
        energies.append(_band_energies(c, q_grid(c), 4)[0])
    for smaller, larger in zip(energies[1:], energies[:-1]):
        assert np.all(smaller <= larger + 1e-10)


def test_eigenresidual_and_orthonormality(cfg):
    # every eigenpair, since propagate_static expands in the whole basis;
    # B_z = 0 takes the two parity blocks, -100 mG the realified block
    for field_cfg in (cfg, cfg.replace(bz_mg=-100.0)):
        vals, vecs = solve_q0(field_cfg)
        ham = assemble_bloch_hamiltonian(field_cfg, 0.0)
        scale = np.linalg.norm(ham)
        for b in range(len(vals)):
            vec = vecs[:, b]
            resid = np.linalg.norm(ham @ vec - vals[b] * vec)
            assert resid <= 1e-10 * scale
        gram = vecs.conj().T @ vecs
        np.testing.assert_allclose(gram, np.eye(len(vals)), atol=1e-10)


@pytest.mark.parametrize("u1", [84.0, 120.0, 300.0])
def test_doublet_states_in_opposite_parity_sectors(u1):
    # (n, m_F) -> (-n, -m_F) commutes with H(0) under quadrature_sin at
    # B_z = 0; |S> and |A> are each the ground state of one sector.
    cfg = LatticeConfig(u1_er=u1, theta_deg=80.0, bx_mg=85.0, n_planewaves=12)
    _, vecs = solve_q0(cfg)
    mirror = vecs[:, :2].reshape(2 * cfg.n_planewaves + 1, cfg.spin.dim, 2)[::-1, ::-1].reshape(-1, 2)
    parity = np.einsum("ij,ij->j", vecs[:, :2].conj(), mirror).real
    np.testing.assert_allclose(np.abs(parity), 1.0, rtol=0, atol=1e-10)
    assert parity[0] == pytest.approx(-parity[1], abs=1e-10)


def test_zgrid_folds_planewaves_beyond_the_grid():
    # with 2N+1 > z_points the grid values are still the sampled Fourier sum
    cfg = LatticeConfig(n_planewaves=32, z_points=64)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((65, cfg.spin.dim)) + 1j * rng.standard_normal((65, cfg.spin.dim))
    j, n = np.arange(64), np.arange(-32, 33)
    direct = np.exp(2j * np.pi * np.outer(j, n) / 64) @ coeffs / np.sqrt(cfg.period_m)
    np.testing.assert_allclose(bloch_to_zgrid(cfg, coeffs.reshape(-1)), direct, rtol=1e-12, atol=0)


def test_parseval(cfg, doublet):
    assert np.linalg.norm(doublet.coef_s) == pytest.approx(1.0, abs=1e-10)
    dz = cfg.period_m / len(doublet.z_m)
    norm_z = np.sum(np.abs(doublet.psi_s) ** 2) * dz
    assert norm_z == pytest.approx(1.0, abs=1e-8)


def test_zgrid_round_trip(cfg, doublet):
    # the FFT of the grid wavefunction recovers the plane-wave coefficients
    n_idx = np.arange(-cfg.n_planewaves, cfg.n_planewaves + 1)
    back = np.fft.fft(doublet.psi_l, axis=0)[n_idx] * np.sqrt(cfg.period_m) / len(doublet.z_m)
    np.testing.assert_allclose(back.reshape(-1), doublet.coef_l, atol=1e-10)


def test_doublet_splitting_basics(cfg):
    sol = solve_bands(cfg, n_bands=2)
    assert sol.epsilon_hz >= 0
    assert sol.epsilon_hz == cfg.species.er_to_hz(np.mean(sol.energies[:, 1] - sol.energies[:, 0]))
    assert sol.flatness[:2].max() <= bands.FLATNESS_WARN
    assert sol.epsilon_hz == pytest.approx(3517.0, rel=2e-3)


def test_splitting_even_in_bz(cfg):
    plus = solve_bands(cfg.replace(bz_mg=10.0), 2)
    minus = solve_bands(cfg.replace(bz_mg=-10.0), 2)
    assert abs(plus.epsilon_hz - minus.epsilon_hz) / plus.epsilon_hz < 1e-6


def test_splitting_monotone_in_bx(cfg):
    eps = []
    for bx in (40.0, 70.0, 100.0, 125.0, 150.0):
        sol = solve_bands(cfg.replace(bx_mg=bx, n_q=3), 2)
        eps.append(sol.epsilon_hz)
    assert all(a < b for a, b in zip(eps, eps[1:]))


def test_flatness_warning_for_shallow_lattice(caplog):
    cfg = LatticeConfig(u1_er=11.0, theta_deg=80.0, bx_mg=10.0, n_planewaves=10, n_q=9)
    with caplog.at_level(logging.WARNING, logger="dwsim"):
        solve_bands(cfg, 2)
    assert "two-level reduction dubious" in caplog.text


def test_fix_phase_anchors_the_largest_component_or_keeps_the_phase(caplog):
    psi = np.zeros((4, 3), dtype=complex)
    psi[0] = [0.0, 2.0, 0.0]
    psi[2] = [0.1, -0.5j, 0.3]
    # the largest component at the anchor becomes real positive
    assert psi[2, 1] * _fix_phase(psi, 2) == pytest.approx(0.5, abs=1e-15)
    # below the floor (relative to the whole state) or with a NaN in the
    # state, the phase is left as it is, and the log says so
    psi[2] = [1e-7, -1e-7j, 0.0]
    for state in (psi, np.where(np.arange(3) == 0, np.nan, psi)):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="dwsim"):
            assert _fix_phase(state, 2) == 1.0
        assert "below phase-fix floor" in caplog.text


def test_wannier_geometry(cfg, doublet):
    sep = doublet.centroid_r_nm - doublet.centroid_l_nm
    assert 105.0 <= sep <= 195.0
    assert doublet.centroid_l_nm < doublet.centroid_r_nm
    # orthogonality by construction
    assert abs(np.vdot(doublet.coef_l, doublet.coef_r)) < 1e-10
    np.testing.assert_allclose(
        doublet.coef_l, (doublet.coef_s + doublet.coef_a) / np.sqrt(2), atol=1e-14
    )


def test_wannier_flatness_guard():
    shallow = LatticeConfig(u1_er=11.0, theta_deg=80.0, bx_mg=10.0, n_planewaves=10)
    with pytest.raises(ValueError):
        wannier_doublet(shallow)


@pytest.mark.parametrize("phase", FICTITIOUS_PHASES)
def test_wannier_doublet_is_the_guarded_localized_doublet(cfg, phase):
    # past its guard, wannier_doublet is localized_doublet of the q = 0 solve, field for field
    cfg = cfg.replace(fictitious_phase=phase)
    got, ref = wannier_doublet(cfg), localized_doublet(cfg, *solve_q0(cfg, 2))
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b, field.name


def test_barrier_margin(caplog):
    # barrier - E_A from the q=0 solve: |A> straddles the barrier at the
    # canonical point and lies well below it at U_1 = 120 E_R
    cfg = LatticeConfig(u1_er=84.0, theta_deg=80.0, bx_mg=85.0, n_planewaves=12, n_q=9, z_points=512)
    with caplog.at_level(logging.WARNING, logger="dwsim"):
        assert wannier_doublet(cfg).barrier_margin_er == pytest.approx(-1.33, abs=0.005)
    assert "above the intra-well barrier" in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="dwsim"):
        assert wannier_doublet(cfg.replace(u1_er=120.0)).barrier_margin_er == pytest.approx(7.03, abs=0.005)
    assert not caplog.records


def test_localized_observables_left_state(cfg, doublet):
    dz = cfg.period_m / len(doublet.z_m)
    pop_l, pop_r = (np.sum(np.abs(psi) ** 2, axis=0) * dz for psi in (doublet.psi_l, doublet.psi_r))
    assert abs(np.sum(pop_l) - 1.0) < 1e-10
    assert abs(np.sum(pop_r) - 1.0) < 1e-10
    assert np.sum(cfg.spin.m_values * pop_l) > 0.0  # <F_z>_L
    # mirror symmetry of magnetic populations at B_z = 0
    np.testing.assert_allclose(pop_l, pop_r[::-1], atol=0.01)


def test_two_level_model(cfg):
    sym = two_level_model(cfg)
    assert sym.delta_hz == 0.0
    assert sym.omega_hz == pytest.approx(sym.epsilon_hz, rel=1e-10)
    tilted = two_level_model(cfg.replace(bz_mg=10.0))
    assert tilted.omega_hz >= tilted.epsilon_hz
    assert tilted.delta_hz > 0
    down = two_level_model(cfg.replace(bz_mg=-10.0))
    assert down.delta_hz == pytest.approx(-tilted.delta_hz, rel=1e-6)
    assert down.omega_hz == pytest.approx(tilted.omega_hz, rel=1e-6)


def test_delta_locally_linear(cfg, doublet):
    # first-order perturbation oracle: slope = (<R|Fz|R> - <L|Fz|L>) * zeeman/mG
    species = cfg.species
    fz = np.tile(np.arange(-4.0, 5.0), 2 * cfg.n_planewaves + 1)
    zl = float(np.sum(fz * np.abs(doublet.coef_l) ** 2))
    zr = float(np.sum(fz * np.abs(doublet.coef_r) ** 2))
    slope_oracle = abs(zr - zl) * species.er_to_hz(species.mg_to_er(1.0))
    bzs = np.array([-5.0, -2.5, 2.5, 5.0])
    deltas = np.array([two_level_model(cfg.replace(bz_mg=b)).delta_hz for b in bzs])
    coeffs = np.polyfit(bzs, deltas, 1)
    fitted = np.polyval(coeffs, bzs)
    ss_res = np.sum((deltas - fitted) ** 2)
    ss_tot = np.sum((deltas - deltas.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot > 0.999
    assert abs(coeffs[0]) == pytest.approx(slope_oracle, rel=0.05)


def test_bloch_hamiltonian_linear_in_fields(cfg):
    # the fields enter only through the on-site Zeeman block of every plane wave
    fields = assemble_bloch_hamiltonian(cfg.replace(bx_mg=37.0, bz_mg=-11.0), 0.0)
    bare = assemble_bloch_hamiltonian(cfg.replace(bx_mg=0.0, bz_mg=0.0), 0.0)
    zeeman = cfg.species.zeeman_er_per_mg() * (37.0 * cfg.spin.fx - 11.0 * cfg.spin.fz)
    expected = np.kron(np.eye(2 * cfg.n_planewaves + 1), zeeman)
    np.testing.assert_allclose(fields - bare, expected, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    u1=st.floats(10.0, 300.0),
    theta=st.floats(45.0, 90.0),
    bx=st.floats(5.0, 300.0),
    bz=st.floats(-100.0, 100.0),
    phase=st.sampled_from(FICTITIOUS_PHASES),
    n_pw=st.integers(8, 11),
)
def test_bloch_blocks_are_fourier_coefficients_of_potential(u1, theta, bx, bz, phase, n_pw):
    # The plane-wave Hamiltonian and the real-space U(z) are two codings
    # of one potential: block (p, p') of H(q=0) minus its kinetic diagonal
    # is the Fourier coefficient U_{p-p'} of U(z) over one period.
    cfg = LatticeConfig(
        u1_er=u1, theta_deg=theta, bx_mg=bx, bz_mg=bz, fictitious_phase=phase, n_planewaves=n_pw, n_q=1
    )
    dim = cfg.spin.dim
    n = 2 * n_pw + 1
    kinetic = np.repeat((2.0 * np.arange(-n_pw, n_pw + 1)) ** 2, dim)
    blocks = (assemble_bloch_hamiltonian(cfg, 0.0) - np.diag(kinetic)).reshape(n, dim, n, dim)
    n_z = 16
    coeffs = np.fft.fft(potential_matrix(cfg, np.arange(n_z) * (cfg.period_m / n_z)), axis=0) / n_z
    tol = 1e-12 * np.abs(coeffs).max()
    assert np.abs(coeffs[2:-1]).max() <= tol  # U(z) has no harmonic beyond the first
    for p in range(n):
        for pp in range(n):
            expected = coeffs[p - pp] if abs(p - pp) <= 1 else 0.0
            assert np.abs(blocks[p, :, pp, :] - expected).max() <= tol, (p, pp)


BOX = dict(
    u1=st.floats(10.0, 300.0),
    theta=st.floats(45.0, 90.0),
    bx=st.floats(5.0, 300.0),
    bz=st.one_of(st.just(0.0), st.floats(-100.0, 100.0)),
    phase=st.sampled_from(FICTITIOUS_PHASES),
    n_pw=st.integers(8, 11),
    f=st.sampled_from((0.5, 1.5, 3.0, 4.0)),
)


def _box_cfg(u1, theta, bx, bz, phase, n_pw, f, n_q=1):
    return LatticeConfig(
        u1_er=u1,
        theta_deg=theta,
        bx_mg=bx,
        bz_mg=bz,
        fictitious_phase=phase,
        n_planewaves=n_pw,
        n_q=n_q,
        species=dataclasses.replace(cesium_f4(), f=f),
    )


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(q=st.floats(-1.0, 1.0), **BOX)
def test_real_form_energies_equal_complex_solve(q, u1, theta, bx, bz, phase, n_pw, f):
    # quadrature_sin at B_z = 0 and paper_cos at any B_z are solved as real
    # symmetric matrices, for integer and half-integer F; every eigenvalue
    # equals the complex one.
    cfg = _box_cfg(u1, theta, bx, bz if phase == "paper_cos" else 0.0, phase, n_pw, f)
    onsite, raising = _spin_blocks(cfg)
    assert onsite.dtype == raising.dtype == np.float64
    dim = (2 * n_pw + 1) * cfg.spin.dim
    real = _band_energies(cfg, [q], dim)[0]
    np.testing.assert_allclose(real, np.linalg.eigvalsh(assemble_bloch_hamiltonian(cfg, q)), rtol=0, atol=1e-9)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(q=st.floats(-1.0, 1.0), **BOX)
def test_spectrum_even_in_q(q, u1, theta, bx, bz, phase, n_pw, f):
    cfg = _box_cfg(u1, theta, bx, bz, phase, n_pw, f)
    plus = np.linalg.eigvalsh(assemble_bloch_hamiltonian(cfg, q))
    minus = np.linalg.eigvalsh(assemble_bloch_hamiltonian(cfg, -q))
    np.testing.assert_allclose(plus, minus, rtol=0, atol=1e-9)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n_q=st.integers(1, 7), **BOX)
def test_solve_bands_matches_unpaired_complex_solve(n_q, u1, theta, bx, bz, phase, n_pw, f):
    # The path is chosen from the config: complex exactly under
    # quadrature_sin at B_z != 0.  Either way, the N-basis energies that
    # solve_bands pairs over +-q equal a complex solve at every grid point.
    cfg = _box_cfg(u1, theta, bx, bz, phase, n_pw, f, n_q)
    complex_path = phase == "quadrature_sin" and bz != 0.0
    assert np.iscomplexobj(_spin_blocks(cfg)[1]) == complex_path
    direct = [np.linalg.eigvalsh(assemble_bloch_hamiltonian(cfg, q))[:6] for q in q_grid(cfg)]
    np.testing.assert_allclose(_band_energies(cfg, q_grid(cfg), 6), direct, rtol=0, atol=1e-9)


def test_certified_solve_makes_no_enlarged_basis_eigensolve(cfg, monkeypatch, eigensolves):
    # The residual path certifies the canonical point at N_s = N = 12: the
    # N_s = 8 probe (D = 153) fails, the N_s = 12 probe is the node q = -1 of
    # five at D = 225, and one stack projects the 7 solved q of 13 grid points
    # on 5 x 12 node vectors.  Nothing is solved above D = 225.
    odd = cfg.replace(n_q=13)
    sol = solve_bands(odd, n_bands=6)
    monkeypatch.undo()
    dim = (2 * cfg.n_planewaves + 1) * cfg.spin.dim
    assert dict(eigensolves) == {("eigh", (153, 153), "f"): 1, ("eigh", (dim, dim), "f"): 5, ("eigh", (7, 60, 60), "f"): 1}
    assert sol.n_planewaves_solved == cfg.n_planewaves
    direct = [np.linalg.eigvalsh(assemble_bloch_hamiltonian(odd, q))[:6] for q in q_grid(odd)]
    np.testing.assert_allclose(sol.energies, direct, rtol=0, atol=1e-9)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(q=st.floats(-1.0, 1.0), **BOX)
@example(q=0.3, u1=84.0, theta=80.0, bx=85.0, bz=0.0, phase="quadrature_sin", n_pw=8, f=4.0)
@example(q=0.3, u1=84.0, theta=80.0, bx=85.0, bz=10.0, phase="quadrature_sin", n_pw=8, f=4.0)
def test_edge_residual_is_the_residual_in_a_larger_basis(q, u1, theta, bx, bz, phase, n_pw, f):
    # Zero-padded to n_pw + 1 plane waves per side, each Ritz vector's residual
    # under the dense m_F-basis H lies on the new plane waves, where its norm is
    # the edge residual; the rows inside are eigensolver rounding.  Real forms
    # are mapped back to m_F by the spin basis, complex ones are in it already.
    cfg = _box_cfg(u1, theta, bx, bz, phase, n_pw, f)
    blocks, d = _spin_blocks(cfg), cfg.spin.dim
    theta_k, r = _edge_pairs(cfg, blocks, [q], n_pw, 6)
    v = np.linalg.eigh(_bloch_matrix(cfg, *blocks, q, n_pw))[1][:, :6]
    u = np.eye(d) if np.iscomplexobj(blocks[1]) else _spin_basis(cfg)[0]
    big = assemble_bloch_hamiltonian(cfg.replace(n_planewaves=n_pw + 1), q)
    padded = np.zeros((len(big), 6), dtype=complex)
    padded[d:-d] = np.kron(np.eye(2 * n_pw + 1), u) @ v
    residual = big @ padded - padded * theta_k[0]
    np.testing.assert_allclose(np.linalg.norm(np.r_[residual[:d], residual[-d:]], axis=0), r[0], rtol=1e-12, atol=0)
    assert np.linalg.norm(residual[d:-d], axis=0).max() <= 1e-12 * np.linalg.norm(big, 2)


@pytest.mark.parametrize("u1", [84.0, 120.0])
def test_default_basis_is_certified_by_a_smaller_basis(u1, caplog):
    # At the default N = 24 the edge residuals of N_s <= 16 plane waves per side
    # certify the energies, which then equal the N-basis ones to rounding; the
    # N vs N+8 comparison of the N-basis levels over the grid stays the oracle.
    cfg = LatticeConfig(u1_er=u1, theta_deg=80.0, bx_mg=85.0)
    big_n = cfg.n_planewaves + CERTIFY_EXTRA_PLANEWAVES
    plain = _band_energies(cfg, q_grid(cfg), 6)
    ref = _band_energies(cfg.replace(n_planewaves=big_n), q_grid(cfg), 6)
    assert np.all(np.abs(plain - ref) <= CERTIFY_RTOL * np.abs(ref))
    plain_gap, ref_gap = (np.mean(e[:, 1] - e[:, 0]) for e in (plain, ref))
    assert abs(plain_gap - ref_gap) <= CERTIFY_RTOL * abs(ref_gap) + GAP_ROUNDING_ER
    for n_bands in (2, 6):
        with caplog.at_level(logging.INFO, logger="dwsim"):
            sol = solve_bands(cfg, n_bands=n_bands)
        assert sol.n_planewaves_solved <= cfg.n_planewaves - CERTIFY_EXTRA_PLANEWAVES
        assert sol.edge_residual_er <= 1e-6
        assert f"bands: {sol.n_planewaves_solved} plane waves per side" in caplog.text
        np.testing.assert_allclose(sol.energies, plain[:, :n_bands], rtol=0, atol=1e-10)


def test_deep_default_basis_point_is_certified_by_its_residual():
    # At U_1 = 300 E_R, B_x = 40 mG the doublet gap is 1.1e-6 E_R, which caps
    # ||r_0|| + ||r_1|| at 1.1e-12 E_R + GAP_ROUNDING_ER; a basis of N_s <= N
    # meets that, and its gap is the N-basis one within the residuals.
    cfg = LatticeConfig(u1_er=300.0, theta_deg=80.0, bx_mg=40.0)
    sol = solve_bands(cfg, 2)
    assert sol.n_planewaves_solved <= cfg.n_planewaves
    assert sol.edge_residual_er <= 1e-6
    plain = _band_energies(cfg, q_grid(cfg), 2)
    plain_gap = np.mean(plain[:, 1] - plain[:, 0])
    assert abs(np.mean(sol.energies[:, 1] - sol.energies[:, 0]) - plain_gap) <= 2.0 * sol.edge_residual_er + GAP_ROUNDING_ER


def test_residual_path_skips_a_basis_smaller_than_n_bands():
    # For F = 1/2 at N = 16 the probe N_s = 8 holds 34 levels and is skipped,
    # and N_s = 12 does not certify: 40 bands are solved and certified in the
    # N basis.
    cfg = LatticeConfig(
        u1_er=20.0, theta_deg=80.0, bx_mg=85.0, n_planewaves=16, n_q=1, species=dataclasses.replace(cesium_f4(), f=0.5)
    )
    sol = solve_bands(cfg, n_bands=40)
    assert sol.energies.shape == (1, 40) and sol.n_planewaves_solved == 16


def _exact_per_q_solve(cfg, n_bands):
    """solve_bands with every q of the residual path solved by its own eigh: a grid of
    no more q than the first node count never takes the continuation."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bands, "CONTINUATION_NODES", (cfg.n_q,))
        return solve_bands(cfg, n_bands=n_bands)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n_bands=st.sampled_from((2, 6)), **BOX)
# eps = 0.050 E_R caps ||r_0|| + ||r_1|| at 5.0e-8 E_R, which 5 nodes miss (4.6e-7): the nodes refine
@example(n_bands=2, u1=84.0, theta=80.0, bx=40.0, bz=0.0, phase="quadrature_sin", n_pw=8, f=4.0)
def test_continuation_in_q_matches_the_exact_path(n_bands, u1, theta, bx, bz, phase, n_pw, f):
    # At N = n_pw + 16 = 24..27 plane waves per side the residual path probes
    # N_s = 8, 12 and 16.  The continuation's Ritz pairs certify the same N_s
    # as one eigh per q, with the same energies, and their residuals bound the
    # eigenpairs' edge residuals up to the rounding of either eigensolver's
    # vectors (~eps ||H||).
    cfg = _box_cfg(u1, theta, bx, bz, phase, n_pw + 16, f, n_q=33)
    sol, exact = solve_bands(cfg, n_bands=n_bands), _exact_per_q_solve(cfg, n_bands)
    assert sol.n_planewaves_solved == exact.n_planewaves_solved
    np.testing.assert_allclose(sol.energies, exact.energies, rtol=0, atol=1e-10)
    assert np.isnan(sol.edge_residual_er) == np.isnan(exact.edge_residual_er)
    assert not sol.edge_residual_er < exact.edge_residual_er - 1e-12


def test_failed_continuation_falls_back_to_the_exact_path(monkeypatch, caplog):
    # With every Ritz residual infinite, each q is solved by its own eigh at the
    # probe's N_s: the solution is the exact path's, bit for bit.
    cfg = LatticeConfig(u1_er=84.0, theta_deg=80.0, bx_mg=85.0)
    exact = _exact_per_q_solve(cfg, 2)
    continuation = bands.ritz_continuation

    def failing_continuation(*args, **kwargs):
        sectors, n_nodes = continuation(*args, **kwargs)
        return [(theta, ritz, np.full_like(r, np.inf)) for theta, ritz, r in sectors], n_nodes

    monkeypatch.setattr(bands, "ritz_continuation", failing_continuation)
    with caplog.at_level(logging.INFO, logger="dwsim"):
        sol = solve_bands(cfg, n_bands=2)
    assert "5 continuation nodes, 17 q solved exactly" in caplog.text
    assert (sol.n_planewaves_solved, sol.edge_residual_er) == (exact.n_planewaves_solved, exact.edge_residual_er)
    np.testing.assert_array_equal(sol.energies, exact.energies)
    assert sol.epsilon_hz == exact.epsilon_hz


def test_diagonal_slope_is_its_matrix_and_dense_slopes_stay_matrices(monkeypatch):
    # The q-slope H(q) - q^2 - H(0) = q diag(s), passed as s, gives the Ritz pairs of
    # np.diag(s): each node matrix is H(0) + node diag(s) bit for bit, never s broadcast
    # over rows.  The ensemble's dense dU_1 slopes still enter as a + node b.
    cfg = LatticeConfig(u1_er=84.0, theta_deg=80.0, bx_mg=85.0)
    n, blocks = cfg.n_planewaves, _spin_blocks(cfg)
    h0 = _bloch_matrix(cfg, *blocks, 0.0, n)
    s = np.repeat(4.0 * np.arange(-n, n + 1), len(blocks[0]))
    qs = q_grid(cfg)[: cfg.n_q // 2 + 1]
    solved, eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):  # keeps the node matrices, not the projected stacks
        if np.ndim(a) == 2:
            solved.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    runs = []
    for slope in (s, np.diag(s)):
        solved.clear()
        (sector,), n_nodes = bands.ritz_continuation([h0], [slope], qs, (5,), 12, 2, lambda _: np.zeros(len(qs), bool))
        runs.append((sector, list(solved)))
    ((theta, _, residual), nodes), ((theta_m, _, residual_m), nodes_m) = runs
    assert n_nodes == len(nodes) == len(nodes_m) == 5
    for h, h_m in zip(nodes, nodes_m):
        np.testing.assert_array_equal(h, h_m)
    np.testing.assert_allclose(theta, theta_m, rtol=0, atol=1e-12)
    np.testing.assert_allclose(residual, residual_m, rtol=0, atol=1e-12)

    form, du1 = q0_sectors(cfg), q0_sectors(cfg, du1=True)
    assert all(np.count_nonzero(b - np.diag(np.diag(b))) for b in du1.matrices)
    x = np.linspace(-8.0, 8.0, 5)
    solved.clear()
    bands.ritz_continuation(form.matrices, du1.matrices, x, (2,), 3, 2, lambda _: np.zeros(len(x), bool))
    expected = [a + node * b for node in (x.min(), x.max()) for a, b in zip(form.matrices, du1.matrices)]
    assert len(solved) == len(expected)
    assert all(any(np.array_equal(h, e) for e in expected) for h in solved)


def test_default_basis_band_solve_makes_its_known_eigensolves(eigensolves):
    # The probes at N_s = 8 (D = 153) and 12 (D = 225), the latter also the node
    # q = -1, four more nodes at D = 225 and one stack of the 17 solved q projected
    # on 5 x 12 node vectors; no eigh per q.
    solve_bands(LatticeConfig(u1_er=84.0, theta_deg=80.0, bx_mg=85.0), n_bands=2)
    assert dict(eigensolves) == {
        ("eigh", (153, 153), "f"): 1,
        ("eigh", (225, 225), "f"): 5,
        ("eigh", (17, 60, 60), "f"): 1,
    }


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**BOX)
def test_solve_q0_is_an_eigendecomposition_of_h0(u1, theta, bx, bz, phase, n_pw, f):
    # Two real parity blocks where the spin blocks are real, elsewhere the
    # conjugation-times-(n -> -n) block of the realified spin blocks: either
    # way every eigenpair is one of H(0).
    cfg = _box_cfg(u1, theta, bx, bz, phase, n_pw, f)
    ham = assemble_bloch_hamiltonian(cfg, 0.0)
    vals, vecs = solve_q0(cfg)
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(ham), rtol=0, atol=1e-9)
    assert np.linalg.norm(ham @ vecs - vecs * vals) <= 1e-10 * np.linalg.norm(ham)
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(len(vals)), rtol=0, atol=1e-10)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(u1_other=st.floats(10.0, 300.0), n_vectors=st.integers(1, 4), **BOX)
def test_q0_sectors_are_affine_in_u1(u1_other, n_vectors, u1, theta, bx, bz, phase, n_pw, f):
    # H(0) = H(0)|_U1 + (U1' - U1) dH(0)/dU1 sector by sector, and asking
    # solve_q0 for its lowest columns maps those columns alone.
    cfg = _box_cfg(u1, theta, bx, bz, phase, n_pw, f)
    here, slope, there = q0_sectors(cfg), q0_sectors(cfg, du1=True), q0_sectors(cfg.replace(u1_er=u1_other))
    assert here.sigmas == slope.sigmas == there.sigmas
    for h, b, g in zip(here.matrices, slope.matrices, there.matrices):
        assert np.abs(h + (u1_other - u1) * b - g).max() <= 1e-12 * np.abs(g).max()
    vals, vecs = solve_q0(cfg)
    low_vals, low_vecs = solve_q0(cfg, n_vectors)
    np.testing.assert_array_equal(low_vals, vals[:n_vectors])
    np.testing.assert_allclose(low_vecs, vecs[:, :n_vectors], rtol=0, atol=1e-14)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**BOX)
def test_parity_commutes_with_real_h0(u1, theta, bx, bz, phase, n_pw, f):
    # The parity (n, k) -> (-n, s_k k) that splits the q=0 solve commutes
    # with H(0) wherever the spin blocks are real.
    cfg = _box_cfg(u1, theta, bx, bz if phase == "paper_cos" else 0.0, phase, n_pw, f)
    ham = _bloch_matrix(cfg, *_spin_blocks(cfg), 0.0, n_pw)
    assert ham.dtype == np.float64
    parity = np.kron(np.flipud(np.eye(2 * n_pw + 1)), np.diag(_spin_basis(cfg)[1]))
    assert np.linalg.norm(parity @ ham @ parity - ham) <= 1e-12 * np.linalg.norm(ham)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**BOX)
def test_q0_sectors_are_parity_blocks_of_the_bloch_matrix(u1, theta, bx, bz, phase, n_pw, f):
    # Sector sigma of H(0) is P^T H P over the parity-sigma states: the n = 0
    # states with s_k = sigma, then (|n, k> + sigma s_k |-n, k>)/sqrt(2) for
    # n = 1..N, in the order q0_sectors keeps them.
    cfg = _box_cfg(u1, theta, bx, bz if phase == "paper_cos" else 0.0, phase, n_pw, f)
    ham = _bloch_matrix(cfg, *_spin_blocks(cfg), 0.0, n_pw)
    form = q0_sectors(cfg)
    d = len(form.s)
    assert form.sigmas == (1.0, -1.0)
    for sigma, sector in zip(form.sigmas, form.matrices):
        centre = np.flatnonzero(form.s == sigma)
        p = np.zeros((2 * n_pw + 1, d, len(centre) + n_pw * d))
        p[n_pw, centre, np.arange(len(centre))] = 1.0
        for n in range(1, n_pw + 1):
            columns = len(centre) + (n - 1) * d + np.arange(d)
            p[n_pw + n, np.arange(d), columns] = 1.0 / np.sqrt(2.0)
            p[n_pw - n, np.arange(d), columns] = sigma * form.s / np.sqrt(2.0)
        p = p.reshape(len(ham), -1)
        np.testing.assert_allclose(sector, p.T @ ham @ p, rtol=0, atol=1e-14 * np.linalg.norm(ham, 2))
