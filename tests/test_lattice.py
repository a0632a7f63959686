import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwsim import LatticeConfig, adiabatic_curves, cesium_f4, diabatic_curves
from dwsim.lattice import (
    FICTITIOUS_PHASES,
    _strict_local_minima,
    double_well_geometry,
    fictitious_zeeman_er,
    scalar_potential_er,
)
from reference_hamiltonian import potential_matrix


def period_grid(cfg, n):
    """n points over one period, endpoint excluded: coarser or finer than ``cfg.z_grid_m()``."""
    return np.arange(n) * (cfg.period_m / n)


def canonical(**kw):
    base = dict(u1_er=84.0, theta_deg=80.0, bx_mg=85.0, bz_mg=0.0, z_points=256)
    base.update(kw)
    return LatticeConfig(**base)


def test_scalar_part_at_origin():
    cfg = canonical()
    # hand evaluation: (4*84/3) * (1 + cos 80 deg)
    expected = 112.0 * (1.0 + math.cos(math.radians(80.0)))
    mat = potential_matrix(cfg, 0.0)
    got = float(np.real(mat[4, 4]))  # m_F = 0 has no Zeeman contribution
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(131.45, abs=0.01)


def test_fictitious_coefficient_paper_cos():
    cfg = canonical(fictitious_phase="paper_cos")
    # -(g_F)(2 U_1/3) sin(theta) at z = 0
    expected = -(0.25) * (2 * 84.0 / 3.0) * math.sin(math.radians(80.0))
    assert fictitious_zeeman_er(cfg, 0.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-13.79, abs=0.01)
    # extract from the matrix diagonal: <m|U|m> - U_J = m * c_f at B_z = 0
    mat = potential_matrix(cfg.replace(bx_mg=0.0), 0.0)
    diag = np.real(np.diag(mat)) - scalar_potential_er(cfg, 0.0)
    np.testing.assert_allclose(diag, (np.arange(9) - 4) * expected, atol=1e-10)


def test_theta_zero_kills_fictitious_field():
    cfg = canonical(theta_deg=0.0, bx_mg=20.0, bz_mg=5.0)
    z = 0.37 * cfg.period_m
    expected = scalar_potential_er(cfg, z) * np.eye(9) + cfg.species.mg_to_er(20.0) * cfg.spin.fx + cfg.species.mg_to_er(5.0) * cfg.spin.fz
    np.testing.assert_allclose(potential_matrix(cfg, z), expected, atol=1e-12)


def test_hermitian_and_periodic():
    cfg = canonical()
    for z in (0.0, 0.31 * cfg.period_m, 0.77 * cfg.period_m):
        mat = potential_matrix(cfg, z)
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-14
    # exact at a representable point, floating-point tight elsewhere
    np.testing.assert_array_equal(potential_matrix(cfg, 0.0), potential_matrix(cfg, cfg.period_m))
    z = 0.31 * cfg.period_m
    np.testing.assert_allclose(
        potential_matrix(cfg, z), potential_matrix(cfg, z + cfg.period_m), atol=1e-11
    )


def test_diabatic_curves_ignore_bx():
    cfg = canonical()
    z = period_grid(cfg, 64)
    with_bx = diabatic_curves(cfg, z)
    without = diabatic_curves(cfg.replace(bx_mg=0.0), z)
    np.testing.assert_allclose(with_bx, without, atol=1e-14)


def test_diabatic_m0_and_mirror():
    cfg = canonical()
    z = period_grid(cfg, 64)
    curves = diabatic_curves(cfg, z)
    np.testing.assert_allclose(curves[4], scalar_potential_er(cfg, z), atol=1e-12)
    # +-m mirror pairs about U_J at B_z = 0
    for m in range(1, 5):
        np.testing.assert_allclose(
            curves[4 + m] - curves[4], -(curves[4 - m] - curves[4]), atol=1e-10
        )


def test_diabatic_theta90_pure_cosines():
    cfg = canonical(theta_deg=90.0, fictitious_phase="paper_cos", bz_mg=0.0)
    z = period_grid(cfg, 64)
    curves = diabatic_curves(cfg, z)
    phase = 2 * cfg.species.k_l * z
    for m in range(-4, 5):
        expected = 4 * 84.0 / 3.0 + m * (-(0.25) * (2 * 84.0 / 3.0) * np.cos(phase))
        np.testing.assert_allclose(curves[4 + m], expected, atol=1e-10)


def test_adiabatic_against_analytic_oracle():
    # the closed-form curves against the numerical spectrum of U(z)
    cfg = canonical(bz_mg=7.0)
    z = period_grid(cfg, 128)
    numerical = np.linalg.eigvalsh(potential_matrix(cfg, z)).T
    np.testing.assert_allclose(adiabatic_curves(cfg, z), numerical, atol=1e-9)


def _sigma_plus_by_eigenvectors(cfg, geom):
    # the well whose lowest eigenvector of U(z) has the larger <F_z>
    fz = []
    for z in geom["z_min_m"]:
        _, vecs = np.linalg.eigh(potential_matrix(cfg, z))
        fz.append(float(np.real(vecs[:, 0].conj() @ cfg.spin.fz @ vecs[:, 0])))
    z1, z2 = geom["z_min_m"]
    return z1 if fz[0] > fz[1] else z2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    u1=st.floats(10.0, 300.0),
    theta=st.floats(45.0, 90.0),
    bx=st.floats(5.0, 300.0),
    bz=st.floats(-100.0, 100.0),
    phase=st.sampled_from(FICTITIOUS_PHASES),
    g_f=st.sampled_from((0.25, -0.25)),
)
def test_adiabatic_curves_are_the_numerical_spectrum(u1, theta, bx, bz, phase, g_f):
    cfg = LatticeConfig(
        u1_er=u1, theta_deg=theta, bx_mg=bx, bz_mg=bz, fictitious_phase=phase,
        species=cesium_f4(g_f=g_f), z_points=256,
    )
    z = cfg.z_grid_m()
    curves = adiabatic_curves(cfg, z)
    numerical = np.linalg.eigvalsh(potential_matrix(cfg, z)).T
    np.testing.assert_allclose(curves, numerical, atol=1e-9)
    np.testing.assert_array_equal(curves[0], curves.min(axis=0))
    if len(_strict_local_minima(curves[0])) == 2:
        geom = double_well_geometry(cfg)
        assert geom["sigma_plus_z_m"] == _sigma_plus_by_eigenvectors(cfg, geom)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    u1=st.floats(10.0, 300.0),
    theta=st.floats(0.0, 180.0),
    bx=st.floats(-300.0, 300.0),
    bz=st.floats(-100.0, 100.0),
    phase=st.sampled_from(FICTITIOUS_PHASES),
    g_f=st.sampled_from((0.25, -0.25)),
    f=st.sampled_from((0.5, 1.5, 4.0)),
)
def test_diabatic_curves_are_the_diagonal_of_the_potential_matrix(u1, theta, bx, bz, phase, g_f, f):
    # the closed form U_J + m b_z equals the diagonal of U(z), sign bits included
    cfg = LatticeConfig(
        u1_er=u1, theta_deg=theta, bx_mg=bx, bz_mg=bz, fictitious_phase=phase,
        species=dataclasses.replace(cesium_f4(g_f=g_f), f=f), z_points=64,
    )
    z = cfg.z_grid_m()
    diagonal = np.diagonal(potential_matrix(cfg, z), axis1=1, axis2=2).real.T
    curves = diabatic_curves(cfg, z)
    np.testing.assert_array_equal(curves, diagonal)
    np.testing.assert_array_equal(np.signbit(curves), np.signbit(diagonal))


@pytest.mark.parametrize(
    "phase, bz", [("quadrature_sin", 0.0), ("quadrature_sin", -7.0), ("quadrature_sin", 7.0), ("paper_cos", 0.0)]
)
def test_adiabatic_curves_keep_m_f_at_zero_bx(phase, bz):
    # without B_x, m_F is conserved: the curves are the diabatic ones,
    # ordered by their value at the first grid point, through every crossing
    cfg = canonical(bx_mg=0.0, bz_mg=bz, fictitious_phase=phase)
    z = period_grid(cfg, 128)
    dia = diabatic_curves(cfg, z)
    expected = dia[np.argsort(dia[:, 0], kind="stable")]
    np.testing.assert_allclose(adiabatic_curves(cfg, z), expected, atol=1e-9)


def test_adiabatic_degenerate_point():
    # with B = 0 the quadrature fictitious field vanishes at z = 0: all
    # 2F+1 adiabatic values coincide at U_J(0)
    cfg = canonical(bx_mg=0.0)
    vals = np.linalg.eigvalsh(potential_matrix(cfg, 0.0))
    np.testing.assert_allclose(vals, scalar_potential_er(cfg, 0.0), atol=1e-10)


def test_adiabatic_quantization_along_x():
    # where the longitudinal field vanishes, eigenvalues are U_J + beta_x * m
    cfg = canonical(fictitious_phase="paper_cos")
    z = cfg.period_m / 4.0  # cos(2 k_L z) = 0
    vals = np.linalg.eigvalsh(potential_matrix(cfg, z))
    expected = scalar_potential_er(cfg, z) + cfg.species.mg_to_er(85.0) * np.arange(-4.0, 5.0)
    np.testing.assert_allclose(vals, expected, atol=1e-9)


@pytest.mark.parametrize("phase", ["quadrature_sin", "paper_cos"])
def test_double_well_minima_count(phase):
    cfg = canonical(fictitious_phase=phase)
    lowest = adiabatic_curves(cfg, cfg.z_grid_m())[0]
    assert len(_strict_local_minima(lowest)) == 2


def test_adiabatic_tracking_grid_independent():
    # the curves at a grid point do not depend on the rest of the grid
    cfg = canonical()
    coarse = adiabatic_curves(cfg, period_grid(cfg, 32))
    fine = adiabatic_curves(cfg, period_grid(cfg, 256))
    np.testing.assert_allclose(coarse, fine[:, ::8], atol=1e-9)


def test_trace_sum_rule():
    cfg = canonical(bz_mg=12.0)
    z = period_grid(cfg, 128)
    dia = diabatic_curves(cfg, z)
    adi = adiabatic_curves(cfg, z)
    np.testing.assert_allclose(dia.sum(axis=0), adi.sum(axis=0), atol=1e-10)


def test_reflection_symmetry_paper_cos():
    cfg = canonical(fictitious_phase="paper_cos")
    for z in (0.11, 0.23, 0.42):
        plus = np.linalg.eigvalsh(potential_matrix(cfg, z * cfg.period_m))
        minus = np.linalg.eigvalsh(potential_matrix(cfg, -z * cfg.period_m))
        np.testing.assert_allclose(plus, minus, atol=1e-10)


def test_double_well_geometry_sigma_plus_side():
    cfg = canonical()
    geom = double_well_geometry(cfg)
    z1, z2 = geom["z_min_m"]
    assert abs(geom["min_er"][0] - geom["min_er"][1]) < 1e-6  # symmetric wells
    # separation of the adiabatic minima ~ 145 nm
    assert abs(z2 - z1) * 1e9 == pytest.approx(145.0, abs=5.0)
    # sigma+ well (m_F > 0 ground spinor) is the left one for g_F > 0
    assert geom["sigma_plus_z_m"] == min(z1, z2)
    # and the right one for g_F < 0, with the wells in place
    flipped = double_well_geometry(cfg.replace(species=cesium_f4(g_f=-0.25)))
    assert flipped["z_min_m"] == geom["z_min_m"]
    assert flipped["sigma_plus_z_m"] == max(z1, z2)


@pytest.mark.parametrize("z_points", [256, 512])
def test_paper_cos_barrier_on_forward_arc(z_points):
    # the lowest curve depends only on cos(2 k_L z), so its two barriers are
    # mirror images of equal height; the one between the minima is reported
    geom = double_well_geometry(canonical(fictitious_phase="paper_cos", z_points=z_points))
    z1, z2 = geom["z_min_m"]
    assert z1 < geom["barrier_z_m"] < z2


def test_spin_operators_shared_across_configs():
    cfg = canonical()
    assert cfg.spin is cfg.replace(u1_er=100.0).spin


def test_config_validation():
    with pytest.raises(ValueError):
        canonical(u1_er=-1.0)
    with pytest.raises(ValueError):
        canonical(theta_deg=181.0)
    with pytest.raises(ValueError):
        canonical(n_planewaves=4)
    with pytest.raises(ValueError):
        canonical(fictitious_phase="nope")
