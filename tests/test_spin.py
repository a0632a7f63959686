import math

import numpy as np
import pytest

from dwsim import SpeciesConstants, cesium_f4, make_spin_operators
from dwsim.constants import BOHR_MAGNETON, HBAR, PLANCK_H


def commutator(a, b):
    return a @ b - b @ a


def test_spin_half_is_half_pauli():
    ops = make_spin_operators(0.5)
    assert ops.dim == 2
    np.testing.assert_allclose(ops.fz, np.diag([-0.5, 0.5]), atol=1e-15)
    # basis order m = -1/2, +1/2: <+|Fx|-> = 1/2
    assert ops.fx[1, 0] == pytest.approx(0.5)
    np.testing.assert_allclose(ops.fx, np.array([[0, 0.5], [0.5, 0]]), atol=1e-15)


def test_f4_ladder_element():
    ops = make_spin_operators(4.0)
    assert ops.dim == 9
    # <m=4|Fx|m=3> = sqrt(F(F+1) - 3*4)/2 = sqrt(8)/2 = sqrt(2)
    assert ops.fx[8, 7] == pytest.approx(math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("f", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
def test_commutators_and_casimir(f):
    ops = make_spin_operators(f)
    assert np.max(np.abs(commutator(ops.fx, ops.fy) - 1j * ops.fz)) < 1e-12
    assert np.max(np.abs(commutator(ops.fy, ops.fz) - 1j * ops.fx)) < 1e-12
    assert np.max(np.abs(commutator(ops.fz, ops.fx) - 1j * ops.fy)) < 1e-12
    casimir = ops.fx @ ops.fx + ops.fy @ ops.fy + ops.fz @ ops.fz
    np.testing.assert_allclose(casimir, f * (f + 1) * np.eye(ops.dim), atol=1e-12)


def test_invalid_f_rejected():
    with pytest.raises(ValueError):
        make_spin_operators(0.7)
    with pytest.raises(ValueError):
        make_spin_operators(0.0)


def test_deterministic_and_readonly():
    a = make_spin_operators(2.0)
    b = make_spin_operators(2.0)
    np.testing.assert_array_equal(a.fx, b.fx)
    with pytest.raises(ValueError):
        a.fx[0, 0] = 1.0


def test_recoil_energy_cesium():
    species = cesium_f4()
    # independent oracle: direct arithmetic on the CODATA constants
    k_l = 2 * math.pi / species.wavelength_m
    expected = HBAR**2 * k_l**2 / (2 * species.mass_kg) / PLANCK_H
    assert species.recoil_hz == pytest.approx(expected, rel=1e-12)
    assert species.recoil_hz == pytest.approx(2.066e3, rel=1e-3)


def test_recoil_scaling():
    species = cesium_f4()
    doubled = SpeciesConstants(
        mass_kg=2 * species.mass_kg,
        wavelength_m=species.wavelength_m,
        g_f=species.g_f,
        f=species.f,
    )
    assert doubled.recoil_hz == pytest.approx(species.recoil_hz / 2, rel=1e-12)
    halved_wl = SpeciesConstants(
        mass_kg=species.mass_kg,
        wavelength_m=species.wavelength_m / 2,
        g_f=species.g_f,
        f=species.f,
    )
    assert halved_wl.recoil_hz == pytest.approx(4 * species.recoil_hz, rel=1e-12)


def test_zeeman_energy():
    species = cesium_f4()
    assert species.mg_to_er(0.0) == 0.0
    # 1 G at g_F = 1/4: direct constant arithmetic oracle
    per_gauss_hz = 0.25 * BOHR_MAGNETON * 1e-4 / PLANCK_H
    assert per_gauss_hz == pytest.approx(349.9e3, rel=1e-3)
    got_hz = species.er_to_hz(species.mg_to_er(1000.0))
    assert got_hz == pytest.approx(per_gauss_hz, rel=1e-12)
    # the canonical transverse field in recoil units
    assert species.mg_to_er(85.0) == pytest.approx(14.4, rel=5e-3)
    assert species.er_to_hz(species.mg_to_er(85.0)) == pytest.approx(29.74e3, rel=1e-3)


def test_species_validation():
    with pytest.raises(ValueError):
        SpeciesConstants(mass_kg=-1.0, wavelength_m=852e-9, g_f=0.25, f=4.0)
    with pytest.raises(ValueError):
        SpeciesConstants(mass_kg=1e-25, wavelength_m=852e-9, g_f=0.25, f=0.8)
