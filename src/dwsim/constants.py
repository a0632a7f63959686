"""Physical constants, species data and unit conversions.

Internal unit conventions used throughout the package:

* energies in recoil units E_R = hbar^2 k_L^2 / (2 M), or in Hz as E/h
* magnetic fields in milligauss (mG)
* times in microseconds
* positions in meters internally, nanometers in serialized output

The spin basis is always ordered m_F = -F .. +F ascending.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .spin import make_spin_operators

# CODATA values (12 significant digits where known to that precision).
PLANCK_H = 6.62607015e-34  # J s (exact)
HBAR = 1.05457181765e-34  # J s
BOHR_MAGNETON = 9.27401007830e-24  # J/T
ATOMIC_MASS = 1.66053906660e-27  # kg

MILLIGAUSS_TO_TESLA = 1e-7

# Cs-133 mass and lattice wavelength in the units of the INI keys mass_u
# and wavelength_nm; cesium_f4 converts them the way parse_config does, so
# a config that leaves both keys unset resolves to cesium_f4() exactly.
CS133_MASS_U = 132.905451961
CS133_WAVELENGTH_NM = 852.35


@dataclass(frozen=True)
class SpeciesConstants:
    """Atomic species parameters for one lattice realization.

    Parameters
    ----------
    mass_kg : float
        Atomic mass in kg.
    wavelength_m : float
        Lattice light wavelength in m.
    g_f : float
        Lande factor of the trapped hyperfine manifold (sign included).
    f : float
        Total spin F; 2F+1 must be a positive integer.
    """

    mass_kg: float
    wavelength_m: float
    g_f: float
    f: float

    def __post_init__(self) -> None:
        if self.mass_kg <= 0:
            raise ValueError(f"mass_kg must be positive, got {self.mass_kg}")
        if self.wavelength_m <= 0:
            raise ValueError(f"wavelength_m must be positive, got {self.wavelength_m}")
        make_spin_operators(self.f)  # raises ValueError unless F is a half-integer >= 1/2

    @property
    def k_l(self) -> float:
        """Lattice wavevector 2*pi/wavelength in rad/m."""
        return 2.0 * math.pi / self.wavelength_m

    @property
    def period_m(self) -> float:
        """Lattice period lambda/2 in m."""
        return self.wavelength_m / 2.0

    @property
    def recoil_j(self) -> float:
        """Recoil energy hbar^2 k_L^2 / (2 M) in J."""
        return HBAR**2 * self.k_l**2 / (2.0 * self.mass_kg)

    @property
    def recoil_hz(self) -> float:
        """Recoil energy divided by h, in Hz."""
        return self.recoil_j / PLANCK_H

    def er_to_hz(self, e_er: float) -> float:
        return e_er * self.recoil_hz

    def zeeman_er_per_mg(self) -> float:
        """g_F mu_B * (1 mG) expressed in E_R, per unit m_F."""
        return self.g_f * BOHR_MAGNETON * MILLIGAUSS_TO_TESLA / self.recoil_j

    def mg_to_er(self, b_mg: float) -> float:
        """Zeeman energy g_F mu_B B in E_R (per unit m_F) for B in mG."""
        return b_mg * self.zeeman_er_per_mg()

    def rad_per_us_per_er(self) -> float:
        """Angular frequency of one E_R, in rad/us (phase accumulation rate)."""
        return self.recoil_j / HBAR * 1e-6


def cesium_f4(g_f: float = 0.25) -> SpeciesConstants:
    """Cs in the 6S_1/2 F=4 manifold, lattice light near the D2 line.

    g_F defaults to +1/4 (standard value for this manifold) and is
    configurable because its sign fixes which well hosts m_F > 0.
    """
    return SpeciesConstants(
        mass_kg=CS133_MASS_U * ATOMIC_MASS,
        wavelength_m=CS133_WAVELENGTH_NM * 1e-9,
        g_f=g_f,
        f=4.0,
    )
