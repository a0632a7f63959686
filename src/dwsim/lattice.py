"""Spin-matrix-valued lattice potential and its diabatic/adiabatic curves.

The potential of one lattice period is

    U(z) = U_J(z) * 1 + c_f(z) * F_z + beta_x * F_x + beta_z * F_z

with U_J(z) = (4 U_1/3)(1 + cos(theta) cos(2 k_L z)) and a fictitious
longitudinal field whose spatial phase is selectable: ``paper_cos`` puts
it proportional to cos(2 k_L z) (in phase with the scalar part),
``quadrature_sin`` to sin(2 k_L z).  The quadrature phase is the one that
produces the symmetric double well and is the default; see README.

U(z) is a scalar plus a spin F in the field b(z) = (beta_x, 0, b_z(z)),
b_z = c_f + beta_z, so its adiabatic curves are U_J(z) + m |b(z)|,
m = -F..F, in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
import numpy as np

from .constants import SpeciesConstants, cesium_f4
from .errors import NumericalError
from .spin import SpinOperators, make_spin_operators

FICTITIOUS_PHASES = ("quadrature_sin", "paper_cos")


@dataclass(frozen=True)
class LatticeConfig:
    """All physical and numerical parameters of one lattice realization."""

    u1_er: float = 84.0
    theta_deg: float = 80.0
    bx_mg: float = 85.0
    bz_mg: float = 0.0
    species: SpeciesConstants = field(default_factory=cesium_f4)
    fictitious_phase: str = "quadrature_sin"
    n_planewaves: int = 24
    n_q: int = 33
    z_points: int = 512

    def __post_init__(self) -> None:
        if self.u1_er <= 0:
            raise ValueError(f"u1_er must be positive, got {self.u1_er}")
        if not 0.0 <= self.theta_deg <= 180.0:
            raise ValueError(f"theta_deg must be in [0, 180], got {self.theta_deg}")
        if self.fictitious_phase not in FICTITIOUS_PHASES:
            raise ValueError(
                f"fictitious_phase must be one of {FICTITIOUS_PHASES}, got {self.fictitious_phase!r}"
            )
        if self.n_planewaves < 8:
            raise ValueError(f"n_planewaves must be >= 8, got {self.n_planewaves}")
        if self.z_points < 64:
            raise ValueError(f"z_points must be >= 64, got {self.z_points}")
        if self.n_q < 1:
            raise ValueError(f"n_q must be >= 1, got {self.n_q}")

    @property
    def spin(self) -> SpinOperators:
        return make_spin_operators(self.species.f)

    @property
    def period_m(self) -> float:
        return self.species.period_m

    def z_grid_m(self) -> np.ndarray:
        """Uniform grid of ``z_points`` over one lattice period, endpoint excluded."""
        return np.arange(self.z_points) * (self.period_m / self.z_points)

    def replace(self, **kw) -> "LatticeConfig":
        return replace(self, **kw)


def potential_coefficients(cfg: LatticeConfig) -> tuple[float, float, float]:
    """Coefficients of U(z) in E_R: the offset 4 U_1/3, the weight
    (2 U_1/3) cos(theta) of each of exp(+-2 i k_L z) in U_J (half its
    cos(2 k_L z) amplitude), and the fictitious amplitude
    -g_F (2 U_1/3) sin(theta) of the F_z term."""
    theta = np.radians(cfg.theta_deg)
    offset = 4.0 * cfg.u1_er / 3.0
    scalar = (2.0 * cfg.u1_er / 3.0) * np.cos(theta)
    fictitious = -cfg.species.g_f * (2.0 * cfg.u1_er / 3.0) * np.sin(theta)
    return offset, scalar, fictitious


def scalar_potential_er(cfg: LatticeConfig, z_m: np.ndarray | float) -> np.ndarray | float:
    """Scalar light shift U_J(z) in E_R."""
    phase = _reduced_phase(cfg, z_m)
    offset, _, _ = potential_coefficients(cfg)
    return offset * (1.0 + np.cos(np.radians(cfg.theta_deg)) * np.cos(phase))


def fictitious_zeeman_er(cfg: LatticeConfig, z_m: np.ndarray | float) -> np.ndarray | float:
    """Coefficient of F_z from the light-induced field, in E_R per unit m_F."""
    phase = _reduced_phase(cfg, z_m)
    _, _, fictitious = potential_coefficients(cfg)
    spatial = np.cos(phase) if cfg.fictitious_phase == "paper_cos" else np.sin(phase)
    return fictitious * spatial


def _reduced_phase(cfg: LatticeConfig, z_m: np.ndarray | float) -> np.ndarray | float:
    # Reduce to one period before forming the angle so that every
    # potential at z + period reproduces its value at z.
    return 2.0 * np.pi * np.mod(np.asarray(z_m) / cfg.period_m, 1.0)


def _effective_field(cfg: LatticeConfig, z_m: np.ndarray | float) -> tuple[float, np.ndarray | float]:
    """Field (beta_x, b_z(z)) coupling to (F_x, F_z), in E_R per unit m_F,
    with b_z = c_f(z) + beta_z."""
    return cfg.species.mg_to_er(cfg.bx_mg), fictitious_zeeman_er(cfg, z_m) + cfg.species.mg_to_er(cfg.bz_mg)


def diabatic_curves(cfg: LatticeConfig, z_m: np.ndarray) -> np.ndarray:
    """Diagonal elements <m|U(z)|m> = U_J(z) + m b_z(z), shape (2F+1, len(z)).

    B_x does not contribute (F_x has zero diagonal).
    """
    z_m = np.asarray(z_m, dtype=float)
    return scalar_potential_er(cfg, z_m) + cfg.spin.m_values[:, None] * _effective_field(cfg, z_m)[1]


def adiabatic_curves(cfg: LatticeConfig, z_m: np.ndarray) -> np.ndarray:
    """Eigenvalue curves of U(z) in closed form, shape (2F+1, len(z)).

    U(z) is the scalar U_J(z) plus a spin F in the field
    b(z) = (beta_x, 0, c_f(z) + beta_z), so curve k is U_J(z) + m_k |b(z)|
    with m_k = k - F: curve 0 is lowest everywhere.  At beta_x = 0, m_F
    is conserved and each curve keeps its m_F where b_z changes sign, so
    the curves are the diabatic ones ordered by their value at z[0].
    """
    z_m = np.asarray(z_m, dtype=float)
    beta_x, b_z = _effective_field(cfg, z_m)
    if beta_x != 0:
        r = np.hypot(beta_x, b_z)
    else:
        r = b_z if b_z[0] >= 0 else -b_z
    return scalar_potential_er(cfg, z_m)[None, :] + cfg.spin.m_values[:, None] * r[None, :]


def _strict_local_minima(curve: np.ndarray) -> np.ndarray:
    """Indices of the strict local minima of a cyclic sampled curve."""
    curve = np.asarray(curve)
    is_min = (curve < np.roll(curve, 1)) & (curve <= np.roll(curve, -1))
    return np.flatnonzero(is_min)


def double_well_geometry(cfg: LatticeConfig) -> dict:
    """Locate the wells of the lowest adiabatic curve on the config's grid.

    Returns positions (m) of the two minima, the low barrier between
    them, and which minimum hosts predominantly m_F > 0 states.
    """
    z_m = cfg.z_grid_m()
    lowest = adiabatic_curves(cfg, z_m)[0]
    n = len(z_m)
    minima = _strict_local_minima(lowest)
    if len(minima) != 2:
        raise NumericalError(f"expected a double well, found {len(minima)} minima per period")
    j1, j2 = minima
    # barrier: highest point on the arc from j1 to j2 (forward); compare
    # against the complementary arc and keep the lower of the two maxima.
    arc1 = np.arange(j1, j2 + 1)
    arc2 = np.r_[j2:n, 0 : j1 + 1]
    b1, b2 = arc1[np.argmax(lowest[arc1])], arc2[np.argmax(lowest[arc2])]
    # Barriers within rounding of each other (mirror images, as at
    # paper_cos) are equal: keep the forward arc's.
    barrier_j = b2 if lowest[b2] < lowest[b1] - 1e-12 * abs(lowest[b1]) else b1
    out = {
        "z_min_m": (z_m[j1], z_m[j2]),
        "barrier_z_m": z_m[barrier_j],
        "barrier_er": lowest[barrier_j],
        "min_er": (lowest[j1], lowest[j2]),
    }
    # Which well hosts m_F > 0: the local ground spinor points against b,
    # so its <F_z> is -F b_z / |b|.
    beta_x, b_z = _effective_field(cfg, z_m[[j1, j2]])
    fz = -cfg.species.f * b_z / np.hypot(beta_x, b_z)
    out["sigma_plus_z_m"] = z_m[j1] if fz[0] > fz[1] else z_m[j2]
    return out
