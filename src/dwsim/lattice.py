"""Spin-matrix-valued lattice potential and its diabatic/adiabatic curves.

The potential of one lattice period is

    U(z) = U_J(z) * 1 + c_f(z) * F_z + beta_x * F_x + beta_z * F_z

with U_J(z) = (4 U_1/3)(1 + cos(theta) cos(2 k_L z)) and a fictitious
longitudinal field whose spatial phase is selectable: ``paper_cos`` puts
it proportional to cos(2 k_L z) (in phase with the scalar part),
``quadrature_sin`` to sin(2 k_L z).  The quadrature phase is the one that
produces the symmetric double well and is the default; see README.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
import numpy as np

from .constants import SpeciesConstants, UnitContext, cesium_f4
from .errors import ContinuityError
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
    def units(self) -> UnitContext:
        return UnitContext(self.species)

    @property
    def spin(self) -> SpinOperators:
        return make_spin_operators(self.species.f)

    @property
    def period_m(self) -> float:
        return self.species.period_m

    def z_grid_m(self, n: int | None = None) -> np.ndarray:
        """Uniform grid of one lattice period, endpoint excluded."""
        n = self.z_points if n is None else n
        return np.arange(n) * (self.period_m / n)

    def replace(self, **kw) -> "LatticeConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class PotentialCurves:
    """Diabatic and adiabatic potential curves over one period.

    ``diabatic[k]`` is the diagonal element for m_F = k - F;
    ``adiabatic[k]`` is the k-th continuity-tracked eigenvalue curve,
    ordered so that curve 0 starts lowest at the first grid point.
    Units: z in nm, energies in E_R.
    """

    z_nm: np.ndarray
    diabatic: np.ndarray
    adiabatic: np.ndarray


def potential_coefficients(cfg: LatticeConfig) -> tuple[float, float, float]:
    """Coefficients of U(z) in E_R: the offset 4 U_1/3, the scalar
    amplitude (2 U_1/3) cos(theta) of cos(2 k_L z), and the fictitious
    amplitude -g_F (2 U_1/3) sin(theta) of the F_z term."""
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
    # Reduce to one period before forming the angle so that
    # potential_matrix(z + period) reproduces potential_matrix(z).
    return 2.0 * np.pi * np.mod(np.asarray(z_m) / cfg.period_m, 1.0)


def potential_matrix(cfg: LatticeConfig, z_m: np.ndarray | float) -> np.ndarray:
    """Hermitian potential matrix U(z) in E_R: (2F+1)x(2F+1) for a scalar
    z, stacked to shape (len(z), 2F+1, 2F+1) for an array of positions."""
    ops = cfg.spin
    units = cfg.units
    u_j = np.asarray(scalar_potential_er(cfg, z_m))[..., None, None]
    c_f = np.asarray(fictitious_zeeman_er(cfg, z_m))[..., None, None]
    beta_x = units.mg_to_er(cfg.bx_mg)
    beta_z = units.mg_to_er(cfg.bz_mg)
    mat = u_j * np.eye(ops.dim) + (c_f + beta_z) * ops.fz + beta_x * ops.fx
    return mat.astype(complex)


def diabatic_curves(cfg: LatticeConfig, z_m: np.ndarray) -> np.ndarray:
    """Diagonal elements <m|U(z)|m> for every m_F, shape (2F+1, len(z)).

    B_x does not contribute (F_x has zero diagonal).
    """
    diag = np.arange(cfg.spin.dim)
    return potential_matrix(cfg, np.asarray(z_m, dtype=float))[:, diag, diag].real.T


def adiabatic_curves(cfg: LatticeConfig, z_m: np.ndarray) -> np.ndarray:
    """Pointwise eigenvalues of U(z), continuity-sorted, shape (2F+1, len(z)).

    Eigenvalue branches between adjacent grid points are matched by
    maximum eigenvector overlap; the grid is refined internally (up to
    8x) until every matched overlap exceeds 0.9.

    Raises
    ------
    ContinuityError
        If the assignment stays ambiguous (overlap < 0.5) at the finest
        refinement, naming the offending z interval.
    """
    z_m = np.asarray(z_m, dtype=float)
    for refine in (1, 2, 4, 8):
        z_fine = _refined_grid(z_m, refine)
        curves, min_overlap, bad_at = _track_curves(cfg, z_fine)
        if min_overlap >= 0.9:
            return curves[:, ::refine]
        if min_overlap < 0.5 and refine == 8:
            raise ContinuityError(
                f"adiabatic curve tracking ambiguous near z = {bad_at * 1e9:.2f} nm "
                f"(overlap {min_overlap:.3f} after 8x refinement)"
            )
    # Overlaps stayed in [0.5, 0.9): accept the finest tracking.
    return curves[:, ::refine]


def _refined_grid(z_m: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1:
        return z_m
    # Insert factor-1 evenly spaced points into each interval, assuming a
    # near-uniform input grid; tracked values at original points are kept.
    steps = np.append(np.diff(z_m), z_m[-1] - z_m[-2] if len(z_m) > 1 else 0.0)
    return (z_m[:, None] + steps[:, None] * np.arange(factor) / factor).ravel()


def _track_curves(cfg: LatticeConfig, z_m: np.ndarray):
    vals, vecs = np.linalg.eigh(potential_matrix(cfg, z_m))
    dim = vals.shape[1]
    curves = np.empty((dim, len(z_m)))
    order = np.arange(dim)  # first point: ascending, lowest curve first
    curves[:, 0] = vals[0]
    prev_vecs = vecs[0]
    min_overlap = 1.0
    bad_at = z_m[0]
    for j in range(1, len(z_m)):
        overlaps = np.abs(prev_vecs.conj().T @ vecs[j])  # (prev_branch, new_state)
        assignment = np.full(dim, -1, dtype=int)
        taken = np.zeros(dim, dtype=bool)
        # Greedy max-overlap assignment; overlaps are near-permutation
        # matrices on a sufficiently fine grid.
        flat = np.argsort(overlaps, axis=None)[::-1]
        assigned = 0
        for idx in flat:
            p, q = divmod(idx, dim)
            if assignment[p] < 0 and not taken[q]:
                assignment[p] = q
                taken[q] = True
                if overlaps[p, q] < min_overlap:
                    min_overlap = overlaps[p, q]
                    bad_at = z_m[j]
                assigned += 1
                if assigned == dim:
                    break
        curves[order, j] = vals[j][assignment]
        prev_vecs = vecs[j][:, assignment]
    return curves, min_overlap, bad_at


def potential_curves(cfg: LatticeConfig, z_m: np.ndarray | None = None) -> PotentialCurves:
    """Bundle diabatic and adiabatic curves on the config's grid."""
    z_m = cfg.z_grid_m() if z_m is None else np.asarray(z_m, dtype=float)
    return PotentialCurves(
        z_nm=z_m * 1e9,
        diabatic=diabatic_curves(cfg, z_m),
        adiabatic=adiabatic_curves(cfg, z_m),
    )


def _strict_local_minima(curve: np.ndarray, periodic: bool = True) -> np.ndarray:
    """Indices of the strict local minima of a sampled curve (cyclic by default)."""
    curve = np.asarray(curve)
    is_min = (curve < np.roll(curve, 1)) & (curve <= np.roll(curve, -1))
    if not periodic:  # the end points have only one neighbour
        is_min[:1] = is_min[-1:] = False
    return np.flatnonzero(is_min)


def count_local_minima(curve: np.ndarray, periodic: bool = True) -> int:
    """Number of strict local minima of a sampled curve (cyclic by default)."""
    return len(_strict_local_minima(curve, periodic))


def double_well_geometry(cfg: LatticeConfig, z_m: np.ndarray | None = None) -> dict:
    """Locate the wells of the lowest adiabatic curve within one period.

    Returns positions (m) of the two minima, the low barrier between
    them, and which minimum hosts predominantly m_F > 0 states.
    """
    z_m = cfg.z_grid_m() if z_m is None else np.asarray(z_m, dtype=float)
    lowest = adiabatic_curves(cfg, z_m)[0]
    n = len(z_m)
    minima = _strict_local_minima(lowest)
    if len(minima) != 2:
        raise ValueError(f"expected a double well, found {len(minima)} minima per period")
    j1, j2 = minima
    # barrier: highest point on the arc from j1 to j2 (forward); compare
    # against the complementary arc and keep the lower of the two maxima.
    arc1 = list(range(j1, j2 + 1))
    arc2 = list(range(j2, n)) + list(range(0, j1 + 1))
    b1 = max(arc1, key=lambda j: lowest[j])
    b2 = max(arc2, key=lambda j: lowest[j])
    barrier_j = b1 if lowest[b1] <= lowest[b2] else b2
    out = {
        "z_min_m": (z_m[j1], z_m[j2]),
        "barrier_z_m": z_m[barrier_j],
        "barrier_er": lowest[barrier_j],
        "min_er": (lowest[j1], lowest[j2]),
    }
    # Which well hosts m_F > 0: sign of <F_z> of the local ground spinor.
    ops = cfg.spin
    fz_signs = []
    for j in (j1, j2):
        _, v = np.linalg.eigh(potential_matrix(cfg, z_m[j]))
        fz_signs.append(float(np.real(v[:, 0].conj() @ ops.fz @ v[:, 0])))
    out["sigma_plus_z_m"] = z_m[j1] if fz_signs[0] > fz_signs[1] else z_m[j2]
    return out
