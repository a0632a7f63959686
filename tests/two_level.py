"""Effective two-level description of the ground doublet, used by the tests
as a spectral oracle for the Rabi dynamics (criterion 05)."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from dwsim import LatticeConfig, solve_bands

log = logging.getLogger("dwsim")


@dataclass(frozen=True)
class TwoLevelModel:
    """Effective (epsilon, delta) description of the ground doublet.

    epsilon is the splitting with B_z forced to zero, nu(B_z) the actual
    splitting; delta = sqrt(nu^2 - eps^2) * sign(B_z); Omega = nu and the
    Rabi period is T = 1/nu.
    """

    epsilon_hz: float
    delta_hz: float
    omega_hz: float
    rabi_period_us: float
    clamped: bool


def two_level_model(cfg: LatticeConfig) -> TwoLevelModel:
    """Extract (epsilon, delta, Omega) from spectral data only.

    epsilon is the q-averaged splitting with B_z forced to zero, nu the
    splitting at the actual B_z; delta = sqrt(nu^2 - eps^2) sign(B_z).
    If nu < eps (numerically), delta is clamped to 0 and flagged.

    The reduction presumes a tunnel-split doublet: both q=0 doublet
    levels below the intra-well barrier and the detuning small against
    the gap to the third band.  Otherwise propagating |L> leaves the
    doublet and P_R(t) departs from the two-level formula.  At the
    canonical point (U_1 = 84 E_R, theta = 80 deg, B_x = 85 mG, N = 12)
    |A> lies 1.33 E_R above the barrier and the largest departure is 0.0054 at
    B_z = 0, 0.0431 at 10 mG and 0.0312 at 20 mG; at U_1 = 120 E_R it is
    at most 0.0028 over the same fields.
    """
    eps_hz = solve_bands(cfg.replace(bz_mg=0.0), n_bands=2).epsilon_hz
    if cfg.bz_mg == 0.0:
        nu_hz = eps_hz
    else:
        nu_hz = solve_bands(cfg, n_bands=2).epsilon_hz
    clamped = False
    if nu_hz < eps_hz:
        if (eps_hz - nu_hz) / max(eps_hz, 1e-300) > 1e-9:
            log.warning("nu(Bz)=%.6g Hz below epsilon=%.6g Hz; clamping delta to 0", nu_hz, eps_hz)
        clamped = True
        delta_hz = 0.0
    else:
        delta_hz = float(np.sqrt(nu_hz**2 - eps_hz**2) * np.sign(cfg.bz_mg))
    return TwoLevelModel(
        epsilon_hz=eps_hz,
        delta_hz=delta_hz,
        omega_hz=nu_hz,
        rabi_period_us=1e6 / nu_hz if nu_hz > 0 else np.inf,
        clamped=clamped,
    )
