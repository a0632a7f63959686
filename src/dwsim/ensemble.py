"""Ensemble dephasing from static lattice-intensity inhomogeneity.

Each atom sees its own single-beam light shift drawn around the nominal
value; the ensemble-averaged magnetization of identical localized-state
Rabi runs then dephases on a timescale set by the frequency spread.
Each sample's <F_z>(t) is closed-form in the sample's own q=0 doublet.
Sampling is splittable per index so serial and parallel runs agree
bit for bit.
"""
from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bands import fz_coefficient_diag, wannier_doublet
from .dynamics import output_times
from .errors import ConvergenceError
from .lattice import LatticeConfig

log = logging.getLogger("dwsim")

DISTRIBUTIONS = ("gaussian", "uniform")
GAUSS_TRUNCATION = 3.0
MAX_SKIP_FRACTION = 0.1


@dataclass(frozen=True)
class EnsembleSpec:
    """The [ensemble] section: the relative U_1 spread of the samples, how
    many there are and how they are drawn, and the output time grid.  Every
    factor 1 + spread x is positive: x >= -3 (gaussian, spread < 1/3) or -sqrt(3) (uniform)."""

    spread: float = 0.05
    n_samples: int = 200
    seed: int = 20260808
    distribution: str = "gaussian"
    t_max_us: float = 1500.0
    dt_out_us: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.spread < 0.5:
            raise ValueError(f"spread must be in [0, 0.5), got {self.spread}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}")
        if self.distribution == "gaussian" and self.spread >= 1.0 / GAUSS_TRUNCATION:
            raise ValueError(f"a gaussian spread must be below 1/{GAUSS_TRUNCATION:g}, got {self.spread}")
        if self.t_max_us <= 0 or self.dt_out_us <= 0:
            raise ValueError("t_max_us and dt_out_us must be positive")


@dataclass(frozen=True)
class EnsembleResult:
    """Sample-mean magnetization with per-sample provenance."""

    t_us: np.ndarray
    mean_fz: np.ndarray
    sample_u1_er: np.ndarray
    n_skipped: int


def sample_intensity_factor(spec: EnsembleSpec, index: int) -> float:
    """Multiplicative U_1 factor for one sample.

    Deterministic in (seed, index) regardless of execution order; the
    gaussian branch is truncated at +-3 sigma by redrawing, so the factor
    is positive for every spread ``EnsembleSpec`` accepts.
    """
    rng = np.random.default_rng([spec.seed, index])
    if spec.distribution == "gaussian":
        x = rng.standard_normal()
        while abs(x) > GAUSS_TRUNCATION:
            x = rng.standard_normal()
    else:
        x = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0))  # unit variance
    return 1.0 + spec.spread * x


def _single_run(cfg: LatticeConfig, spec: EnsembleSpec, index: int, t_us: np.ndarray):
    """<F_z>(t) of |L> = (|S> + |A>)/sqrt(2) in the sample's own doublet:
    (F_SS + F_AA)/2 + Re(F_SA exp(-i omega t)), hbar omega = E_A - E_S."""
    cfg_i = cfg.replace(u1_er=cfg.u1_er * sample_intensity_factor(spec, index))
    doublet = wannier_doublet(cfg_i, flatness_guard=False)
    fz_diag = fz_coefficient_diag(cfg_i)
    s, a = doublet.coef_s, doublet.coef_a
    f_ss, f_aa, f_sa = (np.vdot(x, fz_diag * y) for x, y in ((s, s), (a, a), (s, a)))
    omega = doublet.epsilon_er * cfg_i.units.rad_per_us_per_er()
    fz = 0.5 * (f_ss + f_aa).real + np.real(f_sa * np.exp(-1j * omega * t_us))
    return cfg_i.u1_er, fz


def ensemble_magnetization(cfg: LatticeConfig, spec: EnsembleSpec, jobs: int = 1) -> EnsembleResult:
    """Mean <F_z>(t) over localized-state Rabi runs of the ensemble ``spec``
    drawn around ``cfg``, on the spec's output time grid.

    Every sample solves its own q=0 doublet once and gives the magnetization
    of its (|S> + |A>)/sqrt(2) in closed form: the left-localized |L> at
    B_z = 0, but not a localized state at B_z != 0, where that doublet is
    tilted.  Samples that fail numerically (ConvergenceError, ValueError,
    LinAlgError) are skipped with a logged diagnostic; more than 10 %
    skipped raises RuntimeError.  Any other exception propagates.  The
    reduction sums in fixed index order after all samples complete, so the
    result does not depend on ``jobs``.
    """
    t_us = output_times(spec.t_max_us, spec.dt_out_us)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        raw = list(pool.map(lambda i: _guarded_run(cfg, spec, i, t_us), range(spec.n_samples)))

    u1 = np.full(spec.n_samples, np.nan)
    total = np.zeros(len(t_us))
    n_ok = 0
    for i, item in enumerate(raw):
        if item is None:
            continue
        u1[i], fz = item
        total += fz
        n_ok += 1
    n_skipped = spec.n_samples - n_ok
    if n_skipped > MAX_SKIP_FRACTION * spec.n_samples:
        raise RuntimeError(
            f"{n_skipped}/{spec.n_samples} ensemble samples failed; "
            "the base configuration does not support a localized doublet"
        )
    return EnsembleResult(
        t_us=t_us,
        mean_fz=total / n_ok,
        sample_u1_er=u1,
        n_skipped=n_skipped,
    )


def _guarded_run(cfg: LatticeConfig, spec: EnsembleSpec, index: int, t_us: np.ndarray):
    try:
        return _single_run(cfg, spec, index, t_us)
    except (ConvergenceError, ValueError, np.linalg.LinAlgError):
        log.exception("ensemble sample %d failed; skipping", index)
        return None
