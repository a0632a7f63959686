"""Ensemble dephasing from static lattice-intensity inhomogeneity.

Each atom sees its own single-beam light shift drawn around the nominal
value; the ensemble-averaged magnetization of identical localized-state
Rabi runs then dephases on a timescale set by the frequency spread.
Each sample is the ``rabi`` experiment at its own U_1: its B_z = 0 |L>,
found by continuation in U_1, certified or exact, and aligned to the one
labelled base doublet at every B_z; at B_z = 0 all evolve in one batch.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bands import localized_doublet, q0_continuation, q0_sectors, solve_q0
from .dynamics import _gram_form, _static_evolution, output_times
from .errors import NumericalError
from .lattice import LatticeConfig

log = logging.getLogger("dwsim")

DISTRIBUTIONS = ("gaussian", "uniform")
GAUSS_TRUNCATION = 3.0
MAX_SKIP_FRACTION = 0.1
NODE_VECTORS = 3  # lowest eigenvectors kept per sector and node
OVERLAP_FLOOR = 0.5  # a sample's |<S_0|S_i>| or |<A_0|A_i>| below this: it is skipped


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
    """Sample-mean magnetization, the number of skipped samples, the continuation's
    node count and the largest residual (E_R) of a Ritz pair it read."""

    t_us: np.ndarray
    mean_fz: np.ndarray
    n_skipped: int
    n_nodes: int
    max_residual_er: float


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


def _ritz_doublets(cfg: LatticeConfig, u1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """``solve_q0(cfg_i, 2)`` at each U_1 of ``u1``, stacked as values (n, 2) and vectors (n, D, 2), by
    ``q0_continuation`` of H(0), affine in U_1, from NODE_VECTORS vectors per sector; the larger residual of each
    doublet (n,), at most ``bands.RITZ_RESIDUAL_ER`` or 0 (exact), the node count and the indices of the exact ones."""
    return q0_continuation(q0_sectors(cfg), q0_sectors(cfg, du1=True).matrices, u1 - cfg.u1_er, NODE_VECTORS, 2)


def _aligned(cfg: LatticeConfig, vals: np.ndarray, vecs: np.ndarray):
    """a (n, 2), |L_i> = V_i a_i = (S_i + A_i)/sqrt(2) with <S_0|S_i>, <A_0|A_i> real positive, of the B_z = 0
    doublets ``vals`` (n, 2), ``vecs`` (n, D, 2) of ``cfg``, where ``localized_doublet`` labels the last, the base,
    S_0, A_0; and the smaller overlap (n,).  A doublet that overlaps (A_0, S_0) more than (S_0, A_0), its energy
    order flipped, is first swapped in place.  A base that ``localized_doublet`` cannot label raises NumericalError."""
    base = localized_doublet(cfg, vals[-1], vecs[-1])
    sa = np.stack([base.coef_s, base.coef_a], axis=1).conj()
    overlaps, crossed = (np.einsum("dk,ndk->nk", b, vecs) for b in (sa, sa[:, ::-1]))
    swap = np.abs(crossed).sum(axis=1) > np.abs(overlaps).sum(axis=1)
    vals[swap], vecs[swap], overlaps[swap] = vals[swap, ::-1], vecs[swap, :, ::-1], crossed[swap, ::-1]
    return np.exp(-1j * np.angle(overlaps)) / np.sqrt(2.0), np.abs(overlaps).min(axis=1)


def ensemble_magnetization(cfg: LatticeConfig, spec: EnsembleSpec) -> EnsembleResult:
    """Mean <F_z>(t) over the localized-state Rabi runs of ``spec`` drawn around ``cfg``, on its output time grid.

    Every sample i runs the experiment ``rabi`` runs at its own U_1: its B_z = 0 |L_i>, ``_aligned`` to the base
    doublet at the configured U_1, which rides ``_ritz_doublets`` last, evolved under H_i(B_z): at B_z = 0 every
    row in one ``_gram_form`` batch, else each in its own ``solve_q0`` pairs by ``_static_evolution``.  Node count,
    largest Ritz residual and exact samples are logged at INFO.  A sample below OVERLAP_FLOOR or whose tilted
    solve raises LinAlgError is skipped and logged; over 10 % raise NumericalError.  Samples sum in index order.
    """
    t_us = output_times(spec.t_max_us, spec.dt_out_us)
    u1 = cfg.u1_er * np.array([sample_intensity_factor(spec, i) for i in range(spec.n_samples)] + [1.0])
    untilted = cfg.replace(bz_mg=0.0)
    vals, vecs, residual, n_nodes, exact = _ritz_doublets(untilted, u1)
    log.info("ensemble: %d nodes, largest Ritz residual %.2e E_R, %d samples solved in full",
             n_nodes, residual.max(), np.count_nonzero(exact < spec.n_samples))
    a, overlap = _aligned(untilted, vals, vecs)
    if cfg.bz_mg == 0.0:  # every row, the base's too: the blocks of c(t) do not depend on which rows count
        rates = (vals - vals[:, :1]) * cfg.species.rad_per_us_per_er()
        fz = _gram_form(vecs, cfg.spin.dim, rates, a, t_us, cfg.spin.m_values)[:, 0]
    total, n_skipped = np.zeros(len(t_us)), 0
    for i in range(spec.n_samples):
        if overlap[i] < OVERLAP_FLOOR:
            log.warning("ensemble sample %d: base overlap %.3f below %g; skipping", i, overlap[i], OVERLAP_FLOOR)
            n_skipped += 1
        elif cfg.bz_mg == 0.0:
            total += fz[i]
        else:
            try:
                cfg_i = cfg.replace(u1_er=float(u1[i]))
                total += _static_evolution(cfg_i, t_us, *solve_q0(cfg_i), vecs[i] @ a[i])[2] @ cfg.spin.m_values
            except np.linalg.LinAlgError:
                log.exception("ensemble sample %d failed; skipping", i)
                n_skipped += 1
    if n_skipped > MAX_SKIP_FRACTION * spec.n_samples:
        raise NumericalError(f"{n_skipped} of {spec.n_samples} ensemble samples skipped, over {MAX_SKIP_FRACTION:.0%}")
    return EnsembleResult(t_us=t_us, mean_fz=total / (spec.n_samples - n_skipped), n_skipped=n_skipped,
                          n_nodes=n_nodes, max_residual_er=float(residual.max()))
