"""Unitary time evolution in the q=0 Bloch coefficient basis.

Static propagation uses the spectral decomposition of the Bloch
Hamiltonian; field ramps use piecewise-frozen stepping where each step
applies the spectral exponential of the midpoint-field Hamiltonian, so
every step is exactly unitary.  Ramp accuracy is certified by step
doubling and the step is auto-halved until the certification passes.
A ramp keeps only its final state.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .bands import (CONTINUATION_VECTORS, WannierDoublet, _zeeman_block, q0_continuation, q0_sectors, solve_q0,
                    wannier_doublet)
from .errors import ConvergenceError, NumericalError
from .lattice import LatticeConfig

log = logging.getLogger("dwsim")

STEP_DOUBLING_TOL = 1e-6
MAX_HALVINGS = 8
TAIL_WEIGHT = 1e-24  # weight of |L> left out of a static evolution, so each state is within 1e-12
GRAM_BLOCK = 8192  # entries of c(t) a Gram-form evolution forms at once, over all samples and pairs
ADIABATICITY_POINTS = 50  # instantaneous spectra sampled per ramp segment
SUDDEN_THRESHOLD = 0.5  # duration * epsilon below this counts as sudden
ADIABATIC_THRESHOLD = 0.1  # ground-to-excited rate figure below this counts as adiabatic


@dataclass(frozen=True)
class PrepareBlock:
    """The [prepare] section: the two ramp durations, the holding B_z and
    the requested ramp step."""

    bx_ramp_us: float = 250.0
    bz_ramp_us: float = 70.0
    bz_start_mg: float = -100.0
    dt_us: float = 0.5

    def __post_init__(self) -> None:
        if self.bx_ramp_us <= 0 or self.bz_ramp_us <= 0 or self.dt_us <= 0:
            raise ValueError("ramp durations and dt_us must be positive")


def output_times(t_max_us: float, dt_out_us: float) -> np.ndarray:
    """Output instants k * dt_out_us from 0 to t_max_us, the end included
    when it lies within half a step of the grid."""
    return np.arange(0.0, t_max_us + 0.5 * dt_out_us, dt_out_us)


@dataclass(frozen=True)
class Segment:
    """One linear-interpolation ramp segment."""

    duration_us: float
    bx_start_mg: float
    bx_end_mg: float
    bz_start_mg: float
    bz_end_mg: float

    def __post_init__(self) -> None:
        if self.duration_us <= 0:
            raise ValueError(f"segment duration must be positive, got {self.duration_us}")

    def fields_at(self, t_us: float) -> tuple[float, float]:
        s = t_us / self.duration_us
        return (
            self.bx_start_mg + (self.bx_end_mg - self.bx_start_mg) * s,
            self.bz_start_mg + (self.bz_end_mg - self.bz_start_mg) * s,
        )

    @property
    def rates_per_us(self) -> tuple[float, float]:
        return (
            (self.bx_end_mg - self.bx_start_mg) / self.duration_us,
            (self.bz_end_mg - self.bz_start_mg) / self.duration_us,
        )


def preparation_schedule(cfg: LatticeConfig, block: PrepareBlock) -> tuple[Segment, Segment]:
    """Two-stage protocol of ``block``: ramp B_x on while a large holding
    B_z pins the stretched spin state, then ramp B_z to the config value.

    The default holding field is -100 mG: with g_F > 0 the negative sign
    makes m_F = +F the lowest Zeeman manifold, and its magnitude exceeds
    the fictitious-field amplitude so the longitudinal field never
    changes sign across the lattice period.
    """
    return (
        Segment(block.bx_ramp_us, 0.0, cfg.bx_mg, block.bz_start_mg, block.bz_start_mg),
        Segment(block.bz_ramp_us, cfg.bx_mg, cfg.bx_mg, block.bz_start_mg, cfg.bz_mg),
    )


@dataclass(frozen=True)
class TimeSeries:
    """Time-indexed observables of one static propagation run; no state is kept.

    Projections p_l / p_r are onto the localized states of the doublet
    the run starts from; leakage = 1 - p_l - p_r."""

    t_us: np.ndarray
    p_l: np.ndarray
    p_r: np.ndarray
    leakage: np.ndarray
    fz: np.ndarray
    p_m: np.ndarray


def _as_coefficients(cfg: LatticeConfig, psi0: np.ndarray) -> np.ndarray:
    psi0 = np.asarray(psi0)
    d_total = (2 * cfg.n_planewaves + 1) * cfg.spin.dim
    if psi0.shape != (d_total,):
        raise ValueError(f"psi0 must be a length-{d_total} coefficient vector, got shape {psi0.shape}")
    psi0 = psi0.astype(complex)
    norm = np.linalg.norm(psi0)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"psi0 not normalized: |psi0| = {norm:.8f}")
    return psi0


def _gram_form(vecs: np.ndarray, dim: int, rates: np.ndarray, a: np.ndarray, t_us: np.ndarray,
               weights: np.ndarray | None = None) -> np.ndarray:
    """Re(c^H V_m^H V_m c), V_m the rows of spin component m, c(t) = exp(-i rates t) a, per sample (leading axis) of
    ``vecs`` (n, D, k), ``rates``, ``a`` (n, k): (n, dim, nt), or (n, 1, nt) with V_m^H V_m summed with ``weights``
    over m first.  Gram matrices are formed a sample at a time and c GRAM_BLOCK entries at a time, to bound memory."""
    rows = vecs.reshape(len(vecs), -1, dim, vecs.shape[-1]).transpose(0, 2, 1, 3)  # V_m, (n, dim, n_pw, k)
    gram = np.stack([r.conj().transpose(0, 2, 1) @ r for r in rows])  # V_m^H V_m, (n, dim, k, k)
    gram = gram if weights is None else np.einsum("nmjk,m->njk", gram, weights)[:, None]
    p = np.empty(gram.shape[:2] + t_us.shape)
    step = max(1, GRAM_BLOCK // rates.size)  # times per block
    for s in range(0, len(t_us), step):
        c = (np.exp(-1j * (rates[..., None] * t_us[s : s + step])) * a[..., None])[:, None]  # (n, 1, k, times)
        gram_c = gram @ c
        p[..., s : s + step] = (c.real * gram_c.real + c.imag * gram_c.imag).sum(axis=-2)
    return p


def _static_evolution(cfg: LatticeConfig, t_us: np.ndarray, vals: np.ndarray, vecs: np.ndarray, psi0: np.ndarray):
    """Evolve ``psi0`` in the eigenpairs ``vals``, ``vecs`` of the static H of ``cfg``: of those, the fewest lowest k
    whose tail weight sum_{j>=k} |a_j|^2 of a = V^H psi0 is at most TAIL_WEIGHT are kept, so every state is within
    1e-12 of the full evolution.  With c(t) = exp(-i E t) a over the k pairs, p_m is formed the cheaper way: while
    dim k < D by ``_gram_form``, with no state formed (dim k^2 per time), else as sum |V_m c|^2 over the states V c
    (D k per time).  Returns V (D, k), c (k, nt) and p_m (nt, dim)."""
    a = vecs.conj().T @ psi0
    k = int(np.count_nonzero(np.cumsum(np.abs(a[::-1]) ** 2) > TAIL_WEIGHT))  # tail weights, reversed
    vecs = vecs[:, :k]
    rates = vals[:k] * cfg.species.rad_per_us_per_er()
    c = np.exp(-1j * np.outer(rates, t_us)) * a[:k, None]  # (k, nt)
    if cfg.spin.dim * k < len(vecs):
        p_m = _gram_form(vecs[None], cfg.spin.dim, rates[None], a[None, :k], t_us)[0].T
    else:
        psi = (vecs @ c).reshape(-1, cfg.spin.dim, len(t_us))  # V c, (n_pw, dim, nt)
        p_m = (psi.real ** 2 + psi.imag ** 2).sum(axis=0).T
    return vecs, c, p_m


def propagate_static(cfg: LatticeConfig, t_us: np.ndarray, doublet: WannierDoublet) -> TimeSeries:
    """Evolve the doublet's |L> under the static q=0 Bloch Hamiltonian of ``cfg`` by ``_static_evolution``,
    projecting on its |L> and |R>, up to a global phase exp(-i E_S t) no observable sees.  The pairs are the
    doublet's V = [|S>, |A>] if ``doublet.cfg`` is ``cfg`` (at any B_z) up to ``n_q`` and ``z_points``, which do
    not enter H(0), else every eigenpair of ``solve_q0(cfg)``.  fz = sum_m m p_m, and p_l, p_r = |<L|V c|^2,
    |<R|V c|^2 from the k-vectors <L|V, <R|V.  A doublet of another basis size raises ValueError."""
    coef_l = _as_coefficients(cfg, doublet.coef_l)
    v = np.stack([doublet.coef_s, doublet.coef_a], axis=1)
    own = doublet.cfg.replace(n_q=cfg.n_q, z_points=cfg.z_points) == cfg
    vals, vecs = (np.array([0.0, doublet.epsilon_er]), v) if own else solve_q0(cfg)
    t_us = np.asarray(t_us, dtype=float)
    vecs, c, p_m = _static_evolution(cfg, t_us, vals, vecs, coef_l)
    p_l, p_r = (np.abs((coef.conj() @ vecs) @ c) ** 2 for coef in (doublet.coef_l, doublet.coef_r))
    return TimeSeries(t_us=t_us, p_l=p_l, p_r=p_r, leakage=1.0 - p_l - p_r, fz=p_m @ cfg.spin.m_values, p_m=p_m)


def _schedule_steps(schedule: tuple[Segment, ...], dt_us: float):
    """Return (h, bx_mid, bz_mid) for every step over all segments."""
    steps = []
    for seg in schedule:
        n = max(1, math.ceil(seg.duration_us / dt_us))
        h = seg.duration_us / n
        for k in range(n):
            bx, bz = seg.fields_at((k + 0.5) * h)
            steps.append((h, bx, bz))
    return steps


def _run_steps(cfg, steps, psi):
    """Step psi through ``steps`` and return the final state."""
    w = cfg.species.rad_per_us_per_er()
    for h, bx, bz in steps:
        vals, vecs = solve_q0(cfg.replace(bx_mg=bx, bz_mg=bz))
        psi = vecs @ (np.exp(-1j * vals * w * h) * (vecs.conj().T @ psi))
    return psi


def propagate_ramp(
    cfg: LatticeConfig,
    schedule: tuple[Segment, ...],
    psi0: np.ndarray,
    dt_us: float,
) -> tuple[np.ndarray, float, float]:
    """Propagate through a field ramp with midpoint-frozen spectral steps;
    return the final state, the accepted dt and its step-doubling infidelity.

    Certification reruns the schedule at dt/2 and requires the final
    states to agree to 1e-6 in fidelity, halving dt (up to 8 times)
    until they do.  Each step size runs once, and the state returned is
    that of the accepted dt pass.

    Raises
    ------
    ConvergenceError
        If certification still fails at the smallest step, reporting
        both final states' disagreement.
    """
    if dt_us <= 0:
        raise ValueError(f"dt_us must be positive, got {dt_us}")
    psi0 = _as_coefficients(cfg, psi0)

    dt = float(dt_us)
    psi = _run_steps(cfg, _schedule_steps(schedule, dt), psi0)
    for _ in range(MAX_HALVINGS):
        fine = _run_steps(cfg, _schedule_steps(schedule, dt / 2), psi0)
        cert_infid = float(1.0 - np.abs(psi.conj() @ fine) ** 2)
        if cert_infid < STEP_DOUBLING_TOL:
            break
        dt /= 2
        psi = fine
    else:
        raise ConvergenceError(
            f"ramp step-doubling certification failed: dt={2 * dt} us and dt/2 "
            f"final states disagree (infidelity {cert_infid:.3e} >= {STEP_DOUBLING_TOL})"
        )
    return psi, dt, cert_infid


@dataclass(frozen=True)
class SegmentReport:
    duration_us: float
    eps_times_duration: float
    sudden_internal: bool
    fom_internal: float
    fom_ground_to_excited: float
    fom_upper_to_excited: float
    adiabatic_excited: bool
    min_gap_doublet_excited_er: float


@dataclass(frozen=True)
class AdiabaticityReport:
    """Rate-vs-gap diagnostics along a ramp.

    The Landau-Zener-style figure of merit is max_t |<i| dH/dt |j>| /
    (E_j - E_i)^2 with energies in angular-frequency units.  The
    classification channel for leakage out of the protocol manifold is
    ground band -> next excited band; the upper-doublet channel is
    reported as a diagnostic.  Thresholds are recorded in the report:
    a segment is 'sudden' w.r.t. the doublet when duration * epsilon <
    0.5 and 'adiabatic' w.r.t. excited bands when the ground-channel
    figure is below 0.1.
    """

    segments: tuple[SegmentReport, ...]
    epsilon_hz: float
    min_gap_doublet_excited_er: float
    gap_at_end_er: float
    sudden_threshold: float = SUDDEN_THRESHOLD
    adiabatic_threshold: float = ADIABATIC_THRESHOLD


def adiabaticity_report(cfg: LatticeConfig, schedule: tuple[Segment, ...], epsilon_hz: float) -> AdiabaticityReport:
    """Spectra and rate figures at ADIABATICITY_POINTS instants of each segment; a segment is sudden against the
    doublet splitting ``epsilon_hz``.  H(0) is affine in t on a segment, so the 3 lowest pairs at its instants come
    from ``q0_continuation`` of the sectors at its first instant with B_z != 0 and their slope to its last (its two
    ends if none has): one K P form through a B_z = 0 end or crossing, and certified Ritz pairs or exact ones.  Each
    segment's node count and exact instants are logged at INFO."""
    w = cfg.species.rad_per_us_per_er()
    seg_reports = []
    for k, seg in enumerate(schedule):
        t = np.linspace(0.0, seg.duration_us, ADIABATICITY_POINTS)
        tilted = [ti for ti in t if seg.fields_at(ti)[1] != 0.0] or [t[0], t[-1]]
        t0, t1 = tilted[0], tilted[-1]
        first, last = (q0_sectors(cfg.replace(bx_mg=bx, bz_mg=bz)) for bx, bz in map(seg.fields_at, (t0, t1)))
        slopes = [(b - a) / (t1 - t0) for a, b in zip(first.matrices, last.matrices)]
        vals, vecs, _, n_nodes, exact = q0_continuation(first, slopes, t - t0, CONTINUATION_VECTORS, 3)
        log.info("adiabaticity segment %d: %d nodes, instants %s solved exactly", k, n_nodes, exact.tolist())
        # dH/dt is the same on-site block in every plane wave (rad/us^2)
        h_dot_v = np.einsum("st,nptk->npsk", _zeeman_block(cfg, *seg.rates_per_us) * w,
                            vecs.reshape(len(t), -1, cfg.spin.dim, 3)).reshape(vecs.shape)
        m = np.abs(vecs.conj().transpose(0, 2, 1) @ h_dot_v)
        e_w = vals * w
        fom12, fom13, fom23 = (float(np.max(m[:, i, j] / (e_w[:, j] - e_w[:, i]) ** 2))
                               for i, j in ((0, 1), (0, 2), (1, 2)))
        gaps = vals[:, 2] - vals[:, 1]
        eps_dur = epsilon_hz * seg.duration_us * 1e-6
        seg_reports.append(SegmentReport(
            duration_us=seg.duration_us, eps_times_duration=eps_dur, sudden_internal=bool(eps_dur < SUDDEN_THRESHOLD),
            fom_internal=fom12, fom_ground_to_excited=fom13, fom_upper_to_excited=fom23,
            adiabatic_excited=bool(fom13 < ADIABATIC_THRESHOLD), min_gap_doublet_excited_er=float(gaps.min())))
    return AdiabaticityReport(segments=tuple(seg_reports), epsilon_hz=float(epsilon_hz), gap_at_end_er=float(gaps[-1]),
                              min_gap_doublet_excited_er=min(s.min_gap_doublet_excited_er for s in seg_reports))


@dataclass(frozen=True)
class PreparationResult:
    fidelity_l: float
    p_r: float
    doublet_population: float
    initial_stretched_population: float
    dt_us: float
    step_doubling_infidelity: float
    report: AdiabaticityReport


def prepare_ground_l(cfg: LatticeConfig, block: PrepareBlock) -> PreparationResult:
    """Run the state-preparation protocol of ``block`` and report fidelities
    against the B_z = 0 doublet of ``cfg``.

    The initial state is the lowest q=0 state at the schedule's starting
    fields.  B_x is 0 there, so F_z commutes with H(0) and that state is the
    ground state of the stretched-state (m_F = +F) potential when the
    holding field makes m_F = +F the lowest Zeeman manifold.  If its
    stretched-spin population is below 0.9, the holding field is unsuitable
    and a NumericalError is raised.
    """
    schedule = preparation_schedule(cfg, block)
    _, vecs = solve_q0(cfg.replace(bx_mg=schedule[0].bx_start_mg, bz_mg=schedule[0].bz_start_mg), 1)
    psi0 = vecs[:, 0]
    dim = cfg.spin.dim
    band0_top = float(np.sum(np.abs(psi0.reshape(-1, dim)[:, dim - 1]) ** 2))
    if band0_top < 0.9:
        raise NumericalError(
            f"lowest band at the starting fields has only {band0_top:.3f} "
            f"m_F=+{cfg.species.f:g} population; pick a holding B_z that makes "
            "the stretched state the ground manifold"
        )

    doublet = wannier_doublet(cfg.replace(bz_mg=0.0))
    psi, dt, cert_infid = propagate_ramp(cfg, schedule, psi0, block.dt_us)
    p_l, p_r = (float(np.abs(coef.conj() @ psi) ** 2) for coef in (doublet.coef_l, doublet.coef_r))
    return PreparationResult(
        fidelity_l=p_l,
        p_r=p_r,
        doublet_population=p_l + p_r,
        initial_stretched_population=band0_top,
        dt_us=dt,
        step_doubling_infidelity=cert_infid,
        report=adiabaticity_report(cfg, schedule, doublet.epsilon_hz),
    )
