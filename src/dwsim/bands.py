"""Bloch Hamiltonian in a plane-wave x spin basis, bands, and the
localized ground-doublet states.

Basis convention: index i = p * (2F+1) + s encodes plane wave
exp(i (q + 2 n k_L) z) with n = p - N, and spin m_F = s - F.  All
Hamiltonians are in recoil units E_R, and every one is assembled by
``_block_tridiagonal`` from the on-site ``_zeeman_block`` and ``_raising_block``:
``_bloch_matrix`` over n = -N..N, ``q0_sectors`` over the half chain n = 0..N.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .lattice import LatticeConfig, double_well_geometry, potential_coefficients

log = logging.getLogger("dwsim")

MAX_DIMENSION = 10_000
CERTIFY_EXTRA_PLANEWAVES = 8
CERTIFY_RTOL = 1e-3
RESIDUAL_PROBE_START, RESIDUAL_PROBE_STEP = 8, 4  # bases N_s = 8, 12, ..., then N, per side
RESIDUAL_ER = 1e-6  # residual cap: E_R on an energy, relative on the doublet gap
CONTINUATION_NODES = (5, 9, 17)  # Chebyshev-Lobatto nodes in q, nested: refining m nodes adds m - 1
CONTINUATION_VECTORS = 12  # lowest eigenvectors kept per node, at least n_bands + 1
RANK_RTOL = 1e-14  # basis directions below this share of the largest singular value are dropped
# Doublet-gap drift below this is eigensolver rounding (~eps * ||H||), not truncation.
GAP_ROUNDING_ER = 1e-10
FLATNESS_WARN = 0.2


@dataclass(frozen=True)
class BandSolution:
    """Band energies over a quasimomentum grid; no Bloch spinors are kept.

    energies[k, b] is the b-th ascending band energy (E_R) at q_grid[k].
    ``epsilon_hz`` is the q-averaged ground-doublet gap and ``flatness`` the
    per-band (max-min over q) width over it, both nan below 2 bands.
    ``n_planewaves_solved`` is the basis N_s <= N (plane waves per side) the
    energies come from; ``edge_residual_er`` the largest residual certifying
    them, of a pair zero-padded into any larger basis, else nan (the N vs N+8
    comparison certified them).
    """

    q_over_kl: np.ndarray
    energies: np.ndarray
    epsilon_hz: float
    flatness: np.ndarray
    n_planewaves_solved: int
    edge_residual_er: float


@dataclass(frozen=True)
class WannierDoublet:
    """Ground-doublet states of one double well, on a spatial grid.

    psi_s/psi_a are the q=0 Bloch spinors of the two lowest bands
    (symmetric/antisymmetric combination), psi_l/psi_r their superpositions
    (S +/- A)/sqrt(2), with the sign of |A> putting centroid(L) left of the
    barrier.  Nothing checks that |R> lies right of it: under paper_cos both
    centroids coincide (ROADMAP item 8).
    coef_* are the same states in the plane-wave coefficient basis.
    ``epsilon_*`` is the q=0 doublet gap.  ``overlap_lr`` is the spatial
    overlap integral of |L> and |R> over one period,
    integral sqrt(rho_L(z) rho_R(z)) dz, where rho is the density summed
    over spin components; 0 for disjoint wells, 1 for identical densities.
    ``barrier_margin_er`` is the barrier height minus the q=0 energy of |A>,
    positive when the doublet is tunnel-split (both levels below it).
    """

    cfg: LatticeConfig
    z_m: np.ndarray
    psi_s: np.ndarray
    psi_a: np.ndarray
    psi_l: np.ndarray
    psi_r: np.ndarray
    coef_s: np.ndarray
    coef_a: np.ndarray
    coef_l: np.ndarray
    coef_r: np.ndarray
    epsilon_er: float
    epsilon_hz: float
    well_center_nm: float
    barrier_nm: float
    centroid_l_nm: float
    centroid_r_nm: float
    overlap_lr: float
    barrier_margin_er: float


def _raising_block(cfg: LatticeConfig) -> np.ndarray:
    """Spin block coupling plane wave n to n+1, in E_R: cos(2 k_L z) gives
    weight 1/2 to the scalar and (paper_cos) fictitious terms; the
    quadrature phase replaces the fictitious weight by -i/2 (sin's e^{+2ikz})."""
    _, scalar, fict_amp = potential_coefficients(cfg)
    weight = 0.5 if cfg.fictitious_phase == "paper_cos" else -0.5j
    return (scalar * np.eye(cfg.spin.dim) + weight * fict_amp * cfg.spin.fz).astype(complex)


def _block_tridiagonal(onsite: np.ndarray, raising: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Block-tridiagonal matrix over plane waves p = 0..len(diagonal) - 1: ``onsite``
    plus ``diagonal[p]`` on diagonal block p, ``raising`` from p to p+1."""
    n_pw, dim = len(diagonal), len(onsite)
    h = np.zeros((n_pw, dim, n_pw, dim), dtype=np.result_type(onsite, raising))
    p = np.arange(n_pw)
    h[p, :, p, :] = onsite
    h[p[1:], :, p[:-1], :] = raising
    h[p[:-1], :, p[1:], :] = raising.conj().T
    h = h.reshape(n_pw * dim, n_pw * dim)
    h[np.diag_indices(n_pw * dim)] += np.repeat(diagonal, dim)
    return h


def _bloch_matrix(cfg: LatticeConfig, onsite: np.ndarray, raising: np.ndarray, q: float, n_side: int) -> np.ndarray:
    """Bloch matrix over plane waves n = -n_side..n_side: ``_block_tridiagonal`` with
    the kinetic (q + 2n)^2 + offset on the diagonal."""
    if (2 * n_side + 1) * len(onsite) > MAX_DIMENSION:
        raise ValueError(f"basis dimension {(2 * n_side + 1) * len(onsite)} exceeds limit {MAX_DIMENSION}")
    kinetic = (q + 2.0 * np.arange(-n_side, n_side + 1)) ** 2 + potential_coefficients(cfg)[0]
    return _block_tridiagonal(onsite, raising, kinetic)


def _zeeman_block(cfg: LatticeConfig, bx_mg: float, bz_mg: float) -> np.ndarray:
    """On-site spin block of the uniform fields (B_x, B_z) in mG, in E_R; with
    rates in mG/us instead of fields it is the block of dH/dt."""
    per_mg = cfg.species.zeeman_er_per_mg()
    return bx_mg * (per_mg * cfg.spin.fx) + bz_mg * (per_mg * cfg.spin.fz)


def q_grid(cfg: LatticeConfig) -> np.ndarray:
    """Quasimomentum samples spanning [-1, 1) in units of k_L."""
    return -1.0 + 2.0 * np.arange(cfg.n_q) / cfg.n_q


def _spin_basis(cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Real-form spin basis (columns of u) and m_F -> -m_F parities s: u = 1, s = 1 under
    paper_cos, else (|m>+|-m>)/sqrt(2), s = +1, and i(|m>-|-m>)/sqrt(2), s = -1, for m > 0."""
    m = cfg.spin.m_values
    if cfg.fictitious_phase == "paper_cos":
        return np.eye(len(m), dtype=complex), np.ones(len(m))
    flip = np.where(m < 0, 1j, 1.0)
    u = np.diag(flip.conj()) + np.flipud(np.diag(flip))
    return u / np.linalg.norm(u, axis=0), np.where(m < 0, -1.0, 1.0)


def _spin_blocks(cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """On-site and raising spin blocks; real under paper_cos, and under
    quadrature_sin at B_z = 0, where m_F -> -m_F composed with conjugation
    is a symmetry squaring to +1 (Dyson 1962), in the basis ``_spin_basis``."""
    onsite = _zeeman_block(cfg, cfg.bx_mg, cfg.bz_mg)
    raising = _raising_block(cfg)
    if cfg.fictitious_phase == "paper_cos" or cfg.bz_mg == 0.0:
        u = _spin_basis(cfg)[0]
        onsite, raising = (u.conj().T @ b @ u for b in (onsite, raising))
        for b in (onsite, raising):
            if np.abs(b.imag).max() > 1e-12 * np.linalg.norm(b):
                raise RuntimeError(f"spin block not real in the real form: residue {np.abs(b.imag).max():.2e}")
        onsite, raising = onsite.real, raising.real
    return onsite, raising


def _band_energies(cfg: LatticeConfig, qs, n_bands: int) -> np.ndarray:
    """Lowest ``n_bands`` energies at each q, without eigenvectors: one ``eigvalsh`` per q."""
    onsite, raising = _spin_blocks(cfg)
    return np.array([
        np.linalg.eigvalsh(_bloch_matrix(cfg, onsite, raising, q, cfg.n_planewaves))[:n_bands] for q in qs
    ])


def _drift_tolerance(energies: np.ndarray, mean_gap: float) -> np.ndarray:
    """delta_k: half the drift of each energy, and of the doublet gap, that the N vs N+8 check accepts."""
    rtol = CERTIFY_RTOL
    delta = 0.5 * rtol * np.abs(energies) / (1.0 + rtol)
    if energies.shape[1] >= 2:
        gap_delta = 0.5 * (rtol * abs(mean_gap) + GAP_ROUNDING_ER) / (1.0 + rtol)
        delta[:, :2] = np.minimum(delta[:, :2], gap_delta)
    return delta


def _edge_residuals(raising: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||raising v_{+n_side}|| (+) ||raising^H v_{-n_side}|| of each column of v (or of a stack of v): H is
    block-tridiagonal in n, so that is all the residual of the zero-padded v in any larger basis adds."""
    up, down = raising @ v[..., -len(raising):, :], raising.conj().T @ v[..., : len(raising), :]
    return np.hypot(np.linalg.norm(up, axis=-2), np.linalg.norm(down, axis=-2))


def _edge_pairs(cfg: LatticeConfig, blocks, qs, n_side: int, n_bands: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and ``_edge_residuals`` of the lowest ``n_bands`` eigenpairs of the ``n_side`` Bloch matrix at each q."""
    onsite, raising = blocks
    energies, residuals = np.empty((len(qs), n_bands)), np.empty((len(qs), n_bands))
    for i, q in enumerate(qs):
        w, v = np.linalg.eigh(_bloch_matrix(cfg, onsite, raising, q, n_side))
        energies[i], residuals[i] = w[:n_bands], _edge_residuals(raising, v[:, :n_bands])
    return energies, residuals


def _affine(a: np.ndarray, b: np.ndarray, x: float) -> np.ndarray:
    """a + x b; a 1-D ``b`` is the diagonal of b, added onto the diagonal of a copy of a (broadcast, it would be
    added to every row)."""
    if b.ndim == 2:
        return a + x * b
    h = a.copy()
    h[np.diag_indices(len(h))] += x * b
    return h


def _projected_pairs(a: np.ndarray, b: np.ndarray, vectors: np.ndarray, x: np.ndarray, n_ritz: int):
    """Lowest ``n_ritz`` Ritz pairs of a + x b (``_affine``) at every x, from one stacked ``eigh`` in the SVD basis
    of ``vectors`` without directions below RANK_RTOL: values, vectors (n_x, D, n_ritz), residuals
    ||(a + x b) v - theta v||."""
    q, sv, _ = np.linalg.svd(vectors, full_matrices=False)
    q = q[:, sv > RANK_RTOL * sv[0]]
    # b q in C order, as b @ q returns it: the Fortran-order q would make qh @ bq round another way
    bq = np.multiply(b[:, None], q, order="C") if b.ndim == 1 else b @ q
    aq, qh = a @ q, q.conj().T
    theta, y = (w[..., :n_ritz] for w in np.linalg.eigh(qh @ aq + x[:, None, None] * (qh @ bq)))
    ritz = q @ y
    residual = aq @ y + x[:, None, None] * (bq @ y) - ritz * theta[:, None, :]
    return theta, ritz, np.linalg.norm(residual, axis=1)


def ritz_continuation(matrices, slopes, x, node_counts, n_vectors: int, n_ritz: int, failing, known=None):
    """``_projected_pairs`` of each sector ``matrices[i] + x slopes[i]`` (``_affine``: a 1-D slope is a diagonal) by
    eigenvector continuation: in the basis of its k lowest eigenvectors at m Chebyshev-Lobatto nodes over x
    (``known``, else solved), k = ``n_vectors`` at the first m and m_0 ``n_vectors`` / m, at least n_ritz + 1, at
    refined ones.  m runs through ``node_counts`` while ``failing(sectors)`` flags as many x as the m - 1 nodes
    refining adds, or more.  Returns sectors and node count."""
    cache = dict(known or {})  # node -> its vectors in each sector
    for m in node_counts:
        nodes = np.sort(np.interp(np.cos(np.pi * np.arange(m) / (m - 1)), [-1.0, 1.0], [x.min(), x.max()]))
        nodes = nodes[np.r_[True, nodes[1:] != nodes[:-1]]]  # np.unique's values, without importing numpy.ma
        for node in set(nodes) - set(cache):  # copies, so no node keeps its full eigenvector matrix
            cache[node] = [np.linalg.eigh(_affine(a, b, node))[1][:, :n_vectors].copy()
                           for a, b in zip(matrices, slopes)]
        k = max(n_ritz + 1, n_vectors * node_counts[0] // m)  # refining keeps the basis size
        sectors = [_projected_pairs(a, b, np.hstack([cache[node][i][:, :k] for node in nodes]), x, n_ritz)
                   for i, (a, b) in enumerate(zip(matrices, slopes))]
        failed = failing(sectors)
        if not failed.any() or m - 1 > failed.sum():
            break
    return sectors, len(nodes)


def _residual_solve(cfg: LatticeConfig, qs, pair: np.ndarray, n_bands: int):
    """(N_s, energies, largest residual, node count, q solved exactly) at the first N_s = 8, 12, ... up to and
    including N per side whose pairs certify at qs[0], if they certify at every q: each ||r_k|| <= min(1e-6 E_R,
    delta_k) and, from two bands, ||r_0|| + ||r_1|| <= 1e-6 |mean gap| + GAP_ROUNDING_ER; else None.  Past
    CONTINUATION_NODES[0] q, the pairs come from ``ritz_continuation`` in q, H(q) - q^2 being affine in q, the
    probe's vectors as node qs[0]; a q they fail takes ``_edge_pairs``.  Ritz values lie at or above the N_s levels
    (Courant-Fischer), and those at or above the N ones (Cauchy interlacing), so a certified grid passes the N vs
    N+8 check."""
    blocks = _spin_blocks(cfg)
    raising, d = blocks[1], len(blocks[0])

    def passing(energies, residuals, rows) -> np.ndarray:  # per q; mean gap over energies[rows]
        gap = float(np.mean(energies[rows, 1] - energies[rows, 0])) if n_bands >= 2 else np.nan
        ok = np.all(residuals <= np.minimum(RESIDUAL_ER, _drift_tolerance(energies, gap)), axis=1)
        if n_bands >= 2:
            ok &= residuals[:, 0] + residuals[:, 1] <= RESIDUAL_ER * abs(gap) + GAP_ROUNDING_ER
        return ok

    def ritz_pairs(sectors):  # energies and residuals of the zero-padded Ritz pairs
        theta, ritz, interior = sectors[0]
        return theta + qs[:, None] ** 2, np.hypot(interior, _edge_residuals(raising, ritz))

    for n_side in [*range(RESIDUAL_PROBE_START, cfg.n_planewaves, RESIDUAL_PROBE_STEP), cfg.n_planewaves]:
        if (2 * n_side + 1) * d < n_bands:
            continue
        w, v = np.linalg.eigh(_bloch_matrix(cfg, *blocks, qs[0], n_side))
        energies, residuals = np.empty((len(qs), n_bands)), np.empty((len(qs), n_bands))
        energies[0], residuals[0] = w[:n_bands], _edge_residuals(raising, v[:, :n_bands])
        v = v[:, :max(CONTINUATION_VECTORS, n_bands + 1)].copy()  # the probe keeps only what a node keeps
        if not passing(energies[:1], residuals[:1], [0])[0]:
            continue
        n_nodes, exact = 0, np.arange(1, len(qs))
        if len(qs) > CONTINUATION_NODES[0]:
            slope = np.repeat(4.0 * np.arange(-n_side, n_side + 1), d)  # H(q) - q^2 = H(0) + q diag(slope)
            sectors, n_nodes = ritz_continuation([_bloch_matrix(cfg, *blocks, 0.0, n_side)], [slope], qs,
                                                 CONTINUATION_NODES, v.shape[1], n_bands,
                                                 lambda s: ~passing(*ritz_pairs(s), pair), {qs[0]: [v]})
            energies, residuals = ritz_pairs(sectors)
            exact = np.flatnonzero(~passing(energies, residuals, pair))
        energies[exact], residuals[exact] = _edge_pairs(cfg, blocks, qs[exact], n_side, n_bands)
        found = n_side, energies, float(residuals.max()), n_nodes, len(exact) if n_nodes else len(qs)
        return found if passing(energies, residuals, pair).all() else None
    return None


def solve_bands(cfg: LatticeConfig, n_bands: int) -> BandSolution:
    """Lowest band energies over the quasimomentum grid (energies only), the
    q-averaged doublet gap and the flatness, which logs a warning above 0.2.

    Each +-q pair of the grid is solved once, in real arithmetic under
    ``paper_cos`` or at B_z = 0.  The energies are certified: they agree
    with those of N+8 plane waves per side to 0.1 % relative, and so does
    the q-averaged doublet gap if ``n_bands >= 2``.  The energies of the
    first basis N_s <= N whose residuals show that they do
    (``_residual_solve``: Ritz pairs of a continuation in q, or eigenpairs
    where those fail), with ``edge_residual_er`` the largest residual of a
    pair zero-padded into any larger basis; else the N-basis ones, once
    the N+8 energies are solved and compared with them.

    Raises
    ------
    ConvergenceError
        If a certification drift exceeds the tolerance; the message
        carries both values.
    """
    qs = q_grid(cfg)
    dim_total = (2 * cfg.n_planewaves + 1) * cfg.spin.dim
    if n_bands > dim_total:
        raise ValueError(f"n_bands={n_bands} exceeds basis dimension {dim_total}")
    # E(q) = E(-q): conjugation maps H(q) to H(-q), as H has no F_y.  Grid
    # index k pairs with (n_q - k) mod n_q; solve the first of each pair.
    idx = np.arange(cfg.n_q)
    pair = np.minimum(idx, -idx % cfg.n_q)
    solved = qs[: pair.max() + 1]
    found = _residual_solve(cfg, solved, pair, n_bands)
    n_solved, solved_energies, residual, n_nodes, n_exact = found or (
        cfg.n_planewaves, _band_energies(cfg, solved, n_bands), np.nan, 0, len(solved))
    log.info("bands: %d plane waves per side, largest residual %.2e E_R, %d continuation nodes, %d q solved exactly",
             n_solved, residual, n_nodes, n_exact)
    energies = solved_energies[pair]
    mean_gap = float(np.mean(energies[:, 1] - energies[:, 0])) if n_bands >= 2 else np.nan
    if found is None:
        big_n = cfg.n_planewaves + CERTIFY_EXTRA_PLANEWAVES
        ref = _band_energies(cfg.replace(n_planewaves=big_n), solved, n_bands)[pair]
        drift = np.abs(energies - ref) / np.maximum(np.abs(ref), 1e-9)
        if np.any(drift > CERTIFY_RTOL):
            k = int(np.argmax(np.any(drift > CERTIFY_RTOL, axis=1)))
            b = int(np.argmax(drift[k]))
            raise ConvergenceError(
                f"band energies not converged at q={qs[k]:.4f} k_L, band {b + 1}: "
                f"N={cfg.n_planewaves} gives {energies[k, b]:.9g} E_R, N={big_n} gives {ref[k, b]:.9g} E_R "
                f"(drift {drift[k, b]:.2e} > {CERTIFY_RTOL})"
            )
        ref_gap = float(np.mean(ref[:, 1] - ref[:, 0])) if n_bands >= 2 else np.nan
        if abs(mean_gap - ref_gap) > CERTIFY_RTOL * abs(ref_gap) + GAP_ROUNDING_ER:  # False for nan
            raise ConvergenceError(
                f"doublet gap not converged: N={cfg.n_planewaves} gives {mean_gap:.9g} E_R, "
                f"N={big_n} gives {ref_gap:.9g} E_R (drift {abs(mean_gap / ref_gap - 1.0):.2e} > {CERTIFY_RTOL})"
            )
    widths = energies.max(axis=0) - energies.min(axis=0)
    flatness = widths / mean_gap if n_bands >= 2 and mean_gap > 0 else np.full(n_bands, np.nan)
    doublet_flatness = np.max(flatness[:2])
    if doublet_flatness > FLATNESS_WARN:
        log.warning("doublet flatness %.3f exceeds %.2f; two-level reduction dubious", doublet_flatness, FLATNESS_WARN)
    return BandSolution(
        q_over_kl=qs,
        energies=energies,
        epsilon_hz=cfg.species.er_to_hz(mean_gap),
        flatness=flatness,
        n_planewaves_solved=n_solved,
        edge_residual_er=residual,
    )


@dataclass(frozen=True)
class Q0Sectors:
    """Real symmetric sectors ``matrices`` of parities ``sigmas`` of H(0) (see ``q0_sectors``)."""

    n_side: int
    u: np.ndarray
    s: np.ndarray
    sigmas: tuple
    matrices: tuple


def q0_sectors(cfg: LatticeConfig, du1: bool = False) -> Q0Sectors:
    """H(0), or with ``du1`` dH(0)/dU_1, as real sectors: H(0) is affine in U_1, and
    H(U_1) = H(U_1') + (U_1 - U_1') dH(0)/dU_1 sector by sector.  H(0) commutes with a
    parity (n, k) -> (-n, s_k k) in a real spin basis u, and each parity sigma is the real
    ``_block_tridiagonal`` over n = 0..N keeping the n = 0 states with s_k = sigma, with sqrt(2) * raising
    from n = 0 to 1.  Real ``_spin_blocks`` take u, s of ``_spin_basis``; complex ones are
    realified to [[Re, -Im], [Im, Re]], u = [I, iI], s = (+1, -1), where the parity is K P
    (conjugation, n -> -n; Dyson 1962) and sigma = +1 alone has H(0)'s spectrum.  Raises
    RuntimeError if a spin block breaks the parity."""
    onsite, raising = _spin_blocks(cfg.replace(u1_er=1.0) if du1 else cfg)
    if np.iscomplexobj(raising):
        u, s, sigmas = np.kron([[1.0, 1j]], np.eye(len(onsite))), np.repeat([1.0, -1.0], len(onsite)), (1.0,)
        onsite, raising = (np.block([[b.real, -b.imag], [b.imag, b.real]]) for b in (onsite, raising))
    else:
        (u, s), sigmas = _spin_basis(cfg), (1.0, -1.0)
    for b, image in ((onsite, s[:, None] * onsite * s), (raising, s[:, None] * raising.T * s)):
        if np.abs(b - image).max() > 1e-12 * np.linalg.norm(b):
            raise RuntimeError(f"spin block does not commute with parity: residue {np.abs(b - image).max():.2e}")
    n, d = cfg.n_planewaves, len(onsite)
    if (2 * n + 1) * d > MAX_DIMENSION:
        raise ValueError(f"basis dimension {(2 * n + 1) * d} exceeds limit {MAX_DIMENSION}")
    offset = potential_coefficients(cfg.replace(u1_er=1.0) if du1 else cfg)[0]
    p = np.arange(n + 1)  # plane waves n = 0..N
    half = _block_tridiagonal(np.zeros_like(onsite) if du1 else onsite, raising,
                              offset + (0.0 * p if du1 else (2.0 * p) ** 2))
    half[d : 2 * d, :d] *= np.sqrt(2.0)
    half[:d, d : 2 * d] *= np.sqrt(2.0)
    keeps = (np.concatenate([np.flatnonzero(s == sigma), np.arange(d, len(half))]) for sigma in sigmas)
    return Q0Sectors(n, u, s, sigmas, tuple(half[np.ix_(keep, keep)] for keep in keeps))


def q0_eigenpairs(form: Q0Sectors, solved, n_vectors: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The ``n_vectors`` lowest (None: all) of the eigenpairs ``solved[i] = (w, v)`` of
    ``form.matrices[i]``, ascending, with only those columns of v mapped to m_F plane waves."""
    n, s, d = form.n_side, form.s, len(form.s)
    vals = np.concatenate([w for w, _ in solved])
    order = np.argsort(vals, kind="stable")[:n_vectors]
    # Scatter to plane waves -N..N: x[j, N + p, k] is component (p, k) of eigenvector j.
    x, start = np.zeros((len(order), 2 * n + 1, d)), 0
    for sigma, (w, v) in zip(form.sigmas, solved):
        rows = np.flatnonzero((order >= start) & (order < start + len(w)))
        v, start = v[:, order[rows] - start], start + len(w)
        tail = v[len(v) - n * d :].T.reshape(len(rows), n, d) / np.sqrt(2.0)
        x[rows, n + 1 :] = tail
        x[rows, :n] = (sigma * s * tail)[:, ::-1]
        x[rows[:, None], n, np.flatnonzero(s == sigma)] = v[: len(v) - n * d].T
    u_re_im = np.stack([form.u.real.T, form.u.imag.T], axis=-1).reshape(d, -1)  # x @ u_re_im: (Re, Im) of x @ u.T
    return vals[order], (x.reshape(-1, d) @ u_re_im).view(complex).reshape(len(order), -1).T


def solve_q0(cfg: LatticeConfig, n_vectors: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors (columns, m_F plane-wave basis) of H(q=0),
    the ``n_vectors`` lowest or all, solved in the real sectors of ``q0_sectors``."""
    form = q0_sectors(cfg)
    return q0_eigenpairs(form, [np.linalg.eigh(h) for h in form.matrices], n_vectors)


def bloch_to_zgrid(cfg: LatticeConfig, coeffs: np.ndarray) -> np.ndarray:
    """Transform a q=0 coefficient vector to a spinor wavefunction on the
    spatial grid of one period, unit-normalized over the period."""
    n_pts, n = cfg.z_points, cfg.n_planewaves
    # z_j = j * period / n_pts, so 2 n k_L z_j = 2 pi n j / n_pts: an inverse
    # DFT of the coefficients placed at n mod n_pts (summed where they fold).
    spectrum = np.zeros((n_pts, cfg.spin.dim), dtype=complex)
    np.add.at(spectrum, np.arange(-n, n + 1) % n_pts, np.asarray(coeffs).reshape(2 * n + 1, cfg.spin.dim))
    return np.fft.ifft(spectrum, axis=0) * (n_pts / np.sqrt(cfg.period_m))


PHASE_FIX_FLOOR = 1e-6


def _fix_phase(psi_z: np.ndarray, j_anchor: int) -> complex:
    """Phase factor making the largest-magnitude spin component at the
    anchor grid point real positive; 1 when that component is below
    PHASE_FIX_FLOOR times the state's largest magnitude or the state holds
    a NaN."""
    row = psi_z[j_anchor]
    k = np.argsort(np.abs(row))[-1]  # argsort's pick among equal magnitudes, not argmax's
    if np.abs(row[k]) >= PHASE_FIX_FLOOR * np.max(np.abs(psi_z)):
        return np.exp(-1j * np.angle(row[k]))
    log.info("all spin components below phase-fix floor at anchor; leaving phase unchanged")
    return 1.0 + 0.0j


def wannier_doublet(cfg: LatticeConfig) -> WannierDoublet:
    """``localized_doublet`` of the q=0 ground doublet ``solve_q0(cfg, 2)``, with its
    premise checked: bands that are not flat over q = -1, -1/2, 0, 1/2 raise
    ValueError, and a negative ``barrier_margin_er`` logs a warning.

    Raises
    ------
    ConvergenceError
        If the certified ``solve_bands`` of that 4-point grid fails.
    """
    vals, vecs = solve_q0(cfg, 2)
    flat = solve_bands(cfg.replace(n_q=4), n_bands=2).flatness.max()
    if not flat <= FLATNESS_WARN:  # a nan flatness (no gap) raises too
        raise ValueError(
            f"lowest bands not flat (flatness {flat:.3f} > {FLATNESS_WARN}); "
            "the doublet does not define localized states"
        )
    doublet = localized_doublet(cfg, vals, vecs)
    if doublet.barrier_margin_er < 0.0:
        log.warning("|A> lies %.3g E_R above the intra-well barrier; the doublet is not tunnel-split",
                    -doublet.barrier_margin_er)
    return doublet


def localized_doublet(cfg: LatticeConfig, vals: np.ndarray, vecs: np.ndarray) -> WannierDoublet:
    """Construct |S>, |A>, |L>, |R> from the two lowest eigenpairs ``vals``, ``vecs``
    of H(0), as ``solve_q0(cfg, 2)`` returns them, without checking that they are
    a localized doublet.  Global phases: the largest spin component of each state
    at the sigma+ well center is made real positive, then the sign of |A> is chosen
    so that the centroid of |L> = (|S>+|A>)/sqrt(2) lies left of the barrier.  That
    is the only check: the centroid of |R> may lie on the same side (ROADMAP item 8)."""
    eps_er = float(vals[1] - vals[0])

    geom = double_well_geometry(cfg)
    margin = float(geom["barrier_er"] - vals[1])
    z_m = cfg.z_grid_m()
    dz = cfg.period_m / len(z_m)
    j_anchor = int(round(geom["sigma_plus_z_m"] / dz)) % len(z_m)

    psi_s, psi_a = bloch_to_zgrid(cfg, vecs[:, 0]), bloch_to_zgrid(cfg, vecs[:, 1])
    ph_s, ph_a = _fix_phase(psi_s, j_anchor), _fix_phase(psi_a, j_anchor)
    coef_s, coef_a, psi_s, psi_a = vecs[:, 0] * ph_s, vecs[:, 1] * ph_a, psi_s * ph_s, psi_a * ph_a

    psi_l = (psi_s + psi_a) / np.sqrt(2.0)
    psi_r = (psi_s - psi_a) / np.sqrt(2.0)
    coef_l = (coef_s + coef_a) / np.sqrt(2.0)
    coef_r = (coef_s - coef_a) / np.sqrt(2.0)
    rho_l = np.sum(np.abs(psi_l) ** 2, axis=1)
    rho_r = np.sum(np.abs(psi_r) ** 2, axis=1)
    centroid_l = float(np.sum(z_m * rho_l) * dz)
    centroid_r = float(np.sum(z_m * rho_r) * dz)
    if centroid_l > geom["barrier_z_m"]:
        # flipping |A> swaps L and R exactly: s + (-a) and s - a round alike
        coef_a, psi_a = -coef_a, -psi_a
        psi_l, psi_r, coef_l, coef_r = psi_r, psi_l, coef_r, coef_l
        rho_l, rho_r, centroid_l, centroid_r = rho_r, rho_l, centroid_r, centroid_l
    overlap = float(np.sum(np.sqrt(rho_l * rho_r)) * dz)

    return WannierDoublet(
        cfg=cfg,
        z_m=z_m,
        psi_s=psi_s,
        psi_a=psi_a,
        psi_l=psi_l,
        psi_r=psi_r,
        coef_s=coef_s,
        coef_a=coef_a,
        coef_l=coef_l,
        coef_r=coef_r,
        epsilon_er=eps_er,
        epsilon_hz=cfg.species.er_to_hz(eps_er),
        well_center_nm=geom["sigma_plus_z_m"] * 1e9,
        barrier_nm=geom["barrier_z_m"] * 1e9,
        centroid_l_nm=centroid_l * 1e9,
        centroid_r_nm=centroid_r * 1e9,
        overlap_lr=overlap,
        barrier_margin_er=margin,
    )
