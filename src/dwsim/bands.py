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

from .errors import ConvergenceError, NumericalError
from .lattice import LatticeConfig, double_well_geometry, potential_coefficients

log = logging.getLogger("dwsim")

MAX_DIMENSION = 10_000
CERTIFY_EXTRA_PLANEWAVES = 8
CERTIFY_RTOL = 1e-3
RESIDUAL_PROBE_START, RESIDUAL_PROBE_STEP = 8, 4  # bases N_s = 8, 12, ..., with N, up to N + 8 per side
RESIDUAL_ER = 1e-6  # residual cap: E_R on an energy, relative on the doublet gap
CONTINUATION_NODES = (5, 9, 17)  # Chebyshev-Lobatto nodes in q, nested: refining m nodes adds m - 1
CONTINUATION_VECTORS = 12  # lowest eigenvectors kept per node, at least n_bands + 1
NODE_COUNTS = (9, 17, 33)  # q = 0 continuation's Chebyshev-Lobatto nodes, nested: refining m nodes adds m - 1
RITZ_RESIDUAL_ER = 1e-10  # a q = 0 Ritz pair with ||Hx - theta x|| above this is solved exactly
RANK_RTOL = 1e-14  # basis directions below this share of the largest singular value are dropped
# Doublet-gap residual below this is eigensolver rounding (~eps * ||H||), not truncation.
GAP_ROUNDING_ER = 1e-10
FLATNESS_WARN = 0.2


@dataclass(frozen=True)
class BandSolution:
    """Band energies over a quasimomentum grid; no Bloch spinors are kept.

    energies[k, b] is the b-th ascending band energy (E_R) at q_grid[k].
    ``epsilon_hz`` is the q-averaged ground-doublet gap and ``flatness`` the
    per-band (max-min over q) width over it, both nan below 2 bands.
    ``n_planewaves_solved`` is the basis N_s <= N + 8 (plane waves per side)
    the energies come from; ``edge_residual_er`` the largest residual
    certifying them, of a pair zero-padded into any larger basis.
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
        raise NumericalError(f"basis dimension {(2 * n_side + 1) * len(onsite)} exceeds limit {MAX_DIMENSION}")
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


def _drift_tolerance(energies: np.ndarray, mean_gap: float) -> np.ndarray:
    """delta_k, a cap on the residual of energy k: CERTIFY_RTOL |E_k| / 2 and, for the doublet pair, at most
    (CERTIFY_RTOL |mean gap| + GAP_ROUNDING_ER) / 2, each over 1 + CERTIFY_RTOL.  It is tighter than RESIDUAL_ER
    only for |E_k| < 2e-3 E_R or a mean gap under 1e-7 E_R, and decides no band solve of the tests or the bundle
    digests (ROADMAP item 6)."""
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
    """``_projected_pairs`` (n_ritz lowest) of each sector ``matrices[i] + x slopes[i]`` (``_affine``: a 1-D slope is a
    diagonal) by eigenvector continuation: in the basis of its k lowest eigenvectors at m Chebyshev-Lobatto nodes over
    x (``known``: node -> (values, vectors) per sector, else solved), k = n_vectors at the first m and m_0 n_vectors
    / m, at least n_ritz + 1, at refined ones.  m runs through ``node_counts`` while ``failing(sectors)`` flags as
    many x as the m - 1 nodes refining adds, or more.  Each x still flagged, and each of a grid of at most m_0, takes
    its exact pairs, solved once per distinct x, interior residual 0; with every slope 0, x[0]'s pairs serve every x.
    Returns sectors, node count, exact x indices."""
    if len(x) > 1 and not any(np.any(b) for b in slopes):  # one matrix at every x
        sectors, _, _ = ritz_continuation(matrices, slopes, x[:1], node_counts, n_vectors, n_ritz, failing, known)
        return [tuple(np.repeat(p, len(x), axis=0) for p in s) for s in sectors], 0, np.arange(len(x))
    cache = dict(known or {})

    def solve(xs):  # each abscissa of xs not cached yet, once; copies, so none keeps its full eigenvector matrix
        cache.update({xi: [tuple(p[..., :n_vectors].copy() for p in np.linalg.eigh(_affine(a, b, xi)))
                           for a, b in zip(matrices, slopes)] for xi in set(xs) - set(cache)})

    n_nodes, exact = 0, np.arange(len(x))
    for m in node_counts if len(x) > node_counts[0] else ():
        nodes = np.sort(np.interp(np.cos(np.pi * np.arange(m) / (m - 1)), [-1.0, 1.0], [x.min(), x.max()]))
        nodes = nodes[np.r_[True, nodes[1:] != nodes[:-1]]]  # np.unique's values, without importing numpy.ma
        solve(nodes)
        k = max(n_ritz + 1, n_vectors * node_counts[0] // m)  # refining keeps the basis size
        sectors = [_projected_pairs(a, b, np.hstack([cache[node][i][1][:, :k] for node in nodes]), x, n_ritz)
                   for i, (a, b) in enumerate(zip(matrices, slopes))]
        n_nodes, exact = len(nodes), np.flatnonzero(failing(sectors))
        if not len(exact) or m - 1 > len(exact):
            break
    if not n_nodes:
        sectors = [(np.empty((len(x), n_ritz)), np.empty((len(x), len(a), n_ritz), np.result_type(a, b)),
                    np.empty((len(x), n_ritz))) for a, b in zip(matrices, slopes)]
    solve(x[exact])
    for j in exact:
        for (theta, ritz, residual), (w, v) in zip(sectors, cache[x[j]]):
            theta[j], ritz[j], residual[j] = w[:n_ritz], v[:, :n_ritz], 0.0
    return sectors, n_nodes, exact


def _residual_solve(cfg: LatticeConfig, qs, pair: np.ndarray, n_bands: int):
    """(N_s, energies, largest residual, node count, q solved exactly) at the first N_s = 8, 12, ..., with N, up to
    and including N + CERTIFY_EXTRA_PLANEWAVES per side whose pairs certify at every q, the grid being solved only at
    an N_s whose probe at qs[0] certifies: each ||r_k|| <= min(1e-6 E_R, delta_k) and, from two bands,
    ||r_0|| + ||r_1|| <= 1e-6 |mean gap| + GAP_ROUNDING_ER; else ConvergenceError.  The pairs come from
    ``ritz_continuation`` in q, H(q) - q^2 being affine in q, the probe's pairs as node qs[0]: Ritz pairs, and exact
    ones on a grid of at most CONTINUATION_NODES[0] q and where those fail.  Ritz values lie at or above the N_s levels (Courant-Fischer), and each lies within its
    residual of a level of every larger basis, the zero-padded pair's residual there being ``_edge_residuals``."""
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

    big_n = cfg.n_planewaves + CERTIFY_EXTRA_PLANEWAVES
    for n_side in sorted({*range(RESIDUAL_PROBE_START, big_n, RESIDUAL_PROBE_STEP), cfg.n_planewaves, big_n}):
        if (2 * n_side + 1) * d < n_bands:
            continue
        w, v = np.linalg.eigh(_bloch_matrix(cfg, *blocks, qs[0], n_side))
        certified = passing(w[None, :n_bands], _edge_residuals(raising, v[:, :n_bands])[None], [0])[0]
        v = v[:, :max(CONTINUATION_VECTORS, n_bands + 1)].copy()  # keep only what a node keeps, before the next probe
        if not certified:
            continue
        slope = np.repeat(4.0 * np.arange(-n_side, n_side + 1), d)  # H(q) - q^2 = H(0) + q diag(slope)
        probe = {qs[0]: [(w[: v.shape[1]] - qs[0] ** 2, v)]}  # node qs[0] of H(q) - q^2
        sectors, n_nodes, exact = ritz_continuation([_bloch_matrix(cfg, *blocks, 0.0, n_side)], [slope], qs,
                                                    CONTINUATION_NODES, v.shape[1], n_bands,
                                                    lambda s: ~passing(*ritz_pairs(s), pair), probe)
        energies, residuals = ritz_pairs(sectors)
        if passing(energies, residuals, pair).all():
            return n_side, energies, float(residuals.max()), n_nodes, len(exact)
    raise ConvergenceError(
        f"band energies not certified: no basis of up to N + {CERTIFY_EXTRA_PLANEWAVES} = {big_n} plane waves per "
        f"side brings every residual of n_bands = {n_bands} under the {RESIDUAL_ER:g} cap (E_R per energy, relative "
        "on the doublet gap)")


def solve_bands(cfg: LatticeConfig, n_bands: int) -> BandSolution:
    """Lowest band energies over the quasimomentum grid (energies only), the
    q-averaged doublet gap and the flatness, which logs a warning above 0.2.

    Each +-q pair of the grid is solved once, in real arithmetic under
    ``paper_cos`` or at B_z = 0.  The energies are certified: they are
    those of the first basis N_s <= N + 8 plane waves per side whose
    residuals, of each pair zero-padded into any larger basis, are within
    1e-6 E_R each and, if ``n_bands >= 2``, within 1e-6 relative of the
    q-averaged doublet gap together (``_residual_solve``: Ritz pairs of a
    continuation in q, exact pairs on up to 5 q and where those fail).
    ``edge_residual_er`` is the largest of those residuals.

    Raises
    ------
    ConvergenceError
        If no basis up to N + 8 plane waves per side certifies; the
        message names N + 8 and the residual cap.
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
    n_solved, solved_energies, residual, n_nodes, n_exact = _residual_solve(cfg, solved, pair, n_bands)
    log.info("bands: %d plane waves per side, largest residual %.2e E_R, %d continuation nodes, %d q solved exactly",
             n_solved, residual, n_nodes, n_exact)
    energies = solved_energies[pair]
    mean_gap = float(np.mean(energies[:, 1] - energies[:, 0])) if n_bands >= 2 else np.nan
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
    size = (2 * cfg.n_planewaves + 1) * cfg.spin.dim  # _bloch_matrix's basis, which the sectors span in either form
    if size > MAX_DIMENSION:
        raise NumericalError(f"basis dimension {size} exceeds limit {MAX_DIMENSION}")
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
    offset = potential_coefficients(cfg.replace(u1_er=1.0) if du1 else cfg)[0]
    p = np.arange(n + 1)  # plane waves n = 0..N
    half = _block_tridiagonal(np.zeros_like(onsite) if du1 else onsite, raising,
                              offset + (0.0 * p if du1 else (2.0 * p) ** 2))
    half[d : 2 * d, :d] *= np.sqrt(2.0)
    half[:d, d : 2 * d] *= np.sqrt(2.0)
    keeps = (np.concatenate([np.flatnonzero(s == sigma), np.arange(d, len(half))]) for sigma in sigmas)
    return Q0Sectors(n, u, s, sigmas, tuple(half[np.ix_(keep, keep)] for keep in keeps))


def q0_eigenpairs(form: Q0Sectors, solved, n_vectors: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The ``n_vectors`` lowest (None: all) eigenpairs of each sample (leading axis) of ``solved[i] = (w, v)`` of
    ``form.matrices[i]``, ascending, with only those columns of v mapped to m_F plane waves: (n, k) and (n, D, k)."""
    n, s, d = form.n_side, form.s, len(form.s)
    vals = np.concatenate([w for w, _ in solved], axis=1)
    order = np.argsort(vals, axis=1, kind="stable")[:, :n_vectors]
    # Scatter to plane waves -N..N: x[i, j, N + p, k] is component (p, k) of eigenvector j of sample i.
    x, start = np.zeros((*order.shape, 2 * n + 1, d)), 0
    for sigma, (w, v) in zip(form.sigmas, solved):
        i, j = np.nonzero((order >= start) & (order < start + w.shape[1]))
        v, start = v[i, :, order[i, j] - start], start + w.shape[1]  # (len(i), sector dimension)
        tail = v[:, v.shape[1] - n * d :].reshape(len(i), n, d) / np.sqrt(2.0)
        x[i, j, n + 1 :] = tail
        x[i, j, :n] = (sigma * s * tail)[:, ::-1]
        x[i[:, None], j[:, None], n, np.flatnonzero(s == sigma)] = v[:, : v.shape[1] - n * d]
    u_re_im = np.stack([form.u.real.T, form.u.imag.T], axis=-1).reshape(d, -1)  # x @ u_re_im: (Re, Im) of x @ u.T
    vecs = (x.reshape(-1, d) @ u_re_im).view(complex).reshape(*order.shape, -1)
    return np.take_along_axis(vals, order, axis=1), vecs.transpose(0, 2, 1)


def q0_continuation(form: Q0Sectors, slopes, x: np.ndarray, n_vectors: int, n: int):
    """``solve_q0``'s ``n`` lowest pairs, values (len(x), n) and vectors (len(x), D, n), of the sectors
    ``form.matrices[i] + x slopes[i]`` at every x, by ``ritz_continuation`` from ``n_vectors`` vectors per sector at
    NODE_COUNTS nodes, failing an x whose n lowest pairs over the sectors have a residual over RITZ_RESIDUAL_ER; then
    that largest residual (len(x),), 0 where exact, the node count and the exact x indices."""

    def residual(sectors) -> np.ndarray:
        read = np.argsort(np.hstack([theta for theta, _, _ in sectors]), axis=1, kind="stable")[:, :n]
        return np.take_along_axis(np.hstack([r for _, _, r in sectors]), read, axis=1).max(axis=1)

    sectors, *found = ritz_continuation(form.matrices, slopes, x, NODE_COUNTS, n_vectors, n,
                                        lambda s: residual(s) > RITZ_RESIDUAL_ER)
    return *q0_eigenpairs(form, [(theta, v) for theta, v, _ in sectors], n), residual(sectors), *found


def solve_q0(cfg: LatticeConfig, n_vectors: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors (columns, m_F plane-wave basis) of H(q=0),
    the ``n_vectors`` lowest or all, solved in the real sectors of ``q0_sectors``."""
    form = q0_sectors(cfg)
    vals, vecs = q0_eigenpairs(form, [(w[None], v[None]) for w, v in map(np.linalg.eigh, form.matrices)], n_vectors)
    return vals[0], vecs[0]


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
    NumericalError, and a negative ``barrier_margin_er`` logs a warning.  The
    certified ``solve_bands`` of that grid may come from a basis N_s > N, which
    says nothing of the N basis, so the N-basis doublet must match its q = 0
    energies under the same cap: within RESIDUAL_ER E_R each, and its gap within
    RESIDUAL_ER of the mean gap plus GAP_ROUNDING_ER.

    Raises
    ------
    ConvergenceError
        If the certified ``solve_bands`` of that 4-point grid fails, or the
        N-basis doublet misses its q = 0 energies.
    """
    vals, vecs = solve_q0(cfg, 2)
    bands = solve_bands(cfg.replace(n_q=4), n_bands=2)
    flat = bands.flatness.max()
    if not flat <= FLATNESS_WARN:  # a nan flatness (no gap) raises too
        raise NumericalError(
            f"lowest bands not flat (flatness {flat:.3f} > {FLATNESS_WARN}); "
            "the doublet does not define localized states"
        )
    certified = bands.energies[bands.q_over_kl == 0.0][0]
    drift = float(np.abs(vals - certified).max())
    gap_drift = abs((vals[1] - vals[0]) - (certified[1] - certified[0]))
    mean_gap = float(np.mean(bands.energies[:, 1] - bands.energies[:, 0]))
    if drift > RESIDUAL_ER or gap_drift > RESIDUAL_ER * abs(mean_gap) + GAP_ROUNDING_ER:
        raise ConvergenceError(
            f"q=0 doublet not converged at N={cfg.n_planewaves}: its energies lie up to {drift:.2e} E_R and its gap "
            f"{gap_drift:.2e} E_R from the certified N_s={bands.n_planewaves_solved} ones (cap {RESIDUAL_ER:g}: E_R "
            "per energy, relative on the mean gap)"
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
