import dataclasses
import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dwsim import ConvergenceError, LatticeConfig, NumericalError, cesium_f4, fit_damped_sinusoid, wannier_doublet
from dwsim import bands, ensemble
from dwsim.bands import localized_doublet, q0_sectors, solve_q0
from dwsim.dynamics import _gram_form, _static_evolution, output_times, propagate_static
from dwsim.ensemble import GAUSS_TRUNCATION, EnsembleSpec, ensemble_magnetization, sample_intensity_factor
from dwsim.lattice import double_well_geometry
from test_bands import BOX, _box_cfg
from test_dynamics import _observables, _state_at


@pytest.fixture(scope="module")
def tgrid():
    return np.arange(0.0, 1200.1, 5.0)


GRID = dict(t_max_us=1200.0, dt_out_us=5.0)  # the times of tgrid
SHORT_GRID = dict(t_max_us=95.0, dt_out_us=5.0)  # tgrid[:20]


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(spread=0.6)
    with pytest.raises(ValueError):
        EnsembleSpec(n_samples=0)
    with pytest.raises(ValueError):
        EnsembleSpec(distribution="lognormal")


def factors(spec):
    return np.array([sample_intensity_factor(spec, i) for i in range(spec.n_samples)])


def test_sampling_deterministic_and_truncated(cfg):
    spec = EnsembleSpec(spread=0.05, n_samples=64, seed=99)
    a = factors(spec)
    b = factors(spec)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a - 1.0) <= 0.05 * 3.0 + 1e-12)
    uniform = EnsembleSpec(spread=0.05, n_samples=64, seed=99, distribution="uniform")
    u = factors(uniform)
    assert np.all(np.abs(u - 1.0) <= 0.05 * np.sqrt(3.0) + 1e-12)
    assert not np.array_equal(a, u)


def rabi_fz(cfg, t_us):
    """<F_z>(t) of the rabi experiment, by the oracle: the B_z = 0 |L> of
    wannier_doublet evolved in every eigenpair of H(0) at the B_z of cfg."""
    doublet = wannier_doublet(cfg.replace(bz_mg=0.0))
    return _observables(cfg, t_us, _state_at(cfg, doublet.coef_l, t_us), doublet).fz


@pytest.mark.parametrize("g_f", [0.25, -0.25])
@pytest.mark.parametrize("bz_mg", [0.0, 10.0, 20.0])
def test_zero_spread_equals_single_run(cfg, tgrid, bz_mg, g_f):
    # every sample runs rabi's experiment, with and without a bias field and
    # for either sign of g_F: its B_z = 0 |L> evolved under H(B_z)
    cfg = cfg.replace(bz_mg=bz_mg, species=cesium_f4(g_f=g_f))
    spec = EnsembleSpec(spread=0.0, n_samples=3, seed=1, **GRID)
    result = ensemble_magnetization(cfg, spec)
    np.testing.assert_allclose(result.mean_fz, rabi_fz(cfg, tgrid), atol=1e-10)
    assert result.n_skipped == 0


@pytest.mark.parametrize("n_samples", [3, 8])
def test_zero_spread_solves_its_one_u1_once(cfg, monkeypatch, eigensolves, n_samples):
    # The samples and the base share one U_1, one abscissa of the
    # continuation: its B_z = 0 doublet is solved once per parity sector, and
    # each row evolves from those pairs, so the mean is the one-sample mean
    # summed n times in index order, bit for bit.
    spec = EnsembleSpec(spread=0.0, n_samples=n_samples, seed=1, **SHORT_GRID)
    mean_fz = ensemble_magnetization(cfg, spec).mean_fz
    monkeypatch.undo()
    assert dict(eigensolves) == {("eigh", (112, 112), "f"): 1, ("eigh", (113, 113), "f"): 1}
    single = ensemble_magnetization(cfg, dataclasses.replace(spec, n_samples=1)).mean_fz
    np.testing.assert_array_equal(mean_fz, sum([single] * n_samples) / n_samples)


def test_a_draw_without_a_tilted_double_well_still_runs(cfg):
    # At 20 mG the tilted potential of a draw 2.6 sigma low has lost a well;
    # its sample starts from its B_z = 0 doublet, which has two, and runs.
    cfg = cfg.replace(bz_mg=20.0)
    spec = EnsembleSpec(n_samples=1, seed=316, **SHORT_GRID)
    cfg_0 = cfg.replace(u1_er=cfg.u1_er * sample_intensity_factor(spec, 0))
    with pytest.raises(NumericalError, match="expected a double well"):
        double_well_geometry(cfg_0)
    result = ensemble_magnetization(cfg, spec)
    assert result.n_skipped == 0
    np.testing.assert_allclose(result.mean_fz, rabi_fz(cfg_0, result.t_us), atol=1e-10)


def test_frequency_consistency(cfg):
    spec = EnsembleSpec(spread=0.0, n_samples=1, seed=2, **GRID)
    result = ensemble_magnetization(cfg, spec)
    fit = fit_damped_sinusoid(result.t_us, result.mean_fz)
    eps_hz = wannier_doublet(cfg).epsilon_hz
    assert abs(fit.frequency_hz - eps_hz) / eps_hz < 0.01


def test_all_samples_failing_raises():
    # theta = 0 has no double well at all, so neither the base doublet nor any
    # sample's own can be labelled
    flat = LatticeConfig(u1_er=84.0, theta_deg=0.0, bx_mg=85.0, n_planewaves=10)
    with pytest.raises(NumericalError, match="expected a double well"):
        localized_doublet(flat, *solve_q0(flat, 2))
    spec = EnsembleSpec(spread=0.01, n_samples=5, seed=3, **SHORT_GRID)
    with pytest.raises(RuntimeError):
        ensemble_magnetization(flat, spec)


def test_programming_error_in_a_sample_propagates(cfg, monkeypatch):
    # only numerical failures count as skipped samples; a bug in the batched
    # evolution of the B_z = 0 samples must still surface
    spec = EnsembleSpec(spread=0.05, n_samples=10, seed=4, **SHORT_GRID)

    def broken(*args):
        raise TypeError("bug in sample code")

    monkeypatch.setattr(ensemble, "_gram_form", broken)
    with pytest.raises(TypeError):
        ensemble_magnetization(cfg, spec)


def test_programming_error_in_a_tilted_sample_propagates(cfg, monkeypatch):
    # at B_z != 0 each sample evolves in its own pairs; a bug in one sample out
    # of ten (within the 10 % skip budget) must still surface, a bare
    # ValueError as much as a TypeError
    cfg = cfg.replace(bz_mg=10.0)
    spec = EnsembleSpec(spread=0.05, n_samples=10, seed=4, **SHORT_GRID)
    u1_3 = cfg.u1_er * sample_intensity_factor(spec, 3)
    for bug in (TypeError, ValueError):

        def broken_once(cfg_i, *args):
            if cfg_i.u1_er == u1_3:
                raise bug("bug in sample code")
            return _static_evolution(cfg_i, *args)

        monkeypatch.setattr(ensemble, "_static_evolution", broken_once)
        with pytest.raises(bug, match="bug in sample code"):
            ensemble_magnetization(cfg, spec)


def test_a_tilted_sample_whose_solve_fails_is_skipped(cfg, monkeypatch, caplog):
    # at 10 mG a LinAlgError from the tilted solve of one sample out of ten
    # skips that sample alone, with one logged error naming it, and the mean
    # is that of the other nine
    cfg = cfg.replace(bz_mg=10.0)
    spec = EnsembleSpec(spread=0.05, n_samples=10, seed=4, **SHORT_GRID)
    t_us = output_times(spec.t_max_us, spec.dt_out_us)
    u1, _, vecs, a, _ = aligned_stack(cfg.replace(bz_mg=0.0), spec)

    def failing_once(cfg_i, *n):
        if cfg_i.u1_er == u1[3] and cfg_i.bz_mg != 0.0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve_q0(cfg_i, *n)

    monkeypatch.setattr(ensemble, "solve_q0", failing_once)
    with caplog.at_level(logging.ERROR, logger="dwsim"):
        result = ensemble_magnetization(cfg, spec)
    assert result.n_skipped == 1
    assert [r.getMessage() for r in caplog.records] == ["ensemble sample 3 failed; skipping"]
    total = np.zeros(len(t_us))
    for i in (0, 1, 2, 4, 5, 6, 7, 8, 9):
        cfg_i = cfg.replace(u1_er=u1[i])
        total += _static_evolution(cfg_i, t_us, *solve_q0(cfg_i), vecs[i] @ a[i])[2] @ cfg.spin.m_values
    np.testing.assert_allclose(result.mean_fz, total / 9, rtol=0, atol=1e-14)


def doublet_terms(vals, vecs, fz_diag):
    """eps, F_SS + F_AA and |F_SA| of two q=0 eigenpairs: unchanged by their phases."""
    s, a = vecs.T
    return vals[1] - vals[0], (np.vdot(s, fz_diag * s) + np.vdot(a, fz_diag * a)).real, abs(np.vdot(s, fz_diag * a))


CANONICAL_BOX = dict(u1=84.0, theta=80.0, bx=85.0, bz=0.0, phase="quadrature_sin", n_pw=10, f=4.0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    share=st.floats(0.0, 1.0, exclude_max=True),
    distribution=st.sampled_from(ensemble.DISTRIBUTIONS),
    n_samples=st.integers(10, 12),
    **BOX,
)
@example(share=0.0, distribution="gaussian", n_samples=10, **CANONICAL_BOX)  # spread 0: one node
@example(share=0.5, distribution="uniform", n_samples=10, **dict(CANONICAL_BOX, bz=10.0))
@example(share=0.9, distribution="gaussian", n_samples=12, **dict(CANONICAL_BOX, phase="paper_cos"))
def test_continuation_matches_per_sample_solves(share, distribution, n_samples, u1, theta, bx, bz, phase, n_pw, f):
    # Every certified Ritz doublet is that of the per-sample solve_q0: eps to
    # 1e-10 relative above the eigensolvers' rounding floor, F_SS + F_AA and
    # F_SA to 1e-10, at spreads up to the largest EnsembleSpec accepts; and
    # F_SA with its sign wherever the doublet is oriented by a double well.
    # From 10 samples on the continuation places nodes; 9 or fewer are exact.
    cfg = _box_cfg(u1, theta, bx, bz, phase, n_pw, f)
    largest = 1.0 / GAUSS_TRUNCATION if distribution == "gaussian" else 0.5
    spec = EnsembleSpec(spread=share * largest, n_samples=n_samples, seed=11, distribution=distribution)
    u1s = cfg.u1_er * np.array([sample_intensity_factor(spec, i) for i in range(n_samples)])
    vals, vecs, residuals, n_nodes, _ = ensemble._ritz_doublets(cfg, u1s)
    assert 1 <= n_nodes <= max(bands.NODE_COUNTS)
    if u1s.min() == u1s.max():
        assert n_nodes == 1
    fz_diag = np.tile(cfg.spin.m_values, 2 * cfg.n_planewaves + 1)
    for u1_i, residual, pair in zip(u1s, residuals, zip(vals, vecs)):
        if residual > bands.RITZ_RESIDUAL_ER:
            continue
        cfg_i = cfg.replace(u1_er=u1_i)
        full = solve_q0(cfg_i, 2)
        floor = 10.0 * np.finfo(float).eps * max(np.linalg.norm(h) for h in q0_sectors(cfg_i).matrices)
        (eps, trace, f_sa), (eps_ref, trace_ref, f_sa_ref) = doublet_terms(*pair, fz_diag), doublet_terms(*full, fz_diag)
        assert abs(eps - eps_ref) <= 1e-10 * abs(eps_ref) + floor
        assert abs(trace - trace_ref) <= 1e-10
        assert abs(f_sa - f_sa_ref) <= 1e-10
        try:
            ref = localized_doublet(cfg_i, *full)
        except NumericalError:  # no double well to orient the doublet by
            continue
        got = localized_doublet(cfg_i, *pair)
        assert abs(np.vdot(got.coef_s, fz_diag * got.coef_a) - np.vdot(ref.coef_s, fz_diag * ref.coef_a)) <= 1e-10


def test_failed_residuals_fall_back_to_the_per_sample_solve(cfg, monkeypatch):
    # With no residual small enough every pair, the base's too, is replaced by
    # its exact B_z = 0 solve, of residual 0, and aligned like any other: at
    # B_z = 0 and at 10 mG each sample's F_z is that of the propagate_static run
    # of its own localized_doublet, to the bound of the aligned states.  Nine
    # samples and the base are more U_1 than the first 9 nodes, so the
    # continuation runs first.
    monkeypatch.setattr(bands, "RITZ_RESIDUAL_ER", 0.0)
    solved, ritz_doublets = [], ensemble._ritz_doublets
    monkeypatch.setattr(ensemble, "_ritz_doublets", lambda *args: solved.append(ritz_doublets(*args)) or solved[-1])
    spec = EnsembleSpec(spread=0.05, n_samples=9, seed=8, **SHORT_GRID)
    for bz_mg in (0.0, 10.0):
        solved.clear()
        result = ensemble_magnetization(cfg.replace(bz_mg=bz_mg), spec)
        assert result.max_residual_er == 0.0 and result.n_skipped == 0
        (_, _, _, n_nodes, exact), = solved
        assert n_nodes >= 9 and exact.tolist() == list(range(spec.n_samples + 1))
        total = np.zeros(len(result.t_us))
        for u1_i in cfg.u1_er * factors(spec):
            cfg_i = cfg.replace(u1_er=u1_i)
            doublet = localized_doublet(cfg_i, *solve_q0(cfg_i, 2))
            total += propagate_static(cfg_i.replace(bz_mg=bz_mg), result.t_us, doublet).fz
        np.testing.assert_allclose(result.mean_fz, total / spec.n_samples, rtol=0, atol=1e-12)


def batch_fz(cfg, t_us, vals, vecs, a):
    """<F_z>(t) of every row, as ensemble_magnetization evolves them at B_z = 0."""
    rates = (vals - vals[:, :1]) * cfg.species.rad_per_us_per_er()
    return _gram_form(vecs, cfg.spin.dim, rates, a, t_us, cfg.spin.m_values)[:, 0]


def aligned_stack(cfg, spec):
    """The sample U_1 with the base's last, their B_z = 0 doublets, and a and overlaps of ensemble._aligned."""
    u1 = np.append(cfg.u1_er * factors(spec), cfg.u1_er)
    vals, vecs = ensemble._ritz_doublets(cfg, u1)[:2]
    return u1, vals, vecs, *ensemble._aligned(cfg, vals, vecs)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("distribution, spread", [("gaussian", 0.05), ("gaussian", 0.3), ("uniform", 0.45)])
def test_aligned_states_are_the_labelled_ones(cfg, seed, distribution, spread):
    # |L_i> = V_i a_i = (S_i + A_i)/sqrt(2), S_i and A_i phased by <S_0|S_i> and
    # <A_0|A_i>, is localized_doublet's |L> up to a global phase wherever that
    # labels the sample's doublet; and each sample's F_z from the one batched
    # evolution is that of its own propagate_static run from |L_i>.
    spec = EnsembleSpec(spread=spread, n_samples=64, seed=seed, distribution=distribution, **SHORT_GRID)
    t_us = output_times(spec.t_max_us, spec.dt_out_us)
    u1, vals, vecs, a, overlap = aligned_stack(cfg, spec)
    assert overlap.min() >= ensemble.OVERLAP_FLOOR
    base = localized_doublet(cfg, vals[-1], vecs[-1])
    fz = batch_fz(cfg, t_us, vals, vecs, a)
    np.testing.assert_array_equal(ensemble_magnetization(cfg, spec).mean_fz, sum(fz[:-1]) / spec.n_samples)
    for i, u1_i in enumerate(u1[:-1]):
        cfg_i = cfg.replace(u1_er=u1_i)
        coef_l = vecs[i] @ a[i]
        try:
            doublet = localized_doublet(cfg_i, vals[i], vecs[i])
        except NumericalError:  # no double well of its own: it runs from |L_i>
            s_i, a_i = (vecs[i] * a[i] * np.sqrt(2.0)).T
            doublet = dataclasses.replace(base, cfg=cfg_i, coef_s=s_i, coef_a=a_i, coef_l=coef_l,
                                          coef_r=(s_i - a_i) / np.sqrt(2.0), epsilon_er=vals[i][1] - vals[i][0])
        phase = np.vdot(doublet.coef_l, coef_l)
        assert np.linalg.norm(coef_l - phase / abs(phase) * doublet.coef_l) <= 1e-13
        np.testing.assert_allclose(fz[i], propagate_static(cfg_i, t_us, doublet).fz, rtol=0, atol=1e-12)


def test_tilted_aligned_states_run_as_their_labelled_ones(cfg, monkeypatch):
    # At 10 mG each sample evolves its aligned |L_i> in its own tilted pairs:
    # its F_z is that of the propagate_static run of its own localized_doublet,
    # and the ensemble labels only the base doublet.
    cfg = cfg.replace(bz_mg=10.0)
    spec = EnsembleSpec(spread=0.3, n_samples=16, seed=1, **SHORT_GRID)
    t_us = output_times(spec.t_max_us, spec.dt_out_us)
    u1, vals, vecs, a, overlap = aligned_stack(cfg.replace(bz_mg=0.0), spec)
    assert overlap.min() >= ensemble.OVERLAP_FLOOR
    total = np.zeros(len(t_us))
    for i, u1_i in enumerate(u1[:-1]):
        cfg_i = cfg.replace(u1_er=u1_i)
        fz = _static_evolution(cfg_i, t_us, *solve_q0(cfg_i), vecs[i] @ a[i])[2] @ cfg.spin.m_values
        doublet = localized_doublet(cfg_i.replace(bz_mg=0.0), vals[i], vecs[i])
        np.testing.assert_allclose(fz, propagate_static(cfg_i, t_us, doublet).fz, rtol=0, atol=1e-12)
        total += fz
    labelled = []
    monkeypatch.setattr(ensemble, "localized_doublet", lambda *args: labelled.append(args) or localized_doublet(*args))
    np.testing.assert_array_equal(ensemble_magnetization(cfg, spec).mean_fz, total / spec.n_samples)
    assert len(labelled) == 1


def test_a_sample_below_the_overlap_floor_is_skipped(cfg, monkeypatch, caplog):
    # A floor between the two smallest overlaps skips exactly the sample of the
    # smallest, with a logged diagnostic, and the mean is that of the others.
    spec = EnsembleSpec(spread=0.3, n_samples=12, seed=8, **SHORT_GRID)
    _, vals, vecs, a, overlap = aligned_stack(cfg, spec)
    low, next_low = np.argsort(overlap[:-1])[:2]
    monkeypatch.setattr(ensemble, "OVERLAP_FLOOR", (overlap[low] + overlap[next_low]) / 2)
    with caplog.at_level(logging.WARNING, logger="dwsim"):
        result = ensemble_magnetization(cfg, spec)
    assert result.n_skipped == 1
    assert [r.getMessage().split(":")[0] for r in caplog.records] == [f"ensemble sample {low}"]
    fz = batch_fz(cfg, result.t_us, vals, vecs, a)
    np.testing.assert_array_equal(result.mean_fz, sum(fz[i] for i in range(spec.n_samples) if i != low) / 11)


def test_draws_without_their_own_double_well_run(cfg):
    # At a uniform spread of 0.45, 6 of 64 light draws have no double well of
    # their own, so localized_doublet cannot label them; aligned to the base
    # doublet they run, at B_z = 0 and at 10 mG, and none is skipped.
    spec = EnsembleSpec(spread=0.45, n_samples=64, distribution="uniform", **SHORT_GRID)
    n_single = 0
    for u1_i in cfg.u1_er * factors(spec):
        try:
            double_well_geometry(cfg.replace(u1_er=u1_i))
        except NumericalError:
            n_single += 1
    assert n_single == 6
    for bz_mg in (0.0, 10.0):
        assert ensemble_magnetization(cfg.replace(bz_mg=bz_mg), spec).n_skipped == 0


def test_samples_are_paired_with_the_base_by_overlap(cfg):
    # At U_1 = 300 E_R, theta = 90 deg, B_x = 5 mG the doublet gap is at
    # rounding level, and 64 gaussian draws at a spread of 0.33 hold doublets
    # in the other energy order than the base's.  Paired with S_0 and A_0 by
    # overlap, each is swapped, aligned above the floor and none is skipped.
    deep = cfg.replace(u1_er=300.0, theta_deg=90.0, bx_mg=5.0)
    spec = EnsembleSpec(spread=0.33, n_samples=64, **SHORT_GRID)
    _, vals, _, _, overlap = aligned_stack(deep, spec)
    assert np.count_nonzero(vals[:, 1] < vals[:, 0]) and overlap.min() >= ensemble.OVERLAP_FLOOR
    assert ensemble_magnetization(deep, spec).n_skipped == 0


def test_a_mean_without_an_oscillation_is_no_fit(cfg):
    # At B_z = 0 and a uniform spread of 0.45 the light mean F_z holds no
    # oscillation in its 1500 us.  The fit keeps nu in the grid's band, where
    # an alias near -345 per us of nu ~ 0 once ran out of iterations, and
    # names the missing oscillation, with no overflow on the way.
    spec = EnsembleSpec(spread=0.45, n_samples=64, distribution="uniform")
    result = ensemble_magnetization(cfg, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="no oscillation in the window: fitted nu = ") as caught:
            fit_damped_sinusoid(result.t_us, result.mean_fz)
    assert not isinstance(caught.value, ConvergenceError)


def test_a_flat_mean_is_no_fit(cfg):
    # The paired deep ensemble above on the default 1500 us grid: its mean F_z
    # is flat to rounding, where the least-squares optimum is a growing
    # envelope of amplitude ~3e-42, below its own standard error.  The fit
    # names the missing oscillation instead of returning that amplitude.
    deep = cfg.replace(u1_er=300.0, theta_deg=90.0, bx_mg=5.0)
    result = ensemble_magnetization(deep, EnsembleSpec(spread=0.33, n_samples=64))
    with pytest.raises(NumericalError, match="no oscillation in the window: amplitude .* within its standard error"):
        fit_damped_sinusoid(result.t_us, result.mean_fz)


def test_ensemble_holds_no_stacked_copies(cfg):
    # the benchmark's ensemble: 64 light samples, spread 0.05, B_z = 0.  The
    # continuation peaks near 1.5 MiB; the batch adds its F_z and blocks of
    # c(t), where aligned copies of every pair and c(t) over every time pass 2 MiB.
    spec = EnsembleSpec(spread=0.05, n_samples=64)
    ensemble_magnetization(cfg, spec)
    tracemalloc.start()
    try:
        ensemble_magnetization(cfg, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
