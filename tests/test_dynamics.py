import dataclasses
import tracemalloc

import numpy as np
import pytest

from dwsim import (
    ConvergenceError,
    LatticeConfig,
    NumericalError,
    cesium_f4,
    PrepareBlock,
    Segment,
    adiabaticity_report,
    prepare_ground_l,
    preparation_schedule,
    propagate_ramp,
    propagate_static,
    wannier_doublet,
)
from dwsim.bands import NODE_COUNTS, bloch_to_zgrid, localized_doublet, q0_sectors, solve_q0
from dwsim.config import RabiBlock
from dwsim.dynamics import ADIABATICITY_POINTS, TimeSeries, _run_steps, _schedule_steps, output_times
from fourier_oracle import static_observables
from reference_hamiltonian import assemble_bloch_hamiltonian
from spectrum import dominant_frequency_hz


def test_stationary_symmetric_state(cfg, doublet):
    t = np.linspace(0.0, 800.0, 81)
    series = _observables(cfg, t, _state_at(cfg, doublet.coef_s, t), doublet)
    np.testing.assert_allclose(series.p_l, 0.5, atol=1e-8)
    np.testing.assert_allclose(series.p_r, 0.5, atol=1e-8)


def test_rabi_oscillation_period(cfg, doublet):
    eps_hz = doublet.epsilon_hz
    t = np.linspace(0.0, 1.2e6 / eps_hz, 600)
    series = propagate_static(cfg, t, doublet)
    analytic = np.sin(np.pi * eps_hz * t * 1e-6) ** 2
    np.testing.assert_allclose(series.p_r, analytic, atol=1e-4)
    # first maximum of P_R at t = 1/(2 eps)
    t_first = t[np.argmax(series.p_r)]
    assert t_first == pytest.approx(0.5e6 / eps_hz, rel=0.01)
    # norm and energy conservation, doublet closure
    np.testing.assert_allclose(series.p_m.sum(axis=1), 1.0, atol=1e-8)
    ham = assemble_bloch_hamiltonian(cfg, 0.0)
    states = np.stack([_state_at(cfg, doublet.coef_l, t_k) for t_k in t[::100]])
    energy = np.real(np.einsum("kd,kd->k", states.conj(), states @ ham.T))
    drift = np.abs(energy - energy[0]) / abs(energy[0])
    assert drift.max() < 1e-8
    assert series.leakage.max() < 5e-3
    assert series.leakage.min() > -1e-8
    assert np.all((series.p_l >= 0) & (series.p_l <= 1))


def test_quarter_and_half_period_states(cfg, doublet):
    # starting from |L>, the quarter-period state is the equal coherent
    # superposition (|L> + i |R>)/sqrt(2) under this package's sign
    # conventions (centroid(L) < centroid(R) and E_A > E_S force the +i
    # sign); at T/2 the state is |R>.
    eps_hz = doublet.epsilon_hz
    period_us = 1e6 / eps_hz
    series = propagate_static(cfg, np.array([0.0, period_us / 4, period_us / 2]), doublet)
    psi_quarter = _state_at(cfg, doublet.coef_l, period_us / 4)
    sup = (doublet.coef_l + 1j * doublet.coef_r) / np.sqrt(2.0)
    assert np.abs(np.vdot(sup, psi_quarter)) ** 2 > 0.99
    assert series.p_l[1] == pytest.approx(0.5, abs=0.01)
    assert series.p_r[2] > 0.99


def _state_at(cfg, psi0, t_us):
    # the full spectral evolution in every eigenpair of H(0): a state (D,) at a
    # time, or the states (D, nt) at an array of times
    vals, vecs = solve_q0(cfg)
    phases = np.exp(-1j * cfg.species.rad_per_us_per_er() * np.multiply.outer(vals, t_us))
    return vecs @ (phases.T * (vecs.conj().T @ psi0)).T


def _observables(cfg, t_us, psi_t, doublet):
    # the observables of the states psi_t (D, nt), formed from the states
    # themselves: the reference for propagate_static, which forms none
    p_l = np.abs(doublet.coef_l.conj() @ psi_t) ** 2
    p_r = np.abs(doublet.coef_r.conj() @ psi_t) ** 2
    dens = np.abs(psi_t) ** 2
    fz = np.tile(cfg.spin.m_values, 2 * cfg.n_planewaves + 1) @ dens
    p_m = dens.reshape(-1, cfg.spin.dim, dens.shape[1]).sum(axis=0).T
    return TimeSeries(np.asarray(t_us, dtype=float), p_l, p_r, 1.0 - p_l - p_r, fz, p_m)


def test_spectrum_vs_dynamics_frequency(cfg, doublet):
    t = np.linspace(0.0, 4000.0, 4001)
    series = propagate_static(cfg, t, doublet)
    nu = dominant_frequency_hz(t, series.fz)
    assert abs(nu - doublet.epsilon_hz) / doublet.epsilon_hz < 0.01


def test_density_snapshots(cfg, doublet):
    # the evolved density stays normalized over the period; at t=0 it is
    # the left state's, at T/2 the right state's
    period_us = 1e6 / doublet.epsilon_hz
    dz = cfg.period_m / len(doublet.z_m)
    for t_us, psi_ref, atol in ((0.0, doublet.psi_l, 1e-8), (period_us / 2, doublet.psi_r, 1e-3)):
        density = np.sum(np.abs(bloch_to_zgrid(cfg, _state_at(cfg, doublet.coef_l, t_us))) ** 2, axis=1)
        assert density.sum() * dz == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(density, np.sum(np.abs(psi_ref) ** 2, axis=1), atol=atol)


@pytest.mark.parametrize("g_f", [0.25, -0.25])
@pytest.mark.parametrize("bz_mg", [0.0, 10.0, 20.0])
@pytest.mark.parametrize("phase", ["quadrature_sin", "paper_cos"])
def test_doublet_path_equals_the_full_evolution(cfg, phase, bz_mg, g_f):
    # Every observable of propagate_static equals that of the full evolution
    # in all pairs of H(0), for either sign of g_F, from two doublets:
    # - the B_z = 0 doublet that rabi evolves: at B_z = 0 its two pairs, at
    #   B_z != 0 the lowest pairs of solve_q0(cfg) up to the tail weight;
    # - at B_z != 0, the doublet of H(cfg) itself (tilted): its two pairs.
    cfg = cfg.replace(fictitious_phase=phase, bz_mg=bz_mg, species=cesium_f4(g_f=g_f))
    untilted = wannier_doublet(cfg.replace(bz_mg=0.0))
    t = np.linspace(0.0, 2e6 / untilted.epsilon_hz, 101)
    doublets = [untilted] if bz_mg == 0.0 else [untilted, wannier_doublet(cfg)]
    for doublet in doublets:
        series = propagate_static(cfg, t, doublet)
        full = _observables(cfg, t, _state_at(cfg, doublet.coef_l, t), doublet)
        for name in ("p_l", "p_r", "fz", "p_m", "leakage"):
            np.testing.assert_allclose(getattr(series, name), getattr(full, name), rtol=0, atol=1e-12)


@pytest.mark.parametrize("bz_mg", [0.0, 10.0])
@pytest.mark.parametrize("phase", ["quadrature_sin", "paper_cos"])
def test_static_run_matches_the_fourier_grid_oracle(cfg, phase, bz_mg):
    # rabi's experiment, the B_z = 0 |L> evolved under H(B_z), against a
    # propagator on 64 grid points of one period that shares no code with bands
    cfg = cfg.replace(fictitious_phase=phase, bz_mg=bz_mg)
    doublet = wannier_doublet(cfg.replace(bz_mg=0.0))
    t = np.linspace(0.0, 2000.0, 101)
    series = propagate_static(cfg, t, doublet)
    p_l, p_r, fz = static_observables(cfg, doublet.coef_l, doublet.coef_r, t, n_points=64)
    for got, want in ((series.p_l, p_l), (series.p_r, p_r), (series.fz, fz)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "bz_mg, bound_mib",
    [
        # The doublet's k = 2 pairs: dim k < D, so p_m comes from the (dim, 2, n_t) Gram
        # product; the D x n_t states alone would take 3.4 MiB, the call peaks near 0.7 MiB.
        (0.0, 2),
        # ~140 pairs of solve_q0: dim k > D, so p_m comes from the states, without the
        # (dim, k, n_t) Gram product V_m^H V_m c (~20 MiB); the call peaks near 10 MiB.
        (10.0, 16),
    ],
)
def test_static_run_holds_only_its_form(cfg, doublet, bz_mg, bound_mib):
    # rabi's 1,001 output times; each form of p_m is chosen where it holds less
    t = output_times(RabiBlock().t_max_us, RabiBlock().dt_out_us)
    tracemalloc.start()
    try:
        propagate_static(cfg.replace(bz_mg=bz_mg), t, doublet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(t) == 1001
    assert peak <= bound_mib * 2**20


def test_full_path_outside_the_doublet(cfg, doublet, monkeypatch):
    # The doublet's pairs serve only a doublet of H(cfg) itself, at any B_z and
    # any n_q or z_points, which do not enter H(0); otherwise every pair of
    # solve_q0(cfg) is used.
    calls = []

    def counting_solve_q0(solve_cfg):
        calls.append(solve_cfg)
        return solve_q0(solve_cfg)

    monkeypatch.setattr("dwsim.dynamics.solve_q0", counting_solve_q0)
    t = np.linspace(0.0, 100.0, 11)
    tilted = cfg.replace(bz_mg=10.0)
    tilted_doublet = wannier_doublet(tilted)
    regridded = cfg.replace(n_q=33, z_points=512)
    for run_cfg, run_doublet, n_solves in (
        (cfg, doublet, 0), (tilted, doublet, 1), (tilted, tilted_doublet, 0), (regridded, doublet, 0)
    ):
        calls.clear()
        propagate_static(run_cfg, t, run_doublet)
        assert calls == [run_cfg] * n_solves
    same, regridded_run = propagate_static(cfg, t, doublet), propagate_static(regridded, t, doublet)
    for field in dataclasses.fields(TimeSeries):
        np.testing.assert_array_equal(getattr(regridded_run, field.name), getattr(same, field.name))


def test_input_validation(cfg, doublet):
    with pytest.raises(ValueError):  # a doublet of another basis size
        propagate_static(cfg.replace(n_planewaves=10), np.linspace(0, 1, 5), doublet)
    with pytest.raises(ValueError):
        Segment(0.0, 0.0, 0.0, 0.0, 0.0)


def test_near_zero_duration_is_identity(cfg, doublet):
    schedule = (Segment(1e-9, cfg.bx_mg, cfg.bx_mg, 0.0, 0.0),)
    psi = _run_steps(cfg, _schedule_steps(schedule, 1.0), doublet.coef_l)
    assert np.abs(np.vdot(psi, doublet.coef_l)) ** 2 > 1.0 - 1e-12


def test_constant_schedule_matches_static(cfg, doublet):
    duration = 40.0
    schedule = (Segment(duration, cfg.bx_mg, cfg.bx_mg, cfg.bz_mg, cfg.bz_mg),)
    steps = _schedule_steps(schedule, 2.0)
    # the ramp's state after the first k steps, at several k
    ends = (0, 1, 7, 13, len(steps))
    times = [sum(h for h, _, _ in steps[:k]) for k in ends]
    states = np.stack([_run_steps(cfg, steps[:k], doublet.coef_l) for k in ends], axis=1)
    ramp = _observables(cfg, times, states, doublet)
    static = propagate_static(cfg, times, doublet)
    np.testing.assert_allclose(ramp.p_l, static.p_l, atol=1e-8)
    np.testing.assert_allclose(ramp.p_r, static.p_r, atol=1e-8)
    np.testing.assert_allclose(ramp.fz, static.fz, atol=1e-8)
    np.testing.assert_allclose(ramp.p_m.sum(axis=1), 1.0, atol=1e-8)


def test_certified_ramp_keeps_the_accepted_pass(cfg, doublet, monkeypatch):
    # certification runs dt and dt/2 once each (n + 2n step solves of H(0))
    # and returns the final state of the accepted dt pass
    schedule = (Segment(40.0, cfg.bx_mg, cfg.bx_mg, cfg.bz_mg, cfg.bz_mg),)
    n_steps = 20
    calls = []

    def counting_solve_q0(step_cfg):
        calls.append((step_cfg.bx_mg, step_cfg.bz_mg))
        return solve_q0(step_cfg)

    monkeypatch.setattr("dwsim.dynamics.solve_q0", counting_solve_q0)
    psi, dt_us, infidelity = propagate_ramp(cfg, schedule, doublet.coef_l, dt_us=2.0)
    assert len(calls) == n_steps + 2 * n_steps
    monkeypatch.undo()
    assert dt_us == 2.0
    assert infidelity < 1e-6
    np.testing.assert_array_equal(psi, _run_steps(cfg, _schedule_steps(schedule, dt_us), doublet.coef_l))


def test_ramp_halves_its_step_until_certified(monkeypatch):
    # A 10 us sweep of B_z from 0 to 20 mG at N = 8 fails step doubling at
    # 10, 5 and 2.5 us and is certified at 1.25 us; the state returned is the
    # 1.25 us pass.  Allowed one halving, the ramp raises, naming the last dt
    # it checked, 10 us against 5 us, and their infidelity.
    cfg = LatticeConfig(u1_er=84.0, theta_deg=80.0, bx_mg=85.0, n_planewaves=8, n_q=9, z_points=256)
    coef_l = localized_doublet(cfg, *solve_q0(cfg, 2)).coef_l
    schedule = (Segment(10.0, cfg.bx_mg, cfg.bx_mg, 0.0, 20.0),)
    psi, dt_us, infidelity = propagate_ramp(cfg, schedule, coef_l, dt_us=10.0)
    assert dt_us == 1.25 and infidelity < 1e-6
    np.testing.assert_array_equal(psi, _run_steps(cfg, _schedule_steps(schedule, 1.25), coef_l))
    monkeypatch.setattr("dwsim.dynamics.MAX_HALVINGS", 1)
    with pytest.raises(ConvergenceError, match=r"dt=10\.0 us and dt/2 final states disagree \(infidelity 4\.\d*e-03"):
        propagate_ramp(cfg, schedule, coef_l, dt_us=10.0)


def test_q0_dynamics_make_no_complex_full_dimension_eigensolve(cfg, doublet, monkeypatch, eigensolves):
    # H(0) is real at every phase and field (conjugation times n -> -n is a
    # symmetry squaring to +1), so static runs, ramp steps and adiabaticity
    # nodes at B_z != 0 solve one real D x D block, not the complex H(0).
    propagate_static(cfg.replace(bz_mg=10.0), np.linspace(0.0, 100.0, 11), doublet)
    ramp = (Segment(3.0, cfg.bx_mg, cfg.bx_mg, -100.0, 10.0),)
    _run_steps(cfg, _schedule_steps(ramp, 1.0), doublet.coef_l)
    hold = (Segment(10.0, 0.0, cfg.bx_mg, -100.0, -100.0),)
    adiabaticity_report(cfg.replace(bz_mg=-100.0), hold, doublet.epsilon_hz)
    monkeypatch.undo()
    dim = (2 * cfg.n_planewaves + 1) * cfg.spin.dim
    assert [shape for _, shape, kind in eigensolves if kind == "c" and shape[-1] == dim] == []
    # 1 static + 3 ramp steps + the report's first continuation nodes, each a
    # single real block, and the report's one stack of projected problems
    assert sum(eigensolves.values()) == 1 + 3 + NODE_COUNTS[0] + 1
    assert sum(n for (_, shape, _), n in eigensolves.items() if shape == (dim, dim)) == 1 + 3 + NODE_COUNTS[0]


def test_ramp_step_matches_matrix_exponential(cfg, doublet):
    # one midpoint step at B_z = -100 mG is exp(-i H h) of the assembled H(0)
    expm = pytest.importorskip("scipy.linalg").expm
    h_us, bz = 0.5, -100.0
    psi = _run_steps(cfg, [(h_us, cfg.bx_mg, bz)], doublet.coef_l)
    ham = assemble_bloch_hamiltonian(cfg.replace(bz_mg=bz), 0.0)
    exact = expm(-1j * cfg.species.rad_per_us_per_er() * h_us * ham) @ doublet.coef_l
    np.testing.assert_allclose(psi, exact, rtol=0, atol=1e-12)


def test_time_reversal(cfg, doublet):
    schedule = (
        Segment(30.0, 0.0, cfg.bx_mg, -100.0, -100.0),
        Segment(20.0, cfg.bx_mg, cfg.bx_mg, -100.0, 0.0),
    )
    steps = _schedule_steps(schedule, 0.5)
    fwd = _run_steps(cfg, steps, doublet.coef_l)
    inverse = [(-h, bx, bz) for h, bx, bz in reversed(steps)]
    back = _run_steps(cfg, inverse, fwd)
    infidelity = 1.0 - np.abs(np.vdot(back, doublet.coef_l)) ** 2
    assert infidelity < 1e-10
    # static forward/backward
    psi_t = _state_at(cfg, doublet.coef_l, 123.0)
    psi_back = _state_at(cfg, psi_t, -123.0)
    assert 1.0 - np.abs(np.vdot(psi_back, doublet.coef_l)) ** 2 < 1e-12


@pytest.fixture(scope="module")
def prep_cfg():
    return LatticeConfig(u1_er=84.0, theta_deg=80.0, bx_mg=85.0, bz_mg=0.0, n_planewaves=10, n_q=9, z_points=256)


def test_preparation_protocol(prep_cfg):
    result = prepare_ground_l(prep_cfg, PrepareBlock(dt_us=1.0))
    assert result.initial_stretched_population >= 0.9
    assert result.doublet_population >= 0.95
    assert result.fidelity_l >= 0.7
    assert result.step_doubling_infidelity < 1e-6
    seg2 = result.report.segments[1]
    assert seg2.sudden_internal
    assert seg2.adiabatic_excited


def test_turnoff_sits_in_the_adiabaticity_window(prep_cfg):
    # 70 us must be short against the doublet period 1/(2 eps) yet long
    # against the vibrational time h/E_gap to the next band
    doublet = wannier_doublet(prep_cfg)
    vals, _ = solve_q0(prep_cfg)
    gap_hz = prep_cfg.species.er_to_hz(float(vals[2] - vals[1]))
    turnoff_s = 70e-6
    assert turnoff_s < 1.0 / (2.0 * doublet.epsilon_hz)
    assert turnoff_s > 1.0 / gap_hz


def test_preparation_rejects_wrong_holding_sign(prep_cfg):
    # +100 mG makes m_F = +F the *highest* Zeeman manifold
    with pytest.raises(NumericalError):
        prepare_ground_l(prep_cfg, PrepareBlock(bz_start_mg=+100.0))


@pytest.fixture(scope="module")
def strong_cfg():
    # larger transverse field -> larger splitting, so the adiabatic
    # regime of the final turn-off is reachable in a short simulation
    return LatticeConfig(u1_er=84.0, theta_deg=80.0, bx_mg=150.0, bz_mg=0.0, n_planewaves=10, n_q=9, z_points=256)


def _turnoff_run(cfg, bz_hold, duration_us, dt_us):
    """Final state of a B_z turn-off from the ground state at ``bz_hold``, and
    the B_z = 0 doublet."""
    _, v0 = np.linalg.eigh(assemble_bloch_hamiltonian(cfg.replace(bz_mg=bz_hold), 0.0))
    psi0 = v0[:, 0]
    schedule = (Segment(duration_us, cfg.bx_mg, cfg.bx_mg, bz_hold, 0.0),)
    doublet = localized_doublet(cfg, *solve_q0(cfg, 2))
    return _run_steps(cfg, _schedule_steps(schedule, dt_us), psi0), doublet


def _population(coef, psi):
    return float(np.abs(np.vdot(coef, psi)) ** 2)


def test_slow_turnoff_follows_into_symmetric_state(strong_cfg):
    doublet = localized_doublet(strong_cfg, *solve_q0(strong_cfg, 2))
    eps_hz = doublet.epsilon_hz
    # Landau-Zener oracle: the detuning sweeps at |d delta/dt| =
    # slope * |bz_hold| / T; adiabatic following needs
    # 2 pi (eps/2)^2 / rate >> 1.  Choose T for exponent ~ 3.
    species = strong_cfg.species
    fz = np.tile(np.arange(-4.0, 5.0), 2 * strong_cfg.n_planewaves + 1)
    zl = float(np.sum(fz * np.abs(doublet.coef_l) ** 2))
    zr = float(np.sum(fz * np.abs(doublet.coef_r) ** 2))
    slope_hz_per_mg = abs(zr - zl) * species.er_to_hz(species.mg_to_er(1.0))
    bz_hold = -20.0
    rate_target = 2 * np.pi * (eps_hz / 2) ** 2 / 3.0
    duration = abs(bz_hold) * slope_hz_per_mg / rate_target * 1e6  # us
    psi, doublet = _turnoff_run(strong_cfg, bz_hold, duration, dt_us=1.0)
    p_l = _population(doublet.coef_l, psi)
    doublet_pop = p_l + _population(doublet.coef_r, psi)
    p_s = _population(doublet.coef_s, psi)
    assert doublet_pop >= 0.99
    assert p_s > 0.85  # adiabatic following into the symmetric state
    assert 0.3 < p_l < 0.7


def test_fast_turnoff_leaks_more(strong_cfg):
    leakage = []
    for duration, dt_us in ((70.0, 0.5), (3.0, 0.05)):
        psi, doublet = _turnoff_run(strong_cfg, -100.0, duration, dt_us)
        leakage.append(1.0 - _population(doublet.coef_l, psi) - _population(doublet.coef_r, psi))
    slow, fast = leakage
    assert fast > slow


def test_adiabaticity_report_constant_schedule(cfg, doublet, eigensolves):
    # zero rate: one H(0) at every instant, each parity sector solved once, with no nodes
    schedule = (Segment(50.0, cfg.bx_mg, cfg.bx_mg, cfg.bz_mg, cfg.bz_mg),)
    eigensolves.clear()
    report = adiabaticity_report(cfg, schedule, doublet.epsilon_hz)
    assert dict(eigensolves) == {("eigh", h.shape, "f"): 1 for h in q0_sectors(cfg).matrices}
    seg = report.segments[0]
    assert seg.fom_internal == 0.0
    assert seg.fom_ground_to_excited == 0.0
    assert seg.fom_upper_to_excited == 0.0


@pytest.mark.parametrize("bz_end_mg, node_counts", [(0.0, None), (100.0, None), (0.0, (2,))],
                         ids=["end_at_bz_0", "through_bz_0", "exact_instants"])
def test_adiabaticity_figures_match_dense_rate_operator(monkeypatch, bz_end_mg, node_counts):
    # reference: the rate operator dH/dt as a dense kron(I, F) matrix.  The
    # second segment ends at B_z = 0, or crosses it halfway to +100 mG.  On
    # nodes at the segment ends alone, every instant between them has Ritz
    # pairs over the 1e-10 E_R cap and takes its exact pairs.
    if node_counts:
        monkeypatch.setattr("dwsim.bands.NODE_COUNTS", node_counts)
    cfg = LatticeConfig(u1_er=84.0, theta_deg=80.0, bx_mg=85.0, bz_mg=bz_end_mg, n_planewaves=8, n_q=1)
    schedule = preparation_schedule(cfg, PrepareBlock())
    report = adiabaticity_report(cfg, schedule, wannier_doublet(cfg.replace(bz_mg=0.0)).epsilon_hz)
    w = cfg.species.rad_per_us_per_er()
    eye = np.eye(2 * cfg.n_planewaves + 1)
    for seg, seg_report in zip(schedule, report.segments):
        rx, rz = seg.rates_per_us
        h_dot = w * cfg.species.zeeman_er_per_mg() * (rx * np.kron(eye, cfg.spin.fx) + rz * np.kron(eye, cfg.spin.fz))
        foms = np.zeros(3)
        for t in np.linspace(0.0, seg.duration_us, ADIABATICITY_POINTS):
            bx, bz = seg.fields_at(t)
            vals, vecs = np.linalg.eigh(assemble_bloch_hamiltonian(cfg.replace(bx_mg=bx, bz_mg=bz), 0.0))
            e = vals * w
            for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
                foms[k] = max(foms[k], abs(vecs[:, i].conj() @ h_dot @ vecs[:, j]) / (e[j] - e[i]) ** 2)
        assert np.all(foms > 0.0)
        got = (seg_report.fom_internal, seg_report.fom_ground_to_excited, seg_report.fom_upper_to_excited)
        np.testing.assert_allclose(got, foms, rtol=1e-10)


def test_start_solve_holds_the_stretched_ground_state(cfg):
    # prepare_ground_l starts from the lowest vector of its start solve: B_x
    # is 0 there, so F_z commutes with H(0) and that vector is the ground
    # state of the m_F = +F sub-block
    schedule = preparation_schedule(cfg, PrepareBlock())
    bx0, bz0 = schedule[0].bx_start_mg, schedule[0].bz_start_mg
    assert bx0 == 0.0
    start = cfg.replace(bx_mg=bx0, bz_mg=bz0)
    psi0 = solve_q0(start, 1)[1][:, 0]
    dim = cfg.spin.dim
    top = np.arange(dim - 1, len(psi0), dim)
    assert np.sum(np.abs(psi0[top]) ** 2) == pytest.approx(1.0, abs=1e-12)
    h = assemble_bloch_hamiltonian(start, 0.0)
    ground = np.zeros_like(psi0)
    ground[top] = np.linalg.eigh(h[np.ix_(top, top)])[1][:, 0]
    phase = np.vdot(ground, psi0)
    np.testing.assert_allclose(psi0, phase / abs(phase) * ground, rtol=0, atol=1e-12)


def test_adiabaticity_gap_at_end_matches_bandstructure(cfg, doublet):
    schedule = preparation_schedule(cfg, PrepareBlock())
    report = adiabaticity_report(cfg, schedule, doublet.epsilon_hz)
    vals, _ = solve_q0(cfg)
    assert report.gap_at_end_er == pytest.approx(float(vals[2] - vals[1]), abs=1e-8)
    assert report.min_gap_doublet_excited_er <= report.gap_at_end_er + 1e-12


def test_dominant_frequency_synthetic():
    t = np.linspace(0.0, 2000.0, 2001)
    y = 3.0 * np.cos(2 * np.pi * 0.004321 * t + 0.7) + 0.5
    assert dominant_frequency_hz(t, y) == pytest.approx(4321.0, rel=1e-3)
    with pytest.raises(ValueError):
        dominant_frequency_hz(t[:4], y[:4])
