import gc
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import dwsim
from dwsim import ConfigError, LatticeConfig, NumericalError, cesium_f4, output, solve_bands, wannier_doublet
from dwsim.bands import _bloch_matrix, _spin_blocks, q_grid
from dwsim.cli import main
from dwsim.config import parse_config
from dwsim.output import run_command, sweep_frequency

MINIMAL = """\
[lattice]
u1_er = 84
theta_deg = 80
bx_mg = 85
"""

FAST_LATTICE = """\
[lattice]
u1_er = 84
theta_deg = 80
bx_mg = 85
n_planewaves = 10
n_q = 5
z_points = 128
"""

# a basis too small for an extreme lattice: the band solve fails to certify
HARD_LATTICE = "[lattice]\nu1_er = 2000\ntheta_deg = 80\nbx_mg = 85\nn_planewaves = 8\nn_q = 1\n"


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_text(directory, name):
    with open(os.path.join(directory, name), encoding="utf-8") as handle:
        return handle.read()


def read_bytes(directory, names):
    contents = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


def test_minimal_config_resolves_canonical(tmp_path):
    run_cfg = parse_config(write(tmp_path, MINIMAL))
    lat = run_cfg.lattice
    assert (lat.u1_er, lat.theta_deg, lat.bx_mg, lat.bz_mg) == (84.0, 80.0, 85.0, 0.0)
    assert lat.fictitious_phase == "quadrature_sin"
    assert (lat.n_planewaves, lat.n_q, lat.z_points) == (24, 33, 512)
    assert lat.species.g_f == 0.25
    # the default species keys resolve to the library's species, bit for bit
    assert lat.species == cesium_f4()
    # every default is recorded for the manifest
    assert run_cfg.resolved["lattice"]["n_planewaves"] == 24
    assert run_cfg.resolved["ensemble"]["seed"] == 20260808
    assert run_cfg.resolved["output"]["precision"] == 12


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError, match="u1_er, theta_deg, bx_mg"):
        parse_config(write(tmp_path, "", "empty.ini"))
    with pytest.raises(ConfigError, match="\\[0, 180\\]"):
        parse_config(write(tmp_path, MINIMAL.replace("theta_deg = 80", "theta_deg = 200"), "t.ini"))
    with pytest.raises(ConfigError, match="unknown key 'junk'"):
        parse_config(write(tmp_path, MINIMAL + "junk = 1\n", "u.ini"))
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(write(tmp_path, MINIMAL + "[mystery]\nx = 1\n", "s.ini"))
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(write(tmp_path, MINIMAL.replace("u1_er = 84", "u1_er = abc"), "b.ini"))
    with pytest.raises(ConfigError, match="range"):
        parse_config(write(tmp_path, MINIMAL + "[sweep]\nparameter = u1\nstart = 5\nstop = 100\n", "r.ini"))
    with pytest.raises(ConfigError, match="differ"):
        parse_config(write(tmp_path, MINIMAL + "[sweep]\nstart = 50\nstop = 50\n", "e.ini"))
    for key, value in (("u1_er", "nan"), ("bx_mg", "inf"), ("bz_mg", "nan"), ("wavelength_nm", "-inf")):
        text = "".join(line for line in MINIMAL.splitlines(keepends=True) if not line.startswith(key))
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(write(tmp_path, text + f"{key} = {value}\n", "f.ini"))
    with pytest.raises(ConfigError, match="t_max_us must be finite"):
        parse_config(write(tmp_path, MINIMAL + "[rabi]\nt_max_us = nan\n", "n.ini"))


def test_cli_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, MINIMAL.replace("theta_deg = 80", "theta_deg = 200"), "bad.ini")
    assert main(["bands", "--config", bad]) == 2
    # numerical failure: basis too small for an extreme lattice
    hard = write(tmp_path, HARD_LATTICE, "hard.ini")
    assert main(["bands", "--config", hard, "--out", str(tmp_path / "h")]) == 3
    # non-finite numbers are configuration errors, not numerical failures
    for command, key, value in (("rabi", "bz_mg", "nan"), ("bands", "u1_er", "nan"), ("bands", "bx_mg", "inf")):
        text = "".join(line for line in FAST_LATTICE.splitlines(keepends=True) if not line.startswith(key))
        ini = write(tmp_path, text + f"{key} = {value}\n", f"{command}_{key}.ini")
        assert main([command, "--config", ini, "--out", str(tmp_path / "nf")]) == 2
    # an ensemble the library rejects is a configuration error too
    spread = write(tmp_path, FAST_LATTICE + "[ensemble]\nspread = 0.7\n", "spread.ini")
    assert main(["ensemble", "--config", spread, "--out", str(tmp_path / "sp")]) == 2
    capsys.readouterr()


def test_bad_ensemble_input_exits_2(tmp_path, capsys):
    # rejected when the run is configured, before any sample runs
    out = str(tmp_path / "x")
    ok = write(tmp_path, FAST_LATTICE, "ok.ini")
    assert main(["ensemble", "--config", ok, "--out", out, "--seed", "-3"]) == 2
    for line in ("seed = -1", "dt_out_us = 0", "t_max_us = -5", "t_max_us = 20"):
        ini = write(tmp_path, FAST_LATTICE + f"[ensemble]\n{line}\n", "ens.ini")
        assert main(["ensemble", "--config", ini, "--out", out]) == 2
    assert "numerical failure" not in capsys.readouterr().err


def test_failed_run_leaves_no_data_file(tmp_path, capsys):
    # a run that fails numerically writes nothing, so no data file lies
    # there without its manifest
    runs = (
        ("wannier", "[lattice]\nu1_er = 800\ntheta_deg = 60\nbx_mg = 300\nn_planewaves = 8\nn_q = 3\n"),
        ("ensemble", FAST_LATTICE + "[ensemble]\nn_samples = 4\ndt_out_us = 100\n"),
    )
    for command, text in runs:
        out = tmp_path / command
        assert main([command, "--config", write(tmp_path, text, f"{command}.ini"), "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert os.listdir(out) == []


def test_cli_prints_the_data_files_then_the_manifest(tmp_path, capsys):
    out = tmp_path / "w"
    assert main(["wannier", "--config", write(tmp_path, LIGHT_RUN), "--out", str(out)]) == 0
    paths = [str(out / name) for name in ("doublet.json", "wannier.csv", "manifest.json")]
    assert capsys.readouterr().out == "".join(f"{path}\n" for path in paths)


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the dwsim under test, run to completion."""
    src = os.path.dirname(os.path.dirname(dwsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def test_cli_process_writes_and_exits_like_main(tmp_path, capsys):
    ini = write(tmp_path, FAST_LATTICE)
    assert main(["potentials", "--config", ini, "--out", str(tmp_path / "main")]) == 0
    capsys.readouterr()
    out = tmp_path / "process"
    done = _python("-m", "dwsim.cli", "potentials", "--config", ini, "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(f"{out / name}\n" for name in ("potentials.csv", "manifest.json"))
    assert read_bytes(out, ["manifest.json"]) == read_bytes(tmp_path / "main", ["manifest.json"])
    bad = write(tmp_path, MINIMAL.replace("theta_deg = 80", "theta_deg = 200"), "bad.ini")
    done = _python("-m", "dwsim.cli", "bands", "--config", bad)
    assert done.returncode == 2 and "config error" in done.stderr
    hard = write(tmp_path, HARD_LATTICE, "hard.ini")
    done = _python("-m", "dwsim.cli", "bands", "--config", hard, "--out", str(tmp_path / "h"))
    assert done.returncode == 3 and "numerical failure" in done.stderr


def _shape_bug(*args, **kwargs):
    return np.ones(3) @ np.ones(4)  # numpy's ValueError for mismatched shapes


def _raiser(exc):
    def command_step(*args, **kwargs):
        raise exc
    return command_step


@pytest.mark.parametrize("bug, step", [(TypeError, _raiser(TypeError("bug"))), (IndexError, _raiser(IndexError("bug"))),
                                       (ValueError, _shape_bug)], ids=["TypeError", "IndexError", "shape ValueError"])
def test_a_bug_in_a_command_is_neither_a_config_error_nor_a_numerical_failure(tmp_path, monkeypatch, capsys, bug, step):
    # only ConfigError exits 2 and only NumericalError or LinAlgError exits 3;
    # any other exception from a command body propagates out of main
    ini = write(tmp_path, FAST_LATTICE)
    monkeypatch.setattr(output, "solve_bands", step)
    with pytest.raises(bug) as caught:
        main(["bands", "--config", ini, "--out", str(tmp_path / "b")])
    assert type(caught.value) is bug
    assert capsys.readouterr().err == ""


def test_a_numerical_error_in_a_command_exits_3(tmp_path, monkeypatch, capsys):
    ini = write(tmp_path, FAST_LATTICE)
    for exc in (NumericalError("no double well"), np.linalg.LinAlgError("Eigenvalues did not converge")):
        monkeypatch.setattr(output, "solve_bands", _raiser(exc))
        assert main(["bands", "--config", ini, "--out", str(tmp_path / "b")]) == 3
        assert capsys.readouterr().err == f"dwsim: numerical failure: {exc}\n"


def test_cli_process_exits_1_on_a_bug(tmp_path):
    ini = write(tmp_path, FAST_LATTICE)
    inject = ("import sys; from dwsim import cli, output; "
              "output.solve_bands = lambda *a, **k: [][0]; sys.exit(cli.console_main())")
    done = _python("-c", inject, "bands", "--config", ini, "--out", str(tmp_path / "b"))
    assert done.returncode == 1 and done.stderr.rstrip().endswith("IndexError: list index out of range")


def test_cli_import_loads_no_openssl_and_main_leaves_the_collector(tmp_path, capsys):
    # OpenSSL's libcrypto comes with hashlib, which only the manifest needs
    ini = write(tmp_path, MINIMAL)
    probe = (
        "import sys; before = set(sys.modules); import dwsim.cli; dwsim.cli.parse_config(sys.argv[1]); "
        "print('_hashlib' in set(sys.modules) - before)"
    )
    done = _python("-c", probe, ini)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    # only the process entry point freezes the collector, never main()
    frozen = gc.get_freeze_count()
    assert main(["potentials", "--config", write(tmp_path, FAST_LATTICE), "--out", str(tmp_path / "p")]) == 0
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()


def test_gaussian_spread_keeps_every_u1_positive(tmp_path):
    # a gaussian factor 1 + spread x, |x| <= 3, reaches U_1 <= 0 from spread 1/3 on
    with pytest.raises(ConfigError, match="gaussian spread"):
        parse_config(write(tmp_path, MINIMAL + "[ensemble]\nspread = 0.4\n"))
    uniform = parse_config(write(tmp_path, MINIMAL + "[ensemble]\nspread = 0.4\ndistribution = uniform\n"))
    assert uniform.ensemble.spread == 0.4


LIGHT_RUN = MINIMAL + """\
n_planewaves = 12
n_q = 9
z_points = 256

[rabi]
t_max_us = 400

[prepare]
bx_ramp_us = 20
bz_ramp_us = 10
"""

# (solver, array shape, dtype kind) -> calls at LIGHT_RUN, where band solves
# are certified at N_s = N = 12 after the N_s = 8 probe (D = 153) fails.
# wannier: the two q = 0 parity blocks, the flatness guard's q = -1, -1/2, 0
# and the 5-q band solve, one eigh per q.  rabi: the doublet's q = 0 solve,
# which the propagator reuses, and the guard.  prepare: the m_F = +F chain,
# the start state's solve, 60 ramp steps at dt = 0.5 us and 120 at dt/2, the
# doublet with its guard, and the adiabaticity report's continuation in t at
# B_z != 0: 9 nodes on the B_x ramp, whose 9 x 12 node vectors span 107
# directions, and 9, then 17 (8 more) on the B_z ramp, whose 17 x 6 span 83;
# no instant is solved exactly.  ensemble: 9 continuation nodes,
# each two parity blocks, and the projected problems of 9 x 3 node vectors per
# block of the 200 samples and of the base U_1, which rides along at B_z = 0;
# no sample falls back to its own solve.
EIGENSOLVES = {
    "ensemble": {
        ("eigh", (112, 112), "f"): 9,
        ("eigh", (113, 113), "f"): 9,
        ("eigh", (201, 27, 27), "f"): 2,
    },
    "wannier": {
        ("eigh", (112, 112), "f"): 1,
        ("eigh", (113, 113), "f"): 1,
        ("eigh", (153, 153), "f"): 2,
        ("eigh", (225, 225), "f"): 8,
    },
    "rabi": {
        ("eigh", (112, 112), "f"): 1,
        ("eigh", (113, 113), "f"): 1,
        ("eigh", (153, 153), "f"): 1,
        ("eigh", (225, 225), "f"): 3,
    },
    "prepare": {
        ("eigh", (112, 112), "f"): 1,
        ("eigh", (113, 113), "f"): 1,
        ("eigh", (153, 153), "f"): 1,
        ("eigh", (225, 225), "f"): 210,
        ("eigh", (50, 107, 107), "f"): 2,
        ("eigh", (50, 83, 83), "f"): 1,
    },
}

# The same at the default config (N = 24, D = 441), where no solve runs at
# D = 441.  Both commands solve the q = 0 parity blocks once and run the guard
# on the residual path: the probes at N_s = 8 (D = 153) and 12 (D = 225), the
# latter also q = -1, and q = -1/2, 0 at D = 225.  wannier adds the 33-point
# band solve: its own probes, four more continuation nodes and one stack of
# the 17 solved q projected on 5 x 12 node vectors.
DEFAULT_EIGENSOLVES = {
    "wannier": {
        ("eigh", (153, 153), "f"): 2,
        ("eigh", (220, 220), "f"): 1,
        ("eigh", (221, 221), "f"): 1,
        ("eigh", (225, 225), "f"): 8,
        ("eigh", (17, 60, 60), "f"): 1,
    },
    "rabi": {
        ("eigh", (153, 153), "f"): 1,
        ("eigh", (220, 220), "f"): 1,
        ("eigh", (221, 221), "f"): 1,
        ("eigh", (225, 225), "f"): 3,
    },
}


def _eigensolves(tmp_path, monkeypatch, eigensolves, command: str, ini: str) -> dict:
    """(solver, array shape, dtype kind) -> calls of one ``command`` run of ``ini``."""
    run_command(command, parse_config(write(tmp_path, ini)), out_dir=str(tmp_path / command))
    monkeypatch.undo()
    return dict(eigensolves)


@pytest.mark.parametrize("command", sorted(EIGENSOLVES))
def test_commands_make_their_known_eigensolves(tmp_path, monkeypatch, eigensolves, command):
    assert _eigensolves(tmp_path, monkeypatch, eigensolves, command, LIGHT_RUN) == EIGENSOLVES[command]


@pytest.mark.parametrize("command", sorted(DEFAULT_EIGENSOLVES))
def test_default_config_commands_make_their_known_eigensolves(tmp_path, monkeypatch, eigensolves, command):
    assert _eigensolves(tmp_path, monkeypatch, eigensolves, command, MINIMAL) == DEFAULT_EIGENSOLVES[command]


def test_tilted_ensemble_makes_its_known_eigensolves(tmp_path, monkeypatch, eigensolves):
    # At B_z = 10 mG the B_z = 0 doublets of the 3 samples and of the base U_1,
    # which rides last at every B_z, are 4 U_1, no more than the first 9 nodes:
    # each is solved exactly, in its two parity blocks, and nothing is
    # projected.  Then each of the 3 samples evolves its aligned |L> in the
    # lowest pairs of its one complex-realified q = 0 sector.
    ensemble = "\n[ensemble]\nn_samples = 3\nspread = 0.3\nseed = 1\n"
    ini = LIGHT_RUN.replace("[lattice]\n", "[lattice]\nbz_mg = 10\n") + ensemble
    assert _eigensolves(tmp_path, monkeypatch, eigensolves, "ensemble", ini) == {
        ("eigh", (112, 112), "f"): 4,
        ("eigh", (113, 113), "f"): 4,
        ("eigh", (225, 225), "f"): 3,
    }


def test_byte_determinism_and_manifest(tmp_path, capsys):
    ini = write(tmp_path, FAST_LATTICE)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["potentials", "--config", ini, "--out", out1]) == 0
    assert main(["potentials", "--config", ini, "--out", out2]) == 0
    capsys.readouterr()
    names = ["potentials.csv", "manifest.json"]
    assert read_bytes(out1, names) == read_bytes(out2, names)
    manifest = json.loads(read_text(out1, "manifest.json"))
    assert manifest["command"] == "potentials"
    assert manifest["config"]["lattice"]["n_planewaves"] == 10
    assert manifest["config"]["output"]["precision"] == 12
    assert "potentials.csv" in manifest["files"]
    header = read_text(out1, "potentials.csv").splitlines()[0].split(",")
    assert header[0] == "z_nm"
    assert "adiabatic_1" in header and "diabatic_m-4" in header and "diabatic_m+4" in header


def test_sweep_jobs_neutral_and_symmetric(tmp_path, capsys):
    ini = write(
        tmp_path,
        FAST_LATTICE + "[sweep]\nparameter = bz\nstart = -40\nstop = 40\nsteps = 5\n",
    )
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["sweep", "--config", ini, "--out", out1, "--jobs", "1"]) == 0
    assert main(["sweep", "--config", ini, "--out", out2, "--jobs", "3"]) == 0
    capsys.readouterr()
    assert read_bytes(out1, ["sweep.csv"]) == read_bytes(out2, ["sweep.csv"])
    rows = [line.split(",") for line in read_text(out1, "sweep.csv").splitlines()[1:]]
    values = [float(r[0]) for r in rows]
    nu = [float(r[1]) for r in rows]
    assert values == sorted(values)
    assert abs(nu[0] - nu[4]) / nu[0] < 1e-6  # nu(-40) == nu(+40)
    assert abs(nu[1] - nu[3]) / nu[1] < 1e-6
    assert nu[2] == min(nu)  # minimum at bz = 0
    assert all(r[3] == "ok" for r in rows)


def test_sweep_u1_scale(tmp_path):
    cfg = LatticeConfig(u1_er=84.0, theta_deg=80.0, bx_mg=85.0, n_planewaves=10, n_q=3)
    rows = sweep_frequency(cfg, "u1", [80.0, 90.0], 1.04, 1)
    for value, nu_hz, _flat, status in rows:
        assert status == "ok"
        direct = solve_bands(cfg.replace(u1_er=value * 1.04), n_bands=2)
        assert nu_hz == pytest.approx(direct.epsilon_hz, rel=1e-9)


def test_single_point_sweep_matches_direct():
    cfg = LatticeConfig(u1_er=84.0, theta_deg=80.0, bx_mg=85.0, n_planewaves=10, n_q=3)
    rows = sweep_frequency(cfg, "bx", [85.0], 1.0, 1)
    direct = solve_bands(cfg, n_bands=2)
    assert rows[0][1] == pytest.approx(direct.epsilon_hz, rel=1e-12)
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        sweep_frequency(cfg, "detuning", [1.0], 1.0, 1)


def test_sweep_flags_unconverged_point_and_continues():
    cfg = LatticeConfig(u1_er=84.0, theta_deg=80.0, bx_mg=85.0, n_planewaves=8, n_q=1)
    rows = sweep_frequency(cfg, "u1", [84.0, 20000.0], 1.0, 1)
    by_value = {r[0]: r for r in rows}
    assert by_value[84.0][3] == "ok"
    assert by_value[20000.0][3] == "unconverged"
    assert np.isnan(by_value[20000.0][1])


def test_sweep_at_the_default_basis_flags_unconverged_point():
    # U_1 = 84 is certified by the edge residual of a smaller basis, U_1 = 20000
    # by none up to N + 8 = 32: there the doublet is degenerate to rounding and
    # N_s = 32 leaves 1.3e-2 E_R on each level, 1.3e4 times the 1e-6 E_R energy
    # cap before any gap rule applies, so truncation, not rounding, flags it.
    cfg = LatticeConfig(u1_er=84.0, theta_deg=80.0, bx_mg=85.0, n_q=1)
    rows = sweep_frequency(cfg, "u1", [84.0, 20000.0], 1.0, 1)
    assert [r[3] for r in rows] == ["ok", "unconverged"]
    blocks = _spin_blocks(cfg)  # the N-basis levels
    energies = np.array([np.linalg.eigvalsh(_bloch_matrix(cfg, *blocks, q, cfg.n_planewaves))[:2] for q in q_grid(cfg)])
    assert rows[0][1] == pytest.approx(cfg.species.er_to_hz(np.mean(energies[:, 1] - energies[:, 0])), rel=1e-9)


def test_residual_path_sweep_is_jobs_neutral(tmp_path, capsys):
    # FAST_LATTICE's N = 10 certifies at N_s = 12 > N, N = 20 at N_s = 12 < N,
    # and its sweep.csv keeps its bytes across thread counts.
    lattice = FAST_LATTICE.replace("n_planewaves = 10", "n_planewaves = 20")
    ini = write(tmp_path, lattice + "[sweep]\nparameter = bx\nstart = 60\nstop = 100\nsteps = 3\n")
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["sweep", "--config", ini, "--out", out1, "--jobs", "1"]) == 0
    assert main(["sweep", "--config", ini, "--out", out2, "--jobs", "3"]) == 0
    capsys.readouterr()
    assert read_bytes(out1, ["sweep.csv"]) == read_bytes(out2, ["sweep.csv"])


def test_rabi_command_magnetization_swing(tmp_path, capsys):
    ini = write(
        tmp_path,
        FAST_LATTICE + "[rabi]\nt_max_us = 400\ndt_out_us = 2\n",
    )
    out = str(tmp_path / "rabi")
    assert main(["rabi", "--config", ini, "--out", out]) == 0
    capsys.readouterr()
    rows = np.genfromtxt(os.path.join(out, "rabi.csv"), delimiter=",", names=True)
    fz = rows["fz"]
    assert fz[0] > 0 and fz.min() < 0  # magnetization reverses sign
    # first zero crossing near a quarter Rabi period
    eps_hz = 3517.0
    t_cross = rows["t_us"][np.argmax(fz < 0)]
    assert t_cross == pytest.approx(0.25e6 / eps_hz, rel=0.2)
    header = read_text(out, "rabi.csv").splitlines()[0].split(",")
    assert header[:5] == ["t_us", "pL", "pR", "leakage", "fz"]


def test_wannier_command_reports_barrier_margin(tmp_path, capsys):
    ini = write(tmp_path, FAST_LATTICE)
    out = str(tmp_path / "wannier")
    assert main(["wannier", "--config", ini, "--out", out]) == 0
    capsys.readouterr()
    doublet = json.loads(read_text(out, "doublet.json"))
    expected = wannier_doublet(parse_config(ini).lattice).barrier_margin_er
    assert doublet["barrier_margin_er"] == pytest.approx(expected, rel=1e-12)


def test_ensemble_and_fit_commands(tmp_path, capsys):
    ini = write(
        tmp_path,
        FAST_LATTICE
        + "[ensemble]\nspread = 0.05\nn_samples = 6\nseed = 11\nt_max_us = 900\ndt_out_us = 5\n",
    )
    out1, out2 = str(tmp_path / "e1"), str(tmp_path / "e2")
    assert main(["ensemble", "--config", ini, "--out", out1]) == 0
    assert main(["ensemble", "--config", ini, "--out", out2, "--jobs", "3"]) == 0
    capsys.readouterr()
    names = ["ensemble.csv", "fit.json", "manifest.json"]
    assert read_bytes(out1, names) == read_bytes(out2, names)
    payload = json.loads(read_text(out1, "fit.json"))
    assert payload["n_samples"] == 6 and payload["n_skipped"] == 0
    assert payload["frequency_hz"] > 0

    # fit command round-trips the emitted CSV
    fit_ini = write(
        tmp_path,
        FAST_LATTICE + f"[fit]\ninput = {out1}/ensemble.csv\n",
        "fit.ini",
    )
    out3 = str(tmp_path / "f1")
    assert main(["fit", "--config", fit_ini, "--out", out3]) == 0
    capsys.readouterr()
    refit = json.loads(read_text(out3, "fit.json"))
    assert refit["frequency_hz"] == pytest.approx(payload["frequency_hz"], rel=1e-6)


def test_seed_override_changes_samples(tmp_path, capsys):
    ini = write(
        tmp_path,
        FAST_LATTICE
        + "[ensemble]\nspread = 0.05\nn_samples = 4\nseed = 11\nt_max_us = 400\ndt_out_us = 10\n",
    )
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["ensemble", "--config", ini, "--out", out1]) == 0
    assert main(["ensemble", "--config", ini, "--out", out2, "--seed", "12"]) == 0
    capsys.readouterr()
    a, b = read_text(out1, "ensemble.csv"), read_text(out2, "ensemble.csv")
    assert a != b
    manifest = json.loads(read_text(out2, "manifest.json"))
    assert manifest["config"]["ensemble"]["seed"] == 12


def test_fit_command_requires_input(tmp_path):
    run_cfg = parse_config(write(tmp_path, FAST_LATTICE, "nofit.ini"))
    with pytest.raises(ConfigError, match="input"):
        run_command("fit", run_cfg, out_dir=str(tmp_path / "x"))


def test_fit_input_with_a_non_numeric_cell_is_a_config_error(tmp_path):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("t_us,mean_fz\n0,1.0\n5,abc\n", encoding="utf-8")
    run_cfg = parse_config(write(tmp_path, FAST_LATTICE + f"[fit]\ninput = {csv_path}\n", "fit.ini"))
    with pytest.raises(ConfigError, match=re.escape(f"{csv_path} line 3: column 'mean_fz' holds 'abc'")):
        run_command("fit", run_cfg, out_dir=str(tmp_path / "z"))


def test_short_or_constant_fit_input_exits_2(tmp_path, capsys):
    # too few rows, or nothing but one value, is an input error: exit 2,
    # naming the file and the column, not a numerical failure
    for name, values in (("short.csv", [0.1, 0.3, -0.2]), ("flat.csv", [0.25] * 10)):
        csv_path = tmp_path / name
        csv_path.write_text("t_us,mean_fz\n" + "".join(f"{5 * k},{v}\n" for k, v in enumerate(values)), encoding="utf-8")
        ini = write(tmp_path, FAST_LATTICE + f"[fit]\ninput = {csv_path}\n", "fit.ini")
        assert main(["fit", "--config", ini, "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {csv_path}: column 'mean_fz'" in err


def test_fit_input_on_a_non_uniform_grid_exits_2(tmp_path, capsys):
    # 12 rows whose t_us skips t = 4: the spectral guess and the fit assume a
    # uniform grid, so the input is rejected before fitting
    csv_path = tmp_path / "gap.csv"
    rows = "".join(f"{t},{np.cos(0.7 * t):.6f}\n" for t in (0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12))
    csv_path.write_text("t_us,mean_fz\n" + rows, encoding="utf-8")
    ini = write(tmp_path, FAST_LATTICE + f"[fit]\ninput = {csv_path}\n", "fit.ini")
    assert main(["fit", "--config", ini, "--out", str(tmp_path / "f")]) == 2
    assert f"config error: {csv_path}: column 't_us': time grid must be uniform" in capsys.readouterr().err


def test_unknown_command_rejected(tmp_path):
    run_cfg = parse_config(write(tmp_path, FAST_LATTICE, "cmd.ini"))
    with pytest.raises(ConfigError):
        run_command("render", run_cfg, out_dir=str(tmp_path / "y"))
