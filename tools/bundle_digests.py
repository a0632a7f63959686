"""Print the SHA-256 of every file in the bundles of all eight CLI commands.

Usage:

    python tools/bundle_digests.py OUT_DIR

Runs ``python -m dwsim.cli <command>`` for each command at the canonical
point (U_1 = 84 E_R, theta = 80 deg, B_x = 85 mG) with the light basis
(n_planewaves = 12, n_q = 9, z_points = 256) and short rabi, prepare,
sweep and ensemble sections, then prints one ``command/file sha256`` line
per output file, ``manifest.json`` included.  Its 8-sample ensembles
(here and at B_z = 10 mG) are 8 U_1 and the base's, no more than the
continuation's first 9 nodes, so their B_z = 0 doublets are solved
exactly, with no continuation.  ``fit`` reads the CSV the ``ensemble``
command wrote.  A second pass runs ``potentials``,
``wannier`` and ``rabi`` again with ``fictitious_phase = paper_cos``
under OUT_DIR/paper_cos and prints its lines prefixed ``paper_cos/``, so
phase-dependent geometry is covered too.  A third pass runs ``rabi``,
``prepare`` and ``ensemble`` at B_z = 10 mG under OUT_DIR/bz_10 and prints
their lines prefixed ``bz_10/``: with the default ``quadrature_sin`` phase
that field takes the q = 0 solves off the m_F parity blocks, which no other
command but ``prepare`` does, and it makes each ensemble sample, like
``rabi``, evolve its B_z = 0 |L> in the lowest pairs of its full q = 0
spectrum.  There the second ``prepare`` segment ramps B_z from -100 to
+10 mG, so its adiabaticity report continues one form through B_z = 0.
With them, a 64-sample ``ensemble`` at a uniform spread of 0.45 runs under
OUT_DIR/bz_10/uniform_045 and prints its lines prefixed
``bz_10/uniform_045/``: some of its draws have no double well of their
own, so its ``fit.json`` records in ``n_skipped`` whether they run.
A fourth pass runs ``bands``, ``wannier`` and a 3-point ``sweep``
(B_x = 40, 70, 100 mG) at the default basis (n_planewaves = 24, n_q = 33,
z_points = 512) under OUT_DIR/default_basis and prints their lines
prefixed ``default_basis/``: band solves are certified by the residuals of
a basis of N_s = 12 < N plane waves per side, where the light basis
certifies at N_s = N = 12.  Their eigenvector continuation in q refines its
nodes at 40 mG, where the doublet gap is small, and not at 70 or 100 mG.
With it, a 2-point ``sweep`` (B_x = 40 and 150 mG, the fewest a ``[sweep]``
section takes) at U_1 = 300 E_R runs under OUT_DIR/default_basis/u1_300 and
prints its lines prefixed ``default_basis/u1_300/``: there both points
certify at N_s = 20, where the 1e-6 E_R doublet gap at 40 mG caps the
residual near 1e-10 E_R.  The same sweep with the light n_planewaves = 12
runs under OUT_DIR/light_u1_300 and prints its lines prefixed
``light_u1_300/``: its probe runs on past N to N_s = 20 as well, so its
``sweep/sweep.csv`` has the digest of ``default_basis/u1_300/sweep/sweep.csv``
(its manifest records the other N, so that digest differs).
A last pass runs six configurations that fail or once failed, each under
OUT_DIR/exit/<name>, and prints one ``exit/<name> <code>`` line per run:
``bands`` at U_1 = 2000 E_R with N = 8 and n_q = 1, whose certification
fails (3); ``bands`` at theta = 200 deg, outside the accepted range (2);
``wannier`` at theta = 0, which has no double well (3); ``rabi`` at
N = 600, above the basis limit, refused before any matrix is built (3);
the light B_z = 0 ``ensemble`` of 64 samples at a uniform spread of
0.45 on the default 1500 us grid, whose mean holds no oscillation to fit
(3); and the light ``ensemble`` of 64 samples at a gaussian spread of 0.33
at U_1 = 300 E_R, theta = 90 deg, B_x = 5 mG on that grid, where the
doublet gap is at rounding level and some samples hold their doublet in
the other energy order than the base's: paired with the base by overlap,
none is skipped, where pairing by energy order skipped 7, but the mean is
flat to rounding and the fit's amplitude lies within its standard error,
so the fit refuses it (3), where it once returned that amplitude (0).
Exit code 2 is a configuration error and 3 a numerical failure, so
the listing shows which failures a change moves between the two, or to a
traceback (1).

Bundle bytes depend on the BLAS thread count, so every command runs with
one BLAS thread (``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1 in its environment), and the first line of
the listing says so; two listings then compare whatever the caller's
environment.

Every path handed to the CLI is relative to OUT_DIR, so the bundles
(whose manifests record the resolved config, the fit input path
included) do not depend on where OUT_DIR is.  The ``dwsim`` under test is
the one ``PYTHONPATH`` selects, its entries taken relative to the working
directory of the caller; without it, this checkout's ``src``.
Comparing the listings of two source trees on the same machine shows
whether a change keeps every output byte.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = ("potentials", "bands", "wannier", "rabi", "prepare", "sweep", "ensemble", "fit")
PAPER_COS_COMMANDS = ("potentials", "wannier", "rabi")
BZ_10_COMMANDS = ("rabi", "prepare", "ensemble")
DEFAULT_BASIS_COMMANDS = ("bands", "wannier", "sweep")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CONFIG = """\
[lattice]
u1_er = 84
theta_deg = 80
bx_mg = 85
n_planewaves = 12
n_q = 9
z_points = 256

[sweep]
parameter = bx
start = 60
stop = 100
steps = 3

[rabi]
t_max_us = 400
dt_out_us = 2

[prepare]
bx_ramp_us = 20
bz_ramp_us = 10

[ensemble]
n_samples = 8
t_max_us = 900
dt_out_us = 5

[fit]
input = ensemble/ensemble.csv
"""

DEFAULT_BASIS_CONFIG = """\
[lattice]
u1_er = 84
theta_deg = 80
bx_mg = 85

[sweep]
parameter = bx
start = 40
stop = 100
steps = 3
"""

DEEP_DEFAULT_BASIS_CONFIG = """\
[lattice]
u1_er = 300
theta_deg = 80
bx_mg = 40

[sweep]
parameter = bx
start = 40
stop = 150
steps = 2
"""

EXIT_RUNS = (  # (name, command, config) of the runs that fail, whose exit codes the last pass prints
    ("bands_u1_2000", "bands", "[lattice]\nu1_er = 2000\ntheta_deg = 80\nbx_mg = 85\nn_planewaves = 8\nn_q = 1\n"),
    ("bands_theta_200", "bands", CONFIG.replace("theta_deg = 80\n", "theta_deg = 200\n")),
    ("wannier_theta_0", "wannier", CONFIG.replace("theta_deg = 80\n", "theta_deg = 0\n")),
    ("rabi_n_600", "rabi", CONFIG.replace("n_planewaves = 12\n", "n_planewaves = 600\n")),
    ("ensemble_uniform_045", "ensemble",
     CONFIG.replace("n_samples = 8\nt_max_us = 900\n", "n_samples = 64\nspread = 0.45\ndistribution = uniform\n")),
    ("ensemble_doublet_order", "ensemble",
     CONFIG.replace("u1_er = 84\ntheta_deg = 80\nbx_mg = 85\n", "u1_er = 300\ntheta_deg = 90\nbx_mg = 5\n")
     .replace("n_samples = 8\nt_max_us = 900\n", "n_samples = 64\nspread = 0.33\n")),
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(out: Path, config: str, command: str, env: dict) -> int:
    """Write ``config`` to ``out``/run.ini, run ``command`` on it there into ``out``/``command``; its exit code."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.ini").write_text(config, encoding="utf-8")
    argv_cmd = [sys.executable, "-m", "dwsim.cli", command, "--config", "run.ini", "--out", command]
    return subprocess.run(argv_cmd, cwd=out, env=env, stdout=subprocess.DEVNULL).returncode


def run_pass(out: Path, config: str, commands: tuple[str, ...], prefix: str, env: dict) -> bool:
    """Run ``commands`` in ``out`` and print their digests; False on failure."""
    for command in commands:
        code = run_cli(out, config, command, env)
        if code != 0:
            print(f"dwsim {command} exited {code}", file=sys.stderr)
            return False
        for path in sorted((out / command).iterdir()):
            print(f"{prefix}{command}/{path.name} {sha256(path)}")
    return True


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/bundle_digests.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    env = dict(os.environ)
    # Each command runs in OUT_DIR, so a relative entry must be made absolute here.
    paths = env.get("PYTHONPATH", str(ROOT / "src")).split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(path) for path in paths)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    print(f"# BLAS threads pinned to 1: {' '.join(f'{var}=1' for var in BLAS_THREAD_VARS)}")
    paper_cos = CONFIG.replace("[lattice]\n", "[lattice]\nfictitious_phase = paper_cos\n")
    bz_10 = CONFIG.replace("[lattice]\n", "[lattice]\nbz_mg = 10\n")
    light_u1_300 = DEEP_DEFAULT_BASIS_CONFIG.replace("[lattice]\n", "[lattice]\nn_planewaves = 12\n")
    wide = bz_10.replace("n_samples = 8\n", "n_samples = 64\nspread = 0.45\ndistribution = uniform\n")
    passes = (
        (out, CONFIG, COMMANDS, ""),
        (out / "paper_cos", paper_cos, PAPER_COS_COMMANDS, "paper_cos/"),
        (out / "bz_10", bz_10, BZ_10_COMMANDS, "bz_10/"),
        (out / "bz_10" / "uniform_045", wide, ("ensemble",), "bz_10/uniform_045/"),
        (out / "default_basis", DEFAULT_BASIS_CONFIG, DEFAULT_BASIS_COMMANDS, "default_basis/"),
        (out / "default_basis" / "u1_300", DEEP_DEFAULT_BASIS_CONFIG, ("sweep",), "default_basis/u1_300/"),
        (out / "light_u1_300", light_u1_300, ("sweep",), "light_u1_300/"),
    )
    if not all(run_pass(*spec, env) for spec in passes):
        return 1
    for name, command, config in EXIT_RUNS:
        print(f"exit/{name} {run_cli(out / 'exit' / name, config, command, env)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
