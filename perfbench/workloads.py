"""The benchmark's CLI workloads: inputs made from a seed, and output checks.

All three run the canonical point u1_er=84, theta_deg=80, bx_mg=85.

* ``sweep``: ``dwsim sweep`` over two B_x values at the default basis,
  ``--jobs 2``.  The seed picks the two values from a 5 mG grid inside
  the CLI's default 40-150 mG axis, so every seed has reference values.
* ``ensemble``: ``dwsim ensemble`` at the tests' light basis with
  ``--seed`` set to the benchmark seed, ``--jobs 2``.
* ``ramp``: ``dwsim prepare`` at the criterion-07 basis, serial; it has
  no random input.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 20260808  # the CLI's own default ensemble seed
CANONICAL = {"u1_er": 84, "theta_deg": 80, "bx_mg": 85}
SWEEP_GRID_MG = tuple(range(40, 151, 5))
ENSEMBLE_SAMPLES = 64
NAMES = ("sweep", "ensemble", "ramp")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Tolerances against the reference bundle (ROADMAP, aim 2 and criteria 07/08).
NU_RTOL = 1e-6
PREP_ATOL = 1e-3
TAU_RANGE_US = (100.0, 1000.0)
MIN_DOUBLET_POPULATION = 0.95
MIN_FIDELITY_L = 0.7


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    jobs: int
    ini: str
    seed: int
    ops: int  # operations per CLI call: sweep points, ensemble samples or one prepare

    def cli_args(self, config_path: str) -> list[str]:
        args = [self.command, "--config", config_path, "--jobs", str(self.jobs)]
        if self.name == "ensemble":
            args += ["--seed", str(self.seed)]
        return args


def _ini(sections: dict) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def sweep_values(seed: int) -> tuple[int, int]:
    lo, hi = sorted(random.Random(seed).sample(SWEEP_GRID_MG, 2))
    return lo, hi


def sweep_ini(start: float, stop: float, steps: int) -> str:
    sweep = {"parameter": "bx", "start": start, "stop": stop, "steps": steps}
    return _ini({"lattice": CANONICAL, "sweep": sweep})


def make(name: str, seed: int) -> Workload:
    if name == "sweep":
        return Workload(name, "sweep", 2, sweep_ini(*sweep_values(seed), 2), seed, 2)
    if name == "ensemble":
        lattice = {**CANONICAL, "n_planewaves": 12, "n_q": 9, "z_points": 256}
        ensemble = {"spread": 0.05, "n_samples": ENSEMBLE_SAMPLES}
        return Workload(name, "ensemble", 2, _ini({"lattice": lattice, "ensemble": ensemble}), seed, ENSEMBLE_SAMPLES)
    if name == "ramp":
        lattice = {**CANONICAL, "n_planewaves": 10, "z_points": 256}
        return Workload(name, "prepare", 1, _ini({"lattice": lattice, "prepare": {"dt_us": 1.0}}), seed, 1)
    raise ValueError(f"unknown workload {name!r}")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _same_3_digits(value, ref: float) -> bool:
    """Agreement to 3 significant digits: within half a unit of the third."""
    if value is None or not math.isfinite(value):
        return False
    return abs(value - ref) <= 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 2)


def _read_json(directory: str, name: str) -> dict:
    with open(os.path.join(directory, name), encoding="utf-8") as handle:
        return json.load(handle)


def _check_sweep(wl: Workload, directory: str, reference: dict, problems: list[str]) -> list[str]:
    with open(os.path.join(directory, "sweep.csv"), encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    wanted = [f"{v:g}" for v in sweep_values(wl.seed)]
    got = [f"{float(row['param_value']):g}" for row in rows]
    if got != wanted:
        problems.append(f"sweep axis {got} != {wanted}")
        return []
    bad_points = []
    for key, row in zip(got, rows):
        nu = float(row["nu_hz"])
        ref = reference["sweep"]["nu_hz"][key]
        if row["status"] != "ok" or not abs(nu - ref) <= NU_RTOL * abs(ref):
            bad_points.append(f"bx={key}: status {row['status']}, nu {nu!r} vs reference {ref!r}")
    return bad_points


def _check_ensemble(wl: Workload, directory: str, reference: dict, problems: list[str]) -> list[str]:
    fit = _read_json(directory, "fit.json")
    tau = fit["tau_us"]
    lo, hi = TAU_RANGE_US
    if tau is None or not lo <= tau <= hi:
        problems.append(f"tau {tau} us outside {lo:g}-{hi:g} us")
    if fit["n_samples"] != wl.ops or fit["seed"] != wl.seed:
        problems.append(f"bundle has n_samples {fit['n_samples']}, seed {fit['seed']}")
    ref = reference["ensemble"]
    if wl.seed == ref["seed"]:
        for key in ("tau_us", "frequency_hz"):
            if not _same_3_digits(fit[key], ref[key]):
                problems.append(f"{key} {fit[key]!r} differs from reference {ref[key]!r} in 3 digits")
    return ["ensemble sample skipped"] * fit["n_skipped"]


def _check_ramp(wl: Workload, directory: str, reference: dict, problems: list[str]) -> list[str]:
    prep = _read_json(directory, "prep.json")
    for key in ("fidelity_l", "doublet_population"):
        ref = reference["ramp"][key]
        if not abs(prep[key] - ref) <= PREP_ATOL:
            problems.append(f"{key} {prep[key]!r} vs reference {ref!r}")
    if not prep["doublet_population"] >= MIN_DOUBLET_POPULATION:
        problems.append(f"doublet population {prep['doublet_population']} < {MIN_DOUBLET_POPULATION}")
    if not prep["fidelity_l"] >= MIN_FIDELITY_L:
        problems.append(f"fidelity_L {prep['fidelity_l']} < {MIN_FIDELITY_L}")
    turn_off = prep["adiabaticity"]["segments"][1]
    if not (turn_off["sudden_internal"] and turn_off["adiabatic_excited"]):
        problems.append("turn-off segment is not sudden for the doublet and adiabatic for excited bands")
    return []


_CHECKS = {"sweep": _check_sweep, "ensemble": _check_ensemble, "ramp": _check_ramp}


def check(wl: Workload, directory: str, reference: dict) -> tuple[int, list[str], dict]:
    """Check one bundle: (failed operations, problems, manifest checksums).

    A problem with the bundle as a whole fails all of its operations;
    a bad sweep point or a skipped sample fails only itself.
    """
    problems: list[str] = []
    try:
        bad_ops = _CHECKS[wl.name](wl, directory, reference, problems)
        checksums = _read_json(directory, "manifest.json")["files"]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return wl.ops, [f"unreadable bundle: {exc!r}"], {}
    failed = wl.ops if problems else len(bad_ops)
    return failed, problems + list(dict.fromkeys(bad_ops)), checksums
