"""Bit-stable CSV/JSON emission and command dispatch.

Floats are written with fixed significant-digit formatting and rows in
a fixed order, so identical configs reproduce byte-identical bundles.
Sweep points fan out to a thread pool; the reduction is an ordered
gather, making results independent of the worker count.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .bands import solve_bands, wannier_doublet
from .config import SWEEP_AXES, RunConfig
from .dynamics import output_times, prepare_ground_l, propagate_static
from .ensemble import ensemble_magnetization
from .errors import ConfigError, ConvergenceError
from .fitting import MIN_SAMPLES, fit_damped_sinusoid, uniform_step
from .lattice import LatticeConfig, adiabatic_curves, diabatic_curves


def _fmt(value, precision: int) -> str:
    if isinstance(value, str):
        return value
    return f"{float(value):.{precision}g}"


def write_csv(path: str, header: list[str], rows, precision: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v, precision) for v in row])


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _sha256(path: str) -> str:
    import hashlib  # loads OpenSSL's libcrypto, so only when a bundle is hashed
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sweep_frequency(
    cfg: LatticeConfig, parameter: str, values, u1_scale: float, jobs: int
) -> list[tuple[float, float, float, str]]:
    """Ground-doublet splitting over one parameter axis; U_1, swept or not,
    is scaled by ``u1_scale``.

    Returns rows (value, nu_hz, flatness, status) in ascending axis
    order; points whose band solve fails certification are flagged
    'unconverged' and the sweep continues.
    """
    if parameter not in SWEEP_AXES:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    field = SWEEP_AXES[parameter][0]
    values = sorted(float(v) for v in values)

    def point(value: float):
        u1_er = (value if parameter == "u1" else cfg.u1_er) * u1_scale
        cfg_i = cfg.replace(**{field: value}).replace(u1_er=u1_er)
        try:
            sol = solve_bands(cfg_i, n_bands=2)
            return (value, sol.epsilon_hz, sol.flatness.max(), "ok")
        except ConvergenceError:
            return (value, float("nan"), float("nan"), "unconverged")

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(point, values))


def _m_columns(cfg: LatticeConfig, prefix: str) -> list[str]:
    """Column names ``{prefix}m-F`` .. ``{prefix}m+F``, one per spin component in basis order."""
    return [f"{prefix}m{m:+g}" for m in cfg.spin.m_values]


def _cmd_potentials(run_cfg: RunConfig, jobs: int) -> dict:
    cfg = run_cfg.lattice
    z_m = cfg.z_grid_m()
    header = (
        ["z_nm"]
        + [f"adiabatic_{k + 1}" for k in range(cfg.spin.dim)]
        + _m_columns(cfg, "diabatic_")
    )
    rows = zip(z_m * 1e9, *adiabatic_curves(cfg, z_m), *diabatic_curves(cfg, z_m))
    return {"potentials.csv": (header, rows)}


def _cmd_bands(run_cfg: RunConfig, jobs: int) -> dict:
    sol = solve_bands(run_cfg.lattice, n_bands=6)
    header = ["q_over_kL"] + [f"E{b + 1}" for b in range(6)]
    rows = zip(sol.q_over_kl, *sol.energies.T)
    return {"bands.csv": (header, rows)}


def _cmd_wannier(run_cfg: RunConfig, jobs: int) -> dict:
    cfg = run_cfg.lattice
    wd = wannier_doublet(cfg)
    sol = solve_bands(cfg, n_bands=2)
    header = ["z_nm"]
    for tag in ("s", "a", "l", "r"):
        header += _m_columns(cfg, f"{tag}_")
    dens = [np.abs(getattr(wd, f"psi_{tag}")) ** 2 for tag in ("s", "a", "l", "r")]
    rows = zip(wd.z_m * 1e9, *np.hstack(dens).T)
    return {
        "wannier.csv": (header, rows),
        "doublet.json": {
            "epsilon_hz": wd.epsilon_hz,
            "epsilon_er": wd.epsilon_er,
            "epsilon_q_averaged_hz": sol.epsilon_hz,
            "centroid_l_nm": wd.centroid_l_nm,
            "centroid_r_nm": wd.centroid_r_nm,
            "separation_nm": wd.centroid_r_nm - wd.centroid_l_nm,
            "overlap_lr": wd.overlap_lr,
            "well_center_nm": wd.well_center_nm,
            "barrier_nm": wd.barrier_nm,
            "barrier_margin_er": wd.barrier_margin_er,
            "flatness": sol.flatness.tolist(),
            "basis_order": "m_F = -F..+F ascending",
        },
    }


def _cmd_rabi(run_cfg: RunConfig, jobs: int) -> dict:
    cfg = run_cfg.lattice
    doublet = wannier_doublet(cfg.replace(bz_mg=0.0))
    t = output_times(run_cfg.rabi.t_max_us, run_cfg.rabi.dt_out_us)
    series = propagate_static(cfg, t, doublet)
    header = ["t_us", "pL", "pR", "leakage", "fz"] + _m_columns(cfg, "p_")
    rows = zip(series.t_us, series.p_l, series.p_r, series.leakage, series.fz, *series.p_m.T)
    return {"rabi.csv": (header, rows)}


def _cmd_prepare(run_cfg: RunConfig, jobs: int) -> dict:
    result = prepare_ground_l(run_cfg.lattice, run_cfg.prepare)
    return {
        "prep.json": {
            "fidelity_l": result.fidelity_l,
            "p_r": result.p_r,
            "doublet_population": result.doublet_population,
            "initial_stretched_population": result.initial_stretched_population,
            "dt_us": result.dt_us,
            "step_doubling_infidelity": result.step_doubling_infidelity,
            "adiabaticity": dataclasses.asdict(result.report),
        },
    }


def _cmd_sweep(run_cfg: RunConfig, jobs: int) -> dict:
    block = run_cfg.sweep
    values = np.linspace(block.start, block.stop, block.steps)
    rows = sweep_frequency(run_cfg.lattice, block.parameter, values, block.u1_scale, jobs)
    return {"sweep.csv": (["param_value", "nu_hz", "flatness", "status"], rows)}


def _cmd_ensemble(run_cfg: RunConfig, jobs: int) -> dict:
    spec = run_cfg.ensemble
    n_times = len(output_times(spec.t_max_us, spec.dt_out_us))
    if n_times < MIN_SAMPLES:
        raise ConfigError(f"[ensemble] time grid has {n_times} output times, the fit needs at least {MIN_SAMPLES}")
    result = ensemble_magnetization(run_cfg.lattice, spec)
    fit = fit_damped_sinusoid(result.t_us, result.mean_fz)
    return {
        "ensemble.csv": (["t_us", "mean_fz"], zip(result.t_us, result.mean_fz)),
        "fit.json": _fit_payload(fit) | {
            "n_samples": spec.n_samples,
            "n_skipped": result.n_skipped,
            "seed": spec.seed,
            "spread": spec.spread,
        },
    }


def _fit_payload(fit) -> dict:
    """The fit's fields; an infinite tau is null."""
    payload = dataclasses.asdict(fit)
    if not np.isfinite(fit.tau_us):
        payload["tau_us"] = None
    return payload


def _cmd_fit(run_cfg: RunConfig, jobs: int) -> dict:
    block = run_cfg.fit
    if not block.input:
        raise ConfigError("the fit command needs [fit] input = <csv path>")
    if not os.path.isfile(block.input):
        raise ConfigError(f"fit input not found: {block.input}")
    with open(block.input, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or block.t_column not in reader.fieldnames:
            raise ConfigError(f"column {block.t_column!r} not in {block.input}")
        if block.y_column not in reader.fieldnames:
            raise ConfigError(f"column {block.y_column!r} not in {block.input}")
        t, y = [], []
        for record in reader:
            t.append(_csv_number(block.input, reader.line_num, record, block.t_column))
            y.append(_csv_number(block.input, reader.line_num, record, block.y_column))
    where = f"{block.input}: column {block.y_column!r}"
    if len(y) < MIN_SAMPLES:
        raise ConfigError(f"{where} has {len(y)} rows, the fit needs at least {MIN_SAMPLES}")
    if all(value == y[0] for value in y):
        raise ConfigError(f"{where} is constant, there is nothing to fit")
    try:
        uniform_step(np.asarray(t))
    except ValueError as exc:
        raise ConfigError(f"{block.input}: column {block.t_column!r}: {exc}") from None
    fit = fit_damped_sinusoid(np.asarray(t), np.asarray(y))
    return {"fit.json": _fit_payload(fit) | {"input": block.input}}


def _csv_number(path: str, line: int, record: dict, column: str) -> float:
    """One finite number from a fit input cell; anything else is a ConfigError."""
    cell = record[column]
    try:
        value = float(cell)
    except (TypeError, ValueError):  # TypeError: the row has no such cell
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{path} line {line}: column {column!r} holds {cell!r}, not a finite number")
    return value


_DISPATCH = {
    "potentials": _cmd_potentials,
    "bands": _cmd_bands,
    "wannier": _cmd_wannier,
    "rabi": _cmd_rabi,
    "prepare": _cmd_prepare,
    "sweep": _cmd_sweep,
    "ensemble": _cmd_ensemble,
    "fit": _cmd_fit,
}
COMMANDS = tuple(_DISPATCH)


def run_command(command: str, run_cfg: RunConfig, jobs: int = 1, out_dir: str | None = None) -> list[str]:
    """Execute one CLI command and write its bundle: the files the command
    returns, in name order (a dict as JSON, a (header, rows) pair as CSV
    at ``[output] precision``), then ``manifest.json`` with their SHA-256.
    A command writes nothing itself, so one that raises leaves no data
    file.  Returns the written paths, the manifest's last."""
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    directory = out_dir if out_dir is not None else run_cfg.output.directory
    os.makedirs(directory, exist_ok=True)
    files = _DISPATCH[command](run_cfg, jobs)
    paths = []
    for name, content in sorted(files.items()):
        path = os.path.join(directory, name)
        if isinstance(content, dict):
            write_json(path, content)
        else:
            write_csv(path, *content, run_cfg.output.precision)
        paths.append(path)
    manifest_path = os.path.join(directory, "manifest.json")
    write_json(manifest_path, {
        "version": f"dwsim {__version__}",
        "command": command,
        "basis_order": "m_F = -F..+F ascending",
        "config": run_cfg.resolved,
        "files": {os.path.basename(path): _sha256(path) for path in paths},
    })
    return paths + [manifest_path]
