"""Write perfbench/reference.json from the dwsim in this checkout.

    python3 perfbench/make_reference.py

Runs the CLI once per workload: one sweep over every B_x value the
sweep workload can pick, the ensemble at the default seed, and the
ramp.  Run it only when a change is meant to move the reported
physics, and say so with the change.
"""
import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def cli(wl: workloads.Workload, ini: str, out: Path) -> Path:
    config = out / f"{wl.name}.ini"
    config.write_text(ini)
    argv = [sys.executable, "-m", "dwsim.cli"] + wl.cli_args(str(config)) + ["--out", str(out / wl.name)]
    subprocess.run(argv, env=run.child_env(), cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL)
    return out / wl.name


def main() -> None:
    seed = workloads.DEFAULT_SEED
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        out = Path(tmp)
        sweep = workloads.make("sweep", seed)
        grid = workloads.SWEEP_GRID_MG
        ini = workloads.sweep_ini(grid[0], grid[-1], len(grid))
        with open(cli(sweep, ini, out) / "sweep.csv", encoding="utf-8", newline="") as handle:
            nu = {f"{float(r['param_value']):g}": float(r["nu_hz"]) for r in csv.DictReader(handle)}
        ens = workloads.make("ensemble", seed)
        fit = json.loads((cli(ens, ens.ini, out) / "fit.json").read_text())
        ramp = workloads.make("ramp", seed)
        prep = json.loads((cli(ramp, ramp.ini, out) / "prep.json").read_text())
    reference = {
        "sweep": {"nu_hz": nu},
        "ensemble": {"seed": seed, "tau_us": fit["tau_us"], "frequency_hz": fit["frequency_hz"]},
        "ramp": {key: prep[key] for key in ("fidelity_l", "doublet_population")},
    }
    Path(workloads.REFERENCE_PATH).write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
