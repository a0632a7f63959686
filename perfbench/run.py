"""Time-to-solution benchmark for the dwsim CLI.

    python3 perfbench/run.py --workload sweep|ensemble|ramp \
        [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the benchmark runs a closed loop with one client:
each repetition is a fresh ``python -m dwsim.cli <command>`` process
with ``src`` on PYTHONPATH, started only after the previous one ended,
until ``--seconds`` have passed.  Processes are timed from outside;
CPU time and peak RSS come from ``os.wait4`` for that one process.
Set-up time is a fresh interpreter that imports dwsim and parses the
workload's config, with no command.

With ``--trace 1`` it runs ``perfbench/tracer.py`` instead, which runs
the same command in-process, untraced and traced in turn, and reports
per-layer metrics.

Every bundle is checked (see workloads.py), and the manifest checksums
of every repetition must equal the first one's.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat
each metric with its unit, the operation counts and the machine facts.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench-work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9  # at least; one more runs before each repetition
MIN_REPETITIONS = 2  # the determinism check needs a second bundle
DEADLINE_S = 170.0  # the whole run must end within 180 s
SETUP_CODE = "import sys, dwsim.cli, dwsim.config; dwsim.config.parse_config(sys.argv[1])"


@dataclass
class Usage:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def child_env() -> dict:
    """Environment of every child: src on the path and one BLAS thread.

    The pool workloads run --jobs 2, so jobs x BLAS threads stays within
    two cores.  The serial ramp gets one thread too: at D=189 a second
    OpenBLAS thread doubled CPU time and did not lower wall time.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_process(argv: list[str], env: dict, log_path: Path, deadline: float) -> Usage:
    """Run one child to completion; its own rusage comes from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def machine_facts(env: dict) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "machine.py")], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(out.stdout)


class Tally:
    """Operations attempted and failed, and what went wrong."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.reference = workloads.load_reference()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_checksums: dict | None = None

    def add_bundle(self, directory: Path, exit_code: int, log: str = "") -> None:
        self.attempted += self.wl.ops
        if exit_code != 0:
            self.failed += self.wl.ops
            self.problems.append(f"{directory.name}: exit code {exit_code} {log.strip()[-300:]}")
            return
        failed, problems, checksums = workloads.check(self.wl, str(directory), self.reference)
        if self.first_checksums is None:
            self.first_checksums = checksums
        elif checksums != self.first_checksums:
            failed = self.wl.ops
            problems.append("manifest checksums differ from the first repetition's")
        self.failed += failed
        self.problems += [f"{directory.name}: {p}" for p in problems]


def measure_end_to_end(wl, config: Path, work: Path, seconds: float, deadline: float, tally: Tally):
    env = child_env()
    setup: list[Usage] = []

    def set_up() -> None:
        log_path = work / f"setup{len(setup)}.log"
        setup.append(run_process([sys.executable, "-c", SETUP_CODE, str(config)], env, log_path, deadline))

    reps: list[Usage] = []
    start = time.perf_counter()
    while True:
        # Set-up runs are spread over the run, one before each repetition,
        # so that their median is not taken within one second of a host
        # whose speed varies from second to second.
        set_up()
        out_dir = work / f"rep{len(reps)}"
        log_path = work / f"rep{len(reps)}.log"
        argv = [sys.executable, "-m", "dwsim.cli"] + wl.cli_args(str(config)) + ["--out", str(out_dir)]
        usage = run_process(argv, env, log_path, deadline)
        reps.append(usage)
        tally.add_bundle(out_dir, usage.exit_code, log_path.read_text(errors="replace"))
        shutil.rmtree(out_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        typical = statistics.median(u.wall_s for u in reps)
        if len(reps) >= MIN_REPETITIONS and elapsed + typical > seconds:
            break
        if time.monotonic() + typical > deadline:
            tally.problems.append(f"stopped after {len(reps)} repetitions to meet the deadline")
            break
    while len(setup) < SETUP_REPEATS:
        set_up()
    if any(u.exit_code for u in setup):
        tally.problems.append("set-up process failed")
    metrics = {
        "wall_s": statistics.median(u.wall_s for u in reps),
        "cpu_s": statistics.median(u.cpu_s for u in reps),
        "setup_s": statistics.median(u.wall_s for u in setup),
        "peak_rss_mb": statistics.median(u.peak_rss_mb for u in reps),
    }
    walls = ", ".join(f"{u.wall_s:.3f}" for u in reps)
    return metrics, f"{len(reps)} CLI runs ({walls} s), {len(setup)} set-up runs"


def _unit(name: str) -> str:
    if tracer.is_count(name):
        return "flop" if name.endswith("flops_computed") else "count"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), (".s", "s"), ("_us", "us"), ("_mb", "MB"), ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "fraction" if name.endswith(("share", "frac")) else "count"


def bundle_metrics(directory: Path) -> dict:
    """Per-layer figures read from one traced bundle."""
    out = {
        "dynamics.ramp_dt_us": 0.0,
        "dynamics.ramp_halvings": 0,
        "ensemble.samples_skipped": 0,
        "fitting.lm_iterations": 0,
        "output.bytes_written": 0,
    }
    if not (directory / "manifest.json").is_file():
        return out  # the failed command is counted by the output check
    manifest = json.loads((directory / "manifest.json").read_text())
    out["output.bytes_written"] = sum(p.stat().st_size for p in directory.iterdir())
    if manifest["command"] == "prepare":
        dt = json.loads((directory / "prep.json").read_text())["dt_us"]
        requested = manifest["config"]["prepare"]["dt_us"]
        out["dynamics.ramp_dt_us"] = dt
        out["dynamics.ramp_halvings"] = round(math.log2(requested / dt))
    if manifest["command"] == "ensemble":
        fit = json.loads((directory / "fit.json").read_text())
        out["ensemble.samples_skipped"] = fit["n_skipped"]
        out["fitting.lm_iterations"] = fit["n_iterations"]
    return out


def measure_per_layer(wl, config: Path, work: Path, seconds: float, deadline: float, tally: Tally):
    argv = [
        sys.executable, str(BENCH / "tracer.py"), "--seconds", str(seconds), "--jobs", str(wl.jobs),
        "--out-base", str(work / "trace"), "--",
    ] + wl.cli_args(str(config))
    proc = subprocess.run(
        argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for bundle, code in zip(result["bundles"], result["exit_codes"]):
        tally.add_bundle(Path(bundle), code)
    passes = result["passes"]
    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if not tracer.is_count(name):
            metrics[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            tally.problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = values[0]
    metrics.update(bundle_metrics(Path(result["bundles"][1])))
    metrics["trace.overhead_frac"] = (
        statistics.median(result["traced_s"]) / statistics.median(result["untraced_s"]) - 1.0
    )
    return metrics, f"{len(passes)} untraced and {len(passes)} traced in-process runs"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Time-to-solution benchmark for the dwsim CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "dwsim" / "cli.py").is_file():
        print(f"dwsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT))
    try:
        config = work / f"{wl.name}.ini"
        config.write_text(wl.ini)
        tally = Tally(wl)
        machine = machine_facts(child_env())
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, samples = measure(wl, config, work, args.seconds, deadline, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only if no other run is using it

    print(f"workload {wl.name}: dwsim {wl.command}, --jobs {wl.jobs}, seed {args.seed}; {samples}")
    print("machine " + json.dumps(machine, sort_keys=True))
    units = {name: _unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"ops_attempted {tally.attempted} count")
    print(f"ops_failed {tally.failed} count")
    for problem in tally.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
