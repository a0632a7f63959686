"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q
"""
import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is imported
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED


def traced_cli(name: str, directory: Path):
    """Run one workload's command in-process under the tracer."""
    import dwsim.cli

    wl = workloads.make(name, SEED)
    directory.mkdir()
    config = directory / f"{name}.ini"
    config.write_text(wl.ini)
    spans = tracer.Tracer()
    spans.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = dwsim.cli.main(wl.cli_args(str(config)) + ["--out", str(directory / "out")])
    finally:
        spans.uninstall()
    assert code == 0
    return wl, spans, directory / "out"


@pytest.fixture(scope="module")
def ensemble_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("ensemble")
    return [traced_cli("ensemble", base / f"run{i}") for i in range(2)]


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    return traced_cli("sweep", tmp_path_factory.mktemp("sweep") / "run")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_the_listed_ones(trace, kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec[kind]}
    proc = run_bench("--workload", "ensemble", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed


def test_outside_a_checkout_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "ramp", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_reference_fails_the_check(ensemble_runs, sweep_run, tmp_path):
    reference = workloads.load_reference()

    wl, _, bundle = ensemble_runs[0]
    assert workloads.check(wl, str(bundle), reference)[:2] == (0, [])
    wrong = copy.deepcopy(reference)
    wrong["ensemble"]["tau_us"] *= 1.01
    failed, problems, _ = workloads.check(wl, str(bundle), wrong)
    assert failed == wl.ops and problems

    wl, _, bundle = sweep_run
    assert workloads.check(wl, str(bundle), reference)[:2] == (0, [])
    wrong = copy.deepcopy(reference)
    wrong["sweep"]["nu_hz"][f"{workloads.sweep_values(SEED)[0]:g}"] *= 1.0 + 1e-5
    assert workloads.check(wl, str(bundle), wrong)[0] == 1

    ramp = workloads.make("ramp", SEED)
    prep = dict(reference["ramp"], adiabaticity={"segments": [{}, {"sudden_internal": True, "adiabatic_excited": True}]})
    (tmp_path / "prep.json").write_text(json.dumps(prep))
    (tmp_path / "manifest.json").write_text(json.dumps({"files": {}}))
    assert workloads.check(ramp, str(tmp_path), reference)[:2] == (0, [])
    wrong = copy.deepcopy(reference)
    wrong["ramp"]["fidelity_l"] -= 2e-3
    assert workloads.check(ramp, str(tmp_path), wrong)[0] == 1


def test_traced_sweep_has_one_solve_bands_span_per_point(sweep_run):
    _, spans, bundle = sweep_run
    points = (bundle / "sweep.csv").read_text().splitlines()[1:]
    solves = [s for s in spans.spans if s.name == "bands.solve_bands"]
    assert len(solves) == len(points) == 2
    # solve_bands is reached through dwsim.output on pool threads, whose
    # spans hang under the command span.
    assert all(s.parent is spans.root and s.thread != spans.root.thread for s in solves)
    assert spans.root.name == tracer.COMMAND_SPAN


def test_linalg_counts_repeat_across_traced_runs(ensemble_runs):
    counts = []
    for wl, spans, _ in ensemble_runs:
        summary = tracer.summarize(spans.spans, wl.jobs)
        counts.append({k: v for k, v in summary.items() if k.startswith("linalg.") and tracer.is_count(k)})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.calls.D225.complex"] == 2 * workloads.ENSEMBLE_SAMPLES
    assert counts[0]["linalg.calls.other"] == 0
