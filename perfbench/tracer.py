"""Span tracer for dwsim, installed from outside the package.

The tracer wraps every public function of each dwsim module and
``numpy.linalg.eigh``/``eigvalsh``.  dwsim modules bind each other's
functions with ``from .bands import ...``, so a wrapper replaces the
name in every loaded dwsim module that holds the original.

Span stacks are kept per thread.  A span that starts on a worker thread
with an empty stack gets the command span (``output.run_command``) as
its parent.  Self time is a span's duration minus the time of its
children on the same thread: children on worker threads run in
parallel with the thread that waits for them.

Run as a script, this file runs one CLI command in-process, alternating
untraced and traced passes until ``--seconds`` have passed (and at
least twice), and prints
one JSON object as its last line:

    python perfbench/tracer.py --seconds 30 --jobs 2 --out-base DIR -- \
        sweep --config sweep.ini --jobs 2
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import math
import sys
import threading
import time

LAYERS = ("config", "spin", "lattice", "bands", "dynamics", "ensemble", "fitting", "output")
COMMAND_SPAN = "output.run_command"
MIN_PASSES = 2  # counts must repeat between traced passes, so there must be two
# Spans whose thread only waits while a thread pool runs their work.
POOL_SPANS = ("output.sweep_frequency", "ensemble.ensemble_magnetization")
LINALG = ("eigh", "eigvalsh")
# Dimensions the workloads solve; any other size is counted under "other".
LINALG_SHAPES = (
    "D9.complex",
    "D21.complex",
    "D189.complex",
    "D225.complex",
    "D441.complex",
    "D585.complex",
)
# Computed flop counts per matrix (Golub & Van Loan, symmetric QR):
# eigenvalues only ~4/3 D^3, with eigenvectors ~9 D^3; complex x4.
FLOPS_PER_D3 = {"eigvalsh": 4.0 / 3.0, "eigh": 9.0}


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "child_s", "info")

    def __init__(self, name, parent, thread, start):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans in memory; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else self.root
            span = Span(name, parent, threading.get_ident(), time.perf_counter())
            if name == COMMAND_SPAN and not stack:
                self.root = span
            if describe is not None:
                span.info = describe(*args)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None and parent.thread == span.thread:
                    parent.child_s += span.duration
                with self._lock:
                    self.spans.append(span)

        return traced

    def _replace(self, module, attr, new):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        import numpy as np

        modules = [m for n, m in sorted(sys.modules.items()) if n == "dwsim" or n.startswith("dwsim.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"dwsim.{layer}")
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._replace(m, attr, wrapped)
        for name in LINALG:
            self._replace(np.linalg, name, self.wrap(f"linalg.{name}", getattr(np.linalg, name), _describe_matrix))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def _describe_matrix(a, *_args):
    import numpy as np

    shape = np.shape(a)
    batch = math.prod(shape[:-2])
    return shape[-1], batch, "complex" if np.iscomplexobj(a) else "real"


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between traced passes."""
    return name.endswith(".calls") or name.startswith("linalg.calls.") or name == "linalg.flops_computed"


def _pct_ms(durations: list[float], q: float) -> float:
    """Nearest-rank percentile of span durations, in ms; 0 without spans."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1e3 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(spans: list[Span], jobs: int) -> dict:
    """Per-layer metrics of one traced command."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_time(name):
        return sum(s.self_s for s in by_name.get(name, ()))

    def durations(name):
        return [s.duration for s in by_name.get(name, ())]

    command = by_name.get(COMMAND_SPAN, [])
    wall = sum(s.duration for s in command)
    main_thread = command[0].thread if command else None
    out = {}
    for name in ("bands.solve_bands", "bands.wannier_doublet", "dynamics.propagate_static"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.total_s"] = total(name)
        out[f"{name}.p50_ms"] = _pct_ms(durations(name), 0.5)
    for name in ("bands.wannier_doublet", "dynamics.propagate_static"):
        out[f"{name}.p90_ms"] = _pct_ms(durations(name), 0.9)
    out["bands.assemble_bloch_hamiltonian.calls"] = calls("bands.assemble_bloch_hamiltonian")
    out["bands.assemble_bloch_hamiltonian.self_s"] = self_time("bands.assemble_bloch_hamiltonian")

    shapes = dict.fromkeys(LINALG_SHAPES, 0)
    shapes["other"] = 0
    flops = 0.0
    for fn in LINALG:
        out[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
        out[f"linalg.{fn}.s"] = total(f"linalg.{fn}")
        for s in by_name.get(f"linalg.{fn}", ()):
            dim, batch, kind = s.info
            key = f"D{dim}.{kind}"
            shapes[key if key in shapes else "other"] += batch
            flops += batch * FLOPS_PER_D3[fn] * dim**3 * (4.0 if kind == "complex" else 1.0)
    for key, count in shapes.items():
        out[f"linalg.calls.{key}"] = count
    out["linalg.flops_computed"] = flops
    linalg_s = sum(total(f"linalg.{fn}") for fn in LINALG)
    out["linalg.share"] = linalg_s / (jobs * wall) if wall > 0 else 0.0

    for name in ("dynamics.propagate_ramp", "dynamics.adiabaticity_report", "lattice.double_well_geometry",
                 "ensemble.ensemble_magnetization", "fitting.fit_damped_sinusoid"):
        out[f"{name}.total_s"] = total(name)
    out["lattice.double_well_geometry.calls"] = calls("lattice.double_well_geometry")
    out["lattice.adiabatic_curves.self_s"] = self_time("lattice.adiabatic_curves")
    out["spin.make_spin_operators.calls"] = calls("spin.make_spin_operators")
    out["output.run_command.self_s"] = self_time(COMMAND_SPAN)
    out["config.parse_config.s"] = total("config.parse_config")

    pooled = jobs > 1 and any(calls(name) for name in POOL_SPANS)
    pool_wall = sum(total(name) for name in POOL_SPANS)
    worker_s = sum(
        s.duration for s in spans
        if s.thread != main_thread and s.parent is not None and s.parent.name == COMMAND_SPAN
    )
    out["pool.busy_frac"] = worker_s / (jobs * pool_wall) if pooled and pool_wall > 0 else 0.0

    layer_self = dict.fromkeys(LAYERS + ("linalg",), 0.0)
    for s in spans:
        if pooled and s.name in POOL_SPANS:
            continue  # its thread only waits for the pool
        layer_self[s.name.split(".", 1)[0]] += s.self_s
    for layer, value in layer_self.items():
        out[f"layer.{layer}.self_s"] = value
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--out-base", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    import dwsim.cli

    result = {"untraced_s": [], "traced_s": [], "exit_codes": [], "bundles": [], "passes": []}
    start = time.perf_counter()
    while True:
        for traced in (False, True):
            out_dir = f"{args.out_base}/{'t' if traced else 'u'}{len(result['passes'])}"
            recorder = Tracer()
            if traced:
                recorder.install()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = dwsim.cli.main(cli_args + ["--out", out_dir])
            finally:
                elapsed = time.perf_counter() - t0
                recorder.uninstall()
            result["exit_codes"].append(code)
            result["bundles"].append(out_dir)
            result["traced_s" if traced else "untraced_s"].append(elapsed)
        result["passes"].append(summarize(recorder.spans, args.jobs))
        pair_s = (time.perf_counter() - start) / len(result["passes"])
        if len(result["passes"]) >= MIN_PASSES and time.perf_counter() - start + pair_s > args.seconds:
            break
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
