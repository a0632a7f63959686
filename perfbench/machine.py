"""Print the machine facts that go with every benchmark result, as JSON.

Run in the benchmark's child environment, so the BLAS thread count is
the one the measured processes use.
"""
import json
import os
import platform
import sys

import numpy as np


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
