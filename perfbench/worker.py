"""One repetition of one workload, in a fresh process so that nshom's lru
caches start cold, as they do for every ``nshom`` invocation.

Run by run.py from the root of a checkout with ``src`` on PYTHONPATH; prints
one JSON object on stdout: the repetition's times, outputs, peak RSS, the
calibration time measured around it and the software environment.

    python3 perfbench/worker.py --workload sweep_theta_one --seed 0 --trace 0
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import workloads


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work nshom does, with no nshom
    code: scipy ``quad`` on a Python integrand, complex LU at n = 256 and
    real-by-complex matrix-vector products at n = 512. run.py divides by it
    to cancel changes in the speed of a shared host."""
    import numpy as np
    from scipy import integrate
    from scipy.linalg import lu_factor

    rng = np.random.default_rng(0)
    lu_input = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    matrix = rng.standard_normal((512, 512))
    vector = rng.standard_normal(512) + 1j * rng.standard_normal(512)

    def integrand(s):
        return float(1.0 + 0.25 * np.cos(16.0 * np.pi * s)) * s ** -2.5

    start = time.perf_counter()
    for _ in range(40):
        integrate.quad(integrand, 0.5, 4.5, limit=300)
    for _ in range(6):
        lu_factor(lu_input)
    for _ in range(200):
        matrix @ vector
    return time.perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg: dict) -> dict:
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import nshom
    source = (Path.cwd() / "src").resolve()
    if source not in Path(nshom.__file__).resolve().parents:
        print(f"worker: nshom was imported from {nshom.__file__}, not from {source}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_nshom()
    before = calibrate()
    try:
        result = workloads.run(workload, args.seed)
    finally:
        if tracer is not None:
            tracer.restore()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["calibration_s"] = before + calibrate()
    if tracer is not None:
        result["layers"] = tracer.metrics()
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
