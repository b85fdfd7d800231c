"""One benchmark run in a fresh process: import, then run a workload's ops.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace]

Untraced, the whole op list is repeated as often as fits in ``--seconds`` (at
least once), with the calibration loop timed before the first op and after
every op; traced, it runs once with every module boundary wrapped. Each op
goes through ``bayescomplex.cli.main`` with stdout and stderr captured.
The result is one JSON object on stdout. ``run.py`` starts this script; it
is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_cli():
    """Import ``bayescomplex.cli`` from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    import bayescomplex.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"bayescomplex imported from {cli.__file__}, not {SRC}")
    return cli


def blas_info() -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info: dict[str, object] = {"blas": f"{blas.get('name')} {blas.get('version')}",
                               "blas_threads": "unknown"}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            getter = getattr(handle, sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def environment() -> dict[str, object]:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, **blas_info()}


# The host's speed drifts by a quarter and more within minutes, and every op
# slows with it. A fixed mix of interpreter-bound, small-array and
# cache-sized numpy work, timed before the first op and after every op,
# tracks that drift; pass time divided by the pass's mean calibration time
# (``wall_per_cal``) does not depend on the host's moment.
_CAL_SMALL = np.random.default_rng(0).random((64, 64))
_CAL_MID = np.random.default_rng(1).random(200_000)


def calibrate() -> float:
    """Seconds for the calibration loop (about 90 ms on a 2-CPU VM)."""
    t0 = perf_counter()
    acc, last = 0.0, {}
    for i in range(120_000):
        acc += (i * 0.5) % 7.0
        last[i & 255] = acc
    for _ in range(3000):
        (_CAL_SMALL * 1.0001 + _CAL_SMALL).sum()
    for _ in range(80):
        (_CAL_MID * 1.0001 + _CAL_MID).sum()
    return perf_counter() - t0


def run_pass(cli, ops, seed: int, tracer=None) -> dict:
    """One pass over ``ops``, calibrated when untraced. Pass wall and CPU
    time sum the ops' own times, so neither the tracer's root spans nor the
    calibration loop count."""
    calibrated = tracer is None
    results = []
    cal = [calibrate()] if calibrated else []
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        root = None
        if tracer is not None:
            tracer.op = i
            root = tracer.open(f"cli.{op.subcommand}")
        t0, c0 = perf_counter(), process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv(seed))
        wall, cpu = perf_counter() - t0, process_time() - c0
        if root is not None:
            tracer.close(root)
        res = {"rc": rc, "wall_s": wall, "cpu_s": cpu, "stdout": out.getvalue(),
               "stderr": err.getvalue()}
        if calibrated:
            cal.append(calibrate())
        results.append(res)
    result = {"wall_s": sum(r["wall_s"] for r in results),
              "cpu_s": sum(r["cpu_s"] for r in results), "ops": results}
    if calibrated:
        result["cal_s"] = cal
        result["wall_per_cal"] = result["wall_s"] * len(cal) / sum(cal)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    cli = import_cli()
    from tracing import Tracer, install, uninstall
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload]
    passes = []
    spans = None
    if args.trace:
        tracer = Tracer()
        restore = install(tracer)
        try:
            passes.append(run_pass(cli, ops, args.seed, tracer))
        finally:
            uninstall(restore)
        spans = tracer.spans
    else:
        # Start another pass only if, at the mean pass time so far, it ends
        # within --seconds.
        start = perf_counter()
        while not passes or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= args.seconds:
            passes.append(run_pass(cli, ops, args.seed))
    result = {
        "passes": passes,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
        "spans": spans,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
