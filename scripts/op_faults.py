"""Print the minor page faults, wall time and peak RSS of every benchmark op.

    python3 scripts/op_faults.py

Runs each workload of ``perfbench/workloads.py`` (read, never changed) at
seed 42 in a fresh interpreter of its own, which runs the workload's ops
twice through ``scripts/op_digests.py``'s runner (this checkout's ``src/``,
one BLAS thread). The first pass warms the process up (imports, caches, the
allocator's heap); for the second it prints one line per op and one per
workload:

    <workload> <label> minflt=<faults> wall_s=<seconds> maxrss_mib=<peak RSS>
    <workload> pass minflt=<faults> wall_s=<seconds> maxrss_mib=<peak RSS>

``minflt`` is the op's ``getrusage`` ``ru_minflt`` delta (all threads of the
process) and ``maxrss_mib`` the process's ``ru_maxrss`` after it. A first
line gives ``platform.libc_ver()``, since the faults depend on the C
library's allocator. Nothing is checked here: the exit status is 0 unless a
workload's process fails.
"""

from __future__ import annotations

import platform
import resource
import subprocess
import sys
from time import perf_counter

import op_digests

SEED = 42


def run_pass(ops) -> list[tuple[str, int, float, float]]:
    """(label, minor faults, wall seconds, ru_maxrss in MiB) per op, run in order."""
    rows = []
    for op in ops:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = perf_counter()
        op_digests.op_digest(op, SEED)
        wall = perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        rows.append((op.label, usage.ru_minflt - before, wall, usage.ru_maxrss / 1024))
    return rows


def run_workload(name: str) -> None:
    ops = op_digests.WORKLOADS[name]
    run_pass(ops)
    rows = run_pass(ops)
    for label, faults, wall, maxrss in rows:
        print(f"{name} {label} minflt={faults} wall_s={wall:.3f} maxrss_mib={maxrss:.2f}")
    faults = sum(row[1] for row in rows)
    wall = sum(row[2] for row in rows)
    print(f"{name} pass minflt={faults} wall_s={wall:.3f} maxrss_mib={rows[-1][3]:.2f}",
          flush=True)


def main(argv: list[str]) -> int:
    # Given a workload's name, this is the fresh interpreter started for it.
    if argv:
        run_workload(argv[0])
        return 0
    print("libc:", *platform.libc_ver(), flush=True)
    for name in op_digests.WORKLOADS:
        subprocess.run([sys.executable, __file__, name], check=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
