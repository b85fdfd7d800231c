"""Print a sha256 of every benchmark op's exit code, stdout and stderr.

    python3 scripts/op_digests.py [--seed N ...]

Runs each op of ``perfbench/workloads.py`` (read, never changed) through
``bayescomplex.cli.main``, imported from this checkout's ``src/``, once per
seed (default 42 and 7), and prints one line per op:

    <seed> <workload> <label> rc=<exit code> <sha256 of [rc, stdout, stderr]>

A change that claims to leave every report byte-identical should print the
same lines as its parent commit. Nothing is checked here: the exit status
is 0 whatever the digests are.
"""

from __future__ import annotations

import os

# One BLAS thread, as in perfbench/run.py, so the ops run as the benchmark runs them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bayescomplex.cli as cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def op_digest(op, seed: int) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op.argv(seed))
    blob = json.dumps([rc, out.getvalue(), err.getvalue()]).encode()
    return rc, hashlib.sha256(blob).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append",
                        help="benchmark seed (repeatable; default 42 and 7)")
    args = parser.parse_args()
    for seed in args.seed or [42, 7]:
        for name, ops in WORKLOADS.items():
            for op in ops:
                rc, digest = op_digest(op, seed)
                print(f"{seed} {name} {op.label} rc={rc} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
