"""The bayescomplex benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere; the package is imported from ``src/`` next to this
directory. With ``--trace 0`` a run times ``import bayescomplex.cli`` in
fresh interpreters (``setup_s``), then repeats the workload's ops in one
worker process as often as fits in ``--seconds`` and reports the end-to-end
metrics. Pass time is reported as ``wall_per_cal``: pass wall time divided
by the mean time of a calibration loop run before the first op and after
every op (``worker.calibrate``), so the host's drifting speed cancels out.
With
``--trace 1`` it runs the workload once untraced and once with every module
boundary wrapped (``tracing.py``) in two fresh workers, and reports the
per-layer metrics. Every op's output is checked (``workloads.check_op``);
traced and untraced CSVs must be byte-identical, as must repeated passes.

Lines starting with ``#`` describe the run (environment, one line per op,
every metric with its unit). The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs both modes on every workload and prints every metric as
``<workload>.<metric>``.
"""

from __future__ import annotations

import os

# One BLAS thread everywhere, so ``--workers 2`` is the only way to a second
# thread. Set before any child starts; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, check_message, check_op, fit_slope_ci, hit_counts  # noqa: E402

SETUP_PROBES = 3
RUN_DEADLINE_S = 170.0
# Every per-layer metric is reported on every workload (0 where unused).
SUBCOMMANDS = tuple(dict.fromkeys(op.subcommand for ops in WORKLOADS.values() for op in ops))
DIST_WIDTHS = (1, 2, 4, 8, 16, 32)
IS_SUBCOMMANDS = ("nn_complexity", "one_change")
# Span name -> per-layer metrics taken straight from its aggregate: "self_s",
# "calls", or a name for the span's summed count (rows, draws, points, ...).
SPAN_METRICS = {
    "families.dist_sq": ("rows", "self_s"),
    "families.sample_matrix": ("rows", "self_s"),
    "families.cloud_sample": ("rows", "self_s"),
    "families.log_prior_density": ("self_s",),
    "families.cloud_log_density": ("self_s",),
    "complexity.sharp_complexity_is": ("draws", "self_s"),
    "complexity.sharp_complexity_mc": ("draws", "self_s"),
    "complexity.fit_limiting_slope": ("calls",),
    "complexity.hyperbola_distance": ("points", "self_s"),
    "complexity.codim_estimate": ("draws", "self_s"),
    "complexity.q_closed_form": ("calls", "self_s"),
    "posterior.run_sgld": ("steps", "self_s"),
    "posterior.find_sigma_alg": ("self_s",),
    "posterior.conjugate_empirical_loss": ("calls", "self_s"),
    "posterior.conjugate_true_loss": ("calls", "self_s"),
    "posterior.expected_clipped_loss_gaussian": ("points",),
    "projection.project_to_zero": ("calls", "self_s"),
    "models.shallow_to_pwl": ("calls", "self_s"),
    "models.min_norm_realization": ("calls",),
    "models.build_periodic_deep_net": ("self_s",),
    "pwl.l2_norm_sq": ("calls", "self_s"),
    "rng.generator": ("calls", "self_s"),
    "cli.render_csv": ("bytes", "self_s"),
}

PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import bayescomplex.cli\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(RuntimeError):
    pass


def _child(what: str, argv: list[str], deadline: float) -> str:
    """Run a child Python to completion; its stdout, or BenchError."""
    try:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              cwd=ROOT, timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def setup_seconds(deadline: float) -> float:
    """Median fresh-interpreter ``import bayescomplex.cli`` time."""
    times = [float(_child("import probe", ["-c", PROBE, str(ROOT / "src")], deadline).split()[-1])
             for _ in range(SETUP_PROBES)]
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    argv = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    what = f"{'traced' if trace else 'untraced'} {workload} worker"
    return json.loads(_child(what, argv + (["--trace"] if trace else []), deadline).splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_passes(ops, seed: int, passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every op of every pass."""
    attempted = failed = 0
    problems = []
    first = passes[0]["ops"]
    for p in passes:
        for op, res, ref in zip(ops, p["ops"], first):
            attempted += 1
            if p is passes[0]:
                found = check_op(op, seed, res["rc"], res["stdout"], res["stderr"])
            elif (res["rc"], res["stdout"]) != (ref["rc"], ref["stdout"]):
                found = ["output differs from the first pass's"]
            else:
                found = []
            if found:
                failed += 1
                problems += [f"{op.label}: {msg}" for msg in found]
    return attempted, failed, problems


def op_walls(passes: list[dict]) -> list[float]:
    """Per-op median wall time over the passes."""
    return [statistics.median(p["ops"][i]["wall_s"] for p in passes)
            for i in range(len(passes[0]["ops"]))]


def time_to_slope_ci(one_pass) -> float:
    """Sum over fits of op wall x (slope_ci / 0.1)^2: time to a +-0.1 slope CI."""
    total = 0.0
    for res in one_pass["ops"]:
        fit = fit_slope_ci(res["stdout"])
        if fit is not None:
            total += res["wall_s"] * (fit[1] / 0.1) ** 2
    return total


def failed_ops(ops, seed, first_pass) -> float:
    """Ops with a non-zero exit or a failed output check, over ops attempted."""
    bad = sum(1 for op, r in zip(ops, first_pass["ops"])
              if r["rc"] != 0 or check_op(op, seed, r["rc"], r["stdout"], r["stderr"]))
    return bad / len(ops)


def describe_ops(ops, first_pass, walls) -> list[str]:
    """One line per op: exit code, wall time, fitted slope, check message."""
    lines = []
    for op, res, wall in zip(ops, first_pass["ops"], walls):
        fit = fit_slope_ci(res["stdout"])
        slope = f" slope={fit[0]:.4g} ci={fit[1]:.3g}" if fit else ""
        msg = check_message(res["stderr"])
        if res["rc"] not in (0, 1):
            msg = res["stderr"].strip()
        lines.append(f"# op {op.label} ({op.subcommand} {' '.join(op.pairs)} --workers {op.workers})"
                     f" exit={res['rc']} wall_s={wall:.4f}{slope}" + (f" :: {msg}" if msg else ""))
    return lines


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    ops = WORKLOADS[workload]
    setup_s = setup_seconds(deadline)
    res = run_worker(workload, seed, seconds, False, deadline)
    passes = res["passes"]
    attempted, failed, problems = check_passes(ops, seed, passes)
    metrics = {
        "wall_per_cal": (statistics.median(p["wall_per_cal"] for p in passes), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["maxrss_kib"] / 1024.0, "MiB"),
    }
    notes = [f"# passes={len(passes)} pass_wall_s="
             + ",".join(f"{p['wall_s']:.4f}" for p in passes)
             + " pass_cpu_s=" + ",".join(f"{p['cpu_s']:.4f}" for p in passes)
             + " pass_cal_ms=" + ",".join(f"{1e3 * statistics.mean(p['cal_s']):.2f}" for p in passes)
             + " pass_wall_per_cal=" + ",".join(f"{p['wall_per_cal']:.2f}" for p in passes)]
    notes += describe_ops(ops, passes[0], op_walls(passes))
    return metrics, attempted, failed, problems, notes, res["env"]


def per_layer(workload: str, seed: int, deadline: float):
    ops = WORKLOADS[workload]
    plain = run_worker(workload, seed, 0, False, deadline)
    traced = run_worker(workload, seed, 0, True, deadline)
    # The traced pass must reproduce the untraced one byte for byte.
    attempted, failed, problems = check_passes(ops, seed, plain["passes"] + traced["passes"])
    base, tr = plain["passes"][0], traced["passes"][0]
    spans = traced["spans"]
    agg = tracing.aggregate(spans)
    by_k = tracing.dist_sq_by_width(spans)

    def a(name, key):
        return agg[name][key] if name in agg else 0

    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    for span, fields in SPAN_METRICS.items():
        for field in fields:
            if field == "self_s":
                m[f"{span}.self_s"] = (a(span, "self_s"), "s")
            elif field == "calls":
                m[f"{span}.calls"] = (a(span, "calls"), "count")
            else:
                m[f"{span}.{field}"] = (a(span, "count"), "bytes" if field == "bytes" else "count")
    for k in DIST_WIDTHS:
        m[f"families.dist_sq.k{k}.rows_per_s"] = (rate(*by_k.get(k, (0, 0.0))), "1/s")
    for span, metric in (("families.linear_dist_sq", "families.linear_dist_sq.rows_per_s"),
                         ("complexity.hyperbola_distance",
                          "complexity.hyperbola_distance.points_per_s")):
        m[metric] = (rate(a(span, "count"), a(span, "self_s")), "1/s")
    m["posterior.run_sgld.us_per_step"] = (
        1e6 * rate(a("posterior.run_sgld", "self_s"), a("posterior.run_sgld", "count")), "us")
    # Objective evaluations: empirical-loss calls inside the search / replicas.
    m["posterior.find_sigma_alg.iterations"] = (rate(tracing.calls_within(
        spans, "posterior.find_sigma_alg", "posterior.conjugate_empirical_loss"),
        a("posterior.find_sigma_alg", "count")), "count")
    hits = samples = 0
    for op, res in zip(ops, base["ops"]):
        if op.subcommand in IS_SUBCOMMANDS:
            h, n = hit_counts(res["stdout"])
            hits, samples = hits + h, samples + n
    m["complexity.sharp_complexity_is.hit_ratio"] = (rate(hits, samples), "fraction")
    m["complexity.zero_hit_errors"] = (tracing.zero_hit_errors(spans), "count")

    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.wall_s"] = (sum(r["wall_s"] for op, r in zip(ops, base["ops"])
                                      if op.subcommand == sub), "s")
    m["cli.check_failures"] = (sum(1 for r in base["ops"] if r["rc"] == 1), "count")
    m["failed_ops"] = (failed_ops(ops, seed, base), "fraction")
    m["time_to_slope_ci_s"] = (time_to_slope_ci(base), "s")

    roots = {i for i, s in enumerate(spans) if s[tracing.PARENT] < 0}
    top = sum(s[tracing.END] - s[tracing.START] for s in spans if s[tracing.PARENT] in roots)
    m["trace.coverage_frac"] = (rate(top, tr["wall_s"]), "fraction")
    m["trace.overhead_frac"] = (tr["wall_s"] / base["wall_s"] - 1.0, "fraction")
    notes = [f"# untraced pass wall_s={base['wall_s']:.4f}, traced pass wall_s={tr['wall_s']:.4f}"]
    notes += describe_ops(ops, base, [r["wall_s"] for r in base["ops"]])
    top_self = sorted(agg.items(), key=lambda kv: -kv[1]["self_s"])[:3]
    notes.append("# largest self times: " + ", ".join(f"{name} {v['self_s']:.3f} s"
                                                       for name, v in top_self))
    return m, attempted, failed, problems, notes, plain["env"]


def env_line(env: dict, seed: int) -> str:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    fields = {**env, "nproc": cpus, "commit": git_commit(), "seed": seed}
    return "# env " + " ".join(f"{k}={str(v).replace(' ', '_')}" for k, v in fields.items())


def metric_lines(metrics: dict, prefix: str = "") -> list[str]:
    return [f"# metric {prefix}{name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")

    out: list[str] = []
    problems: list[str] = []
    metrics: dict[str, tuple[float, str]] = {}
    attempted = failed = 0
    env = None
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            # "all" runs both modes per workload, each within its own deadline.
            prefix = f"{name}." if args.workload == "all" else ""
            if args.workload == "all" or args.trace == 0:
                e2e, n, f, p, notes, env = end_to_end(
                    name, args.seed, args.seconds, monotonic() + RUN_DEADLINE_S)
                attempted, failed, problems = attempted + n, failed + f, problems + p
                out += [f"# workload {name} (untraced)", *notes, *metric_lines(e2e, prefix)]
                metrics.update({prefix + k: v for k, v in e2e.items()})
            if args.workload == "all" or args.trace == 1:
                layers, n, f, p, notes, env = per_layer(name, args.seed, monotonic() + RUN_DEADLINE_S)
                attempted, failed, problems = attempted + n, failed + f, problems + p
                out += [f"# workload {name} (traced run; op lines from its untraced pass)",
                        *notes, *metric_lines(layers, prefix)]
                metrics.update({prefix + k: v for k, v in layers.items()})
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(env_line(env, args.seed))
    print("\n".join(out))
    for msg in problems:
        print(f"# FAILED {msg}")
    print(result_line(not problems, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
