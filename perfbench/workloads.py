"""The benchmark's workloads and the checks on every op's output.

An op is one ``bayescomplex`` subcommand invocation through
``bayescomplex.cli.main``. A workload is a fixed list of ops run in order;
the benchmark seed becomes every op's ``--seed``, so one seed gives one set
of inputs. Budgets are passed explicitly, so the check on the echoed config
covers them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

ONE_KNOT = ()  # the CLI default target: one knot, 0.35 : +1.0
TWO_KNOT = ("target_locs=0.3,0.7", "target_slopes=1.0,-0.8")


@dataclass(frozen=True)
class Op:
    label: str
    subcommand: str
    pairs: tuple[str, ...]
    workers: int
    # Column every row carrying a sample count must hold ``budget`` in; for
    # ``projection_check`` the budget is the number of trial rows instead.
    budget_column: str | None = "n_samples"
    budget: int | None = None

    def argv(self, seed: int) -> list[str]:
        return [self.subcommand, *self.pairs, "--seed", str(seed),
                "--workers", str(self.workers)]

    def echoed(self, seed: int) -> dict[str, str]:
        """Config keys the CSV header must echo, with the values passed."""
        expect = dict(pair.split("=", 1) for pair in self.pairs)
        expect.update(seed=str(seed), workers=str(self.workers))
        return expect


def _nn(label, k, n_per_eps, target=ONE_KNOT):
    return Op(label, "nn_complexity", (f"k={k}", *target, f"n_per_eps={n_per_eps}"), 2,
              budget=n_per_eps)


def _codim(label, k, n, grid, target=ONE_KNOT, extra=()):
    return Op(label, "codim", (f"k={k}", *target, f"eps_grid={grid}", *extra,
                               f"n_samples={n}"), 1, budget=n)


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # IS slope estimates across widths: dist_sq is O(n k^2), so the wide ops
    # dominate; the k <= 2 ops keep the narrow case visible.
    "nn_width_sweep": (
        _nn("nn_c1_k1", 1, 200_000),
        _nn("nn_c1_k2", 2, 100_000),
        _nn("nn_c1_k4", 4, 100_000),
        _nn("nn_c1_k16", 16, 10_000),
        _nn("nn_c1_k32", 32, 10_000),
        _nn("nn_c2_k2", 2, 100_000, TWO_KNOT),
        Op("one_change_k8", "one_change", ("k=8", "n_samples=200000"), 2, budget=200_000),
    ),
    # The representation-set oracle: exact (k = c), surplus-node bound
    # (k = c + 1) and the assignment branch (c = 2), criterion 05's radius and
    # tolerance for the two-knot target.
    "codim_oracle": (
        _codim("codim_c1_k1", 1, 120_000, "0.3,0.2,0.14,0.1"),
        _codim("codim_c1_k2", 2, 80_000, "0.3,0.2,0.14"),
        _codim("codim_c2_k2", 2, 60_000, "0.5,0.4,0.3", TWO_KNOT,
               ("radius=4.0", "tolerance=0.7")),
    ),
    # Python-loop-bound commands at their default configs.
    "posterior_defaults": (
        # (steps - burn_in) / thin draws are kept.
        Op("sgld_check", "sgld_check", ("steps=205000", "burn_in=5000", "thin=20"), 1,
           budget=10_000),
        Op("pacbayes", "pacbayes", ("n_trials=50", "n_replicas=32"), 1, budget=50),
        Op("linear_complexity", "linear_complexity", ("mc_samples=200000",), 1,
           budget=200_000),
        Op("projection_check", "projection_check", ("n_trials=200",), 1,
           budget_column=None, budget=200),
        Op("periodic", "periodic", ("l=8",), 1, budget_column=None),
    ),
}

# Columns whose "false" means the command reported a failed check (exit 1).
VERDICT_COLUMNS = ("passed", "mc_consistent")


def parse_report(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Split a CSV report into its ``# key=value`` header and its rows."""
    header: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition("=")
            if not sep:
                raise ValueError(f"malformed header line {line!r}")
            header[key] = value
        else:
            body.append(line)
    table = list(csv.reader(body))
    if len(table) < 2:
        raise ValueError("report has no data rows")
    columns = table[0]
    for row in table[1:]:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} != header width {len(columns)}")
    return header, [dict(zip(columns, row)) for row in table[1:]]


def _same_value(echoed: str, passed: str) -> bool:
    a, b = echoed.split(","), passed.split(",")
    if len(a) != len(b):
        return False
    try:
        return all(float(x) == float(y) for x, y in zip(a, b))
    except ValueError:
        return echoed == passed


def check_op(op: Op, seed: int, rc: int, stdout: str, stderr: str) -> list[str]:
    """Everything wrong with one op's output; empty when it is correct."""
    if rc not in (0, 1):
        return [f"exit {rc}: {stderr.strip()}"]
    try:
        header, rows = parse_report(stdout)
    except ValueError as exc:
        return [f"unparseable CSV: {exc}"]
    problems = []
    for key, value in op.echoed(seed).items():
        if key not in header or not _same_value(header[key], value):
            problems.append(f"header echoes {key}={header.get(key)!r}, passed {value!r}")
    if op.budget_column is not None:
        counts = {r[op.budget_column] for r in rows if r.get(op.budget_column)}
        if counts != {str(op.budget)}:
            problems.append(f"{op.budget_column} {sorted(counts)} != budget {op.budget}")
    elif op.budget is not None:
        trials = sum(1 for r in rows if r["row"] != "summary")
        if trials != op.budget:
            problems.append(f"{trials} trial rows != budget {op.budget}")
    failed_check = any(r.get(c) == "false" for r in rows for c in VERDICT_COLUMNS)
    if failed_check != (rc == 1):
        problems.append(f"exit {rc} disagrees with the report's verdict columns")
    if (rc == 1) != bool(check_message(stderr)):
        problems.append(f"exit {rc} with stderr {stderr.strip()!r}")
    return problems


def check_message(stderr: str) -> str:
    """The ``check failed: ...`` line a command prints before exit 1."""
    for line in stderr.splitlines():
        if line.startswith("check failed:"):
            return line
    return ""


def fit_slope_ci(stdout: str) -> tuple[float, float] | None:
    """(slope, slope_ci) of the report's ``fit`` row, if it parses and has one."""
    try:
        _, rows = parse_report(stdout)
    except ValueError:
        return None
    for row in rows:
        if row.get("row") == "fit" and row.get("slope_ci"):
            return float(row["slope"]), float(row["slope_ci"])
    return None


def hit_counts(stdout: str) -> tuple[int, int]:
    """(sum of n_hits, sum of n_samples) over rows carrying both."""
    try:
        _, rows = parse_report(stdout)
    except ValueError:
        return 0, 0
    hits = samples = 0
    for row in rows:
        if row.get("n_hits") and row.get("n_samples"):
            hits += int(row["n_hits"])
            samples += int(row["n_samples"])
    return hits, samples
