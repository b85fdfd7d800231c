"""End-to-end tests for the experiment driver: config resolution, exit
codes, deterministic CSV output, and golden-file regression."""

import csv
import importlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bayescomplex
from bayescomplex import cli, complexity
from bayescomplex.cli import main, render_csv
from bayescomplex.errors import NumericalError
from bayescomplex.models import build_periodic_deep_net
from bayescomplex.pwl import periodize

GOLDEN_DIR = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

# Float cells may differ from a golden in their last digits, because the
# libm and BLAS kernels under numpy differ between builds and CPUs (the
# spread measured across OPENBLAS_CORETYPE kernels is at most ~1.2e-14
# relative and ~1.1e-14 absolute near zero; see CHANGES.md). These bounds
# sit well above that and far below any real change: one more IS hit moves
# chi by about 1e-3.
GOLDEN_RTOL = 1e-12
GOLDEN_ATOL = 1e-13


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _close_floats(a: str, b: str) -> bool:
    """True if a and b are float cells (one holds '.' or 'e') with finite
    values inside the golden tolerance. A float zero prints as "0", so one
    side having the float form is enough."""
    if "." not in a + b and "e" not in a + b:
        return False
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    return abs(x - y) <= GOLDEN_RTOL * max(abs(x), abs(y)) + GOLDEN_ATOL


def assert_report_matches(out: str, golden: str) -> None:
    """Compare a CSV report with a golden copy: header lines, the column
    line and every non-float cell byte for byte, float cells to within
    GOLDEN_RTOL / GOLDEN_ATOL."""
    got_lines, want_lines = out.split("\n"), golden.split("\n")
    assert len(got_lines) == len(want_lines), (
        f"{len(got_lines)} lines, golden has {len(want_lines)}"
    )
    n_head = 1 + next(
        i for i, line in enumerate(want_lines) if not line.startswith("#")
    )
    for n in range(n_head):
        assert got_lines[n] == want_lines[n], f"line {n + 1} differs"
    for n in range(n_head, len(want_lines)):
        got, want = got_lines[n].split(","), want_lines[n].split(",")
        assert len(got) == len(want), (
            f"line {n + 1}: {len(got)} cells, golden has {len(want)}"
        )
        for col, (a, b) in enumerate(zip(got, want)):
            assert a == b or _close_floats(a, b), (
                f"line {n + 1}, cell {col + 1}: {a!r} vs golden {b!r}"
            )


class TestConfigResolution:
    """Flat key = value files, overrides, and rejection diagnostics."""

    def test_unknown_key_reports_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\nl = 4\nwibble = 3\n")
        rc, _, err = run_cli(["periodic", "--config", str(cfg)], capsys)
        assert rc == 2
        assert "line 3" in err and "wibble" in err

    def test_bad_value_reports_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l = not_an_int\n")
        rc, _, err = run_cli(["periodic", "--config", str(cfg)], capsys)
        assert rc == 2
        assert "line 1" in err

    def test_junk_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l = 4\njust some words\n")
        rc, _, err = run_cli(["periodic", "--config", str(cfg)], capsys)
        assert rc == 2
        assert "line 2" in err

    def test_missing_config_file(self, capsys):
        rc, _, err = run_cli(["periodic", "--config", "/nonexistent.cfg"], capsys)
        assert rc == 2
        assert "not found" in err

    def test_comments_quotes_and_values_parse(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# full-line comment\n"
            "\n"
            "l = 4  # trailing comment\n"
            'target_locs = "0.0,0.5"\n'
            "target_slopes = 2.0,-4.0\n"
        )
        rc, out, _ = run_cli(["periodic", "--config", str(cfg)], capsys)
        assert rc == 0
        assert "# l=4" in out
        assert "# target_locs=0,0.5" in out

    def test_precedence_file_then_pairs_then_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nl = 4\n")
        rc, out, _ = run_cli(
            ["periodic", "--config", str(cfg), "--seed", "3", "seed=2", "l=5"],
            capsys,
        )
        assert rc == 0
        assert "# seed=3" in out
        assert "# l=5" in out

    def test_unknown_pair_key(self, capsys):
        rc, _, err = run_cli(["periodic", "wibble=3"], capsys)
        assert rc == 2
        assert "wibble" in err

    def test_seed_and_workers_ranges(self, capsys):
        rc, _, err = run_cli(["periodic", "--seed", "-1"], capsys)
        assert rc == 2 and "seed" in err
        rc, _, err = run_cli(["periodic", "--workers", "0"], capsys)
        assert rc == 2 and "workers" in err


class TestExitCodes:
    """0 pass, 1 failed check (CSV still written), 2 config, 3 numerical."""

    def test_pass_is_zero(self, capsys):
        rc, out, _ = run_cli(["periodic"], capsys)
        assert rc == 0
        assert "deep_count" in out

    def test_failed_check_is_one_and_csv_still_written(self, capsys):
        rc, out, err = run_cli(
            ["linear_complexity", "mc_samples=2000", "slope_rel_tol=1e-9"],
            capsys,
        )
        assert rc == 1
        assert "check failed" in err
        assert out.count("\n") > 5  # header + rows emitted before the failure

    def test_deep_tail_target_prints_every_closed_form(self, capsys):
        """At kappa = 40, q is e^-805 to e^-821, below float64: every
        closed-form chi is still finite, the CSV is whole, and the one
        failure is the slope check (the slope is pre-asymptotic there)."""
        rc, out, err = run_cli(["linear_complexity", "kappa=40", "mc_samples=2000"], capsys)
        assert rc == 1
        assert err == "check failed: fitted slope 3.4422 deviates from d=3 by more than 10%\n"
        rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
        chis = [float(row["chi_closed"]) for row in rows if row["row"] == "point"]
        assert len(chis) == 5 and rows[-1]["row"] == "fit"
        assert all(745 < chi < math.inf for chi in chis), chis
        assert chis[-2:] == pytest.approx([817.55, 821.01], abs=5e-3)

    def test_assumption_violation_is_one(self, capsys):
        rc, out, err = run_cli(
            ["one_change", "a=1.8", "b=0.1", "n_samples=50000"], capsys
        )
        assert rc == 1
        assert "eps^(1/4) <= |b|" in err
        [row] = csv.DictReader(line for line in out.splitlines() if not line.startswith("#"))
        assert (row["assumptions_ok"], row["violated"]) == ("false", "eps^(1/4) <= |b|")

    def test_config_error_is_two(self, capsys):
        rc, _, err = run_cli(["linear_complexity", "eps_grid=0.1,0.01"], capsys)
        assert rc == 2
        assert "at least 3" in err

    @pytest.mark.parametrize("argv", [
        ["linear_complexity", "mc_samples=0"],
        ["nn_complexity", "n_per_eps=0"],
        ["one_change", "n_samples=0"],
        ["codim", "n_samples=0"],
    ])
    def test_zero_sample_budget_is_two(self, argv, capsys):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert err == "config error: sample budget must be >= 1, got 0\n"

    @pytest.mark.parametrize("argv, key", [
        (["periodic", "n_grid=0"], "n_grid"),
        (["periodic", "n_grid=1"], "n_grid"),
        (["pacbayes", "n_trials=0"], "n_trials"),
        (["pacbayes", "n_trials=1"], "n_trials"),  # no standard error
        (["pacbayes", "n_replicas=0"], "n_replicas"),
        (["projection_check", "n_trials=0"], "n_trials"),
    ])
    def test_empty_budget_is_two(self, argv, key, capsys):
        """A budget that leaves nothing to check is a config error naming
        its key, not a traceback, a nan verdict or a vacuous pass."""
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"config error: {key} must be >= ")
        assert err.count("\n") == 1

    def test_underflowing_hit_weights_get_the_binomial_error(self, capsys):
        """At eps = 0.2 this run's two hits carry weights whose squares
        underflow, so the weights show no variance: the point reports the
        hits' binomial relative error instead of 0, and the fit stays
        finite (its slope fails the check at 40 draws a point)."""
        argv = ["nn_complexity", "k=32", "eps_grid=0.3,0.25,0.2", "n_per_eps=40",
                "--seed", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out, err = run_cli(argv, capsys)
        assert rc == 1 and err.startswith("check failed: fitted slope ")
        rows = list(csv.DictReader(l for l in out.splitlines() if not l.startswith("#")))
        points = [row for row in rows if row["row"] == "point"]
        for row in points:
            assert 0.0 < float(row["std_err"]) < math.inf
        hits, n = int(points[-1]["n_hits"]), int(points[-1]["n_samples"])
        assert float(points[-1]["std_err"]) == math.sqrt((1.0 - hits / n) / hits)
        assert math.isfinite(float(rows[-1]["slope"]))
        assert math.isfinite(float(rows[-1]["slope_ci"]))

    @pytest.mark.parametrize("argv", [
        ["codim", "eps_grid=0.3,nan,0.1"],
        ["nn_complexity", "eps_grid=0.3,nan,0.1"],
        ["nn_complexity", "eps_grid=inf,0.2,0.1", "n_per_eps=2000"],
        ["linear_complexity", "eps_grid=0.3,nan,0.1"],
    ])
    def test_non_finite_eps_grid_is_two(self, argv, capsys):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert err == "config error: eps_grid values must be finite\n"

    def test_unreachable_linear_grid_point_is_two(self, capsys, monkeypatch):
        """eps^2 <= perp_sq leaves a grid point's event empty: a config error
        naming the point, raised before q or any draw is computed."""

        def no_work(*args, **kwargs):
            raise AssertionError("computed before checking the grid")

        monkeypatch.setattr(cli, "sharp_complexity_mc_grid", no_work)
        monkeypatch.setattr(complexity, "log_q_closed_form", no_work)
        rc, out, err = run_cli(["linear_complexity", "perp_sq=0.001"], capsys)
        assert rc == 2
        assert out == ""
        assert err == (
            "config error: eps=0.0316228 has eps^2 <= perp_sq=0.001: its event is empty\n"
        )

    @pytest.mark.parametrize("radius", ["-1", "nan", "inf"])
    def test_bad_codim_radius_is_two(self, radius, capsys):
        """Only radius=0 means the default radius; the rest must be usable."""
        rc, out, err = run_cli(["codim", f"radius={radius}", "n_samples=1000"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("config error: radius must be finite and > 0, got ")

    @pytest.mark.parametrize("argv, message", [
        (["codim", "sigma_w_sq=nan"], "prior variances must be finite and > 0"),
        (["codim", "M=nan"], "hidden-bias range M must be finite and >= 1"),
        (["nn_complexity", "sigma_w_sq=-3"], "prior variances must be finite and > 0"),
        (["nn_complexity", "sigma_b_sq=inf"], "prior variances must be finite and > 0"),
        (["pacbayes", "sigma_w_sq=nan"], "prior variance must be finite and > 0"),
        (["sgld_check", "sigma_w_sq=inf"], "prior variance must be finite and > 0"),
        (["linear_complexity", "sigma_w=nan"], "sigma_w must be finite and > 0"),
        (["linear_complexity", "kappa=nan"], "kappa must be finite and >= 0"),
    ])
    def test_bad_prior_parameter_is_two(self, argv, message, capsys):
        """Only exactly 0 means a network prior's default; nan, inf and
        negative values are config errors, not defaults or tracebacks."""
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"config error: {message}, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("pair, key", [
        ("clip_C=0", "clip_C"), ("clip_C=inf", "clip_C"), ("clip_C=nan", "clip_C"),
        ("tol=0", "tol"), ("tol=inf", "tol"), ("tol=nan", "tol"),
    ])
    def test_bad_clip_or_tol_is_two(self, pair, key, capsys):
        """pacbayes takes only a finite, positive clip and search tolerance:
        anything else is a config error, not a bracket failure, a search
        that cannot stop or one that stops anywhere."""
        rc, out, err = run_cli(["pacbayes", pair, "n_trials=2", "n_replicas=2"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"config error: {key} must be finite and > 0, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, variances", [
        (["sgld_check", "sigma_y_sq=1e-320"], "sigma_y_sq=1e-320, sigma_w_sq=1.0"),
        (["sgld_check", "sigma_w_sq=1e-320"], "sigma_y_sq=0.04, sigma_w_sq=1e-320"),
        (["pacbayes", "sigma_w_sq=1e-320"], "sigma_y_sq=1e-06, sigma_w_sq=1e-320"),
    ])
    def test_tiny_variance_is_three(self, argv, variances, capsys):
        """A variance whose reciprocal overflows float64 makes the posterior
        precision infinite: a numerical error naming both variances, with no
        RuntimeWarning (an error under this repo's pytest config)."""
        rc, out, err = run_cli(argv, capsys)
        assert rc == 3
        assert out == ""
        assert err == (
            f"numerical error: posterior precision or data term not finite at {variances}\n"
        )

    def test_numerical_error_is_three(self, capsys):
        rc, _, err = run_cli(
            ["sgld_check", "eta=50.0", "steps=100", "burn_in=10"], capsys
        )
        assert rc == 3
        assert "diverged" in err


class TestDeterminism:
    """Byte-identical output for identical (config, seed, workers)."""

    ARGV = ["nn_complexity", "eps_grid=0.2,0.14,0.1", "n_per_eps=20000"]

    def test_repeat_run_is_byte_identical(self, capsys):
        rc1, out1, _ = run_cli(self.ARGV, capsys)
        rc2, out2, _ = run_cli(self.ARGV, capsys)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run_cli(self.ARGV, capsys)
        _, out2, _ = run_cli(self.ARGV + ["--seed", "7"], capsys)
        assert out1 != out2

    def test_worker_count_is_part_of_the_config_echo(self, capsys):
        rc, out1, _ = run_cli(self.ARGV + ["--workers", "2"], capsys)
        assert rc == 0
        assert "# workers=2" in out1
        _, out2, _ = run_cli(self.ARGV + ["--workers", "2"], capsys)
        assert out1 == out2

    def test_out_flag_writes_the_same_bytes(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        rc = main(self.ARGV + ["--out", str(target)])
        capsys.readouterr()
        assert rc == 0
        _, out, _ = run_cli(self.ARGV, capsys)
        # Only the echoed out= line may differ between the two modes.
        written = target.read_text().replace(f"# out={target}", "# out=")
        assert written == out


class TestCsvShape:
    """Resolved-config header, consistent row widths, 17-digit floats."""

    def test_header_echoes_every_key_sorted(self, capsys):
        rc, out, _ = run_cli(["periodic"], capsys)
        assert rc == 0
        header = [l for l in out.splitlines() if l.startswith("# ")]
        keys = [l[2:].split("=", 1)[0] for l in header]
        assert keys == sorted(keys)
        for key in ("l", "n_grid", "out", "seed", "sup_tol", "target_bias",
                    "target_locs", "target_slopes", "workers"):
            assert key in keys

    def test_rows_match_column_count(self, capsys):
        for argv in (["periodic"], ["one_change", "n_samples=20000"]):
            _, out, _ = run_cli(argv, capsys)
            lines = [l for l in out.splitlines() if not l.startswith("# ")]
            width = len(lines[0].split(","))
            for line in lines[1:]:
                assert len(line.split(",")) == width

    def test_rows_are_keyed_by_column(self):
        """A column a row leaves out renders empty; a key that is not a
        column is an internal error, not a silently dropped cell."""
        text = render_csv({"seed": 1}, ("row", "n", "ok"), [{"row": "a", "ok": True}])
        assert text == "# seed=1\nrow,n,ok\na,,true\n"
        with pytest.raises(NumericalError, match="oops"):
            render_csv({"seed": 1}, ("row", "n"), [{"row": "a", "oops": 2}])

    def test_floats_carry_seventeen_significant_digits(self, capsys):
        _, out, _ = run_cli(
            ["nn_complexity", "eps_grid=0.2,0.14,0.1", "n_per_eps=5000"],
            capsys,
        )
        assert "0.20000000000000001" in out


GOLDEN_RUNS = [
    ("periodic", ["periodic"]),
    ("one_change", ["one_change"]),
    ("projection_check", ["projection_check"]),
    ("linear_complexity", ["linear_complexity"]),
    ("codim", ["codim"]),
    # The surplus-node branch (k = c + 1) and the two-knot assignment (c = 2).
    # Budgets where the slope CI (about 0.24 and 0.25) is well inside the
    # tolerance (0.5 and 0.7), so the verdict does not hang on the draws.
    ("codim_k2", ["codim", "k=2", "eps_grid=0.3,0.2,0.14", "n_samples=500000"]),
    ("codim_c2",
     ["codim", "k=2", "target_locs=0.3,0.7", "target_slopes=1.0,-0.8",
      "eps_grid=0.5,0.4,0.3", "radius=4.0", "tolerance=0.7", "n_samples=1000000"]),
    ("sgld_check", ["sgld_check"]),
    ("nn_complexity_small",
     ["nn_complexity", "eps_grid=0.2,0.14,0.1", "n_per_eps=20000"]),
    ("pacbayes_small", ["pacbayes", "n_trials=4", "n_replicas=4"]),
    # Two streams on the thread pool; generated by the sequential engine, so
    # they pin the threaded path to its bytes. one_change's 75,000 draws per
    # stream come in two IS batches (62,500 rows at k = 8).
    ("nn_complexity_workers2",
     ["nn_complexity", "eps_grid=0.2,0.14,0.1", "n_per_eps=20000", "--workers", "2"]),
    ("one_change_workers2", ["one_change", "n_samples=150000", "--workers", "2"]),
]


class TestProjectionAccounting:
    """accounting_ok replays each result's recorded phases onto the input,
    so phases that do not account for theta_star fail the trial."""

    @staticmethod
    def _tamper(monkeypatch, change):
        """Route projection_check through project_to_zero with change applied
        to the first result that has a bias move; returns the changed trials."""
        real, changed = cli.project_to_zero, []

        def tampered(theta):
            res = real(theta)
            if res.phases.bias_moves and not changed:
                changed.append(res)
                res = change(res)
            return res

        monkeypatch.setattr(cli, "project_to_zero", tampered)
        return changed

    @pytest.mark.parametrize("change", [
        # One bias move dropped: the replay misses theta_star's biases.
        lambda res: replace(
            res, phases=replace(res.phases, bias_moves=res.phases.bias_moves[1:])),
        # Phases intact, movement doubled: the steps no longer sum to it.
        lambda res: replace(res, movement_sq=2.0 * res.movement_sq),
    ], ids=["dropped_bias_move", "movement_mismatch"])
    def test_unaccounted_result_fails_the_trial(self, monkeypatch, capsys, change):
        changed = self._tamper(monkeypatch, change)
        rc, out, err = run_cli(["projection_check", "n_trials=10"], capsys)
        assert len(changed) == 1
        table = [line for line in out.splitlines() if not line.startswith("#")]
        rows = list(csv.DictReader(table))
        flagged = [r["row"] for r in rows if r["accounting_ok"] == "false"]
        assert flagged == ["3"]  # trial 3 is the first with a bias move at seed 42
        assert rows[3]["exact_zero"] == "true" and rows[3]["passed"] == "false"
        assert rc == 1
        assert "trial 3: phase accounting mismatch" in err


class TestPeriodicReport:
    """The periodic report's m is the profile's interior-knot count, the m
    of the deep bound 4l + 2m + 6."""

    def test_w_profile_counts_every_interior_knot(self, capsys):
        rc, out, _ = run_cli(
            ["periodic", "target_locs=0,0.25,0.5,0.75", "target_slopes=-4,8,-8,8"],
            capsys,
        )
        assert rc == 0
        columns, values = [line for line in out.splitlines() if not line.startswith("#")]
        row = dict(zip(columns.split(","), values.split(",")))
        l, m = int(row["l"]), int(row["m"])
        assert m == 3  # knots at 0.25, 0.5 and 0.75; the one at 0 is not interior
        assert int(row["deep_bound"]) == 4 * l + 2 * m + 6
        assert int(row["deep_count"]) <= int(row["deep_bound"]) < int(row["shallow_count"])
        assert row["passed"] == "true"

    @pytest.mark.parametrize("pairs", [
        (),
        ("target_locs=0,0.25,0.5,0.75", "target_slopes=-4,8,-8,8"),
    ])
    def test_sup_error_is_the_whole_grid_max(self, pairs):
        """The sup check runs slice by slice; it reports the one-shot max
        over the grid, bit for bit."""
        cfg = cli.resolve_config(cli.build_parser().parse_args(["periodic", *pairs]))
        assert cfg["n_grid"] > 2 * cli._SUP_SLICE
        g0, l = cli._pwl_target(cfg), cfg["l"]
        net, _ = build_periodic_deep_net(g0, l)
        xs = np.linspace(0.0, float(l), cfg["n_grid"])
        one_shot = float(np.max(np.abs(net.forward(xs) - periodize(g0, l)(xs))))
        assert cli.cmd_periodic(cfg).rows[0]["sup_err"] == one_shot


class TestGoldenOutputs:
    """Frozen CSVs for the default configs (plus two reduced variants) are
    reproduced: byte-for-byte except the last digits of float cells."""

    @pytest.mark.parametrize("name,argv", GOLDEN_RUNS, ids=[n for n, _ in GOLDEN_RUNS])
    def test_golden(self, name, argv, capsys):
        golden = (GOLDEN_DIR / f"{name}.csv").read_text()
        rc, out, err = run_cli(argv, capsys)
        assert rc == 0, f"expected a passing run, stderr: {err}"
        assert_report_matches(out, golden)

    def test_linear_first_point_keeps_its_draws(self, capsys):
        """The whole eps grid is drawn from the first point's stream, so
        the eps = 0.1 row at 200,000 draws is the one the per-point
        sampling loop printed."""
        rc, out, _ = run_cli(["linear_complexity", "mc_samples=200000"], capsys)
        assert rc == 0
        got = next(line for line in out.splitlines() if line.startswith("point,")).split(",")
        want = (
            "point,0.10000000000000001,7.6964375756586643,7.6211051668596017,"
            "0.10099050268541622,98,200000,42,false,,,,,,,"
        ).split(",")
        assert len(got) == len(want)
        assert all(a == b or _close_floats(a, b) for a, b in zip(got, want)), got

    def test_linear_default_runs_its_mc_cross_check(self, capsys):
        """At the default mc_samples the coarsest point has the 100 hits the
        cross-check needs, so its mc_consistent cell is filled (and true)."""
        rc, out, _ = run_cli(["linear_complexity"], capsys)
        assert rc == 0
        table = [line for line in out.splitlines() if not line.startswith("#")]
        first = next(csv.DictReader(table))
        assert first["row"] == "point" and int(first["n_hits"]) >= 100
        assert first["mc_consistent"] == "true"


def _replace_cell(text, row_label, column, new_value):
    """Return text with one cell of the first row labelled row_label
    replaced by new_value(old_cell)."""
    lines = text.split("\n")
    columns = next(l for l in lines if not l.startswith("#")).split(",")
    col = columns.index(column)
    n = next(i for i, l in enumerate(lines) if l.startswith(row_label + ","))
    cells = lines[n].split(",")
    cells[col] = new_value(cells[col])
    lines[n] = ",".join(cells)
    return "\n".join(lines)


def _drop_row(text, row_label):
    lines = text.split("\n")
    lines.remove(next(l for l in lines if l.startswith(row_label + ",")))
    return "\n".join(lines)


REPORT_ALTERATIONS = {
    "n_hits_plus_one": lambda t: _replace_cell(
        t, "point", "n_hits", lambda c: str(int(c) + 1)),
    "float_scaled_1e-10": lambda t: _replace_cell(
        t, "point", "chi", lambda c: format(float(c) * (1 + 1e-10), ".17g")),
    "header_value": lambda t: t.replace("# n_per_eps=20000", "# n_per_eps=20001"),
    "row_dropped": lambda t: _drop_row(t, "point"),
    "true_to_false": lambda t: _replace_cell(t, "fit", "passed", lambda c: "false"),
}


class TestReportComparison:
    """assert_report_matches rejects every real change. (That it accepts
    this installation's last-digit float differences is what
    TestGoldenOutputs checks.)"""

    GOLDEN = (GOLDEN_DIR / "nn_complexity_small.csv").read_text()

    @pytest.mark.parametrize("alteration", sorted(REPORT_ALTERATIONS))
    def test_altered_golden_is_rejected(self, alteration):
        altered = REPORT_ALTERATIONS[alteration](self.GOLDEN)
        assert altered != self.GOLDEN
        with pytest.raises(AssertionError):
            assert_report_matches(altered, self.GOLDEN)


class TestEntryPoints:
    """The declared console script and prefixed aliases reach the same
    commands."""

    def test_cmd_prefixed_alias(self, capsys):
        rc, out, _ = run_cli(["cmd_periodic"], capsys)
        assert rc == 0
        assert "deep_count" in out

    def test_console_script(self, tmp_path):
        """Run the [project.scripts] entry the way the generated wrapper
        does, from this source tree, without installing the package."""
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["bayescomplex"]
        module, _, attr = entry.partition(":")
        assert getattr(importlib.import_module(module), attr) is main
        wrapper = (
            f"import sys\nfrom {module} import {attr}\n"
            f"sys.argv = ['bayescomplex', 'periodic']\nsys.exit({attr}())\n"
        )
        package_parent = str(Path(bayescomplex.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(
            p for p in (package_parent, os.environ.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", wrapper],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert result.returncode == 0, result.stderr
        assert_report_matches(result.stdout, (GOLDEN_DIR / "periodic.csv").read_text())

    # Loading these costs a process about half a second and 50 MiB. No code
    # uses scipy.stats; the other three are imported only inside the
    # functions that call them.
    SCIPY_SUBMODULES = ("scipy.stats", "scipy.linalg", "scipy.special", "scipy.integrate")

    @staticmethod
    def _run_fresh(code: str, env: dict[str, str] | None = None) -> str:
        """Run code in a new interpreter that finds this source tree's
        package, in env (default: this process's environment); return its
        stdout."""
        package_parent = str(Path(bayescomplex.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**(os.environ if env is None else env), "PYTHONPATH": package_parent},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_import_leaves_scipy_stats_unloaded(self):
        """Importing the package or its CLI loads none of SCIPY_SUBMODULES
        (scipy.stats is not used at all)."""
        for module in ("bayescomplex", "bayescomplex.cli"):
            out = self._run_fresh(
                f"import sys, {module}\n"
                f"print([m for m in {self.SCIPY_SUBMODULES!r} if m in sys.modules])"
            )
            assert out == "[]\n", module

    def test_package_import_loads_no_submodule(self):
        """The package binds no names of its own: importing it loads none of
        its submodules, and not numpy."""
        out = self._run_fresh(
            "import json, sys, bayescomplex\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "    if m.startswith('bayescomplex.') or m.split('.')[0] == 'numpy')))"
        )
        assert json.loads(out) == []

    def test_commands_without_scipy_leave_it_unloaded(self):
        """nn_complexity, one_change, codim, linear_complexity,
        projection_check and periodic never call scipy, so a process that
        runs them never loads it."""
        assert self._scipy_loaded_by([
            ["linear_complexity", "mc_samples=20000"],
            ["nn_complexity", "eps_grid=0.2,0.14,0.1", "n_per_eps=5000"],
            ["one_change", "n_samples=20000"],
            ["codim", "n_samples=20000"],
            ["projection_check", "n_trials=10"],
            ["periodic", "n_grid=1000"],
        ]) == []

    def test_posterior_commands_leave_integrate_unloaded(self):
        """pacbayes and sgld_check load scipy.linalg and scipy.special but
        never scipy.integrate (q is a series in math alone) or scipy.stats."""
        assert self._scipy_loaded_by([
            ["pacbayes", "n_trials=3", "n_replicas=4"],
            ["sgld_check", "steps=3000", "burn_in=500"],
        ]) == ["scipy.linalg", "scipy.special"]

    def _scipy_loaded_by(self, argvs) -> list[str]:
        """SCIPY_SUBMODULES loaded by a fresh process that runs each argv
        through main; each must exit 0 or 1."""
        out = self._run_fresh(
            "import contextlib, io, json, sys\n"
            "from bayescomplex.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {argvs!r}]\n"
            f"loaded = [m for m in {self.SCIPY_SUBMODULES!r} if m in sys.modules]\n"
            "print(json.dumps([codes, loaded]))"
        )
        codes, loaded = json.loads(out)
        assert all(code in (0, 1) for code in codes), codes
        return loaded

    @pytest.mark.skipif(
        shutil.which("bayescomplex") is None,
        reason="no bayescomplex executable on PATH (package not installed)",
    )
    def test_installed_console_script(self):
        result = subprocess.run(
            ["bayescomplex", "periodic"], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert_report_matches(result.stdout, (GOLDEN_DIR / "periodic.csv").read_text())


class TestInlineRuns:
    """workers=1 runs inline: no pool and no thread, and the allocator
    setting made at import keeps its batch temporaries off fresh pages."""

    ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS")}
    # Setting any of glibc's malloc tunables turns its dynamic mmap threshold
    # off, so the fault test runs without them.
    MALLOC_TUNING = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
                     "MALLOC_MMAP_MAX_", "GLIBC_TUNABLES")

    def test_workers_one_starts_no_thread(self):
        out = TestEntryPoints._run_fresh(
            "import contextlib, io, threading\n"
            "import bayescomplex.cli as cli\n"
            "from bayescomplex import complexity\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['codim', 'n_samples=20000', '--workers', '1'])\n"
            "print(rc, threading.active_count(), complexity._POOL is None)"
        )
        assert out.split() == ["0", "1", "True"]

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="pins glibc malloc's mmap threshold, which other C libraries do not have",
    )
    @pytest.mark.parametrize("argv", [
        ["codim", "n_samples=20000"],
        ["linear_complexity", "mc_samples=200000"],
        ["nn_complexity", "n_per_eps=20000"],
    ], ids=lambda argv: argv[0])
    def test_repeated_run_takes_no_page_faults(self, argv):
        """A second run in one process reuses the heap pages of the first:
        without the threshold raised at import, glibc maps and unmaps every
        batch-sized temporary, and the second run takes 350-1,750 minor
        faults."""
        out = TestEntryPoints._run_fresh(
            "import contextlib, io, resource\n"
            "from bayescomplex.cli import main\n"
            "faults = []\n"
            "for _ in range(2):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert main({[*argv, '--workers', '1']!r}) == 0\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(faults[1])",
            {**{var: value for var, value in os.environ.items() if var not in self.MALLOC_TUNING},
             **self.ONE_BLAS_THREAD},
        )
        assert int(out) < 50
