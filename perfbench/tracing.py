"""Span tracing at the module boundaries of ``bayescomplex``, from outside.

The package is never edited. ``install`` wraps each function or method named
in ``TARGETS`` and rebinds the wrapper wherever a caller looks the original
up: on the class for methods, and in the globals of every ``bayescomplex``
module that holds the original (so names pulled in with ``from ... import``
are replaced too, e.g. ``cli.run_sgld`` and ``complexity.hyperbola_distance``).

A span is ``[name, start, end, parent, op, count, error]``; spans stay in a
list in memory and are handed back when the run ends. The helpers at the
bottom reduce them to self times, counts and rates.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, OP, COUNT, ERROR = range(7)


def _rows(args, kwargs, result):
    return int(np.shape(result)[0])


def _size(args, kwargs, result):
    return int(np.size(result))


def _draws(args, kwargs, result):
    return int(result.n_samples)


def _codim_draws(args, kwargs, result):
    return int(result.per_eps[0].n_samples)


def _dist_rows(args, kwargs, result):
    # [rows, width]: the per-width throughput table needs both.
    return [int(np.shape(result)[0]), int(args[0].k)]


# (module, attribute path, span name, count). Spans that feed no per-layer
# metric of their own (limiting_complexity, generate_dataset, ...) are there
# so each command's time lands in a layer span. The count is a callable of
# (args, kwargs, result) or a dotted path into the bound call arguments
# ("cfg.steps"); args include ``self`` for methods. Counts are taken only
# when the call returns.
TARGETS = (
    ("families", "ShallowNetFamily.dist_sq", "families.dist_sq", _dist_rows),
    ("families", "ShallowNetFamily.sample_matrix", "families.sample_matrix", _rows),
    ("families", "ShallowNetFamily.cloud_sample", "families.cloud_sample", _rows),
    ("families", "ShallowNetFamily.log_prior_density", "families.log_prior_density", None),
    ("families", "ShallowNetFamily.cloud_log_density", "families.cloud_log_density", None),
    ("families", "LinearFamily.dist_sq", "families.linear_dist_sq", _rows),
    ("families", "LinearFamily.sample_matrix", "families.sample_matrix", _rows),
    ("complexity", "limiting_complexity", "complexity.limiting_complexity", None),
    ("complexity", "limiting_complexity_closed_form",
     "complexity.limiting_complexity_closed_form", None),
    ("complexity", "sharp_complexity_is", "complexity.sharp_complexity_is", _draws),
    ("complexity", "sharp_complexity_mc", "complexity.sharp_complexity_mc", _draws),
    ("complexity", "fit_limiting_slope", "complexity.fit_limiting_slope", None),
    ("complexity", "one_change_bounds", "complexity.one_change_bounds", None),
    ("complexity", "codim_estimate", "complexity.codim_estimate", _codim_draws),
    ("complexity", "hyperbola_distance", "complexity.hyperbola_distance", _size),
    ("complexity", "chi_from_q", "complexity.chi_from_q", None),
    ("complexity", "q_closed_form", "complexity.q_closed_form", None),
    ("posterior", "generate_dataset", "posterior.generate_dataset", None),
    ("posterior", "conjugate_posterior_linear", "posterior.conjugate_posterior_linear", None),
    ("posterior", "conjugate_empirical_loss", "posterior.conjugate_empirical_loss", None),
    ("posterior", "conjugate_true_loss", "posterior.conjugate_true_loss", None),
    ("posterior", "expected_clipped_loss_gaussian",
     "posterior.expected_clipped_loss_gaussian", _size),
    ("posterior", "run_sgld", "posterior.run_sgld", "cfg.steps"),
    ("posterior", "batch_means_se", "posterior.batch_means_se", None),
    ("posterior", "find_sigma_alg", "posterior.find_sigma_alg", "n_replicas"),
    ("posterior", "kl_gaussians", "posterior.kl_gaussians", None),
    ("posterior", "theorem_bound", "posterior.theorem_bound", None),
    ("projection", "project_to_zero", "projection.project_to_zero", None),
    ("projection", "movement_between", "projection.movement_between", None),
    ("models", "shallow_to_pwl", "models.shallow_to_pwl", None),
    ("models", "min_norm_realization", "models.min_norm_realization", None),
    ("models", "build_periodic_deep_net", "models.build_periodic_deep_net", None),
    ("models", "DeepNetParams.forward", "models.deep_forward", None),
    ("pwl", "l2_norm_sq", "pwl.l2_norm_sq", None),
    ("pwl", "periodize", "pwl.periodize", None),
    ("rng", "SeededRng.generator", "rng.generator", None),
    ("cli", "render_csv", "cli.render_csv", lambda args, kwargs, result: len(result)),
)


class Tracer:
    """In-memory span recorder. ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, None, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error: BaseException | None = None) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        self._stack.pop()
        if error is not None:
            span[ERROR] = type(error).__name__

    def wrap(self, fn, name: str, count):
        if isinstance(count, str):
            sig = inspect.signature(fn)
            arg, *attrs = count.split(".")

            def count(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                value = bound.arguments[arg]
                for attr in attrs:
                    value = getattr(value, attr)
                return int(value)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx, error=exc)
                raise
            self.close(idx)
            if count is not None:
                self.spans[idx][COUNT] = count(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every target to its traced wrapper; return what to restore."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "bayescomplex" or n.startswith("bayescomplex."))]
    restore = []
    for mod_name, path, span_name, count in TARGETS:
        owner = sys.modules[f"bayescomplex.{mod_name}"]
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if owner_path else getattr(owner, attr)
        wrapped = tracer.wrap(original, span_name, count)
        if owner_path:
            restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, key, original))
                    setattr(module, key, wrapped)
    return restore


def uninstall(restore: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


# --------------------------------------------------------------------------
# From spans to per-layer metrics
# --------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, self seconds, summed counts."""
    selfs = self_times(spans)
    agg: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "count": 0})
    for s, self_s in zip(spans, selfs):
        a = agg[s[NAME]]
        a["calls"] += 1
        a["self_s"] += self_s
        count = s[COUNT]
        if count is not None:
            a["count"] += count[0] if isinstance(count, list) else count
    return agg


def dist_sq_by_width(spans: list[list]) -> dict[int, tuple[int, float]]:
    """Width k -> (rows, seconds) over the shallow-family distance spans."""
    selfs = self_times(spans)
    out: dict[int, list] = defaultdict(lambda: [0, 0.0])
    for s, self_s in zip(spans, selfs):
        if s[NAME] == "families.dist_sq" and s[COUNT] is not None:
            rows, k = s[COUNT]
            out[k][0] += rows
            out[k][1] += self_s
    return {k: (rows, secs) for k, (rows, secs) in out.items()}


def calls_within(spans: list[list], outer: str, inner: str) -> int:
    """How many ``inner`` spans have an ``outer`` span among their ancestors."""
    n = 0
    for s in spans:
        if s[NAME] != inner:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != outer:
            p = spans[p][PARENT]
        n += p >= 0
    return n


def zero_hit_errors(spans: list[list]) -> int:
    """Ops aborted by a zero-hit error (an abort ends its op, so one each)."""
    return len({s[OP] for s in spans if s[ERROR] == "InsufficientSamplesError"})
