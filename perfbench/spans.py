"""In-memory span tracer for the traced benchmark run.

The tracer replaces public functions with timing wrappers at the attribute
their caller looks up at call time (``models.grad_log_posterior_unnorm`` as
seen by the sampler's target closure, ``sampler.project_orthant`` as seen by
``SamplerConfig.projector``, and so on). Each call records one span: name,
start, end, parent span and the run id shared by all spans of the process.
Spans stay in memory until the run ends.

A function that the program no longer has is skipped and listed in
``Tracer.absent``; its metrics then read 0 instead of the run crashing.
"""

from __future__ import annotations

import csv
import importlib
import statistics
import time

import kernels

# (module, attribute path, span name, note). A span's layer is the part of
# its name before the first dot. ``note`` keeps a value from the call for
# the metrics: "model" the first argument, "chain" the steps run and draws
# kept, "result" the return value, "path" the output path, "grid"/"outside" the
# sampling sizes of the assumption checks.
SPECS = (
    ("models", "grad_log_posterior_unnorm", "models.grad", "model"),
    ("models", "grad_log_lik", "models.grad", "model"),
    ("models", "log_posterior_unnorm", "models.value", "model"),
    ("models", "log_lik", "models.loglik", "model"),
    ("models", "hess_log_lik", "models.hess", None),
    ("models", "simulate", "models.simulate", None),
    ("sampler", "run_chain", "sampler.run_chain", "chain"),
    ("sampler", "project_orthant", "sampler.proj", None),
    ("sampler", "project_good_set", "sampler.proj", None),
    ("sampler", "Chain.export_csv", "io.chain_export", "path"),
    ("sampler", "contains_many", "geometry.contains_many", None),
    ("io", "save_dataset", "io.dataset_write", None),
    ("io", "load_model_config", "io.config_load", None),
    ("diagnostics", "ess_report", "diagnostics.ess_report", None),
    ("diagnostics", "bulk_ess", "diagnostics.bulk_ess", None),
    ("diagnostics", "coverage_experiment", "diagnostics.coverage", None),
    ("diagnostics", "good_set_mass", "diagnostics.good_set_mass", None),
    ("diagnostics", "contains_many", "geometry.contains_many", None),
    ("experiments", "find_mode_local", "mode.local", "result"),
    ("experiments", "find_mode_global", "mode.global", "result"),
    ("cli", "find_mode_local", "mode.local", "result"),
    ("cli", "find_mode_global", "mode.global", "result"),
    ("assumptions", "estimate_constants", "assumptions.constants", "grid"),
    ("assumptions", "check_well_separation", "assumptions.wellsep", "outside"),
    ("geometry", "build_good_set", "geometry.build_good_set", None),
    ("experiments", "run_ess_study", "experiments.study", None),
    ("experiments", "run_coverage_study", "experiments.study", None),
    ("experiments", "run_trial", "experiments.trial", None),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_simulate", "cli.simulate", None),
    ("cli", "cmd_mode", "cli.mode", None),
    ("cli", "cmd_check", "cli.check", None),
    ("cli", "cmd_sample", "cli.sample", None),
)


def _note(kind, args, kwargs, result):
    if kind == "model":
        return args[0]
    if kind == "chain":
        return args[1].n_steps, result.samples.shape[0]
    if kind == "result":
        return result
    if kind == "path":
        return str(args[1] if len(args) > 1 else kwargs["path"])
    if kind == "grid":
        return (args[1] if len(args) > 1 else kwargs["region"]).grid
    if kind == "outside":
        if len(args) > 4:
            return args[4]
        return kwargs.get("n_outside_samples", 1000)
    return None


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, note]
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.absent: list[str] = []

    def _wrap(self, fn, name, note_kind):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter
        # model functions call one another (the posterior calls the
        # likelihood); only the outermost model call is a layer boundary
        outer_only = name.startswith("models.")

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if outer_only and parent >= 0 and spans[parent][0].startswith("models."):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if note_kind is not None:
                span[4] = _note(note_kind, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, path, name, note_kind in SPECS:
            owner = importlib.import_module(f"orthant_gibbs.{module_name}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self._wrap(fn, name, note_kind))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """All spans as CSV: run_id, span, name, start_s, end_s, parent."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "span", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                out.writerow([self.run_id, i, name, f"{start:.9f}", f"{end:.9f}", parent])


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover (one thread,
    so children never overlap)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _inside(spans, i: int, prefix: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced study from its spans.

    Times are means per call unless the name says otherwise; a layer the
    workload does not run reads 0.
    """
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
    own = _self_times(spans)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def mean(name, scale):
        return _ratio(total(name), calls(name)) * scale

    def layer_self(layer):
        return sum(own[i] for i, s in enumerate(spans) if s[0].split(".")[0] == layer)

    def computed(indices, what):
        counts = [kernels.counts(spans[i][4], what) for i in indices]
        return sum(c[0] for c in counts), sum(c[1] for c in counts)

    def in_chain(i):
        return spans[i][3] >= 0 and spans[spans[i][3]][0] == "sampler.run_chain"

    m: dict[str, float] = {}

    # models
    grads = by_name.get("models.grad", [])
    values = by_name.get("models.value", [])
    grad_flop, grad_bytes = computed(grads, "grad")
    value_flop, value_bytes = computed(values, "value")
    chains = by_name.get("sampler.run_chain", [])
    chain_s = total("sampler.run_chain")
    m["models.grad_calls"] = len(grads)
    m["models.grad_us"] = mean("models.grad", 1e6)
    m["models.value_calls"] = len(values)
    m["models.value_us"] = mean("models.value", 1e6)
    m["models.value_share"] = _ratio(sum(dur(i) for i in values if in_chain(i)), chain_s)
    m["models.hess_calls"] = calls("models.hess")
    m["models.hess_ms"] = mean("models.hess", 1e3)
    m["models.loglik_calls"] = calls("models.loglik")
    m["models.loglik_us"] = mean("models.loglik", 1e6)
    m["models.simulate_ms"] = mean("models.simulate", 1e3)
    m["models.grad_flop"] = _ratio(grad_flop, len(grads))
    m["models.grad_bytes"] = _ratio(grad_bytes, len(grads))
    m["models.grad_flop_per_byte"] = _ratio(grad_flop, grad_bytes)
    m["models.value_flop"] = _ratio(value_flop, len(values))
    m["models.value_bytes"] = _ratio(value_bytes, len(values))
    m["models.grad_gflop_s"] = _ratio(grad_flop, total("models.grad")) / 1e9

    # sampler
    steps = sum(spans[i][4][0] for i in chains)
    model_in_chain = sum(dur(i) for i, s in enumerate(spans)
                         if s[0].startswith("models.") and in_chain(i))
    m["sampler.chains"] = len(chains)
    m["sampler.steps"] = steps
    m["sampler.kept_draws"] = sum(spans[i][4][1] for i in chains)
    m["sampler.chain_s"] = _ratio(chain_s, len(chains))
    m["sampler.step_us"] = _ratio(chain_s, steps) * 1e6
    m["sampler.self_us"] = _ratio(chain_s - model_in_chain, steps) * 1e6
    m["sampler.proj_calls"] = calls("sampler.proj")
    m["sampler.proj_us"] = mean("sampler.proj", 1e6)

    # diagnostics
    m["diagnostics.ess_report_ms"] = mean("diagnostics.ess_report", 1e3)
    m["diagnostics.bulk_ess_calls"] = calls("diagnostics.bulk_ess")
    m["diagnostics.bulk_ess_us"] = mean("diagnostics.bulk_ess", 1e6)
    m["diagnostics.coverage_ms"] = mean("diagnostics.coverage", 1e3)
    m["diagnostics.good_set_mass_ms"] = mean("diagnostics.good_set_mass", 1e3)

    # io
    export_mb = sum(kernels.file_mb(spans[i][4]) for i in by_name.get("io.chain_export", ()))
    m["io.chain_export_ms"] = mean("io.chain_export", 1e3)
    m["io.chain_export_mb"] = _ratio(export_mb, calls("io.chain_export"))
    m["io.export_mb_s"] = _ratio(export_mb, total("io.chain_export"))
    m["io.dataset_write_ms"] = mean("io.dataset_write", 1e3)
    m["io.config_load_ms"] = mean("io.config_load", 1e3)

    # mode
    local = [spans[i][4] for i in by_name.get("mode.local", ()) if spans[i][4] is not None]
    results = local + [spans[i][4] for i in by_name.get("mode.global", ())
                       if spans[i][4] is not None]
    m["mode.local_calls"] = calls("mode.local")
    m["mode.local_ms"] = mean("mode.local", 1e3)
    m["mode.local_iters"] = _ratio(sum(r.iterations for r in local), len(local))
    m["mode.converged_ratio"] = _ratio(sum(bool(r.converged) for r in results), len(results))
    m["mode.global_ms"] = mean("mode.global", 1e3)
    m["mode.objective_evals"] = sum(1 for i in values if _inside(spans, i, "mode."))

    # assumptions
    wellsep = by_name.get("assumptions.wellsep", [])
    loglik_in_wellsep = sum(1 for i in by_name.get("models.loglik", ())
                            if _inside(spans, i, "assumptions.wellsep"))
    m["assumptions.constants_ms"] = mean("assumptions.constants", 1e3)
    m["assumptions.hess_per_point_ms"] = _ratio(
        total("assumptions.constants"),
        sum(spans[i][4] for i in by_name.get("assumptions.constants", ()))) * 1e3
    m["assumptions.wellsep_ms"] = mean("assumptions.wellsep", 1e3)
    # one log-likelihood call per search is at the mode, the rest are samples
    # that landed outside the region
    m["assumptions.wellsep_outside_ratio"] = _ratio(loglik_in_wellsep - len(wellsep),
                                                    sum(spans[i][4] for i in wellsep))

    # geometry
    m["geometry.build_good_set_ms"] = mean("geometry.build_good_set", 1e3)
    m["geometry.contains_many_ms"] = mean("geometry.contains_many", 1e3)

    # experiments
    trials = sorted(dur(i) for i in by_name.get("experiments.trial", ()))
    m["experiments.trial_s_p50"] = statistics.median(trials) if trials else 0.0
    m["experiments.trial_s_max"] = trials[-1] if trials else 0.0
    m["experiments.self_s"] = layer_self("experiments")
    m["experiments.failed_trials"] = 0  # filled in by the worker from the manifests

    # cli
    m["cli.simulate_s"] = total("cli.simulate")
    m["cli.mode_s"] = total("cli.mode")
    m["cli.check_s"] = total("cli.check")
    m["cli.sample_s"] = total("cli.sample")
    m["cli.self_s"] = layer_self("cli")
    return m
