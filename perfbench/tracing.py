"""Span tracer that wraps diracsp's public functions where their callers bind them.

A traced run replaces each name in ``TARGETS`` with a wrapper that records a
span (layer, start, end, parent) and, for a few layers, a counter.  Spans are
kept in memory; the caller turns them into per-layer self times and writes
them out when the run ends.  Leaving the ``with`` block restores every
patched name, also when the traced code raised.

A name that no longer exists (a later refactor moved or renamed it) is
listed in ``Tracer.missing`` instead of raising, so the run still reports
every layer it can see.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from pathlib import Path

# Span name of the benchmark's own per-repetition root span.
WORKLOAD = "workload"
# Span name of the harness command span (cmd_heatmap, cmd_sweep_m, cmd_learn).
COMMAND = "harness.command"


# Counter hooks: hook(tracer, args, kwargs, result) after a wrapped call returns.


def _learn_counts(tracer, args, kwargs, result):
    trace = result[1]
    tracer.counters["filtering.learn_iters"] += int(trace.iterations)
    tracer.counters["filtering.converged"] += int(bool(trace.converged))


def _csv_bytes(tracer, args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    tracer.counters["harness.csv_bytes"] += Path(path).stat().st_size


def _basis_mb(tracer, args, kwargs, result):
    vectors = getattr(result, "vectors", None)
    if vectors is None:
        if "SpectralBasis.vectors" not in tracer.missing:
            tracer.missing.append("SpectralBasis.vectors")
        return
    c = tracer.counters
    c["operators.basis_mb"] = max(c["operators.basis_mb"], vectors.nbytes / 1e6)


# (module, attribute, layer, counter hook).  Package-level names are the ones
# the benchmark itself calls; ``diracsp.harness``/``diracsp.signals`` names are
# the ones the library binds internally.
TARGETS = (
    ("diracsp", "ngf_generate", "generators.ngf_generate", None),
    ("diracsp.harness", "ngf_generate", "generators.ngf_generate", None),
    ("diracsp", "load_complex", "complexes.load_complex", None),
    ("diracsp.harness", "load_complex", "complexes.load_complex", None),
    ("diracsp", "betti_numbers", "complexes.betti_numbers", None),
    ("diracsp.harness", "assemble_dirac", "operators.assemble_dirac", None),
    ("diracsp.harness", "spectral_basis", "operators.spectral_basis", _basis_mb),
    ("diracsp.signals", "dirac_project", "operators.dirac_project", None),
    ("diracsp.harness", "sample_noise", "signals.sample_noise", None),
    ("diracsp.harness", "make_signal", "harness.make_signal", None),
    ("diracsp.harness", "learn", "filtering.learn", _learn_counts),
    ("diracsp.harness", "dirac_filter", "filtering.dirac_filter", None),
    ("diracsp.harness", "reconstruction_error", "filtering.reconstruction_error", None),
    ("diracsp.harness", "write_csv", "harness.write_csv", _csv_bytes),
    ("diracsp.harness", "cmd_heatmap", COMMAND, None),
    ("diracsp.harness", "cmd_sweep_m", COMMAND, None),
    ("diracsp.harness", "cmd_learn", COMMAND, None),
)

# Layers whose self time is reported as ``<layer>_s``; the command span's
# self time is the harness's own per-draw loop.
TIMED_LAYERS = (
    "generators.ngf_generate",
    "complexes.load_complex",
    "complexes.betti_numbers",
    "operators.assemble_dirac",
    "operators.spectral_basis",
    "operators.dirac_project",
    "signals.sample_noise",
    "harness.make_signal",
    "filtering.learn",
    "filtering.dirac_filter",
    "filtering.reconstruction_error",
    "harness.write_csv",
)
COUNTED_LAYERS = (
    "operators.dirac_project",
    "signals.sample_noise",
    "filtering.learn",
    "filtering.dirac_filter",
)


class Tracer:
    """Patch ``targets`` on entry, restore them on exit; record spans meanwhile."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        # Each span is [name, start_ns, end_ns, parent_index]; parent -1 is none.
        self.spans: list[list] = []
        self.counters = {
            "filtering.learn_iters": 0,
            "filtering.converged": 0,
            "harness.csv_bytes": 0,
            "operators.basis_mb": 0.0,
        }
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module_name, attr, layer, hook in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, layer, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so children never overlap and their
    durations sum to the part of the parent they cover.
    """
    self_ns = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
    return self_ns


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (times in seconds)."""
    spans = tracer.spans
    self_ns = self_times_ns(spans)
    by_layer: dict[str, int] = {}
    calls: dict[str, int] = {}
    for (name, *_), s in zip(spans, self_ns):
        by_layer[name] = by_layer.get(name, 0) + s
        calls[name] = calls.get(name, 0) + 1
    out = {f"{layer}_s": by_layer.get(layer, 0) / 1e9 for layer in TIMED_LAYERS}
    out.update({f"{layer}_calls": calls.get(layer, 0) for layer in COUNTED_LAYERS})
    learn_calls = calls.get("filtering.learn", 0)
    c = tracer.counters
    out["filtering.learn_iters"] = c["filtering.learn_iters"]
    out["filtering.converged_ratio"] = c["filtering.converged"] / learn_calls if learn_calls else 0.0
    out["operators.basis_mb"] = c["operators.basis_mb"]
    out["harness.csv_bytes"] = c["harness.csv_bytes"]
    out["harness.self_s"] = by_layer.get(COMMAND, 0) / 1e9
    out["workload.self_s"] = by_layer.get(WORKLOAD, 0) / 1e9
    out["trace.missing_names"] = len(tracer.missing)
    return out
