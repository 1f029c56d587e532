"""Outside-in layer tracing for the benchmark's traced run.

Spans are recorded by wrapping public functions of each qlorentz module from
here, so ``src/`` is not edited. ``from .states import w_spectrum`` binds the
function object into the importing module at import time, so a wrapper is
installed on every loaded qlorentz module that holds the original object,
not only on the defining module.

Spans stay in memory: one tuple (name id, parent span, start ns, end ns) per
call. A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap one another.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "qlorentz"

# Wrapped functions per layer (the package modules; ``errors`` does no work).
# Each span is named "<layer>.<function>", with leading underscores dropped,
# so cli._emit traces as cli.emit.
LAYERS = {
    "linalg": ("partial_trace", "mat_sqrt_psd", "kron_all"),
    "lorentz": ("sample_sl2c", "spin_hom", "boost_z", "rotation_z"),
    "seeding": ("split_seed", "rng_from_seed"),
    "states": (
        "reduce",
        "random_state",
        "spin_flip",
        "w_spectrum",
        "apply_local",
        "state_from_json_dict",
        "state_to_json_dict",
    ),
    "invariants": (
        "linear_entropy",
        "linear_mutual_info_subsets",
        "linear_mutual_info_trace",
        "spectral_invariants",
        "concurrence",
        "invariant_report",
    ),
    "correlation": (
        "singlet_correlation",
        "polarized_determinant",
        "correlator_symmetry_check",
        "pauli_correlation_table",
    ),
    "cli": ("main", "_emit"),
}


def _observe_partial_trace(counters, args, kwargs, result):
    # computed, not measured: the full 2**n x 2**n complex128 input is read once
    n = kwargs["n"] if "n" in kwargs else args[1]
    counters["linalg.partial_trace.bytes_in"] += 16 * 4**n


def _observe_w_spectrum(counters, args, kwargs, result):
    counters["states.w_spectrum.eigenvalues"] += int(result.size)
    counters["states.w_spectrum.zeros"] += int((result == 0.0).sum())


def _observe_emit(counters, args, kwargs, result):
    # bytes written, less the digits of wall_time_s, whose length varies run to run
    report, cli_args = args
    if cli_args.output:
        wall = len(json.dumps(report.get("wall_time_s")))
        counters["cli.emit.bytes"] += os.path.getsize(cli_args.output) - wall


OBSERVERS = {
    "linalg.partial_trace": _observe_partial_trace,
    "states.w_spectrum": _observe_w_spectrum,
    "cli.emit": _observe_emit,
}


class Tracer:
    """Context manager that wraps the LAYERS functions and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, observe):
        spans, stack, clock, counters = self.spans, self._stack, time.perf_counter_ns, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, parent, start, end)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for layer, functions in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                span = f"{layer}.{fname.lstrip('_')}"
                self.names.append(span)
                wrappers[id(original)] = self._wrap(
                    len(self.names) - 1, original, OBSERVERS.get(span)
                )
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls and self seconds; per layer: self seconds."""
        durations = [end - start for _, _, start, end in self.spans]
        child_ns = [0] * len(self.spans)
        for (_, parent, _, _), dur in zip(self.spans, durations):
            if parent >= 0:
                child_ns[parent] += dur
        per_name = {n: {"calls": 0, "self_s": 0.0} for n in self.names}
        for (name_id, _, _, _), dur, child in zip(self.spans, durations, child_ns):
            entry = per_name[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += (dur - child) * 1e-9
        per_layer = {layer: 0.0 for layer in LAYERS}
        for name, entry in per_name.items():
            per_layer[name.split(".", 1)[0]] += entry["self_s"]
        return {"functions": per_name, "layers": per_layer, "counters": dict(self.counters)}

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: id, parent, request (root span id), name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        request = [0] * len(self.spans)
        names = [json.dumps(name) for name in self.names]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for idx, (name_id, parent, start, end) in enumerate(self.spans):
                request[idx] = idx if parent < 0 else request[parent]
                fh.write(f"[{idx},{parent},{request[idx]},{names[name_id]},{start},{end}]\n")
