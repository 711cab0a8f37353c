"""Spans around the public functions of each `pcbs` module, recorded from outside.

`Tracer.installed()` replaces every function in LAYERS by a timing wrapper
at every `pcbs` module binding that holds it: `stats` and `cli` import
`output_amplitudes` by name, `cli` imports `oracle_state`, and so on, so
patching the defining module alone would miss those calls.  Spans stay in
memory; `metrics()` folds them into per-layer numbers and `dump()` writes
them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass

from pcbs.errors import PcbsError

# (module, function) pairs whose calls become spans.
LAYERS = (
    ("cli", "main"),
    ("config", "load_config"),
    ("fock", "suggest_n_max"),
    ("fock", "box_probability"),
    ("fock", "squeeze_matrix"),
    ("fock", "output_amplitudes"),
    ("oracle", "oracle_state"),
    ("stats", "joint_distribution"),
    ("stats", "sweep_r"),
    ("stats", "locate_maximum"),
    ("stats", "threshold_probs"),
    ("stats", "heralded_stats"),
    ("bands", "solve_band"),
    ("bands", "tune_to_group_velocity"),
    ("source", "squeeze_parameter"),
    ("bb84", "sample_cells"),
    ("bb84", "simulate_session"),
    ("bb84", "detect_attack"),
)

# Counts kept besides calls, self time and failures: name -> unit.
COUNTS = {
    "fock.output_amplitudes.cells": "count",              # sum of (n_max+1)^2
    "fock.output_amplitudes.contraction_ops": "computed",  # sum of (n_max+1)^4
    "fock.suggest_n_max.box_evals": "count",
    "stats.locate_maximum.evals": "count",
    "bb84.simulate_session.pulses": "count",
    "bands.brentq.calls": "count",
    "oracle.max_abs_dp": "probability",                   # worst oracle residual seen
}

# The argument each sized call is measured by.
_SIZE_ARGUMENT = {"fock.output_amplitudes": "policy", "bb84.simulate_session": "n_pulses"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, function in LAYERS:
        name = f"{module}.{function}"
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.failed": "count"})
    units.update(COUNTS)
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index into Tracer.spans, -1 at the top
    size: int = 0      # n_max or pulses, for the calls in _SIZE_ARGUMENT
    failed: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.brentq_calls = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def installed(self):
        """Wrap every LAYERS function, and pcbs.bands' brentq, for the with-block."""
        modules = [importlib.import_module(f"pcbs.{module}") for module, _ in LAYERS]
        bound = [mod for name, mod in list(sys.modules.items())
                 if name == "pcbs" or name.startswith("pcbs.")]
        restore = []
        for module, (module_name, function) in zip(modules, LAYERS):
            original = getattr(module, function)
            wrapper = self._span_wrapper(f"{module_name}.{function}", original)
            for mod in bound:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        bands = sys.modules["pcbs.bands"]
        restore.append((bands, "brentq", bands.brentq))
        bands.brentq = self._counting_wrapper(bands.brentq)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._open
        size_of = None
        if name in _SIZE_ARGUMENT:
            signature, argument = inspect.signature(fn), _SIZE_ARGUMENT[name]
            def size_of(args, kwargs):
                value = signature.bind(*args, **kwargs).arguments[argument]
                return value.n_max if argument == "policy" else int(value)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            if size_of is not None:
                span.size = size_of(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except PcbsError:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name == "cli.main" and result != 0:
                span.failed = True        # main turns typed errors into exit codes
            return result
        return wrapper

    def _counting_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.brentq_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def metrics(self) -> dict[str, float]:
        """Calls, self time (span minus its wrapped children) and failures per
        function, and the COUNTS, over every span recorded so far."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out = {name: 0 for name in metric_units()}
        for index, span in enumerate(self.spans):
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += span.end - span.start - child_time[index]
            out[f"{span.name}.failed"] += span.failed
            if span.name == "fock.output_amplitudes":
                out["fock.output_amplitudes.cells"] += (span.size + 1) ** 2
                out["fock.output_amplitudes.contraction_ops"] += (span.size + 1) ** 4
            elif span.name == "bb84.simulate_session":
                out["bb84.simulate_session.pulses"] += span.size
            elif span.name == "fock.box_probability" and self._inside(index, "fock.suggest_n_max"):
                out["fock.suggest_n_max.box_evals"] += 1
            elif span.name == "stats.joint_distribution" and self._inside(index, "stats.locate_maximum"):
                out["stats.locate_maximum.evals"] += 1
        out["bands.brentq.calls"] = self.brentq_calls
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([vars(span) for span in self.spans], fh)
