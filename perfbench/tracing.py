"""Span recording around the functions each fimnar layer exposes to its callers.

Wrappers are installed at the names the callers look up at run time (for
example ``fimnar.sim.em_fit``, which ``run_mc`` calls, and
``fimnar.fiem.log_density_outer``, which the donor base calls), so the
package itself is not edited.  Each wrapper records a span (name, start,
end, parent span, operation id) and the counts derived from the call's
arguments or result, then returns the result unchanged or re-raises the
exception it saw.

A tracer made with ``memory=True`` also runs ``tracemalloc`` for the
duration of each ``fiem`` or ``variance`` span that is not nested in
another, which gives the peak of Python-visible allocations (NumPy
reports its buffers) made inside it.  Tracing allocations slows code
that allocates many small arrays by about a fifth, so the benchmark
takes span times from a tracer without it.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

# (module, attribute its caller looks up, span name); the span name's
# prefix up to the first dot is the layer
SITES = (
    ("fimnar.cli", "main", "cli.main"),
    ("fimnar.cli", "load_config", "config.load"),
    ("fimnar.cli", "ingest", "dataio.ingest"),
    ("fimnar.cli", "check_model", "identify.check_model"),
    ("fimnar.cli", "select_aic", "respondent.select_aic"),
    ("fimnar.cli", "em_fit", "fiem.em_fit"),
    ("fimnar.cli", "estimate_mu_y", "fiem.estimate_mu_y"),
    ("fimnar.cli", "variance_estimate", "variance.sandwich"),
    ("fimnar.cli", "mu_y_variance", "variance.mu_y_var"),
    ("fimnar.sim", "run_mc", "sim.run_mc"),
    ("fimnar.sim", "true_mu_y", "sim.truth"),
    ("fimnar.sim", "generate", "sim.generate"),
    ("fimnar.sim", "fit_glm", "respondent.fit_glm"),
    ("fimnar.sim", "fit_normal_mixture", "respondent.fit_normal_mixture"),
    ("fimnar.sim", "em_fit", "fiem.em_fit"),
    ("fimnar.sim", "estimate_mu_y", "fiem.estimate_mu_y"),
    ("fimnar.sim", "variance_estimate", "variance.sandwich"),
    ("fimnar.sim", "mu_y_variance", "variance.mu_y_var"),
    ("fimnar.variance", "estimate_mu_y", "fiem.estimate_mu_y"),
    ("fimnar.fiem", "log_density_outer", "expfam.log_density_outer"),
    ("fimnar.variance", "log_density_outer", "expfam.log_density_outer"),
)

MEMORY_LAYERS = ("fiem", "variance")


def _count_ingest(counts, result):
    counts["dataio.rows"] += int(result.n)


def _count_em_fit(counts, result):
    iterations = int(result.em_iterations)
    n_missing, pool = result.weights.w.shape
    counts["fiem.iterations"] += iterations
    counts["fiem.weight_cells"] += iterations * n_missing * pool


def _count_outer(counts, result):
    rows, donors = result.shape
    counts["expfam.outer_cells"] += rows * donors


COUNTERS = {
    "dataio.ingest": _count_ingest,
    "fiem.em_fit": _count_em_fit,
    "expfam.log_density_outer": _count_outer,
}


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: str
    start: float
    end: float = 0.0
    error: Optional[str] = None
    peak_alloc_bytes: Optional[int] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans and counts in memory; one tracer per traced process."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = "setup"
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []
        self._memory_span: Optional[Span] = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every site that exists; absent names are listed, not fatal."""
        for module_name, attr, span_name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span_name))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, 0.0)
        if (
            self.memory
            and span.layer in MEMORY_LAYERS
            and self._memory_span is None
            and not tracemalloc.is_tracing()
        ):
            tracemalloc.start()
            self._memory_span = span
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span is self._memory_span:
            span.peak_alloc_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self._memory_span = None

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        except BaseException as err:
            span.error = type(err).__name__
            raise
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    # -- summaries ------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per span name: span time not covered by the span's direct children."""
        child_time = Counter()
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.seconds
        out: Counter = Counter()
        for span in self.spans:
            out[span.name] += span.seconds - child_time[span.id]
        return dict(out)

    def total_seconds(self, *names: str) -> float:
        return sum(s.seconds for s in self.spans if s.name in names)

    def calls(self, *names: str) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def failures(self, layer: str) -> int:
        return sum(1 for s in self.spans if s.layer == layer and s.error is not None)

    def peak_alloc_mb(self, layer: str) -> float:
        peaks = [
            s.peak_alloc_bytes
            for s in self.spans
            if s.layer == layer and s.peak_alloc_bytes is not None
        ]
        return max(peaks, default=0) / 2**20

    def layer_metrics(self) -> dict[str, float]:
        selfs = self.self_seconds()

        def layer_self(layer: str) -> float:
            return sum(v for k, v in selfs.items() if k.startswith(layer + "."))

        respondent = [n for _, _, n in SITES if n.startswith("respondent.")]
        return {
            "cli.self_s": layer_self("cli"),
            "config.load_s": self.total_seconds("config.load"),
            "dataio.ingest_s": self.total_seconds("dataio.ingest"),
            "dataio.rows": self.counts["dataio.rows"],
            "identify.check_s": self.total_seconds("identify.check_model"),
            "identify.calls": self.calls("identify.check_model"),
            "respondent.fit_s": self.total_seconds(*respondent),
            "respondent.calls": self.calls(*respondent),
            "sim.generate_s": self.total_seconds("sim.generate"),
            "sim.truth_s": self.total_seconds("sim.truth"),
            "sim.self_s": selfs.get("sim.run_mc", 0.0),
            "fiem.em_fit_s": self.total_seconds("fiem.em_fit"),
            "fiem.estimate_mu_y_s": self.total_seconds("fiem.estimate_mu_y"),
            "fiem.self_s": layer_self("fiem"),
            "fiem.failures": self.failures("fiem"),
            "fiem.iterations": self.counts["fiem.iterations"],
            "fiem.weight_cells": self.counts["fiem.weight_cells"],
            "expfam.log_density_outer_s": self.total_seconds("expfam.log_density_outer"),
            "expfam.log_density_outer_calls": self.calls("expfam.log_density_outer"),
            "expfam.outer_cells": self.counts["expfam.outer_cells"],
            "variance.sandwich_s": self.total_seconds("variance.sandwich"),
            "variance.mu_y_var_s": self.total_seconds("variance.mu_y_var"),
            "variance.self_s": layer_self("variance"),
            "variance.failures": self.failures("variance"),
        }

    def span_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
