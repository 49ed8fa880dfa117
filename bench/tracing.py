"""Span tracing of mstdkit's public functions, installed from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper under every name that refers to the original in any
loaded ``mstdkit`` module: ``from .setops import mstd_delta`` leaves a
second binding in the importing module, and a call through an unbound
name would escape the trace.  Spans (label, start, end, parent index) and
counters live in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "search", "counting", "grouplattice", "setops", "constructions")

JOB_PREFIX = "job:"


# Counters computed from return values: work done, and useful outcomes of it.
def _count_spectrum(counts, rep):
    counts["search.masks_scanned"] += 1 << (rep.range_max + 1)
    counts["search.masks_in_band"] += rep.enumerated


def _count_covering(counts, rep):
    counts["counting.graphs_enumerated"] += 1 << rep.n
    counts["counting.covering_found"] += rep.covering


def _count_thicken(counts, lattice):
    counts["grouplattice.thicken.points"] += len(lattice)


def _count_sumset(counts, result):
    if result:  # the shift-OR mask of a nonempty sumset is span + 1 bits wide
        counts["setops.sumset.span_bits"] += result.span + 1


COUNTERS = {
    "search.exhaustive_spectrum": _count_spectrum,
    "counting.count_covering": _count_covering,
    "grouplattice.thicken": _count_thicken,
    "setops.sumset": _count_sumset,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [label, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, label: str) -> list:
        span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, label: str):
        span = self._open(label)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, label: str, fn):
        counter = COUNTERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(label)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    def install(self):
        wrappers = {}
        for name in MODULES:
            mod = importlib.import_module(f"mstdkit.{name}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{name}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "mstdkit" and not modname.startswith("mstdkit."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


def layer_times(spans: list[list], lo: int, hi: int) -> dict:
    """Per-function and per-module times of the spans ``spans[lo:hi]``.

    ``<label>.s`` is the time of outermost calls, ``<label>.self_s`` that
    time minus what child spans cover, ``<module>.self_s`` the module's
    total self time; job spans (the benchmark's own) are left out.
    """
    covered = defaultdict(float)
    for label, t0, t1, parent in spans[lo:hi]:
        if parent >= 0:
            covered[parent] += t1 - t0
    out: dict = defaultdict(float)
    for i in range(lo, hi):
        label, t0, t1, parent = spans[i]
        if label.startswith(JOB_PREFIX):
            continue
        own = t1 - t0 - covered[i]
        out[f"{label.split('.', 1)[0]}.self_s"] += own
        out[f"{label}.self_s"] += own
        out[f"{label}.calls"] += 1
        p = parent
        while p >= 0 and spans[p][0] != label:
            p = spans[p][3]
        if p < 0:
            out[f"{label}.s"] += t1 - t0
    return out
