"""In-memory span recorder for the traced benchmark run.

The tracer replaces functions on the module attributes the program looks
them up by (``melcert.zeros.isolate_roots``, ``melcert.polynomials.poly_gcd``,
...) with timing wrappers, and puts every original back on exit.  A span is
``[name, start, end, parent, item]``; ``parent`` indexes the enclosing span
(``None`` for an item span).  Counter hooks run a callback on the result
without opening a span.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

ITEM = "item"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.hook_calls = 0
        self.missing = []
        self.item = None
        self._stack = []
        self._saved = []

    # -- wrappers ------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span called ``name`` (no span when name is None);
        ``after(tracer, args, kwargs, result)`` runs once fn has returned."""

        def traced(*args, **kwargs):
            self.hook_calls += 1
            if name is None:
                result = fn(*args, **kwargs)
            else:
                rec = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(rec)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args) inside a span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def run_item(self, item_id, fn, *args):
        self.item = item_id
        try:
            return self.call(ITEM, fn, *args)
        finally:
            self.item = None

    # -- installation --------------------------------------------------------

    def install(self, hooks):
        """hooks: (span name or None, [(module, attribute), ...], after)."""
        for name, targets, after in hooks:
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, after))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- analysis ----------------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _name, start, end, _parent, _item in spans]
    for _name, start, end, parent, _item in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def by_name(spans) -> dict:
    """name -> {"calls", "total_s", "self_s"} over every span."""
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for rec, own in zip(spans, self_times(spans)):
        row = table[rec[0]]
        row["calls"] += 1
        row["total_s"] += rec[2] - rec[1]
        row["self_s"] += own
    return dict(table)


def coverage(spans) -> float:
    """Share of item time that the item's direct child spans cover."""
    item_time = sum(end - start for name, start, end, _p, _i in spans if name == ITEM)
    covered = sum(
        end - start
        for _name, start, end, parent, _item in spans
        if parent is not None and spans[parent][0] == ITEM
    )
    return covered / item_time if item_time > 0 else 0.0


def hook_cost_s(calls: int = 20000) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op."""

    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap("probe", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        probe.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
