"""Span tracing of doalab's public functions, installed from outside the package.

Each traced function is replaced, under every name a doalab module binds it
to, by a wrapper that records one span: (id, parent id, request id, name,
start, end). Callers that imported a function by name (``from .signal import
stft``) look it up in their own module, so every binding has to be wrapped
for the span to appear. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs traced in a ``--trace 1`` run. A pair that a
# later version of doalab no longer defines is skipped and reads as zero.
TRACED = (
    ("simulate", "mix_scene"),
    ("simulate", "image_method_rir"),
    ("signal", "stft"),
    ("signal", "read_wav"),
    ("geometry", "steering_matrix"),
    ("attention", "psm_mask"),
    ("attention", "magnitude_ratio_mask"),
    ("attention", "binarize"),
    ("attention", "random_band_mask"),
    ("attention", "band_range_mask"),
    ("attention", "load_mask"),
    ("estimate", "srp_phat"),
    ("estimate", "srp_mp"),
    ("estimate", "srp_narrowband"),
    ("estimate", "norm_music"),
    ("estimate", "pick_doa"),
    ("evaluate", "run_experiment"),
    ("evaluate", "build_mask"),
    ("evaluate", "estimate_scene"),
    ("cli", "main"),
)

LAYERS = ("simulate", "signal", "geometry", "attention", "estimate", "evaluate", "cli")

REQUEST_SPAN = "bench.request"


class Tracer:
    """Collects spans from wrapped functions; install/uninstall per request."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, request]
        self.meters = {}  # span name -> callable(span_id, args, kwargs, result)
        self._stack = []
        self._request = -1
        self._bindings = []  # (module, attribute, original, wrapper)
        modules = [m for n, m in sys.modules.items() if n == "doalab" or n.startswith("doalab.")]
        for mod_name, fn_name in TRACED:
            owner = sys.modules.get(f"doalab.{mod_name}")
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id)
            meter = self.meters.get(name)
            if meter is not None:
                meter(span_id, args, kwargs, result)
            return result

        return traced

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, span_id):
        self.spans[span_id][2] = time.perf_counter()
        self._stack.pop()

    def install(self, request: int):
        """Swap wrappers in and open the request's root span."""
        self._request = request
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        return self._open(REQUEST_SPAN)

    def uninstall(self, root: int):
        self._close(root)
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def totals(self):
        """Per span name: calls, busy seconds and self seconds.

        Busy time counts only the outermost span of a name, so nested calls
        of the same function are not counted twice. Self time is a span's
        duration minus the durations of its direct children.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            if not self.has_ancestor(i, (name,)):
                busy[name] += end - start
        return calls, busy, self_s

    def has_ancestor(self, span_id: int, names) -> bool:
        parent = self.spans[span_id][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        """Write all spans as CSV, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span_id", "parent_id", "request_id", "name", "start_s", "end_s"])
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                writer.writerow([i, parent, request, name, f"{start - t0:.9f}", f"{end - t0:.9f}"])
