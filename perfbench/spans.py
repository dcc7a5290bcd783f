"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded by wrappers the benchmark installs on the public names a
layer calls (for example ``ofdm_im_slm.ccdf.idft``) and around its own calls
into the library. The package itself is not changed. Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict

# (module, attribute, span name): the names each layer looks up at call time.
# A name a later version of the package no longer has is skipped.
PATCH_TARGETS = [
    ("cli", "run_ccdf", "ccdf.run_ccdf"),
    ("cli", "instantiate_scheme", "ccdf.instantiate_scheme"),
    ("ccdf", "instantiate_scheme", "ccdf.instantiate_scheme"),
    ("cli", "gen_hadamard_pss", "slm.gen_sets"),
    ("cli", "gen_random_pss", "slm.gen_sets"),
    ("cli", "gen_perm_set", "slm.gen_sets"),
    ("ccdf", "gen_hadamard_pss", "slm.gen_sets"),
    ("ccdf", "gen_random_pss", "slm.gen_sets"),
    ("ccdf", "gen_perm_set", "slm.gen_sets"),
    ("ccdf", "idft", "core.idft"),
    ("ccdf", "oversampled_idft", "core.oversampled_idft"),
    ("slm", "idft", "core.idft"),
    ("cli", "var_rho_empirical_profile", "analysis.var_rho_empirical_profile"),
    ("cli", "mu_metric", "analysis.mu_metric"),
    ("cli", "punctured_spectrum", "analysis.punctured_spectrum"),
]

TRANSFORMS = ("core.idft", "core.oversampled_idft")


def transform_counts(result) -> tuple:
    """Computed (flops, bytes) of one transform call from its output shape.

    A length-L complex FFT is counted as 5 L log2 L flops per row; bytes are
    the complex128 output written plus the same amount read as input (the
    zero-padded spectrum, for the oversampled transform). Caches and
    temporaries are ignored.
    """
    length = result.shape[-1]
    rows = result.size // length
    return 5 * rows * length * math.log2(length), 2 * result.nbytes


class Tracer:
    """Records (name, parent, operation, start, end, flops, bytes) spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = None

    def wrap(self, name: str, fn):
        transform = name in TRANSFORMS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = [name, parent, self.op, start, end, 0, 0]
            if transform:
                self.spans[index][5:] = transform_counts(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, lib, op):
        """Trace the package's inner calls while one operation runs."""
        self.op = op
        saved = []
        for module_name, attr, span in PATCH_TARGETS:
            module = getattr(lib, module_name)
            original = getattr(module, attr, None)
            if original is not None:
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            self.op = None

    def totals(self, ops) -> dict:
        """Per span name over the given operations: inclusive and self
        seconds, calls, flops and bytes."""
        ops = set(ops)
        child_time = defaultdict(float)
        for name, parent, op, start, end, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "flops": 0.0, "bytes": 0})
        for index, (name, _, op, start, end, flops, nbytes) in enumerate(self.spans):
            if op in ops:
                t = totals[name]
                t["s"] += end - start
                t["self_s"] += end - start - child_time[index]
                t["calls"] += 1
                t["flops"] += flops
                t["bytes"] += nbytes
        return totals

    def to_json(self) -> dict:
        """Spans as rows; ``parent`` is the row index of the enclosing span."""
        return {"fields": ["name", "parent", "op", "start", "end", "flops", "bytes"], "spans": self.spans}
