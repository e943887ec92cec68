"""Per-layer tracing from outside the program.

The tracer rebinds the public functions that ``nccalign.cli`` and
``nccalign.alignment`` look up at call time with timing wrappers. Each call
records one span: name, start, end, parent span and frame id. Spans stay in
memory and are written out when the run ends. A layer's self time is its
spans' duration minus that of their direct children.

Kernel wrappers also hand the kernel an ``OpCounter`` when the caller passed
none, so the multiply counts come from the program's own cost model, and
keep the returned correlation maps of the current frame so their flag
counts can be tallied after the frame, outside every span.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module attribute to rebind, span name). The module is "cli" or "alignment".
CLI_TARGETS = (
    ("main", "cli.main"),
    ("run_alignment", "cli.run_alignment"),
    ("load_pgm", "images.load_pgm"),
    ("save_pgm", "images.save_pgm"),
    ("partition_template", "alignment.partition_template"),
    ("estimate_disparity", "alignment.estimate_disparity"),
    ("fill_invalid", "alignment.fill_invalid"),
    ("interpolate_disparity", "alignment.interpolate_disparity"),
    ("warp", "alignment.warp"),
    ("global_correlation", "alignment.global_correlation"),
)
ALIGNMENT_TARGETS = (
    ("best_shift", "ncc.best_shift"),
    ("build_diag_tables", "diagonal.build_diag_tables"),
    ("ncc_diag_fast", "diagonal.ncc_diag_fast"),
    ("ncc_stream", "streaming.ncc_stream"),
)
# Kernel span -> the layer whose counters it feeds.
KERNEL_LAYERS = {
    "diagonal.ncc_diag_fast": "diagonal",
    "streaming.ncc_stream": "streaming",
}
# Spans every align frame must record, whatever the method.
COMMON_SPANS = tuple(name for _, name in CLI_TARGETS) + ("ncc.best_shift",)


class TraceError(RuntimeError):
    """A span the workload must record saw no call: a layer would read 0 ms."""


class Tracer:
    def __init__(self, nccalign):
        self._modules = {"cli": nccalign.cli, "alignment": nccalign.alignment}
        self._out_of_bounds = nccalign.ncc.OUT_OF_BOUNDS
        self._valid = nccalign.ncc.VALID
        self._block_valid = nccalign.alignment.BLOCK_VALID
        self.spans = []  # [name, start, end, parent index, frame id]
        self._stack = []
        self.frame = -1
        self.frames = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.counters = {layer: nccalign.ncc.OpCounter() for layer in KERNEL_LAYERS.values()}
        self.shift_counts = defaultdict(lambda: np.zeros(3, dtype=np.int64))  # valid, in-bounds, clamped
        self.blocks = np.zeros(2, dtype=np.int64)  # valid, total
        self._pending = []  # (layer, result) of the current frame

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        layer = KERNEL_LAYERS.get(name)
        keep = layer or ("alignment" if name == "alignment.estimate_disparity" else None)

        def traced(*args, **kwargs):
            if layer is not None and kwargs.get("counter") is None:
                kwargs["counter"] = self.counters[layer]
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.frame]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if keep is not None:
                self._pending.append((keep, result))
            elif name == "images.load_pgm":
                self.bytes_read += os.path.getsize(args[0])
            elif name == "images.save_pgm":
                self.bytes_written += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
            return result

        return traced

    @contextmanager
    def frame_scope(self, frame_id: int):
        """Install the wrappers for one frame; restore the originals after it."""
        saved = []
        try:
            for module_key, targets in (("cli", CLI_TARGETS), ("alignment", ALIGNMENT_TARGETS)):
                module = self._modules[module_key]
                for attr, name in targets:
                    if not hasattr(module, attr):
                        raise TraceError(
                            f"nccalign.{module_key}.{attr} no longer exists, so span {name} "
                            "cannot be recorded; update the benchmark's trace targets"
                        )
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original))
            self.frame = frame_id
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.frame = -1
            self.frames += 1
            self._tally_pending()

    def _tally_pending(self):
        for layer, result in self._pending:
            if layer == "alignment":
                self.blocks += ((result.status == self._block_valid).sum(), result.status.size)
                continue
            validity = result.validity
            counts = self.shift_counts[layer]
            counts[0] += int((validity == self._valid).sum())
            counts[1] += int((validity != self._out_of_bounds).sum())
            if result.clamped is not None:
                counts[2] += int(result.clamped.sum())
        self._pending.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds)."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child.get(index, 0.0)
        return {name: (calls[name], total[name], self_time[name]) for name in calls}

    def require(self, expected, workload: str) -> None:
        """Fail loudly when an expected span recorded no call."""
        totals = self.totals()
        missing = [name for name in expected if totals.get(name, (0,))[0] == 0]
        if missing:
            raise TraceError(
                f"workload {workload}: span(s) {', '.join(missing)} recorded zero calls over "
                f"{self.frames} traced frame(s); the rebound names no longer intercept the "
                "program's calls, so these layers would read 0 ms"
            )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-frame per-layer metrics, 0 for layers the workload never calls."""
        totals = self.totals()
        n = max(self.frames, 1)

        def ms(name, which=1):
            return totals.get(name, (0, 0.0, 0.0))[which] * 1000.0 / n

        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0] / n

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        m = {
            "images.load_pgm_ms": (ms("images.load_pgm"), "ms"),
            "images.save_pgm_ms": (ms("images.save_pgm"), "ms"),
            "images.bytes_read": (self.bytes_read / n, "B"),
            "images.bytes_written": (self.bytes_written / n, "B"),
            "ncc.best_shift_ms": (ms("ncc.best_shift"), "ms"),
        }
        for layer, kernel in (("diagonal", "ncc_diag_fast"), ("streaming", "ncc_stream")):
            span = f"{layer}.{kernel}"
            valid, inbounds, clamped = self.shift_counts[layer]
            m[f"{span}_ms"] = (ms(span), "ms")
            m[f"{span}_calls"] = (calls(span), "count")
            m[f"{layer}.multiplies"] = (self.counters[layer].multiplies / n, "count")
            m[f"{layer}.valid_shift_ratio"] = (ratio(valid, inbounds), "ratio")
            if layer == "streaming":
                m["streaming.clamped_shifts"] = (clamped / n, "count")
        m["diagonal.build_diag_tables_ms"] = (ms("diagonal.build_diag_tables"), "ms")
        for stage in ("partition_template", "estimate_disparity", "fill_invalid",
                      "interpolate_disparity", "warp", "global_correlation"):
            m[f"alignment.{stage}_ms"] = (ms(f"alignment.{stage}"), "ms")
        m["alignment.estimate_disparity_self_ms"] = (ms("alignment.estimate_disparity", 2), "ms")
        m["alignment.blocks_valid_ratio"] = (ratio(*self.blocks), "ratio")
        m["cli.run_alignment_ms"] = (ms("cli.run_alignment"), "ms")
        m["cli.main_self_ms"] = (ms("cli.main", 2), "ms")
        return m

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, frame in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "frame": frame}) + "\n")
