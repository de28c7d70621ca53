"""Span tracing of emgleam's public functions, installed from outside the program.

``Tracer.install`` replaces each traced function in every emgleam module
namespace that holds it, so a call is seen wherever its caller looks the name
up: ``dataset.capture_iq`` and ``testbed.capture_iq`` as well as
``emanator.capture``.  Methods are replaced on their class.  Spans (name,
start, end, parent span, run id) stay in memory until the run ends.

Work counts are recorded at the same boundaries.  They are computed from the
arguments and results (FLOPs from the ``CnnSpec`` shapes, sub-crops against
distinct window cells, ADC samples produced), so they repeat exactly for a
given seed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

#: (module, qualified name) of every traced function, in report order
TRACED = (
    ("raster", "render_digit_grid"),
    ("raster", "render_security_message"),
    ("raster", "render_eyechart"),
    ("emanator", "emanate"),
    ("emanator", "capture"),
    ("_spectrum", "calibrate_noise_sigma"),
    ("_spectrum", "welch_psd"),
    ("receiver", "am_demod"),
    ("receiver", "estimate_frame_rate"),
    ("receiver", "reconstruct"),
    ("pgmio", "write_pgm"),
    ("pgmio", "read_pgm"),
    ("util", "dump_json"),
    ("util", "load_json"),
    ("dataset", "run_session"),
    ("dataset", "run_code_session"),
    ("dataset", "build_training_sets"),
    ("dataset", "load_items"),
    ("classifier", "train"),
    ("classifier", "evaluate"),
    ("classifier", "CnnModel.loss_and_grads"),
    ("classifier", "CnnModel.softmax"),
    ("attack", "sliding_map"),
    ("testbed", "run_testbed"),
)

_MARK = "__perfbench_traced__"
_PER_FUNCTION = (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"), ("errors", "count"))
#: metrics derived from spans and counts, with their units
DERIVED = (
    ("classifier.step_gflops", "GFLOP/s"),
    ("classifier.fwd_flops_per_crop", "count"),
    ("attack.useful_ratio", "ratio"),
    ("attack.subcrops", "count"),
    ("attack.distinct_cells", "count"),
    ("emanator.capture.msamples_per_s", "Msample/s"),
    ("emanator.capture.samples", "count"),
    ("trace_overhead_ratio", "ratio"),
)


def label(module: str, qualname: str) -> str:
    """Metric prefix of a traced function (no leading underscore)."""
    return f"{module.lstrip('_')}.{qualname}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{label(m, q)}.{suffix}": unit for m, q in TRACED for suffix, unit in _PER_FUNCTION
    }
    units.update(DERIVED)
    return units


def forward_flops(spec) -> int:
    """Multiply-adds x 2 of the conv and dense layers for one crop.

    Pooling, rectifiers and softmax are left out: they are a few percent of
    the total.
    """
    k = spec.kernel
    h, w = spec.input_hw
    c1, c2 = spec.conv_channels
    f1, f2 = spec.fc_sizes
    h1, w1 = h - k + 1, w - k + 1
    h2, w2 = h1 // 2 - k + 1, w1 // 2 - k + 1
    macs = c1 * k * k * h1 * w1 + c2 * c1 * k * k * h2 * w2
    macs += c2 * (h2 // 2) * (w2 // 2) * f1 + f1 * f2 + f2 * spec.n_classes
    return 2 * macs


def _count_model_batch(passes: int):
    """Counter for CnnModel methods; a training step costs three passes
    (forward, input gradient, weight gradient; conv1's input gradient is
    computed too)."""

    def count(args, result):
        model, x = args[0], args[1]
        return {"crops": len(x), "flops": passes * forward_flops(model.spec) * len(x)}

    return count


def _count_sliding_map(args, result):
    rows, cols = result.scores.shape
    win_w = result.window[0]
    sx, sy = result.strides
    base = win_w // 6
    cells = {
        (r * sy, c * sx + i * base, base if i < 5 else win_w - 5 * base)
        for r in range(rows)
        for c in range(cols)
        for i in range(6)
    }
    return {"subcrops": rows * cols * 6, "distinct_cells": len(cells)}


_COUNTERS = {
    "emanator.capture": lambda args, result: {"samples": len(result.samples)},
    "classifier.CnnModel.loss_and_grads": _count_model_batch(3),
    "classifier.CnnModel.softmax": _count_model_batch(1),
    "attack.sliding_map": _count_sliding_map,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    run_id: str
    error: bool = False


def _owner_and_attr(module: str, qualname: str):
    owner = importlib.import_module(f"emgleam.{module}")
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _emgleam_modules():
    return [m for name, m in list(sys.modules.items()) if name == "emgleam" or name.startswith("emgleam.")]


def assert_untraced() -> None:
    """Raise unless every traced name is still its module's own function."""
    for module, qualname in TRACED:
        owner, attr = _owner_and_attr(module, qualname)
        fn = vars(owner)[attr]
        if hasattr(fn, _MARK) or fn.__module__ != f"emgleam.{module}" or fn.__qualname__ != qualname:
            raise RuntimeError(f"emgleam.{module}.{qualname} is not the module's own function")
    for mod in _emgleam_modules():
        for name, value in vars(mod).items():
            if hasattr(value, _MARK):
                raise RuntimeError(f"{mod.__name__}.{name} is still a trace wrapper")


class Tracer:
    """Collects spans and work counts while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1, self.run_id))
        self._stack.append(index)
        try:
            yield
        except BaseException:
            self.spans[index].error = True
            raise
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[name][key] += value
            return result

        setattr(traced, _MARK, name)
        return traced

    def install(self) -> None:
        """Patch every traced function where its callers look it up."""
        assert_untraced()
        for module, qualname in TRACED:
            owner, attr = _owner_and_attr(module, qualname)
            original = vars(owner)[attr]
            wrapper = self._wrap(label(module, qualname), original)
            if isinstance(owner, type):
                sites = [owner]
            else:
                sites = [m for m in _emgleam_modules() if any(v is original for v in vars(m).values())]
            for site in sites:
                for name, value in list(vars(site).items()):
                    if value is original:
                        self._patched.append((site, name, original))
                        setattr(site, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            site, name, original = self._patched.pop()
            setattr(site, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def layer_metrics(self) -> dict[str, float]:
        """calls / total_ms / self_ms / errors per traced function, plus the
        derived ratios (``trace_overhead_ratio`` is filled in by the caller)."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_s[s.parent] += s.end - s.start
        per_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for s, children in zip(self.spans, child_s):
            acc = per_name[s.name]
            acc[0] += 1
            acc[1] += (s.end - s.start) * 1e3
            acc[2] += (s.end - s.start - children) * 1e3
            acc[3] += int(s.error)
        out: dict[str, float] = {}
        for module, qualname in TRACED:
            name = label(module, qualname)
            calls, total_ms, self_ms, errors = per_name.get(name, (0, 0.0, 0.0, 0))
            out.update({f"{name}.calls": calls, f"{name}.total_ms": total_ms,
                        f"{name}.self_ms": self_ms, f"{name}.errors": errors})

        step = self.counts["classifier.CnnModel.loss_and_grads"]
        step_ms = out["classifier.CnnModel.loss_and_grads.total_ms"]
        out["classifier.step_gflops"] = step["flops"] / (step_ms * 1e6) if step_ms else 0.0
        infer = self.counts["classifier.CnnModel.softmax"]
        out["classifier.fwd_flops_per_crop"] = (
            step["flops"] // (3 * step["crops"]) if step["crops"]
            else infer["flops"] // infer["crops"] if infer["crops"] else 0)
        amap = self.counts["attack.sliding_map"]
        out["attack.subcrops"] = amap["subcrops"]
        out["attack.distinct_cells"] = amap["distinct_cells"]
        out["attack.useful_ratio"] = amap["distinct_cells"] / amap["subcrops"] if amap["subcrops"] else 0.0
        samples = self.counts["emanator.capture"]["samples"]
        capture_ms = out["emanator.capture.total_ms"]
        out["emanator.capture.samples"] = samples
        out["emanator.capture.msamples_per_s"] = samples / (capture_ms * 1e3) if capture_ms else 0.0
        return out

    def span_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
