"""Spans and call counters installed on anglekit's module attributes from outside.

A coarse public call (parse, NMS, evaluate, write_report, each
empirical_errors config, each loss batch) becomes one span. A hot inner call
is only counted and timed in aggregate. Every function is replaced in each
anglekit module that holds it, so calls through `from .obb import
rotated_iou` are seen too. A span's self time is its duration minus the
time of the wrapped calls directly inside it. Spans stay in memory until
end_pass returns them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pairs(args, kwargs, result):
    # det x GT pairs of one image and category: the IoUs evaluation needs.
    gts, dets = _arg(args, kwargs, 0, "gts"), _arg(args, kwargs, 1, "dets")
    n_gt = Counter((g.image_id, g.category) for g in gts)
    return {"pairs": sum(n_gt[(d.image_id, d.category)] for d in dets)}


def _angles(args, kwargs, result):
    step = _arg(args, kwargs, 1, "grid_step")
    return {"angles": sum(1 for i in range(int(round(180.0 / step))) if i * step < 180.0)}


SPANNED = {
    "io_formats.parse_annotation_dir": lambda a, k, r: {"records": len(r)},
    "io_formats.parse_detections": lambda a, k, r: {"records": len(r)},
    "io_formats.write_report": lambda a, k, r: {},
    "obb.rotated_nms": lambda a, k, r: {"boxes": len(_arg(a, k, 0, "items")), "kept": len(r)},
    "evaluation.evaluate": _pairs,
    "codecs.empirical_errors": _angles,
    "losses.multitask_loss": lambda a, k, r: {"samples": len(_arg(a, k, 0, "samples"))},
}
COUNTED = ("obb.rotated_iou", "obb.to_corners", "obb.convex_intersection_area",
           "obb.from_corners", "codecs.encode", "codecs.decode",
           "evaluation.match_detections", "evaluation.average_precision")


class Tracer:
    def __init__(self):
        self._clock = time.perf_counter
        self._frames: list[list[float]] = []  # time of wrapped children, per open call
        self._open_spans: list[int] = []
        self._pass = -1
        self.spans: list[dict] = []
        self.counters = {name: [0, 0.0, 0.0] for name in COUNTED}  # calls, s, self s
        self._installed: list[tuple] = []

    def install(self) -> None:
        """Wrap every traced function in every loaded anglekit module."""
        import anglekit.cli  # noqa: F401  (loads every module the CLI uses)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "anglekit" or name.startswith("anglekit.")]
        for qualname in list(SPANNED) + list(COUNTED):
            module, attr = qualname.split(".")
            original = getattr(sys.modules["anglekit." + module], attr)
            wrapped = self._wrap(qualname, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._installed.append((mod, key, original))

    def uninstall(self) -> None:
        """Put back every function install replaced."""
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    def begin_pass(self) -> None:
        self._pass += 1
        self.spans = []
        for counter in self.counters.values():
            counter[:] = [0, 0.0, 0.0]
        self._frames[:] = [[0.0]]
        self._open_spans[:] = [0]
        self._origin = self._clock()
        self.spans.append({"trace": self._pass, "id": 0, "parent": None, "name": "pass",
                           "start": 0.0})

    def end_pass(self) -> dict:
        """Close the pass's root span; return its spans and aggregate counters."""
        root = self.spans[0]
        root["end"] = self._clock() - self._origin
        root["self_s"] = root["end"] - self._frames[0][0]
        return {"spans": self.spans,
                "counters": {name: {"calls": c, "s": s, "self_s": own}
                             for name, (c, s, own) in self.counters.items()}}

    def _wrap(self, name, fn):
        describe = SPANNED.get(name)
        clock, frames, open_spans = self._clock, self._frames, self._open_spans
        counter, iou_counter = self.counters.get(name), self.counters["obb.rotated_iou"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if describe is not None:
                span = {"trace": self._pass, "id": len(self.spans),
                        "parent": open_spans[-1], "name": name}
                self.spans.append(span)
                open_spans.append(span["id"])
                iou_before = iou_counter[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                frames.pop()
                frames[-1][0] += duration
                if describe is None:
                    counter[0] += 1
                    counter[1] += duration
                    counter[2] += duration - frame[0]
                else:
                    open_spans.pop()
                    span.update(start=start - self._origin, end=start + duration - self._origin,
                                self_s=duration - frame[0], iou_calls=iou_counter[0] - iou_before)
            if describe is not None:
                span.update(describe(args, kwargs, result))
            return result

        return wrapper
