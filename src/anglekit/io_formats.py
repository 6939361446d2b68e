"""File parsing and serialization.

Reads DOTA-style per-image annotation files and task-format or JSON
detection files, writes evaluation reports (JSON or CSV) and normalized
detection JSON. This is a pure metadata tool: no image pixels are ever
read. Writers are byte-deterministic.
"""

from __future__ import annotations

import json
import os
import re
from fnmatch import fnmatchcase
from pathlib import Path

from .errors import InvalidInputError, ParseError, _check_box, _sequence
from .evaluation import DetectionRecord, EvalReport, GroundTruthRecord, threshold_label
from .obb import OrientedBox, _quad, from_corners

_HEADER_PREFIXES = ("imagesource:", "gsd:")
# The JSON type write_detections gives each field; a bool is not a number.
_JSON_TYPES = {"str": (str,), "number": (int, float)}
_DETECTION_FIELDS = {"image_id": "str", "category": "str",
                     **dict.fromkeys(("score", "cx", "cy", "w", "h", "theta"), "number")}
# Input is read with errors="surrogateescape", which keeps each byte that is
# not UTF-8 as one of these lone surrogates.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _not_utf8(text: str):
    # (message, offset) for text's first byte that was not UTF-8, or None.
    found = None if text.isascii() else _ESCAPED_BYTE.search(text)
    return found and (f"byte 0x{ord(found.group()) - 0xDC00:02x} is not UTF-8", found.start())


def _fail_or_skip(strict: bool, path, line_no: int, message: str) -> None:
    if strict:
        raise ParseError(path, line_no, message)
    import logging  # only a skip needs it, so clean input never loads it
    logging.getLogger("anglekit").warning("%s:%d: %s (skipped)", path, line_no, message)


def _ground_truth(image_id: str, tokens: list[str]) -> GroundTruthRecord:
    box = from_corners(_quad(tuple(map(float, tokens[:8]))))
    return GroundTruthRecord(image_id, box, tokens[8], int(tokens[9]))


def _task1_detection(category: str, tokens: list[str]) -> DetectionRecord:
    score = float(tokens[1])
    box = from_corners(_quad(tuple(map(float, tokens[2:]))))
    return DetectionRecord(tokens[0], box, category, score)


def _read_dota(path: Path, strict: bool, build, name: str, headers: bool = False) -> list:
    """Records of one DOTA text file, each built by `build(name, tokens)`, so
    every record of the file shares the one string `name`.

    Blank lines are skipped, and so are imagesource:/gsd: lines when
    `headers` is set (annotation files). A line without 10 fields, or one
    whose numbers, quad, fitted box or record are invalid, or one holding a
    byte that is not UTF-8, raises ParseError at path:line when strict, and
    is logged and skipped otherwise.
    """
    records = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or headers and line.lower().startswith(_HEADER_PREFIXES):
                continue
            tokens = line.split()
            try:
                bad = _not_utf8(line)
                if bad:
                    raise InvalidInputError(bad[0])
                if len(tokens) != 10:
                    raise InvalidInputError(f"expected 10 fields, got {len(tokens)}")
                records.append(build(name, tokens))
            except ValueError as exc:
                _fail_or_skip(strict, path, line_no, str(exc))
    return records


def _files(root: Path, pattern: str) -> list[Path]:
    # A directory's own entries matching pattern that are not directories, in
    # name order: what sorted(root.glob(pattern)) gives, less its subdirectories.
    with os.scandir(root) as entries:
        names = sorted(e.name for e in entries if fnmatchcase(e.name, pattern) and not e.is_dir())
    return [root / name for name in names]


def parse_annotation_dir(path, strict: bool = True) -> list[GroundTruthRecord]:
    """Parse a directory's own *.txt files, never a subdirectory, into records.

    Each file is one image, whose id is the file stem. Blank lines and
    header lines (starting imagesource: or gsd:, in any case) are skipped;
    every other line is one object, "x1 y1 x2 y2 x3 y3 x4 y4 category
    difficulty", its quad fitted to a long-side box. Files are read in name
    order, so the result is deterministic.
    """
    root = Path(path)
    if not root.is_dir():
        raise InvalidInputError(f"not a directory: {root}")
    return [rec for file in _files(root, "*.txt")
            for rec in _read_dota(file, strict, _ground_truth, file.stem, headers=True)]


def _parse_detection_json(path: Path, strict: bool) -> list[DetectionRecord]:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    bad = _not_utf8(text)
    if bad:
        raise ParseError(path, text.count("\n", 0, bad[1]) + 1, bad[0])
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.msg)
    if not isinstance(payload, list):
        raise ParseError(path, 1, "detection JSON must be a list of records")
    records: list[DetectionRecord] = []
    for idx, entry in enumerate(payload, start=1):
        try:
            if not isinstance(entry, dict):
                raise InvalidInputError("record must be an object")
            extra, missing = entry.keys() - _DETECTION_FIELDS, _DETECTION_FIELDS - entry.keys()
            if extra or missing:
                raise InvalidInputError(
                    f"bad record keys (extra={sorted(extra)}, missing={sorted(missing)})")
            for key, kind in _DETECTION_FIELDS.items():
                if type(entry[key]) not in _JSON_TYPES[kind]:
                    raise InvalidInputError(f"{key} must be a JSON {kind}, got {entry[key]!r}")
            box = OrientedBox(*(float(entry[k]) for k in ("cx", "cy", "w", "h", "theta")))
            records.append(DetectionRecord(entry["image_id"], box, entry["category"],
                                           float(entry["score"])))
        except (ValueError, OverflowError) as exc:
            _fail_or_skip(strict, path, idx, f"record {idx}: {exc}")
    return records


def parse_detections(path, strict: bool = True) -> list[DetectionRecord]:
    """Parse detections from a directory's own Task1_<category>.txt files, in
    name order (a subdirectory is never read), or from a JSON file.

    Text lines read "image_id score x1 y1 ... y4"; quads are fitted to
    long-side boxes. The JSON format is the canonical normalized form
    written by write_detections: image_id and category must be JSON
    strings and the other six fields JSON numbers. In either format an
    invalid box, one OrientedBox rejects, fails at its line or record.
    """
    path = Path(path)
    if path.is_dir():
        files = _files(path, "Task1_*.txt")
        if not files:
            raise InvalidInputError(f"no Task1_*.txt files under {path}")
        return [rec for f in files
                for rec in _read_dota(f, strict, _task1_detection, f.stem[len("Task1_"):])]
    if path.suffix.lower() == ".json":
        return _parse_detection_json(path, strict)
    raise InvalidInputError(f"detections must be a directory or a .json file: {path}")


def write_detections(records, path) -> None:
    """Write detections as normalized JSON; parsing it back is a fixed point
    for every record the parsers return."""
    records = _check_box("records entry", *_sequence(records, "records", of="records"),
                         kind=DetectionRecord)
    payload = [{"image_id": r.image_id, "category": r.category, "score": r.score,
                "cx": r.box.cx, "cy": r.box.cy, "w": r.box.w, "h": r.box.h, "theta": r.box.theta}
               for r in records]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _report_dict(report: EvalReport) -> dict:
    # JSON-ready view of a report; floats keep full precision.
    return {
        "mode": report.mode,
        "thresholds": [float(t) for t in report.thresholds],
        "categories": {
            name: {
                "ap_by_threshold": {
                    threshold_label(t): cell.ap for t, cell in cells.items()
                },
                "pr_curve": {
                    threshold_label(t): {
                        "recall": list(cell.recall),
                        "precision": list(cell.precision),
                        "tp": cell.tp,
                        "fp": cell.fp,
                        "num_gt": cell.num_gt,
                    }
                    for t, cell in cells.items()
                },
            }
            for name, cells in report.categories.items()
        },
        "map_by_threshold": {
            threshold_label(t): v for t, v in report.map_by_threshold.items()
        },
        "map_50_95": report.map_50_95,
    }


def write_report(report: EvalReport, path) -> None:
    """Serialize a report to CSV (6 decimals) when path ends in .csv, in any
    case, else to JSON (full precision).

    Output is byte-identical across runs for identical reports."""
    _check_box("report", report, kind=EvalReport)
    if Path(path).suffix.lower() != ".csv":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_report_dict(report), fh, sort_keys=True, indent=2)
            fh.write("\n")
        return
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["category", "iou_threshold", "ap", "tp", "fp", "num_gt"])
        for name in sorted(report.categories):
            for t in report.thresholds:
                cell = report.categories[name][t]
                writer.writerow([name, threshold_label(t), f"{cell.ap:.6f}",
                                 cell.tp, cell.fp, cell.num_gt])
        for t in report.thresholds:
            writer.writerow(["mAP", threshold_label(t),
                             f"{report.map_by_threshold[t]:.6f}", "", "", ""])
        if report.map_50_95 is not None:
            writer.writerow(["mAP@0.50:0.95", "", f"{report.map_50_95:.6f}", "", "", ""])

