import hashlib
import json
import logging
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from anglekit import (DetectionRecord, GroundTruthRecord, InvalidInputError, OrientedBox,
                      ParseError, evaluate, parse_annotation_dir, parse_detections,
                      rotated_iou, to_corners, write_detections, write_report)
import anglekit.io_formats
from helpers import count_calls, seeded_quads


def corner_line(box, category, difficulty):
    coords = " ".join(f"{x:.10f} {y:.10f}" for x, y in to_corners(box).vertices)
    return f"{coords} {category} {difficulty}"


# Ten files with a hand-written manifest of every expected record.
FIXTURE_FILES = {
    "P0001.txt": ("imagesource:GoogleEarth\ngsd:0.5\n"
                  "0 0 2 0 2 1 0 1 ship 0\n"),
    "P0002.txt": ("imagesource:GF-2\n"
                  "10 10 14 10 14 12 10 12 plane 0\n"
                  "0 0 0 4 -2 4 -2 0 ship 1\n"),
    "P0003.txt": "imagesource:none\ngsd:unknown\n",
    "P0004.txt": "4 0 8 3 6.2 5.4 2.2 2.4 vehicle 0\n",
    "P0005.txt": ("100 100 110 100 110 101 100 101 ship 0\n"
                  "200 200 210 200 210 202 200 202 ship 0\n"),
    "P0006.txt": "0 0 6 0 6 2 0 2 harbor 1\n",
    "P0007.txt": "\n\n-3 -1 3 -1 3 1 -3 1 plane 0\n",
    "P0008.txt": "0.5 0.5 4.5 0.5 4.5 1.5 0.5 1.5 ship 0\n",
    "P0009.txt": "gsd:2.0\n7 7 9 7 9 9 7 9 vehicle 0\n",
    "P0010.txt": "0 0 10 0 10 1 0 1 bridge 0\n",
}

# (image_id, cx, cy, w, h, theta, category, difficult)
FIXTURE_MANIFEST = [
    ("P0001", 1.0, 0.5, 2.0, 1.0, 0.0, "ship", False),
    ("P0002", 12.0, 11.0, 4.0, 2.0, 0.0, "plane", False),
    ("P0002", -1.0, 2.0, 4.0, 2.0, 90.0, "ship", True),
    ("P0004", 5.1, 2.7, 5.0, 3.0, 36.86989764584402, "vehicle", False),
    ("P0005", 105.0, 100.5, 10.0, 1.0, 0.0, "ship", False),
    ("P0005", 205.0, 201.0, 10.0, 2.0, 0.0, "ship", False),
    ("P0006", 3.0, 1.0, 6.0, 2.0, 0.0, "harbor", True),
    ("P0007", 0.0, 0.0, 6.0, 2.0, 0.0, "plane", False),
    ("P0008", 2.5, 1.0, 4.0, 1.0, 0.0, "ship", False),
    ("P0009", 8.0, 8.0, 2.0, 2.0, 0.0, "vehicle", False),
    ("P0010", 5.0, 0.5, 10.0, 1.0, 0.0, "bridge", False),
]


# A valid thin rhombus of area 5.12e307 px^2, whose fitted box, of about twice
# that area, exceeds the box rule's cap of half the float maximum.
OVERFLOW_QUAD = "0 -1.6e153 1.6e154 0 0 1.6e153 -1.6e154 0"


@pytest.fixture
def overflow_dir(tmp_path):
    root = tmp_path / "overflow"
    root.mkdir()
    (root / "P1.txt").write_text("0 0 2 0 2 1 0 1 ship 0\n"
                                 f"{OVERFLOW_QUAD} ship 0\n"
                                 "4 0 8 3 6.2 5.4 2.2 2.4 plane 1\n")
    (root / "P2.txt").write_text("10 10 14 10 14 12 10 12 ship 0\n")
    return root


@pytest.fixture
def annotation_dir(tmp_path):
    root = tmp_path / "annotations"
    root.mkdir()
    for name, content in FIXTURE_FILES.items():
        (root / name).write_text(content)
    return root


class TestParseAnnotations:
    def test_axis_aligned_line(self, tmp_path):
        path = tmp_path / "P1.txt"
        path.write_text("0 0 2 0 2 1 0 1 ship 0\n")
        records = parse_annotation_dir(tmp_path)
        assert len(records) == 1
        assert records[0].image_id == "P1"
        assert records[0].category == "ship"
        assert not records[0].difficult

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "P2.txt"
        path.write_text("imagesource:GoogleEarth\ngsd:1.2\n")
        assert parse_annotation_dir(tmp_path) == []

    def test_fixture_directory_matches_manifest(self, annotation_dir):
        records = parse_annotation_dir(annotation_dir)
        assert len(records) == len(FIXTURE_MANIFEST)
        for got, want in zip(records, FIXTURE_MANIFEST):
            image_id, cx, cy, w, h, theta, category, difficult = want
            assert got.image_id == image_id
            assert got.category == category
            assert got.difficult == difficult
            assert got.box.cx == pytest.approx(cx, abs=1e-6)
            assert got.box.cy == pytest.approx(cy, abs=1e-6)
            assert got.box.w == pytest.approx(w, abs=1e-6)
            assert got.box.h == pytest.approx(h, abs=1e-6)
            delta = abs(got.box.theta - theta) % 180.0
            assert min(delta, 180.0 - delta) < 1e-6

    def test_malformed_line_strict(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 2 0 2 1 0 1 ship\n")
        with pytest.raises(ParseError) as info:
            parse_annotation_dir(tmp_path, strict=True)
        assert "bad.txt" in str(info.value)
        assert ":1:" in str(info.value)

    def test_malformed_line_lenient_skips(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("junk line\n0 0 2 0 2 1 0 1 ship 0\nnot enough fields\n")
        assert len(parse_annotation_dir(tmp_path, strict=False)) == 1

    def test_degenerate_quad_reports_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 1 1 2 2 3 3 ship 0\n")
        with pytest.raises(ParseError) as info:
            parse_annotation_dir(tmp_path)
        assert "bad.txt:1:" in str(info.value)

    def test_whitespace_tolerant(self, tmp_path):
        path = tmp_path / "P3.txt"
        path.write_text("0  0\t2 0 2   1 0 1\tship\t0\n")
        assert len(parse_annotation_dir(tmp_path)) == 1

    @pytest.mark.parametrize("one_file", [True, False], ids=["one-file", "two-files"])
    def test_unfittable_quad_strict_names_its_line(self, overflow_dir, one_file):
        if one_file:
            (overflow_dir / "P2.txt").unlink()
        with pytest.raises(ParseError) as info:
            parse_annotation_dir(overflow_dir, strict=True)
        assert "P1.txt:2:" in str(info.value)
        assert "box area w * h must lie between the smallest normal float and half the float " \
            "maximum, got w=3.184119008671965e+154, h=3.1841190086719654e+153" \
            in str(info.value)

    def test_unfittable_quad_lenient_skips_only_its_line(self, overflow_dir, caplog):
        records = parse_annotation_dir(overflow_dir, strict=False)
        assert [(r.image_id, r.category, r.difficult) for r in records] == [
            ("P1", "ship", False), ("P1", "plane", True), ("P2", "ship", False)]
        assert "P1.txt:2: box area w * h must lie between the smallest normal float and half " \
            "the float maximum, got w=3.184119008671965e+154, h=3.1841190086719654e+153 " \
            "(skipped)" in caplog.text

    def test_quad_with_overflowing_area_is_located(self, tmp_path, caplog):
        path = tmp_path / "P1.txt"
        path.write_text("0 0 2 0 2 1 0 1 ship 0\n0 0 1e200 0 1e200 1e200 0 1e200 plane 0\n")
        with pytest.raises(ParseError) as info:
            parse_annotation_dir(tmp_path)
        assert str(info.value).endswith("P1.txt:2: quad area is not finite")
        assert [r.category for r in parse_annotation_dir(tmp_path, strict=False)] == ["ship"]
        assert "P1.txt:2: quad area is not finite (skipped)" in caplog.text

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(InvalidInputError):
            parse_annotation_dir(tmp_path / "missing")

    @pytest.mark.parametrize("flag", ["2", "-1", "10"])
    def test_difficulty_flag_other_than_0_or_1_is_located(self, tmp_path, caplog, flag):
        path = tmp_path / "P1.txt"
        path.write_text(f"0 0 2 0 2 1 0 1 ship 1\n0 0 2 0 2 1 0 1 ship {flag}\n"
                        "0 0 2 0 2 1 0 1 ship 0\n")
        with pytest.raises(ParseError) as info:
            parse_annotation_dir(tmp_path)
        assert str(info.value).endswith(f"P1.txt:2: difficult must be 0 or 1, got {flag}")
        records = parse_annotation_dir(tmp_path, strict=False)
        assert [r.difficult for r in records] == [True, False]
        assert all(type(r.difficult) is bool for r in records)
        assert f"P1.txt:2: difficult must be 0 or 1, got {flag} (skipped)" in caplog.text

    def test_each_text_record_is_fitted_once_through_the_parser(self, tmp_path, monkeypatch):
        # The parsers fit through io_formats.from_corners, the name a tracer wraps.
        (tmp_path / "gt").mkdir()
        (tmp_path / "gt" / "P1.txt").write_text("gsd:0.5\n0 0 2 0 2 1 0 1 ship 0\n"
                                                "0 0 1 1 2 2 3 3 ship 0\n"
                                                "10 0 14 0 14 2 10 2 ship 1\n")
        (tmp_path / "gt" / "P2.txt").write_text("4 0 8 3 6.2 5.4 2.2 2.4 plane 0\n")
        (tmp_path / "dets").mkdir()
        (tmp_path / "dets" / "Task1_ship.txt").write_text(TASK1_TEXT + "P1 0.3 0 0 2 0\n")
        (tmp_path / "dets" / "Task1_plane.txt").write_text("P2 0.8 4 0 8 3 6.2 5.4 2.2 2.4\n")
        fits = count_calls(monkeypatch, "from_corners", anglekit.io_formats)
        gts = parse_annotation_dir(tmp_path / "gt", strict=False)
        dets = parse_detections(tmp_path / "dets", strict=False)
        assert (len(gts), len(dets)) == (3, 3)
        assert fits[0] == len(gts) + len(dets)


class TestParseDetections:
    def test_task_files(self, tmp_path):
        root = tmp_path / "dets"
        root.mkdir()
        (root / "Task1_ship.txt").write_text(
            "P0001 0.91 0 0 2 0 2 1 0 1\nP0002 0.42 5 5 9 5 9 7 5 7\n")
        (root / "Task1_plane.txt").write_text("P0001 0.73 0 0 4 0 4 2 0 2\n")
        records = parse_detections(root)
        assert [r.category for r in records] == ["plane", "ship", "ship"]
        assert records[1].image_id == "P0001"
        assert records[1].score == pytest.approx(0.91)
        assert records[1].box.cx == pytest.approx(1.0)

    def test_json_roundtrip_is_fixed_point(self, tmp_path):
        root = tmp_path / "dets"
        root.mkdir()
        (root / "Task1_ship.txt").write_text(
            "P0001 0.91 0 0 2 0 2 1 0 1\nP0002 0.42 5 5 9 5 9 7 5 7\n")
        first = parse_detections(root)
        out = tmp_path / "normalized.json"
        write_detections(first, out)
        second = parse_detections(out)
        assert second == first
        write_detections(second, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == out.read_bytes()

    def test_write_takes_only_detection_records(self, tmp_path):
        # Checked before the file is opened, so an existing file keeps its bytes.
        out = tmp_path / "dets.json"
        out.write_bytes(b"[]\n")
        gt = GroundTruthRecord("P0001", OrientedBox(0, 0, 2, 1, 0), "ship")
        for records, shown in (([1], "1"), ([gt], repr(gt))):
            with pytest.raises(InvalidInputError) as info:
                write_detections(records, out)
            assert str(info.value) == f"records entry must be a DetectionRecord, got {shown}"
        assert out.read_bytes() == b"[]\n"

    def test_json_roundtrip_of_a_tiny_negative_angle(self, tmp_path):
        first = [DetectionRecord("P0001", OrientedBox(0, 0, 2, 1, -1e-20), "ship", 0.5),
                 DetectionRecord("P0001", OrientedBox(5, 5, 1, 1, -1e-20), "ship", 0.4)]
        assert [r.box.theta for r in first] == [0.0, 0.0]
        out = tmp_path / "dets.json"
        write_detections(first, out)
        assert parse_detections(out) == first

    def test_json_schema_validation(self, tmp_path):
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([{"image_id": "a", "category": "ship", "score": 0.5,
                                     "cx": 0, "cy": 0, "w": 2, "h": 1, "theta": 0,
                                     "extra": 1}]))
        with pytest.raises(ParseError):
            parse_detections(path)
        assert parse_detections(path, strict=False) == []

    def test_json_record_with_overflowing_area_is_skipped(self, tmp_path, caplog):
        record = {"image_id": "a", "category": "ship", "score": 0.5,
                  "cx": 0, "cy": 0, "w": 2, "h": 1, "theta": 0}
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([record, {**record, "w": 1e200, "h": 1e200}]))
        with pytest.raises(ParseError) as info:
            parse_detections(path)
        area_rule = ("box area w * h must lie between the smallest normal float and half the "
                     "float maximum, got w=1e+200, h=1e+200")
        assert str(info.value).endswith(f"dets.json:2: record 2: {area_rule}")
        assert [r.box.w for r in parse_detections(path, strict=False)] == [2.0]
        assert f"record 2: {area_rule} (skipped)" in caplog.text

    def test_json_integer_beyond_float_range_is_skipped(self, tmp_path, caplog):
        record = {"image_id": "a", "category": "ship", "score": 0.5,
                  "cx": 0, "cy": 0, "w": 2, "h": 1, "theta": 0}
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([record, {**record, "cx": 10**400}]))
        with pytest.raises(ParseError) as info:
            parse_detections(path)
        assert str(info.value).endswith("dets.json:2: record 2: int too large to convert to float")
        assert [r.box.cx for r in parse_detections(path, strict=False)] == [0.0]
        assert "record 2: int too large to convert to float (skipped)" in caplog.text

    @pytest.mark.parametrize("strict", [True, False])
    def test_invalid_json_fails_at_the_line_of_its_fault(self, tmp_path, strict):
        path = tmp_path / "dets.json"
        path.write_text('[\n  {"image_id": "a",\n   "score": 0.5,,\n')
        with pytest.raises(ParseError) as info:
            parse_detections(path, strict=strict)
        assert info.value.line_no == 3
        assert str(info.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("strict", [True, False])
    def test_json_that_is_not_a_list_fails_at_line_1(self, tmp_path, strict):
        path = tmp_path / "dets.json"
        path.write_text('{"image_id": "a"}\n')
        with pytest.raises(ParseError) as info:
            parse_detections(path, strict=strict)
        assert str(info.value) == f"{path}:1: detection JSON must be a list of records"

    def test_json_record_that_is_not_an_object_is_located(self, tmp_path, caplog):
        record = {"image_id": "a", "category": "ship", "score": 0.5,
                  "cx": 0, "cy": 0, "w": 2, "h": 1, "theta": 0}
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([[1, 2], record]))
        with pytest.raises(ParseError) as info:
            parse_detections(path)
        assert str(info.value) == f"{path}:1: record 1: record must be an object"
        assert [r.image_id for r in parse_detections(path, strict=False)] == ["a"]
        assert f"{path}:1: record 1: record must be an object (skipped)" in caplog.text

    def test_score_out_of_range_rejected(self, tmp_path):
        root = tmp_path / "dets"
        root.mkdir()
        (root / "Task1_ship.txt").write_text("P0001 1.5 0 0 2 0 2 1 0 1\n")
        with pytest.raises(ParseError):
            parse_detections(root)

    def test_header_prefixes_are_image_ids_in_task_files(self, tmp_path):
        root = tmp_path / "dets"
        root.mkdir()
        (root / "Task1_ship.txt").write_text("gsd:P0001 0.5 0 0 2 0 2 1 0 1\n")
        records = parse_detections(root)
        assert [(r.image_id, r.category) for r in records] == [("gsd:P0001", "ship")]

    def test_unfittable_quad_in_task_file(self, tmp_path):
        root = tmp_path / "dets"
        root.mkdir()
        (root / "Task1_ship.txt").write_text(f"P1 0.9 0 0 2 0 2 1 0 1\nP1 0.8 {OVERFLOW_QUAD}\n")
        with pytest.raises(ParseError) as info:
            parse_detections(root)
        assert "Task1_ship.txt:2:" in str(info.value)
        assert [r.score for r in parse_detections(root, strict=False)] == [0.9]

    def test_unknown_path_kind(self, tmp_path):
        path = tmp_path / "dets.csv"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            parse_detections(path)


class TestDirectoryListing:
    """A parser reads its directory's own files whose names match, in name
    order; a subdirectory is never read, whatever its name."""

    @pytest.mark.parametrize("strict", [True, False])
    def test_a_subdirectory_named_like_a_file_changes_no_record(self, tmp_path, strict):
        gt, dets = tmp_path / "gt", tmp_path / "dets"
        for root, name, text in ((gt, "P1.txt", ANNOTATION_TEXT), (gt, "P2.txt", ANNOTATION_TEXT),
                                 (dets, "Task1_ship.txt", TASK1_TEXT)):
            root.mkdir(exist_ok=True)
            (root / name).write_text(text)
        before = parse_annotation_dir(gt, strict), parse_detections(dets, strict)
        for sub in (gt / "P15.txt", gt / "sub.txt", dets / "Task1_plane.txt"):
            sub.mkdir()
            (sub / "P3.txt").write_text(ANNOTATION_TEXT)
            (sub / "Task1_ship.txt").write_text(TASK1_TEXT)
        assert (parse_annotation_dir(gt, strict), parse_detections(dets, strict)) == before
        assert [r.image_id for r in before[0]] == ["P1", "P1", "P2", "P2"]

    def test_names_match_as_a_case_sensitive_glob_that_takes_dotfiles(self, tmp_path):
        for name in ("b.txt", ".a.txt", "c.TXT", "a.txt.bak", "Task1_x.txt", "A.txt"):
            (tmp_path / name).write_text("0 0 2 0 2 1 0 1 ship 0\n")
        assert [r.image_id for r in parse_annotation_dir(tmp_path)] == \
            [".a", "A", "Task1_x", "b"]

    def test_a_task1_directory_of_directories_has_no_task1_files(self, tmp_path):
        (tmp_path / "Task1_ship.txt").mkdir()
        with pytest.raises(InvalidInputError, match="^no Task1_\\*.txt files under"):
            parse_detections(tmp_path)



ANNOTATION_TEXT = "gsd:0.5\n0 0 2 0 2 1 0 1 ship 0\n10 0 14 0 14 2 10 2 ship 0\n"
TASK1_TEXT = "P1 0.9 0 0 2 0 2 1 0 1\nP1 0.4 10 0 14 0 14 2 10 2\n"


def write_bytes(root, name, data):
    root.mkdir(exist_ok=True)
    (root / name).write_bytes(data)
    return root / name


class TestLineEndingsAndBytes:
    @pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_dota_text_files_end_lines_at_cr_and_crlf(self, tmp_path, newline):
        def parse_both(root, newline):
            write_bytes(root, "Task1_ship.txt", TASK1_TEXT.replace("\n", newline).encode())
            gt = write_bytes(root / "gt", "P1.txt", ANNOTATION_TEXT.replace("\n", newline).encode())
            return parse_annotation_dir(gt.parent), parse_detections(root)

        lf = parse_both(tmp_path / "lf", "\n")
        other = parse_both(tmp_path / "other", newline)
        assert other == lf
        assert [len(records) for records in other] == [2, 2]
        # Two ship GTs and one exact detection: AP@0.5 is 1/2, not 1 from a merged line.
        gts, dets = other
        assert evaluate(gts, dets[:1], [0.5]).map_by_threshold[0.5] == 0.5

    def test_annotation_line_that_is_not_utf8_is_located(self, tmp_path, caplog):
        # A header line's text is never read, so its bytes do not matter.
        data = ANNOTATION_TEXT.encode().replace(b"0 0 2 0", b"0 0 2\xff 0", 1)
        data = data.replace(b"gsd:0.5", b"gsd:0.5\xb5m")
        path = write_bytes(tmp_path, "P1.txt", data)
        with pytest.raises(ParseError) as info:
            parse_annotation_dir(tmp_path)
        assert str(info.value).endswith("P1.txt:2: byte 0xff is not UTF-8")
        assert [r.box.cx for r in parse_annotation_dir(tmp_path, strict=False)] == [12.0]
        assert "P1.txt:2: byte 0xff is not UTF-8 (skipped)" in caplog.text

    def test_task1_line_that_is_not_utf8_is_located(self, tmp_path, caplog):
        # A Latin-1 image id: its byte 0xe9 starts no UTF-8 sequence here.
        write_bytes(tmp_path / "dets", "Task1_ship.txt",
                    TASK1_TEXT.encode() + "P\xe9 0.5 0 0 2 0 2 1 0 1\n".encode("latin-1"))
        with pytest.raises(ParseError) as info:
            parse_detections(tmp_path / "dets")
        assert str(info.value).endswith("Task1_ship.txt:3: byte 0xe9 is not UTF-8")
        assert [r.score for r in parse_detections(tmp_path / "dets", strict=False)] == [0.9, 0.4]
        assert "Task1_ship.txt:3: byte 0xe9 is not UTF-8 (skipped)" in caplog.text

    @pytest.mark.parametrize("strict", [True, False])
    def test_json_that_is_not_utf8_fails_at_the_line_of_its_first_bad_byte(self, tmp_path,
                                                                           strict):
        write_detections([DetectionRecord("im\u00e9", OrientedBox(0, 0, 2, 1, 0), "ship", 0.5)],
                         tmp_path / "dets.json")
        data = (tmp_path / "dets.json").read_bytes().replace(b'"ship"', b'"sh\xffip\xfe"')
        path = write_bytes(tmp_path, "bad.json", data)
        line = data[:data.index(b"\xff")].count(b"\n") + 1
        with pytest.raises(ParseError) as info:
            parse_detections(path, strict=strict)
        assert str(info.value) == f"{path}:{line}: byte 0xff is not UTF-8"


# A 4.33e-5 x 3.13e-5 px box at (1.48e7, 2.09e7) px: its absolute corners
# collapse, so a corner-quad check on the JSON record used to reject it.
COLLAPSED_CORNERS_LINE = (
    "im1 0.9 14759292.541815056 20884584.505933 14759292.541831715 20884584.505893037 "
    "14759292.541860597 20884584.505905077 14759292.541843938 20884584.50594504")

# A quad that passes the quad checks (its turn tests overflow to NaN, which
# counts as convex) and fits to a 1.78e308 x 1.4e5 px box whose area w * h
# is not finite.
UNSCORABLE_FIT_QUAD = ("4.1930196666077115e+305 79.67450953717805 "
                       "5.1933288445615775e+305 0.0015744377802287457 "
                       "1.7829450721276764e+308 -59.99893846182978 "
                       "8.970535673488653e+305 -0.011500965308609779")

JSON_FIELDS = ("image_id", "category", "score", "cx", "cy", "w", "h", "theta")
STRING_FIELDS = ("image_id", "category")


@st.composite
def task1_lines(draw):
    # A rectangle of 1e-4 to 1e3 px anywhere within 2e7 px of the origin, each
    # corner moved by up to a tenth of its short side.
    cx, cy = draw(st.floats(-2e7, 2e7)), draw(st.floats(-2e7, 2e7))
    w = 10 ** draw(st.floats(-4, 3))
    h = w * draw(st.floats(0.05, 1))
    rad = math.radians(draw(st.floats(0, 180)))
    ux, uy = math.cos(rad), math.sin(rad)
    noise = 0.1 * h
    coords = []
    for a, b in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        coords.append(cx + a * w / 2 * ux - b * h / 2 * uy + noise * draw(st.floats(-1, 1)))
        coords.append(cy + a * w / 2 * uy + b * h / 2 * ux + noise * draw(st.floats(-1, 1)))
    image_id = draw(st.sampled_from(["im1", "im2", "P0003"]))
    return f"{image_id} {draw(st.floats(0, 1))!r} " + " ".join(map(repr, coords))


@st.composite
def json_records(draw):
    # Records as any writer might emit them: ints or floats, tiny or large
    # sides, unreduced angles.
    number = st.one_of(st.floats(-2e7, 2e7), st.integers(-10**6, 10**6))
    w = draw(st.one_of(st.floats(1e-150, 1e4), st.integers(1, 10**4)))
    return {"image_id": draw(st.text(max_size=4)), "category": draw(st.text(max_size=4)),
            "score": draw(st.one_of(st.floats(0, 1), st.integers(0, 1))),
            "cx": draw(number), "cy": draw(number), "w": w, "h": w * draw(st.floats(0.01, 1)),
            "theta": draw(st.one_of(st.floats(-1e3, 1e3), st.integers(-720, 720)))}


def assert_scorable_fixed_point(records, root):
    """Every record scores, and write -> parse -> write reproduces records and bytes."""
    for r in records:
        assert 0.0 < rotated_iou(r.box, r.box) <= 1.0
    first, second = root / "first.json", root / "second.json"
    write_detections(records, first)
    again = parse_detections(first)
    assert again == records
    write_detections(again, second)
    assert second.read_bytes() == first.read_bytes()


class TestOneRulePerRecord:
    @settings(max_examples=60)
    @given(st.lists(task1_lines(), min_size=1, max_size=4))
    @example([COLLAPSED_CORNERS_LINE])
    def test_task1_detections_round_trip(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "Task1_ship.txt").write_text("\n".join(lines) + "\n")
            (root / "gt").mkdir()
            (root / "gt" / "im1.txt").write_text(
                "".join(line.split(None, 2)[2] + " ship 0\n" for line in lines))
            for r in parse_annotation_dir(root / "gt", strict=False):
                assert 0.0 < rotated_iou(r.box, r.box) <= 1.0
            assert_scorable_fixed_point(parse_detections(root, strict=False), root)

    def test_collapsed_corners_line_survives_json(self, tmp_path):
        (tmp_path / "Task1_ship.txt").write_text(COLLAPSED_CORNERS_LINE + "\n")
        (record,) = parse_detections(tmp_path)
        assert record.box.w < 1e-4 and record.box.cx > 1e7
        assert_scorable_fixed_point([record], tmp_path)

    @settings(max_examples=60)
    @given(st.lists(json_records(), min_size=1, max_size=4))
    def test_json_detections_round_trip(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "raw.json").write_text(json.dumps(records))
            assert_scorable_fixed_point(parse_detections(root / "raw.json", strict=False), root)

    @pytest.mark.parametrize("name, build", [
        ("Task1_ship.txt", lambda quad: f"im1 0.9 {quad}\nim1 0.8 0 0 2 0 2 1 0 1\n"),
        ("im1.txt", lambda quad: f"{quad} ship 0\n0 0 2 0 2 1 0 1 ship 0\n"),
    ], ids=["task1", "annotation"])
    def test_unscorable_fit_fails_at_its_line(self, tmp_path, caplog, name, build):
        (tmp_path / name).write_text(build(UNSCORABLE_FIT_QUAD))
        parse = parse_detections if name.startswith("Task1_") else parse_annotation_dir
        with pytest.raises(ParseError) as info:
            parse(tmp_path)
        assert str(info.value).endswith(f"{name}:1: quad area is not finite")
        assert [r.box.w for r in parse(tmp_path, strict=False)] == [2.0]
        assert f"{name}:1: quad area is not finite (skipped)" in caplog.text

    @settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 3), st.sampled_from(JSON_FIELDS), st.data())
    def test_malformed_json_record_fails_at_its_number(self, caplog, index, key, data):
        valid = [{"image_id": f"im{i}", "category": "ship", "score": 0.5, "cx": 10.0 * i,
                  "cy": 0, "w": 4, "h": 2.5, "theta": 30} for i in range(4)]
        wrong_type = st.one_of(st.none(), st.booleans(), st.lists(st.integers(), max_size=2),
                               st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
                               st.integers() | st.floats() if key in STRING_FIELDS else st.text())
        bad = dict(valid[index])
        mutation = data.draw(st.sampled_from(["replace", "drop", "add"]))
        if mutation == "replace":
            bad[key] = data.draw(wrong_type)
        elif mutation == "drop":
            del bad[key]
        else:
            bad[data.draw(st.text(min_size=1).filter(lambda k: k not in JSON_FIELDS))] = 0
        caplog.clear()
        with tempfile.TemporaryDirectory() as tmp:
            clean, path = Path(tmp) / "clean.json", Path(tmp) / "bad.json"
            clean.write_text(json.dumps(valid[:index] + valid[index + 1:]))
            path.write_text(json.dumps(valid[:index] + [bad] + valid[index + 1:]))
            with pytest.raises(ParseError) as info:
                parse_detections(path)
            assert f"bad.json:{index + 1}: record {index + 1}: " in str(info.value)
            with caplog.at_level(logging.WARNING, logger="anglekit"):
                assert parse_detections(path, strict=False) == parse_detections(clean)
            assert f"bad.json:{index + 1}: record {index + 1}: " in caplog.text
            assert caplog.text.rstrip().endswith("(skipped)")


def small_report():
    box = OrientedBox(1, 0.5, 2, 1, 0)
    gts = [
        GroundTruthRecord("im1", box, "ship"),
        GroundTruthRecord("im2", box, "plane"),
    ]
    dets = [
        DetectionRecord("im1", box, "ship", 0.9),
        DetectionRecord("im2", box, "plane", 0.8),
    ]
    return evaluate(gts, dets, [0.5, 0.75], mode="voc12")


class TestWriteReport:
    def test_json_roundtrip_exact(self, tmp_path):
        report = small_report()
        path = tmp_path / "report.json"
        write_report(report, path)
        payload = json.loads(path.read_text())
        assert payload["mode"] == "voc12"
        for cat, cells in report.categories.items():
            for thr, cell in cells.items():
                assert payload["categories"][cat]["ap_by_threshold"][f"{thr:.2f}"] == cell.ap
        for thr, value in report.map_by_threshold.items():
            assert payload["map_by_threshold"][f"{thr:.2f}"] == value

    def test_byte_identical_across_runs(self, tmp_path):
        report = small_report()
        write_report(report, tmp_path / "a.json")
        write_report(report, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        write_report(report, tmp_path / "a.csv")
        write_report(report, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_csv_rows_and_aggregates(self, tmp_path):
        report = small_report()
        path = tmp_path / "report.csv"
        write_report(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "category,iou_threshold,ap,tp,fp,num_gt"
        assert len(lines) == 1 + 2 * 2 + 2  # header, 2 cats x 2 thrs, 2 mAP rows
        assert lines[1].startswith("plane,0.50,1.000000")
        assert any(line.startswith("mAP,0.50,") for line in lines)

    @pytest.mark.parametrize("name", ["r.json", "r.csv"])
    def test_takes_only_a_report_and_keeps_the_file(self, tmp_path, name):
        # Checked before the file is opened, so a bad call leaves an existing
        # report as it was.
        path = tmp_path / name
        path.write_bytes(b"previous")
        with pytest.raises(InvalidInputError, match="^report must be an EvalReport, got None$"):
            write_report(None, path)
        assert path.read_bytes() == b"previous"

    def test_empty_category_report(self, tmp_path):
        report = evaluate([], [], [0.5])
        path = tmp_path / "empty.csv"
        write_report(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "category,iou_threshold,ap,tp,fp,num_gt"
        assert lines[1] == "mAP,0.50,0.000000,,,"


def seeded_dota_files(seed, root, count=6000, files=12):
    """Write count seeded quads as DOTA annotation lines into root/gt and
    Task1 lines into root/dets, some files with CRLF endings. A tenth of
    the lines are malformed: a nan, inf or overflowing coordinate, a word for
    a number, a missing field or a nan score; one line holds a byte that is
    not UTF-8. Every difficulty flag is 0 or 1."""
    rng = random.Random(seed)
    chunks = [[] for _ in range(files)]
    for i, pts in enumerate(seeded_quads(seed, count)):
        tokens = [repr(c) for point in pts for c in point]
        k = i % files
        if k % 2:
            tokens = [f"im{rng.randrange(20)}", repr(rng.random())] + tokens
        else:
            tokens += [rng.choice(("ship", "plane")), str(rng.randrange(2))]
        fault = rng.randrange(60)
        if fault < 4:
            tokens[-3 - rng.randrange(6)] = ("nan", "inf", "-1e309", "abc")[fault]
        elif fault == 4:
            tokens.pop()
        elif fault == 5 and k % 2:
            tokens[1] = "nan"
        chunks[k].append(" ".join(tokens).encode())
    chunks[0][7] += b" \xff"
    for sub in ("gt", "dets"):
        (root / sub).mkdir()
    for k, lines in enumerate(chunks):
        name = f"dets/Task1_{('ship', 'plane')[k // 2 % 2]}{k}.txt" if k % 2 else f"gt/im{k}.txt"
        (root / name).write_bytes((b"\r\n" if k % 3 else b"\n").join(lines) + b"\n")


class TestIngestIsPinned:
    def test_parsed_records_and_skips_are_pinned(self, tmp_path, caplog):
        # Every field of every record the text parsers return, boxes under
        # float.hex, and every skip message: a change to how a DOTA line is
        # read, fitted or rejected moves a digest.
        seeded_dota_files(3, tmp_path)
        with caplog.at_level(logging.WARNING, logger="anglekit"):
            records = (parse_annotation_dir(tmp_path / "gt", strict=False)
                       + parse_detections(tmp_path / "dets", strict=False))
        fields = "\n".join(
            f"{r.image_id} {r.category} "
            + (repr(r.difficult) if isinstance(r, GroundTruthRecord) else r.score.hex()) + " "
            + " ".join(getattr(r.box, k).hex() for k in ("cx", "cy", "w", "h", "theta"))
            for r in records)
        skips = "\n".join(f"{Path(rec.args[0]).name}:{rec.args[1]}: {rec.args[2]}"
                          for rec in caplog.records)
        assert (len(records), len(caplog.records)) == (3227, 2773)
        assert hashlib.sha256(fields.encode()).hexdigest() == \
            "766723075ee92bbd3eb48b9325d6bac740c37ff23ffb98c2ac6b7e00c55c8668"
        assert hashlib.sha256(skips.encode()).hexdigest() == \
            "357f1176cf9a7d11e80022ac3354300c700eb9c762b3454d065bb8d6e95c17af"
