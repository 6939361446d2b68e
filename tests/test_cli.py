import csv
import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import anglekit
import anglekit.losses
from anglekit import (COCO_THRESHOLDS, VOC07, VOC12, DetectionRecord, OrientedBox, ParseError,
                      parse_detections, rotated_iou, to_corners, write_detections)
from anglekit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncodeDecode:
    def test_encode_mgar(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "--method", "mgar", "--ctheta", "3",
                               "--angle", "73.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 1
        assert payload["omega"] == 60.0
        assert payload["residual"] == pytest.approx(13.5)
        assert payload["class_vector"] == [0.0, 1.0, 0.0]

    def test_encode_invalid_ctheta_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "encode", "--method", "mgar", "--ctheta", "7",
                                 "--angle", "10")
        assert code == 2
        assert out == ""
        assert "divide 180" in err

    def test_encode_out_of_range_angle_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "encode", "--method", "mgar", "--ctheta", "3",
                             "--angle", "180")
        assert code == 2

    def test_encode_dcl_gray(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "--method", "dcl-gray", "--ctheta", "64",
                               "--angle", "14.2")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 5
        assert payload["class_vector"] == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    def test_decode_mirrors_library(self, capsys):
        code, out, _ = run_cli(capsys, "decode", "--method", "mgar", "--ctheta", "3",
                               "--logits=-2,5,-1", "--treg", str(math.sqrt(13.5)))
        assert code == 0
        assert json.loads(out)["theta"] == pytest.approx(73.5)


class TestGeometryCommands:
    def test_iou(self, capsys):
        code, out, _ = run_cli(capsys, "iou", "--box-a", "0,0,2,1,0", "--box-b", "1,0,2,1,0")
        assert code == 0
        assert json.loads(out)["iou"] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("argv, message", [
        (["iou", "--box-a", "0,0,2,1", "--box-b", "1,0,2,1,0"], "cx,cy,w,h,theta"),
        (["iou", "--box-a", "0,0,x,1,0", "--box-b", "1,0,2,1,0"], "'x'"),
        (["decode", "--method", "csl", "--logits=a,b,c"], "'a'"),
        (["eval", "--gt", "gt", "--det", "dets.json", "--thresholds", "abc"], "'abc'"),
        (["eval", "--gt", "gt", "--det", "dets.json", "--thresholds", "0.5,7"], "got 7.0"),
        (["eval", "--gt", "gt", "--det", "dets.json", "--thresholds", "0.001"], "got 0.001"),
        (["codec-report", "--methods", "foo"], "'foo'"),
        (["codec-report", "--methods", "mgar", "--grid-step", "500"], "grid_step"),
        (["codec-report", "--methods", "mgar", "--grid-step", "inf"], "grid_step"),
        (["codec-report", "--grid-step", "1e-320"], "grid_step"),
        (["codec-report", "--grid-step", "5e-324"], "grid_step"),
        (["codec-report", "--methods", "mgar", "--grid-step", "1e-300"], "grid_step"),
        (["nms", "--detections", "missing.json", "--threshold", "7"], "iou_threshold"),
        (["gradcheck", "--points", "0"], "points"),
        (["gradcheck", "--points", "-3"], "points"),
        (["gradcheck", "--seed", "-1"], "seed"),
        (["decode", "--method", "mgar", "--logits=0,1,0", "--fit", "exp", "--treg", "1000"],
         "regression output"),
        (["decode", "--method", "mgar", "--logits=0,1,0", "--fit", "sigmoid", "--treg=-1000"],
         "regression output"),
        (["decode", "--method", "regression", "--treg", "1e200"], "regression output"),
        (["encode", "--method", "csl", "--window", "inf", "--angle", "10"], "window_size"),
        (["iou", "--box-a", "0,0,1e200,1e200,0", "--box-b", "0,0,1e200,1e200,0"],
         "quad area is not finite"),
    ], ids=["short-box", "box-token", "logit-token", "threshold-token", "threshold-range",
            "threshold-rounds-to-0", "method-token", "grid-step-500", "grid-step-inf",
            "grid-step-1e-320", "grid-step-5e-324", "grid-step-1e-300", "nms-threshold",
            "gradcheck-points-0", "gradcheck-points-negative", "gradcheck-seed-negative",
            "decode-exp-overflow", "decode-sigmoid-overflow", "decode-square-overflow",
            "csl-window-inf", "iou-area-overflow"])
    def test_iou_bad_box_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert message in err

    def test_nms(self, capsys, tmp_path):
        box = OrientedBox(0, 0, 2, 1, 15)
        far = OrientedBox(50, 50, 2, 1, 15)
        records = [DetectionRecord("im1", box, "ship", 0.9),
                   DetectionRecord("im1", box, "ship", 0.8),
                   DetectionRecord("im1", far, "ship", 0.7)]
        path = tmp_path / "dets.json"
        write_detections(records, path)
        code, out, _ = run_cli(capsys, "nms", "--detections", str(path), "--threshold", "0.5")
        assert code == 0
        assert json.loads(out) == {"kept": [0, 2], "total": 3}

    def test_nms_suppresses_only_within_an_image(self, capsys, tmp_path):
        box = OrientedBox(10, 10, 4, 2, 30)
        path = tmp_path / "dets.json"
        write_detections([DetectionRecord("im1", box, "ship", 0.9),
                          DetectionRecord("im2", box, "ship", 0.8)], path)
        code, out, _ = run_cli(capsys, "nms", "--detections", str(path), "--threshold", "0.5")
        assert (code, json.loads(out)) == (0, {"kept": [0, 1], "total": 2})
        # kept stays in descending-score order across images; ties go to the lower index
        write_detections([DetectionRecord("im1", box, "ship", 0.7),
                          DetectionRecord("im2", box, "ship", 0.9),
                          DetectionRecord("im1", box, "ship", 0.8),
                          DetectionRecord("im3", box, "ship", 0.8)], path)
        code, out, _ = run_cli(capsys, "nms", "--detections", str(path), "--threshold", "0.5")
        assert (code, json.loads(out)) == (0, {"kept": [1, 2, 3], "total": 4})

    def test_nms_keeps_a_task1_box_whose_corners_collapse(self, capsys, tmp_path):
        # A 6.2e-5 x 3.1e-5 px box at 2.08e7 px, rotated 148 degrees: its absolute
        # corners collapse, but IoU never builds them.
        line = ("im1 {} 20807893.59863405 20807893.598596573 20807893.598581277 "
                "20807893.598628946 20807893.598565087 20807893.598602563 "
                "20807893.59861786 20807893.59857019\n")
        path = tmp_path / "Task1_ship.txt"
        argv = ["nms", "--detections", str(tmp_path), "--threshold", "0.5"]
        path.write_text(line.format(0.9))
        code, out, _ = run_cli(capsys, *argv)
        assert (code, json.loads(out)) == (0, {"kept": [0], "total": 1})
        path.write_text(line.format(0.9) + line.format(0.8))
        code, out, _ = run_cli(capsys, *argv)
        assert (code, json.loads(out)) == (0, {"kept": [0], "total": 2})

    def test_nms_keeps_a_small_task1_quad_far_from_the_origin(self, capsys, caplog, tmp_path):
        # A 0.1 px square at ~9e6 px: its shoelace in absolute coordinates
        # cancels to nothing, but the quad check measures it about its centroid.
        path = tmp_path / "Task1_plane.txt"
        path.write_text("im1 0.0 5796369.05 9017693.05 5796368.95 9017693.05 "
                        "5796368.95 9017692.95 5796369.05 9017692.95\n")
        [record] = parse_detections(tmp_path)
        assert record.box.w == pytest.approx(0.1) and record.box.h == pytest.approx(0.1)
        code, out, _ = run_cli(capsys, "nms", "--detections", str(tmp_path), "--threshold", "0.5")
        assert (code, json.loads(out)) == (0, {"kept": [0], "total": 1})
        assert "skipped" not in caplog.text

    def test_nms_class_agnostic_suppresses_across_categories(self, capsys, tmp_path):
        box = OrientedBox(10, 10, 4, 2, 30)
        path = tmp_path / "dets.json"
        write_detections([DetectionRecord("im1", box, "ship", 0.9),
                          DetectionRecord("im1", box, "plane", 0.8),
                          DetectionRecord("im2", box, "plane", 0.7)], path)
        argv = ["nms", "--detections", str(path), "--threshold", "0.5"]
        code, out, _ = run_cli(capsys, *argv)
        assert (code, json.loads(out)) == (0, {"kept": [0, 1, 2], "total": 3})
        code, out, _ = run_cli(capsys, *argv, "--class-agnostic")
        assert (code, json.loads(out)) == (0, {"kept": [0, 2], "total": 3})

    def test_thickness(self, capsys):
        code, out, _ = run_cli(capsys, "thickness", "--method", "csl", "--ctheta", "180",
                               "--anchors", "9")
        assert code == 0
        assert json.loads(out) == {"thickness": 1620}


class TestCodecReport:
    def test_contains_published_rows(self, capsys):
        code, out, _ = run_cli(capsys, "codec-report", "--grid-step", "0.05", "--out", "json")
        assert code == 0
        rows = {(r["method"], r["c_theta"]): r for r in json.loads(out)}
        csl = rows[("csl", 180)]
        assert (csl["analytic_max_error"], csl["analytic_mean_error"]) == (0.5, 0.25)
        assert csl["thickness_a9"] == 1620
        dcl = rows[("dcl-gray", 256)]
        assert (dcl["analytic_max_error"], dcl["analytic_mean_error"]) == (0.3515625, 0.17578125)
        mgar = rows[("mgar", 3)]
        assert (mgar["analytic_max_error"], mgar["analytic_mean_error"]) == (0.0, 0.0)
        assert mgar["thickness_a9"] == 36
        assert rows[("dcl-binary", 32)]["thickness_a9"] == 45

    def test_csv_deterministic(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "codec-report", "--methods", "mgar,csl",
                                   "--grid-step", "0.1")
        code_b, out_b, _ = run_cli(capsys, "codec-report", "--methods", "mgar,csl",
                                   "--grid-step", "0.1")
        assert code_a == code_b == 0
        assert out_a == out_b
        assert out_a.splitlines()[0].startswith("method,c_theta,omega")

    def test_csv_holds_the_json_rows(self, capsys):
        argv = ["codec-report", "--grid-step", "0.5"]
        _, out_json, _ = run_cli(capsys, *argv, "--out", "json")
        code, out_csv, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = json.loads(out_json)
        header, *lines = csv.reader(out_csv.splitlines())
        assert header == ["method", "c_theta", "omega", "analytic_max_error",
                          "analytic_mean_error", "empirical_max_error", "empirical_mean_error",
                          "thickness_a9"]
        # JSON output sorts its keys; the CSV keeps the rows' own order.
        assert all(list(row) == sorted(header) for row in rows)
        assert lines == [[repr(row[k]) if isinstance(row[k], float) else str(row[k])
                          for k in header] for row in rows]


@pytest.fixture
def eval_fixture(tmp_path):
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    box_a = OrientedBox(10, 10, 4, 2, 30)
    box_b = OrientedBox(60, 60, 6, 3, 120)

    def line(box, category="ship", difficulty=0):
        coords = " ".join(f"{x:.10f} {y:.10f}" for x, y in to_corners(box).vertices)
        return f"{coords} {category} {difficulty}\n"

    (gt_dir / "im1.txt").write_text(line(box_a) + line(box_b))
    det_path = tmp_path / "dets.json"
    dets = [
        DetectionRecord("im1", box_a, "ship", 0.9),
        DetectionRecord("im1", OrientedBox(150, 150, 4, 2, 0), "ship", 0.8),
        DetectionRecord("im1", box_b, "ship", 0.7),
    ]
    write_detections(dets, det_path)
    return gt_dir, det_path


class TestEval:
    def test_identical_fixture_perfect_map(self, capsys, tmp_path):
        gt_dir = tmp_path / "gt"
        gt_dir.mkdir()
        box = OrientedBox(10, 10, 4, 2, 30)
        coords = " ".join(f"{x:.10f} {y:.10f}" for x, y in to_corners(box).vertices)
        (gt_dir / "im1.txt").write_text(f"{coords} ship 0\n")
        det_path = tmp_path / "dets.json"
        write_detections([DetectionRecord("im1", box, "ship", 0.9)], det_path)
        code, out, _ = run_cli(capsys, "eval", "--gt", str(gt_dir), "--det", str(det_path))
        assert code == 0
        assert "mAP@0.50=1.000000" in out
        assert "mAP@0.50:0.95=1.000000" in out

    def test_hand_computed_voc07_fixture(self, capsys, eval_fixture):
        gt_dir, det_path = eval_fixture
        code, out, _ = run_cli(capsys, "eval", "--gt", str(gt_dir), "--det", str(det_path),
                               "--mode", "voc07", "--thresholds", "0.5")
        assert code == 0
        assert f"mAP@0.50={28 / 33:.6f}" in out
        assert "0.848485" in out

    def test_report_written(self, capsys, eval_fixture, tmp_path):
        gt_dir, det_path = eval_fixture
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "eval", "--gt", str(gt_dir), "--det", str(det_path),
                               "--mode", "voc12", "--thresholds", "0.5",
                               "--out", str(report_path))
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["map_by_threshold"]["0.50"] == pytest.approx(5 / 6)

    @pytest.mark.parametrize("suffix", [".json", ".csv", ".CSV"])
    def test_stdout_labels_are_the_report_labels(self, capsys, eval_fixture, tmp_path, suffix):
        gt_dir, det_path = eval_fixture
        report_path = tmp_path / f"r{suffix}"
        code, out, _ = run_cli(capsys, "eval", "--gt", str(gt_dir), "--det", str(det_path),
                               "--thresholds", "0.5,0.549,0.95", "--out", str(report_path))
        assert code == 0
        parts = out.strip().split(", ")
        assert [p.split("=")[0] for p in parts] == ["mAP@0.50", "mAP@0.55", "mAP@0.95"]
        if suffix == ".json":
            by_label = json.loads(report_path.read_text())["map_by_threshold"]
        else:
            assert report_path.read_text().startswith("category,iou_threshold,")
            rows = csv.reader(report_path.read_text().splitlines())
            by_label = {row[1]: float(row[2]) for row in rows if row[0] == "mAP"}
        assert parts == [f"mAP@{label}={v:.6f}" for label, v in by_label.items()]

    def test_unknown_mode_names_both_modes(self, capsys, eval_fixture):
        gt_dir, det_path = eval_fixture
        with pytest.raises(SystemExit) as info:
            main(["eval", "--gt", str(gt_dir), "--det", str(det_path), "--mode", "bogus"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and repr(VOC07) in err and repr(VOC12) in err

    def test_missing_gt_flag_usage_error(self, capsys, eval_fixture):
        _, det_path = eval_fixture
        with pytest.raises(SystemExit) as info:
            main(["eval", "--det", str(det_path)])
        assert info.value.code == 2

    def test_empty_ground_truth_exits_3(self, capsys, tmp_path, eval_fixture):
        _, det_path = eval_fixture
        empty = tmp_path / "empty_gt"
        empty.mkdir()
        (empty / "im1.txt").write_text("imagesource:none\n")
        code, _, err = run_cli(capsys, "eval", "--gt", str(empty), "--det", str(det_path))
        assert code == 3
        assert "no ground-truth" in err

    def test_nms_flag_drops_duplicates(self, capsys, eval_fixture, tmp_path):
        gt_dir, _ = eval_fixture
        box_a = OrientedBox(10, 10, 4, 2, 30)
        box_b = OrientedBox(60, 60, 6, 3, 120)
        dets = [
            DetectionRecord("im1", box_a, "ship", 0.9),
            DetectionRecord("im1", box_a, "ship", 0.85),
            DetectionRecord("im1", box_b, "ship", 0.7),
        ]
        det_path = tmp_path / "dup.json"
        write_detections(dets, det_path)
        code, out, _ = run_cli(capsys, "eval", "--gt", str(gt_dir), "--det", str(det_path),
                               "--thresholds", "0.5", "--nms", "0.1")
        assert code == 0
        assert "mAP@0.50=1.000000" in out

    def test_unfittable_annotation_line_is_skipped(self, capsys, caplog, eval_fixture):
        gt_dir, det_path = eval_fixture
        code, clean, _ = run_cli(capsys, "eval", "--gt", str(gt_dir), "--det", str(det_path))
        assert code == 0
        path = gt_dir / "im1.txt"
        first, second = path.read_text().splitlines(keepends=True)
        overflow = "0 -1.6e153 1.6e154 0 0 1.6e153 -1.6e154 0 ship 0\n"  # fit over the cap
        path.write_text(first + overflow + second)
        code, out, _ = run_cli(capsys, "eval", "--gt", str(gt_dir), "--det", str(det_path))
        assert (code, out) == (0, clean)
        assert "im1.txt:2: box area exceeds half the float maximum" in caplog.text

    @pytest.mark.parametrize("box", [{"cx": 10.0, "cy": 10.0, "w": 1e-200, "h": 1e-200}])
    def test_collapsed_json_detection_is_skipped(self, capsys, caplog, eval_fixture, box):
        gt_dir, det_path = eval_fixture
        argv = ["eval", "--gt", str(gt_dir), "--det", str(det_path), "--nms", "0.5"]
        code, clean, _ = run_cli(capsys, *argv)
        assert code == 0
        records = json.loads(det_path.read_text())
        records.insert(1, {**records[0], **box})
        det_path.write_text(json.dumps(records))
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, clean)
        assert "dets.json:2: record 2: quad must be counter-clockwise" in caplog.text

    def test_json_detections_whose_union_overflows_are_skipped(self, capsys, caplog,
                                                               tmp_path):
        # Each area, 1.44e308, is finite, but two of them sum past the float
        # maximum: the box rule skips both records, so no pair aborts the run.
        # No OrientedBox holds such a box, so the records are written as text.
        det_path = tmp_path / "d.json"
        det_path.write_text(json.dumps([
            {"image_id": "im1", "category": "ship", "score": score, "cx": 0.0, "cy": 0.0,
             "w": 1.2e154, "h": 1.2e154, "theta": 0.0} for score in (0.9, 0.8)]))
        code, out, err = run_cli(capsys, "nms", "--detections", str(det_path),
                                 "--threshold", "0.5")
        assert (code, json.loads(out), err) == (0, {"kept": [], "total": 0}, "")
        for i in (1, 2):
            assert f"d.json:{i}: record {i}: box area exceeds half the float maximum " \
                   "(skipped)" in caplog.text

    def test_tiny_json_detection_far_from_the_origin_is_scored(self, capsys, caplog,
                                                               eval_fixture):
        # A 1e-9 px box at 1e8 px: its absolute corners collapse, but the IoU
        # kernel scores it, so the parser keeps it and it counts as a false
        # positive. No Task1 line can carry it: its area is below the quad fit's
        # 1e-12 px^2 sliver bound.
        gt_dir, det_path = eval_fixture
        records = json.loads(det_path.read_text())
        records.insert(1, {**records[0], "cx": 1e8, "cy": 1e8, "w": 1e-9, "h": 1e-9})
        det_path.write_text(json.dumps(records))
        tiny = DetectionRecord("im1", OrientedBox(1e8, 1e8, 1e-9, 1e-9, 30), "ship", 0.9)
        parsed = parse_detections(det_path)
        assert parsed[1] == tiny
        write_detections(parsed, det_path.with_name("again.json"))
        assert parse_detections(det_path.with_name("again.json")) == parsed
        code, out, _ = run_cli(capsys, "nms", "--detections", str(det_path), "--threshold", "0.5")
        assert (code, json.loads(out)) == (0, {"kept": [0, 1, 2, 3], "total": 4})
        code, out, _ = run_cli(capsys, "eval", "--gt", str(gt_dir), "--det", str(det_path),
                               "--nms", "0.5", "--thresholds", "0.5")
        # TP, FP, FP, TP by score: VOC12 AP = 0.5 * 1 + 0.5 * 2 / 4, where it was
        # 0.5 * 1 + 0.5 * 2 / 3 without the tiny box
        assert (code, out.splitlines()[0]) == (0, "mAP@0.50=0.750000")
        assert "skipped" not in caplog.text

    def test_json_record_of_the_wrong_type_is_skipped(self, capsys, caplog, eval_fixture,
                                                      tmp_path):
        # One GT, one exact detection, and a copy whose image_id is null and
        # score a bool: str() and float() would make it a second image's FP.
        gt_dir, _ = eval_fixture
        box = OrientedBox(10, 10, 4, 2, 30)
        (gt_dir / "im1.txt").write_text(
            " ".join(f"{x!r} {y!r}" for x, y in to_corners(box).vertices) + " ship 0\n")
        det_path = tmp_path / "typed.json"
        write_detections([DetectionRecord("im1", box, "ship", 0.9)], det_path)
        records = json.loads(det_path.read_text())
        det_path.write_text(json.dumps([*records, {**records[0], "image_id": None,
                                                    "score": True}]))
        with pytest.raises(ParseError, match=r"typed\.json:2: record 2: image_id must be a "
                                             r"JSON str, got None$"):
            parse_detections(det_path)
        code, out, _ = run_cli(capsys, "eval", "--gt", str(gt_dir), "--det", str(det_path),
                               "--thresholds", "0.5")
        assert (code, out.splitlines()[0]) == (0, "mAP@0.50=1.000000")
        assert "typed.json:2: record 2: image_id must be a JSON str, got None (skipped)" \
            in caplog.text

    def test_input_that_is_not_utf8_is_located(self, capsys, caplog, eval_fixture):
        # A text line with a byte that is not UTF-8 is skipped with a located
        # warning; such a byte in a JSON file fails the run at its line.
        gt_dir, det_path = eval_fixture
        argv = ["eval", "--gt", str(gt_dir), "--det", str(det_path)]
        code, clean, _ = run_cli(capsys, *argv)
        assert code == 0
        first_line = (gt_dir / "im1.txt").read_bytes().splitlines(keepends=True)[0]
        (gt_dir / "im2.txt").write_bytes(b"\xff" + first_line)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, clean)
        assert "im2.txt:1: byte 0xff is not UTF-8 (skipped)" in caplog.text
        det_path.write_bytes(det_path.read_bytes().replace(b'"ship"', b'"sh\xc3ip"', 2))
        for command in (argv, ["nms", "--detections", str(det_path), "--threshold", "0.5"]):
            code, out, err = run_cli(capsys, *command)
            assert (code, out) == (2, "")
            assert err == f"error: {det_path}:3: byte 0xc3 is not UTF-8\n"

    def test_bad_nms_threshold_exits_2_before_reading(self, capsys, eval_fixture, tmp_path):
        gt_dir, _ = eval_fixture
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        code, out, err = run_cli(capsys, "eval", "--gt", str(gt_dir), "--det", str(empty),
                                 "--nms", "7")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "iou_threshold" in err
        # the threshold is rejected before the (missing) files are opened
        code, _, err = run_cli(capsys, "eval", "--gt", str(tmp_path / "nowhere"),
                               "--det", str(tmp_path / "none.json"), "--nms", "7")
        assert code == 2 and "iou_threshold" in err


# IoUs a detection is given with its ground truth: each lies at least 0.02
# from every COCO threshold, 0.5 (the NMS threshold) included.
PINNED_IOUS = (0.3, 0.525, 0.575, 0.625, 0.675, 0.725, 0.775, 0.825, 0.875, 0.925, 0.975, 1.0)


def unambiguous(a, b):
    return all(abs(rotated_iou(a, b) - t) >= 0.02 for t in COCO_THRESHOLDS)


def pinned_fixture(root):
    """Seeded images of rotated, overlapping ground truths, written as exact
    DOTA rectangle quads, and detections of them as Task1 files and as JSON.

    Each detection is its ground truth moved f * w along the long side, so
    their IoU is (1 - f) / (1 + f), one of PINNED_IOUS. A detection whose IoU
    with any box of its image and category lies near a threshold is dropped,
    so TP/FP and NMS do not hang on the last bits of an IoU."""
    rng = random.Random(22)
    gt_dir, task1_dir = root / "gt", root / "task1"
    gt_dir.mkdir()
    task1_dir.mkdir()

    def quad(box):
        return " ".join(f"{x!r} {y!r}" for x, y in to_corners(box).vertices)

    dets = []
    for image in ("P0001", "P0002", "P0003"):
        gts = []
        for _ in range(5):
            w = rng.uniform(20, 60)
            box = OrientedBox(rng.uniform(60, 140), rng.uniform(60, 140), w,
                              w * rng.uniform(0.3, 0.9), rng.uniform(0, 180))
            gts.append((box, rng.choice(("plane", "ship"))))
        (gt_dir / f"{image}.txt").write_text("imagesource:GoogleEarth\ngsd:0.5\n" + "".join(
            f"{quad(box)} {category} {int(i == 4)}\n" for i, (box, category) in enumerate(gts)))
        kept = []
        for gt, category in gts:
            for iou in rng.sample(PINNED_IOUS, rng.choice((1, 2))):
                f = rng.choice((-1, 1)) * (1 - iou) / (1 + iou)
                rad = math.radians(gt.theta)
                box = OrientedBox(gt.cx + f * gt.w * math.cos(rad),
                                  gt.cy + f * gt.w * math.sin(rad), gt.w, gt.h, gt.theta)
                same = [other for other, c in gts + kept if c == category]
                if all(unambiguous(box, other) for other in same):
                    kept.append((box, category))
        dets += [DetectionRecord(image, box, category, rng.random()) for box, category in kept]
    det_json = root / "dets.json"
    write_detections(dets, det_json)
    for category in ("plane", "ship"):
        (task1_dir / f"Task1_{category}.txt").write_text("".join(
            f"{d.image_id} {d.score!r} {quad(d.box)}\n" for d in dets if d.category == category))
    return gt_dir, det_json, task1_dir


class TestPinnedOutput:
    """CLI output bytes on a seeded fixture, pinned as literals: a change that
    means to keep every byte is checked against them. The reports hold only
    ratios of counts, so they do not depend on the host once TP/FP is stable."""

    EVAL_OUT = ("mAP@0.50=0.725000, mAP@0.55=0.590278, mAP@0.60=0.590278, mAP@0.65=0.500000, "
                "mAP@0.70=0.398611, mAP@0.75=0.398611, mAP@0.80=0.354167, mAP@0.85=0.104167, "
                "mAP@0.90=0.083333, mAP@0.95=0.000000, mAP@0.50:0.95=0.374444\n")
    NMS_OUT = {
        "json": '{"kept": [12, 15, 16, 8, 19, 4, 2, 5, 9, 18, 1, 13, 14, 0, 3, 10, 7, 11, 17], '
                '"total": 21}\n',
        "task1": '{"kept": [7, 8, 18, 5, 19, 4, 2, 11, 14, 10, 1, 16, 17, 0, 3, 15, 13, 6, 9], '
                 '"total": 21}\n',
    }
    REPORT_SHA256 = {
        ".json": "22bea225c389e25f3687dc6b1565973b9b3ddeb60f11e69b4a28d48645c2590d",
        ".csv": "dd7bb20a5cafe1fb4bc6d3f75cb6c5ebe7f1d4b5b76cd74e8532055a8c7297ae",
    }

    @pytest.mark.parametrize("source", ["json", "task1"])
    def test_eval_and_nms_bytes(self, capsys, tmp_path, source):
        gt_dir, det_json, task1_dir = pinned_fixture(tmp_path)
        det = str(det_json if source == "json" else task1_dir)
        for suffix, digest in self.REPORT_SHA256.items():
            out_path = tmp_path / f"report{suffix}"
            result = run_cli(capsys, "eval", "--gt", str(gt_dir), "--det", det, "--nms", "0.5",
                             "--out", str(out_path))
            assert result == (0, self.EVAL_OUT, "")
            assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
        result = run_cli(capsys, "nms", "--detections", det, "--threshold", "0.5")
        assert result == (0, self.NMS_OUT[source], "")

    def test_a_subdirectory_named_like_an_input_file_is_skipped(self, capsys, tmp_path):
        gt_dir, _, task1_dir = pinned_fixture(tmp_path)
        (gt_dir / "sub.txt").mkdir()
        (task1_dir / "Task1_x.txt").mkdir()
        result = run_cli(capsys, "eval", "--gt", str(gt_dir), "--det", str(task1_dir),
                         "--nms", "0.5")
        assert result == (0, self.EVAL_OUT, "")
        result = run_cli(capsys, "nms", "--detections", str(task1_dir), "--threshold", "0.5")
        assert result == (0, self.NMS_OUT["task1"], "")

    # sha256 of `codec-report` stdout over every method at a 0.1-degree grid
    # (the bench's codec-sweep argv, in its default method order).
    CODEC_REPORT_SHA256 = {
        "csv": "0d2642a9b753b1146903d25cfb7b592777bd6969e6f51b31c24815e13e02dcdc",
        "json": "a665eeceeab12c5b0bb91b116991ebcc6e7cd11aa6e7d4f0786db1be6528c85e",
    }

    @pytest.mark.parametrize("out", ["csv", "json"])
    def test_codec_report_bytes(self, capsys, out):
        code, stdout, err = run_cli(capsys, "codec-report", "--methods",
                                    "regression,csl,dcl-binary,dcl-gray,mgar",
                                    "--grid-step", "0.1", "--out", out)
        assert (code, err) == (0, "")
        assert hashlib.sha256(stdout.encode()).hexdigest() == self.CODEC_REPORT_SHA256[out]


class TestGradcheck:
    def test_passes_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--points", "25")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert set(payload["max_relative_error"]) == {
            "smooth_l1", "mse", "ifl", "focal", "cross_entropy", "giou_location"}

    def test_seeded_runs_identical(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "gradcheck", "--seed", "7", "--points", "25")
        code_b, out_b, _ = run_cli(capsys, "gradcheck", "--seed", "7", "--points", "25")
        assert code_a == code_b == 0
        assert out_a == out_b

    # sha256 of `gradcheck --seed s` stdout at the default 100 points, s = 0..4,
    # pinned as literals: a change that means to keep every byte of the
    # gradient check is checked against them, not only against itself.
    STDOUT_SHA256 = (
        "1e8f475a0d0a134de0ccbc3030eefecd5848f0d9f620f05ca439368f9eac586a",
        "58f7772d7aea92dce38ccd4a29b488317ba77dd2f13185b1a472ae781550d1e0",
        "43a7f1cdc72971707d0e2ffb6560c1ce52544b690f9e7905f54714ba42d07eb3",
        "8080a893b3050f7732eba55a1ea8503cf388b349851cfa87ee1515add29a607c",
        "97a70f3349119ea2bb67706f8364ac386901c1f32252cda8e35667980a20908b",
    )

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_stdout_is_pinned(self, capsys, seed):
        code, out, err = run_cli(capsys, "gradcheck", "--seed", str(seed))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256[seed]

    def test_corrupt_hook_exits_1(self, capsys, monkeypatch):
        exact = anglekit.losses.smooth_l1_grad
        monkeypatch.setattr(anglekit.losses, "smooth_l1_grad",
                            lambda pred, target: exact(pred, target) + 1e-2)
        code, out, err = run_cli(capsys, "gradcheck", "--points", "10")
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "smooth_l1" in err

    def test_nan_gradient_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(anglekit.losses, "smooth_l1_grad", lambda pred, target: math.nan)
        code, out, err = run_cli(capsys, "gradcheck", "--points", "10")
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "gradient check failed: smooth_l1 rel_err=inf" in err


def test_star_import_binds_no_module():
    assert not [n for n in anglekit.__all__ if isinstance(getattr(anglekit, n), types.ModuleType)]
    namespace = {}
    exec("from anglekit import *", namespace)
    assert "codecs" not in namespace and "AngleTarget" in namespace


# Each module anglekit exports from, and its public names in `__all__` order.
PUBLIC_HOMES = {
    "errors": ["AngleKitError", "DegenerateQuadError", "InvalidInputError", "ParseError"],
    "obb": ["OrientedBox", "QuadPolygon", "convex_intersection_area", "from_corners",
            "longside", "rotated_iou", "rotated_nms", "to_corners"],
    "codecs": ["AnglePrediction", "AngleTarget", "CodecConfig", "FitFunction", "Method",
               "analytic_errors", "decode", "empirical_errors", "encode", "head_thickness",
               "ideal_prediction", "omega"],
    "losses": ["AnchorBox", "AssignedSample", "BoxDeltas", "LossBreakdown", "LossWeights",
               "cross_entropy", "cross_entropy_grad", "decode_box_deltas", "encode_box_deltas",
               "finite_diff_grad_check", "focal_loss", "focal_loss_grad", "giou_location_loss",
               "giou_location_loss_grad", "ifl", "ifl_grad", "mse", "mse_grad",
               "multitask_loss", "run_gradient_checks", "smooth_l1", "smooth_l1_grad"],
    "evaluation": ["COCO_THRESHOLDS", "VOC07", "VOC12", "CategoryThresholdResult",
                   "DetectionRecord", "EvalReport", "GroundTruthRecord", "MatchResult",
                   "average_precision", "evaluate", "match_detections"],
    "io_formats": ["parse_annotation_dir", "parse_detections", "write_detections",
                   "write_report"],
}


class TestNamespace:
    def test_all_lists_the_public_names_in_order(self):
        assert anglekit.__all__ == [n for names in PUBLIC_HOMES.values() for n in names]
        assert set(anglekit.__all__) <= set(dir(anglekit))

    def test_each_name_is_its_home_modules_object(self):
        for module, names in PUBLIC_HOMES.items():
            home = importlib.import_module(f"anglekit.{module}")
            for name in names:
                assert getattr(anglekit, name) is getattr(home, name), name

    def test_unknown_names_raise(self):
        with pytest.raises(AttributeError, match="'nope'"):
            anglekit.nope
        with pytest.raises(ImportError, match="nope"):
            from anglekit import nope  # noqa: F401

    # Names retired with no alias: AnchorBox is the one anchor-box class, and
    # parse_annotation_dir the one annotation reader.
    @pytest.mark.parametrize("module, name", [
        ("anglekit", "AxisAlignedBox"), ("anglekit.obb", "AxisAlignedBox"),
        ("anglekit.obb", "_axis_box"), ("anglekit", "parse_annotation_file"),
        ("anglekit.io_formats", "parse_annotation_file")])
    def test_retired_names_raise(self, module, name):
        with pytest.raises(AttributeError, match=f"'{name}'"):
            getattr(importlib.import_module(module), name)

    def test_modules_resolve_after_a_bare_import(self):
        proc = run_python(
            "import anglekit\n"
            "box = anglekit.obb.OrientedBox(0.0, 0.0, 2.0, 1.0, 0.0)\n"
            f"mods = [getattr(anglekit, m).__name__ for m in {list(PUBLIC_HOMES)}]\n"
            "print(anglekit.obb.rotated_iou(box, box), *mods)\n")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split() == ["1.0", *(f"anglekit.{m}" for m in PUBLIC_HOMES)]

    def test_each_import_loads_only_what_it_names(self):
        # Submodules, logging and csv loaded by each line, in one fresh interpreter.
        proc = run_python(LOAD_SETS)
        assert (proc.returncode, proc.stderr) == (0, "")
        steps = json.loads(proc.stdout)
        assert steps["import anglekit"] == []
        assert steps["from anglekit import rotated_iou, rotated_nms"] == [
            "anglekit.errors", "anglekit.obb"]
        setup = steps["from anglekit import CodecConfig, Method, parse_annotation_dir, "
                      "parse_detections"]
        assert "anglekit.io_formats" in setup
        assert not {"anglekit.losses", "logging", "csv"} & set(setup)
        # benches/tracer.py reads these modules from sys.modules after importing the CLI.
        assert {"anglekit.obb", "anglekit.codecs", "anglekit.losses", "anglekit.evaluation",
                "anglekit.io_formats"} <= set(steps["import anglekit.cli"])
        # Only codec-report's CSV output loads csv, inside the command.
        assert "csv" not in steps["import anglekit.cli"]


LOAD_SETS = """
import json, sys
before, steps = set(sys.modules), {}
for line in ["import anglekit", "from anglekit import rotated_iou, rotated_nms",
             "from anglekit import CodecConfig, Method, parse_annotation_dir, parse_detections",
             "import anglekit.cli"]:
    exec(line)
    steps[line] = sorted(m for m in set(sys.modules) - before
                         if m.startswith("anglekit.") or m in ("logging", "csv"))
print(json.dumps(steps))
"""


def run_python(code, *argv):
    """Run `code` in a fresh interpreter that imports anglekit from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(anglekit.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, check=False)


# Every command, codecs over every method first, and one multitask_loss call,
# with numpy blocked: the first four lines printed are CODEC_LINES.
ALL_COMMANDS_NO_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
from anglekit import (AnchorBox, AnglePrediction, AssignedSample, BoxDeltas, CodecConfig,
                      LossWeights, Method, OrientedBox, multitask_loss)
from anglekit.cli import main
gt, det = sys.argv[1:]
argvs = [["encode", "--method", "mgar", "--ctheta", "3", "--angle", "33.3"],
         ["encode", "--method", "dcl-gray", "--ctheta", "32", "--angle", "100.5"],
         ["decode", "--method", "mgar", "--ctheta", "3", "--logits=0.1,2,0.3", "--treg", "4.2"],
         ["decode", "--method", "dcl-binary", "--ctheta", "32", "--logits=-3,2,-1,4,0.5"],
         ["encode", "--method", "regression", "--angle", "10"],
         ["encode", "--method", "csl", "--angle", "10", "--window", "3.3"],
         ["encode", "--method", "dcl-binary", "--angle", "10"],
         ["decode", "--method", "regression", "--treg", "3"],
         ["decode", "--method", "csl", "--logits=" + ",".join(["1"] + ["0"] * 179)],
         ["decode", "--method", "dcl-gray", "--logits=-1000,1,1,1,1,2e-16"],
         ["codec-report", "--grid-step", "1"],
         ["thickness", "--method", "csl", "--ctheta", "180"],
         ["iou", "--box-a", "0,0,2,1,0", "--box-b", "1,0,2,1,0"],
         ["nms", "--detections", det, "--threshold", "0.5"],
         ["eval", "--gt", gt, "--det", det],
         ["gradcheck", "--points", "5"]]
codes = [main(argv) for argv in argvs]
sample = AssignedSample(objectness=1, anchor=AnchorBox(0.0, 0.0, 4.0, 2.0),
                        pred_deltas=BoxDeltas(0.1, 0.0, 0.0, 0.0), pred_confidence=1.0,
                        pred_category_logits=[0.5, -0.5],
                        pred_angle=AnglePrediction([0.1, 2.0, 0.3], 4.2),
                        gt_box=OrientedBox(0.0, 0.0, 4.0, 2.0, 70.0), gt_category=0)
loss = multitask_loss([sample], LossWeights(), CodecConfig(Method.MGAR))
print(json.dumps({"codes": codes, "total": loss.total,
                  "numpy": sorted(m for m, module in sys.modules.items()
                                  if module is not None and m.split(".")[0] == "numpy"),
                  "anglekit": sorted(m for m in sys.modules if m.startswith("anglekit."))}))
"""

CODEC_LINES = [
    '{"c_theta": 3, "class_vector": [1.0, 0.0, 0.0], "k": 0, "method": "mgar", '
    '"omega": 60.0, "residual": 33.3, "residual_target": 5.770615218501403}',
    '{"c_theta": 32, "class_vector": [1.0, 1.0, 0.0, 0.0, 1.0], "k": 17, '
    '"method": "dcl-gray", "omega": 5.625, "residual": 4.875, "residual_target": null}',
    '{"theta": 77.64}',
    '{"theta": 64.6875}',
]

# Eight threads make the first codec calls of a fresh process at once;
# thread i starts at call i % 3, so each call is some thread's first.
THREADED_FIRST_CALLS = """
import json, sys, threading
from anglekit import AnglePrediction, CodecConfig, Method, decode, encode

CALLS = (
    lambda: list(encode(10.0, CodecConfig(Method.CSL)).class_vector),
    lambda: decode(AnglePrediction([-2.0, 5.0, -1.0], 3.6742346141747673),
                   CodecConfig(Method.MGAR)),
    lambda: decode(AnglePrediction([-3.0, 2.0, -1.0, 4.0, 0.5]),
                   CodecConfig(Method.DCL_BINARY, 32)),
)
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8, timeout=60)
results, errors = {}, []

def worker(i):
    barrier.wait()
    try:
        order = [(i + j) % len(CALLS) for j in range(len(CALLS))]
        values = {j: CALLS[j]() for j in order}
        results[i] = [values[j] for j in range(len(CALLS))]
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(json.dumps({"alive": [thread.is_alive() for thread in threads], "errors": errors,
                  "results": [results.get(i) for i in range(8)],
                  "single": [call() for call in CALLS]}))
"""


class TestLazyNumpy:
    def test_iou_nms_eval_load_no_numpy(self, eval_fixture):
        # No command and no loss needs numpy: the script blocks its import.
        gt_dir, det_path = eval_fixture
        proc = run_python(ALL_COMMANDS_NO_NUMPY, str(gt_dir), str(det_path))
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert lines[:4] == CODEC_LINES
        state = json.loads(lines[-1])
        assert state["codes"] == [0] * 16
        assert math.isfinite(state["total"]) and state["total"] > 0.0
        assert state["numpy"] == []
        # The parser's choices, and traced runs, need both modules loaded.
        assert {"anglekit.codecs", "anglekit.losses"} <= set(state["anglekit"])

    def test_first_calls_from_threads(self):
        proc = run_python(THREADED_FIRST_CALLS)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        state = json.loads(proc.stdout)
        assert state["alive"] == [False] * 8
        assert state["errors"] == []
        assert state["results"] == [state["single"]] * 8
