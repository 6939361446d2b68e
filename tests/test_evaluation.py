import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit import (COCO_THRESHOLDS, VOC07, VOC12, DetectionRecord, GroundTruthRecord,
                      InvalidInputError, OrientedBox, average_precision, evaluate, longside,
                      match_detections, rotated_iou)
from helpers import (count_calls, count_clipped_pairs, random_longside_box, reference_evaluate,
                     reference_match)


def gt(image_id, box, category="ship", difficult=False):
    return GroundTruthRecord(image_id=image_id, box=box, category=category, difficult=difficult)


def det(image_id, box, score, category="ship"):
    return DetectionRecord(image_id=image_id, box=box, category=category, score=score)


BOX_A = OrientedBox(10, 10, 4, 2, 30)
BOX_B = OrientedBox(50, 50, 6, 3, 120)
BOX_FAR = OrientedBox(200, 200, 4, 2, 0)


class TestRecords:
    """A record holds an OrientedBox, and a ground truth's difficult flag is 0 or 1."""

    @pytest.mark.parametrize("box", ["notabox", None, (10, 10, 4, 2, 30)],
                             ids=["str", "None", "tuple"])
    def test_box_is_an_oriented_box(self, box):
        with pytest.raises(InvalidInputError, match="^ground truth box must be an OrientedBox"):
            gt("im1", box)
        with pytest.raises(InvalidInputError, match="^detection box must be an OrientedBox"):
            det("im1", box, 0.5)

    @pytest.mark.parametrize("difficult, rule", [
        ("no", "a number"), ("0", "a number"), (None, "a number"), (2, "0 or 1"),
        (-1, "0 or 1"), (0.5, "an integer"), (math.nan, "an integer")],
        ids=["no", "0", "None", "2", "-1", "0.5", "nan"])
    def test_difficult_is_0_or_1(self, difficult, rule):
        # A truthy non-flag such as "no" would make a matched box difficult.
        with pytest.raises(InvalidInputError, match=f"^difficult must be {rule}, got"):
            gt("im1", BOX_A, difficult=difficult)

    @pytest.mark.parametrize("difficult, num_gt, ap", [
        (False, 2, 0.5), (0, 2, 0.5), (0.0, 2, 0.5), (np.int64(0), 2, 0.5),
        (True, 1, 1.0), (1, 1, 1.0), (1.0, 1, 1.0), (np.int64(1), 1, 1.0)])
    def test_difficult_flags_score_as_bools(self, difficult, num_gt, ap):
        # The record stores the flag as a bool. BOX_B is found; BOX_A is
        # missed, which costs recall unless difficult.
        record = gt("im1", BOX_A, difficult=difficult)
        assert record.difficult is (num_gt == 1)
        report = evaluate([record, gt("im1", BOX_B)],
                          [det("im1", BOX_B, 0.9)], [0.5], mode=VOC12)
        assert report.categories["ship"][0.5].num_gt == num_gt
        assert report.map_by_threshold[0.5] == ap


# Values that are not built records, each with the side it is given on. The
# namespaces have a record's fields, each with one value its record rejects.
NEGATIVE_BOX = SimpleNamespace(cx=10, cy=10, w=-4, h=-2, theta=30)
NOT_RECORDS = {
    "difficult-no": ("gts", SimpleNamespace(image_id="im1", box=BOX_A, category="ship",
                                            difficult="no")),
    "str-score": ("dets", SimpleNamespace(image_id="im1", box=BOX_A, category="ship",
                                          score="0.9")),
    "gt-negative-sided-box": ("gts", SimpleNamespace(image_id="im1", box=NEGATIVE_BOX,
                                                     category="ship", difficult=False)),
    "det-negative-sided-box": ("dets", SimpleNamespace(image_id="im1", box=NEGATIVE_BOX,
                                                       category="ship", score=0.9)),
    "gt-tuple": ("gts", ("im1", BOX_A, "ship", False)),
    "det-tuple": ("dets", ("im1", BOX_A, "ship", 0.9)),
    "gt-None": ("gts", None),
    "det-None": ("dets", None),
}
KINDS = {"gts": "GroundTruthRecord", "dets": "DetectionRecord"}
# Each scoring call of evaluation, given its ground truths and detections.
RECORD_CALLS = {
    "evaluate": lambda gts, dets: evaluate(gts, dets, [0.5]),
    "match_detections": lambda gts, dets: match_detections(dets, gts, 0.5),
}


class TestScoringTakesBuiltRecords:
    """evaluate and match_detections score only records, whose constructors checked them."""

    @pytest.mark.parametrize("call, side, value", [
        pytest.param(call, side, value, id=f"{name}-{value_id}")
        for name, call in RECORD_CALLS.items()
        for value_id, (side, value) in NOT_RECORDS.items()])
    def test_rejects_what_is_not_a_record(self, call, side, value):
        records = {"gts": [gt("im1", BOX_A)], "dets": [det("im1", BOX_A, 0.9)]}
        records[side].append(value)
        message = f"^{side} entry must be a {KINDS[side]}, got"
        with pytest.raises(InvalidInputError, match=message):
            call(records["gts"], records["dets"])

    @pytest.mark.parametrize("value", [None, 3, "im1"], ids=["None", "int", "str"])
    @pytest.mark.parametrize("name", RECORD_CALLS)
    def test_rejects_what_is_not_a_sequence(self, name, value):
        for side, args in (("gts", (value, [det("im1", BOX_A, 0.9)])),
                           ("dets", ([gt("im1", BOX_A)], value))):
            with pytest.raises(InvalidInputError, match=f"^{side} must be a flat sequence of"):
                RECORD_CALLS[name](*args)

    def test_checks_records_after_mode_and_thresholds(self):
        with pytest.raises(InvalidInputError, match="^mode must be"):
            evaluate([None], [None], [0.5], mode="bogus")
        with pytest.raises(InvalidInputError, match="^iou threshold must lie in"):
            evaluate([None], [None], [0.0])
        with pytest.raises(InvalidInputError, match="^iou threshold must lie in"):
            match_detections([None], [None], 0.0)

    def test_iterators_are_read_once(self):
        gts, dets = three_category_fixture(seed=58)
        report = evaluate(gts, dets, [0.5])
        assert report.map_by_threshold[0.5] > 0.0
        assert evaluate(iter(gts), iter(dets), [0.5]) == report
        ship = ([d for d in dets if d.category == "ship"], [g for g in gts if g.category == "ship"])
        assert match_detections(*map(iter, ship), 0.5) == match_detections(*ship, 0.5)


class TestMatchDetections:
    def test_exact_match_is_tp(self):
        result = match_detections([det("im1", BOX_A, 0.9)], [gt("im1", BOX_A)], 0.5)
        assert result.tp == (True,)
        assert result.fp == (False,)
        assert result.gt_matched == (True,)

    def test_single_match_rule(self):
        dets = [det("im1", BOX_A, 0.9), det("im1", BOX_A, 0.8)]
        result = match_detections(dets, [gt("im1", BOX_A)], 0.5)
        assert result.tp == (True, False)
        assert result.fp == (False, True)

    def test_cross_image_isolation(self):
        result = match_detections([det("im2", BOX_A, 0.9)], [gt("im1", BOX_A)], 0.5)
        assert result.fp == (True,)

    def test_difficult_gt_absorbs_without_flags(self):
        dets = [det("im1", BOX_A, 0.9)]
        result = match_detections(dets, [gt("im1", BOX_A, difficult=True)], 0.5)
        assert result.tp == (False,)
        assert result.fp == (False,)
        assert result.gt_matched == (False,)

    def test_rejects_mixed_categories(self):
        with pytest.raises(InvalidInputError):
            match_detections([det("im1", BOX_A, 0.9, category="plane")],
                             [gt("im1", BOX_A)], 0.5)

    def test_randomized_against_reference(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            gts = [gt(f"im{rng.integers(0, 3)}", random_longside_box(rng, span=4.0),
                      difficult=bool(rng.uniform() < 0.2)) for _ in range(10)]
            dets = []
            for _ in range(20):
                base = gts[rng.integers(0, len(gts))]
                jitter = random_longside_box(rng, span=4.0)
                box = jitter if rng.uniform() < 0.4 else OrientedBox(
                    base.box.cx + rng.normal(0, 0.4), base.box.cy + rng.normal(0, 0.4),
                    base.box.w, base.box.h, base.box.theta + rng.normal(0, 5))
                dets.append(det(f"im{rng.integers(0, 3)}" if rng.uniform() < 0.3
                                else base.image_id, box, float(rng.uniform(0, 1))))
            for threshold in (0.3, 0.5, 0.75):
                got = match_detections(dets, gts, threshold)
                ref_tp, ref_fp, ref_matched = reference_match(dets, gts, threshold)
                assert list(got.tp) == ref_tp
                assert list(got.fp) == ref_fp
                assert list(got.gt_matched) == ref_matched


# One 10 x 1 px GT per image and a detection slid along its long side by dx,
# so the IoUs (10 - dx) / (10 + dx) run from 0.0025 to 1 in steps of 0.005:
# whatever a threshold rounds to, some IoU lies between the two.
LADDER_GTS = [gt(f"im{i}", OrientedBox(0, 0, 10, 1, 0)) for i in range(201)]
LADDER_DETS = [det(f"im{i}", OrientedBox(10 * (1 - q) / (1 + q), 0, 10, 1, 0), 0.2 + i / 400)
               for i, q in enumerate([0.0025 + 0.005 * i for i in range(200)] + [1.0])]


class TestMatchThresholdRule:
    @given(st.integers(51, 10049).map(lambda k: k / 10000))
    def test_match_detections_counts_the_evaluate_cell(self, threshold):
        cell = evaluate(LADDER_GTS, LADDER_DETS, [threshold]).categories["ship"]
        (counts,) = [(c.tp, c.fp) for c in cell.values()]
        result = match_detections(LADDER_DETS, LADDER_GTS, threshold)
        assert (sum(result.tp), sum(result.fp)) == counts

    def test_threshold_rounds_before_matching(self):
        gts = [gt("im1", OrientedBox(0, 0, 10, 1, 0))]
        dets = [det("im1", OrientedBox(2.9074, 0, 10, 1, 0), 0.9)]
        assert 0.549 < rotated_iou(gts[0].box, dets[0].box) < 0.55
        assert match_detections(dets, gts, 0.549).tp == (False,)
        assert evaluate(gts, dets, [0.549]).map_by_threshold == {0.55: 0.0}
        assert match_detections(dets, gts, 0.544).tp == (True,)

    def test_threshold_range_is_the_evaluate_range(self):
        exact = ([det("im1", BOX_A, 0.9)], [gt("im1", BOX_A)])
        with pytest.raises(InvalidInputError, match=r"^iou threshold must lie in \(0, 1\], "
                                                    r"got 0\.004$"):
            match_detections(*exact, 0.004)
        with pytest.raises(InvalidInputError, match=r"^iou threshold must lie in \(0, 1\], "
                                                    r"got 0\.004$"):
            evaluate(exact[1], exact[0], [0.004])
        assert match_detections(*exact, 1.004) == match_detections(*exact, 1.0)
        assert match_detections(*exact, 1.004).tp == (True,)


class TestAveragePrecision:
    def test_perfect_detector(self):
        assert average_precision([1.0], [1.0], VOC07) == pytest.approx(1.0)
        assert average_precision([1.0], [1.0], VOC12) == pytest.approx(1.0)

    def test_hand_computed_voc07(self):
        # 2 gts, detections TP(0.9), FP(0.8), TP(0.7)
        rec = [0.5, 0.5, 1.0]
        prec = [1.0, 0.5, 2 / 3]
        assert average_precision(rec, prec, VOC07) == pytest.approx(28 / 33, abs=1e-12)

    def test_hand_computed_voc12(self):
        rec = [0.5, 0.5, 1.0]
        prec = [1.0, 0.5, 2 / 3]
        assert average_precision(rec, prec, VOC12) == pytest.approx(5 / 6, abs=1e-12)

    def test_empty_curve(self):
        assert average_precision([], [], VOC07) == 0.0
        assert average_precision([], [], VOC12) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            average_precision([0.1, 0.2], [1.0], VOC12)
        with pytest.raises(InvalidInputError):
            average_precision([0.5, 0.4], [1.0, 1.0], VOC12)
        with pytest.raises(InvalidInputError):
            average_precision([0.5], [1.0], "voc2012")

    @pytest.mark.parametrize("mode", [VOC07, VOC12])
    @pytest.mark.parametrize("rec, prec", [
        ([1.5], [2.0]), ([-0.5], [0.5]), ([math.nan], [0.5]), ([0.5], [math.nan]),
        ([0.5, 1.0], [1.0, math.inf]),
    ], ids=["above-1", "negative", "nan-recall", "nan-precision", "inf-precision"])
    def test_rejects_values_outside_the_unit_interval(self, rec, prec, mode):
        with pytest.raises(InvalidInputError, match=r"must lie in \[0, 1\]"):
            average_precision(rec, prec, mode)

    def test_unit_interval_ends_are_accepted(self):
        assert average_precision([0.0, 1.0], [1.0, 0.0], VOC12) == 0.0
        assert average_precision([0.0, 1.0], [1.0, 0.0], VOC07) == pytest.approx(1 / 11)


def three_category_fixture(seed=51, n_images=4):
    rng = np.random.default_rng(seed)
    gts, dets = [], []
    for cat in ("plane", "ship", "vehicle"):
        for _ in range(rng.integers(4, 9)):
            image = f"im{rng.integers(0, n_images)}"
            box = random_longside_box(rng, span=6.0)
            gts.append(gt(image, box, category=cat, difficult=bool(rng.uniform() < 0.15)))
        for _ in range(rng.integers(8, 15)):
            if rng.uniform() < 0.55 and gts:
                base = [g for g in gts if g.category == cat][rng.integers(
                    0, sum(1 for g in gts if g.category == cat))]
                box = longside(base.box.cx + rng.normal(0, 0.3),
                               base.box.cy + rng.normal(0, 0.3),
                               base.box.w * rng.uniform(0.9, 1.1),
                               base.box.h * rng.uniform(0.8, 1.0),
                               base.box.theta + rng.normal(0, 4))
                image = base.image_id
            else:
                box = random_longside_box(rng, span=6.0)
                image = f"im{rng.integers(0, n_images)}"
            dets.append(det(image, box, float(rng.uniform(0, 1)), category=cat))
    return gts, dets


class TestEvaluate:
    def test_identical_gt_det_is_perfect(self):
        rng = np.random.default_rng(43)
        gts = [gt(f"im{i % 3}", random_longside_box(rng), category=c)
               for i, c in enumerate(["ship", "plane"] * 4)]
        dets = [det(g.image_id, g.box, 0.9, category=g.category) for g in gts]
        report = evaluate(gts, dets, COCO_THRESHOLDS, mode=VOC12)
        for thr, value in report.map_by_threshold.items():
            assert value == pytest.approx(1.0), thr
        assert report.map_50_95 == pytest.approx(1.0)

    def test_empty_detections(self):
        gts = [gt("im1", BOX_A), gt("im2", BOX_B)]
        report = evaluate(gts, [], [0.5], mode=VOC12)
        assert report.map_by_threshold[0.5] == 0.0
        assert report.categories["ship"][0.5].ap == 0.0

    def test_zero_gt_category_excluded(self):
        gts = [gt("im1", BOX_A, category="ship")]
        dets = [det("im1", BOX_A, 0.9, category="ship"),
                det("im1", BOX_B, 0.8, category="plane")]
        report = evaluate(gts, dets, [0.5])
        assert set(report.categories) == {"ship"}
        assert report.map_by_threshold[0.5] == pytest.approx(1.0)

    def test_three_category_fixture_matches_script(self):
        gts, dets = three_category_fixture()
        for mode in (VOC07, VOC12):
            report = evaluate(gts, dets, [0.5, 0.75], mode=mode)
            for thr in (0.5, 0.75):
                expected = reference_evaluate(gts, dets, thr, mode)
                for cat, ap in expected.items():
                    assert report.categories[cat][thr].ap == pytest.approx(ap, abs=1e-9)
                expected_map = sum(expected.values()) / len(expected)
                assert report.map_by_threshold[thr] == pytest.approx(expected_map, abs=1e-9)

    def test_score_rank_invariance(self):
        gts, dets = three_category_fixture(seed=52)
        report_a = evaluate(gts, dets, [0.5], mode=VOC12)
        squashed = [DetectionRecord(d.image_id, d.box, d.category, d.score ** 3) for d in dets]
        report_b = evaluate(gts, squashed, [0.5], mode=VOC12)
        assert report_a.map_by_threshold[0.5] == pytest.approx(
            report_b.map_by_threshold[0.5], abs=1e-12)

    def test_permutation_invariance(self):
        gts, dets = three_category_fixture(seed=53)
        base = evaluate(gts, dets, [0.5, 0.75], mode=VOC12)
        rng = np.random.default_rng(99)
        perm_gts = [gts[i] for i in rng.permutation(len(gts))]
        perm_dets = [dets[i] for i in rng.permutation(len(dets))]
        other = evaluate(perm_gts, perm_dets, [0.75, 0.5], mode=VOC12)
        assert base.map_by_threshold == other.map_by_threshold

    def test_ten_thresholds_equal_single_threshold_runs(self):
        gts, dets = three_category_fixture(seed=56)
        report = evaluate(gts, dets, COCO_THRESHOLDS, mode=VOC12)
        for thr in COCO_THRESHOLDS:
            single = evaluate(gts, dets, [thr], mode=VOC12)
            assert single.map_by_threshold[thr] == report.map_by_threshold[thr]
            for cat, cells in report.categories.items():
                assert cells[thr] == single.categories[cat][thr]
                result = match_detections([d for d in dets if d.category == cat],
                                          [g for g in gts if g.category == cat], thr)
                assert (cells[thr].tp, cells[thr].fp) == (sum(result.tp), sum(result.fp))

    def test_each_iou_computed_once_for_all_thresholds(self, monkeypatch):
        gts, dets = three_category_fixture(seed=57)
        clipped = count_clipped_pairs(monkeypatch)
        prepared = count_calls(monkeypatch, "_prepare")
        evaluate(gts, dets, [0.5], mode=VOC12)
        one = clipped[0]
        clipped[0] = prepared[0] = 0
        evaluate(gts, dets, COCO_THRESHOLDS, mode=VOC12)
        assert clipped[0] == one > 0
        assert prepared[0] <= len(gts) + len(dets)

    def test_nested_thresholds_monotone(self):
        gts, dets = three_category_fixture(seed=54)
        report = evaluate(gts, dets, COCO_THRESHOLDS, mode=VOC12)
        assert report.map_50_95 <= report.map_by_threshold[0.5] + 1e-12

    def test_trailing_fp_never_raises_voc12_ap(self):
        gts, dets = three_category_fixture(seed=55)
        before = evaluate(gts, dets, [0.5], mode=VOC12)
        lowest = min(d.score for d in dets) / 2
        extra = dets + [det("im0", OrientedBox(999, 999, 4, 2, 0), lowest, category="ship")]
        after = evaluate(gts, extra, [0.5], mode=VOC12)
        assert after.categories["ship"][0.5].ap <= before.categories["ship"][0.5].ap + 1e-12

    def test_trailing_tp_extends_recall(self):
        box_c = OrientedBox(120, 120, 4, 2, 75)
        gts = [gt("im1", BOX_A), gt("im1", box_c)]
        dets = [det("im1", BOX_A, 0.9)]
        before = evaluate(gts, dets, [0.5], mode=VOC12)
        after = evaluate(gts, dets + [det("im1", box_c, 0.1)], [0.5], mode=VOC12)
        assert max(after.categories["ship"][0.5].recall) > \
            max(before.categories["ship"][0.5].recall)
        assert after.categories["ship"][0.5].ap >= before.categories["ship"][0.5].ap

    def test_difficult_excluded_from_recall_denominator(self):
        gts = [gt("im1", BOX_A), gt("im1", BOX_B, difficult=True)]
        dets = [det("im1", BOX_A, 0.9)]
        report = evaluate(gts, dets, [0.5])
        cell = report.categories["ship"][0.5]
        assert cell.num_gt == 1
        assert cell.ap == pytest.approx(1.0)

    def test_mode_validation(self):
        with pytest.raises(InvalidInputError):
            evaluate([gt("im1", BOX_A)], [], [0.5], mode="bogus")
        with pytest.raises(InvalidInputError):
            evaluate([gt("im1", BOX_A)], [], [], mode=VOC12)
