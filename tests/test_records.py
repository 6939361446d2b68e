"""Every record class behaves as the frozen dataclass it replaced: the same
repr, == and hash (by value, or by identity where noted), the same error on
assignment, pickle and copy round trips, keyword construction with defaults
and __match_args__. Slotted records carry no __dict__."""

import copy
import pickle

import pytest

from anglekit import (AnchorBox, AnglePrediction, AngleTarget, AssignedSample, BoxDeltas,
                      CategoryThresholdResult, CodecConfig, DetectionRecord, EvalReport,
                      GroundTruthRecord, LossBreakdown, LossWeights, MatchResult, OrientedBox,
                      QuadPolygon)
from anglekit.losses import GradCheckResult

BOX = OrientedBox(1.0, 2.0, 4.0, 2.0, 30.0)
BOX_REPR = "OrientedBox(cx=1.0, cy=2.0, w=4.0, h=2.0, theta=30.0)"
ANCHOR = AnchorBox(0.0, 0.0, 4.0, 2.0)
DELTAS = BoxDeltas(0.0, 0.0, 0.0, 0.0)
ANGLE = AnglePrediction([0.0, 1.0, 0.0], 2.0)

# (class, keyword arguments, repr, by value): each row builds with the
# keywords only, so every default not named is taken.
RECORDS = [
    (OrientedBox, dict(cx=1.0, cy=2.0, w=4.0, h=2.0, theta=210.0), BOX_REPR, True),
    (QuadPolygon, dict(vertices=[(0, 2), (4, 2), (4, 0), (0, 0)]),
     "QuadPolygon(vertices=((0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (0.0, 2.0)))", True),
    (CodecConfig, dict(method="mgar"),
     "CodecConfig(method=<Method.MGAR: 'mgar'>, c_theta=3, window_size=6.0, "
     "fit_function=<FitFunction.SQUARE: 'square'>)", True),
    (AngleTarget, dict(class_index=1, class_vector=(0.0, 1.0, 0.0), residual_target=2.0,
                       raw_angle=64.0),
     "AngleTarget(class_index=1, class_vector=(0.0, 1.0, 0.0), residual_target=2.0, "
     "raw_angle=64.0)", False),
    (AnglePrediction, dict(), "AnglePrediction(class_logits=(), regression_output=None)", False),
    (GroundTruthRecord, dict(image_id="P1", box=BOX, category="ship"),
     f"GroundTruthRecord(image_id='P1', box={BOX_REPR}, category='ship', difficult=False)", True),
    (DetectionRecord, dict(image_id="P1", box=BOX, category="ship", score=0.5),
     f"DetectionRecord(image_id='P1', box={BOX_REPR}, category='ship', score=0.5)", True),
    (MatchResult, dict(tp=(True, False), fp=(False, True), gt_matched=(True,)),
     "MatchResult(tp=(True, False), fp=(False, True), gt_matched=(True,))", True),
    (CategoryThresholdResult, dict(ap=0.5, recall=(1.0,), precision=(0.5,), tp=1, fp=1, num_gt=1),
     "CategoryThresholdResult(ap=0.5, recall=(1.0,), precision=(0.5,), tp=1, fp=1, num_gt=1)",
     True),
    (EvalReport, dict(mode="voc12", thresholds=(0.5,), categories={}, map_by_threshold={0.5: 0.0},
                      map_50_95=None),
     "EvalReport(mode='voc12', thresholds=(0.5,), categories={}, map_by_threshold={0.5: 0.0}, "
     "map_50_95=None)", True),
    (AnchorBox, dict(cx=0.0, cy=0.0, w=4.0, h=2.0), "AnchorBox(cx=0.0, cy=0.0, w=4.0, h=2.0)",
     True),
    (BoxDeltas, dict(dx=0.5, dy=0.0, dw=0.0, dh=-0.5),
     "BoxDeltas(dx=0.5, dy=0.0, dw=0.0, dh=-0.5)", True),
    (LossWeights, dict(),
     "LossWeights(location=2.0, confidence=2.0, category=5.0, angle_class=2.0, angle_reg=0.5)",
     True),
    (AssignedSample, dict(objectness=0, anchor=ANCHOR, pred_deltas=DELTAS, pred_confidence=0.0,
                          pred_category_logits=[1, 0], pred_angle=ANGLE),
     "AssignedSample(objectness=0, anchor=AnchorBox(cx=0.0, cy=0.0, w=4.0, h=2.0), "
     "pred_deltas=BoxDeltas(dx=0.0, dy=0.0, dw=0.0, dh=0.0), pred_confidence=0.0, "
     "pred_category_logits=(1.0, 0.0), pred_angle=AnglePrediction(class_logits=(0.0, 1.0, 0.0), "
     "regression_output=2.0), gt_box=None, gt_category=None)", False),
    (LossBreakdown, dict(location=0.5, confidence=0.25, category=1.0, angle_class=0.0,
                         angle_reg=0.125, total=2.0),
     "LossBreakdown(location=0.5, confidence=0.25, category=1.0, angle_class=0.0, "
     "angle_reg=0.125, total=2.0)", True),
    (GradCheckResult, dict(max_relative_error=1e-9, worst_point=(1.0, -2.0)),
     "GradCheckResult(max_relative_error=1e-09, worst_point=(1.0, -2.0))", True),
]
FIELDS = {
    OrientedBox: ("cx", "cy", "w", "h", "theta"),
    QuadPolygon: ("vertices",),
    CodecConfig: ("method", "c_theta", "window_size", "fit_function"),
    AngleTarget: ("class_index", "class_vector", "residual_target", "raw_angle"),
    AnglePrediction: ("class_logits", "regression_output"),
    GroundTruthRecord: ("image_id", "box", "category", "difficult"),
    DetectionRecord: ("image_id", "box", "category", "score"),
    MatchResult: ("tp", "fp", "gt_matched"),
    CategoryThresholdResult: ("ap", "recall", "precision", "tp", "fp", "num_gt"),
    EvalReport: ("mode", "thresholds", "categories", "map_by_threshold", "map_50_95"),
    AnchorBox: ("cx", "cy", "w", "h"),
    BoxDeltas: ("dx", "dy", "dw", "dh"),
    LossWeights: ("location", "confidence", "category", "angle_class", "angle_reg"),
    AssignedSample: ("objectness", "anchor", "pred_deltas", "pred_confidence",
                     "pred_category_logits", "pred_angle", "gt_box", "gt_category"),
    LossBreakdown: ("location", "confidence", "category", "angle_class", "angle_reg", "total"),
    GradCheckResult: ("max_relative_error", "worst_point"),
}
IDS = [row[0].__name__ for row in RECORDS]


def test_the_table_covers_every_record_class():
    assert [row[0] for row in RECORDS] == list(FIELDS)
    assert len(FIELDS) == 16


@pytest.mark.parametrize("cls, kwargs, shown, by_value", RECORDS, ids=IDS)
def test_repr_and_match_args(cls, kwargs, shown, by_value):
    record = cls(**kwargs)
    assert repr(record) == shown
    assert cls.__match_args__ == FIELDS[cls]
    match record:
        case cls(first):  # a positional class pattern reads __match_args__
            assert first is getattr(record, FIELDS[cls][0])
        case _:
            pytest.fail(f"{shown} does not match its class")
    # A slotted record has no __dict__; CodecConfig keeps one for its cached tables.
    assert hasattr(record, "__dict__") == (cls is CodecConfig)


@pytest.mark.parametrize("cls, kwargs, shown, by_value", RECORDS, ids=IDS)
def test_equality_and_hash(cls, kwargs, shown, by_value):
    record, twin = cls(**kwargs), cls(**kwargs)
    assert record == record
    assert record.__eq__(object()) is NotImplemented
    assert record != (*(getattr(record, name) for name in FIELDS[cls]),)
    if not by_value:
        assert record != twin
        assert hash(record) == object.__hash__(record)
    elif cls is EvalReport:  # its dict fields are unhashable, as they were
        assert record == twin
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert record == twin
        assert hash(record) == hash(twin) == hash(tuple(getattr(record, n) for n in FIELDS[cls]))


@pytest.mark.parametrize("cls, kwargs, shown, by_value", RECORDS, ids=IDS)
def test_fields_are_frozen(cls, kwargs, shown, by_value):
    record = cls(**kwargs)
    for name in (*FIELDS[cls], "other"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert repr(record) == shown


@pytest.mark.parametrize("cls, kwargs, shown, by_value", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(cls, kwargs, shown, by_value):
    record = cls(**kwargs)
    twins = [pickle.loads(pickle.dumps(record, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (*twins, copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls
        assert repr(twin) == shown
        assert (twin == record) == by_value


# GroundTruthRecord("P1", BOX, "ship") as the frozen dataclass pickled it at
# protocol 0: a dict of the fields per record.
DATACLASS_PICKLE = (
    b"ccopy_reg\n_reconstructor\np0\n(canglekit.evaluation\nGroundTruthRecord\np1\n"
    b"c__builtin__\nobject\np2\nNtp3\nRp4\n(dp5\nVimage_id\np6\nVP1\np7\nsVbox\np8\n"
    b"g0\n(canglekit.obb\nOrientedBox\np9\ng2\nNtp10\nRp11\n(dp12\nVcx\np13\nF1.0\n"
    b"sVcy\np14\nF2.0\nsVw\np15\nF4.0\nsVh\np16\nF2.0\nsVtheta\np17\nF30.0\n"
    b"sbsVcategory\np18\nVship\np19\nsVdifficult\np20\nI00\nsb."
)


def test_pickles_are_those_the_dataclasses_wrote():
    record = GroundTruthRecord("P1", BOX, "ship")
    assert pickle.dumps(record, 0) == DATACLASS_PICKLE
    assert pickle.loads(DATACLASS_PICKLE) == record
