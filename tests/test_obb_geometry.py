import hashlib
import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import anglekit.io_formats
from anglekit import (AngleKitError, DegenerateQuadError, InvalidInputError, OrientedBox,
                      ParseError, QuadPolygon, convex_intersection_area, from_corners, longside,
                      parse_annotation_dir, parse_detections, rotated_iou, rotated_nms,
                      to_corners)
from anglekit.obb import _overlaps, _signed_area
from helpers import (brute_force_min_rect_area, count_calls, count_clipped_pairs,
                     exact_intersection_area, mc_intersection_fraction, random_longside_box,
                     reference_nms, seeded_box_pairs, seeded_quads)


def sorted_corners(quad):
    return sorted(quad.vertices)


def assert_corner_sets_close(a, b, tol=1e-9):
    for (ax, ay), (bx, by) in zip(sorted(a), sorted(b)):
        assert abs(ax - bx) <= tol and abs(ay - by) <= tol


class TestOrientedBox:
    def test_theta_normalized_modulo_180(self):
        assert OrientedBox(0, 0, 2, 1, 180.0).theta == 0.0
        assert OrientedBox(0, 0, 2, 1, 190.0).theta == pytest.approx(10.0)
        assert OrientedBox(0, 0, 2, 1, -10.0).theta == pytest.approx(170.0)

    def test_square_canonicalized_modulo_90(self):
        assert OrientedBox(0, 0, 2, 2, 137.0).theta == pytest.approx(47.0)

    @pytest.mark.parametrize("w, h, period", [(2, 1, 180.0), (1, 1, 90.0)],
                             ids=["rectangle", "square"])
    @pytest.mark.parametrize("theta", [-1e-20, -1e-300, -5e-324, -5e-15])
    def test_tiny_negative_angle_stays_below_the_period(self, w, h, period, theta):
        # theta % period rounds up to the period itself for these angles.
        assert theta % period == period
        assert OrientedBox(0, 0, w, h, theta).theta == 0.0

    @pytest.mark.parametrize("w, h, period", [(2, 1, 180.0), (1, 1, 90.0)],
                             ids=["rectangle", "square"])
    def test_theta_always_lies_in_zero_to_period(self, w, h, period):
        rng = random.Random(3)
        for _ in range(2000):
            theta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320, 4)
            assert 0.0 <= OrientedBox(0, 0, w, h, theta).theta < period

    def test_rejects_bad_sides(self):
        with pytest.raises(InvalidInputError):
            OrientedBox(0, 0, 0.0, 1, 0)
        with pytest.raises(InvalidInputError):
            OrientedBox(0, 0, 1, 2, 0)
        with pytest.raises(InvalidInputError):
            OrientedBox(0, 0, math.nan, 1, 0)


class TestToCorners:
    def test_axis_aligned(self):
        got = sorted_corners(to_corners(OrientedBox(0, 0, 2, 1, 0)))
        assert_corner_sets_close(got, [(1, 0.5), (-1, 0.5), (-1, -0.5), (1, -0.5)])

    def test_quarter_turn(self):
        got = sorted_corners(to_corners(OrientedBox(0, 0, 2, 1, 90)))
        assert_corner_sets_close(got, [(0.5, 1), (-0.5, 1), (-0.5, -1), (0.5, -1)])

    def test_rotation_matrix_oracle(self):
        cx, cy, w, h, theta = 3.0, 4.0, 2.0, 1.0, 30.0
        rad = math.radians(theta)
        rot = np.array([[math.cos(rad), -math.sin(rad)], [math.sin(rad), math.cos(rad)]])
        local = np.array([[w / 2, h / 2], [-w / 2, h / 2], [-w / 2, -h / 2], [w / 2, -h / 2]])
        expected = (rot @ local.T).T + np.array([cx, cy])
        got = to_corners(OrientedBox(cx, cy, w, h, theta))
        assert_corner_sets_close(got.vertices, [tuple(p) for p in expected])

    @given(st.floats(0, 179.999), st.floats(0.5, 5), st.floats(0.1, 0.49))
    @settings(max_examples=100)
    def test_centroid_and_edge_lengths(self, theta, w, hfrac):
        h = w * hfrac
        box = OrientedBox(1.5, -2.5, w, h, theta)
        quad = to_corners(box)
        xs = [p[0] for p in quad.vertices]
        ys = [p[1] for p in quad.vertices]
        assert sum(xs) / 4 == pytest.approx(box.cx, abs=1e-9)
        assert sum(ys) / 4 == pytest.approx(box.cy, abs=1e-9)
        lengths = sorted(
            math.dist(quad.vertices[i], quad.vertices[(i + 1) % 4]) for i in range(4))
        assert lengths[0] == pytest.approx(h, abs=1e-9)
        assert lengths[1] == pytest.approx(h, abs=1e-9)
        assert lengths[2] == pytest.approx(w, abs=1e-9)
        assert lengths[3] == pytest.approx(w, abs=1e-9)
        assert _signed_area(quad.vertices) == pytest.approx(w * h, rel=1e-12)


class TestFromCorners:
    def test_exact_rectangle_roundtrip(self):
        box = from_corners(to_corners(OrientedBox(0, 0, 2, 1, 0)))
        assert (box.cx, box.cy, box.w, box.h, box.theta) == pytest.approx((0, 0, 2, 1, 0), abs=1e-9)

    def test_rotated_rectangle_roundtrip(self):
        box = from_corners(to_corners(OrientedBox(5, 5, 3, 1, 137)))
        assert (box.cx, box.cy, box.w, box.h) == pytest.approx((5, 5, 3, 1), abs=1e-6)
        assert box.theta == pytest.approx(137.0, abs=1e-6)

    def test_random_rectangle_roundtrips(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            original = random_longside_box(rng)
            fitted = from_corners(to_corners(original))
            assert fitted.cx == pytest.approx(original.cx, abs=1e-6)
            assert fitted.cy == pytest.approx(original.cy, abs=1e-6)
            assert fitted.w == pytest.approx(original.w, abs=1e-6)
            assert fitted.h == pytest.approx(original.h, abs=1e-6)
            assert min(abs(fitted.theta - original.theta),
                       180 - abs(fitted.theta - original.theta)) < 1e-6

    def test_min_area_against_orientation_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            angles = np.sort(rng.uniform(0, 2 * math.pi, size=4))
            if np.min(np.diff(angles)) < 0.2:
                continue
            pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            transform = rng.uniform(-1.5, 1.5, size=(2, 2))
            if abs(np.linalg.det(transform)) < 0.3:
                continue
            pts = pts @ transform.T + rng.uniform(-3, 3, size=2)
            quad = QuadPolygon([tuple(p) for p in pts])
            fitted = from_corners(quad)
            scan = brute_force_min_rect_area(pts, step_deg=0.01)
            assert fitted.area <= scan + 1e-9
            assert scan <= fitted.area * 1.001
            # fitted rectangle must still contain every input point
            corners = to_corners(fitted)
            for x, y in quad.vertices:
                rad = math.radians(fitted.theta)
                lu = (x - fitted.cx) * math.cos(rad) + (y - fitted.cy) * math.sin(rad)
                lv = -(x - fitted.cx) * math.sin(rad) + (y - fitted.cy) * math.cos(rad)
                assert abs(lu) <= fitted.w / 2 + 1e-9
                assert abs(lv) <= fitted.h / 2 + 1e-9

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateQuadError):
            QuadPolygon([(0, 0), (1, 1), (2, 2), (3, 3)])
        with pytest.raises(DegenerateQuadError):
            QuadPolygon([(0, 0), (0, 0), (1, 0), (1, 1)])

    def test_constructor_fixes_winding_and_zigzag(self):
        ccw = QuadPolygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        cw = QuadPolygon([(0, 0), (0, 1), (2, 1), (2, 0)])
        zigzag = QuadPolygon([(0, 0), (2, 1), (2, 0), (0, 1)])
        areas = [_signed_area(quad.vertices) for quad in (ccw, cw, zigzag)]
        assert areas[0] == areas[1] == areas[2] == pytest.approx(2.0)

    @pytest.mark.xfail(strict=True, raises=InvalidInputError,
                       reason="ROADMAP item 9: from_corners fits in absolute coordinates")
    def test_thin_quad_far_from_the_origin_fits(self):
        # A 4.75 x 2.6e-6 px quad 8.4e11 px from the origin, which passes the
        # quad rule in the order given. Its fit projects absolute coordinates,
        # so its height rounds to 0 and the box rule rejects it.
        points = ((30543.965543152342, -837084324236.8973),
                  (30543.96553981449, -837084324236.8973),
                  (30540.942743702653, -837084324240.5658),
                  (30540.942747040506, -837084324240.5658))
        try:
            quad = QuadPolygon(points)
        except InvalidInputError as exc:  # not the fit's failure this test records
            pytest.fail(f"the quad rule rejects it: {exc}")
        assert quad.vertices == points
        box = from_corners(quad)
        assert (box.w, box.h) == (pytest.approx(4.7534, rel=1e-4),
                                  pytest.approx(2.576e-6, rel=1e-2))


NAN, INF = math.nan, math.inf
CCW_MESSAGE = "quad must be counter-clockwise with positive area"
NOT_CONVEX = "points do not form a convex quad"
DART = ((0, 0), (4, 0), (1, 1), (0, 4))  # counter-clockwise, reflex at (1, 1)
SLIVER = ((0, 0), (1, 0), (1, 1e-13), (0, 1e-13))  # counter-clockwise, 1e-13 px^2
NOT_FINITE = "quad area is not finite"
OVER_HALF_MAX = "box area exceeds half the float maximum"
HUGE = ((0, 0), (1e200, 0), (1e200, 1e200), (0, 1e200))  # counter-clockwise, area inf
# Counter-clockwise; its shoelace subtracts inf from inf, so the area is nan.
DIAMOND = ((2e200, 1e200), (1e200, 2e200), (0, 1e200), (1e200, 0))
HUGE_DART = tuple((5e153 * x, 5e153 * y) for x, y in DART)  # area inf, a turn -inf


def rejection(call, *args):
    with pytest.raises(InvalidInputError) as info:
        call(*args)
    return type(info.value), str(info.value)


# Points QuadPolygon rejects, with the error's type and message.
QUAD_REJECTIONS = [
    pytest.param([(0, 0), (1, 0), (1, 1)], DegenerateQuadError,
                 "expected exactly 4 points", id="three"),
    pytest.param([(0, 0), (1, 0), (1, 1), (0, 1), (2, 2)], DegenerateQuadError,
                 "expected exactly 4 points", id="five"),
    pytest.param([(0, 0), (1, 0), (1, 1), (NAN, 1)], InvalidInputError,
                 "non-finite quad vertices", id="nan"),
    pytest.param([(0, 0), (1, 0), (1, 1), (INF, 1)], InvalidInputError,
                 "non-finite quad vertices", id="inf"),
    pytest.param([(0, 0), (1, 0), (1, -INF), (0, 1)], InvalidInputError,
                 "non-finite quad vertices", id="-inf"),
    pytest.param([(INF, 0), (INF, 0), (1, 0), (1, 1)], InvalidInputError,
                 "non-finite quad vertices", id="non-finite-before-duplicate"),
    pytest.param([(0, 0), (1, 0), (0, 0), (1, 1)], DegenerateQuadError,
                 "duplicate point (0.0, 0.0)", id="duplicate"),
    pytest.param([(0, 0), (1, 1), (1, 1), (3, 3)], DegenerateQuadError,
                 "duplicate point (1.0, 1.0)", id="duplicate-before-collinear"),
    pytest.param([(0, 0), (1, 1), (2, 2), (3, 3)], DegenerateQuadError, NOT_CONVEX,
                 id="collinear"),
    pytest.param(list(SLIVER), DegenerateQuadError, NOT_CONVEX, id="sliver"),
    pytest.param(list(SLIVER[::-1]), DegenerateQuadError, NOT_CONVEX, id="clockwise-sliver"),
    pytest.param(list(DART), DegenerateQuadError, NOT_CONVEX, id="non-convex"),
    pytest.param(list(DART[::-1]), DegenerateQuadError, NOT_CONVEX,
                 id="clockwise-non-convex"),
    pytest.param(list(HUGE), InvalidInputError, NOT_FINITE, id="inf-area"),
    pytest.param(list(HUGE[::-1]), InvalidInputError, NOT_FINITE, id="clockwise-inf-area"),
    pytest.param(list(DIAMOND), InvalidInputError, NOT_FINITE, id="nan-area"),
    pytest.param(list(HUGE_DART), DegenerateQuadError, NOT_CONVEX,
                 id="non-convex-before-inf-area"),
    pytest.param(((0, 0), (1, 0), (1, 1), (0, NAN)), InvalidInputError,
                 "non-finite quad vertices", id="nan-last"),
    pytest.param(((0, 0), (1, 0), (INF, 1), (0, 1)), InvalidInputError,
                 "non-finite quad vertices", id="inf-third"),
    pytest.param(((0, 0), (0, 1), (1, 1), (-INF, 0)), InvalidInputError,
                 "non-finite quad vertices", id="-inf-before-clockwise"),
    pytest.param(((0, 0), (0, 0), (0, 0), (1, 1)), DegenerateQuadError,
                 "duplicate point (0.0, 0.0)", id="thrice"),
    pytest.param(((0, 0), (0, 0), (1, 0), (1, 1)), DegenerateQuadError,
                 "duplicate point (0.0, 0.0)", id="triangle"),
]


class TestQuadValidation:
    """Which check rejects a quad, with which type and message, in which order."""

    @pytest.mark.parametrize("points, error, message", QUAD_REJECTIONS)
    def test_constructor_rejections(self, points, error, message):
        assert rejection(QuadPolygon, points) == (error, message)

    @pytest.mark.parametrize("points, error, message",
                             [case for case in QUAD_REJECTIONS if len(case.values[0]) == 4])
    def test_dota_lines_give_the_constructor_message(self, tmp_path, points, error, message):
        # Both DOTA line kinds run the constructor's quad rule on the same
        # four points, so a strict parse fails at the line with its message.
        xy = " ".join(repr(c) for point in points for c in point)
        (tmp_path / "gt").mkdir()
        annotation = tmp_path / "gt" / "P1.txt"
        annotation.write_text(f"{xy} ship 0\n")
        detections = tmp_path / "Task1_ship.txt"
        detections.write_text(f"P1 0.9 {xy}\n")
        for parse, path, file in ((parse_annotation_dir, annotation.parent, annotation),
                                  (parse_detections, tmp_path, detections)):
            with pytest.raises(ParseError) as info:
                parse(path, strict=True)
            assert str(info.value) == f"{file}:1: {message}"

    def test_from_points_results_are_pinned(self):
        # The vertices under float.hex, or the error's type and message, for
        # 20,000 seeded quads of every kind seeded_quads draws: a change to
        # which quads pass, how their vertices are ordered or which error a
        # quad raises moves the digest.
        def outcome(points):
            try:
                quad = QuadPolygon(points)
            except InvalidInputError as exc:
                return f"{type(exc).__name__}: {exc}"
            return " ".join(c.hex() for point in quad.vertices for c in point)

        text = "\n".join(map(outcome, seeded_quads(0, 20_000)))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "24308396053579d884a46b781e12d0f8152b08457ec1c0427723ded16eac7bb6"

    # Zig-zags of rectangles at the sliver bound, passed and failed only about
    # the centroid of the order by angle: the given order's centred points,
    # re-ordered, round differently and give the opposite verdict.
    @pytest.mark.parametrize("points, expected", [
        pytest.param([(-5468313.354316107, -86740508.82882895),
                      (-53116683.29765124, -19372381.89110403),
                      (-53116683.29758387, -19372381.891056385),
                      (-5468313.35438347, -86740508.8288766)], (3, 0, 2, 1), id="passes"),
        pytest.param([(13529142.187627578, 4349077.628078652),
                      (-8317075.141703426, -30920407.522080544),
                      (-8317075.141738695, -30920407.5220587),
                      (13529142.18766285, 4349077.628056805)], None, id="fails"),
    ])
    def test_order_by_angle_is_measured_about_its_own_centroid(self, points, expected):
        if expected is None:
            assert rejection(QuadPolygon, points) == (DegenerateQuadError, NOT_CONVEX)
            return
        vertices = QuadPolygon(points).vertices
        assert vertices == tuple(points[i] for i in expected)
        assert QuadPolygon(vertices).vertices == vertices

    @pytest.mark.parametrize("box, error, message", [
        pytest.param(OrientedBox(1e9, 1e9, 1e-7, 5e-8, 30.0), DegenerateQuadError,
                     "duplicate point (1000000000.0, 1000000000.0)", id="collapse"),
        pytest.param(OrientedBox(0.0, 0.0, 1e200, 1e100, 30.0), DegenerateQuadError,
                     "duplicate point (4.330127018922193e+199, 2.4999999999999995e+199)",
                     id="thin-collapse"),
        pytest.param(OrientedBox(0.0, 0.0, 1.0, 5e-13, 0.0), DegenerateQuadError,
                     NOT_CONVEX, id="sliver"),
    ])
    def test_to_corners_rejections(self, box, error, message):
        # Boxes the IoU kernel scores, whose absolute corners make no valid quad.
        assert rejection(to_corners, box) == (error, message)

    @pytest.mark.parametrize("box, error, message", [
        pytest.param((1.7e308, 0.0, 1.7e308, 1.0, 0.0), InvalidInputError,
                     "non-finite quad vertices", id="overflow"),
        pytest.param((0.0, 0.0, 1e200, 1e200, 0.0), InvalidInputError, NOT_FINITE,
                     id="inf-area"),
    ])
    def test_box_rule_rejects_what_to_corners_would(self, box, error, message):
        # The box rule gives a box the messages its corner quad would give,
        # so no box whose corners overflow can be built.
        assert rejection(OrientedBox, *box) == (error, message)

    @given(st.floats(-2e4, 2e4), st.floats(-2e4, 2e4), st.floats(1e-3, 1e3),
           st.floats(0.05, 1.0), st.floats(0, 180), st.integers(0, 3))
    @settings(max_examples=200)
    def test_stored_area_is_the_shoelace_of_the_vertices(self, cx, cy, w, hfrac, theta, roll):
        # A quad stores no area of its own: it keeps the points it is given,
        # reordered to a counter-clockwise quad if they are not one, so the
        # shoelace of the stored vertices is its area.
        quad = to_corners(OrientedBox(cx, cy, w, w * hfrac, theta))
        rolled = quad.vertices[roll:] + quad.vertices[:roll]
        assert QuadPolygon(rolled).vertices == rolled
        # A clockwise input is reversed and a zig-zag one re-sorted, each to a
        # cyclic turn of the counter-clockwise order.
        turns = {rolled[i:] + rolled[:i] for i in range(4)}
        zigzag = (rolled[0], rolled[2], rolled[1], rolled[3])
        for points in (rolled[::-1], zigzag):
            assert QuadPolygon(points).vertices in turns


def rectangle_corners(w, h):
    # Counter-clockwise corners of a w x h rectangle about the origin.
    return ((w / 2, h / 2), (-w / 2, h / 2), (-w / 2, -h / 2), (w / 2, -h / 2))


def quad_verdicts(points, root, k=0):
    """What each quad entry point makes of four points scaled by 2^k:
    QuadPolygon(points), and the points as the one-line annotation file of
    directory root parsed strictly. Each is the vertices or the fitted box,
    scaled back, or the error's type and its message up to any number it
    names."""
    def verdict(call):
        try:
            return call()
        except (AngleKitError, ParseError) as exc:
            return type(exc).__name__, re.split(r" \(|, got", str(exc).split(": ")[-1])[0]

    def back(*values):
        return tuple(math.ldexp(c, -k) for c in values)

    points = [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in points]
    (root / "P1.txt").write_text(" ".join(map(repr, (c for point in points for c in point)))
                                 + " ship 0\n")
    return (verdict(lambda: tuple(back(*p) for p in QuadPolygon(points).vertices)),
            verdict(lambda: [back(r.box.cx, r.box.cy, r.box.w, r.box.h) + (r.box.theta,)
                             for r in parse_annotation_dir(root, strict=True)]))


THIN_RHOMBUS = ((0.0, -1.6e153), (1.6e154, 0.0), (0.0, 1.6e153), (-1.6e154, 0.0))  # 5.12e307 px^2
RECT = rectangle_corners(3.0, 1.0)
CCW = (0, 1, 2, 3)


class TestOneQuadRule:
    """QuadPolygon, DOTA lines and to_corners share one quad rule: distinct
    vertices, counter-clockwise and convex, and a finite area of at least the
    smallest normal float and 1e-12 times the spread (w^2 + h^2)."""

    # Four points, the (w, h) of the box OrientedBox(0, 0, w, h, 0) whose
    # corners they are in some order (None for the rhombus), the order in
    # which the quad entry points keep them (None if they reject them) and
    # whether the box entry points (that box's to_corners, and the DOTA line's
    # fit) accept them. All agree but for one exception: a quad whose fitted
    # box fails the box rule's own cap, an area of at most half the float
    # maximum. A rectangle cannot be one, since its doubled area overflows the
    # shoelace at that cap.
    @pytest.mark.parametrize("points, box, kept, box_accepted", [
        pytest.param(rectangle_corners(1e-7, 1e-7), (1e-7, 1e-7), CCW, True, id="square-1e-7"),
        pytest.param(rectangle_corners(2.0 ** -21, 2.0 ** -21), (2.0 ** -21, 2.0 ** -21),
                     CCW, True, id="square-2^-21"),
        pytest.param(rectangle_corners(1e-13, 1e-13), (1e-13, 1e-13), CCW, True,
                     id="square-1e-13"),
        pytest.param(rectangle_corners(1.0, 0.5e-12), (1.0, 0.5e-12), None, False,
                     id="sliver-0.5x-1px"),
        pytest.param(rectangle_corners(1.0, 2e-12), (1.0, 2e-12), CCW, True,
                     id="sliver-2x-1px"),
        pytest.param(rectangle_corners(1e6, 0.5e-6), (1e6, 0.5e-6), None, False,
                     id="sliver-0.5x-1e6px"),
        pytest.param(rectangle_corners(1e6, 2e-6), (1e6, 2e-6), CCW, True,
                     id="sliver-2x-1e6px"),
        pytest.param(rectangle_corners(1e150, 5e149), (1e150, 5e149), CCW, True,
                     id="rect-1e150"),
        pytest.param(rectangle_corners(1e155, 5e154), (1e155, 5e154), None, False,
                     id="rect-1e155-inf-area"),
        pytest.param(rectangle_corners(1.2e154, 1.2e154), (1.2e154, 1.2e154), None, False,
                     id="square-over-box-cap"),
        pytest.param(rectangle_corners(1.0, 0.0), (1.0, 0.0), None, False,
                     id="repeated-vertex"),
        pytest.param(THIN_RHOMBUS, None, CCW, False, id="fit-over-box-cap"),
        pytest.param(RECT[1:] + RECT[:1], (3.0, 1.0), CCW, True, id="rolled"),
        pytest.param(RECT[::-1], (3.0, 1.0), (3, 2, 1, 0), True, id="clockwise"),
        pytest.param((RECT[0], RECT[2], RECT[1], RECT[3]), (3.0, 1.0), (1, 3, 0, 2), True,
                     id="zig-zag-middle"),
        pytest.param((RECT[0], RECT[1], RECT[3], RECT[2]), (3.0, 1.0), (3, 2, 0, 1), True,
                     id="zig-zag-last"),
    ])
    def test_entry_points_agree(self, tmp_path, monkeypatch, points, box, kept, box_accepted):
        fitted = []  # the vertices of each quad the DOTA parser fits
        monkeypatch.setattr(anglekit.io_formats, "from_corners",
                            lambda quad: fitted.append(quad.vertices) or from_corners(quad))
        constructor, line = quad_verdicts(points, tmp_path)
        if kept:
            assert constructor == tuple(points[i] for i in kept)
            assert fitted == [constructor]
        else:
            assert constructor[0] == "DegenerateQuadError" \
                or constructor == ("InvalidInputError", "quad area is not finite")
            assert fitted == []
        if box is not None:
            try:
                corners = to_corners(OrientedBox(0.0, 0.0, *box, 0.0)).vertices
            except InvalidInputError:
                corners = None
            assert corners == (rectangle_corners(*box) if box_accepted else None)
        if not box_accepted:
            assert line[0] == "ParseError"
            return
        # The fit of the corners is the box, within 1e-6 relative.
        (cx, cy, w, h, _), = line
        assert (w, h) == (pytest.approx(box[0], rel=1e-6), pytest.approx(box[1], rel=1e-6))
        assert abs(cx) <= 1e-6 * w and abs(cy) <= 1e-6 * w

    @given(st.integers(0, 2 ** 32 - 1), st.integers(-60, 60))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_power_of_two_scale_moves_no_verdict(self, tmp_path_factory, seed, k):
        # A seeded quad of 1e-3 to 1e6 px, scaled by 2^k: every float step of
        # the rule and the fit is exact under the scale, so each entry point
        # gives the same verdict, and the same vertices or box, scaled.
        points = seeded_quads(seed, 1)[0]
        assume(1e-3 <= max(max(c) - min(c) for c in zip(*points)) <= 1e6)
        root = tmp_path_factory.getbasetemp() / "verdicts"
        root.mkdir(exist_ok=True)
        assert quad_verdicts(points, root, k) == quad_verdicts(points, root)


def near_parallel_pair(rng):
    """Quads a, b where a's edge s->p runs along b's first edge c0->c1 (denom
    == 0) yet rounding puts s and p on opposite sides of it, so the first
    clip of convex_intersection_area(a, b) drops that crossing."""
    for _ in range(1000):
        ax, ay = rng.uniform(-1, 1), rng.uniform(-1, 1)
        bx, by = ax + rng.uniform(-1, 1), ay + rng.uniform(-1, 1)
        ex, ey = bx - ax, by - ay
        t, k = rng.uniform(-0.5, 0.5), rng.choice((0.5, 1.0))
        sx, sy = ax + t * ex, ay + t * ey
        px, py = sx + k * ex, sy + k * ey
        dx, dy = px - sx, py - sy
        s_in = ex * (sy - ay) - ey * (sx - ax) >= 0.0
        p_in = ex * (py - ay) - ey * (px - ax) >= 0.0
        if ex * dy - ey * dx != 0.0 or s_in == p_in:
            continue
        h, g = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
        try:
            a = QuadPolygon(((sx, sy), (px, py), (px - dy * g, py + dx * g),
                             (sx - dy * g, sy + dx * g)))
            b = QuadPolygon(((ax, ay), (bx, by), (bx - ey * h, by + ex * h),
                             (ax - ey * h, ay + ex * h)))
        except DegenerateQuadError:
            continue
        return a, b
    raise AssertionError("no near-parallel pair found")


class TestConvexIntersectionArea:
    UNIT = QuadPolygon(((0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)))

    def test_identical_squares(self):
        assert convex_intersection_area(self.UNIT, self.UNIT) == pytest.approx(1.0, abs=1e-12)

    def test_offset_squares(self):
        other = QuadPolygon(((1.0, 0.5), (0.0, 0.5), (0.0, -0.5), (1.0, -0.5)))
        assert convex_intersection_area(self.UNIT, other) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint(self):
        other = QuadPolygon(((3.5, 0.5), (2.5, 0.5), (2.5, -0.5), (3.5, -0.5)))
        assert convex_intersection_area(self.UNIT, other) == 0.0

    def test_containment_equals_smaller_area(self):
        big = QuadPolygon(((2, 2), (-2, 2), (-2, -2), (2, -2)))
        assert convex_intersection_area(self.UNIT, big) == pytest.approx(1.0, abs=1e-12)
        assert convex_intersection_area(big, self.UNIT) == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_oracle(self):
        # 200 random convex quad pairs against a 1e6-sample area estimate.
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(200):
            quads = []
            while len(quads) < 2:
                angles = np.sort(rng.uniform(0, 2 * math.pi, size=4))
                if np.min(np.diff(angles)) < 0.15:
                    continue
                pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
                transform = rng.uniform(-1.2, 1.2, size=(2, 2))
                if abs(np.linalg.det(transform)) < 0.3:
                    continue
                pts = pts @ transform.T + rng.uniform(-0.8, 0.8, size=2)
                quads.append(QuadPolygon([tuple(p) for p in pts]))
            a, b = quads
            frac_mc, bbox_area = mc_intersection_fraction(a, b, 1_000_000, rng)
            frac_exact = convex_intersection_area(a, b) / bbox_area
            worst = max(worst, abs(frac_exact - frac_mc))
        assert worst < 2e-3

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_near_parallel_edges_match_exact_arithmetic(self, seed):
        a, b = near_parallel_pair(random.Random(seed))
        smaller = min(_signed_area(a.vertices), _signed_area(b.vertices))
        # float64 rounding over a few dozen operations, with ~50x headroom.
        assert convex_intersection_area(a, b) == pytest.approx(
            exact_intersection_area(a.vertices, b.vertices), rel=0, abs=1e-12 * smaller)

    def test_small_square_far_from_the_origin(self):
        # A 0.1 px square at ~9e6 px: in absolute coordinates its area rounds to 0.
        quad = QuadPolygon([(5796369.05, 9017693.05), (5796368.95, 9017693.05),
                            (5796368.95, 9017692.95), (5796369.05, 9017692.95)])
        exact = exact_intersection_area(quad.vertices, quad.vertices)
        assert exact == pytest.approx(0.01, rel=1e-7)
        assert convex_intersection_area(quad, quad) == exact

    @given(st.integers(0, 10_000), st.floats(-2e4, 2e4), st.floats(-2e4, 2e4))
    @settings(max_examples=100)
    def test_shifted_pairs_match_exact_arithmetic(self, seed, dx, dy):
        rng = np.random.default_rng(seed)
        a, b = (QuadPolygon(tuple((x + dx, y + dy) for x, y in to_corners(box).vertices))
                for box in (random_longside_box(rng, span=1.0) for _ in range(2)))
        exact = exact_intersection_area(a.vertices, b.vertices)
        assert convex_intersection_area(a, b) == pytest.approx(
            exact, rel=1e-12, abs=1e-12 * min(_signed_area(a.vertices), _signed_area(b.vertices)))

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = to_corners(random_longside_box(rng, span=1.0))
            b = to_corners(random_longside_box(rng, span=1.0))
            ab = convex_intersection_area(a, b)
            ba = convex_intersection_area(b, a)
            assert ab == pytest.approx(ba, abs=1e-9)
            assert ab <= min(_signed_area(a.vertices), _signed_area(b.vertices)) + 1e-12
            assert ab >= 0.0


# Two 1-20 px boxes whose centres lie within 10 px of each other, so most overlap.
PAIR = st.tuples(*(st.builds(longside, st.floats(-5, 5), st.floats(-5, 5), st.floats(1, 20),
                             st.floats(1, 20), st.floats(0, 180)) for _ in range(2)))


class TestRotatedIoU:
    def test_identity(self):
        box = OrientedBox(0, 0, 2, 1, 45)
        assert rotated_iou(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap(self):
        assert rotated_iou(OrientedBox(0, 0, 2, 1, 0),
                           OrientedBox(1, 0, 2, 1, 0)) == pytest.approx(1 / 3, abs=1e-9)

    def test_cross(self):
        assert rotated_iou(OrientedBox(0, 0, 2, 1, 0),
                           OrientedBox(0, 0, 2, 1, 90)) == pytest.approx(1 / 3, abs=1e-9)

    @given(st.integers(0, 10_000), st.sampled_from([0.0, 2e4, 1e6]))
    @settings(max_examples=150)
    def test_symmetric_and_bounded(self, seed, offset):
        rng = np.random.default_rng(seed)
        a, b = (OrientedBox(box.cx + offset, box.cy - offset, box.w, box.h, box.theta)
                for box in (random_longside_box(rng, span=1.0) for _ in range(2)))
        ab, ba = rotated_iou(a, b), rotated_iou(b, a)
        assert 0.0 <= ab <= 1.0  # and so not NaN
        assert ab == pytest.approx(ba, abs=1e-12)
        assert rotated_iou(a, a) == rotated_iou(b, b) == 1.0

    def test_tiny_box_identity(self):
        # the sliver cutoff is relative to the boxes, so tiny boxes keep their overlap
        box = OrientedBox(0.3, 0.2, 2e-7, 1e-7, 30)
        assert rotated_iou(box, box) == 1.0

    def test_tiny_box_far_from_the_origin_identity(self):
        # its corners collapse in absolute coordinates, not in its own frame
        box = OrientedBox(1e10, 0, 1e-10, 1e-10, 0)
        assert rotated_iou(box, box) == 1.0

    @pytest.mark.parametrize("boxes, error, message", [
        pytest.param([(0, 0, 1e200, 1e200, 0)], InvalidInputError, NOT_FINITE,
                     id="area-overflows"),
        pytest.param([(1e308, 0, 1e308, 1, 0)], InvalidInputError, OVER_HALF_MAX,
                     id="union-overflows"),
        pytest.param([(0, 0, 2.0 ** 512, 2.0 ** 511, 0)], InvalidInputError, OVER_HALF_MAX,
                     id="area-over-half-max"),
        pytest.param([(0, 0, 1e-200, 1e-200, 0)], DegenerateQuadError, CCW_MESSAGE,
                     id="area-underflows"),
        pytest.param([(0, 0, 1e-170, 1e-170, 30), (0, 0, 1e-170, 1e-170, 10)],
                     DegenerateQuadError, CCW_MESSAGE, id="area-subnormal"),
        pytest.param([(0, 0, 1e-154, 1e-154, 0)], DegenerateQuadError, CCW_MESSAGE,
                     id="area-below-float-min"),
        pytest.param([(1.7e308, 0, 1.7e308, 1, 0)], InvalidInputError,
                     "non-finite quad vertices", id="extent-overflows"),
    ])
    def test_rejections(self, boxes, error, message):
        # The IoU kernel's box rule runs when a box is built, so a box it
        # cannot score never reaches the pair kernel.
        for box in boxes:
            assert rejection(OrientedBox, *box) == (error, message)

    def test_areas_up_to_half_the_float_maximum_have_a_finite_union(self):
        # Twice 2**1022 is still finite; an area of 2**1023 is rejected above.
        largest = OrientedBox(0, 0, 2.0 ** 511, 2.0 ** 511, 0)
        assert rotated_iou(largest, largest) == 1.0
        assert rotated_iou(largest, OrientedBox(0, 0, 1, 1, 0)) == 2.0 ** -1022

    @pytest.mark.parametrize("offset", [2e4, 1e6])
    @given(st.floats(-1, 1), st.floats(-1, 1), PAIR)
    @settings(max_examples=150)
    def test_translation_invariant_at_tile_scale(self, offset, ux, uy, pair):
        # The moved-back pair has the same float offset between the boxes.
        ox, oy = offset * ux, offset * uy
        far = [OrientedBox(box.cx + ox, box.cy + oy, box.w, box.h, box.theta) for box in pair]
        near = [OrientedBox(box.cx - ox, box.cy - oy, box.w, box.h, box.theta) for box in far]
        assert abs(rotated_iou(*far) - rotated_iou(*near)) <= 1e-12

    def test_invariances(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = random_longside_box(rng, span=1.0)
            b = random_longside_box(rng, span=1.0)
            base = rotated_iou(a, b)
            dx, dy = rng.uniform(-50, 50, size=2)
            shifted = rotated_iou(
                OrientedBox(a.cx + dx, a.cy + dy, a.w, a.h, a.theta),
                OrientedBox(b.cx + dx, b.cy + dy, b.w, b.h, b.theta))
            assert shifted == pytest.approx(base, abs=1e-9)
            spun = rotated_iou(
                OrientedBox(a.cx, a.cy, a.w, a.h, a.theta + 540.0),
                OrientedBox(b.cx, b.cy, b.w, b.h, b.theta + 540.0))
            assert spun == pytest.approx(base, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = random_longside_box(rng, span=1.0)
            b = random_longside_box(rng, span=1.0)
            k = rng.uniform(0.1, 20.0)
            scaled = rotated_iou(
                OrientedBox(a.cx * k, a.cy * k, a.w * k, a.h * k, a.theta),
                OrientedBox(b.cx * k, b.cy * k, b.w * k, b.h * k, b.theta))
            assert scaled == pytest.approx(rotated_iou(a, b), abs=1e-9)


class TestOverlaps:
    """The sparse pair step evaluation scores with: each row's overlapping columns."""

    @pytest.mark.parametrize("seed", range(4))
    def test_lists_exactly_the_overlapping_pairs(self, seed, monkeypatch):
        # Both boxes of 30 seeded pairs on each side: the paired boxes overlap
        # about half the time, boxes of different pairs mostly not at all.
        boxes = [box for pair in seeded_box_pairs(seed, 30) for box in pair]
        rows, cols = boxes, boxes[::-1]
        prepared = count_calls(monkeypatch, "_prepare")
        listed = _overlaps(rows, cols)
        assert prepared[0] == len(rows) + len(cols)
        assert len(listed) == len(rows)
        for row, entries in zip(rows, listed):
            found = dict(entries)
            assert [j for j, _ in entries] == sorted(found)  # column order, each once
            for j, col in enumerate(cols):
                iou = rotated_iou(row, col)
                if j in found:
                    assert found[j].hex() == iou.hex() and iou > 0.0
                else:
                    assert iou == 0.0

    def test_clipped_pairs_that_do_not_overlap_are_omitted(self, monkeypatch):
        rng = np.random.default_rng(37)
        rows = [random_longside_box(rng, span=5.0) for _ in range(25)]
        cols = [random_longside_box(rng, span=5.0) for _ in range(20)]
        # thin parallel boxes: their AABBs overlap but the boxes do not
        rows.append(OrientedBox(0, 0, 10, 1, 45))
        cols.append(OrientedBox(2, -2, 10, 1, 45))
        clipped = count_clipped_pairs(monkeypatch)
        listed = _overlaps(rows, cols)
        assert clipped[0] < len(rows) * len(cols)  # some pairs were AABB-rejected
        assert 0 < sum(map(len, listed)) < len(rows) * len(cols)
        clipped[0] = 0
        assert _overlaps(rows[-1:], cols[-1:]) == [[]]
        assert clipped[0] == 1  # the AABBs overlap, so the pair was clipped

    def test_empty_sides(self):
        box = OrientedBox(0, 0, 2, 1, 0)
        assert _overlaps([], [box]) == []
        assert _overlaps([box, box], []) == [[], []]
        assert _overlaps([], []) == []


BOX = OrientedBox(0, 0, 2, 1, 0)
# Values that are not built boxes: the last has the fields of one, with
# negative sides that the box rule would reject.
NOT_BOXES = {"tuple": (0, 0, 2, 1, 0), "None": None,
             "negative-sides": SimpleNamespace(cx=0, cy=0, w=-2, h=-1, theta=0)}
# Each scoring call with one argument (or one entry of it) given: the name its
# error gives, and the call.
SCORING_CALLS = {
    "rotated_iou-a": ("IoU box", lambda v: rotated_iou(v, BOX)),
    "rotated_iou-b": ("IoU box", lambda v: rotated_iou(BOX, v)),
    "to_corners": ("to_corners box", to_corners),
}


class TestScoringTakesBuiltBoxes:
    """Every scoring call takes only an OrientedBox, whose constructor applied the box rule."""

    @pytest.mark.parametrize("name, call, value", [
        pytest.param(name, call, value, id=f"{entry}-{value_id}")
        for entry, (name, call) in SCORING_CALLS.items()
        for value_id, value in NOT_BOXES.items()])
    def test_rejects_what_is_not_a_box(self, name, call, value):
        with pytest.raises(InvalidInputError, match=f"^{name} must be an OrientedBox, got"):
            call(value)

    def test_corners_and_iou_are_pinned(self):
        # The corners under float.hex (or the error's type and message) of
        # both boxes of 50,000 seeded pairs, and their IoU both ways: a change
        # to any bit of to_corners or rotated_iou moves the digest.
        def corners(box):
            try:
                quad = to_corners(box)
            except InvalidInputError as exc:
                return f"{type(exc).__name__}: {exc}"
            return " ".join(c.hex() for point in quad.vertices for c in point)

        text = "\n".join(f"{corners(a)} {corners(b)} {rotated_iou(a, b).hex()} "
                         f"{rotated_iou(b, a).hex()}" for a, b in seeded_box_pairs(0, 50_000))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "d684177a429d80adf1d00ec97db0ad7ed6a611b24e2529dfe127cf8320452f9f"


class TestRotatedNms:
    def test_identical_boxes_keep_best(self):
        box = OrientedBox(0, 0, 2, 1, 15)
        kept = rotated_nms([(box, 0.9, "ship"), (box, 0.8, "ship")], 0.5)
        assert kept == [0]

    def test_disjoint_all_kept(self):
        items = [(OrientedBox(10 * i, 0, 2, 1, 0), 0.5 + 0.01 * i, "ship") for i in range(5)]
        assert sorted(rotated_nms(items, 0.0)) == [0, 1, 2, 3, 4]

    def test_category_gating(self):
        box = OrientedBox(0, 0, 2, 1, 15)
        assert rotated_nms([(box, 0.9, "ship"), (box, 0.8, "plane")], 0.5) == [0, 1]
        assert rotated_nms([(box, 0.9, "im1"), (box, 0.8, "im1")], 0.5) == [0]

    def test_score_tie_breaks_to_lower_index(self):
        box = OrientedBox(0, 0, 2, 1, 15)
        assert rotated_nms([(box, 0.7, "a"), (box, 0.7, "a")], 0.5) == [0]

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            items = [(random_longside_box(rng, span=2.0), float(rng.uniform(0, 1)),
                      str(rng.integers(0, 3))) for _ in range(50)]
            for threshold in (0.1, 0.3, 0.5):
                assert rotated_nms(items, threshold) == reference_nms(items, threshold)

    def test_tuple_keys_match_reference_per_group(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            items = [(random_longside_box(rng, span=2.0), float(rng.uniform(0, 1)),
                      (str(rng.integers(0, 2)), str(rng.integers(0, 3)))) for _ in range(60)]
            for threshold in (0.1, 0.3, 0.5):
                expected = []
                for key in {item[2] for item in items}:
                    idxs = [i for i, item in enumerate(items) if item[2] == key]
                    kept = reference_nms([items[i] for i in idxs], threshold)
                    expected.extend(idxs[k] for k in kept)
                expected.sort(key=lambda i: (-items[i][1], i))
                assert rotated_nms(items, threshold) == expected

    def test_corners_built_once_per_item(self, monkeypatch):
        rng = np.random.default_rng(17)
        items = [(random_longside_box(rng, span=2.0), float(rng.uniform(0, 1)), "a")
                 for _ in range(30)]
        prepared = count_calls(monkeypatch, "_prepare")
        rotated_nms(items, 0.3)
        assert prepared[0] == len(items)

    def test_rejects_bad_inputs(self):
        box = OrientedBox(0, 0, 2, 1, 0)
        with pytest.raises(InvalidInputError):
            rotated_nms([(box, math.inf, "a")], 0.5)
        with pytest.raises(InvalidInputError):
            rotated_nms([(box, 0.5, "a")], 1.5)

    @pytest.mark.parametrize("box", ["x", None, (0, 0, 2, 1, 0)], ids=["str", "None", "tuple"])
    def test_item_box_is_an_oriented_box(self, box):
        items = [(OrientedBox(0, 0, 2, 1, 0), 0.9, "a"), (box, 0.5, "a")]
        with pytest.raises(InvalidInputError, match="^NMS item box must be an OrientedBox"):
            rotated_nms(items, 0.5)

    @pytest.mark.parametrize("item", [
        (OrientedBox(0, 0, 2, 1, 0), 0.5),
        (OrientedBox(0, 0, 2, 1, 0), 0.5, "a", "b"),
        (OrientedBox(0, 0, 2, 1, 0), 0.5, ["a"]),
        None,
        3,
    ], ids=["pair", "four", "unhashable-key", "None", "int"])
    def test_item_is_a_triple_with_a_hashable_key(self, item):
        items = [(OrientedBox(0, 0, 2, 1, 0), 0.9, "a"), item]
        with pytest.raises(InvalidInputError) as info:
            rotated_nms(items, 0.5)
        assert str(info.value) == \
            f"NMS item must be a (box, score, hashable key) triple, got {item!r}"

    @pytest.mark.parametrize("items", [None, 3, "abc"])
    def test_items_are_a_sequence(self, items):
        with pytest.raises(InvalidInputError, match="^NMS items must be a flat sequence"):
            rotated_nms(items, 0.5)

    def test_items_are_read_once(self):
        box = OrientedBox(0, 0, 2, 1, 0)
        items = [(box, 0.5, "a"), (box, 0.9, "a"), (box, 0.7, "b")]
        assert rotated_nms(iter(items), 0.5) == rotated_nms(items, 0.5) == [1, 2]
        assert rotated_nms((item for item in ()), 0.5) == []


class TestLongside:
    def test_swaps_short_first(self):
        box = longside(0, 0, 1, 2, 0)
        assert (box.w, box.h) == (2, 1)
        assert box.theta == pytest.approx(90.0)
