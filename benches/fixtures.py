"""Seeded inputs for the benchmark workloads.

Every input is placed so that the answer the program must give follows from
how it was placed, not from running the program:

* a detection is its ground truth shifted by f*w along the long side, so its
  rotated IoU with that ground truth is (1 - f) / (1 + f), and two
  detections of one object shifted by f1*w and f2*w have IoU
  (1 - |f1 - f2|) / (1 + |f1 - f2|);
* the boxes of different objects in one image are kept apart by a
  separating line, so every IoU between them is exactly 0;
* every designed IoU stays 0.025 away from each evaluation threshold and
  from the NMS threshold, far beyond the 3-decimal rounding of the files.

Nothing here imports anglekit. Regenerate a workload's files with

    python3 benches/fixtures.py --workload eval-dense --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CATEGORIES = ("plane", "ship", "storage-tank", "baseball-diamond", "tennis-court",
              "basketball-court", "ground-track-field", "harbor", "bridge",
              "large-vehicle", "small-vehicle", "helicopter", "roundabout",
              "soccer-ball-field", "swimming-pool")

COCO_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
IOU_LEVELS = (0.975, 0.925, 0.875, 0.825, 0.775, 0.725, 0.675, 0.625, 0.575, 0.525,
              0.45, 0.35)
MARGIN = 0.025
SEPARATION_PX = 1.0

# Objects per category in 120, used for both eval workloads. The counts are
# this benchmark's choice, not measured figures. Only their order follows
# the DOTA paper (Xia et al., arXiv:1711.10398): small-vehicle,
# large-vehicle and ship far ahead, then plane, and the sports grounds,
# roundabout and helicopter among the rarest.
CATEGORY_MIX = {"small-vehicle": 36, "large-vehicle": 24, "ship": 20, "plane": 8,
                "storage-tank": 6, "harbor": 6, "tennis-court": 4, "bridge": 3,
                "swimming-pool": 3, "basketball-court": 2, "roundabout": 2,
                "soccer-ball-field": 2, "baseball-diamond": 2, "ground-track-field": 1,
                "helicopter": 1}

# eval-dense: a few crowded tiles of 120 objects each in the mix above, one
# object per occupied grid cell.
DENSE_TILES = 2
DENSE_GRID = 13
DENSE_PITCH = 48.0
DENSE_DETS_PER_OBJECT = (1,) * 48 + (2,) * 48 + (3,) * 24
DENSE_DIFFICULT = 10
DENSE_BACKGROUND = 10
DENSE_NMS = 0.5

# eval-sparse: many small annotation files with a few objects each.
SPARSE_IMAGES = 600
SPARSE_GRID = 6
SPARSE_PITCH = 160.0
SPARSE_OBJECTS_PER_IMAGE = (1, 2, 3, 4, 5, 6)
SPARSE_DIFFICULT_SHARE = 0.08
SPARSE_BACKGROUND = 300
SPARSE_THRESHOLD = 0.5
SPARSE_MODE = "voc07"

# codec-sweep: every codec over the CLI's c_theta values at this grid step.
CODEC_C_THETAS = {"regression": (1,), "csl": (180,), "dcl-binary": (32, 64, 128, 256),
                  "dcl-gray": (32, 64, 128, 256), "mgar": (3, 4, 5)}
CODEC_METHODS = tuple(CODEC_C_THETAS)
CODEC_GRID_STEP = 0.1

# train-loss: MGAR with c_theta = 3 (60-degree bins).
LOSS_BATCHES = 24
LOSS_BATCH_SIZE = 128
# Foreground samples per batch by case: exact angle, wrong bin with the
# same decoded angle, and decoded angle perpendicular to the ground truth.
LOSS_CASES = {"exact": 12, "wrong-bin": 18, "perpendicular": 18}
LOSS_C_THETA = 3
LOSS_OMEGA = 180.0 / LOSS_C_THETA
LOSS_WEIGHTS = (2.0, 2.0, 5.0, 2.0, 0.5)


def _rng(seed: int, stream: int):
    # One independent stream per use of the seed; any integer seed is accepted.
    return np.random.default_rng([seed % 2**64, stream])


def shift_for(level: float) -> float:
    """Shift, in units of the long side, that gives this IoU with the original."""
    return (1.0 - level) / (1.0 + level)


def iou_of_shift(d: float) -> float:
    """IoU of a box and its copy moved by d long sides along its long axis."""
    d = abs(d)
    return (1.0 - d) / (1.0 + d) if d < 1.0 else 0.0


def corners(cx, cy, w, h, theta) -> np.ndarray:
    """The four corners of an oriented box, counter-clockwise, shape (4, 2)."""
    rad = math.radians(theta)
    ux, uy = math.cos(rad), math.sin(rad)
    a, b = 0.5 * w, 0.5 * h
    return np.array([[cx + a * ux - b * uy, cy + a * uy + b * ux],
                     [cx - a * ux - b * uy, cy - a * uy + b * ux],
                     [cx - a * ux + b * uy, cy - a * uy - b * ux],
                     [cx + a * ux + b * uy, cy + a * uy - b * ux]])


def separated(p: np.ndarray, q: np.ndarray, margin: float) -> bool:
    """True when an edge normal of p or q separates the two convex polygons by
    more than margin (separating axis theorem)."""
    for poly in (p, q):
        edges = np.roll(poly, -1, axis=0) - poly
        normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        pa, qa = p @ normals.T, q @ normals.T
        if np.any(pa.max(0) + margin < qa.min(0)) or np.any(qa.max(0) + margin < pa.min(0)):
            return True
    return False


@dataclass
class GroundTruth:
    """One object and the signed shifts (in long sides) of its detections."""

    image: str
    category: str
    cx: float
    cy: float
    w: float
    h: float
    theta: float
    difficult: bool
    shifts: list[float]
    scores: list[float] = field(default_factory=list)

    def box(self, shift: float = 0.0) -> tuple[float, float, float, float, float]:
        rad = math.radians(self.theta)
        return (self.cx + shift * self.w * math.cos(rad),
                self.cy + shift * self.w * math.sin(rad), self.w, self.h, self.theta)


@dataclass
class Background:
    """A detection with no object under it: a false positive at every threshold."""

    image: str
    category: str
    box: tuple[float, float, float, float, float]
    score: float = 0.0


@dataclass
class Scene:
    objects: list[GroundTruth]
    background: list[Background]
    images: list[str]


def _draw_shifts(rng, count: int, nms: float | None) -> list[float]:
    while True:
        levels = rng.choice(IOU_LEVELS, size=count)
        signs = rng.choice((-1.0, 1.0), size=count)
        shifts = [float(s * shift_for(lv)) for s, lv in zip(signs, levels)]
        if nms is None or all(abs(iou_of_shift(a - b) - nms) >= MARGIN
                              for i, a in enumerate(shifts) for b in shifts[i + 1:]):
            return shifts


def _random_box(rng, col, row, pitch):
    w = rng.uniform(16.0, 40.0)
    h = w / rng.uniform(1.3, 3.0)
    cx = (col + 0.5) * pitch + rng.uniform(-0.06, 0.06) * pitch
    cy = (row + 0.5) * pitch + rng.uniform(-0.06, 0.06) * pitch
    return cx, cy, w, h, rng.uniform(0.0, 180.0)


def _fill_tile(rng, image, grid, pitch, specs, background_categories, nms):
    """Place one object per spec (category, difficult, detection count) and one
    background detection per category given, each in its own grid cell and
    clear of every polygon placed in the neighbouring cells."""
    cells = rng.permutation(grid * grid)[:len(specs) + len(background_categories)]
    placed: dict[tuple[int, int], list[np.ndarray]] = {}

    def place(cell, make):
        row, col = divmod(int(cell), grid)
        near = [p for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                for p in placed.get((row + dr, col + dc), ())]
        for _ in range(1000):
            item, polys = make(col, row)
            if all(separated(p, q, SEPARATION_PX) for p in polys for q in near):
                placed[(row, col)] = polys
                return item
        raise RuntimeError(f"could not place an object in cell {row},{col} of {image}")

    objects = []
    for cell, (category, difficult, n_dets) in zip(cells, specs):
        def make_object(col, row):
            cx, cy, w, h, theta = _random_box(rng, col, row, pitch)
            gt = GroundTruth(image, category, cx, cy, w, h, theta, difficult,
                             _draw_shifts(rng, n_dets, nms))
            return gt, [corners(*gt.box(s)) for s in [0.0] + gt.shifts]
        objects.append(place(cell, make_object))
    background = []
    for cell, category in zip(cells[len(specs):], background_categories):
        def make_background(col, row):
            box = _random_box(rng, col, row, pitch)
            return Background(image, category, box), [corners(*box)]
        background.append(place(cell, make_background))
    return objects, background


def _assign_scores(rng, scene: Scene) -> None:
    # Distinct scores with six decimals, so they print exactly and never tie.
    count = sum(len(o.shifts) for o in scene.objects) + len(scene.background)
    scores = iter((rng.choice(999_999, size=count, replace=False) + 1) / 1e6)
    for obj in scene.objects:
        obj.scores = [float(next(scores)) for _ in obj.shifts]
    for bg in scene.background:
        bg.score = float(next(scores))


def _keep_one_counted(objects) -> None:
    # A category whose objects are all difficult has no AP; keep one counted.
    for category in {o.category for o in objects}:
        members = [o for o in objects if o.category == category]
        if all(o.difficult for o in members):
            members[0].difficult = False


def make_dense(seed: int) -> Scene:
    rng = _rng(seed, 1)
    objects, background, images = [], [], []
    for t in range(DENSE_TILES):
        image = f"P{t:04d}"
        categories = [c for c, n in CATEGORY_MIX.items() for _ in range(n)]
        difficult = set(rng.choice(len(categories), size=DENSE_DIFFICULT, replace=False).tolist())
        dets = rng.permutation(DENSE_DETS_PER_OBJECT)
        specs = [(c, i in difficult, int(n)) for i, (c, n) in enumerate(zip(categories, dets))]
        bg_categories = [CATEGORIES[int(i)] for i in rng.integers(0, len(CATEGORIES),
                                                                   size=DENSE_BACKGROUND)]
        objs, bgs = _fill_tile(rng, image, DENSE_GRID, DENSE_PITCH, specs, bg_categories,
                               DENSE_NMS)
        objects += objs
        background += bgs
        images.append(image)
    _keep_one_counted(objects)
    scene = Scene(objects, background, images)
    _assign_scores(rng, scene)
    return scene


def make_sparse(seed: int) -> Scene:
    rng = _rng(seed, 2)
    per_image = np.resize(SPARSE_OBJECTS_PER_IMAGE, SPARSE_IMAGES)
    rng.shuffle(per_image)
    total = int(per_image.sum())
    categories = np.resize([c for c, n in CATEGORY_MIX.items() for _ in range(n)],
                           total).tolist()
    rng.shuffle(categories)
    difficult = rng.permutation(total) < round(SPARSE_DIFFICULT_SHARE * total)
    n_dets = rng.permutation(np.resize((1, 2), total))
    bg_images = np.bincount(rng.integers(0, SPARSE_IMAGES, size=SPARSE_BACKGROUND),
                            minlength=SPARSE_IMAGES)
    objects, background, images = [], [], []
    start = 0
    for i, count in enumerate(per_image):
        image = f"P{i:04d}"
        specs = [(categories[j], bool(difficult[j]), int(n_dets[j]))
                 for j in range(start, start + int(count))]
        start += int(count)
        bg_categories = [CATEGORIES[int(k)] for k in rng.integers(0, len(CATEGORIES),
                                                                   size=bg_images[i])]
        objs, bgs = _fill_tile(rng, image, SPARSE_GRID, SPARSE_PITCH, specs, bg_categories,
                               None)
        objects += objs
        background += bgs
        images.append(image)
    _keep_one_counted(objects)
    scene = Scene(objects, background, images)
    _assign_scores(rng, scene)
    return scene


def detection_records(scene: Scene, seed: int) -> list[dict]:
    """Every detection of a scene as a JSON detection record, in seeded order."""
    records = []
    for obj in scene.objects:
        for shift, score in zip(obj.shifts, obj.scores):
            records.append(_record(obj.image, obj.category, score, obj.box(shift)))
    for bg in scene.background:
        records.append(_record(bg.image, bg.category, bg.score, bg.box))
    order = _rng(seed, 7).permutation(len(records))
    return [records[i] for i in order]


def _record(image, category, score, box):
    cx, cy, w, h, theta = box
    return {"image_id": image, "category": category, "score": score,
            "cx": cx, "cy": cy, "w": w, "h": h, "theta": theta}


def _quad_text(rng, box) -> str:
    # Any starting corner and either winding, as annotation tools write them.
    pts = corners(*box)
    pts = np.roll(pts, int(rng.integers(0, 4)), axis=0)
    if rng.random() < 0.5:
        pts = pts[::-1]
    return " ".join(f"{v:.3f}" for v in pts.ravel())


def write_annotations(scene: Scene, root: Path, seed: int) -> None:
    rng = _rng(seed, 3)
    root.mkdir(parents=True, exist_ok=True)
    by_image: dict[str, list[GroundTruth]] = {image: [] for image in scene.images}
    for obj in scene.objects:
        by_image[obj.image].append(obj)
    for image, objs in by_image.items():
        lines = ["imagesource:GoogleEarth", f"gsd:{rng.uniform(0.1, 1.0):.6f}"]
        lines += [f"{_quad_text(rng, o.box())} {o.category} {int(o.difficult)}" for o in objs]
        (root / f"{image}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_task1(scene: Scene, root: Path, seed: int) -> None:
    rng = _rng(seed, 4)
    root.mkdir(parents=True, exist_ok=True)
    by_category: dict[str, list[str]] = {}
    for r in detection_records(scene, seed):
        box = (r["cx"], r["cy"], r["w"], r["h"], r["theta"])
        by_category.setdefault(r["category"], []).append(
            f"{r['image_id']} {r['score']:.6f} {_quad_text(rng, box)}")
    for category, lines in by_category.items():
        (root / f"Task1_{category}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def codec_methods(seed: int) -> list[str]:
    """The codecs in a seeded order; codec-report prints its rows in this order."""
    order = _rng(seed, 5).permutation(len(CODEC_METHODS))
    return [CODEC_METHODS[i] for i in order]


def _mgar_residual(theta: float, k: int) -> float:
    # Square-fit residual that decodes to theta from bin k (mod 180).
    return math.sqrt((theta - k * LOSS_OMEGA) % 180.0)


def _loss_sample(rng, case: str | None) -> dict:
    n_cat = len(CATEGORIES)
    anchor = [rng.uniform(0, 800), rng.uniform(0, 800), rng.uniform(16, 64), rng.uniform(16, 64)]
    sample = {"objectness": 0, "anchor": anchor,
              "deltas": rng.normal(0.0, 0.3, size=4).tolist(),
              "confidence": float(rng.normal(0.0, 2.0)),
              "category_logits": rng.normal(0.0, 1.5, size=n_cat).tolist(),
              "angle_logits": rng.normal(0.0, 1.5, size=LOSS_C_THETA).tolist(),
              "angle_residual": float(rng.uniform(0.0, math.sqrt(LOSS_OMEGA))),
              "gt_box": None, "gt_category": None, "iou": None, "case": case}
    if case is None:
        return sample
    w = rng.uniform(16.0, 60.0)
    h = w / rng.uniform(1.3, 3.0)
    theta = rng.uniform(0.0, 180.0)
    cx, cy = anchor[0] + rng.normal(0, 4), anchor[1] + rng.normal(0, 4)
    k = min(int(theta // LOSS_OMEGA), LOSS_C_THETA - 1)
    if case == "perpendicular":
        # Same centre and sides, turned 90 degrees: the overlap is an h x h square.
        pred_theta, pred_center, iou = (theta + 90.0) % 180.0, (cx, cy), h / (2.0 * w - h)
        k_pred = int(rng.integers(0, LOSS_C_THETA))
    else:
        level = float(rng.uniform(0.3, 1.0))
        f = shift_for(level) * rng.choice((-1.0, 1.0))
        rad = math.radians(theta)
        pred_theta, iou = theta, level
        pred_center = (cx + f * w * math.cos(rad), cy + f * w * math.sin(rad))
        k_pred = k if case == "exact" else int((k + rng.integers(1, LOSS_C_THETA)) % LOSS_C_THETA)
    logits = np.array(sample["angle_logits"])
    logits[k_pred] = logits.max() + rng.uniform(0.5, 2.0)
    ax, ay, aw, ah = anchor
    sample.update({
        "objectness": 1,
        "deltas": [(pred_center[0] - ax) / aw, (pred_center[1] - ay) / ah,
                   math.log(w / aw), math.log(h / ah)],
        "angle_logits": logits.tolist(),
        "angle_residual": _mgar_residual(pred_theta, k_pred),
        "gt_box": [cx, cy, w, h, theta],
        "gt_category": int(rng.integers(0, n_cat)),
        "iou": iou,
    })
    return sample


def make_train_loss(seed: int) -> dict:
    """Batches of assigned samples; each foreground sample's rotated IoU between
    decoded prediction and ground truth is fixed by construction in `iou`."""
    rng = _rng(seed, 6)
    cases = [c for c, n in LOSS_CASES.items() for _ in range(n)]
    cases += [None] * (LOSS_BATCH_SIZE - len(cases))
    batches, permutations = [], []
    for _ in range(LOSS_BATCHES):
        batches.append([_loss_sample(rng, cases[i]) for i in rng.permutation(len(cases))])
        permutations.append(rng.permutation(LOSS_BATCH_SIZE).tolist())
    return {"c_theta": LOSS_C_THETA, "weights": list(LOSS_WEIGHTS),
            "batches": batches, "permutations": permutations}


def write_fixture(workload: str, seed: int, out: Path) -> dict:
    """Write a workload's input files under out; return what the program is given."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "eval-dense":
        scene = make_dense(seed)
        write_annotations(scene, out / "gt", seed)
        with open(out / "dets.json", "w", encoding="utf-8") as fh:
            json.dump(detection_records(scene, seed), fh)
        return {"scene": scene, "argv": ["eval", "--gt", str(out / "gt"),
                                         "--det", str(out / "dets.json"),
                                         "--nms", str(DENSE_NMS)]}
    if workload == "eval-sparse":
        scene = make_sparse(seed)
        write_annotations(scene, out / "gt", seed)
        write_task1(scene, out / "task1", seed)
        return {"scene": scene, "report": out / "report.json",
                "argv": ["eval", "--gt", str(out / "gt"), "--det", str(out / "task1"),
                         "--mode", SPARSE_MODE, "--thresholds", str(SPARSE_THRESHOLD),
                         "--out", str(out / "report.json")]}
    if workload == "codec-sweep":
        methods = codec_methods(seed)
        return {"methods": methods,
                "argv": ["codec-report", "--methods", ",".join(methods),
                         "--grid-step", str(CODEC_GRID_STEP)]}
    if workload == "train-loss":
        fixture = make_train_loss(seed)
        with open(out / "samples.json", "w", encoding="utf-8") as fh:
            json.dump(fixture, fh)
        return {"fixture": fixture, "path": out / "samples.json"}
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["eval-dense", "eval-sparse", "codec-sweep", "train-loss"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    given = write_fixture(args.workload, args.seed, args.out)
    if "argv" in given:
        print("anglekit " + " ".join(given["argv"]))


if __name__ == "__main__":
    main()
