"""Precision-recall evaluation with greedy IoU matching.

Detections are matched to ground-truth boxes in descending score order; a
detection is a true positive when it overlaps an unmatched box with IoU
at or above the configured threshold.  The equal error rate is the value
at the precision = recall crossing, linearly interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Detection:
    """A scored detection on one image, with its derived box."""

    image_id: str
    center: tuple[float, float]
    scale: float
    score: float
    box: tuple[float, float, float, float]


@dataclass(frozen=True)
class EvalReport:
    pr_points: tuple[tuple[float, float, float], ...]  # (threshold, P, R)
    eer: float
    num_detections: int
    num_ground_truth: int


def box_from_hypothesis(center, scale, reference_box):
    """Reference box scaled by the hypothesis scale, centered at z."""
    w = reference_box[0] * scale
    h = reference_box[1] * scale
    return (center[0] - w / 2.0, center[1] - h / 2.0,
            center[0] + w / 2.0, center[1] + h / 2.0)


def iou(a, b) -> float:
    iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = iw * ih
    if inter <= 0:
        return 0.0
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


def match_detections(detections, ground_truth, iou_threshold: float = 0.5):
    """Greedy matching by descending score.

    ground_truth: {image_id: [box, ...]}.  Returns a boolean TP flag per
    detection (in descending-score order) and the ordered detections.
    """
    ordered = sorted(
        detections, key=lambda d: (-d.score, d.image_id, d.center[0], d.center[1])
    )
    unmatched = {img: list(boxes) for img, boxes in ground_truth.items()}
    tp_flags = []
    for det in ordered:
        boxes = unmatched.get(det.image_id, [])
        best, best_iou = None, iou_threshold
        for k, box in enumerate(boxes):
            v = iou(det.box, box)
            if v >= best_iou:
                best, best_iou = k, v
        if best is not None:
            boxes.pop(best)
            tp_flags.append(True)
        else:
            tp_flags.append(False)
    return ordered, np.array(tp_flags, dtype=bool)


def evaluate(detections, ground_truth, iou_threshold: float = 0.5) -> EvalReport:
    """Sweep thresholds over detection scores to build the PR curve."""
    n_gt = sum(len(b) for b in ground_truth.values())
    ordered, tp = match_detections(detections, ground_truth, iou_threshold)

    if not ordered or n_gt == 0:
        return EvalReport((), 0.0, len(ordered), n_gt)

    scores = np.array([d.score for d in ordered])
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, len(ordered) + 1)
    precision = cum_tp / ranks
    recall = cum_tp / n_gt

    # one PR point per distinct score (threshold = that score, inclusive)
    keep = np.append(scores[1:] < scores[:-1], True)
    points = tuple(
        (float(scores[i]), float(precision[i]), float(recall[i]))
        for i in np.nonzero(keep)[0]
    )
    return EvalReport(points, _eer(precision, recall), len(ordered), n_gt)


def _eer(precision: np.ndarray, recall: np.ndarray) -> float:
    """Value where precision equals recall, by linear interpolation.

    Recall is nondecreasing down the ranking while precision is not; the
    crossing is searched on the per-rank curves.
    """
    diff = precision - recall
    if diff[-1] > 0:
        # precision stays above recall everywhere: recall at the endpoint
        # is the closest approach to the crossing
        return float(recall[-1])
    idx = np.nonzero(diff <= 0)[0][0]
    if idx == 0 or diff[idx] == 0:
        return float(recall[idx] if diff[idx] == 0 else precision[idx])
    # interpolate between rank idx-1 and idx
    d0, d1 = diff[idx - 1], diff[idx]
    t = d0 / (d0 - d1)
    return float((1 - t) * precision[idx - 1] + t * precision[idx])
