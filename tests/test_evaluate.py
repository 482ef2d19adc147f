import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrm import evaluate as ev


def det(image_id, box, score):
    cx = (box[0] + box[2]) / 2.0
    cy = (box[1] + box[3]) / 2.0
    return ev.Detection(image_id, (cx, cy), 1.0, score, tuple(map(float, box)))


class TestIou:
    def test_identical(self):
        assert ev.iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert ev.iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # 10x10 boxes shifted by 5 in x: inter 50, union 150
        assert ev.iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_contained(self):
        assert ev.iou((0, 0, 10, 10), (2, 2, 8, 8)) == pytest.approx(36 / 100)


class TestBoxFromHypothesis:
    def test_arithmetic(self):
        box = ev.box_from_hypothesis((50.0, 40.0), 1.5, (20.0, 30.0))
        assert box == (50.0 - 15.0, 40.0 - 22.5, 50.0 + 15.0, 40.0 + 22.5)


class TestMatching:
    def test_greedy_prefers_higher_score(self):
        gt = {"a": [(0, 0, 10, 10)]}
        d1 = det("a", (0, 0, 10, 10), 2.0)
        d2 = det("a", (1, 0, 11, 10), 1.0)
        ordered, tp = ev.match_detections([d2, d1], gt)
        assert ordered[0] is d1
        assert tp.tolist() == [True, False]

    def test_iou_threshold_respected(self):
        # a box matches at IoU >= IOU_THRESHOLD = 0.5, the boundary included
        assert ev.IOU_THRESHOLD == 0.5
        gt = {"a": [(0, 0, 10, 10)]}
        d = det("a", (0, 0, 10, 20), 1.0)  # IoU = 100/200 = 0.5 exactly
        _, tp = ev.match_detections([d], gt)
        assert tp.tolist() == [True]
        d = det("a", (0, 0, 10, 21), 1.0)  # IoU = 100/210 < 0.5
        _, tp = ev.match_detections([d], gt)
        assert tp.tolist() == [False]

    def test_wrong_image_never_matches(self):
        gt = {"a": [(0, 0, 10, 10)]}
        _, tp = ev.match_detections([det("b", (0, 0, 10, 10), 1.0)], gt)
        assert tp.tolist() == [False]


class TestEvaluate:
    def test_perfect_detections(self):
        gt = {"a": [(0, 0, 10, 10), (20, 20, 30, 30)]}
        dets = [det("a", b, s) for b, s in zip(gt["a"], (2.0, 1.0))]
        report = ev.evaluate(dets, gt)
        for _, p, r in report.pr_points:
            assert p == 1.0
        assert report.pr_points[-1][2] == 1.0
        assert report.eer == 1.0

    def test_zero_detections(self):
        report = ev.evaluate([], {"a": [(0, 0, 10, 10)]})
        assert report.pr_points == ()
        assert report.eer == 0.0
        assert report.num_detections == 0

    def test_two_tp_one_fp(self):
        gt = {"a": [(0, 0, 10, 10), (20, 20, 30, 30)]}
        dets = [
            det("a", (0, 0, 10, 10), 3.0),
            det("a", (20, 20, 30, 30), 2.0),
            det("a", (50, 50, 60, 60), 1.0),
        ]
        report = ev.evaluate(dets, gt)
        thresholds = {t: (p, r) for t, p, r in report.pr_points}
        assert thresholds[1.0] == (pytest.approx(2 / 3), pytest.approx(1.0))
        assert thresholds[2.0] == (pytest.approx(1.0), pytest.approx(1.0))

    def test_eer_interpolated_crossing(self):
        # ranks: P = 1, 1/2, 2/3 ; R = 1/3, 1/3, 2/3 -> crossing between
        # rank 2 (diff 1/6) and rank 3 (diff 0): EER = 2/3
        gt = {"a": [(0, 0, 10, 10), (20, 20, 30, 30), (40, 40, 50, 50)]}
        dets = [
            det("a", (0, 0, 10, 10), 3.0),
            det("a", (70, 70, 80, 80), 2.0),
            det("a", (20, 20, 30, 30), 1.0),
        ]
        report = ev.evaluate(dets, gt)
        assert report.eer == pytest.approx(2 / 3)

    def test_all_false_positives(self):
        gt = {"a": [(0, 0, 10, 10)]}
        dets = [det("a", (50, 50, 60, 60), 1.0)]
        report = ev.evaluate(dets, gt)
        assert report.eer == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_recall_nonincreasing_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        gt = {"a": [(i * 20, 0, i * 20 + 10, 10) for i in range(3)]}
        dets = []
        for k in range(int(rng.integers(1, 8))):
            x = float(rng.integers(0, 70))
            dets.append(det("a", (x, 0, x + 10, 10), float(rng.uniform(0, 5))))
        report = ev.evaluate(dets, gt)
        recalls = [r for _, _, r in report.pr_points]  # descending threshold
        # pr_points are listed in descending-score order: recall must rise
        # (or hold) as the threshold drops
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))
        assert report.num_ground_truth == 3
        assert report.num_detections == len(dets)
