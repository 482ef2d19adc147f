#!/usr/bin/env python3
"""End-to-end synthetic detection experiment through the ``hrm`` commands.

Writes the train and test scenes with ``hrm synth`` and trains with
``hrm train``, in a temporary directory, then detects on the test scenes as
``hrm detect`` does.  Reports recall, precision and EER at ``hrm eval``'s last
PR point, duplicates with and without fusion, and wall-clock timings.  The
defaults are the criterion-6 gate's inputs (``scripts/c6``, seeds 600/1600).
:func:`experiment` returns those figures; criterion 6 of the acceptance
suite runs it on the defaults.

    PYTHONPATH=src python scripts/run_synthetic_experiment.py [--config FILE]
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

from hrm.cli import main as hrm
from hrm.config import load_config
from hrm.dataset import load_dataset
from hrm.detect import detect
from hrm.evaluate import box_from_hypothesis, evaluate, iou
from hrm.model_io import load_model

C6 = Path(__file__).resolve().parent / "c6"


def box_hits(detected_boxes, boxes, iou_threshold):
    """Per box, how many detected boxes match it best, at IoU >= the threshold."""
    hits = [0] * len(boxes)
    for d in detected_boxes:
        overlaps = [iou(d, b) for b in boxes]
        if overlaps and max(overlaps) >= iou_threshold:
            hits[overlaps.index(max(overlaps))] += 1
    return hits


def experiment(config, train_spec, test_spec, train_seed, test_seed):
    """Run the experiment; returns (exit code, figures).

    A nonzero exit code is the first failing ``hrm`` step's, with figures
    None.  Otherwise the code is 0 and the figures are a dict: ``steps``
    (each ``hrm`` step's name and seconds), ``scenes``, ``detect_s``,
    ``objects``, ``detections``, ``dup_fused``, ``prefusion_dup_objects``,
    ``recall``, ``precision`` and ``eer``.
    """
    steps = []
    with tempfile.TemporaryDirectory() as tmp:
        train, test, model = (str(Path(tmp) / f) for f in ("train", "test", "m.hrmb"))
        argvs = [["synth", "--spec", spec, "--seed", str(seed), "--out", out]
                 for spec, seed, out in ((train_spec, train_seed, train),
                                         (test_spec, test_seed, test))]
        argvs.append(["train", "--config", config,
                      "--annotations", f"{train}/annotations.txt", "--out", model])
        for argv in argvs:
            t = time.perf_counter()
            code = hrm(argv)
            if code:
                return code, None
            steps.append((argv[0], time.perf_counter() - t))

        cfg = load_config(config)
        bank = load_model(model)
        t = time.perf_counter()
        detections, truth, dup_fused, objs_with_prefusion_dup = [], {}, 0, 0
        for path, img, boxes in load_dataset(f"{test}/annotations.txt").load_entries():
            name = Path(path).name  # the image id of hrm detect and hrm eval
            res = detect(img, bank, cfg.scales, cfg.voting, cfg.fusion, image_id=name)
            detections += res.detections
            truth[name] = list(boxes)
            hits = box_hits([d.box for d in res.detections], boxes, cfg.iou_threshold)
            dup_fused += sum(max(h - 1, 0) for h in hits)
            pre = [box_from_hypothesis(h.center, h.scale, bank.reference_box)
                   for h in res.hypotheses_prefusion]
            hits = box_hits(pre, boxes, cfg.iou_threshold)
            objs_with_prefusion_dup += sum(1 for h in hits if h >= 2)
    detect_s = time.perf_counter() - t

    report = evaluate(detections, truth, cfg.iou_threshold)
    _, precision, recall = report.pr_points[-1] if report.pr_points else (0, 0.0, 0.0)
    return 0, dict(
        steps=steps, scenes=len(truth), detect_s=detect_s,
        objects=report.num_ground_truth, detections=report.num_detections,
        dup_fused=dup_fused, prefusion_dup_objects=objs_with_prefusion_dup,
        recall=recall, precision=precision, eer=report.eer,
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", default=str(C6 / "config.ini"))
    ap.add_argument("--train-spec", default=str(C6 / "train.ini"))
    ap.add_argument("--test-spec", default=str(C6 / "test.ini"))
    ap.add_argument("--train-seed", type=int, default=600)
    ap.add_argument("--test-seed", type=int, default=1600)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    code, fig = experiment(args.config, args.train_spec, args.test_spec,
                           args.train_seed, args.test_seed)
    if code:
        return code
    for step, dt in fig["steps"]:
        print(f"hrm {step} took {dt:.1f}s")
    dt, n = fig["detect_s"], fig["scenes"]
    print(f"detected {n} scenes in {dt:.1f}s ({dt / max(n, 1):.1f}s each)")
    n_obj, dups = fig["objects"], fig["prefusion_dup_objects"]
    print(f"objects {n_obj}  detections {fig['detections']}  "
          f"dup(after fusion) {fig['dup_fused']}")
    print(f"recall {fig['recall']:.3f}  precision {fig['precision']:.3f}  "
          f"EER {fig['eer']:.3f}")
    print(f"objects with pre-fusion cross-level duplicate: "
          f"{dups}/{n_obj} ({dups / max(n_obj, 1):.0%})")
    print(f"total wall clock {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
