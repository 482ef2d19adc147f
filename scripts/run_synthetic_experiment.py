#!/usr/bin/env python3
"""End-to-end synthetic detection experiment.

Generates scenes with the built-in template, trains a model bank on a
train split, runs multi-scale detection on the held-out split, and
reports precision/recall, duplicate statistics with and without fusion,
and wall-clock timings.
"""

import argparse
import sys
import time

import numpy as np

from hrm.detect import VotingConfig, detect
from hrm.evaluate import Detection, box_from_hypothesis, iou
from hrm.features import PatchGeometry
from hrm.fusion import FusionConfig
from hrm.pls import LatentConfig
from hrm.synth import TEMPLATE_SIZE, random_scene, synth_scene
from hrm.training import sample_patches, train_from_samples
from hrm.voting import ScaleSet

SCALES = (0.75, 1.0, 1.25, 1.5)


def make_scenes(n, seed, canvas, noise, min_obj=1, max_obj=3):
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(n):
        n_obj = int(rng.integers(min_obj, max_obj + 1))
        specs = random_scene(rng, n_obj, SCALES, (canvas, canvas), noise)
        img, boxes = synth_scene(specs, (canvas, canvas), noise,
                                 seed=int(rng.integers(0, 2**31)))
        scenes.append((img, list(boxes)))
    return scenes


def match_objects(detections, boxes, iou_thr=0.5):
    """Greedy match; returns (tp_per_box, duplicates, false_positives)."""
    matched = [False] * len(boxes)
    dup = 0
    fp = 0
    per_box_hits = [0] * len(boxes)
    for d in sorted(detections, key=lambda d: -d.score):
        best, best_iou = None, iou_thr
        for k, b in enumerate(boxes):
            v = iou(d.box, b)
            if v >= best_iou:
                best, best_iou = k, v
        if best is None:
            fp += 1
        else:
            per_box_hits[best] += 1
            if matched[best]:
                dup += 1
            matched[best] = True
    return matched, per_box_hits, dup, fp


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--train-scenes", type=int, default=30)
    ap.add_argument("--test-scenes", type=int, default=20)
    ap.add_argument("--canvas", type=int, default=224)
    ap.add_argument("--noise", type=float, default=0.01)
    ap.add_argument("--patch-size", type=int, default=6)
    ap.add_argument("--components", type=int, default=8)
    ap.add_argument("--n-pos", type=int, default=2000)
    ap.add_argument("--n-neg", type=int, default=2000)
    ap.add_argument("--stride", type=int, default=2)
    ap.add_argument("--bin-size", type=int, default=4)
    ap.add_argument("--smoothing", type=float, default=1.5)
    ap.add_argument("--min-score", type=float, default=0.05)
    ap.add_argument("--maxima-radius", type=int, default=3)
    ap.add_argument("--bandwidth", type=float, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale-normalize", action="store_true", default=True)
    ap.add_argument("--no-scale-normalize", dest="scale_normalize",
                    action="store_false")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    train = make_scenes(args.train_scenes, args.seed, args.canvas, args.noise)
    test = make_scenes(args.test_scenes, args.seed + 1000, args.canvas, args.noise)
    print(f"scenes generated in {time.perf_counter() - t0:.1f}s")

    geom = PatchGeometry(args.patch_size)
    ref = float(TEMPLATE_SIZE)
    t1 = time.perf_counter()
    samples = sample_patches(
        train, args.n_pos, args.n_neg, geom, seed=args.seed,
        reference_size=ref if args.scale_normalize else None,
    )
    print(f"sampled in {time.perf_counter() - t1:.1f}s "
          f"({len(samples.canvases)} canvases)")

    t2 = time.perf_counter()
    bank = train_from_samples(
        samples, geom, LatentConfig(components=args.components),
        reference_box=(ref, ref),
    )
    print(f"trained in {time.perf_counter() - t2:.1f}s")

    vcfg = VotingConfig(stride=args.stride, bin_size=args.bin_size,
                        smoothing=args.smoothing,
                        min_score_fraction=args.min_score,
                        maxima_radius=args.maxima_radius)
    # without --bandwidth, two accumulator cells, as hrm.config.load_config sets
    fcfg = FusionConfig(bandwidth=args.bandwidth or 2.0 * args.bin_size)
    scales = ScaleSet(SCALES)

    total_obj = 0
    tp = 0
    fp_total = 0
    dup_fused = 0
    objs_with_prefusion_dup = 0
    t3 = time.perf_counter()
    for idx, (img, boxes) in enumerate(test):
        res = detect(img, bank, scales, vcfg, fcfg, image_id=f"t{idx}")
        matched, _, dup, fp = match_objects(res.detections, boxes)
        tp += sum(matched)
        fp_total += fp
        dup_fused += dup
        total_obj += len(boxes)

        pre = [
            Detection(f"t{idx}", h.center, h.scale, h.score,
                      box_from_hypothesis(h.center, h.scale, bank.reference_box))
            for h in res.hypotheses_prefusion
        ]
        _, hits, _, _ = match_objects(pre, boxes)
        objs_with_prefusion_dup += sum(1 for h in hits if h >= 2)
    dt = time.perf_counter() - t3
    print(f"detected {len(test)} scenes in {dt:.1f}s ({dt / len(test):.1f}s each)")

    n_det = tp + fp_total + dup_fused
    recall = tp / total_obj if total_obj else 0.0
    precision = tp / n_det if n_det else 0.0
    print(f"objects {total_obj}  TP {tp}  FP {fp_total}  dup(after fusion) {dup_fused}")
    print(f"recall {recall:.3f}  precision {precision:.3f}")
    print(f"objects with pre-fusion cross-level duplicate: "
          f"{objs_with_prefusion_dup}/{total_obj} "
          f"({objs_with_prefusion_dup / max(total_obj, 1):.0%})")
    print(f"total wall clock {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
