"""Command-line interface: train, detect, eval, synth.

Exit codes: 0 success, 2 input error, 3 model error.  HRM_THREADS caps
both worker pools: detection's per-image pool and training's per-canvas
feature-channel pool; outputs do not depend on it.  All output files are
written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import errors
from .config import load_config, load_synth_spec
from .dataset import load_dataset, median_box_size
from .detect import detect
from .evaluate import Detection, box_from_hypothesis, evaluate
from .image_io import atomic_write, load_image, write_pgm
from .model_io import load_model, save_model
from .synth import random_scene, synth_scene
from .training import sample_patches, train_from_samples

_INPUT_ERRORS = (
    errors.InvalidInput,
    errors.InvalidDataset,
    errors.ParseError,
    errors.MissingAsset,
    errors.InvalidSpec,
    errors.OutOfBounds,
)
_MODEL_ERRORS = (
    errors.IncompatibleModel,
    errors.CorruptModel,
    errors.DegenerateFit,
    errors.InvalidComponents,
)


def _worker_count() -> int:
    cap = os.environ.get("HRM_THREADS")
    n = os.cpu_count() or 1
    if cap:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            raise errors.InvalidInput(
                f"HRM_THREADS must be an integer, got {cap!r}"
            ) from None
    return n


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    cfg.check_training()
    ds = load_dataset(args.annotations)
    entries = [(img, list(boxes)) for _, img, boxes in ds.load_entries()]
    ref = median_box_size(ds)
    reference_size = None
    if cfg.training.scale_normalize:
        reference_size = (ref[0] + ref[1]) / 2.0

    samples = sample_patches(
        entries,
        cfg.training.n_pos,
        cfg.training.n_neg,
        cfg.geometry,
        cfg.training.seed,
        reference_size,
    )
    bank = train_from_samples(
        samples, cfg.geometry, cfg.pls, reference_box=ref, workers=_worker_count()
    )
    save_model(args.out, bank)
    n = bank.geometry.num_context
    print(f"trained {n} voting + {n} label models -> {args.out}")
    return 0


def cmd_detect(args) -> int:
    cfg = load_config(args.config)
    bank = load_model(args.model)

    image_dir = Path(args.images)
    if image_dir.is_dir():
        paths = sorted(
            p for p in image_dir.iterdir() if p.suffix.lower() in (".pgm", ".ppm")
        )
    elif image_dir.exists():
        paths = [image_dir]
    else:
        raise errors.MissingAsset(str(image_dir))

    def run(path):
        img = load_image(path)
        result = detect(
            img, bank, cfg.scales, cfg.voting, cfg.fusion, image_id=path.name
        )
        return path.name, result.detections

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        results = list(pool.map(run, paths))

    lines = []
    for name, dets in results:
        for d in dets:
            lines.append(
                f"{name}\t{d.center[0]:.6f}\t{d.center[1]:.6f}"
                f"\t{d.scale:.6f}\t{d.score:.6f}"
            )
    atomic_write(args.out, "".join(line + "\n" for line in lines).encode("utf-8"))
    meta = f"ref_w {bank.reference_box[0]:.6f}\nref_h {bank.reference_box[1]:.6f}\n"
    atomic_write(str(args.out) + ".meta", meta.encode("utf-8"))
    print(f"{sum(len(d) for _, d in results)} detections -> {args.out}")
    return 0


def _read_detections(path, ref_box) -> list:
    path = Path(path)
    if not path.is_file():
        raise errors.MissingAsset(str(path))
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise errors.ParseError(f"{path}: not UTF-8 text ({e})") from None
    out = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise errors.ParseError(f"{path}:{lineno}: expected 5 tab-separated fields")
        image_id = parts[0]
        try:
            x, y, scale, score = (float(v) for v in parts[1:])
        except ValueError as e:
            raise errors.ParseError(f"{path}:{lineno}: {e}") from e
        if not all(math.isfinite(v) for v in (x, y, scale, score)):
            raise errors.ParseError(f"{path}:{lineno}: fields must be finite")
        out.append(
            Detection(
                image_id, (x, y), scale, score,
                box_from_hypothesis((x, y), scale, ref_box),
            )
        )
    return out


def _reference_size(values, where) -> tuple[float, float]:
    """Two size strings as a (w, h) reference box, each finite and >= 0."""
    try:
        ref = tuple(float(v) for v in values)
    except ValueError:
        ref = ()
    if len(ref) != 2 or not all(0 <= v < math.inf for v in ref):
        raise errors.ParseError(
            f"{where}: needs a width and height, finite and >= 0, got {values}"
        )
    return ref


def _read_meta(path) -> tuple[float, float]:
    """The reference box (ref_w, ref_h) that ``detect`` wrote next to its output."""
    try:
        text = path.read_text(encoding="utf-8")
        kv = dict(line.split() for line in text.splitlines() if line.strip())
        values = [kv["ref_w"], kv["ref_h"]]
    except (ValueError, KeyError) as e:
        raise errors.ParseError(
            f"{path}: needs 'ref_w <float>' and 'ref_h <float>' lines ({e})"
        ) from e
    return _reference_size(values, path)


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    ds = load_dataset(args.annotations)

    if args.ref_size:
        ref = _reference_size(args.ref_size.split("x"), "--ref-size (WxH)")
    else:
        meta = Path(str(args.detections) + ".meta")
        ref = _read_meta(meta) if meta.is_file() else median_box_size(ds)

    detections = _read_detections(args.detections, ref)
    # det.tsv names images by file name alone, so names must be unique
    paths = {}
    for p, _ in ds.entries:
        if paths.setdefault(p.name, p) != p:
            raise errors.ParseError(f"{paths[p.name]} and {p} share a file name")
    ground_truth = {p.name: list(boxes) for p, boxes in ds.entries}
    report = evaluate(detections, ground_truth, cfg.iou_threshold)

    csv = "threshold,precision,recall\n" + "".join(
        f"{t:.6f},{p:.6f},{r:.6f}\n" for t, p, r in report.pr_points
    )
    atomic_write(args.out, csv.encode("utf-8"))
    print(f"EER {report.eer:.4f} ({report.num_detections} detections, "
          f"{report.num_ground_truth} objects) -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    spec = load_synth_spec(args.spec)
    if args.seed < 0:
        raise errors.InvalidInput(f"--seed must be >= 0, got {args.seed}")
    size = (spec.canvas_width, spec.canvas_height)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    lines = []
    for idx in range(spec.scenes):
        n_obj = int(rng.integers(spec.min_objects, spec.max_objects + 1))
        specs = random_scene(rng, n_obj, spec.scales, size, spec.noise)
        seed = int(rng.integers(0, 2**31))
        img, boxes = synth_scene(specs, size, spec.noise, seed=seed)
        name = f"scene_{idx:04d}.pgm"
        write_pgm(out_dir / name, img)
        coord_text = " ".join(" ".join(str(v) for v in b) for b in boxes)
        lines.append(f"{name} {coord_text}".rstrip())
    atomic_write(out_dir / "annotations.txt", ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"{spec.scenes} scenes -> {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrm", description="Hough-regression object detection pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model bank from annotated images")
    p.add_argument("--config", default=None)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="detect objects in a directory of images")
    p.add_argument("--config", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score detections against annotations")
    p.add_argument("--config", default=None)
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ref-size", default=None, help="reference box as WxH")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic annotated scenes")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _MODEL_ERRORS as e:
        print(f"model error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
