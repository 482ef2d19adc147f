"""Command-line interface: train, detect, eval, synth.

Exit codes: 0 success, 2 input error, 3 model error.  HRM_THREADS caps
the per-image detection worker pool.  All output files are written
atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import errors
from .config import load_config
from .dataset import load_dataset, median_box_size
from .detect import detect
from .evaluate import Detection, box_from_hypothesis, evaluate
from .image_io import load_image, write_pgm
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


def _atomic_write_text(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


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
        samples,
        cfg.geometry,
        cfg.pls,
        cfg.voting.derivative_kernel,
        reference_box=ref,
    )
    save_model(args.out, bank)
    n = bank.num_context
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
    _atomic_write_text(args.out, "".join(line + "\n" for line in lines))
    _atomic_write_text(
        str(args.out) + ".meta",
        f"ref_w {bank.reference_box[0]:.6f}\nref_h {bank.reference_box[1]:.6f}\n",
    )
    print(f"{sum(len(d) for _, d in results)} detections -> {args.out}")
    return 0


def _read_detections(path, ref_box) -> list:
    path = Path(path)
    if not path.exists():
        raise errors.MissingAsset(str(path))
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
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
        out.append(
            Detection(
                image_id, (x, y), scale, score,
                box_from_hypothesis((x, y), scale, ref_box),
            )
        )
    return out


def _read_meta(path) -> tuple[float, float]:
    """The reference box (ref_w, ref_h) that ``detect`` wrote next to its output."""
    try:
        kv = dict(line.split() for line in path.read_text().splitlines() if line.strip())
        return (float(kv["ref_w"]), float(kv["ref_h"]))
    except (ValueError, KeyError) as e:
        raise errors.ParseError(
            f"{path}: needs 'ref_w <float>' and 'ref_h <float>' lines ({e})"
        ) from e


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    ds = load_dataset(args.annotations)

    if args.ref_size:
        try:
            ref = tuple(float(v) for v in args.ref_size.split("x"))
        except ValueError:
            ref = ()
        if len(ref) != 2:
            raise errors.ParseError(f"--ref-size must look like WxH, got {args.ref_size!r}")
    else:
        meta = Path(str(args.detections) + ".meta")
        ref = _read_meta(meta) if meta.exists() else median_box_size(ds)

    detections = _read_detections(args.detections, ref)
    ground_truth = {p.name: list(boxes) for p, boxes in ds.entries}
    report = evaluate(detections, ground_truth, cfg.iou_threshold)

    csv = "threshold,precision,recall\n" + "".join(
        f"{t:.6f},{p:.6f},{r:.6f}\n" for t, p, r in report.pr_points
    )
    _atomic_write_text(args.out, csv)
    print(f"EER {report.eer:.4f} ({report.num_detections} detections, "
          f"{report.num_ground_truth} objects) -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise errors.MissingAsset(str(spec_path))
    import configparser

    parser = configparser.ConfigParser()
    parser.read(spec_path)
    if not parser.has_section("synth"):
        raise errors.ParseError(f"{spec_path}: missing [synth] section")
    s = parser["synth"]
    n_scenes = s.getint("scenes", 10)
    width = s.getint("canvas_width", 224)
    height = s.getint("canvas_height", 224)
    noise = s.getfloat("noise", 0.02)
    min_obj = s.getint("min_objects", 1)
    max_obj = s.getint("max_objects", 3)
    scales = tuple(float(v) for v in s.get("scales", "0.75 1 1.25 1.5").split())

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    lines = []
    for idx in range(n_scenes):
        n_obj = int(rng.integers(min_obj, max_obj + 1))
        specs = random_scene(rng, n_obj, scales, (width, height), noise)
        img, boxes = synth_scene(
            specs, (width, height), noise, seed=int(rng.integers(0, 2**31))
        )
        name = f"scene_{idx:04d}.pgm"
        write_pgm(out_dir / name, img)
        coord_text = " ".join(" ".join(str(v) for v in b) for b in boxes)
        lines.append(f"{name} {coord_text}".rstrip())
    _atomic_write_text(out_dir / "annotations.txt", "\n".join(lines) + "\n")
    print(f"{n_scenes} scenes -> {out_dir}")
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
