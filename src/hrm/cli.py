"""Command-line interface: train, detect, eval, synth.

``train`` passes the config's ``[training]`` settings to
:func:`~hrm.training.sample_patches`, which derives the reference box from
the annotated boxes, and :func:`~hrm.training.train_from_samples` stores that
box in the model; ``detect`` boxes each hypothesis at its level times it.

Exit codes: 0 success, 2 input or I/O error or out of memory, 3 model
error, as each ``HRMError`` says by its ``exit_code``.  Both worker pools,
detection's per image and training's per canvas, run at most HRM_THREADS
threads and at most the usable cores (the CPU affinity).  Detection's image
threads x NumPy BLAS threads <= usable cores.  Outputs depend on neither
count.  All output files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import errors
from .config import load_config, load_synth_spec
from .dataset import load_dataset
from .detect import detect
from .evaluate import Detection, evaluate
from .image_io import atomic_write, load_image, write_pgm
from .model_io import load_model, save_model
from .synth import random_scenes
from .training import sample_patches, train_from_samples


def _usable_cores() -> int:  # the CPU affinity, where the OS has one
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count() -> int:
    cap = os.environ.get("HRM_THREADS")
    n = _usable_cores()
    if cap is not None:
        try:
            limit = int(cap)
        except ValueError:
            limit = 0
        if limit < 1:
            raise errors.InvalidInput(
                f"HRM_THREADS must be an integer >= 1, got {cap!r}"
            )
        n = min(n, limit)
    return n


def _detect_plan(n_images: int) -> tuple[int, int]:
    """(image threads, NumPy BLAS threads): their product fits the usable cores."""
    workers = max(1, min(_worker_count(), n_images))
    return workers, max(1, _usable_cores() // workers)


def _numpy_blas():
    """(get, set) of the thread count of NumPy's bundled OpenBLAS, or None.
    ``CDLL`` on a loaded library's file returns the instance already loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas64_*.so"))))
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError):
        return None


@contextmanager
def _numpy_blas_threads(n: int):
    """Cap NumPy's OpenBLAS at ``n`` threads for the body, where it is found."""
    get, set_threads = _numpy_blas() or (lambda: n, lambda _: None)
    before = get()
    set_threads(min(before, n))
    try:
        yield
    finally:
        set_threads(before)


def _check_out(path) -> None:
    """Refuse an --out file that cannot be written, before any work."""
    path = Path(path)
    if not path.parent.is_dir() or path.is_dir():
        raise errors.InvalidInput(f"--out {path}: not a file in an existing directory")


def cmd_train(args) -> int:
    _check_out(args.out)
    cfg = load_config(args.config)
    cfg.check_training()
    ds = load_dataset(args.annotations)
    entries = [(img, list(boxes)) for _, img, boxes in ds.load_entries()]
    samples = sample_patches(
        entries,
        cfg.training.n_pos,
        cfg.training.n_neg,
        cfg.geometry,
        cfg.training.seed,
        cfg.training.scale_normalize,
    )
    bank = train_from_samples(samples, cfg.geometry, cfg.pls, workers=_worker_count())
    save_model(args.out, bank)
    n = bank.geometry.num_context
    print(f"trained {n} voting + {n} label models -> {args.out}")
    return 0


def cmd_detect(args) -> int:
    _check_out(args.out)
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
        result = detect(img, bank, cfg.scales, cfg.voting, image_id=path.name)
        return path.name, result.detections

    workers, blas_threads = _detect_plan(len(paths))
    with _numpy_blas_threads(blas_threads), ThreadPoolExecutor(workers) as pool:
        results = list(pool.map(run, paths))

    lines = [
        name + "".join(f"\t{v:.6f}" for v in (*d.center, d.scale, d.score, *d.box))
        for name, dets in results
        for d in dets
    ]
    atomic_write(args.out, "".join(line + "\n" for line in lines).encode("utf-8"))
    print(f"{sum(len(d) for _, d in results)} detections -> {args.out}")
    return 0


def _read_detections(path) -> list:
    """The detections of a ``det.tsv``, each with the box ``detect`` wrote."""
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
        if len(parts) != 9:
            raise errors.ParseError(f"{path}:{lineno}: expected 9 tab-separated fields")
        try:
            x, y, scale, score, *box = (float(v) for v in parts[1:])
        except ValueError as e:
            raise errors.ParseError(f"{path}:{lineno}: {e}") from e
        if not all(math.isfinite(v) for v in (x, y, scale, score, *box)):
            raise errors.ParseError(f"{path}:{lineno}: fields must be finite")
        if box[0] > box[2] or box[1] > box[3]:
            raise errors.ParseError(f"{path}:{lineno}: box needs x0 <= x1 and y0 <= y1")
        out.append(Detection(parts[0], (x, y), scale, score, tuple(box)))
    return out


def cmd_eval(args) -> int:
    _check_out(args.out)
    cfg = load_config(args.config)
    ds = load_dataset(args.annotations)
    detections = _read_detections(args.detections)
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
    scenes = random_scenes(args.seed, spec.scenes, size, spec.noise, spec.scales,
                           spec.min_objects, spec.max_objects)
    lines = []
    for idx, (img, boxes) in enumerate(scenes):
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
    except (errors.HRMError, OSError) as e:
        code = getattr(e, "exit_code", 2)  # an OSError is an I/O error
        print(f"{'model error' if code == 3 else 'error'}: {e}", file=sys.stderr)
        return code
    except MemoryError as e:  # NumPy's names the allocation that failed
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
