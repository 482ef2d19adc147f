"""Synthetic scenes with a fixed high-contrast object template.

The template is rendered analytically at any scale (bright disk, dark
horizontal bar, bright corner square) so it carries distinct oriented
edges.  Scenes add low-frequency background clutter and optional pixel
noise; everything is deterministic per seed, as is :func:`random_scenes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InvalidSpec
from .evaluate import iou

TEMPLATE_SIZE = 40  # box side at scale 1.0


@dataclass(frozen=True)
class ObjectSpec:
    """One object placement: box center (pixels) and scale."""

    cx: float
    cy: float
    scale: float


def render_template(scale: float = 1.0) -> np.ndarray:
    """The object template at the given scale, values in [0, 1]."""
    size = int(round(TEMPLATE_SIZE * scale))
    if size < 8:
        raise InvalidSpec(f"scale {scale} renders below the minimum template size")
    # normalized pixel-center coordinates in [0, 1)
    u = (np.arange(size) + 0.5) / size
    xx, yy = np.meshgrid(u, u)

    img = np.full((size, size), 0.15)
    disk = (xx - 0.55) ** 2 + (yy - 0.55) ** 2 <= 0.32**2
    img[disk] = 0.95
    bar = (yy >= 0.46) & (yy < 0.62)
    img[bar] = 0.05
    square = (xx >= 0.08) & (xx < 0.34) & (yy >= 0.06) & (yy < 0.32)
    img[square] = 1.0
    return img


def synth_scene(
    objects,
    canvas_size: tuple[int, int] = (224, 224),
    noise: float = 0.02,
    seed: int = 0,
):
    """Render a scene; returns (image, ground-truth boxes).

    objects: iterable of ObjectSpec (or (cx, cy, scale) tuples).
    Raises InvalidSpec when an object leaves the canvas or two boxes
    overlap at an IoU above 0.05.
    """
    width, height = canvas_size
    rng = np.random.default_rng(seed)

    clutter = ndimage.gaussian_filter(rng.standard_normal((height, width)), 6.0)
    peak = np.max(np.abs(clutter))
    img = 0.45 + (0.08 / peak) * clutter if peak > 0 else np.full((height, width), 0.45)

    boxes = []
    for spec in objects:
        if not isinstance(spec, ObjectSpec):
            spec = ObjectSpec(*spec)
        patch = render_template(spec.scale)
        size = patch.shape[0]
        x0 = int(round(spec.cx - size / 2.0))
        y0 = int(round(spec.cy - size / 2.0))
        box = (x0, y0, x0 + size, y0 + size)
        if x0 < 0 or y0 < 0 or x0 + size > width or y0 + size > height:
            raise InvalidSpec(f"object at ({spec.cx}, {spec.cy}) leaves the canvas")
        if any(iou(box, other) > 0.05 for other in boxes):
            raise InvalidSpec(f"object at ({spec.cx}, {spec.cy}) overlaps another")
        img[y0 : y0 + size, x0 : x0 + size] = patch
        boxes.append(box)

    if noise > 0:
        img = img + rng.normal(0.0, noise, size=img.shape)
    return np.clip(img, 0.0, 1.0), tuple(boxes)


def random_scene(
    rng: np.random.Generator,
    n_objects: int,
    scales,
    canvas_size: tuple[int, int] = (224, 224),
    max_tries: int = 200,
):
    """Place n_objects at random non-overlapping positions; returns specs."""
    width, height = canvas_size
    specs: list[ObjectSpec] = []
    placed: list[tuple] = []
    for _ in range(n_objects):
        for _ in range(max_tries):
            scale = float(rng.choice(scales))
            half = TEMPLATE_SIZE * scale / 2.0
            if min(width, height) < 2 * (half + 1):
                raise InvalidSpec(f"a scale-{scale} object does not fit the canvas")
            cx = float(rng.uniform(half + 1, width - half - 1))
            cy = float(rng.uniform(half + 1, height - half - 1))
            size = int(round(TEMPLATE_SIZE * scale))
            x0 = int(round(cx - size / 2.0))
            y0 = int(round(cy - size / 2.0))
            # keep clear separation so fused detections match one box each
            box = (x0 - 12, y0 - 12, x0 + size + 12, y0 + size + 12)
            if all(iou(box, b) == 0 for b in placed):
                specs.append(ObjectSpec(cx, cy, scale))
                placed.append(box)
                break
        else:
            raise InvalidSpec(f"could not place {n_objects} objects")
    return specs


def random_scenes(seed: int, count: int, size: tuple[int, int], noise: float,
                  scales, min_objects: int = 1, max_objects: int = 3):
    """Yield ``count`` scenes as (image, boxes).  One generator draws, per scene,
    the object count, then the placements, then the :func:`synth_scene` seed."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_obj = int(rng.integers(min_objects, max_objects + 1))
        specs = random_scene(rng, n_obj, scales, size)
        yield synth_scene(specs, size, noise, seed=int(rng.integers(0, 2**31)))
