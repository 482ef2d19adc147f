"""Synthetic scenes with a fixed high-contrast object template.

The template is rendered analytically at any scale (bright disk, dark
horizontal bar, bright corner square) so it carries distinct oriented
edges.  Scenes add low-frequency background clutter and optional pixel
noise; everything is deterministic per seed, as is :func:`random_scenes`,
which draws the scenes of a :class:`SynthSpec`, an ``hrm synth`` spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InvalidSpec, check_integer, check_real
from .evaluate import iou

TEMPLATE_SIZE = 40  # box side at scale 1.0


@dataclass(frozen=True)
class SynthSpec:
    """The [synth] section of an ``hrm synth`` spec: what :func:`random_scenes` draws."""

    scenes: int = 10
    canvas_width: int = 224
    canvas_height: int = 224
    noise: float = 0.02
    min_objects: int = 1
    max_objects: int = 3
    scales: tuple[float, ...] = (0.75, 1.0, 1.25, 1.5)

    def __post_init__(self):
        for name, minimum in (("scenes", 0), ("canvas_width", 1), ("canvas_height", 1),
                              ("min_objects", 0), ("max_objects", self.min_objects)):
            check_integer(name, getattr(self, name), minimum, InvalidSpec)
        for s in self.scales:
            check_real("scales", s, 0, error=InvalidSpec)
        if not self.scales or 0 in self.scales:
            raise InvalidSpec("need at least one scale, all finite and positive")
        check_real("noise", self.noise, 0, error=InvalidSpec)


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


def _object_box(cx: float, cy: float, scale: float) -> tuple[int, int, int, int]:
    """The pixel box (x0, y0, x1, y1) of an object centred at (cx, cy): the
    template's side at ``scale``, its corner rounded to a pixel."""
    size = int(round(TEMPLATE_SIZE * scale))
    x0 = int(round(cx - size / 2.0))
    y0 = int(round(cy - size / 2.0))
    return x0, y0, x0 + size, y0 + size


def synth_scene(
    objects,
    canvas_size: tuple[int, int] = (224, 224),
    noise: float = 0.02,
    seed: int = 0,
):
    """Render a scene; returns (image, ground-truth boxes).

    objects: iterable of (cx, cy, scale) placements, boxed by :func:`_object_box`.
    Raises InvalidSpec when an object leaves the canvas or two boxes
    overlap at an IoU above 0.05.
    """
    width, height = canvas_size
    rng = np.random.default_rng(seed)

    clutter = ndimage.gaussian_filter(rng.standard_normal((height, width)), 6.0)
    peak = np.max(np.abs(clutter))
    img = 0.45 + (0.08 / peak) * clutter if peak > 0 else np.full((height, width), 0.45)

    boxes = []
    for cx, cy, scale in objects:
        patch = render_template(scale)
        box = x0, y0, x1, y1 = _object_box(cx, cy, scale)
        if x0 < 0 or y0 < 0 or x1 > width or y1 > height:
            raise InvalidSpec(f"object at ({cx}, {cy}) leaves the canvas")
        if any(iou(box, other) > 0.05 for other in boxes):
            raise InvalidSpec(f"object at ({cx}, {cy}) overlaps another")
        img[y0:y1, x0:x1] = patch
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
    """Place n_objects at random non-overlapping positions; returns their
    (cx, cy, scale) placements."""
    width, height = canvas_size
    specs: list[tuple[float, float, float]] = []
    placed: list[tuple] = []
    for _ in range(n_objects):
        for _ in range(max_tries):
            scale = float(rng.choice(scales))
            half = TEMPLATE_SIZE * scale / 2.0
            if min(width, height) < 2 * (half + 1):
                raise InvalidSpec(f"a scale-{scale} object does not fit the canvas")
            cx = float(rng.uniform(half + 1, width - half - 1))
            cy = float(rng.uniform(half + 1, height - half - 1))
            x0, y0, x1, y1 = _object_box(cx, cy, scale)
            # keep clear separation so fused detections match one box each
            box = (x0 - 12, y0 - 12, x1 + 12, y1 + 12)
            if all(iou(box, b) == 0 for b in placed):
                specs.append((cx, cy, scale))
                placed.append(box)
                break
        else:
            raise InvalidSpec(f"could not place {n_objects} objects")
    return specs


def random_scenes(spec: SynthSpec, seed: int):
    """Yield ``spec.scenes`` scenes as (image, boxes) under a seed >= 0.  One generator
    draws, per scene, the object count, then the placements, then the scene seed."""
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    size = (spec.canvas_width, spec.canvas_height)
    for _ in range(spec.scenes):
        n_obj = int(rng.integers(spec.min_objects, spec.max_objects + 1))
        specs = random_scene(rng, n_obj, spec.scales, size)
        yield synth_scene(specs, size, spec.noise, seed=int(rng.integers(0, 2**31)))
