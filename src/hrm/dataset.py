"""Annotation file parsing.

Format: one line per image occurrence, whitespace-separated:

    relative/path.pgm x_min y_min x_max y_max [x_min y_min x_max y_max ...]

Boxes are integer pixels in [0, 2**31), inclusive-exclusive.  A path may
repeat across lines; boxes accumulate.  A line with only a path declares a
background image with no objects.  '#' starts a comment.  The reference
box that detection scales is derived from these boxes by the patch sampler
(:func:`hrm.training.sample_patches`), not here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidDataset, MissingAsset, ParseError
from .image_io import load_image

Box = tuple[int, int, int, int]


@dataclass(frozen=True)
class Dataset:
    """Image paths with their annotated boxes, in file order."""

    entries: tuple[tuple[Path, tuple[Box, ...]], ...]

    def load_entries(self):
        """Decode every image; yields (image_id, image, boxes).

        A box that reaches past its image's right or bottom edge raises
        InvalidDataset.
        """
        for path, boxes in self.entries:
            img = load_image(path)
            h, w = img.shape[:2]
            for box in boxes:
                if box[2] > w or box[3] > h:
                    raise InvalidDataset(f"{path}: box {box} leaves the {w}x{h} image")
            yield str(path), img, boxes


def load_dataset(annotation_path) -> Dataset:
    """Parse an annotation file; image paths resolve against its directory."""
    annotation_path = Path(annotation_path)
    if not annotation_path.is_file():
        raise MissingAsset(str(annotation_path))
    root = annotation_path.parent
    try:
        lines = annotation_path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ParseError(f"{annotation_path}: not UTF-8 text ({e})") from None

    order: list[Path] = []
    boxes_by_path: dict[Path, list[Box]] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        path = root / parts[0]
        coords = parts[1:]
        if len(coords) % 4 != 0:
            raise ParseError(
                f"{annotation_path}:{lineno}: expected groups of 4 box coordinates"
            )
        try:
            values = [int(v) for v in coords]
        except ValueError as e:
            raise ParseError(f"{annotation_path}:{lineno}: {e}") from e

        if not path.is_file():
            raise MissingAsset(f"{annotation_path}:{lineno}: {path}")
        if path not in boxes_by_path:
            order.append(path)
            boxes_by_path[path] = []
        for k in range(0, len(values), 4):
            x0, y0, x1, y1 = values[k : k + 4]
            if x0 >= x1 or y0 >= y1:
                raise ParseError(
                    f"{annotation_path}:{lineno}: degenerate box {(x0, y0, x1, y1)}"
                )
            if x0 < 0 or y0 < 0 or max(x1, y1) >= 2**31:  # x0 < x1, y0 < y1
                raise ParseError(
                    f"{annotation_path}:{lineno}: box corner outside [0, 2**31)"
                )
            boxes_by_path[path].append((x0, y0, x1, y1))

    if not order:
        warnings.warn(f"{annotation_path}: empty dataset", stacklevel=2)
    return Dataset(tuple((p, tuple(boxes_by_path[p])) for p in order))
