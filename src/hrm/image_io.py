"""Minimal PGM/PPM reader and writer, and the atomic file writer.

Supports ASCII (P2/P3) and binary (P5/P6) variants with 8-bit depth.
Pixels are exposed as float64 in [0, 1]; color input is collapsed to
luminance.  Other formats can be layered behind load_image later.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .errors import MissingAsset, ParseError

LUMA = np.array([0.299, 0.587, 0.114])  # RGB -> grey weights


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    pos = 0
    while True:
        m = re.compile(rb"\s*(#[^\n]*\n\s*)*([^\s#]+)").match(data, pos)
        if m is None:
            raise ParseError("unexpected end of PNM header")
        pos = m.end()
        yield m.group(2), pos


def _integer(token: bytes, path) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{path}: PNM token {token[:20]!r} is not an integer") from None


def read_pnm(path) -> np.ndarray:
    """Read a PGM/PPM file to a float64 array in [0, 1] (HxW or HxWx3)."""
    path = Path(path)
    if not path.is_file():
        raise MissingAsset(str(path))
    data = path.read_bytes()
    if len(data) < 2 or data[:1] != b"P" or data[1:2] not in b"2356":
        raise ParseError(f"{path}: not a PGM/PPM file")
    magic = data[:2].decode()
    channels = 3 if magic in ("P3", "P6") else 1

    gen = _tokens(data[2:])
    fields = []
    for _ in range(3):
        tok, pos = next(gen)
        fields.append(_integer(tok, path))
    width, height, maxval = fields
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ParseError(f"{path}: bad PNM dimensions")
    count = width * height * channels

    if magic in ("P5", "P6"):
        start = 2 + pos + 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2" if maxval > 255 else "u1")  # PNM is big-endian
        if len(data) - start < count * dtype.itemsize:
            raise ParseError(f"{path}: truncated PNM body")
        raw = np.frombuffer(data, dtype=dtype, count=count, offset=start)
    else:
        body = data[2 + pos :].split()
        if len(body) < count:
            raise ParseError(f"{path}: truncated ASCII PNM body")
        raw = np.array([_integer(t, path) for t in body[:count]])

    if raw.size < count:
        raise ParseError(f"{path}: truncated PNM body")
    if raw.min() < 0 or raw.max() > maxval:
        raise ParseError(f"{path}: PNM samples must lie in [0, maxval={maxval}]")
    img = raw.reshape((height, width, channels)).astype(np.float64) / maxval
    return img[..., 0] if channels == 1 else img


def load_image(path) -> np.ndarray:
    """Decode an image to grayscale float64 in [0, 1]."""
    img = read_pnm(path)
    if img.ndim == 3:
        img = img @ LUMA
    return img


def write_pgm(path, img: np.ndarray) -> None:
    """Write a [0, 1] grayscale array as an 8-bit binary PGM."""
    img = np.asarray(img, dtype=np.float64)
    quant = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    atomic_write(path, header + quant.tobytes())


def atomic_write(path, data: bytes) -> None:
    """Write ``data`` to ``path`` by a temp file and a rename: never a partial file.

    If the write or the rename fails, the temp file is removed and the error
    propagates.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
