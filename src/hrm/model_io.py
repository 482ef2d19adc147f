"""Binary model-bank serialization: the stacked linear head.

Layout, format version 2 (all integers little-endian):

    magic   4 bytes  "HRMB"
    u32     format version
    str     extractor version (u32 length + utf-8)
    u32     patch size
    u32     m (neighbor count), then m pairs of i32 (dx, dy)
    f64 x2  reference box (width, height)
    array   coefficients (d, m+1, 3): voting model j's two outputs, then
            label model j's output
    array   intercepts (m+1, 3)

Each array is u32 ndim, ndim u64 dimensions, then row-major f64 data.
Version 1 files, which held every fit record, are refused.  Round-trips
are bit-exact.  Writes go through a temp file and rename.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptModel, IncompatibleModel, InvalidInput, MissingAsset
from .features import EXTRACTOR_VERSION, PatchGeometry
from .training import ModelBank

MAGIC = b"HRMB"
FORMAT_VERSION = 2


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptModel("model file is truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))


def _pack_array(a: np.ndarray) -> bytes:
    a = np.ascontiguousarray(a, dtype="<f8")
    return struct.pack(f"<I{a.ndim}Q", a.ndim, *a.shape) + a.tobytes()


def _read_array(r: _Reader) -> np.ndarray:
    (ndim,) = r.unpack("I")
    shape = r.unpack(f"{ndim}Q")
    data = r.take(math.prod(shape) * 8)
    try:
        return np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    except ValueError as e:  # an empty array with a dimension past intp
        raise CorruptModel(f"array dimensions: {e}") from None


def save_model(path, bank: ModelBank) -> None:
    geom = bank.geometry
    ext = bank.extractor_version.encode()
    parts = [
        MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack("<I", len(ext)),
        ext,
        struct.pack("<II", geom.patch_size, len(geom.neighbor_offsets)),
    ]
    for dx, dy in geom.neighbor_offsets:
        parts.append(struct.pack("<ii", dx, dy))
    parts.append(struct.pack("<dd", *bank.reference_box))
    parts.append(_pack_array(bank.coefficients))
    parts.append(_pack_array(bank.intercepts))

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(b"".join(parts))
    os.replace(tmp, path)


def load_model(path) -> ModelBank:
    path = Path(path)
    if not path.is_file():
        raise MissingAsset(f"model file not found: {path}")
    data = path.read_bytes()
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise IncompatibleModel("bad magic; not a model-bank file")
    (version,) = r.unpack("I")
    if version != FORMAT_VERSION:
        raise IncompatibleModel(
            f"format version {version}, expected {FORMAT_VERSION}; retrain the model"
        )
    (ext_len,) = r.unpack("I")
    try:
        extractor = r.take(ext_len).decode()
    except UnicodeDecodeError:
        raise CorruptModel("extractor version is not UTF-8") from None
    if extractor != EXTRACTOR_VERSION:
        raise IncompatibleModel(
            f"extractor version {extractor!r}, this build uses {EXTRACTOR_VERSION!r}"
        )
    patch_size, m = r.unpack("II")
    offsets = tuple(r.unpack("ii") for _ in range(m))
    ref_w, ref_h = r.unpack("dd")
    coefficients = _read_array(r)
    intercepts = _read_array(r)
    if r.pos != len(data):
        raise CorruptModel("trailing bytes after model data")
    try:
        geometry = PatchGeometry(patch_size, offsets)
    except InvalidInput as e:
        raise CorruptModel(f"patch geometry: {e}") from None
    return ModelBank(coefficients, intercepts, geometry, extractor, (ref_w, ref_h))
