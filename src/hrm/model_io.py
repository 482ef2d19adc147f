"""Binary model-bank serialization: the stacked linear head.

Layout, format version 4 (all integers little-endian):

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
Every head value must be finite and the reference box finite and >= 0.
The extractor version names the whole feature extractor.  Files of an
older format are refused with a request to retrain.  Round-trips are
bit-exact.  Writes go through a temp file and rename.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptModel, IncompatibleModel, InvalidInput, MissingAsset
from .features import EXTRACTOR_VERSION, PatchGeometry
from .image_io import atomic_write
from .training import ModelBank

MAGIC = b"HRMB"
FORMAT_VERSION = 4


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

    def text(self, what: str) -> str:
        (n,) = self.unpack("I")
        try:
            return self.take(n).decode()
        except UnicodeDecodeError:
            raise CorruptModel(f"{what} is not UTF-8") from None


def _pack_text(text: str) -> bytes:
    data = text.encode()
    return struct.pack("<I", len(data)) + data


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
    parts = [
        MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        _pack_text(EXTRACTOR_VERSION),
        struct.pack("<II", geom.patch_size, len(geom.neighbor_offsets)),
    ]
    for dx, dy in geom.neighbor_offsets:
        parts.append(struct.pack("<ii", dx, dy))
    parts.append(struct.pack("<dd", *bank.reference_box))
    parts.append(_pack_array(bank.coefficients))
    parts.append(_pack_array(bank.intercepts))

    atomic_write(path, b"".join(parts))


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
    extractor = r.text("extractor version")
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
    if not (np.isfinite(coefficients).all() and np.isfinite(intercepts).all()):
        raise CorruptModel("coefficients and intercepts must be finite")
    try:
        geometry = PatchGeometry(patch_size, offsets)
    except InvalidInput as e:
        raise CorruptModel(f"patch geometry: {e}") from None
    try:
        return ModelBank(coefficients, intercepts, geometry, (ref_w, ref_h))
    except InvalidInput as e:  # the reference box
        raise CorruptModel(str(e)) from None
