"""Key-value configuration files (INI sections mirror module names).

Each section fills the fields of its dataclasses: a key is a field name,
its value is read as the field's type (an int, float or bool, or a
whitespace-separated tuple of numbers), and an absent key keeps the
field's default.  README.md's INI block lists every key.  An unknown
section or key is a ParseError, and ``#`` after whitespace starts a comment.
[features] is the model's PatchGeometry: training records it in the
model, and detection reads it from there.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .detect import VotingConfig
from .errors import InvalidInput, InvalidSpec, MissingAsset, ParseError
from .features import PatchGeometry
from .fusion import FusionConfig
from .pls import LatentConfig
from .voting import ScaleSet


@dataclass(frozen=True)
class TrainingConfig:
    n_pos: int = 12000
    n_neg: int = 12000
    seed: int = 0
    scale_normalize: bool = False

    def __post_init__(self):
        if self.n_pos < 1 or self.n_neg < 1:
            raise InvalidInput(
                f"n_pos and n_neg must be >= 1, got {self.n_pos} and {self.n_neg}"
            )
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PipelineConfig:
    pls: LatentConfig = field(default_factory=LatentConfig)
    geometry: PatchGeometry = field(default_factory=PatchGeometry)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    scales: ScaleSet = field(default_factory=ScaleSet)
    voting: VotingConfig = field(default_factory=VotingConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    iou_threshold: float = 0.5

    def __post_init__(self):
        if not 0 < self.iou_threshold <= 1:
            raise InvalidInput(
                f"iou_threshold must be in (0, 1], got {self.iou_threshold}"
            )

    def check_training(self) -> None:
        """Refuse a ``components`` that training could not fit.

        Only ``hrm train`` reads [pls], so only it calls this.
        """
        # The voting models are fitted on n_pos centered rows, of rank at most
        # n_pos - 1, and vector_length columns.
        bound = min(self.training.n_pos - 1, self.geometry.vector_length)
        if self.pls.components > bound:
            raise InvalidInput(
                f"components must be <= min(n_pos - 1, patch_size^2 * 26) = {bound}, "
                f"got {self.pls.components}"
            )


@dataclass(frozen=True)
class SynthSpec:
    """The [synth] section of an ``hrm synth`` spec file."""

    scenes: int = 10
    canvas_width: int = 224
    canvas_height: int = 224
    noise: float = 0.02
    min_objects: int = 1
    max_objects: int = 3
    scales: tuple[float, ...] = (0.75, 1.0, 1.25, 1.5)

    def __post_init__(self):
        if self.scenes < 0 or not 0 <= self.min_objects <= self.max_objects:
            raise InvalidSpec("need scenes >= 0 and 0 <= min_objects <= max_objects")
        if not self.scales or not all(0 < s < math.inf for s in self.scales):
            raise InvalidSpec("need at least one scale, all finite and positive")
        if not 0 <= self.noise < math.inf:
            raise InvalidSpec(f"noise must be finite and >= 0, got {self.noise}")
        if self.canvas_width < 1 or self.canvas_height < 1:
            w, h = self.canvas_width, self.canvas_height
            raise InvalidSpec(f"canvas sides must be >= 1, got {w}x{h}")


def _reader(key, tp):
    """How to read ``key``'s INI text as type ``tp``; None for a nested config."""
    if tp in (int, float, bool):
        return tp  # bool is read with getboolean
    if get_origin(tp) is not tuple:
        return None
    item = get_args(tp)[0]
    if get_origin(item) is not tuple:
        return lambda text: tuple(item(v) for v in text.split())

    def pairs(text):
        vals = [int(v) for v in text.split()]
        if len(vals) % 2:
            raise ParseError(f"{key} needs an even count of integers")
        return tuple(zip(vals[::2], vals[1::2]))

    return pairs


def _readers(cls) -> dict:
    """The reader of each field of ``cls`` that an INI key can set."""
    hints = get_type_hints(cls)
    readers = {f.name: _reader(f.name, hints[f.name]) for f in fields(cls)}
    return {key: read for key, read in readers.items() if read is not None}


# Each section and the dataclasses its keys fill.
_SECTIONS = {
    "pls": (LatentConfig,),
    "features": (PatchGeometry,),
    "training": (TrainingConfig,),
    "voting": (ScaleSet, VotingConfig),
    "fusion": (FusionConfig,),
    "pipeline": (PipelineConfig,),  # its scalars; the rest are sections
}
_READERS = {cls: _readers(cls) for cls in (*sum(_SECTIONS.values(), ()), SynthSpec)}
_KEYS = {
    name: {key for cls in classes for key in _READERS[cls]}
    for name, classes in _SECTIONS.items()
}
_SYNTH_KEYS = {"synth": set(_READERS[SynthSpec])}


def _read_ini(path, keys) -> configparser.ConfigParser:
    """Parse an INI file whose sections and keys must all be listed in ``keys``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}") from e
    if parser.defaults():
        raise ParseError(f"{path}: unknown config section [{parser.default_section}]")
    for name in parser.sections():
        if name not in keys:
            raise ParseError(f"{path}: unknown config section [{name}]")
        for key in parser[name]:
            if key not in keys[name]:
                raise ParseError(f"{path}: unknown key {key!r} in section [{name}]")
    return parser


def _build(parser, name, cls, **defaults):
    """``cls`` from ``defaults`` and the keys of section ``name``, read as typed."""
    values = dict(defaults)
    s = parser[name] if parser.has_section(name) else {}
    for key, read in _READERS[cls].items():
        if key in s:
            try:
                values[key] = s.getboolean(key) if read is bool else read(s[key])
            except ValueError as e:
                raise ParseError(f"config key {key!r}: {e}") from e
    return cls(**values)


def load_config(path=None) -> PipelineConfig:
    """Read a config file; a missing path yields all defaults."""
    parser = configparser.ConfigParser()
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ParseError(f"config file not found: {path}")
        parser = _read_ini(path, _KEYS)

    pls = _build(parser, "pls", LatentConfig)
    geometry = _build(parser, "features", PatchGeometry)
    training = _build(parser, "training", TrainingConfig)
    scales = _build(parser, "voting", ScaleSet)
    voting = _build(parser, "voting", VotingConfig)
    # the default bandwidth is two accumulator cells
    fusion = _build(parser, "fusion", FusionConfig, bandwidth=2.0 * voting.bin_size)
    return _build(
        parser, "pipeline", PipelineConfig, pls=pls, geometry=geometry,
        training=training, scales=scales, voting=voting, fusion=fusion,
    )


def load_synth_spec(path) -> SynthSpec:
    """Read an ``hrm synth`` spec: one [synth] section of SynthSpec fields."""
    path = Path(path)
    if not path.is_file():
        raise MissingAsset(str(path))
    parser = _read_ini(path, _SYNTH_KEYS)
    if not parser.has_section("synth"):
        raise ParseError(f"{path}: missing [synth] section")
    return _build(parser, "synth", SynthSpec)
