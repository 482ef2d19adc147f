"""Key-value configuration files (INI sections mirror module names).

Each section fills the fields of one dataclass, defined beside the
function it configures (``TrainingConfig`` in :mod:`hrm.training`,
``VotingConfig`` in :mod:`hrm.voting`, ``SynthSpec`` in :mod:`hrm.synth`),
which takes it whole; this module only reads them from INI.
A key is a field name, read as the field's type (an int, float or bool,
or a whitespace-separated tuple of numbers); an absent key keeps the
field's default.  README.md's INI block lists every key.  An unknown
section or key is a ParseError, and ``#`` after whitespace starts a comment.
[features] is the model's PatchGeometry: training records it in the
model, and detection reads it from there.  The accumulator cell, its
smoothing and fusion's kernel bandwidth are not keys: detection fixes them
(:func:`~hrm.detect.detect`), as ``evaluate`` fixes IoU 0.5 for ``hrm eval``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import InvalidInput, MissingAsset, ParseError
from .features import PatchGeometry
from .pls import LatentConfig
from .synth import SynthSpec
from .training import TrainingConfig
from .voting import VotingConfig


@dataclass(frozen=True)
class PipelineConfig:
    """The settings of a config file, one dataclass per section."""

    pls: LatentConfig = field(default_factory=LatentConfig)
    geometry: PatchGeometry = field(default_factory=PatchGeometry)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    voting: VotingConfig = field(default_factory=VotingConfig)

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


def _reader(key, tp):
    """How to read ``key``'s INI text as type ``tp``."""
    if tp in (int, float, bool):
        return tp  # bool is read with getboolean
    item = get_args(tp)[0]
    if get_origin(item) is not tuple:
        return lambda text: tuple(item(v) for v in text.split())

    def pairs(text):
        vals = [int(v) for v in text.split()]
        if len(vals) % 2:
            raise ParseError(f"{key} needs an even count of integers")
        return tuple(zip(vals[::2], vals[1::2]))

    return pairs


# Each section and the dataclass its keys fill, in PipelineConfig's field order.
_SECTIONS = {
    "pls": LatentConfig,
    "features": PatchGeometry,
    "training": TrainingConfig,
    "voting": VotingConfig,
}
# Every field of these dataclasses is a key, read by its field's type.
_READERS = {
    cls: {f.name: _reader(f.name, get_type_hints(cls)[f.name]) for f in fields(cls)}
    for cls in (*_SECTIONS.values(), SynthSpec)
}
_KEYS = {name: set(_READERS[cls]) for name, cls in _SECTIONS.items()}


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
        known = keys.get(name)
        # keys are named even in an unknown section, so a retired key is
        # refused by name whether or not its section was retired too
        for key in parser[name]:
            if known is None or key not in known:
                note = "" if known is not None else " (an unknown section)"
                raise ParseError(f"{path}: unknown key {key!r} in section [{name}]{note}")
        if known is None:
            raise ParseError(f"{path}: unknown config section [{name}]")
    return parser


def _build(parser, name, cls):
    """``cls`` from the keys of section ``name``, read as typed."""
    values = {}
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

    return PipelineConfig(*(_build(parser, name, cls) for name, cls in _SECTIONS.items()))


def load_synth_spec(path) -> SynthSpec:
    """Read an ``hrm synth`` spec: one [synth] section of SynthSpec fields."""
    path = Path(path)
    if not path.is_file():
        raise MissingAsset(str(path))
    parser = _read_ini(path, {"synth": set(_READERS[SynthSpec])})
    if not parser.has_section("synth"):
        raise ParseError(f"{path}: missing [synth] section")
    return _build(parser, "synth", SynthSpec)
