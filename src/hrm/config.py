"""Key-value configuration files (INI sections mirror module names).

Example:

    [pls]
    components = 100
    ridge = 1e-10

    [features]
    patch_size = 16
    neighbor_offsets = 16 0 -16 0 0 16 0 -16  # default: 8 at +-16, 8 at +-8
    derivative_kernel = sobel

    [training]
    n_pos = 12000
    n_neg = 12000
    seed = 0
    scale_normalize = false

    [voting]
    scales = 0.75 1 1.25 1.5
    train_scale = 1
    stride = 1
    bin_size = 4
    smoothing = 1.5
    min_score_fraction = 0.05
    maxima_radius = 3

    [fusion]
    kernel = gaussian
    bandwidth = 8
    probability_floor = 1e-12

    [pipeline]
    iou_threshold = 0.5

Unspecified keys keep the defaults above; an unknown section or key is a
ParseError, and ``#`` after whitespace starts a comment.  [features] is
the model's PatchGeometry: training records it in the model, and
detection reads it from there.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

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
    fusion: FusionConfig | None = None  # None = bandwidth from bin size
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


# Every section and key load_config reads.
_KEYS = {
    "pls": {"components", "ridge"},
    "features": {"patch_size", "neighbor_offsets", "derivative_kernel"},
    "training": {"n_pos", "n_neg", "seed", "scale_normalize"},
    "voting": {
        "scales", "train_scale", "stride", "bin_size", "smoothing",
        "min_score_fraction", "maxima_radius",
    },
    "fusion": {"kernel", "bandwidth", "probability_floor"},
    "pipeline": {"iou_threshold"},
}


def _split(cast):
    return lambda text: [cast(v) for v in text.split()]


def _get(section, key, cast, default):
    if section is None or key not in section:
        return default
    try:
        if cast is bool:
            return section.getboolean(key)
        return cast(section[key])
    except ValueError as e:
        raise ParseError(f"config key {key!r}: {e}") from e


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


def load_config(path=None) -> PipelineConfig:
    """Read a config file; a missing path yields all defaults."""
    parser = configparser.ConfigParser()
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ParseError(f"config file not found: {path}")
        parser = _read_ini(path, _KEYS)

    def section(name):
        return parser[name] if parser.has_section(name) else None

    s = section("pls")
    pls_cfg = LatentConfig(
        components=_get(s, "components", int, 100),
        ridge=_get(s, "ridge", float, 1e-10),
    )

    s = section("features")
    patch_size = _get(s, "patch_size", int, 16)
    offsets = None
    vals = _get(s, "neighbor_offsets", _split(int), None)
    if vals is not None:
        if len(vals) % 2:
            raise ParseError("neighbor_offsets needs an even count of integers")
        offsets = tuple(zip(vals[::2], vals[1::2]))
    geometry = PatchGeometry(
        patch_size, offsets, _get(s, "derivative_kernel", str, "sobel")
    )

    s = section("training")
    training = TrainingConfig(
        n_pos=_get(s, "n_pos", int, 12000),
        n_neg=_get(s, "n_neg", int, 12000),
        seed=_get(s, "seed", int, 0),
        scale_normalize=_get(s, "scale_normalize", bool, False),
    )

    s = section("voting")
    scale_list = _get(s, "scales", _split(float), [0.75, 1.0, 1.25, 1.5])
    scales = ScaleSet(tuple(scale_list), _get(s, "train_scale", float, 1.0))
    voting = VotingConfig(
        stride=_get(s, "stride", int, 1),
        bin_size=_get(s, "bin_size", int, 4),
        smoothing=_get(s, "smoothing", float, 1.5),
        min_score_fraction=_get(s, "min_score_fraction", float, 0.05),
        maxima_radius=_get(s, "maxima_radius", int, 3),
    )

    s = section("fusion")
    fusion = None
    if s is not None:
        fusion = FusionConfig(
            kernel=_get(s, "kernel", str, "gaussian"),
            bandwidth=_get(s, "bandwidth", float, 2.0 * voting.bin_size),
            probability_floor=_get(s, "probability_floor", float, 1e-12),
        )

    s = section("pipeline")
    iou_threshold = _get(s, "iou_threshold", float, 0.5)

    return PipelineConfig(pls_cfg, geometry, training, scales, voting, fusion, iou_threshold)


def load_synth_spec(path) -> SynthSpec:
    """Read an ``hrm synth`` spec: one [synth] section of SynthSpec fields."""
    path = Path(path)
    if not path.is_file():
        raise MissingAsset(str(path))
    parser = _read_ini(path, {"synth": set(SynthSpec.__dataclass_fields__)})
    if not parser.has_section("synth"):
        raise ParseError(f"{path}: missing [synth] section")
    s, d = parser["synth"], SynthSpec()
    return SynthSpec(
        scenes=_get(s, "scenes", int, d.scenes),
        canvas_width=_get(s, "canvas_width", int, d.canvas_width),
        canvas_height=_get(s, "canvas_height", int, d.canvas_height),
        noise=_get(s, "noise", float, d.noise),
        min_objects=_get(s, "min_objects", int, d.min_objects),
        max_objects=_get(s, "max_objects", int, d.max_objects),
        scales=tuple(_get(s, "scales", _split(float), d.scales)),
    )
