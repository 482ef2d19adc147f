"""Key-value configuration files (INI sections mirror module names).

Example:

    [pls]
    components = 100
    ridge = 1e-10

    [features]
    patch_size = 16
    derivative_kernel = sobel

    [training]
    n_pos = 12000
    n_neg = 12000
    seed = 0
    scale_normalize = false

    [voting]
    scales = 0.75 1 1.25 1.5
    stride = 1
    bin_size = 4
    smoothing = 1.5
    min_score_fraction = 0.05
    maxima_radius = 3

    [fusion]
    kernel = gaussian
    bandwidth = 8
    probability_floor = 1e-12

CLI flags override file values; unspecified keys keep the defaults above.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .detect import VotingConfig
from .errors import InvalidInput, ParseError
from .features import PatchGeometry
from .fusion import FusionConfig
from .pls import METHODS, LatentConfig
from .voting import ScaleSet


@dataclass(frozen=True)
class TrainingConfig:
    n_pos: int = 12000
    n_neg: int = 12000
    seed: int = 0
    method: str = "bpls"
    scale_normalize: bool = False

    def __post_init__(self):
        if self.n_pos < 1 or self.n_neg < 1:
            raise InvalidInput(
                f"n_pos and n_neg must be >= 1, got {self.n_pos} and {self.n_neg}"
            )
        if self.method not in METHODS:
            raise InvalidInput(f"method must be one of {METHODS}, got {self.method!r}")


@dataclass(frozen=True)
class PipelineConfig:
    pls: LatentConfig = field(default_factory=LatentConfig)
    geometry: PatchGeometry = field(default_factory=PatchGeometry)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    scales: ScaleSet = field(default_factory=ScaleSet)
    voting: VotingConfig = field(default_factory=VotingConfig)
    fusion: FusionConfig | None = None  # None = bandwidth from bin size
    iou_threshold: float = 0.5


def _get(section, key, cast, default):
    if section is None or key not in section:
        return default
    try:
        if cast is bool:
            return section.getboolean(key)
        return cast(section[key])
    except ValueError as e:
        raise ParseError(f"config key {key!r}: {e}") from e


def load_config(path=None) -> PipelineConfig:
    """Read a config file; a missing path yields all defaults."""
    parser = configparser.ConfigParser()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ParseError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as e:
            raise ParseError(str(e)) from e

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
    if s is not None and "neighbor_offsets" in s:
        vals = [int(v) for v in s["neighbor_offsets"].split()]
        if len(vals) % 2:
            raise ParseError("neighbor_offsets needs an even count of integers")
        offsets = tuple(zip(vals[::2], vals[1::2]))
    geometry = PatchGeometry(patch_size, offsets)
    derivative_kernel = _get(s, "derivative_kernel", str, "sobel")

    s = section("training")
    training = TrainingConfig(
        n_pos=_get(s, "n_pos", int, 12000),
        n_neg=_get(s, "n_neg", int, 12000),
        seed=_get(s, "seed", int, 0),
        method=_get(s, "method", str, "bpls"),
        scale_normalize=_get(s, "scale_normalize", bool, False),
    )

    s = section("voting")
    scale_list = tuple(
        float(v) for v in _get(s, "scales", str, "0.75 1 1.25 1.5").split()
    )
    scales = ScaleSet(scale_list, _get(s, "train_scale", float, 1.0))
    voting = VotingConfig(
        stride=_get(s, "stride", int, 1),
        bin_size=_get(s, "bin_size", int, 4),
        smoothing=_get(s, "smoothing", float, 1.5),
        min_score_fraction=_get(s, "min_score_fraction", float, 0.05),
        maxima_radius=_get(s, "maxima_radius", int, 3),
        derivative_kernel=derivative_kernel,
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
