"""End-to-end detection on a single image.

Pipeline: feature volume -> every regressor as one linear filter bank over
the patch windows -> per-context votes -> multi-scale accumulation ->
per-level maxima -> NPMI fusion.  The votes stay in one VoteField of
stacked arrays from the filter bank to the end of fusion, which drops the
zero-weight patches once per image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleModel, InvalidInput
from .evaluate import Detection, box_from_hypothesis
from .features import DERIVATIVE_KERNELS, EXTRACTOR_VERSION, compute_channels
from .features import patch_windows
# Not called here: perfbench counts detection-time patch extractions
# through this name, and with the filter bank that count is 0.
from .features import extract_patch_vector  # noqa: F401
from .fusion import FusionConfig, fuse
from .training import ModelBank
from .voting import (
    HoughCuboid,
    ScaleSet,
    VoteField,
    accumulate_cuboid,
    find_maxima,
)

_BLOCK_BYTES = 1 << 22  # gathered patch windows per GEMM block


@dataclass(frozen=True)
class VotingConfig:
    """Dense-sampling and accumulator settings."""

    stride: int = 1
    bin_size: int = 4
    smoothing: float = 1.5  # Gaussian sigma in cells, 0 = off
    min_score_fraction: float = 0.05  # of the global cuboid maximum
    maxima_radius: int = 3  # cells
    derivative_kernel: str = "sobel"

    def __post_init__(self):
        if self.stride < 1:
            raise InvalidInput(f"stride must be >= 1, got {self.stride}")
        if self.bin_size < 1:
            raise InvalidInput(f"bin_size must be >= 1, got {self.bin_size}")
        if not self.smoothing >= 0:
            raise InvalidInput(f"smoothing must be >= 0, got {self.smoothing}")
        if self.maxima_radius < 1:
            raise InvalidInput(
                f"maxima_radius must be >= 1, got {self.maxima_radius}"
            )
        if self.derivative_kernel not in DERIVATIVE_KERNELS:
            raise InvalidInput(
                f"derivative_kernel must be one of {DERIVATIVE_KERNELS}, "
                f"got {self.derivative_kernel!r}"
            )


@dataclass
class DetectionResult:
    detections: list
    hypotheses_prefusion: list
    cuboid: HoughCuboid
    total_mass: float


def _needed_starts(grid: np.ndarray, offsets: np.ndarray, limit: int) -> np.ndarray:
    """Grid starts plus every in-bounds grid + offset start, sorted."""
    shifted = grid[:, None] + offsets[None, :]
    return np.union1d(grid, shifted[(shifted >= 0) & (shifted < limit)])


def _responses(vol, ps: int, rows: np.ndarray, cols: np.ndarray, coef: np.ndarray):
    """Raw patch vector @ coef at every (row, col) start.

    coef is (d, ...); the result is (rows, cols, ...).  Windows are
    gathered from :func:`~hrm.features.patch_windows` in row blocks that
    keep the gathered copy near _BLOCK_BYTES.
    """
    windows = patch_windows(vol, ps)
    d, k = coef.shape[0], coef.shape[1:]
    flat = coef.reshape(d, -1)
    out = np.empty((len(rows), len(cols)) + k)
    step = max(1, _BLOCK_BYTES // (len(cols) * d * vol.planes.itemsize))
    for i in range(0, len(rows), step):
        block = windows[rows[i : i + step, None], cols]  # (b, cols, ps, ps, 26)
        out[i : i + step] = (block.reshape(-1, d) @ flat).reshape(block.shape[:2] + k)
    return out


def compute_patch_votes(image, bank: ModelBank, cfg: VotingConfig) -> VoteField:
    """Cast votes for every patch on the sampling grid, in grid order.

    Every regressor is linear, so context j's output at start l is
    ``intercept_j + R_j(l) - R_j(l + offset_j)`` with ``R = patch vector @ B``;
    the neighbor term is zero where the neighbor is clipped, as in
    :func:`~hrm.features.context_vectors`.  R is one GEMM over the starts
    the grid and its neighbors need.
    """
    vol = compute_channels(np.asarray(image, dtype=np.float64), cfg.derivative_kernel)
    geom = bank.geometry
    ps = geom.patch_size
    n_x, n_y = vol.width - ps + 1, vol.height - ps + 1  # valid starts per axis
    if n_x < 1 or n_y < 1:
        return VoteField.of([])
    xs = np.arange(0, n_x, cfg.stride)
    ys = np.arange(0, n_y, cfg.stride)

    offsets = np.array(geom.neighbor_offsets, dtype=np.intp).reshape(-1, 2)
    rows = _needed_starts(ys, offsets[:, 1], n_y)
    cols = _needed_starts(xs, offsets[:, 0], n_x)
    resp = _responses(vol, ps, rows, cols, bank.coefficients)  # (rows, cols, m+1, 3)
    row_of = np.full(n_y, -1)
    row_of[rows] = np.arange(len(rows))
    col_of = np.full(n_x, -1)
    col_of[cols] = np.arange(len(cols))

    gy, gx = (a.ravel() for a in np.meshgrid(ys, xs, indexing="ij"))  # grid order
    out = resp[row_of[gy], col_of[gx]]  # (r, m+1, 3)
    for j, (dx, dy) in enumerate(offsets, start=1):
        ny, nx = gy + dy, gx + dx
        inside = (nx >= 0) & (ny >= 0) & (nx < n_x) & (ny < n_y)
        out[inside, j] -= resp[row_of[ny[inside]], col_of[nx[inside]], j]
    out += bank.intercepts

    votes = np.ascontiguousarray(out[..., :2])
    labels = np.ascontiguousarray(out[..., 2])
    weights = (labels > 0).sum(axis=1) / geom.num_context
    centers = np.stack([gx, gy], axis=1) + ps / 2.0
    return VoteField(centers, votes, labels, weights)


def detect(
    image,
    bank: ModelBank,
    scales: ScaleSet = ScaleSet(),
    voting_cfg: VotingConfig = VotingConfig(),
    fusion_cfg: FusionConfig | None = None,
    image_id: str = "",
    apply_fusion: bool = True,
) -> DetectionResult:
    """Run the full detection pipeline on one image."""
    if bank.extractor_version != EXTRACTOR_VERSION:
        raise IncompatibleModel(
            f"bank extractor {bank.extractor_version!r} != {EXTRACTOR_VERSION!r}"
        )
    if fusion_cfg is None:
        fusion_cfg = FusionConfig(bandwidth=2.0 * voting_cfg.bin_size)

    image = np.asarray(image, dtype=np.float64)
    patch_votes = compute_patch_votes(image, bank, voting_cfg)
    cuboid = accumulate_cuboid(
        patch_votes,
        scales,
        (image.shape[1], image.shape[0]),
        voting_cfg.bin_size,
        voting_cfg.smoothing,
    )
    min_score = voting_cfg.min_score_fraction * float(cuboid.levels.max())
    hypotheses = find_maxima(cuboid, min_score, voting_cfg.maxima_radius)

    total_mass = float(cuboid.level_mass.sum())
    if apply_fusion and total_mass > 0:
        kept = fuse(hypotheses, patch_votes, fusion_cfg, total_mass)
    else:
        kept = list(hypotheses)

    detections = [
        Detection(
            image_id,
            h.center,
            h.scale,
            h.score,
            box_from_hypothesis(h.center, h.scale, bank.reference_box),
        )
        for h in kept
    ]
    detections.sort(key=lambda d: (-d.score, d.center[0], d.center[1]))
    return DetectionResult(detections, hypotheses, cuboid, total_mass)
