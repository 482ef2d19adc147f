"""End-to-end detection on a single image.

Pipeline: feature volume -> every regressor as a linear filter bank over
the patch windows (the grid's, then each stride coset's neighbors') ->
per-context votes -> multi-scale accumulation ->
per-level maxima -> NPMI fusion.  The votes stay in one VoteField of
stacked arrays from the filter bank to the end of fusion; accumulation
and fusion read its nonzero-weight rows (``VoteField.carrying``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .evaluate import Detection, box_from_hypothesis
from .features import compute_channels, patch_windows
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
    patch_weight,
)

# Gathered patch windows per GEMM block, sized to the L2 cache: at 1 MB a
# block (one c6 grid row, 110 starts) and OpenBLAS's packed copy of it stay
# in a core's 2 MB L2, where larger blocks leave it before they are packed.
# Single-thread compute_patch_votes per c6 image (2-core Xeon, 2 MB L2 per
# core): 4 MB 213-248 ms, 2 MB 192-207, 1 MB 170-193, 512 KB 183-200.
_BLOCK_BYTES = 1 << 20
# SciPy's gaussian_filter builds 2 * int(4 sigma + 0.5) + 1 float64 taps
# and runs every one over every cell.  At 1e6 cells that is a 64 MB kernel
# and over half a minute per level of a 224^2 image at 4 px cells; each
# tenfold costs ten times more, until the kernel outgrows memory.
_MAX_SMOOTHING = 1e6


@dataclass(frozen=True)
class VotingConfig:
    """Dense-sampling and accumulator settings."""

    stride: int = 1
    bin_size: int = 4
    smoothing: float = 1.5  # Gaussian sigma in cells, 0 = off
    min_score_fraction: float = 0.05  # of the global cuboid maximum
    maxima_radius: int = 3  # cells

    def __post_init__(self):
        if not 1 <= self.stride < 2**63:
            raise InvalidInput(f"stride must be in [1, 2**63), got {self.stride}")
        if self.bin_size < 1:
            raise InvalidInput(f"bin_size must be >= 1, got {self.bin_size}")
        if not 0 <= self.smoothing <= _MAX_SMOOTHING:
            raise InvalidInput(
                f"smoothing must be in [0, {_MAX_SMOOTHING:g}], got {self.smoothing}"
            )
        if not 0 <= self.min_score_fraction <= 1:
            raise InvalidInput(
                f"min_score_fraction must be in [0, 1], got {self.min_score_fraction}"
            )
        if self.maxima_radius < 1:
            raise InvalidInput(
                f"maxima_radius must be >= 1, got {self.maxima_radius}"
            )


@dataclass
class DetectionResult:
    detections: list
    hypotheses_prefusion: list
    cuboid: HoughCuboid
    total_mass: float


def _run(n: int, m: int, q: int) -> tuple[slice, slice]:
    """Slices of grid indices i < n whose neighbor i + q is below m, and of those neighbors."""
    lo = max(0, -q)
    hi = max(lo, min(n, m - q))
    return slice(lo, hi), slice(lo + q, hi + q)


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
    step = max(1, _BLOCK_BYTES // (len(cols) * d * vol.itemsize))
    for i in range(0, len(rows), step):
        block = windows[rows[i : i + step, None], cols]  # (b, cols, ps, ps, 26)
        out[i : i + step] = (block.reshape(-1, d) @ flat).reshape(block.shape[:2] + k)
    return out


def compute_patch_votes(image, bank: ModelBank, cfg: VotingConfig) -> VoteField:
    """Cast votes for every patch on the sampling grid, in grid order.

    Every regressor is linear, so context j's output at start l is
    ``intercept_j + R_j(l) - R_j(l + offset_j)`` with ``R = patch vector @ B``;
    the neighbor term is zero where the neighbor is clipped, as in
    :func:`~hrm.features.context_vectors`.  R is one GEMM over the grid
    with every column, plus one GEMM per stride coset of the neighbor
    offsets (offsets equal mod stride on both axes, residues (a, b)) over
    its grid ``arange(b, n_y, stride) x arange(a, n_x, stride)`` with only
    its contexts' columns; a one-sided offset can add a few edge rows no
    neighbor needs.  The zero coset's grid is the sampling grid.  Each
    context's in-bounds starts and their neighbors are one slice of each
    grid: grid index i's neighbor for offset d is coset index
    ``i + d // stride`` (:func:`_run`).  A coset whose slices are all
    empty is skipped.
    """
    geom = bank.geometry
    vol = compute_channels(np.asarray(image, dtype=np.float64))
    ps = geom.patch_size
    n_x, n_y = vol.shape[1] - ps + 1, vol.shape[0] - ps + 1  # valid starts per axis
    if n_x < 1 or n_y < 1:
        return VoteField.of([])
    stride = cfg.stride
    xs = np.arange(0, n_x, stride)
    ys = np.arange(0, n_y, stride)
    coef = bank.coefficients
    grid = _responses(vol, ps, ys, xs, coef)  # (ys, xs, m+1, 3)

    offsets = np.array(geom.neighbor_offsets, dtype=np.intp).reshape(-1, 2)
    cosets = {}
    for j, (dx, dy) in enumerate(offsets, start=1):
        cosets.setdefault((dx % stride, dy % stride), []).append(j)
    for (a, b), js in cosets.items():
        rows, cols = np.arange(b, n_y, stride), np.arange(a, n_x, stride)
        zero = (a, b) == (0, 0)  # its neighbors are grid starts
        runs = []
        for k, j in enumerate(js):
            dx, dy = offsets[j - 1]
            iy, ry = _run(len(ys), len(rows), dy // stride)
            ix, rx = _run(len(xs), len(cols), dx // stride)
            if iy.start < iy.stop and ix.start < ix.stop:
                runs.append((j, j if zero else k, iy, ix, ry, rx))
        if not runs:
            continue  # every neighbor of the coset is clipped
        resp = grid if zero else _responses(vol, ps, rows, cols, coef[:, js])
        for j, k, iy, ix, ry, rx in runs:
            # In the zero coset resp is grid: column j is written only by
            # its own subtraction, and NumPy buffers the overlapping read.
            grid[iy, ix, j] -= resp[ry, rx, k]
    gy, gx = (a.ravel() for a in np.meshgrid(ys, xs, indexing="ij"))  # grid order
    out = grid.reshape((len(gy),) + coef.shape[1:])  # (r, m+1, 3)
    out += bank.intercepts

    centers = np.stack([gx, gy], axis=1) + ps / 2.0
    labels = out[..., 2]
    return VoteField(centers, out[..., :2], labels, patch_weight(labels))


def detect(
    image,
    bank: ModelBank,
    scales: ScaleSet = ScaleSet(),
    voting_cfg: VotingConfig = VotingConfig(),
    fusion_cfg: FusionConfig = FusionConfig(),
    image_id: str = "",
) -> DetectionResult:
    """Run the full detection pipeline on one image."""
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

    # no vote mass: every level is 0, so no hypotheses and no pair to fuse
    total_mass = float(cuboid.level_mass.sum())
    kept = fuse(hypotheses, patch_votes, fusion_cfg, total_mass)

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
