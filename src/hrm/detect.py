"""End-to-end detection on a single image.

Pipeline: feature volume -> every regressor as a linear filter bank over
the patch windows, one routine run twice (the label columns at every grid
start, which give the gate weights; then the vote columns at the gated-on
starts) -> per-context votes -> multi-scale accumulation -> per-level
maxima -> NPMI fusion.  The votes stay in one VoteField of stacked arrays
from the filter bank to the end of fusion.  It holds only the gated-on
patches, the only ones with vote mass, and accumulation and fusion read it
as given.
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


def _responses(vol, ps: int, rows: np.ndarray, cols: np.ndarray, coef: np.ndarray):
    """Raw patch vector @ coef at each start (rows[i], cols[i]), then a zero row.

    coef is (d, ...); the result is (len(rows) + 1, ...), the last row being
    a clipped neighbor's response.  Windows are gathered from
    :func:`~hrm.features.patch_windows` in blocks of starts that keep the
    gathered copy near _BLOCK_BYTES.
    """
    windows = patch_windows(vol, ps)
    d, k = coef.shape[0], coef.shape[1:]
    flat = np.ascontiguousarray(coef.reshape(d, -1))
    out = np.empty((len(rows) + 1, flat.shape[1]))
    out[-1] = 0.0
    step = max(1, _BLOCK_BYTES // (d * vol.itemsize))
    for i in range(0, len(rows), step):
        block = windows[rows[i : i + step], cols[i : i + step]]  # (b, ps, ps, 26)
        out[i : i + len(block)] = block.reshape(-1, d) @ flat
    return out.reshape((len(rows) + 1,) + k)


def _context_responses(vol, ps: int, stride: int, offsets, at: np.ndarray, coef):
    """``R_j(l) - R_j(l + offset_j)`` for every context j at the grid indices ``at``.

    R = patch vector @ coef with coef (d, m+1, ...); the result is (len(at),
    m+1, ...).  Context 0 has no neighbor, and a clipped neighbor's R is
    zero, as in :func:`~hrm.features.context_vectors`.  Offsets equal mod
    stride on both axes share a stride coset, of residues (a, b) and grid
    ``arange(b, n_y, stride) x arange(a, n_x, stride)``, where grid index
    i's neighbor is ``i + offset // stride``; the zero coset's grid is the
    sampling grid.  Each coset takes one :func:`_responses` call, on its
    contexts' columns (all of them on the zero coset, which holds context
    0), at exactly the starts that some index of ``at`` reads.
    """
    n_y, n_x = vol.shape[0] - ps + 1, vol.shape[1] - ps + 1
    g_y, g_x = len(range(0, n_y, stride)), len(range(0, n_x, stride))
    offsets = ((0, 0),) + tuple(offsets)  # context 0 reads its own start
    cosets = {}  # the zero coset first: context 0's read sets every column
    for j, (dx, dy) in enumerate(offsets):
        cosets.setdefault((dx % stride, dy % stride), []).append(j)
    out = np.empty((len(at),) + coef.shape[1:])
    for (a, b), js in cosets.items():
        rows, cols = np.arange(b, n_y, stride), np.arange(a, n_x, stride)
        # Reads index the coset grid padded by one row and one column: a
        # clipped neighbor reads the padding, which maps to resp's zero row.
        w = len(cols) + 1
        reads = []
        for j in js:
            ty = np.arange(g_y) + offsets[j][1] // stride
            tx = np.arange(g_x) + offsets[j][0] // stride
            ty[(ty < 0) | (ty >= len(rows))] = len(rows)
            tx[(tx < 0) | (tx >= len(cols))] = len(cols)
            reads.append((ty[:, None] * w + tx).ravel()[at])
        need = np.zeros((len(rows) + 1) * w, dtype=bool)
        for r in reads:
            need[r] = True
        need[-w:] = need[w - 1 :: w] = False  # the padding
        starts = np.flatnonzero(need)
        row = np.full(need.size, len(starts))  # padded index -> row of resp
        row[starts] = np.arange(len(starts))
        zero = js[0] == 0
        resp = _responses(vol, ps, rows[starts // w], cols[starts % w],
                          coef if zero else coef[:, js])
        for k, (j, r) in enumerate(zip(js, reads)):
            if j == 0:
                out[:] = resp[row[r]]
            else:
                out[:, j] -= resp[:, j if zero else k][row[r]]
    return out


def compute_patch_votes(image, bank: ModelBank, cfg: VotingConfig) -> VoteField:
    """Cast the votes of every gated-on patch of the sampling grid, in grid order.

    Every regressor is linear, so context j's output at start l is
    ``intercept_j + R_j(l) - R_j(l + offset_j)`` with ``R = patch vector @ B``.
    One routine, :func:`_context_responses`, computes the R terms in both
    passes: pass 1 at every grid index on the label column, which gives
    every patch's gate weight, and pass 2 at the gated-on indices on the two
    vote columns.
    """
    geom = bank.geometry
    vol = compute_channels(np.asarray(image, dtype=np.float64))
    ps = geom.patch_size
    n_x, n_y = vol.shape[1] - ps + 1, vol.shape[0] - ps + 1  # valid starts per axis
    if n_x < 1 or n_y < 1:
        return VoteField.of([])
    xs = np.arange(0, n_x, cfg.stride)
    ys = np.arange(0, n_y, cfg.stride)
    coef, offsets = bank.coefficients, geom.neighbor_offsets

    every = np.arange(len(ys) * len(xs))
    labels = _context_responses(vol, ps, cfg.stride, offsets, every, coef[..., 2])
    labels += bank.intercepts[:, 2]
    weights = patch_weight(labels)
    on = np.flatnonzero(weights)  # gated-on grid indices, in grid order
    votes = _context_responses(vol, ps, cfg.stride, offsets, on, coef[..., :2])
    votes += bank.intercepts[:, :2]

    oy, ox = np.divmod(on, len(xs))
    centers = np.stack([xs[ox], ys[oy]], axis=1) + ps / 2.0
    return VoteField(centers, votes, labels[on], weights[on])


def detect(
    image,
    bank: ModelBank,
    scales: ScaleSet = ScaleSet(),
    voting_cfg: VotingConfig = VotingConfig(),
    fusion_cfg: FusionConfig = FusionConfig(),
    image_id: str = "",
) -> DetectionResult:
    """Run the full detection pipeline on one image; detections in rank order."""
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
    return DetectionResult(detections, hypotheses, cuboid, total_mass)
