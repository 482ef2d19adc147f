"""End-to-end detection on a single image.

Pipeline: feature volume -> every regressor as a linear filter bank over
the patch windows, in two passes (the label columns at every grid start,
which give the gate weights; then the vote columns at the gated-on
starts) -> per-context votes -> multi-scale accumulation -> per-level
maxima -> NPMI fusion.  Pass 1 reads every start, so it runs GEMMs on
in-place views of the volume and copies no window
(:func:`_grid_responses`).  Pass 2 reads the few gated-on starts, so it
gathers just their windows (:func:`_context_responses`): on c6 test images
the in-place GEMMs over the grid rows it reads took 24-26 ms per image,
against 12-16 ms gathered.  The votes stay in one VoteField of stacked
arrays from the filter bank to the end of fusion.  It holds only the
gated-on patches, the only ones with vote mass, and accumulation and
fusion read it as given.
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

# Gathered patch windows per GEMM block of pass 2, sized to the L2 cache:
# a 1 MB block and OpenBLAS's packed copy of it stay in a core's 2 MB L2.
# Single-thread pass 2 per criterion-6 test image with a c6 model (2-core
# Xeon, 2 MB L2 per core; median of 20 images, two rounds, ms): 4 MB
# 17.9/13.9, 2 MB 17.8/13.4, 1 MB 12.6/11.7, 512 KB 13.9/10.4, 256 KB
# 10.7/10.7.  At 1 MB and below the spread between rounds exceeds the
# differences.
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


def _cosets(stride: int, offsets):
    """Context indices per stride coset, the zero coset (which holds context
    0, whose neighbor is its own start) first."""
    cosets = {}
    for j, (dx, dy) in enumerate(((0, 0),) + tuple(offsets)):
        cosets.setdefault((dx % stride, dy % stride), []).append(j)
    return cosets


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
    out = np.empty((len(at),) + coef.shape[1:])
    cosets = _cosets(stride, offsets)
    offsets = ((0, 0),) + tuple(offsets)  # context 0 reads its own start
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


def _dense_responses(vol, ps: int, rows: range, cols: range, coef: np.ndarray):
    """Raw patch vector @ coef at every start (rows[i], cols[j]).

    rows and cols step by the same stride, and coef is (d, k); the result is
    (len(rows), len(cols), k).  Starts r = ceil(ps / stride) columns apart
    have disjoint windows, so row u of the windows of every r-th start is a
    strided view of the volume that BLAS reads in place.  So it runs one
    GEMM per window row and column class, on coef's rows for that window
    row, and copies no window.
    """
    flat = np.ascontiguousarray(coef)
    k = flat.shape[0] // ps  # one window row: ps pixels x 26 channels
    windows = patch_windows(vol, ps)[
        rows.start : rows.stop : rows.step, cols.start : cols.stop : cols.step
    ]
    r = -(-ps // cols.step)
    out = np.empty(windows.shape[:2] + flat.shape[1:])
    for c in range(r):
        part = windows[:, c::r]
        shape = part.shape[:2] + (k,)
        acc = part[:, :, 0].reshape(shape) @ flat[:k]
        for u in range(1, ps):
            acc += part[:, :, u].reshape(shape) @ flat[u * k : (u + 1) * k]
        out[:, c::r] = acc
    return out


def _grid_responses(vol, ps: int, stride: int, offsets, coef: np.ndarray):
    """``R_j(l) - R_j(l + offset_j)`` for every context j at every grid index l.

    R = patch vector @ coef with coef (d, m+1); the result is (g_y * g_x,
    m+1), in grid order, the same cosets as :func:`_context_responses` at
    every index.  Each coset's R comes from one :func:`_dense_responses`
    call on the rectangle of its starts that some grid index reads, and a
    context's term is a shifted slice of it: a clipped neighbor lies
    outside the slice.
    """
    n_y, n_x = vol.shape[0] - ps + 1, vol.shape[1] - ps + 1
    g = np.array([len(range(0, n_y, stride)), len(range(0, n_x, stride))])
    out = np.empty((g[0], g[1], coef.shape[1]))
    offs = ((0, 0),) + tuple(offsets)
    for (a, b), js in _cosets(stride, offsets).items():
        rows, cols = range(b, n_y, stride), range(a, n_x, stride)
        # grid index i reads coset index i + shift; [lo, hi) is where that
        # neighbor exists, per context and axis (y, x)
        shift = np.array([offs[j][::-1] for j in js]) // stride
        lo = np.maximum(0, -shift)
        hi = np.minimum(g, np.array([len(rows), len(cols)]) - shift)
        live = np.all(lo < hi, axis=1)
        if not live.any():
            continue
        (y0, x0), (y1, x1) = (lo + shift)[live].min(0), (hi + shift)[live].max(0)
        zero = js[0] == 0
        resp = _dense_responses(vol, ps, rows[y0:y1], cols[x0:x1],
                                coef if zero else coef[:, js])
        for k in np.flatnonzero(live):
            j = js[k]
            (ly, lx), (hy, hx), (sy, sx) = lo[k], hi[k], shift[k] - (y0, x0)
            if j == 0:
                out[:] = resp
            else:
                out[ly:hy, lx:hx, j] -= resp[ly + sy : hy + sy, lx + sx : hx + sx,
                                             j if zero else k]
    return out.reshape(-1, coef.shape[1])


def compute_patch_votes(image, bank: ModelBank, cfg: VotingConfig) -> VoteField:
    """Cast the votes of every gated-on patch of the sampling grid, in grid order.

    Every regressor is linear, so context j's output at start l is
    ``intercept_j + R_j(l) - R_j(l + offset_j)`` with ``R = patch vector @ B``.
    Pass 1 computes the R terms of the label column at every grid index
    (:func:`_grid_responses`), which gives every patch's gate weight; pass 2
    those of the two vote columns at the gated-on indices
    (:func:`_context_responses`).
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

    labels = _grid_responses(vol, ps, cfg.stride, offsets, coef[..., 2])
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
