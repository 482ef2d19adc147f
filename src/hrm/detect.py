"""End-to-end detection on a single image.

Pipeline: feature volume -> every regressor as a linear filter bank over
the patch windows, in two passes (the label columns at every grid start,
which give the gate weights; then the vote columns at the gated-on
starts) -> per-context votes -> multi-scale accumulation -> per-level
maxima -> NPMI fusion.  Both passes read one coset plan of the grid
(:func:`_plan`).  Pass 1 reads every start, so it runs GEMMs on in-place
views of the volume and copies no window (:func:`_grid_responses`).  Pass
2 reads the few gated-on starts, so it gathers just their windows
(:func:`_context_responses`), which is faster there than the in-place
GEMMs over the grid rows they lie on.  The votes stay in one VoteField of
stacked arrays from the filter bank to the end of fusion.  It holds only the
gated-on patches, the only ones with vote mass, and accumulation and
fusion read it as given.  Detection reads the bank's geometry and one
:class:`~hrm.voting.VotingConfig`, the [voting] section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluate import Detection, box_from_hypothesis
from .features import compute_channels, patch_windows
# Not called here: perfbench counts detection-time patch extractions
# through this name, and with the filter bank that count is 0.
from .features import extract_patch_vector  # noqa: F401
from .fusion import fuse
from .image_io import to_grey
from .training import ModelBank
from .voting import (
    HoughCuboid,
    VoteField,
    VotingConfig,
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


def _plan(n_y: int, n_x: int, stride: int, shifts):
    """The coset plan of the sampling grid over n_y x n_x starts: the grid's
    shape (g_y, g_x) and, per stride coset, (contexts, rows, cols, shift,
    lo, hi).

    Context j reads the start ``shifts[j]`` from its own, so shifts equal
    mod stride on both axes share a coset of residues (a, b), whose starts
    are ``rows = range(b, n_y, stride)`` x ``cols = range(a, n_x, stride)``.
    Grid index i's context k reads coset index ``i + shift[k]`` (y, x),
    which exists where lo[k] <= i < hi[k] on both axes.  The zero coset,
    which holds context 0 and whose starts are the grid's, comes first.
    """
    g = np.array([len(range(0, n_y, stride)), len(range(0, n_x, stride))])
    cosets = {}
    for j, (dx, dy) in enumerate(shifts):
        cosets.setdefault((dx % stride, dy % stride), []).append(j)
    plan = []
    for (a, b), js in cosets.items():
        rows, cols = range(b, n_y, stride), range(a, n_x, stride)
        shift = np.array([shifts[j][::-1] for j in js]) // stride
        lo = np.maximum(0, -shift)
        hi = np.minimum(g, np.array([len(rows), len(cols)]) - shift)
        plan.append((js, rows, cols, shift, lo, hi))
    return g, plan


def _context_responses(vol, ps: int, plan, at: np.ndarray, coef):
    """``R_j(l) - R_j(l + offset_j)`` for every context j at the grid indices ``at``.

    R = patch vector @ coef with coef (d, m+1, ...); the result is (len(at),
    m+1, ...).  Context 0 has no neighbor, and a clipped neighbor's R is
    zero, as in :func:`~hrm.features.context_vectors`.  Each coset of
    ``plan`` (:func:`_plan`) takes one :func:`_responses` call, on its
    contexts' columns (all of them on the zero coset, which holds context
    0), at exactly the coset starts that some index of ``at`` reads, in
    coset order.  A read outside [lo, hi) goes to the sentinel one past
    the coset's starts, which maps to the call's zero row.
    """
    g, cosets = plan
    iy, ix = np.divmod(at, g[1])
    out = np.empty((len(at),) + coef.shape[1:])
    for js, rows, cols, shift, lo, hi in cosets:
        end = len(rows) * len(cols)  # the sentinel
        reads = [np.where((ly <= iy) & (iy < hy) & (lx <= ix) & (ix < hx),
                          (iy + sy) * len(cols) + ix + sx, end)
                 for (sy, sx), (ly, lx), (hy, hx) in zip(shift, lo, hi)]
        need = np.zeros(end + 1, dtype=bool)
        for r in reads:
            need[r] = True
        starts = np.flatnonzero(need[:end])
        row = np.full(end + 1, len(starts))  # coset index -> row of resp
        row[starts] = np.arange(len(starts))
        zero = js[0] == 0
        y, x = np.divmod(starts, len(cols))
        resp = _responses(vol, ps, rows.start + rows.step * y, cols.start + cols.step * x,
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


def _grid_responses(vol, ps: int, plan, coef: np.ndarray):
    """``R_j(l) - R_j(l + offset_j)`` for every context j at every grid index l.

    R = patch vector @ coef with coef (d, m+1); the result is (g_y * g_x,
    m+1), in grid order, the same terms as :func:`_context_responses` at
    every index.  Each coset's R comes from one :func:`_dense_responses`
    call on the rectangle of its starts that some grid index reads, and a
    context's term is a shifted slice of it, over [lo, hi): a clipped
    neighbor lies outside the slice.
    """
    g, cosets = plan
    out = np.empty((g[0], g[1], coef.shape[1]))
    for js, rows, cols, shift, lo, hi in cosets:
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
    (:func:`_context_responses`).  Both read one coset plan (:func:`_plan`).
    """
    geom = bank.geometry
    img = to_grey(image)
    ps = geom.patch_size
    n_x, n_y = img.shape[1] - ps + 1, img.shape[0] - ps + 1  # valid starts per axis
    if n_x < 1 or n_y < 1:  # no patch, however small the image
        return VoteField.of([])
    vol = compute_channels(img)
    plan = _plan(n_y, n_x, cfg.stride, geom.shifts)
    coef = bank.coefficients

    labels = _grid_responses(vol, ps, plan, coef[..., 2])
    labels += bank.intercepts[:, 2]
    weights = patch_weight(labels)
    on = np.flatnonzero(weights)  # gated-on grid indices, in grid order
    votes = _context_responses(vol, ps, plan, on, coef[..., :2])
    votes += bank.intercepts[:, :2]

    oy, ox = np.divmod(on, plan[0][1])  # the grid's width
    centers = cfg.stride * np.stack([ox, oy], axis=1) + ps / 2.0
    return VoteField(centers, votes, labels[on], weights[on])


def detect(
    image,
    bank: ModelBank,
    cfg: VotingConfig = VotingConfig(),
    image_id: str = "",
) -> DetectionResult:
    """Run the full detection pipeline on one image; detections in rank order.

    The accumulator cells and their smoothing are :func:`accumulate_cuboid`'s
    defaults, and fusion's kernel bandwidth is two cells.
    """
    image = np.asarray(image, dtype=np.float64)
    patch_votes = compute_patch_votes(image, bank, cfg)
    cuboid = accumulate_cuboid(patch_votes, cfg, (image.shape[1], image.shape[0]))
    min_score = cfg.min_score_fraction * float(cuboid.levels.max())
    hypotheses = find_maxima(cuboid, min_score, cfg.maxima_radius)

    # no vote mass: every level is 0, so no hypotheses and no pair to fuse
    total_mass = float(cuboid.level_mass.sum())
    kept = fuse(hypotheses, patch_votes, 2.0 * cuboid.bin_size, total_mass)

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
