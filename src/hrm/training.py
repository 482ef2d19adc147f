"""Patch sampling, context-encoded training sets, and model-bank fitting.

Positive patches are drawn (without replacement) from inside annotated
boxes and carry a voting vector pointing from the patch center to the box
center.  Negative patches avoid every box.  The sampler also owns the
reference box, the median annotated box: scale-normalized sampling resizes
every box to the reference box's mean side, the sample set carries the
box, and the bank stores it as the size that detection level 1 stands
for.  Each patch contributes m+1 context-encoded rows; the location models
(voting targets) are fitted on positive rows only, while the label models
see both classes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import pls
from .errors import DegenerateFit, IncompatibleModel, InvalidDataset, InvalidInput
from .features import CROP_MARGIN, PatchGeometry, compute_channels, patch_windows
from .image_io import to_grey
# Not called here: perfbench counts training-time patch extractions
# through this name, and with the window gathers that count is 0.
from .features import extract_patch_vector  # noqa: F401


@dataclass(frozen=True)
class SampleSet:
    """Sampled patches as arrays, plus the canvases (images) they index into.

    Row i is the patch whose top-left corner is ``topleft[i]`` (x, y) on
    ``canvases[canvas_ids[i]]``.  The first ``len(votes)`` rows are the
    positives, ``votes`` holding each one's vector from patch center to box
    center; the rest are negatives.  ``reference_box`` is the (width,
    height) that the trained bank's detection level 1 stands for.  With
    per-object scale normalization the canvases include rescaled windows of
    training images, one per box that is not at that size: each is only the
    part of the rescaled image that its box's samples read, plus the margin
    their channels need, so samples always see objects at that size.
    """

    canvases: tuple[np.ndarray, ...]
    canvas_ids: np.ndarray  # (n,)
    topleft: np.ndarray  # (n, 2)
    votes: np.ndarray  # (n_pos, 2)
    reference_box: tuple[float, float]


@dataclass(frozen=True)
class ModelBank:
    """Every voting and label regressor as one stacked linear head.

    coefficients: (d, m+1, 3); entry [:, j] holds voting model j's two
    outputs, then label model j's output.
    intercepts: (m+1, 3), so context j predicts ``x_j @ B_j + intercepts[j]``.
    reference_box: the (width, height) that detection level 1 stands for,
    finite and >= 0 as a model file needs, or InvalidInput.
    """

    coefficients: np.ndarray
    intercepts: np.ndarray
    geometry: PatchGeometry
    reference_box: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "reference_box",
                           _reference_box(self.reference_box, InvalidInput))
        mplus1 = self.geometry.num_context
        shapes = ((self.geometry.vector_length, mplus1, 3), (mplus1, 3))
        if (self.coefficients.shape, self.intercepts.shape) != shapes:
            raise IncompatibleModel(
                f"head shapes {self.coefficients.shape}, {self.intercepts.shape} "
                f"do not match the patch geometry's {shapes[0]}, {shapes[1]}"
            )

    @classmethod
    def from_fits(cls, hrms, lrms, geometry, reference_box=(0.0, 0.0)) -> ModelBank:
        """Stack fitted voting models and label models, one pair per context."""
        pairs = list(zip(hrms, lrms))
        coef = np.stack(
            [np.hstack([h.coefficients, l.coefficients]) for h, l in pairs], axis=1
        )
        bias = np.stack([np.concatenate([h.intercept, l.intercept]) for h, l in pairs])
        return cls(coef, bias, geometry, reference_box)


def _reference_box(box, error) -> tuple[float, float]:
    """``box`` as a (width, height) float pair, or ``error`` unless a model
    file can hold it: two finite numbers >= 0."""
    ref = np.asarray(box)
    if not (ref.shape == (2,) and ref.dtype.kind in "iuf"
            and np.all((0 <= ref) & (ref < np.inf))):  # NaN fails too
        raise error(f"the reference box must be a finite (width, height) >= 0, "
                    f"got {box}")
    return float(ref[0]), float(ref[1])


def _negative_candidates(boxes, shape, ps):
    """Boolean (H-ps+1, W-ps+1) mask of patches that miss every box."""
    h, w = shape
    if h < ps or w < ps:
        return np.zeros((0, 0), dtype=bool)
    ok = np.ones((h - ps + 1, w - ps + 1), dtype=bool)
    for x0, y0, x1, y1 in boxes:
        ys = slice(max(0, y0 - ps + 1), min(h - ps + 1, y1))
        xs = slice(max(0, x0 - ps + 1), min(w - ps + 1, x1))
        ok[ys, xs] = False
    return ok


def _zoom_window(img: np.ndarray, shape, window) -> np.ndarray:
    """``ndimage.zoom(img, factor, order=1, mode="nearest", grid_mode=True)``
    at the (rows, columns) slices ``window`` of its output ``shape``, the
    only pixels computed: the zoom's own coordinates, ``(o + 0.5) * n_in /
    n_out - 0.5`` on each axis, and its interpolation, so the same bits."""
    axes = [(np.arange(s.start, s.stop) + 0.5) * (n_in / n_out) - 0.5
            for s, n_in, n_out in zip(window, img.shape, shape)]
    return ndimage.map_coordinates(img, np.meshgrid(*axes, indexing="ij"),
                                   order=1, mode="nearest")


def _draw(rng, sizes, n):
    """n distinct sorted draws from pools of these sizes laid end to end:
    each draw's pool and its index in that pool."""
    bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
    flat = np.sort(rng.choice(bounds[-1], size=n, replace=False))
    pool = np.searchsorted(bounds, flat, side="right") - 1
    return pool, flat - bounds[pool]


def sample_patches(
    entries,
    n_pos: int,
    n_neg: int,
    geom: PatchGeometry,
    seed: int = 0,
    scale_normalize: bool = False,
) -> SampleSet:
    """Draw n_pos positive and n_neg negative patches from (image, boxes) pairs.

    ``entries`` may be any iterable of the pairs, a generator too: it is
    read once.  The canvases are the images' grey (:func:`to_grey`), so RGB
    is accepted.  Boxes are integer (x0, y0, x1, y1).  The reference box is
    the median box width and height, each over all boxes.  With
    ``scale_normalize``, each box is resized to the reference box's mean
    side before positive sampling: the image is resized by the ratio of
    that side to the box's mean side, and the window of the rescaled image
    that the box's positives read is added to the sample set as a canvas:
    their raw and neighbor windows, widened by ``CROP_MARGIN``, so its
    channels there equal the whole rescaled image's.  A box without a
    patch inside it adds no canvas.  Each class is drawn without
    replacement from all its candidate top-lefts, and its draws are ordered
    by canvas and position.  Deterministic under a fixed seed.  A set
    without boxes is refused, as it has no positives.
    """
    ps = geom.patch_size
    rng = np.random.default_rng(seed)
    entries = list(entries)
    sides = np.array([(x1 - x0, y1 - y0) for _, boxes in entries
                      for x0, y0, x1, y1 in boxes], dtype=np.intp).reshape(-1, 2)
    if not len(sides):
        raise InvalidDataset("no annotated boxes, so no positive patches")
    ref_w, ref_h = (float(v) for v in np.median(sides, axis=0))
    ref_side = (ref_w + ref_h) / 2.0

    canvases = [to_grey(img) for img, _ in entries]
    blocks, centers = [], []  # positives: (canvas_id, x0, y0, nx, ny), box center
    grids, free = [], []  # negatives: (canvas_id, width), flat top-lefts in it
    # a top-left's raw and neighbor windows, widened by the channels' margin,
    # read [top-left + lo, top-left + hi) on each axis (x, y)
    offsets = np.array(((0, 0),) + geom.neighbor_offsets)
    lo = offsets.min(axis=0) - CROP_MARGIN
    hi = offsets.max(axis=0) + ps + CROP_MARGIN

    for idx, (_, boxes) in enumerate(entries):
        img = canvases[idx]
        ok = _negative_candidates(boxes, img.shape, ps)
        if ok.any():
            grids.append((idx, ok.shape[1]))
            free.append(np.flatnonzero(ok))

        for box in boxes:
            x0, y0, x1, y1 = box
            factor = 1.0
            if scale_normalize:
                factor = ref_side / (((x1 - x0) + (y1 - y0)) / 2.0)
            rescaled = abs(factor - 1.0) > 1e-3
            h, w = img.shape
            if rescaled:  # ndimage.zoom's output shape and the box on it
                h, w = (int(round(n * factor)) for n in img.shape)
                x0, y0, x1, y1 = (int(round(v * factor)) for v in box)
            # the top-lefts whose patch lies inside the box: an nx x ny block
            x, y = max(0, x0), max(0, y0)
            nx, ny = min(w - ps, x1 - ps) + 1 - x, min(h - ps, y1 - ps) + 1 - y
            if nx <= 0 or ny <= 0:
                continue
            canvas_id = idx
            if rescaled:  # only the window the block reads, from its origin
                ox, oy = np.maximum((x, y) + lo, 0)
                ex, ey = np.minimum((x + nx - 1, y + ny - 1) + hi, (w, h))
                canvas_id = len(canvases)
                canvases.append(_zoom_window(img, (h, w), (slice(oy, ey), slice(ox, ex))))
                x0, x1, x = x0 - ox, x1 - ox, x - ox
                y0, y1, y = y0 - oy, y1 - oy, y - oy
            blocks.append((canvas_id, x, y, nx, ny))
            centers.append(((x0 + x1) / 2.0, (y0 + y1) / 2.0))

    blocks = np.array(blocks, dtype=np.intp).reshape(-1, 5)
    grids = np.array(grids, dtype=np.intp).reshape(-1, 2)
    pos_sizes = blocks[:, 3] * blocks[:, 4]
    neg_sizes = [len(f) for f in free]
    for kind, have, need in (("positive", pos_sizes.sum(), n_pos),
                             ("negative", sum(neg_sizes), n_neg)):
        if have < need:
            raise InvalidDataset(f"only {have} distinct {kind} patches, need {need}")

    # a positive block's draws run row by row over its nx columns
    k, local = _draw(rng, pos_sizes, n_pos)
    pos_ids, x0, y0, nx, _ = blocks[k].T
    pos = np.stack([x0 + local % nx, y0 + local // nx], axis=1)
    votes = np.array(centers, dtype=np.float64).reshape(-1, 2)[k] - (pos + ps / 2.0)

    # the draws are sorted, so each pool's are one run
    k, local = _draw(rng, neg_sizes, n_neg)
    runs = np.split(local, np.searchsorted(k, np.arange(1, len(free))))
    neg_ids, width = grids[k].T
    at = np.concatenate([np.empty(0, np.intp)] + [f[i] for f, i in zip(free, runs)])
    y, x = np.divmod(at, width)

    return SampleSet(
        tuple(canvases),
        np.concatenate([pos_ids, neg_ids]),
        np.concatenate([pos, np.stack([x, y], axis=1)]),
        votes,
        (ref_w, ref_h),
    )


def fit_context(
    X, votes, cfg: pls.LatentConfig, j: int
) -> tuple[pls.RegressionModel, pls.RegressionModel]:
    """Fit context j's voting and label models; return them as a pair.

    The first ``len(votes)`` rows of X are the positives and the rest the
    negatives.  One Gram per class: the voting fit uses the positives'
    centred moments, and the label fit pools them with the negatives'.  The
    voting fit runs before the negatives' Gram is formed, and the positives'
    Gram is released before the label fit, so at most two p x p arrays are
    alive at once: two Grams, or a fit's Gram and one array built from it:
    the M that ``eigh`` solves in place where the ridge is not small, or,
    at small ridge, the projected Gram that only the dense fallback forms
    (past the Lanczos crossover, or when Lanczos does not converge).
    """

    def fit(X, moments, family):
        try:
            return pls.bpls_fit(X, None, cfg.components, cfg.ridge, moments)
        except DegenerateFit as e:
            raise DegenerateFit(f"{family} model j={j}: {e}") from e

    n_pos = len(votes)
    vote = pls.centred_moments(X[:n_pos], votes, cfg.components)
    hrm = fit(X[:n_pos], vote, "voting")
    label = pls.label_moments(X, n_pos, vote[0], vote[2])
    del vote  # the positives' Gram, now pooled into the label Gram
    return hrm, fit(X, label, "label")


def _checked(ss: SampleSet, ps: int):
    """The set's canvas ids, top-lefts (x, y), votes and reference box, or
    InvalidDataset unless it has both classes, a finite vote per positive,
    every window on an existing canvas and a reference box that a model
    file can hold (finite and >= 0)."""
    cid, topleft, votes = (np.asarray(a) for a in (ss.canvas_ids, ss.topleft, ss.votes))
    if not (cid.ndim == 1 and topleft.shape == (len(cid), 2)
            and votes.ndim == 2 and votes.shape[1] == 2
            and {cid.dtype.kind, topleft.dtype.kind} <= {"i", "u"}
            and votes.dtype.kind in "iuf"):
        raise InvalidDataset("a sample set needs integer canvas ids (n,) and top-lefts "
                             "(n, 2) and numeric votes (n_pos, 2)")
    if not 0 < len(votes) < len(cid):
        raise InvalidDataset(f"training needs samples of both labels, got "
                             f"{len(votes)} positives of {len(cid)} samples")
    if not np.all(np.isfinite(votes)):
        raise InvalidDataset("every positive needs a finite vote")
    if np.any((cid < 0) | (cid >= len(ss.canvases))):
        raise InvalidDataset(f"canvas ids must lie in [0, {len(ss.canvases)})")
    sides = np.array([c.shape[1::-1] for c in ss.canvases], dtype=np.intp)[cid]
    if np.any((topleft < 0) | (topleft + ps > sides)):
        raise InvalidDataset(f"every sample's {ps}x{ps} window must lie on its canvas")
    return (cid.astype(np.intp), topleft.T.astype(np.intp), votes.astype(np.float64),
            _reference_box(ss.reference_box, InvalidDataset))


def train_from_samples(
    sample_set: SampleSet,
    geom: PatchGeometry,
    cfg: pls.LatentConfig,
    workers: int = 1,
) -> ModelBank:
    """Fit the voting and label models of every context and stack them,
    with the set's reference box.

    Rows keep the set's order, positives first.  Each used canvas is one
    task on ``workers`` threads: it computes the feature volume of
    the bounding rectangle of the pixels under its samples' raw and
    neighbor windows, widened by ``CROP_MARGIN`` (so those pixels equal the
    whole canvas's), and keeps only those pixels, as (P, 26) rows plus an
    (H, W) map from each canvas pixel to its row.  The volume is then
    dropped, so at most ``workers`` volumes are alive at once.  Fits one
    context index at a time on a freshly gathered X_j, so a single (n, d)
    predictor matrix is in memory at once, which matters for real patch
    dimensionalities.
    """
    ps = geom.patch_size
    cid, (x, y), votes, reference_box = _checked(sample_set, ps)

    def inside(rows, grid, dx, dy):
        """Rows whose window at top-left + (dx, dy) is in ``grid``, and its (y, x)."""
        nx, ny = x[rows] + dx, y[rows] + dy
        ok = (nx >= 0) & (ny >= 0) & (nx < grid[1]) & (ny < grid[0])
        return rows[ok], ny[ok], nx[ok]

    def compact(c):
        """Canvas c's sample rows, covered feature pixels, index-map windows,
        and (rows of X, raw-window pixel rows) per run of consecutive rows."""
        canvas = sample_set.canvases[c]
        rows = np.flatnonzero(cid == c)
        h, w = canvas.shape[:2]
        pixels = patch_windows(np.arange(h * w).reshape(h, w, 1), ps)
        covered = np.zeros((h, w), dtype=bool)
        for dx, dy in ((0, 0),) + geom.neighbor_offsets:
            _, ny, nx = inside(rows, pixels.shape, dx, dy)
            covered.reshape(-1)[pixels[ny, nx]] = True
        crop = tuple(
            slice(max(0, k[0] - CROP_MARGIN), k[-1] + 1 + CROP_MARGIN)
            for k in (np.flatnonzero(covered.any(axis=1)),
                      np.flatnonzero(covered.any(axis=0)))
        )
        vol = compute_channels(canvas[crop])
        # a covered pixel's row among the kept ones; other entries are never read
        index = np.cumsum(covered, dtype=np.int32).reshape(h, w, 1) - 1
        windows = patch_windows(index, ps)
        raw = windows[y[rows], x[rows]].reshape(len(rows), -1).astype(np.intp)
        cuts = np.flatnonzero(np.diff(rows) != 1) + 1
        runs = [(slice(r[0], r[-1] + 1), k)
                for r, k in zip(np.split(rows, cuts), np.split(raw, cuts))]
        return rows, vol[covered[crop]], windows, runs

    with ThreadPoolExecutor(max_workers=workers) as pool:
        canvases = list(pool.map(compact, np.unique(cid)))

    def context_matrix(j):
        """X_j: every sample's raw patch vector, minus for j >= 1 its j-th
        neighbor's, except where that neighbor is clipped."""
        d = geom.vector_length
        X = np.empty((len(cid), d))
        for rows, values, windows, runs in canvases:
            for block, raw in runs:
                out = X[block].reshape(raw.shape + values.shape[1:])
                np.take(values, raw, axis=0, out=out, mode="clip")  # all in range
            if j:
                rows, ny, nx = inside(rows, windows.shape, *geom.neighbor_offsets[j - 1])
                X[rows] -= values[windows[ny, nx]].reshape(-1, d)
        return X

    hrms, lrms = zip(
        *(fit_context(context_matrix(j), votes, cfg, j) for j in range(geom.num_context))
    )
    return ModelBank.from_fits(hrms, lrms, geom, reference_box=reference_box)
