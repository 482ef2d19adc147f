"""Patch sampling, context-encoded training sets, and model-bank fitting.

Positive patches are drawn (without replacement) from inside annotated
boxes and carry a voting vector pointing from the patch center to the box
center.  Negative patches avoid every box.  Each patch contributes m+1
context-encoded rows; the location models (voting targets) are fitted on
positive rows only, while the label models see both classes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import pls
from .errors import DegenerateFit, IncompatibleModel, InvalidDataset
from .features import CROP_MARGIN, PatchGeometry, compute_channels, patch_windows
# Not called here: perfbench counts training-time patch extractions
# through this name, and with the window gathers that count is 0.
from .features import extract_patch_vector  # noqa: F401


@dataclass(frozen=True)
class TrainingSample:
    """One sampled patch: canvas index, top-left corner, class, vote target."""

    canvas_id: int
    topleft: tuple[int, int]
    label: int  # +1 or -1
    voting: np.ndarray | None = None  # (2,), positives only


@dataclass(frozen=True)
class SampleSet:
    """Sampled patches plus the canvases (images) they index into.

    With per-object scale normalization the canvases include rescaled
    copies of training images, so samples always see objects at the
    training scale.
    """

    canvases: tuple[np.ndarray, ...]
    samples: tuple[TrainingSample, ...]


@dataclass(frozen=True)
class ModelBank:
    """Every voting and label regressor as one stacked linear head.

    coefficients: (d, m+1, 3); entry [:, j] holds voting model j's two
    outputs, then label model j's output.
    intercepts: (m+1, 3), so context j predicts ``x_j @ B_j + intercepts[j]``.
    """

    coefficients: np.ndarray
    intercepts: np.ndarray
    geometry: PatchGeometry
    reference_box: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        mplus1 = self.geometry.num_context
        shapes = ((self.geometry.vector_length, mplus1, 3), (mplus1, 3))
        if (self.coefficients.shape, self.intercepts.shape) != shapes:
            raise IncompatibleModel(
                f"head shapes {self.coefficients.shape}, {self.intercepts.shape} "
                f"do not match the patch geometry's {shapes[0]}, {shapes[1]}"
            )

    @classmethod
    def from_fits(cls, hrms, lrms, geometry, reference_box=(0.0, 0.0)) -> ModelBank:
        """Stack fitted voting models and label models, one pair per context.

        Each fit ``mean_y + (x - mean_x) B`` becomes ``x B + (mean_y - mean_x B)``.
        """
        pairs = list(zip(hrms, lrms))
        coef = np.stack(
            [np.hstack([h.coefficients, l.coefficients]) for h, l in pairs], axis=1
        )
        bias = np.stack(
            [
                np.concatenate([m.mean_y - m.mean_x @ m.coefficients for m in (h, l)])
                for h, l in pairs
            ]
        )
        return cls(coef, bias, geometry, reference_box)


def _positive_candidates(boxes, shape, ps):
    """Top-left positions whose patch lies fully inside some box."""
    h, w = shape
    out = []
    for x0, y0, x1, y1 in boxes:
        xs = np.arange(max(0, x0), min(w - ps, x1 - ps) + 1)
        ys = np.arange(max(0, y0), min(h - ps, y1 - ps) + 1)
        if len(xs) and len(ys):
            cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
            out.append((xs, ys, (cx, cy)))
    return out


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


def _resize(img: np.ndarray, factor: float) -> np.ndarray:
    return ndimage.zoom(img, factor, order=1, mode="nearest", grid_mode=True)


def sample_patches(
    entries,
    n_pos: int,
    n_neg: int,
    geom: PatchGeometry,
    seed: int = 0,
    reference_size: float | None = None,
) -> SampleSet:
    """Draw n_pos positive and n_neg negative patches from (image, boxes) pairs.

    When ``reference_size`` is given, each annotated box is normalized to
    that size before positive sampling: the image is resized by
    reference/box ratio and a rescaled canvas is added to the sample set.
    Deterministic under a fixed seed.
    """
    ps = geom.patch_size
    rng = np.random.default_rng(seed)

    canvases = [np.asarray(img, dtype=np.float64) for img, _ in entries]
    pos_pool = []  # (canvas_id, xs, ys, box_center)
    neg_pool = []  # (canvas_id, y, x) arrays

    for idx, (img, boxes) in enumerate(entries):
        img = canvases[idx]
        ok = _negative_candidates(boxes, img.shape, ps)
        if ok.size:
            ys, xs = np.nonzero(ok)
            if len(ys):
                neg_pool.append((idx, ys, xs))

        for box in boxes:
            x0, y0, x1, y1 = box
            if reference_size is not None:
                size = ((x1 - x0) + (y1 - y0)) / 2.0
                factor = reference_size / size
            else:
                factor = 1.0
            if abs(factor - 1.0) > 1e-3:
                canvas = _resize(img, factor)
                canvas_id = len(canvases)
                canvases.append(canvas)
                sbox = tuple(int(round(v * factor)) for v in box)
            else:
                canvas, canvas_id, sbox = img, idx, box
            for xs2, ys2, center in _positive_candidates([sbox], canvas.shape, ps):
                pos_pool.append((canvas_id, xs2, ys2, center))

    total_pos = sum(len(xs) * len(ys) for _, xs, ys, _ in pos_pool)
    total_neg = sum(len(ys) for _, ys, _ in neg_pool)
    if total_pos < n_pos:
        raise InvalidDataset(f"only {total_pos} distinct positive patches, need {n_pos}")
    if total_neg < n_neg:
        raise InvalidDataset(f"only {total_neg} distinct negative patches, need {n_neg}")

    samples: list[TrainingSample] = []

    # positives: flatten the per-box grids into one global index space
    sizes = [len(xs) * len(ys) for _, xs, ys, _ in pos_pool]
    bounds = np.cumsum([0] + sizes)
    chosen = rng.choice(total_pos, size=n_pos, replace=False)
    for flat in np.sort(chosen):
        k = np.searchsorted(bounds, flat, side="right") - 1
        cid, xs, ys, (cx, cy) = pos_pool[k]
        local = flat - bounds[k]
        x = int(xs[local % len(xs)])
        y = int(ys[local // len(xs)])
        voting = np.array([cx - (x + ps / 2.0), cy - (y + ps / 2.0)])
        samples.append(TrainingSample(cid, (x, y), +1, voting))

    sizes = [len(ys) for _, ys, _ in neg_pool]
    bounds = np.cumsum([0] + sizes)
    chosen = rng.choice(total_neg, size=n_neg, replace=False)
    for flat in np.sort(chosen):
        k = np.searchsorted(bounds, flat, side="right") - 1
        cid, ys, xs = neg_pool[k]
        local = flat - bounds[k]
        samples.append(TrainingSample(cid, (int(xs[local]), int(ys[local])), -1))

    return SampleSet(tuple(canvases), tuple(samples))


def fit_context(
    X, votes, cfg: pls.LatentConfig, j: int
) -> tuple[pls.RegressionModel, pls.RegressionModel]:
    """Fit context j's voting and label models; return them as a pair.

    The first ``len(votes)`` rows of X are the positives and the rest the
    negatives.  One Gram per class: the voting fit uses the positives'
    centred moments, and the label fit pools them with the negatives'.
    """
    n_pos = len(votes)
    labels = np.where(np.arange(len(X)) < n_pos, 1.0, -1.0)[:, None]
    vote = pls.centred_moments(X[:n_pos], votes, cfg.components)
    label = pls.label_moments(X, n_pos, vote[0], vote[2])

    def fit(X, Y, moments, family):
        try:
            return pls.bpls_fit(X, Y, cfg.components, cfg.ridge, moments)
        except DegenerateFit as e:
            raise DegenerateFit(f"{family} model j={j}: {e}") from e

    return fit(X[:n_pos], votes, vote, "voting"), fit(X, labels, label, "label")


def train_from_samples(
    sample_set: SampleSet,
    geom: PatchGeometry,
    cfg: pls.LatentConfig,
    reference_box: tuple[float, float] = (0.0, 0.0),
    workers: int = 1,
) -> ModelBank:
    """Fit the voting and label models of every context and stack them.

    Rows are ordered positives first, each class in sample order, so the
    bank does not depend on how the classes interleave.  Each used canvas
    is one task on ``workers`` threads: it computes the feature volume of
    the bounding rectangle of the pixels under its samples' raw and
    neighbor windows, widened by ``CROP_MARGIN`` (so those pixels equal the
    whole canvas's), and keeps only those pixels, as (P, 26) rows plus an
    (H, W) map from each canvas pixel to its row.  The volume is then
    dropped, so at most ``workers`` volumes are alive at once.  Fits one
    context index at a time, so a single (n, d) predictor matrix is in
    memory at once, which matters for real patch dimensionalities.
    """
    ps = geom.patch_size
    positives = [s for s in sample_set.samples if s.label == 1]
    negatives = [s for s in sample_set.samples if s.label == -1]
    if len(positives) + len(negatives) != len(sample_set.samples):
        raise InvalidDataset("sample labels must be +1 or -1")
    if not positives or not negatives:
        raise InvalidDataset(
            f"training needs samples of both labels, got {len(positives)} "
            f"positive and {len(negatives)} negative"
        )
    samples = positives + negatives
    cid, x, y = np.array(
        [(s.canvas_id, *s.topleft) for s in samples], dtype=np.intp
    ).T
    votes = np.array([s.voting for s in positives], dtype=np.float64)

    def inside(rows, grid, dx, dy):
        """Rows whose window at top-left + (dx, dy) is in ``grid``, and its (y, x)."""
        nx, ny = x[rows] + dx, y[rows] + dy
        ok = (nx >= 0) & (ny >= 0) & (nx < grid[1]) & (ny < grid[0])
        return rows[ok], ny[ok], nx[ok]

    def compact(c):
        """Canvas c's sample rows, covered feature pixels and index-map windows."""
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
        vol = compute_channels(canvas[crop], geom.derivative_kernel)
        # a covered pixel's row among the kept ones; other entries are never read
        index = np.cumsum(covered, dtype=np.int32).reshape(h, w, 1) - 1
        return rows, vol[covered[crop]], patch_windows(index, ps)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        canvases = list(pool.map(compact, np.unique(cid)))

    def gather(dx, dy):
        """Patch vectors at every sample's top-left + (dx, dy), zero where clipped."""
        out = np.zeros((len(samples), geom.vector_length))
        for rows, values, windows in canvases:
            rows, ny, nx = inside(rows, windows.shape, dx, dy)
            out[rows] = values[windows[ny, nx]].reshape(-1, geom.vector_length)
        return out

    def context_matrix(j):
        """X_j: the raw rows for j = 0, else raw minus the j-th neighbor's rows."""
        if j == 0:
            return raw
        neighbor = gather(*geom.neighbor_offsets[j - 1])
        return np.subtract(raw, neighbor, out=neighbor)

    raw = gather(0, 0)
    hrms, lrms = zip(
        *(fit_context(context_matrix(j), votes, cfg, j) for j in range(geom.num_context))
    )
    return ModelBank.from_fits(hrms, lrms, geom, reference_box=reference_box)
