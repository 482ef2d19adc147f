"""Patch sampling, context-encoded training sets, and model-bank fitting.

Positive patches are drawn (without replacement) from inside annotated
boxes and carry a voting vector pointing from the patch center to the box
center.  Negative patches avoid every box.  Each patch contributes m+1
context-encoded rows; the location models (voting targets) are fitted on
positive rows only, while the label models see both classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import pls
from .errors import DegenerateFit, IncompatibleModel, InvalidDataset
from .features import EXTRACTOR_VERSION, PatchGeometry, compute_channels, patch_windows
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
    extractor_version: str = EXTRACTOR_VERSION
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
        return cls(coef, bias, geometry, reference_box=reference_box)

    @property
    def num_context(self) -> int:
        return self.geometry.num_context


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


def train_from_samples(
    sample_set: SampleSet,
    geom: PatchGeometry,
    cfg: pls.LatentConfig,
    derivative_kernel: str = "sobel",
    reference_box: tuple[float, float] = (0.0, 0.0),
) -> ModelBank:
    """Fit the voting and label models of every context and stack them.

    Fits one context index at a time, so a single (n, d) predictor matrix
    is in memory at once, which matters for real patch dimensionalities.
    """
    samples = sample_set.samples
    cid, x, y, labels = np.array(
        [(s.canvas_id, *s.topleft, s.label) for s in samples], dtype=np.intp
    ).reshape(-1, 4).T
    labels = labels.astype(np.float64)
    pos = labels > 0
    votes = np.array(
        [s.voting for s in samples if s.label > 0], dtype=np.float64
    ).reshape(int(pos.sum()), 2)
    windows = {}  # canvas id -> (its sample indices, its patch windows)
    for c in np.unique(cid):
        vol = compute_channels(sample_set.canvases[c], derivative_kernel)
        windows[c] = (np.flatnonzero(cid == c), patch_windows(vol, geom.patch_size))

    def gather(dx, dy):
        """Patch vectors at every sample's top-left + (dx, dy), zero where clipped."""
        out = np.zeros((len(samples), geom.vector_length))
        for rows, win in windows.values():
            nx, ny = x[rows] + dx, y[rows] + dy
            ok = (nx >= 0) & (ny >= 0) & (nx < win.shape[1]) & (ny < win.shape[0])
            out[rows[ok]] = win[ny[ok], nx[ok]].reshape(-1, geom.vector_length)
        return out

    def fit(X, Y, j, family):
        try:
            return pls.bpls_fit(X, Y, cfg.components, cfg.ridge)
        except DegenerateFit as e:
            raise DegenerateFit(f"{family} model j={j}: {e}") from e

    def context_matrix(j):
        """X_j: the raw rows for j = 0, else raw minus the j-th neighbor's rows."""
        if j == 0:
            return raw
        neighbor = gather(*geom.neighbor_offsets[j - 1])
        return np.subtract(raw, neighbor, out=neighbor)

    raw = gather(0, 0)
    hrms, lrms = [], []
    for j in range(geom.num_context):
        X = context_matrix(j)
        hrms.append(fit(X[pos], votes, j, "voting"))
        lrms.append(fit(X, labels[:, None], j, "label"))
    return ModelBank.from_fits(hrms, lrms, geom, reference_box=reference_box)
