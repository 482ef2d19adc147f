"""Per-pixel feature channels and patch feature vectors.

An image's grey (:func:`~hrm.image_io.to_grey`, so RGB is accepted) becomes
a 26-plane feature volume: 13 base channels (absolute Sobel/8 x/y
derivatives, absolute second x/y derivatives, and 9 orientation-histogram
channels accumulated over a 5x5 window), max-filtered in planes 0-12 and
min-filtered in planes 13-25.  :data:`EXTRACTOR_VERSION` names this one
extractor.  The volume is stored pixel-major, so a patch vector (all 26
channels per pixel, row-major over the patch) is a window of it;
:func:`patch_windows` is the view training and detection read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .errors import InvalidInput, OutOfBounds, check_integer
from .image_io import to_grey

# Bump whenever the channel layout or filtering changes; serialized models
# record this tag and refuse to load against a different extractor.
EXTRACTOR_VERSION = "chan26-v1"

N_BASE_CHANNELS = 13
N_CHANNELS = 2 * N_BASE_CHANNELS
HOG_BINS = 9
_WINDOW = 5  # orientation-histogram and min/max filter window
_STRIP = 16  # output rows per strip of the 5x5 sums and min/max filters
_BIN_IDS = np.arange(HOG_BINS)[:, None, None]
# Pixels from a crop edge at which the channels can differ from the whole
# image's: derivative radius 1, 5x5 sum radius 2, min/max radius 2.
CROP_MARGIN = 5


def _default_offsets(patch_size: int) -> tuple[tuple[int, int], ...]:
    """8 adjacent offsets at +-patch_size plus 8 overlapping at half that."""
    offsets = []
    for step in (patch_size, patch_size // 2):
        for dy in (-step, 0, step):
            for dx in (-step, 0, step):
                if (dx, dy) != (0, 0):
                    offsets.append((dx, dy))
    return tuple(offsets)


@dataclass(frozen=True)
class PatchGeometry:
    """The extractor's patch layout: patch size and neighbor offsets."""

    patch_size: int = 16
    neighbor_offsets: tuple[tuple[int, int], ...] = None

    def __post_init__(self):
        check_integer("patch_size", self.patch_size, 1)
        if self.neighbor_offsets is None:
            object.__setattr__(
                self, "neighbor_offsets", _default_offsets(self.patch_size)
            )
        offs = tuple(tuple(o) for o in self.neighbor_offsets)
        if any(len(o) != 2 for o in offs):
            raise InvalidInput("neighbor offsets must be (dx, dy) pairs")
        for v in (v for o in offs for v in o):
            check_integer("a neighbor offset", v)
        offs = tuple((int(dx), int(dy)) for dx, dy in offs)
        if len(set(offs)) != len(offs) or (0, 0) in offs:
            raise InvalidInput("neighbor offsets must be distinct and nonzero")
        if not all(-(2**31) <= v < 2**31 for o in offs for v in o):
            raise InvalidInput("neighbor offsets must fit in 32-bit signed integers")
        object.__setattr__(self, "neighbor_offsets", offs)

    @property
    def shifts(self) -> tuple[tuple[int, int], ...]:
        """Each context's window relative to the patch's own, as (dx, dy):
        context 0 reads the patch itself, context j its j-th neighbor."""
        return ((0, 0),) + self.neighbor_offsets

    @property
    def num_context(self) -> int:
        return len(self.shifts)

    @property
    def vector_length(self) -> int:
        return self.patch_size * self.patch_size * N_CHANNELS


def _gradients(img: np.ndarray):
    """First x and y derivatives (Sobel/8) of a grey image, and each pixel's
    unsigned orientation bin (0..8)."""
    gx, gy = (ndimage.sobel(img, axis=a, mode="nearest") / 8.0 for a in (1, 0))
    ang = np.mod(np.arctan2(gy, gx), np.pi)  # unsigned orientation in [0, pi)
    bins = np.minimum((ang / (np.pi / HOG_BINS)).astype(np.intp), HOG_BINS - 1)
    return gx, gy, bins


def base_channels(img) -> np.ndarray:
    """The 13 unfiltered channels of an image's grey, shape (13, H, W)."""
    img = to_grey(img)
    if img.shape[0] < _WINDOW or img.shape[1] < _WINDOW:
        raise InvalidInput(f"image must be at least {_WINDOW}x{_WINDOW} grayscale")

    gx, gy, bins = _gradients(img)
    lxx = ndimage.correlate1d(img, [1.0, -2.0, 1.0], axis=1, mode="nearest")
    lyy = ndimage.correlate1d(img, [1.0, -2.0, 1.0], axis=0, mode="nearest")

    channels = np.empty((N_BASE_CHANNELS,) + img.shape)
    channels[0] = np.abs(gx)
    channels[1] = np.abs(gy)
    channels[2] = np.abs(lxx)
    channels[3] = np.abs(lyy)

    mag = np.hypot(gx, gy)
    # Each bin's magnitude summed over 5x5 as five shifted slices per axis of
    # the edge-padded (9, rows, W) stack.  A running sum would make a pixel's
    # value depend on where its line starts; this one reads only its window,
    # so a crop's channels equal the image's at every pixel CROP_MARGIN or more
    # inside each crop edge that is not an image edge.
    bins, mag = (np.pad(a, 2, mode="edge") for a in (bins, mag))
    for r in range(0, img.shape[0], _STRIP):
        rows = slice(r, r + _STRIP + 4)
        stack = np.where(bins[rows] == _BIN_IDS, mag[rows], 0.0)
        across = _running5(stack.swapaxes(0, 2), np.add).swapaxes(0, 2)
        out = channels[4:, r : r + _STRIP].swapaxes(0, 1)
        _running5(across.swapaxes(0, 1), np.add, out=out)
    return channels


def hog_bin_map(img) -> np.ndarray:
    """Per-pixel orientation bin (0..8) of an image's grey, for partition checks."""
    return _gradients(to_grey(img))[2]


def _running5(a: np.ndarray, op, out=None) -> np.ndarray:
    """``op`` (np.add, np.maximum or np.minimum) of every 5 consecutive entries
    on axis 0.

    Pairs, then quads, then the quads with the fifth entry: len(a) - 4 results.
    """
    pairs = op(a[:-1], a[1:])
    quads = op(pairs[:-2], pairs[2:])
    return op(quads[:-1], a[4:], out=out)


def compute_channels(img) -> np.ndarray:
    """The full feature volume of an image, (H, W, 26) pixel-major.

    The 5x5 max and min filters are separable running extremes over the
    edge-padded base, equal to ``ndimage.maximum_filter``/``minimum_filter``
    with ``mode="nearest"`` (max and min are exact).
    """
    base = base_channels(img).transpose(1, 2, 0)
    padded = np.pad(base, ((2, 2), (2, 2), (0, 0)), mode="edge")
    planes = np.empty(base.shape[:2] + (N_CHANNELS,))
    # Strips of output rows keep each temporary to a few hundred kB, which the
    # allocator reuses; whole-image ones are page-faulted in afresh each call.
    for r in range(0, planes.shape[0], _STRIP):
        rows = padded[r : r + _STRIP + 4]
        for op, out in (
            (np.maximum, planes[r : r + _STRIP, :, :N_BASE_CHANNELS]),
            (np.minimum, planes[r : r + _STRIP, :, N_BASE_CHANNELS:]),
        ):
            across = _running5(rows.swapaxes(0, 1), op).swapaxes(0, 1)
            _running5(across, op, out=out)
    return planes


def patch_windows(vol: np.ndarray, patch_size: int) -> np.ndarray:
    """Read-only view of every patch: ``[y, x]`` is the (ps, ps, 26) patch at (x, y).

    A gathered window reshaped to one row is that patch's vector.
    """
    windows = sliding_window_view(vol, (patch_size, patch_size), axis=(0, 1))
    return windows.transpose(0, 1, 3, 4, 2)


def _check_patch(vol: np.ndarray, topleft, patch_size: int) -> tuple[int, int]:
    for v in topleft:
        check_integer("a patch coordinate", v)
    x, y = int(topleft[0]), int(topleft[1])
    h, w = vol.shape[:2]
    if x < 0 or y < 0 or x + patch_size > w or y + patch_size > h:
        raise OutOfBounds(f"patch at ({x}, {y}) size {patch_size} exceeds {w}x{h}")
    return x, y


def extract_patch_vector(vol: np.ndarray, topleft, geom: PatchGeometry) -> np.ndarray:
    """Patch feature vector: row-major pixels, channels contiguous per pixel."""
    ps = geom.patch_size
    x, y = _check_patch(vol, topleft, ps)
    return vol[y : y + ps, x : x + ps].flatten()


def context_vectors(vol: np.ndarray, topleft, geom: PatchGeometry) -> np.ndarray:
    """The (m+1, d) context matrix of the patch at ``topleft``: row 0 is its
    raw vector, and row j >= 1 that minus the vector of the window at
    ``geom.shifts[j]`` from it.  A neighbor that falls outside the image
    is a zero vector, so its row is the raw vector."""
    ps = geom.patch_size
    x, y = _check_patch(vol, topleft, ps)
    vectors = np.tile(extract_patch_vector(vol, (x, y), geom), (geom.num_context, 1))
    for j, (dx, dy) in enumerate(geom.shifts):
        nx, ny = x + dx, y + dy
        if j and 0 <= nx <= vol.shape[1] - ps and 0 <= ny <= vol.shape[0] - ps:
            vectors[j] -= extract_patch_vector(vol, (nx, ny), geom)
    return vectors
