"""Per-pixel feature channels and patch feature vectors.

An image becomes a 26-plane feature volume: 13 base channels (absolute x/y
derivatives, absolute second x/y derivatives, and 9 orientation-histogram
channels accumulated over a 5x5 window), max-filtered in planes 0-12 and
min-filtered in planes 13-25.  The volume is stored pixel-major, so a
patch vector (all 26 channels per pixel, row-major over the patch) is a
window of it; :func:`patch_windows` is the view training and detection read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .errors import InvalidInput, OutOfBounds

# Bump whenever the channel layout or filtering changes; serialized models
# record this tag and refuse to load against a different extractor.
EXTRACTOR_VERSION = "chan26-v1"

N_BASE_CHANNELS = 13
N_CHANNELS = 2 * N_BASE_CHANNELS
HOG_BINS = 9
_WINDOW = 5  # orientation-histogram and min/max filter window
DERIVATIVE_KERNELS = ("sobel", "central")


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
    """Patch size and the neighbor offsets used for context encoding."""

    patch_size: int = 16
    neighbor_offsets: tuple[tuple[int, int], ...] = None

    def __post_init__(self):
        if self.patch_size < 1:
            raise InvalidInput("patch_size must be positive")
        if self.neighbor_offsets is None:
            object.__setattr__(
                self, "neighbor_offsets", _default_offsets(self.patch_size)
            )
        offs = tuple(tuple(int(v) for v in o) for o in self.neighbor_offsets)
        if len(set(offs)) != len(offs):
            raise InvalidInput("neighbor offsets must be distinct")
        object.__setattr__(self, "neighbor_offsets", offs)

    @property
    def num_context(self) -> int:
        return len(self.neighbor_offsets) + 1

    @property
    def vector_length(self) -> int:
        return self.patch_size * self.patch_size * N_CHANNELS


@dataclass(frozen=True)
class FeatureVolume:
    """26 feature planes of one image, stored as (height, width, 26)."""

    planes: np.ndarray

    @property
    def height(self) -> int:
        return self.planes.shape[0]

    @property
    def width(self) -> int:
        return self.planes.shape[1]


@dataclass(frozen=True)
class ContextSet:
    """The patch vector and its differences against each neighbor patch.

    vectors[0] is the raw patch vector; vectors[j] is raw minus the j-th
    neighbor.  clipped[j] is True where the neighbor fell outside the image
    and was treated as a zero vector.
    """

    vectors: np.ndarray
    clipped: tuple[bool, ...]


def base_channels(img, derivative_kernel: str = "sobel") -> np.ndarray:
    """The 13 unfiltered channels of an image, shape (13, H, W)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3:
        # luminance conversion for RGB input
        img = img @ np.array([0.299, 0.587, 0.114])
    if img.ndim != 2 or img.shape[0] < _WINDOW or img.shape[1] < _WINDOW:
        raise InvalidInput(f"image must be at least {_WINDOW}x{_WINDOW} grayscale")

    if derivative_kernel == "sobel":
        gx = ndimage.sobel(img, axis=1, mode="nearest") / 8.0
        gy = ndimage.sobel(img, axis=0, mode="nearest") / 8.0
    elif derivative_kernel == "central":
        gx = ndimage.correlate1d(img, [-0.5, 0.0, 0.5], axis=1, mode="nearest")
        gy = ndimage.correlate1d(img, [-0.5, 0.0, 0.5], axis=0, mode="nearest")
    else:
        raise InvalidInput(f"unknown derivative kernel {derivative_kernel!r}")
    lxx = ndimage.correlate1d(img, [1.0, -2.0, 1.0], axis=1, mode="nearest")
    lyy = ndimage.correlate1d(img, [1.0, -2.0, 1.0], axis=0, mode="nearest")

    channels = np.empty((N_BASE_CHANNELS,) + img.shape)
    channels[0] = np.abs(gx)
    channels[1] = np.abs(gy)
    channels[2] = np.abs(lxx)
    channels[3] = np.abs(lyy)

    mag = np.hypot(gx, gy)
    ang = np.mod(np.arctan2(gy, gx), np.pi)  # unsigned orientation in [0, pi)
    bins = np.minimum((ang / (np.pi / HOG_BINS)).astype(np.intp), HOG_BINS - 1)
    for b in range(HOG_BINS):
        weighted = np.where(bins == b, mag, 0.0)
        # clamp the tiny negative residue the separable filter can leave
        channels[4 + b] = np.maximum(
            ndimage.uniform_filter(weighted, size=_WINDOW, mode="nearest")
            * _WINDOW**2,
            0.0,
        )
    return channels


def hog_bin_map(img, derivative_kernel: str = "sobel") -> np.ndarray:
    """Per-pixel orientation bin index (0..8), for partition checks."""
    img = np.asarray(img, dtype=np.float64)
    if derivative_kernel == "sobel":
        gx = ndimage.sobel(img, axis=1, mode="nearest")
        gy = ndimage.sobel(img, axis=0, mode="nearest")
    else:
        gx = ndimage.correlate1d(img, [-0.5, 0.0, 0.5], axis=1, mode="nearest")
        gy = ndimage.correlate1d(img, [-0.5, 0.0, 0.5], axis=0, mode="nearest")
    ang = np.mod(np.arctan2(gy, gx), np.pi)
    return np.minimum((ang / (np.pi / HOG_BINS)).astype(np.intp), HOG_BINS - 1)


def compute_channels(img, derivative_kernel: str = "sobel") -> FeatureVolume:
    """The full 26-plane feature volume of an image."""
    base = base_channels(img, derivative_kernel)
    planes = np.empty((N_CHANNELS,) + base.shape[1:])
    for k in range(N_BASE_CHANNELS):
        planes[k] = ndimage.maximum_filter(base[k], size=_WINDOW, mode="nearest")
        planes[N_BASE_CHANNELS + k] = ndimage.minimum_filter(
            base[k], size=_WINDOW, mode="nearest"
        )
    return FeatureVolume(np.ascontiguousarray(planes.transpose(1, 2, 0)))


def patch_windows(vol: FeatureVolume, patch_size: int) -> np.ndarray:
    """Read-only view of every patch: ``[y, x]`` is the (ps, ps, 26) patch at (x, y).

    A gathered window reshaped to one row is that patch's vector.
    """
    windows = sliding_window_view(vol.planes, (patch_size, patch_size), axis=(0, 1))
    return windows.transpose(0, 1, 3, 4, 2)


def _check_patch(vol: FeatureVolume, topleft, patch_size: int) -> tuple[int, int]:
    x, y = int(topleft[0]), int(topleft[1])
    if x < 0 or y < 0 or x + patch_size > vol.width or y + patch_size > vol.height:
        raise OutOfBounds(
            f"patch at ({x}, {y}) size {patch_size} exceeds {vol.width}x{vol.height}"
        )
    return x, y


def extract_patch_vector(vol: FeatureVolume, topleft, geom: PatchGeometry) -> np.ndarray:
    """Patch feature vector: row-major pixels, channels contiguous per pixel."""
    ps = geom.patch_size
    x, y = _check_patch(vol, topleft, ps)
    return vol.planes[y : y + ps, x : x + ps].flatten()


def context_vectors(vol: FeatureVolume, topleft, geom: PatchGeometry) -> ContextSet:
    """Raw patch vector plus differences against every neighbor patch.

    A neighbor that falls outside the image contributes a zero vector (the
    difference degenerates to the raw vector) and is flagged.
    """
    ps = geom.patch_size
    x, y = _check_patch(vol, topleft, ps)
    raw = extract_patch_vector(vol, (x, y), geom)

    vectors = np.empty((geom.num_context, raw.shape[0]))
    vectors[0] = raw
    clipped = [False]
    for j, (dx, dy) in enumerate(geom.neighbor_offsets, start=1):
        nx, ny = x + dx, y + dy
        if nx < 0 or ny < 0 or nx + ps > vol.width or ny + ps > vol.height:
            vectors[j] = raw
            clipped.append(True)
        else:
            vectors[j] = raw - extract_patch_vector(vol, (nx, ny), geom)
            clipped.append(False)
    return ContextSet(vectors, tuple(clipped))
