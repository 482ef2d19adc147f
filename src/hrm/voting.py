"""Vote casting, multi-scale accumulation, and local-maxima extraction.

Every test patch produces m+1 predicted voting vectors plus m+1 label
estimates; the fraction of positive labels, :func:`patch_weight` of one
patch or of a stack, gates the patch's vote mass.  The votes of one image
are held as a :class:`VoteField`: the locations, votes, labels and weights
of its r patches of nonzero weight as four stacked arrays.  A patch of
weight 0 casts no mass, so no field holds one, and accumulation and fusion
read every row.  :class:`PatchVotes` and :func:`cast_votes` are the
per-patch form and oracle.  A single pass over the image fills S
accumulator grids at once: a vote ``v`` cast from patch center ``l`` lands
at ``l + scale_s * v`` in level ``s``.  Maxima and fusion order hypotheses
by one key, :meth:`Hypothesis.rank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage

from .errors import InvalidInput
from .features import ContextSet
from .training import ModelBank


@dataclass(frozen=True)
class ScaleSet:
    """The detection scales: level s is an object s times the training size."""

    scales: tuple[float, ...] = (0.75, 1.0, 1.25, 1.5)

    def __post_init__(self):
        s = tuple(float(v) for v in self.scales)
        in_range = all(0 < v < np.inf for v in s)
        if not s or not in_range or any(b <= a for a, b in zip(s, s[1:])):
            raise InvalidInput("scales must be finite, positive and strictly increasing")
        object.__setattr__(self, "scales", s)


@dataclass(frozen=True)
class PatchVotes:
    """Votes, label estimates, and the resulting gate weight of one patch."""

    location: np.ndarray  # (2,) patch center, image pixels
    votes: np.ndarray  # (m+1, 2)
    labels: np.ndarray  # (m+1,)
    weight: float


@dataclass(frozen=True, eq=False)
class VoteField:
    """The votes of the nonzero-weight patches of one image, stacked in grid
    order; row i is the i-th such patch."""

    locations: np.ndarray  # (r, 2) patch centers, image pixels
    votes: np.ndarray  # (r, m+1, 2)
    labels: np.ndarray  # (r, m+1)
    weights: np.ndarray  # (r,)

    @classmethod
    def of(cls, votes) -> "VoteField":
        """Stack the nonzero-weight PatchVotes of a sequence, in order; a
        VoteField is returned unchanged."""
        if isinstance(votes, cls):
            return votes
        votes = [pv for pv in votes if pv.weight]
        if not votes:
            empty = np.empty((0, 0))
            return cls(np.empty((0, 2)), np.empty((0, 0, 2)), empty, np.empty(0))
        return cls(
            np.array([pv.location for pv in votes], dtype=np.float64),
            np.array([pv.votes for pv in votes], dtype=np.float64),
            np.array([pv.labels for pv in votes], dtype=np.float64),
            np.array([pv.weight for pv in votes], dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i) -> PatchVotes:
        return PatchVotes(
            self.locations[i], self.votes[i], self.labels[i], float(self.weights[i])
        )

    @cached_property
    def total_weight(self) -> float:  # summed once, however many pairs read it
        return self.weights.sum()


@dataclass(frozen=True)
class Hypothesis:
    """A candidate detection: center (pixels), scale, accumulator score."""

    center: tuple[float, float]
    scale: float
    score: float

    def rank(self) -> tuple:
        """The one hypothesis order: descending score, then scale, x and y."""
        return (-self.score, self.scale, self.center[0], self.center[1])


@dataclass
class HoughCuboid:
    """S same-size accumulator grids over one image, one per scale.

    levels: (S, grid_h, grid_w) accumulated vote mass (post smoothing).
    level_mass: per-level total mass before border drops and smoothing.
    dropped: count of votes that landed outside the grid, per level.
    """

    levels: np.ndarray
    scales: ScaleSet
    bin_size: int
    level_mass: np.ndarray
    dropped: np.ndarray


def patch_weight(labels: np.ndarray):
    """Fraction of strictly positive label estimates along the last axis: one
    patch's (m+1,) labels give its weight, an (r, m+1) stack r weights."""
    labels = np.asarray(labels)
    return np.count_nonzero(labels > 0, axis=-1) / labels.shape[-1]


def cast_votes(context: ContextSet, bank: ModelBank, loc) -> PatchVotes:
    """Run every voting and label regressor on one patch's context set."""
    geom = bank.geometry
    expected = (geom.num_context, geom.vector_length)
    if context.vectors.shape != expected:
        raise InvalidInput(
            f"context set has shape {context.vectors.shape}, bank expects {expected}"
        )
    out = np.array(
        [v @ bank.coefficients[:, j] + bank.intercepts[j]
         for j, v in enumerate(context.vectors)]
    )  # (m+1, 3)
    votes, labels = out[:, :2], out[:, 2]
    return PatchVotes(np.asarray(loc, dtype=np.float64), votes, labels, patch_weight(labels))


def accumulate_cuboid(
    all_votes,
    scales: ScaleSet,
    image_size: tuple[int, int],
    bin_size: int = 4,
    smoothing: float = 1.5,
) -> HoughCuboid:
    """Bin every (patch, vote, scale) landing point into the S-level cuboid.

    ``all_votes`` is a VoteField or a sequence of PatchVotes, stacked by
    :meth:`VoteField.of`, which keeps only patches of nonzero weight.  Each
    vote carries mass weight / (m+1).  Landings outside the grid are
    dropped and counted.  ``level_mass`` sums every vote's mass.  Optional
    Gaussian smoothing (sigma in cells) is applied per level afterward.
    """
    field = VoteField.of(all_votes)
    width, height = image_size
    gw = -(-width // bin_size)
    gh = -(-height // bin_size)
    S = len(scales.scales)
    levels = np.zeros((S, gh, gw))
    level_mass = np.zeros(S)
    dropped = np.zeros(S, dtype=np.int64)

    if len(field):
        mplus1 = field.votes.shape[1]
        locs, votes = field.locations, field.votes
        m = np.repeat(field.weights / mplus1, mplus1)  # per vote
        level_mass[:] = m.sum()

        for s, sigma in enumerate(scales.scales):
            landing = locs[:, None, :] + sigma * votes  # (n, m+1, 2)
            # bounds-tested as floats: a cell past int64 has no defined cast
            cells = np.floor(landing / bin_size)
            cx = cells[..., 0].ravel()
            cy = cells[..., 1].ravel()
            inside = (cx >= 0) & (cx < gw) & (cy >= 0) & (cy < gh)
            flat = (cy[inside] * gw + cx[inside]).astype(np.int64)  # exact below 2**53
            levels[s] = np.bincount(
                flat, weights=m[inside], minlength=gh * gw
            ).reshape(gh, gw)
            dropped[s] = int(np.count_nonzero(~inside))

    if smoothing > 0:
        for s in range(S):
            levels[s] = ndimage.gaussian_filter(levels[s], smoothing, mode="constant")

    return HoughCuboid(levels, scales, bin_size, level_mass, dropped)


def find_maxima(cuboid: HoughCuboid, min_score: float, radius: int = 3):
    """Per-level strict local maxima at or above min_score.

    A cell qualifies when it holds votes (a score above 0) and strictly
    exceeds every neighbor within ``radius`` cells (Chebyshev) in its own
    level.  Hypothesis centers are cell centers mapped back to image pixels.
    """
    if radius < 1:
        raise InvalidInput("radius must be >= 1")
    # A radius of the larger grid side already spans the whole level.
    radius = min(radius, max(cuboid.levels.shape[1:]))
    footprint = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    footprint[radius, radius] = False

    out = []
    for s, sigma in enumerate(cuboid.scales.scales):
        level = cuboid.levels[s]
        neigh = ndimage.maximum_filter(
            level, footprint=footprint, mode="constant", cval=-np.inf
        )
        ys, xs = np.nonzero((level > neigh) & (level >= min_score) & (level > 0))
        for y, x in zip(ys, xs):
            center = ((x + 0.5) * cuboid.bin_size, (y + 0.5) * cuboid.bin_size)
            out.append(Hypothesis(center, sigma, float(level[y, x])))
    out.sort(key=Hypothesis.rank)
    return out
