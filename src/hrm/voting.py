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
at ``l + scale_s * v`` in level ``s``, one per :class:`VotingConfig` scale.
Maxima and fusion order hypotheses by one key, :meth:`Hypothesis.rank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage

from .errors import InvalidInput, check_integer, check_real
from .training import ModelBank


@dataclass(frozen=True)
class VotingConfig:
    """The [voting] settings: dense sampling, maxima, and the scales (level s
    is an object ``scales[s]`` times the training size)."""

    stride: int = 1
    min_score_fraction: float = 0.05  # of the global cuboid maximum
    maxima_radius: int = 3  # cells
    scales: tuple[float, ...] = (0.75, 1.0, 1.25, 1.5)

    def __post_init__(self):
        for v in self.scales:
            check_real("scales", v, 0)
        s = tuple(float(v) for v in self.scales)
        if not s or 0 in s or any(b <= a for a, b in zip(s, s[1:])):
            raise InvalidInput("scales must be finite, positive and strictly increasing")
        object.__setattr__(self, "scales", s)
        check_integer("stride", self.stride)
        if not 1 <= self.stride < 2**63:
            raise InvalidInput(f"stride must be in [1, 2**63), got {self.stride}")
        check_real("min_score_fraction", self.min_score_fraction, 0, 1)
        check_integer("maxima_radius", self.maxima_radius, 1)


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
    scales: tuple[float, ...]
    bin_size: int
    level_mass: np.ndarray
    dropped: np.ndarray


def patch_weight(labels: np.ndarray):
    """Fraction of strictly positive label estimates along the last axis: one
    patch's (m+1,) labels give its weight, an (r, m+1) stack r weights."""
    labels = np.asarray(labels)
    return np.count_nonzero(labels > 0, axis=-1) / labels.shape[-1]


def cast_votes(context: np.ndarray, bank: ModelBank, loc) -> PatchVotes:
    """Run every voting and label regressor on one patch's (m+1, d) context
    matrix (:func:`~hrm.features.context_vectors`)."""
    geom = bank.geometry
    expected = (geom.num_context, geom.vector_length)
    if np.shape(context) != expected:
        raise InvalidInput(
            f"context matrix has shape {np.shape(context)}, bank expects {expected}"
        )
    out = np.array(
        [v @ bank.coefficients[:, j] + bank.intercepts[j]
         for j, v in enumerate(context)]
    )  # (m+1, 3)
    votes, labels = out[:, :2], out[:, 2]
    return PatchVotes(np.asarray(loc, dtype=np.float64), votes, labels, patch_weight(labels))


def accumulate_cuboid(
    all_votes,
    cfg: VotingConfig,
    image_size: tuple[int, int],
    bin_size: int = 4,
    smoothing: float = 1.5,
) -> HoughCuboid:
    """Bin every (patch, vote, scale) landing point into the S-level cuboid.

    ``all_votes`` is a VoteField or a sequence of PatchVotes, stacked by
    :meth:`VoteField.of`, which keeps only patches of nonzero weight, and
    ``image_size`` the (width, height), integers >= 1.  Each vote carries
    mass weight / (m+1).  Landings outside the grid are dropped and counted.
    ``level_mass`` sums every vote's mass.  Gaussian smoothing (sigma in
    cells, >= 0; 0 skips it) is applied per level afterward.
    """
    for side in image_size:
        check_integer("image_size", side, 1)
    width, height = image_size
    check_integer("bin_size", bin_size, 1)
    check_real("smoothing", smoothing, 0)
    field = VoteField.of(all_votes)
    gw = -(-width // bin_size)
    gh = -(-height // bin_size)
    S = len(cfg.scales)
    levels = np.zeros((S, gh, gw))
    level_mass = np.zeros(S)
    dropped = np.zeros(S, dtype=np.int64)

    if len(field):
        mplus1 = field.votes.shape[1]
        locs, votes = field.locations, field.votes
        m = np.repeat(field.weights / mplus1, mplus1)  # per vote
        level_mass[:] = m.sum()

        for s, sigma in enumerate(cfg.scales):
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

    return HoughCuboid(levels, cfg.scales, bin_size, level_mass, dropped)


def find_maxima(cuboid: HoughCuboid, min_score: float, radius: int = 3):
    """Per-level strict local maxima at or above min_score.

    A cell qualifies when it holds votes (a score above 0) and strictly
    exceeds every neighbor within ``radius`` cells (Chebyshev) in its own
    level.  Hypothesis centers are cell centers mapped back to image pixels.
    ``min_score`` is finite and >= 0, and ``radius`` an integer >= 1.
    """
    check_real("min_score", min_score, 0)
    check_integer("radius", radius, 1)
    # A radius of the larger grid side already spans the whole level.
    radius = min(radius, max(cuboid.levels.shape[1:]))
    footprint = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    footprint[radius, radius] = False

    out = []
    for s, sigma in enumerate(cuboid.scales):
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
