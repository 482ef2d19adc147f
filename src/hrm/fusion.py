"""NPMI-based removal of duplicate detection hypotheses across scales.

The conditional probability that hypothesis j explains the same object as
hypothesis i is a Gaussian kernel density estimate over patch locations,
mapped through the scale ratio between the two levels and normalized so
that self-conditioning equals 1.  Hypothesis probabilities are accumulator
scores normalized by the total vote mass, and probabilities are floored at
:data:`PROBABILITY_FLOOR` before their logs are taken.  NPMI > 0 marks a
dependent pair; the lower-scoring member is dropped.

The kernel sum runs over the rows of the image's
:class:`~hrm.voting.VoteField`, which are its patches of nonzero weight,
and is normalized by their ``total_weight``.  :func:`fuse` stacks the
votes, and so sums their weight, once per image rather than once per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ZeroSupport
from .voting import Hypothesis, VoteField

PROBABILITY_FLOOR = 1e-12  # guards the logs of NPMI


@dataclass(frozen=True)
class FusionConfig:
    """Bandwidth (pixels) of the Gaussian kernel."""

    bandwidth: float = 8.0  # load_config's 2 x bin_size at the default bin_size

    def __post_init__(self):
        if not 0 < self.bandwidth < math.inf:
            raise InvalidInput("bandwidth must be finite and positive")


def conditional_prob(h_i: Hypothesis, h_j: Hypothesis, votes, cfg: FusionConfig) -> float:
    """KDE estimate of p(h_j | h_i), normalized so p(h_i | h_i) = 1.

    Patch locations supporting h_i are mapped to the level of h_j through
    the scale ratio; the weighted kernel mass at h_j's center, relative to
    the mass at zero offset, is the conditional probability.  ``votes`` is
    a VoteField or a sequence of PatchVotes, and the kernel mass is
    normalized by its ``total_weight``.
    """
    if h_i.scale <= 0 or h_j.scale <= 0:
        raise InvalidInput("hypothesis scales must be positive")
    field = VoteField.of(votes)
    total = field.total_weight
    if total <= 0:
        raise ZeroSupport("no patch weight supports the hypotheses")
    locs, w = field.locations, field.weights
    zi = np.asarray(h_i.center, dtype=np.float64)
    zj = np.asarray(h_j.center, dtype=np.float64)
    ratio = h_j.scale / h_i.scale
    offsets = (ratio * (zi - locs) + locs - zj) / cfg.bandwidth
    k = np.exp(-0.5 * np.sum(offsets**2, axis=1))
    return float(np.dot(k, w) / total)


def npmi(
    h_i: Hypothesis,
    h_j: Hypothesis,
    votes,
    cfg: FusionConfig,
    total_mass: float,
) -> float:
    """Normalized pointwise mutual information of a hypothesis pair.

    Scores are turned into probabilities by dividing by ``total_mass``
    (the full accumulated vote mass).  Boundary behavior: identical
    support gives 1, independence 0, disjoint support -1.
    """
    if total_mass <= 0:
        raise InvalidInput("total_mass must be positive")
    p_i = max(h_i.score / total_mass, PROBABILITY_FLOOR)
    p_j = max(h_j.score / total_mass, PROBABILITY_FLOOR)
    if p_i >= 1.0 or p_j >= 1.0:
        raise InvalidInput("hypothesis probabilities must stay below 1")

    cond = conditional_prob(h_i, h_j, votes, cfg)
    if cond <= PROBABILITY_FLOOR:
        return -1.0
    denom = -math.log(p_i * cond)
    if denom <= 0:
        raise InvalidInput("degenerate joint probability >= 1")
    value = math.log(cond / p_j) / denom
    return float(min(1.0, max(-1.0, value)))


def fuse(hypotheses, votes, cfg: FusionConfig, total_mass: float):
    """Drop the weaker member of every positively correlated pair.

    Pairs are visited in :meth:`Hypothesis.rank` order of the stronger
    member; removed hypotheses take part in no further pairs.  The support,
    the votes as one VoteField, is stacked once, so ZeroSupport is raised
    only when a pair is evaluated.  Returns survivors in rank order.
    """
    support = VoteField.of(votes)
    survivors = []
    for h in sorted(hypotheses, key=Hypothesis.rank):
        if all(npmi(s, h, support, cfg, total_mass) <= 0 for s in survivors):
            survivors.append(h)
    return survivors
