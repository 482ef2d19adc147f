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
The kernel's bandwidth is in pixels; :func:`~hrm.detect.detect` fuses at two
accumulator cells.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput, ZeroSupport
from .voting import Hypothesis, VoteField

PROBABILITY_FLOOR = 1e-12  # guards the logs of NPMI


def conditional_prob(h_i: Hypothesis, h_j: Hypothesis, votes, bandwidth: float) -> float:
    """KDE estimate of p(h_j | h_i), normalized so p(h_i | h_i) = 1.

    Patch locations supporting h_i are mapped to the level of h_j through
    the scale ratio; the weighted kernel mass at h_j's center, relative to
    the mass at zero offset, is the conditional probability.  ``votes`` is
    a VoteField or a sequence of PatchVotes, and the kernel mass is
    normalized by its ``total_weight``.  ``bandwidth`` is the Gaussian
    kernel's, in pixels.
    """
    if not 0 < bandwidth < math.inf:
        raise InvalidInput(f"bandwidth must be finite and positive, got {bandwidth}")
    if not (0 < h_i.scale < math.inf and 0 < h_j.scale < math.inf  # NaN fails too
            and np.isfinite([h_i.center, h_j.center]).all()):
        raise InvalidInput("hypothesis scales must be finite and positive, centers finite")
    field = VoteField.of(votes)
    total = field.total_weight
    if total <= 0:
        raise ZeroSupport("no patch weight supports the hypotheses")
    locs, w = field.locations, field.weights
    zi = np.asarray(h_i.center, dtype=np.float64)
    zj = np.asarray(h_j.center, dtype=np.float64)
    ratio = h_j.scale / h_i.scale
    offsets = (ratio * (zi - locs) + locs - zj) / bandwidth
    k = np.exp(-0.5 * np.sum(offsets**2, axis=1))
    return float(np.dot(k, w) / total)


def npmi(
    h_i: Hypothesis,
    h_j: Hypothesis,
    votes,
    bandwidth: float,
    total_mass: float,
) -> float:
    """Normalized pointwise mutual information of a hypothesis pair.

    Scores are turned into probabilities by dividing by ``total_mass``
    (the full accumulated vote mass).  Boundary behavior: identical
    support gives 1, independence 0, disjoint support -1.
    """
    if not 0 < total_mass < math.inf:  # NaN fails too
        raise InvalidInput(f"total_mass must be finite and positive, got {total_mass}")
    p_i = max(h_i.score / total_mass, PROBABILITY_FLOOR)
    p_j = max(h_j.score / total_mass, PROBABILITY_FLOOR)
    if not (p_i < 1.0 and p_j < 1.0):  # a NaN score fails too
        raise InvalidInput("hypothesis scores must be finite and below total_mass")

    cond = conditional_prob(h_i, h_j, votes, bandwidth)
    if cond <= PROBABILITY_FLOOR:
        return -1.0
    denom = -math.log(p_i * cond)
    if denom <= 0:
        raise InvalidInput("degenerate joint probability >= 1")
    value = math.log(cond / p_j) / denom
    return float(min(1.0, max(-1.0, value)))


def fuse(hypotheses, votes, bandwidth: float, total_mass: float):
    """Drop the weaker member of every positively correlated pair.

    Pairs are visited in :meth:`Hypothesis.rank` order of the stronger
    member; removed hypotheses take part in no further pairs.  The support,
    the votes as one VoteField, is stacked once, so ZeroSupport is raised
    only when a pair is evaluated; ``bandwidth`` and ``total_mass`` are
    checked whenever there is a hypothesis.  Returns survivors in rank order.
    """
    ranked = sorted(hypotheses, key=Hypothesis.rank)
    for name, v in (("bandwidth", bandwidth), ("total_mass", total_mass)):
        if ranked and not 0 < v < math.inf:  # NaN fails too
            raise InvalidInput(f"{name} must be finite and positive, got {v}")
    support = VoteField.of(votes)
    survivors = []
    for h in ranked:
        if all(npmi(s, h, support, bandwidth, total_mass) <= 0 for s in survivors):
            survivors.append(h)
    return survivors
