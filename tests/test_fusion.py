import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrm import fusion
from hrm.errors import InvalidInput, ZeroSupport
from hrm.voting import Hypothesis, PatchVotes, VoteField


def voter(loc, weight):
    labels = np.ones(4) if weight == 1.0 else np.array([1.0] * int(weight * 4) + [-1.0] * (4 - int(weight * 4)))
    return PatchVotes(np.asarray(loc, dtype=np.float64), np.zeros((4, 2)),
                      labels, float(weight))


BANDWIDTH = 4.0


class TestConditionalProb:
    @pytest.mark.parametrize("bandwidth", [
        0.0, -1.0, float("nan"), float("inf"), -float("inf"),
    ])
    def test_rejects_bandwidth(self, bandwidth):
        h = Hypothesis((5.0, 5.0), 1.0, 1.0)
        votes = [voter((1.0, 1.0), 1.0)]
        with pytest.raises(InvalidInput, match="bandwidth"):
            fusion.conditional_prob(h, h, votes, bandwidth)
        with pytest.raises(InvalidInput, match="bandwidth"):  # through every pair
            fusion.fuse([h, Hypothesis((9.0, 5.0), 1.0, 0.5)], votes, bandwidth, 10.0)

    def test_self_conditioning_is_one(self):
        h = Hypothesis((20.0, 20.0), 1.0, 5.0)
        votes = [voter((5.0, 5.0), 1.0), voter((30.0, 12.0), 0.5)]
        assert fusion.conditional_prob(h, h, votes, BANDWIDTH) == pytest.approx(1.0)

    def test_far_support_decays_below_floor(self):
        h_i = Hypothesis((10.0, 10.0), 1.0, 5.0)
        h_j = Hypothesis((500.0, 500.0), 1.0, 5.0)
        votes = [voter((10.0, 10.0), 1.0)]
        assert fusion.conditional_prob(h_i, h_j, votes, BANDWIDTH) <= fusion.PROBABILITY_FLOOR

    def test_two_term_hand_computation(self):
        h_i = Hypothesis((12.0, 8.0), 1.0, 3.0)
        h_j = Hypothesis((20.0, 10.0), 1.25, 2.0)
        votes = [voter((4.0, 6.0), 1.0), voter((18.0, 14.0), 0.5)]
        b = BANDWIDTH
        ratio = h_j.scale / h_i.scale
        total, acc = 0.0, 0.0
        for pv in votes:
            l = pv.location
            off = (ratio * (np.array(h_i.center) - l) + l - np.array(h_j.center)) / b
            acc += math.exp(-0.5 * float(off @ off)) * pv.weight
            total += pv.weight
        assert fusion.conditional_prob(h_i, h_j, votes, BANDWIDTH) == pytest.approx(
            acc / total, abs=1e-10
        )

    def test_zero_support(self):
        h = Hypothesis((5.0, 5.0), 1.0, 1.0)
        with pytest.raises(ZeroSupport):
            fusion.conditional_prob(h, h, [voter((1.0, 1.0), 0.0)], BANDWIDTH)

    def test_scale_guard(self):
        h = Hypothesis((5.0, 5.0), 1.0, 1.0)
        bad = Hypothesis((5.0, 5.0), -1.0, 1.0)
        with pytest.raises(InvalidInput):
            fusion.conditional_prob(h, bad, [voter((1.0, 1.0), 1.0)], BANDWIDTH)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_scale_guard_refuses_non_finite(self, scale):
        h = Hypothesis((5.0, 5.0), 1.0, 1.0)
        bad = Hypothesis((5.0, 5.0), scale, 1.0)
        for pair in ((h, bad), (bad, h)):
            with pytest.raises(InvalidInput, match="scales"):
                fusion.conditional_prob(*pair, [voter((1.0, 1.0), 1.0)], BANDWIDTH)


    @pytest.mark.parametrize("center", [
        (float("nan"), 5.0), (float("inf"), 5.0), (5.0, -float("inf")),
    ])
    def test_refuses_non_finite_center(self, center):
        h = Hypothesis((5.0, 5.0), 1.0, 1.0)
        bad = Hypothesis(center, 1.0, 0.5)
        votes = [voter((1.0, 1.0), 1.0)]
        for pair in ((h, bad), (bad, h)):
            with pytest.raises(InvalidInput, match="centers"):
                fusion.conditional_prob(*pair, votes, BANDWIDTH)
        with pytest.raises(InvalidInput, match="centers"):  # through every pair
            fusion.fuse([h, bad], votes, BANDWIDTH, 10.0)


class TestNpmi:
    def test_identical_support_gives_one(self):
        # equal probabilities with a full conditional: npmi must be 1
        h_i = Hypothesis((20.0, 20.0), 1.0, 5.0)
        h_j = Hypothesis((20.0, 20.0), 1.25, 5.0)
        # with z_i = z_j, the mapped offset is (ratio-1)(z_i - l); voters
        # at z_i give kernel value exactly 1
        votes = [voter((20.0, 20.0), 1.0)]
        val = fusion.npmi(h_i, h_j, votes, BANDWIDTH, total_mass=50.0)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_independence_gives_zero(self):
        # same scale makes the conditional location-independent:
        # cond = K(|z_i - z_j|^2 / b^2); choose the separation so that
        # cond equals p(h_j) exactly
        total = 100.0
        score_j = 5.0
        p_j = score_j / total
        b = BANDWIDTH
        dist = b * math.sqrt(2.0 * math.log(1.0 / p_j))
        h_i = Hypothesis((30.0, 30.0), 1.0, 20.0)
        h_j = Hypothesis((30.0 + dist, 30.0), 1.0, score_j)
        votes = [voter((10.0, 50.0), 1.0), voter((70.0, 10.0), 0.75)]
        val = fusion.npmi(h_i, h_j, votes, BANDWIDTH, total_mass=total)
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_disjoint_support_gives_minus_one(self):
        h_i = Hypothesis((10.0, 10.0), 1.0, 5.0)
        h_j = Hypothesis((900.0, 900.0), 1.0, 5.0)
        votes = [voter((10.0, 10.0), 1.0)]
        assert fusion.npmi(h_i, h_j, votes, BANDWIDTH, total_mass=50.0) == -1.0

    def test_probability_guard(self):
        h_i = Hypothesis((10.0, 10.0), 1.0, 60.0)
        h_j = Hypothesis((12.0, 10.0), 1.0, 5.0)
        votes = [voter((10.0, 10.0), 1.0)]
        with pytest.raises(InvalidInput):
            fusion.npmi(h_i, h_j, votes, BANDWIDTH, total_mass=50.0)
        with pytest.raises(InvalidInput):
            fusion.npmi(h_j, h_i, votes, BANDWIDTH, total_mass=0.0)

    @pytest.mark.parametrize("total_mass", [float("nan"), float("inf"), -1.0])
    def test_refuses_bad_total_mass(self, total_mass):
        h_i = Hypothesis((10.0, 10.0), 1.0, 5.0)
        h_j = Hypothesis((12.0, 10.0), 1.0, 5.0)
        with pytest.raises(InvalidInput, match="total_mass"):
            fusion.npmi(h_i, h_j, [voter((10.0, 10.0), 1.0)], BANDWIDTH, total_mass)

    @pytest.mark.parametrize("score", [float("nan"), float("inf")])
    def test_refuses_bad_scores(self, score):
        h = Hypothesis((10.0, 10.0), 1.0, 5.0)
        bad = Hypothesis((12.0, 10.0), 1.0, score)
        for pair in ((h, bad), (bad, h)):
            with pytest.raises(InvalidInput, match="score"):
                fusion.npmi(*pair, [voter((10.0, 10.0), 1.0)], BANDWIDTH, 50.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000_000))
    def test_bounded_property(self, seed):
        rng = np.random.default_rng(seed)
        total = float(rng.uniform(10.0, 1000.0))
        h_i = Hypothesis(tuple(rng.uniform(0, 100, 2)), float(rng.uniform(0.5, 2.0)),
                         float(rng.uniform(0.0, total * 0.9)))
        h_j = Hypothesis(tuple(rng.uniform(0, 100, 2)), float(rng.uniform(0.5, 2.0)),
                         float(rng.uniform(0.0, total * 0.9)))
        votes = [
            voter(rng.uniform(0, 100, 2), float(rng.integers(1, 5)) / 4.0)
            for _ in range(int(rng.integers(1, 6)))
        ]
        bandwidth = float(rng.uniform(0.5, 20.0))
        val = fusion.npmi(h_i, h_j, votes, bandwidth, total_mass=total)
        assert -1.0 <= val <= 1.0

    def test_monotone_in_shared_support(self):
        # scale ratio 2 maps voter l to offset 2 z_i - l - z_j; the voter
        # at l = 2 z_i - z_j is "shared" (kernel 1).  Shifting weight onto
        # it raises the conditional, and npmi is increasing in the
        # conditional for fixed marginals.
        h_i = Hypothesis((30.0, 30.0), 1.0, 10.0)
        h_j = Hypothesis((40.0, 30.0), 2.0, 8.0)
        shared_loc = (2 * 30.0 - 40.0, 2 * 30.0 - 30.0)
        far_loc = (500.0, 500.0)
        prev = -1.1
        for shared in (0.25, 0.5, 0.75, 1.0):
            votes = [voter(shared_loc, shared)]
            if shared < 1.0:
                votes.append(voter(far_loc, 1.0 - shared))
            val = fusion.npmi(h_i, h_j, votes, BANDWIDTH, total_mass=100.0)
            assert val >= prev
            prev = val


class TestFuse:
    def make_duplicates(self):
        # two hypotheses for one object at adjacent levels, sharing all
        # voters; plus one far-away independent hypothesis
        votes = [voter((30.0, 30.0), 1.0), voter((32.0, 28.0), 1.0)]
        strong = Hypothesis((30.0, 30.0), 1.0, 10.0)
        weak = Hypothesis((30.5, 30.0), 1.25, 6.0)
        far = Hypothesis((400.0, 400.0), 1.0, 8.0)
        return votes, strong, weak, far

    def test_empty(self):
        assert fusion.fuse([], [], BANDWIDTH, total_mass=1.0) == []

    @pytest.mark.parametrize("bandwidth, total_mass, match", [
        (-1.0, float("nan"), "bandwidth"), (float("inf"), 10.0, "bandwidth"),
        (BANDWIDTH, float("nan"), "total_mass"), (BANDWIDTH, 0.0, "total_mass"),
    ])
    def test_lone_hypothesis_checks_like_a_pair(self, bandwidth, total_mass, match):
        h = Hypothesis((5.0, 5.0), 1.0, 1.0)
        votes = [voter((1.0, 1.0), 1.0)]
        for hyps in ([h], [h, Hypothesis((9.0, 5.0), 1.0, 0.5)]):
            with pytest.raises(InvalidInput, match=match):
                fusion.fuse(hyps, votes, bandwidth, total_mass)
        assert fusion.fuse([], [], BANDWIDTH, 0.0) == []  # detect's form when nothing voted

    def test_duplicate_removed_keeps_stronger(self):
        votes, strong, weak, _ = self.make_duplicates()
        out = fusion.fuse([weak, strong], votes, BANDWIDTH, total_mass=100.0)
        assert out == [strong]

    def test_disjoint_support_retained(self):
        votes, strong, _, far = self.make_duplicates()
        far_votes = votes + [voter((400.0, 400.0), 1.0)]
        out = fusion.fuse([strong, far], far_votes, BANDWIDTH, total_mass=100.0)
        assert set(out) == {strong, far}

    def test_idempotent(self):
        votes, strong, weak, far = self.make_duplicates()
        far_votes = votes + [voter((400.0, 400.0), 1.0)]
        once = fusion.fuse([weak, strong, far], far_votes, BANDWIDTH, 100.0)
        twice = fusion.fuse(once, far_votes, BANDWIDTH, 100.0)
        assert once == twice

    def test_never_increases_count_and_sorted(self):
        rng = np.random.default_rng(42)
        votes = [voter(rng.uniform(0, 80, 2), 1.0) for _ in range(6)]
        hyps = [
            Hypothesis(tuple(rng.uniform(0, 80, 2)), float(rng.choice([0.75, 1.0, 1.5])),
                       float(rng.uniform(1.0, 9.0)))
            for _ in range(8)
        ]
        out = fusion.fuse(hyps, votes, BANDWIDTH, total_mass=100.0)
        assert len(out) <= len(hyps)
        scores = [h.score for h in out]
        assert scores == sorted(scores, reverse=True)

    def test_survivor_has_no_positive_partner(self):
        votes, strong, weak, far = self.make_duplicates()
        far_votes = votes + [voter((400.0, 400.0), 1.0)]
        out = fusion.fuse([weak, strong, far], far_votes, BANDWIDTH, 100.0)
        for a in out:
            for b in out:
                if a is not b and a.score >= b.score:
                    assert fusion.npmi(a, b, far_votes, BANDWIDTH, 100.0) <= 0

    def test_lone_hypothesis_with_zero_support_survives(self):
        # no pair is evaluated, so the missing support is never consulted
        h = Hypothesis((5.0, 5.0), 1.0, 1.0)
        votes = [voter((1.0, 1.0), 0.0), voter((9.0, 3.0), 0.0)]
        assert fusion.fuse([h], votes, BANDWIDTH, total_mass=10.0) == [h]

    def test_infinite_total_mass_is_refused(self):
        # an infinite mass floors both probabilities, which made this
        # independent pair look dependent
        a = Hypothesis((5.0, 5.0), 1.0, 2.0)
        b = Hypothesis((47.0, 5.0), 1.0, 1.0)
        votes = [voter((5.0, 5.0), 1.0), voter((47.0, 5.0), 1.0)]
        assert fusion.fuse([a, b], votes, BANDWIDTH, total_mass=10.0) == [a, b]
        with pytest.raises(InvalidInput, match="total_mass"):
            fusion.fuse([a, b], votes, BANDWIDTH, total_mass=float("inf"))

    def test_pair_with_zero_support_raises(self):
        a = Hypothesis((5.0, 5.0), 1.0, 2.0)
        b = Hypothesis((40.0, 5.0), 1.25, 1.0)
        votes = [voter((1.0, 1.0), 0.0), voter((9.0, 3.0), 0.0)]
        with pytest.raises(ZeroSupport):
            fusion.fuse([a, b], votes, BANDWIDTH, total_mass=10.0)
        with pytest.raises(ZeroSupport):
            fusion.fuse([a, b], VoteField.of(votes), BANDWIDTH, total_mass=10.0)

    @settings(max_examples=300, deadline=None)
    @given(
        patches=st.lists(
            st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.integers(0, 4)),
            max_size=30,
        ),
        hyps=st.lists(
            st.builds(
                Hypothesis,
                st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
                st.sampled_from((0.75, 1.0, 1.25, 1.5)),
                st.floats(0.5, 40.0),
            ),
            max_size=12,
        ),
        bandwidth=st.floats(1.0, 16.0),
    )
    def test_matches_per_pair_reference(self, patches, hyps, bandwidth):
        """Zero-weight patches, several scales, list and field input."""
        votes = [voter((x, y), q / 4.0) for x, y, q in patches]
        outcomes = []
        for fn, arg in ((reference_fuse, votes), (fusion.fuse, votes),
                        (fusion.fuse, VoteField.of(votes))):
            try:
                outcomes.append(fn(hyps, arg, bandwidth, 50.0))
            except ZeroSupport:
                outcomes.append(ZeroSupport)
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]


def reference_fuse(hypotheses, votes, bandwidth, total_mass):
    """The per-pair loop that rebuilds the support arrays for every pair."""

    def conditional_prob(h_i, h_j):
        w = np.array([pv.weight for pv in votes])
        total = w.sum()
        if total <= 0:
            raise ZeroSupport("no patch weight supports the hypotheses")
        locs = np.array([pv.location for pv in votes])
        zi = np.asarray(h_i.center, dtype=np.float64)
        zj = np.asarray(h_j.center, dtype=np.float64)
        ratio = h_j.scale / h_i.scale
        offsets = (ratio * (zi - locs) + locs - zj) / bandwidth
        k = np.exp(-0.5 * np.sum(offsets**2, axis=1))
        return float(np.dot(k, w) / total)

    def npmi(h_i, h_j):
        eps = 1e-12
        p_i = max(h_i.score / total_mass, eps)
        p_j = max(h_j.score / total_mass, eps)
        cond = conditional_prob(h_i, h_j)
        if cond <= eps:
            return -1.0
        value = math.log(cond / p_j) / -math.log(p_i * cond)
        return min(1.0, max(-1.0, value))

    survivors = []
    for h in sorted(hypotheses, key=lambda h: (-h.score, h.scale, *h.center)):
        if all(npmi(s, h) <= 0 for s in survivors):
            survivors.append(h)
    return survivors
