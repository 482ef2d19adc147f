"""Acceptance suite: one test per release criterion.

Each test prints a `[criterion N] PASS` line on success so a full run
doubles as a checklist.  Criterion 6 trains and evaluates a complete
detector on synthetic scenes and dominates the suite's runtime.
"""

import importlib.util
import math
import time
from pathlib import Path

import numpy as np
import pytest

from hrm import fusion, pls, voting
from hrm.cli import main as cli_main
from hrm.voting import Hypothesis, PatchVotes, VotingConfig


def in_model_regression(rng, n, p, c, q=2, noise=0.05):
    """Latent-rank-c data plus held-out points from the same model."""
    V = rng.standard_normal((c, p))
    X = rng.standard_normal((n, c)) @ V
    Y = X @ rng.standard_normal((p, q)) + noise * rng.standard_normal((n, q))
    Xt = rng.standard_normal((25, c)) @ V
    return X, Y, Xt


class TestCriterion1BplsPlsAgreement:
    def test_twenty_random_regressions(self):
        rng = np.random.default_rng(100)
        worst = 0.0
        for _ in range(20):
            p = int(rng.integers(16, 65))
            c = int(rng.integers(2, 11))
            X, Y, Xt = in_model_regression(rng, 200, p, c)
            m_pls = pls.pls_fit(X, Y, c)
            m_bpls = pls.bpls_fit(X, Y, c, 1e-10)
            a = pls.predict(m_pls, Xt)
            b = pls.predict(m_bpls, Xt)
            rel = np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-300)
            worst = max(worst, rel)
        assert worst <= 1e-5, f"worst relative prediction difference {worst:.2e}"
        print(f"\n[criterion 1] PASS  worst relative difference {worst:.2e}")


class TestCriterion2BplsEfficiency:
    def test_eigendecomposition_counts(self, monkeypatch):
        calls = []
        solve = pls.dominant_eigenvectors

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(pls, "dominant_eigenvectors", counted)
        rng = np.random.default_rng(101)
        X = rng.standard_normal((60, 24))
        Y = rng.standard_normal((60, 2))
        for c in (1, 3, 6):
            calls.clear()
            pls.pls_fit(X, Y, c)
            assert len(calls) == c
            calls.clear()
            pls.bpls_fit(X, Y, c, 1e-10)
            assert len(calls) == 1

    def test_wall_clock_at_scale(self):
        rng = np.random.default_rng(102)
        n, p, c = 400, 256, 6
        X, Y, _ = in_model_regression(rng, n, p, c)

        def best_of(fn, reps=3):
            times = []
            for _ in range(reps):
                t = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t)
            return min(times)

        t_pls = best_of(lambda: pls.pls_fit(X, Y, c))
        t_bpls = best_of(lambda: pls.bpls_fit(X, Y, c, 1e-10))
        assert t_bpls <= t_pls, f"bpls {t_bpls:.3f}s > pls {t_pls:.3f}s"
        print(f"\n[criterion 2] PASS  bpls {t_bpls * 1e3:.0f}ms <= "
              f"pls {t_pls * 1e3:.0f}ms at dims={p}, c={c}")


class TestCriterion3RankIdentity:
    def test_m_rank_equals_x_rank(self):
        rng = np.random.default_rng(103)
        alpha = 0.3
        for _ in range(20):
            n, p = 30, 12
            rank = int(rng.integers(2, 10))
            X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
            Y = rng.standard_normal((n, 2))
            Xc = X - X.mean(axis=0)
            Yc = Y - Y.mean(axis=0)
            XtY = Xc.T @ Yc
            M = alpha * (Xc.T @ Xc) + (1 - alpha) * (XtY @ XtY.T)
            evals = np.linalg.eigvalsh(M)
            significant = int(np.count_nonzero(evals > 1e-10 * evals.max()))
            assert significant == np.linalg.matrix_rank(Xc)

    def test_cross_covariance_rank_bound(self):
        rng = np.random.default_rng(104)
        for _ in range(20):
            X = rng.standard_normal((25, 10))
            Y = rng.standard_normal((25, 2))
            Xc = X - X.mean(axis=0)
            Yc = Y - Y.mean(axis=0)
            evals = np.sort(np.linalg.eigvalsh(Xc.T @ Yc @ Yc.T @ Xc))[::-1]
            assert np.all(evals[2:] <= 1e-10 * evals[0])
        print("\n[criterion 3] PASS  rank identity and 2-column "
              "cross-covariance bound hold on 20 instances each")


class TestCriterion4MultiScaleGeometry:
    @staticmethod
    def patch(loc, votes, labels):
        votes = np.asarray(votes, dtype=np.float64).reshape(-1, 2)
        labels = np.asarray(labels, dtype=np.float64)
        return PatchVotes(np.asarray(loc, dtype=np.float64), votes, labels,
                          voting.patch_weight(labels))

    def test_landing_positions_all_default_scales(self):
        scales = VotingConfig()  # 0.75, 1, 1.25, 1.5 with train scale 1
        rng = np.random.default_rng(105)
        pvs = [
            self.patch(rng.uniform(20, 60, 2), rng.uniform(-10, 10, (3, 2)),
                       np.ones(3))
            for _ in range(12)
        ]
        cub = voting.accumulate_cuboid(pvs, scales, (96, 96), bin_size=1,
                                       smoothing=0.0)
        for s, sigma in enumerate(scales.scales):
            oracle = np.zeros((96, 96))
            for pv in pvs:
                for v in pv.votes:
                    land = pv.location + sigma * v
                    x, y = int(np.floor(land[0])), int(np.floor(land[1]))
                    if 0 <= x < 96 and 0 <= y < 96:
                        oracle[y, x] += pv.weight / 3.0
            assert np.allclose(cub.levels[s], oracle), f"scale {sigma}"

    def test_unit_scale_matches_single_scale_brute_force(self):
        rng = np.random.default_rng(106)
        pvs = [
            self.patch(rng.uniform(5, 70, 2), rng.uniform(-15, 15, (4, 2)),
                       rng.standard_normal(4))
            for _ in range(30)
        ]
        cub = voting.accumulate_cuboid(pvs, VotingConfig(), (80, 80), 1, 0.0)
        oracle = np.zeros((80, 80))
        for pv in pvs:
            for v in pv.votes:
                x, y = int(np.floor(pv.location[0] + v[0])), int(
                    np.floor(pv.location[1] + v[1]))
                if 0 <= x < 80 and 0 <= y < 80:
                    oracle[y, x] += pv.weight / 4.0
        level_at_unit = cub.levels[list(VotingConfig().scales).index(1.0)]
        assert np.array_equal(level_at_unit != 0, oracle != 0)
        assert np.allclose(level_at_unit, oracle)
        print("\n[criterion 4] PASS  vote landing geometry exact at all "
              "4 default scales; unit level matches brute force bin-for-bin")


class TestCriterion5NpmiBoundaries:
    BANDWIDTH = 5.0

    @staticmethod
    def voter(loc, weight=1.0):
        return PatchVotes(np.asarray(loc, dtype=np.float64), np.zeros((2, 2)),
                          np.ones(2), weight)

    def test_identical_support(self):
        h_i = Hypothesis((40.0, 40.0), 1.0, 6.0)
        h_j = Hypothesis((40.0, 40.0), 1.25, 6.0)
        votes = [self.voter((40.0, 40.0))]
        val = fusion.npmi(h_i, h_j, votes, self.BANDWIDTH, total_mass=60.0)
        assert abs(val - 1.0) <= 1e-6

    def test_independent_support(self):
        total, score_j = 100.0, 5.0
        dist = self.BANDWIDTH * math.sqrt(2 * math.log(total / score_j))
        h_i = Hypothesis((30.0, 30.0), 1.0, 20.0)
        h_j = Hypothesis((30.0 + dist, 30.0), 1.0, score_j)
        votes = [self.voter((10.0, 50.0)), self.voter((70.0, 15.0), 0.5)]
        val = fusion.npmi(h_i, h_j, votes, self.BANDWIDTH, total_mass=total)
        assert abs(val) <= 1e-6

    def test_disjoint_support(self):
        h_i = Hypothesis((10.0, 10.0), 1.0, 5.0)
        h_j = Hypothesis((5000.0, 5000.0), 1.0, 5.0)
        votes = [self.voter((10.0, 10.0))]
        val = fusion.npmi(h_i, h_j, votes, self.BANDWIDTH, total_mass=50.0)
        assert abs(val - (-1.0)) <= 1e-6

    def test_bounds_over_1000_configurations(self):
        rng = np.random.default_rng(107)
        for _ in range(1000):
            total = float(rng.uniform(5.0, 500.0))
            h_i = Hypothesis(tuple(rng.uniform(0, 120, 2)),
                             float(rng.uniform(0.3, 3.0)),
                             float(rng.uniform(0.0, total * 0.95)))
            h_j = Hypothesis(tuple(rng.uniform(0, 120, 2)),
                             float(rng.uniform(0.3, 3.0)),
                             float(rng.uniform(0.0, total * 0.95)))
            votes = [
                self.voter(rng.uniform(0, 120, 2), float(rng.uniform(0.1, 1.0)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            bandwidth = float(rng.uniform(0.5, 25.0))
            val = fusion.npmi(h_i, h_j, votes, bandwidth, total_mass=total)
            assert -1.0 <= val <= 1.0
        print("\n[criterion 5] PASS  boundaries within 1e-6; bounded over "
              "1000 random configurations")


# ---------------------------------------------------------------------------
# criterion 6: end-to-end detection on synthetic scenes, through hrm synth,
# hrm train and detect as hrm detect runs it (the experiment script)


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load_experiment():
    spec = importlib.util.spec_from_file_location(
        "run_synthetic_experiment", SCRIPTS / "run_synthetic_experiment.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.experiment


class TestCriterion6EndToEndDetection:
    def test_fifty_scene_experiment(self):
        t0 = time.perf_counter()
        c6 = SCRIPTS / "c6"
        code, fig = _load_experiment()(
            str(c6 / "config.ini"), str(c6 / "train.ini"), str(c6 / "test.ini"),
            600, 1600,
        )
        elapsed = time.perf_counter() - t0
        assert code == 0
        recall, precision = fig["recall"], fig["precision"]
        total_obj, dup_objects = fig["objects"], fig["prefusion_dup_objects"]

        assert recall >= 0.9, f"recall {recall:.3f}"
        assert precision >= 0.9, f"precision {precision:.3f}"
        assert fig["dup_fused"] == 0, f"{fig['dup_fused']} duplicates after fusion"
        assert dup_objects >= 0.25 * total_obj, (
            f"only {dup_objects}/{total_obj} objects had pre-fusion "
            "cross-level duplicates"
        )
        assert elapsed <= 600.0, f"ran {elapsed:.0f}s, budget 600s"
        print(f"\n[criterion 6] PASS  recall {recall:.3f} precision "
              f"{precision:.3f} on {total_obj} objects; 0 post-fusion "
              f"duplicates; {dup_objects}/{total_obj} objects with pre-fusion "
              f"duplicates; {elapsed:.0f}s")


class TestCriterion7PaperScaleOutOfScope:
    def test_documented_substitution(self):
        """Benchmark-scale error rates are not asserted here.

        The published detection figures were obtained on full pedestrian
        and motorbike datasets with 100 latent components over
        6656-dimensional patch vectors.  Reproducing them requires those
        datasets and compute budgets; this suite substitutes the
        controlled synthetic experiment of criterion 6 plus the component
        level criteria 1-5, which exercise the same code paths at desk
        scale.  Defaults still match the full-scale settings
        (patch size 16, 17 regressors per family, c=100, alpha=1e-10).
        """
        from hrm.config import load_config

        cfg = load_config(None)
        assert cfg.pls.components == 100
        assert cfg.pls.ridge == 1e-10
        assert cfg.geometry.patch_size == 16
        assert cfg.geometry.num_context == 17
        assert cfg.geometry.vector_length == 6656
        print("\n[criterion 7] PASS  paper-scale runs documented as out of "
              "scope; full-scale defaults verified in config")


class TestCriterion8Determinism:
    CONFIG = (
        "[pls]\ncomponents = 4\n"
        "[features]\npatch_size = 6\nneighbor_offsets = 6 0 -6 0 0 6 0 -6\n"
        "[training]\nn_pos = 150\nn_neg = 150\nseed = 0\n"
        "[voting]\nscales = 0.75 1.0\nstride = 2\n"
    )
    SPEC = (
        "[synth]\nscenes = 5\ncanvas_width = 96\ncanvas_height = 96\n"
        "noise = 0.01\nmin_objects = 1\nmax_objects = 1\nscales = 0.75 1.0\n"
    )

    def run_chain(self, root):
        root.mkdir(exist_ok=True)
        (root / "cfg.ini").write_text(self.CONFIG)
        (root / "spec.ini").write_text(self.SPEC)
        assert cli_main(["synth", "--spec", str(root / "spec.ini"),
                         "--seed", "11", "--out", str(root / "scenes")]) == 0
        assert cli_main(["train", "--config", str(root / "cfg.ini"),
                         "--annotations", str(root / "scenes" / "annotations.txt"),
                         "--out", str(root / "model.hrmb")]) == 0
        assert cli_main(["detect", "--config", str(root / "cfg.ini"),
                         "--model", str(root / "model.hrmb"),
                         "--images", str(root / "scenes"),
                         "--out", str(root / "det.tsv")]) == 0
        assert cli_main(["eval", "--config", str(root / "cfg.ini"),
                         "--detections", str(root / "det.tsv"),
                         "--annotations", str(root / "scenes" / "annotations.txt"),
                         "--out", str(root / "pr.csv")]) == 0

    def test_full_chain_byte_identical(self, tmp_path):
        self.run_chain(tmp_path / "run1")
        self.run_chain(tmp_path / "run2")
        for rel in ("scenes/annotations.txt", "model.hrmb", "det.tsv", "pr.csv"):
            a = (tmp_path / "run1" / rel).read_bytes()
            b = (tmp_path / "run2" / rel).read_bytes()
            assert a == b, f"{rel} differs between identical runs"
        print("\n[criterion 8] PASS  train+detect+eval chain byte-identical "
              "across two runs")
