import numpy as np
import pytest

from hrm import pls
from hrm.errors import DegenerateFit, InvalidComponents, InvalidInput


def lowrank_data(rng, n, p, q, rank, noise=0.0):
    """X with exact latent rank, Y linear in X plus optional noise."""
    U = rng.standard_normal((n, rank))
    V = rng.standard_normal((rank, p))
    X = U @ V
    B0 = rng.standard_normal((p, q))
    Y = X @ B0 + noise * rng.standard_normal((n, q))
    return X, Y


def centered(X, Y):
    """Column-centred copies of X and Y, the input of the latent steps."""
    return X - X.mean(axis=0), Y - Y.mean(axis=0)


def nipals_oracle(X, Y, c):
    """Independent iterate-and-deflate implementation.

    Extracts each weight from the small q x q matrix F^T E E^T F and maps
    it back, a different route than the production path.
    """
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    E, F = Xc.copy(), Yc.copy()
    Ws, Ts = [], []
    for _ in range(c):
        C = E.T @ F
        _, evecs = np.linalg.eigh(C.T @ C)
        w = C @ evecs[:, -1]
        w /= np.linalg.norm(w)
        t = E @ w
        t /= np.linalg.norm(t)
        Ws.append(w)
        Ts.append(t)
        E = E - np.outer(t, t) @ E
        F = F - np.outer(t, t) @ F
    W = np.column_stack(Ws)
    T = np.column_stack(Ts)
    return W @ np.linalg.solve(T.T @ Xc @ W, T.T @ Yc)


class TestMeanCenter:
    def test_two_by_two(self):
        centered, mean = pls.mean_center([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(centered, [[-1.0, -1.0], [1.0, 1.0]])
        assert np.array_equal(mean, [2.0, 3.0])

    def test_single_row_centers_to_zero(self):
        centered, mean = pls.mean_center([[5.0, -1.0, 2.0]])
        assert np.array_equal(centered, [[0.0, 0.0, 0.0]])

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 4)) * 50
        centered, _ = pls.mean_center(X)
        # direct summation oracle
        bound = 1e-9 * X.shape[0] * np.max(np.abs(X))
        assert np.all(np.abs(centered.sum(axis=0)) <= bound)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            pls.mean_center(np.empty((0, 3)))


class TestDominantEigenvectors:
    def test_diagonal(self):
        V = pls.dominant_eigenvectors(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(np.abs(V), np.eye(3)[:, :2])

    def test_identity_degenerate_spectrum(self):
        V = pls.dominant_eigenvectors(np.eye(4), 1)
        assert np.isclose(np.linalg.norm(V[:, 0]), 1.0)
        # residual check: M v = 1 * v
        assert np.allclose(np.eye(4) @ V[:, 0], V[:, 0], atol=1e-10)

    def test_matches_dense_solver(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((12, 12))
        M = A + A.T
        V = pls.dominant_eigenvectors(M, 12)
        evals_oracle = np.sort(np.linalg.eigvalsh(M))[::-1]
        for k in range(12):
            v = V[:, k]
            lam = v @ M @ v
            assert abs(lam - evals_oracle[k]) <= 1e-8 * max(1.0, abs(evals_oracle[0]))
            assert np.linalg.norm(M @ v - lam * v) <= 1e-7 * abs(evals_oracle[0])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(InvalidInput):
            pls.dominant_eigenvectors([[0.0, 1.0], [0.0, 0.0]], 1)


class TestPlsFit:
    def test_noiseless_exact_fit(self):
        rng = np.random.default_rng(3)
        X, Y = lowrank_data(rng, 30, 8, 2, rank=5)
        model = pls.pls_fit(X, Y, c=5)
        assert np.max(np.abs(pls.predict(model, X) - Y)) <= 1e-8

    def test_cross_covariance_rank_two(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((25, 10))
        Y = rng.standard_normal((25, 2))
        Xc = X - X.mean(axis=0)
        Yc = Y - Y.mean(axis=0)
        evals = np.sort(np.linalg.eigvalsh(Xc.T @ Yc @ Yc.T @ Xc))[::-1]
        assert np.all(evals[2:] <= 1e-10 * evals[0])

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 8))
        Y = rng.standard_normal((20, 2))
        model = pls.pls_fit(X, Y, c=3)
        B_oracle = nipals_oracle(X, Y, 3)
        rel = np.max(np.abs(model.coefficients - B_oracle)) / np.max(np.abs(B_oracle))
        assert rel <= 1e-6

    def test_scores_orthogonal_and_weights_unit(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 12))
        Y = rng.standard_normal((30, 2))
        W, T = pls.pls_latents(*centered(X, Y), c=4)
        G = T.T @ T
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) <= 1e-6 * np.max(np.diag(G))
        assert np.allclose(np.linalg.norm(W, axis=0), 1.0, atol=1e-8)

    def test_component_count_guard(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 3))
        Y = rng.standard_normal((5, 2))
        with pytest.raises(InvalidComponents):
            pls.pls_fit(X, Y, c=5)

    def test_degenerate_cross_covariance(self):
        X = np.ones((6, 3)) * 2.0  # centers to all zeros
        Y = np.arange(12.0).reshape(6, 2)
        with pytest.raises(DegenerateFit):
            pls.pls_fit(X, Y, c=1)


class TestBplsFit:
    def test_alpha_one_is_pcr(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((30, 6))
        Y = rng.standard_normal((30, 2))
        W = pls.bpls_weights(*centered(X, Y), c=3, alpha=1.0)
        Xc = X - X.mean(axis=0)
        evals, evecs = np.linalg.eigh(Xc.T @ Xc)
        pcs = evecs[:, ::-1][:, :3]
        for k in range(3):
            dot = abs(pcs[:, k] @ W[:, k])
            assert np.isclose(dot, 1.0, atol=1e-8)

    def test_small_alpha_matches_pls_predictions(self):
        # With c components and data of latent rank c, both fits project
        # onto the same score space, so predictions on points drawn from
        # the same latent model must coincide.
        rng = np.random.default_rng(10)
        n, p, c = 40, 12, 4
        V = rng.standard_normal((c, p))
        X = rng.standard_normal((n, c)) @ V
        Y = X @ rng.standard_normal((p, 2)) + 0.05 * rng.standard_normal((n, 2))
        m_pls = pls.pls_fit(X, Y, c=c)
        m_bpls = pls.bpls_fit(X, Y, c=c, alpha=1e-10)
        Xt = rng.standard_normal((15, c)) @ V
        d = np.abs(pls.predict(m_pls, Xt) - pls.predict(m_bpls, Xt))
        assert np.max(d) <= 1e-5 * np.max(np.abs(pls.predict(m_pls, Xt)))

    def test_rank_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, p, rank = 25, 10, int(rng.integers(2, 8))
            X, Y = lowrank_data(rng, n, p, 2, rank)
            Xc = X - X.mean(axis=0)
            XtY = Xc.T @ (Y - Y.mean(axis=0))
            M = 0.5 * (Xc.T @ Xc) + 0.5 * (XtY @ XtY.T)
            evals = np.linalg.eigvalsh(M)
            significant = int(np.count_nonzero(evals > 1e-10 * evals.max()))
            assert significant == np.linalg.matrix_rank(Xc)

    def test_orthonormal_weights(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((30, 9))
        Y = rng.standard_normal((30, 2))
        W = pls.bpls_weights(*centered(X, Y), c=5, alpha=1e-10)
        G = W.T @ W
        assert np.max(np.abs(G - np.eye(5))) <= 1e-8

    def test_alpha_guard(self):
        with pytest.raises(InvalidInput):
            pls.bpls_fit(np.eye(4), np.ones((4, 1)), 1, alpha=1.5)

    def test_component_count_guard(self):
        # centered rows have rank <= n - 1, so c = n cannot be fitted
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 30))
        Y = rng.standard_normal((20, 2))
        with pytest.raises(InvalidComponents, match=r"min\(n-1, p\) = 19"):
            pls.bpls_fit(X, Y, c=20, alpha=1e-10)
        assert pls.bpls_fit(X, Y, c=19, alpha=1e-10).coefficients.shape == (30, 2)

    def test_singular_scores(self):
        # duplicate columns make the score Gram matrix singular at c = p
        X = np.repeat(np.random.default_rng(13).standard_normal((10, 1)), 3, axis=1)
        Y = np.random.default_rng(14).standard_normal((10, 2))
        with pytest.raises(DegenerateFit):
            pls.bpls_fit(X, Y, c=3, alpha=1e-10)


class TestLatentSteps:
    """Each fit's coefficients lie in the span of its latent step's weights,
    so the W and T checks above test the weights the fits use."""

    @staticmethod
    def span_residual(B, W):
        Q, _ = np.linalg.qr(W)
        return np.linalg.norm(B - Q @ (Q.T @ B)) / np.linalg.norm(B)

    def test_pls_fit_uses_pls_latents(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((30, 12))
        Y = rng.standard_normal((30, 2))
        W, _ = pls.pls_latents(*centered(X, Y), c=4)
        assert self.span_residual(pls.pls_fit(X, Y, c=4).coefficients, W) <= 1e-10

    @pytest.mark.parametrize("alpha", [1e-10, 0.3, 1.0])
    def test_bpls_fit_uses_bpls_weights(self, alpha):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((30, 12))
        Y = rng.standard_normal((30, 2))
        W = pls.bpls_weights(*centered(X, Y), c=4, alpha=alpha)
        B = pls.bpls_fit(X, Y, c=4, alpha=alpha).coefficients
        assert self.span_residual(B, W) <= 1e-10

    def test_span_check_rejects_other_weights(self):
        # the check has teeth: a fit's B is not in another step's 4-dim span
        rng = np.random.default_rng(22)
        X = rng.standard_normal((30, 12))
        Y = rng.standard_normal((30, 2))
        W = pls.bpls_weights(*centered(X, Y), c=4, alpha=1.0)
        B = pls.bpls_fit(X, Y, c=4, alpha=1e-10).coefficients
        assert self.span_residual(B, W) > 1e-3


class TestPredict:
    def test_mean_point(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal((20, 2))
        model = pls.bpls_fit(X, Y, c=2, alpha=1e-10)
        assert np.array_equal(pls.predict(model, model.mean_x), model.mean_y)

    def test_manual_arithmetic(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal((20, 2))
        model = pls.bpls_fit(X, Y, c=3, alpha=1e-10)
        x = rng.standard_normal(5)
        manual = model.mean_y + model.coefficients.T @ (x - model.mean_x)
        assert np.allclose(pls.predict(model, x), manual, atol=0, rtol=0)

    def test_dimension_guard(self):
        rng = np.random.default_rng(17)
        model = pls.bpls_fit(
            rng.standard_normal((10, 4)), rng.standard_normal((10, 1)), 2, 1e-10
        )
        with pytest.raises(InvalidInput):
            pls.predict(model, np.zeros(5))


class TestCrossValidation:
    def test_recovers_true_rank(self):
        rng = np.random.default_rng(2)
        U = rng.standard_normal((60, 2))
        X = U @ rng.standard_normal((2, 8)) + 0.2 * rng.standard_normal((60, 8))
        Y = U @ rng.standard_normal((2, 2)) + 0.5 * rng.standard_normal((60, 2))
        assert pls.cross_validate_components(X, Y, (1, 2, 5), folds=5, seed=0) == 2

    def test_single_candidate(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((20, 6))
        Y = rng.standard_normal((20, 2))
        assert pls.cross_validate_components(X, Y, (4,), folds=4) == 4

    def test_pure_noise_prefers_smallest(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((50, 8))
        Y = rng.standard_normal((50, 2))
        assert pls.cross_validate_components(X, Y, (1, 3, 6), folds=5, seed=1) == 1

    def test_too_few_samples(self):
        with pytest.raises(InvalidInput):
            pls.cross_validate_components(np.eye(4), np.ones((4, 1)), (1,), folds=10)


class TestEigensolverCounting:
    def test_counts(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((30, 10))
        Y = rng.standard_normal((30, 2))
        pls.reset_eigendecomposition_count()
        pls.pls_fit(X, Y, c=4)
        assert pls.eigendecomposition_count() == 4
        pls.reset_eigendecomposition_count()
        pls.bpls_fit(X, Y, c=4, alpha=1e-10)
        assert pls.eigendecomposition_count() == 1
