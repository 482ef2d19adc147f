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


def moments(X, Y, c):
    """The centred moments (G, Xc^T Yc) a bridge fit of c components uses."""
    return pls.centred_moments(X, Y, c)[:2]


def bpls_reference(X, Y, c, alpha):
    """The bridge fit on an explicit centred copy: M from Xc and Yc, a full
    ``np.linalg.eigh``, scores T = Xc W and the head from T."""
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    XtY = Xc.T @ Yc
    M = alpha * (Xc.T @ Xc) + (1.0 - alpha) * (XtY @ XtY.T)
    _, evecs = np.linalg.eigh(0.5 * (M + M.T))
    W = evecs[:, ::-1][:, :c]
    T = Xc @ W
    return W @ np.linalg.solve(T.T @ T, T.T @ Yc)


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

    def test_same_result_for_either_order(self):
        # the eigensolver works in an F-ordered M and in a copy of a C-ordered
        # one; where it works changes nothing it returns
        A = np.random.default_rng(29).standard_normal((30, 30))
        M = A + A.T
        V = pls.dominant_eigenvectors(M.copy(order="C"), 4)
        assert np.array_equal(pls.dominant_eigenvectors(M.copy(order="F"), 4), V)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(InvalidInput):
            pls.dominant_eigenvectors([[0.0, 1.0], [0.0, 0.0]], 1)

    def test_rejects_asymmetry_in_last_strip(self):
        # the symmetry check runs in column strips; its only asymmetric pair
        # lies in the last, partial one
        p = 2 * pls._SYMMETRY_STRIP + 7
        A = np.random.default_rng(28).standard_normal((p, p))
        M = A + A.T
        assert pls.dominant_eigenvectors(M, 1).shape == (p, 1)
        M[p - 2, p - 1] += 1e-6 * np.max(np.abs(M))
        with pytest.raises(InvalidInput, match="not symmetric"):
            pls.dominant_eigenvectors(M, 1)

    def test_training_shaped_spectrum(self):
        # M as training builds it: a rank-2 cross term over 1e-10 G, so every
        # eigenvalue past the second clusters near 0.
        rng = np.random.default_rng(23)
        X = rng.standard_normal((200, 40))
        A = X.T @ rng.standard_normal((200, 2))
        M = 1e-10 * (X.T @ X) + A @ A.T
        V = pls.dominant_eigenvectors(M, 8)
        assert np.max(np.abs(V.T @ V - np.eye(8))) <= 1e-10
        top = np.linalg.eigh(M)[1][:, -2:]
        assert np.linalg.norm(V[:, :2] @ V[:, :2].T - top @ top.T) <= 1e-8


class TestCentredMoments:
    """The moment-form bridge fit against the fit on an explicit centred copy."""

    @staticmethod
    def rel(B, B_ref):
        return np.linalg.norm(B - B_ref) / np.linalg.norm(B_ref)

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_matches_centred_copy_fit(self, alpha):
        rng = np.random.default_rng(24)
        X = rng.standard_normal((40, 12)) * rng.uniform(0.5, 3, 12) + rng.uniform(-5, 5, 12)
        Y = X @ rng.standard_normal((12, 2)) + rng.standard_normal((40, 2))
        B = pls.bpls_fit(X, Y, 4, alpha).coefficients
        assert self.rel(B, bpls_reference(X, Y, 4, alpha)) <= 1e-10

    def test_matches_centred_copy_fit_small_alpha(self):
        # latent rank c = q: the top-c subspace is the cross term's, far
        # above the rounding floor of M
        rng = np.random.default_rng(25)
        X, Y = lowrank_data(rng, 40, 12, 2, rank=2, noise=0.05)
        B = pls.bpls_fit(X, Y, 2, 1e-10).coefficients
        assert self.rel(B, bpls_reference(X, Y, 2, 1e-10)) <= 1e-10

    def test_small_alpha_fitted_values_past_q(self):
        # latent rank c > q: weights past the q-th sit at 1e-10 of G, within
        # rounding of M, so B is fixed only on the row space of Xc
        rng = np.random.default_rng(26)
        X, Y = lowrank_data(rng, 40, 12, 2, rank=4, noise=0.05)
        Xc = X - X.mean(axis=0)
        B = pls.bpls_fit(X, Y, 4, 1e-10).coefficients
        assert self.rel(Xc @ B, Xc @ bpls_reference(X, Y, 4, 1e-10)) <= 1e-10

    def test_gram_of_large_mean_columns(self):
        # like the raw context j = 0: column means 100x the column spread
        rng = np.random.default_rng(27)
        S = rng.standard_normal((2500, 30)) * rng.uniform(0.5, 2.0, 30)
        X = 100 * S.std(axis=0) + S
        Y = rng.standard_normal((2500, 2))
        G, XtY, mx, my = pls.centred_moments(X, Y, 2)
        Xc = X - X.mean(axis=0)
        assert np.linalg.norm(G - Xc.T @ Xc, 2) <= 1e-12 * np.linalg.norm(G, 2)
        assert np.array_equal(G, G.T)
        assert np.allclose(XtY, Xc.T @ (Y - Y.mean(axis=0)), rtol=0, atol=1e-9)
        assert np.array_equal(mx, X.mean(axis=0)) and np.array_equal(my, Y.mean(axis=0))

    def test_gram_mirror_matches_triu_mirror(self):
        # the Gram is mirrored in column strips; this p leaves a partial last one
        p = 2 * pls._SYMMETRY_STRIP + 7
        rng = np.random.default_rng(29)
        X = rng.standard_normal((300, p))
        G = pls.centred_moments(X, rng.standard_normal((300, 1)), 1)[0]
        assert np.array_equal(G, np.triu(G) + np.triu(G, 1).T)
        Xc = X - X.mean(axis=0)
        assert np.linalg.norm(G - Xc.T @ Xc, 2) <= 1e-12 * np.linalg.norm(G, 2)

    def test_validates_like_the_fits(self):
        X = np.ones((5, 3))
        X[2, 1] = np.nan
        with pytest.raises(InvalidInput, match="X contains non-finite"):
            pls.centred_moments(X, np.ones((5, 1)), 1)
        with pytest.raises(InvalidComponents):
            pls.centred_moments(np.eye(5), np.ones((5, 1)), 5)


class TestLabelMoments:
    """Label moments pooled from the two classes against those of the
    stacked rows; positives first, labelled +1, then negatives, -1."""

    @staticmethod
    def classes(rng, n_pos, n_neg, p=30):
        # like the raw context j = 0: column means 100x the column spread,
        # and class means apart by a few spreads
        spread = rng.uniform(0.5, 2.0, p)
        X = rng.standard_normal((n_pos + n_neg, p)) * spread + 100 * spread
        X[n_pos:] += 3 * spread * rng.standard_normal(p)
        Y = np.where(np.arange(n_pos + n_neg) < n_pos, 1.0, -1.0)[:, None]
        return X, Y

    @staticmethod
    def pooled(X, n_pos, c):
        G_pos, _, mean_pos, _ = pls.centred_moments(X[:n_pos], np.ones((n_pos, 1)), c)
        return pls.label_moments(X, n_pos, G_pos, mean_pos)

    def test_matches_moments_of_stacked_rows(self):
        # more than one 1024-row block per class
        rng = np.random.default_rng(29)
        X, Y = self.classes(rng, 1300, 1100)
        G, XtY, mx, my = self.pooled(X, 1300, 2)
        G_ref, XtY_ref, mx_ref, my_ref = pls.centred_moments(X, Y, 2)
        assert np.linalg.norm(G - G_ref, 2) <= 1e-12 * np.linalg.norm(G_ref, 2)
        assert np.array_equal(G, G.T)
        assert np.linalg.norm(XtY - XtY_ref) <= 1e-12 * np.linalg.norm(XtY_ref)
        assert np.allclose(mx, mx_ref, rtol=1e-14, atol=0)
        assert np.allclose(my, my_ref, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_label_head_matches_stacked_fit(self, alpha):
        rng = np.random.default_rng(30)
        X, Y = self.classes(rng, 40, 25, p=12)
        B = pls.bpls_fit(X, Y, 4, alpha, self.pooled(X, 40, 4)).coefficients
        B_ref = pls.bpls_fit(X, Y, 4, alpha).coefficients
        assert np.linalg.norm(B - B_ref) <= 1e-10 * np.linalg.norm(B_ref)

    def test_label_head_fitted_values_small_alpha(self):
        # latent rank c > q: B is fixed only on the row space of Xc, as in
        # TestCentredMoments
        rng = np.random.default_rng(31)
        U = rng.standard_normal((65, 4))
        U[40:] += 3 * rng.standard_normal(4)
        X = U @ rng.standard_normal((4, 12)) + 200.0
        Y = np.where(np.arange(65) < 40, 1.0, -1.0)[:, None]
        Xc = X - X.mean(axis=0)
        B = pls.bpls_fit(X, Y, 4, 1e-10, self.pooled(X, 40, 4)).coefficients
        B_ref = pls.bpls_fit(X, Y, 4, 1e-10).coefficients
        assert np.linalg.norm(Xc @ (B - B_ref)) <= 1e-10 * np.linalg.norm(Xc @ B_ref)

    def test_single_negative(self):
        rng = np.random.default_rng(32)
        X, Y = self.classes(rng, 20, 1, p=6)
        G, XtY, mx, my = self.pooled(X, 20, 2)
        G_ref, XtY_ref, mx_ref, my_ref = pls.centred_moments(X, Y, 2)
        assert np.linalg.norm(G - G_ref) <= 1e-12 * np.linalg.norm(G_ref)
        assert np.allclose(XtY, XtY_ref, rtol=1e-12, atol=0)

    def test_holds_one_p_by_p_array(self):
        # the pooled Gram is the only p x p array formed: the rank-one term
        # goes in by strips, with no p x p temporary
        import tracemalloc

        p = 300
        rng = np.random.default_rng(34)
        X, _ = self.classes(rng, 60, 60, p=p)
        G_pos, _, mean_pos, _ = pls.centred_moments(X[:60], np.ones((60, 1)), 2)
        tracemalloc.start()
        try:
            G = pls.label_moments(X, 60, G_pos, mean_pos)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # G, one 60-row centring block and one strip of the rank-one term
        assert peak <= 8 * (p * p + 2 * 60 * p + pls._SYMMETRY_STRIP * p) + 65536
        G_ref = np.array(G_pos)
        G_ref += pls.centred_moments(X[60:], np.ones((60, 1)), 2)[0]
        v = np.sqrt(60 * 60 / 120) * (mean_pos - X[60:].mean(axis=0))
        assert np.array_equal(G, G_ref + v[:, None] * v)

    def test_validates_the_negatives_and_the_split(self):
        X = np.ones((6, 3))
        G, mean = np.zeros((3, 3)), np.ones(3)
        X[4, 1] = np.inf
        with pytest.raises(InvalidInput, match="X contains non-finite"):
            pls.label_moments(X, 3, G, mean)
        for n_pos in (0, 6):
            with pytest.raises(InvalidInput, match="both labels"):
                pls.label_moments(np.ones((6, 3)), n_pos, G, mean)

    def test_fit_from_moments_bounds_components_by_its_rows(self):
        rng = np.random.default_rng(33)
        X, Y = self.classes(rng, 5, 1, p=8)
        moments = self.pooled(X, 5, 4)
        with pytest.raises(InvalidComponents, match=r"min\(n-1, p\) = 5"):
            pls.bpls_fit(X, Y, 6, 0.5, moments)
        assert pls.bpls_fit(X, Y, 5, 0.5, moments).coefficients.shape == (8, 1)


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
        W = pls.bpls_weights(*moments(X, Y, 3), c=3, alpha=1.0)
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
        W = pls.bpls_weights(*moments(X, Y, 5), c=5, alpha=1e-10)
        G = W.T @ W
        assert np.max(np.abs(G - np.eye(5))) <= 1e-8

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput, match="X must be a nonempty 2-D matrix"):
            pls.bpls_fit(np.empty((0, 3)), np.empty((0, 1)), 1, 1e-10)

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


    @pytest.mark.parametrize("solver", ["eigh", "svdvals", "solve"])
    def test_solver_failure_is_degenerate_fit(self, monkeypatch, solver):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(pls.linalg, solver, fail)
        rng = np.random.default_rng(18)
        with pytest.raises(DegenerateFit, match="failed: did not converge"):
            pls.bpls_fit(rng.standard_normal((10, 4)), rng.standard_normal((10, 1)), 2, 0.5)


class TestProjectedBridge:
    """At a small ridge the bridge step solves M's alpha -> 0 limit: XtY's
    left singular vectors, then the top eigenvectors of G projected off
    them, by Lanczos or, past the crossover or on no convergence, by evr."""

    @staticmethod
    def data(rng, n=200, p=60, q=2):
        X = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0, p)
        Y = X @ rng.standard_normal((p, q)) + rng.standard_normal((n, q))
        return X, Y

    @staticmethod
    def rel(B, B_ref):
        return np.linalg.norm(B - B_ref) / np.linalg.norm(B_ref)

    def test_weights_are_the_limit(self):
        rng = np.random.default_rng(40)
        X, Y = self.data(rng)
        G, XtY = moments(X, Y, 8)
        W = pls.bpls_weights(G, XtY, 8, 1e-10)
        U = np.linalg.svd(XtY, full_matrices=False)[0]
        P = np.eye(60) - U @ U.T
        V = np.linalg.eigh(P @ G @ P)[1][:, ::-1][:, :6]
        assert np.linalg.norm(W[:, :2] @ W[:, :2].T - U @ U.T) <= 1e-12
        assert np.linalg.norm(W[:, 2:] @ W[:, 2:].T - V @ V.T) <= 1e-10
        assert np.max(np.abs(W.T @ W - np.eye(8))) <= 1e-12

    def test_one_component_is_top_singular_vector(self):
        rng = np.random.default_rng(41)
        X, Y = self.data(rng)
        G, XtY = moments(X, Y, 1)
        W = pls.bpls_weights(G, XtY, 1, 1e-10)
        u = np.linalg.svd(XtY, full_matrices=False)[0][:, 0]
        assert W.shape == (60, 1)
        assert abs(abs(u @ W[:, 0]) - 1.0) <= 1e-14

    def test_collinear_vote_columns(self):
        # rank XtY = 1 < q = 2: the fit is the one-column fit, twice
        rng = np.random.default_rng(42)
        X, y = self.data(rng, q=1)
        Y = np.hstack([y, 2.0 * y])
        B = pls.bpls_fit(X, Y, 6, 1e-10).coefficients
        b = pls.bpls_fit(X, y, 6, 1e-10).coefficients
        assert self.rel(B[:, :1], b) <= 1e-10
        assert self.rel(B[:, 1:], 2.0 * b) <= 1e-10

    def test_zero_alpha_is_the_small_alpha_limit(self):
        rng = np.random.default_rng(43)
        X, Y = self.data(rng)
        B0 = pls.bpls_fit(X, Y, 8, 0.0).coefficients
        assert self.rel(B0, pls.bpls_fit(X, Y, 8, 1e-10).coefficients) <= 1e-9

    @pytest.mark.parametrize("q", [1, 2])
    def test_dense_paths_match_lanczos(self, monkeypatch, q):
        rng = np.random.default_rng(44)
        X, Y = self.data(rng, p=120, q=q)
        B = pls.bpls_fit(X, Y, 10, 1e-10).coefficients  # 8 k < p: Lanczos

        def no_convergence(*args, **kwargs):
            raise pls.sparse_linalg.ArpackNoConvergence("no convergence", [], [])

        with monkeypatch.context() as m:
            m.setattr(pls.sparse_linalg, "eigsh", no_convergence)
            assert self.rel(pls.bpls_fit(X, Y, 10, 1e-10).coefficients, B) <= 1e-10
        with monkeypatch.context() as m:
            m.setattr(pls, "_LANCZOS_SPAN", 120)  # past the crossover
            assert self.rel(pls.bpls_fit(X, Y, 10, 1e-10).coefficients, B) <= 1e-10

    def test_lanczos_failure_then_dense_failure_is_degenerate_fit(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise pls.sparse_linalg.ArpackNoConvergence("no convergence", [], [])

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(pls.sparse_linalg, "eigsh", no_convergence)
        monkeypatch.setattr(pls.linalg, "eigh", fail)
        X, Y = self.data(np.random.default_rng(45))
        with pytest.raises(DegenerateFit, match="eigensolver failed: did not converge"):
            pls.bpls_fit(X, Y, 4, 1e-10)

    def test_bridge_ridge_keeps_m(self):
        # alpha tr(G) is 72x sqrt(eps) s_1 s_q here: the limit is off M's
        # eigenvectors by more than M's rounding, so M is solved whole
        rng = np.random.default_rng(47)
        X, Y = self.data(rng, p=12)
        B = pls.bpls_fit(X, Y, 4, 1e-3).coefficients
        assert self.rel(B, bpls_reference(X, Y, 4, 1e-3)) <= 1e-9
        assert self.rel(B, pls.bpls_fit(X, Y, 4, 0.0).coefficients) >= 1e-8

    def test_rejects_bad_basis(self):
        with pytest.raises(InvalidInput, match="basis"):
            pls.dominant_eigenvectors(np.eye(4), 2, np.ones((3, 1)))
        with pytest.raises(InvalidInput, match="basis"):
            pls.dominant_eigenvectors(np.eye(4), 2, np.ones((4, 0)))


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
        W = pls.bpls_weights(*moments(X, Y, 4), c=4, alpha=alpha)
        B = pls.bpls_fit(X, Y, c=4, alpha=alpha).coefficients
        assert self.span_residual(B, W) <= 1e-10

    def test_span_check_rejects_other_weights(self):
        # the check has teeth: a fit's B is not in another step's 4-dim span
        rng = np.random.default_rng(22)
        X = rng.standard_normal((30, 12))
        Y = rng.standard_normal((30, 2))
        W = pls.bpls_weights(*moments(X, Y, 4), c=4, alpha=1.0)
        B = pls.bpls_fit(X, Y, c=4, alpha=1e-10).coefficients
        assert self.span_residual(B, W) > 1e-3


class TestPredict:
    def test_mean_point(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal((20, 2))
        model = pls.bpls_fit(X, Y, c=2, alpha=1e-10)
        # the head passes through the training means
        d = pls.predict(model, X.mean(axis=0)) - Y.mean(axis=0)
        assert np.max(np.abs(d)) <= 1e-14 * np.max(np.abs(Y))

    def test_manual_arithmetic(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal((20, 2))
        model = pls.bpls_fit(X, Y, c=3, alpha=1e-10)
        x = rng.standard_normal(5)
        manual = model.coefficients.T @ x + model.intercept
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
    def test_counts(self, monkeypatch):
        # every eigensolve that the fits make, looked up on pls: the dense
        # M path and the projected Lanczos path both run in it
        calls = []
        solve = pls.dominant_eigenvectors

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(pls, "dominant_eigenvectors", counted)
        rng = np.random.default_rng(21)
        X = rng.standard_normal((30, 10))
        Y = rng.standard_normal((30, 2))
        pls.pls_fit(X, Y, c=4)
        assert len(calls) == 4
        calls.clear()
        pls.bpls_fit(X, Y, c=4, alpha=1e-10)
        assert len(calls) == 1
