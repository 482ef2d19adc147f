"""Mean-centered linear regression via iterative PLS and Bridge PLS.

A fit returns only its linear head (:class:`RegressionModel`).  Both fits
find latent weights W and solve one head ``B = W H^-1 R``; only the latent
step differs, and the head is the same for either sign of a column of W.
:func:`pls_latents` takes one eigendecomposition per component of the
centred data, deflating in between; :func:`bpls_weights` takes all
components from one top-c eigensolve of a ridge-stabilized cross-covariance
matrix built from :func:`centred_moments`, so the bridge fit never forms
the centred data or the scores.  At a small ridge that matrix's trailing
eigenvectors are rounding noise, so there the bridge step solves its
well-posed limit instead, by Lanczos.  Training forms one Gram per class:
:func:`label_moments` pools the positives' moments with the negatives' for
the label fit.  The bridge fit runs all its dense algebra in SciPy's
BLAS/LAPACK: NumPy bundles a second OpenBLAS, and alternating the two slows
both.  As in LAPACK, each symmetric matrix (G, M, the projected Gram) is
held in its upper triangle; the lower is unspecified and never read.
Training uses only the bridge path; the iterative one is the tests'
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import blas
from scipy.sparse import linalg as sparse_linalg

from .errors import (DegenerateFit, InvalidComponents, InvalidInput, check_integer,
                     check_real)

# Condition-number ceiling for the score Gram matrix before a fit is
# declared degenerate.
_COND_LIMIT = 1e12

# Rows centred at a time while accumulating the Gram matrix.
_BLOCK_ROWS = 1024

# Columns per strip of the label Gram's rank-one term, so that it forms no
# p x p temporary.
_RANK_ONE_STRIP = 64

_EPS = np.finfo(np.float64).eps

# Lanczos solves a projected problem for k eigenpairs when k * _LANCZOS_SPAN
# < p, and LAPACK's evr otherwise.  Measured on captured fit Grams at one
# BLAS thread, Lanczos took 6 against 58 ms at p 936, k 6 (c6), and 143
# against 410 ms at p 1664, k 98 (wide); the two tie at p / k of about 6.5
# (p 936) and 8 (p 1664), and Lanczos is 3-6x slower at k >= p / 4.
_LANCZOS_SPAN = 8

@dataclass(frozen=True)
class RegressionModel:
    """A fitted linear head ``Y ~ X @ coefficients + intercept``."""

    coefficients: np.ndarray  # (p, q)
    intercept: np.ndarray  # (q,)


@dataclass(frozen=True)
class LatentConfig:
    """Latent-subspace settings: component count c and bridge ridge alpha."""

    components: int = 100
    ridge: float = 1e-10

    def __post_init__(self):
        check_integer("components", self.components, 1)
        check_real("ridge", self.ridge, 0, 1)


def _as_matrix(a, name: str, finite: bool = True) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInput(f"{name} must be a nonempty 2-D matrix, got shape {a.shape}")
    if finite and not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def _column_means(X) -> np.ndarray:
    """The column means of a matrix X, or InvalidInput unless they are
    finite.  A non-finite entry makes its column's mean non-finite, so X is
    scanned only then, to tell such an entry from a sum that overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
    if not np.all(np.isfinite(mean)):
        if not np.all(np.isfinite(X)):
            raise InvalidInput("X contains non-finite entries")
        raise InvalidInput("the Gram of X overflowed: rescale X")
    return mean


def dominant_eigenvectors(M, c: int, basis=None) -> np.ndarray:
    """First ``c`` dominant eigenvectors of a symmetric positive semi-definite
    matrix, read from its upper triangle, as columns.

    Columns are unit-norm and ordered by descending eigenvalue; each keeps
    the eigensolver's sign, on which no head ``B = W H^-1 R`` depends, even
    in floating point.  Only the top ``c`` eigenpairs are computed.  Each M
    here is a sum of Grams, bounded by its diagonal, so only that is checked.

    Without ``basis``, M is solved by LAPACK's ``evr``, which may overwrite
    M and so saves a p x p copy.  With an orthonormal p x r ``basis`` U, the
    columns are U's followed by the top ``c - r`` eigenvectors of the
    projection ``(I - U U^T) M (I - U U^T)`` (just ``U[:, :c]`` when c <= r).
    M is then only read: Lanczos (ARPACK's ``eigsh``) applies the projection
    around one ``dsymv`` per step, from a fixed start vector (and a fixed
    seed for any restart vector ARPACK asks for), so a rerun gives the same
    bits.  The projection is formed, and solved by ``evr``, only where that
    is faster (``_LANCZOS_SPAN * (c - r) >= p``, which takes in every c
    where Lanczos cannot run) or where Lanczos does not converge.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInput(f"M must be a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(np.diagonal(M))):
        raise InvalidInput("M contains non-finite entries")
    p = M.shape[0]
    if not 1 <= c <= p:
        raise InvalidInput(f"component count {c} outside [1, {p}]")
    if basis is None:
        return _dense_top(M, c)

    U = np.asfortranarray(basis, dtype=np.float64)
    if U.ndim != 2 or not 1 <= U.shape[1] <= p or U.shape[0] != p:
        raise InvalidInput(f"basis must be p x r with 1 <= r <= p = {p}, got {U.shape}")
    r = U.shape[1]
    if c <= r:
        return U[:, :c].copy(order="F")
    W = np.empty((p, c), order="F")
    W[:, :r] = U
    W[:, r:] = _projected_top(np.asfortranarray(M), U, c - r)
    return W


def _dense_top(M, k: int) -> np.ndarray:
    """Top ``k`` eigenvectors of M by LAPACK ``evr``, descending; M may be
    overwritten."""
    p = M.shape[0]
    try:
        _, V = linalg.eigh(  # ascending order
            M, lower=False, subset_by_index=(p - k, p - 1), driver="evr",
            overwrite_a=True, check_finite=False,
        )
    except np.linalg.LinAlgError as e:
        raise DegenerateFit(f"eigensolver failed: {e}") from e
    return V[:, ::-1]


def _project(U, x):
    """``(I - U U^T) x`` in SciPy's BLAS; x is left as it is."""
    return blas.dgemv(-1.0, U, blas.dgemv(1.0, U, x, trans=1), beta=1.0, y=x)


def _projected_top(M, U, k: int) -> np.ndarray:
    """Top ``k`` eigenvectors of ``(I - U U^T) M (I - U U^T)``, descending,
    for an F-ordered M: Lanczos where it is the faster, else ``evr`` on the
    formed projection."""
    p = M.shape[0]
    if k * _LANCZOS_SPAN < p:
        op = sparse_linalg.LinearOperator(
            (p, p), matvec=lambda x: _project(U, blas.dsymv(1.0, M, _project(U, x))),
            dtype=np.float64,
        )
        try:
            _, V = sparse_linalg.eigsh(
                op, k, which="LA", v0=_project(U, np.ones(p)), tol=0, rng=0
            )
            return V[:, ::-1]
        except sparse_linalg.ArpackError:
            pass  # failed or did not converge: solve the formed projection
    # P M P = M - U T^T - T U^T, with T = M U - U (U^T M U) / 2
    MU = blas.dsymm(1.0, M, U)
    T = blas.dgemm(-0.5, U, blas.dgemm(1.0, U, MU, trans_a=1), beta=1.0, c=MU)
    return _dense_top(blas.dsyr2k(-1.0, U, T, beta=1.0, c=M), k)  # M is copied


def _check_components(c: int, n: int, p: int) -> None:
    if not 1 <= c <= min(n - 1, p):
        raise InvalidComponents(
            f"c={c} must satisfy 1 <= c <= min(n-1, p) = {min(n - 1, p)}"
        )


def _fit_inputs(X, Y, c: int):
    """Validate a fit's inputs (each once) and component count; return
    ``(X, Y, mean_x, mean_y)``."""
    X = _as_matrix(X, "X", finite=False)
    mx = _column_means(X)
    Y = _as_matrix(Y, "Y")
    n, p = X.shape
    if Y.shape[0] != n:
        raise InvalidInput(f"row count mismatch: X has {n}, Y has {Y.shape[0]}")
    _check_components(c, n, p)
    return X, Y, mx, Y.mean(axis=0)


def _centred_products(X, mx, Y=None, my=None):
    """G = Xc^T Xc (upper triangle), and Xc^T Yc when Y is given.  Rows are
    centred a block at a time: no n x p centred copy, and none of the
    cancellation of ``X^T X - n m m^T``.  G is finite where its trace is."""
    p = X.shape[1]
    G = np.zeros((p, p), order="F")
    XtY = None if Y is None else np.zeros((p, Y.shape[1]), order="F")
    buf = np.empty((min(len(X), _BLOCK_ROWS), p))  # one centred block at a time
    for i in range(0, len(X), _BLOCK_ROWS):
        rows = X[i : i + _BLOCK_ROWS]
        At = np.subtract(rows, mx, out=buf[: len(rows)]).T  # (p, rows), F-order
        G = blas.dsyrk(1.0, At, beta=1.0, c=G, overwrite_c=1)  # upper triangle
        if Y is not None:
            Yc = Y[i : i + _BLOCK_ROWS] - my
            XtY = blas.dgemm(1.0, At, Yc, beta=1.0, c=XtY, overwrite_c=1)
    if not np.isfinite(np.trace(G)):
        raise InvalidInput("the Gram of X overflowed: rescale X")
    return G, XtY


def centred_moments(X, Y, c: int):
    """Validate a fit's inputs; return ``(G, XtY, mean_x, mean_y)`` with
    G = Xc^T Xc (its upper triangle only) and XtY = Xc^T Yc, formed a block
    of rows at a time."""
    X, Y, mx, my = _fit_inputs(X, Y, c)
    return (*_centred_products(X, mx, Y, my), mx, my)


def label_moments(X, n_pos: int, G_pos, mean_pos):
    """Centred moments ``(G, XtY, mean_x, mean_y)`` of X against the labels
    +1 on its first ``n_pos`` rows and -1 on the rest, given G and the mean of
    the first rows (from :func:`centred_moments`); both Grams are upper.

    Only the rest is read: it is validated and its Gram G- formed.  The
    classes pool as in Chan, Golub & LeVeque (1979), a sum of positive
    semi-definite terms with no cancellation: G = G+ + G- + (n+ n-/n) d d^T
    and XtY = (2 n+ n-/n) d, with d = m+ - m-.
    """
    X = np.asarray(X)
    if not 1 <= n_pos < len(X):
        raise InvalidInput(f"n_pos={n_pos} must leave rows of both labels in {len(X)}")
    neg = _as_matrix(X[n_pos:], "X", finite=False)
    n_neg = len(neg)
    n = n_pos + n_neg
    mean_neg = _column_means(neg)
    G, _ = _centred_products(neg, mean_neg)
    d = mean_pos - mean_neg
    v = np.sqrt(n_pos * n_neg / n) * d
    G += G_pos
    for k in range(0, len(v), _RANK_ONE_STRIP):  # v v^T by column strips
        strip = slice(k, k + _RANK_ONE_STRIP)
        G[:, strip] += v[:, None] * v[strip]
    mean_x = (n_pos * mean_pos + n_neg * mean_neg) / n
    XtY = (2.0 * n_pos * n_neg / n * d)[:, None]
    return G, XtY, mean_x, np.array([(n_pos - n_neg) / n])


def _linear_model(W, H, R, mx, my) -> RegressionModel:
    """Solve B = W H^-1 R with a conditioning check on H; the head passes
    through the means, so its intercept is ``my - mx @ B``."""
    try:
        s = linalg.svdvals(H, check_finite=False)
        if not s[0] <= _COND_LIMIT * s[-1]:
            raise DegenerateFit("score Gram matrix is numerically singular")
        B = blas.dgemm(1.0, W, linalg.solve(H, R, check_finite=False))
    except np.linalg.LinAlgError as e:
        raise DegenerateFit(f"head solve failed: {e}") from e
    # C order: the bank's layout, and the one a loaded model has
    B = np.ascontiguousarray(B)
    return RegressionModel(B, my - mx @ B)


def pls_latents(Xc, Yc, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Iterative latent step on centred data: (W, T), one column per pass.

    Each pass takes the dominant eigenvector ``w`` of ``E^T F F^T E`` for the
    deflated matrices, the normalized score ``t = E w``, and projects ``t``
    out of both working matrices.
    """
    n, p = Xc.shape
    E = Xc.copy()
    F = Yc.copy()
    W = np.empty((p, c))
    T = np.empty((n, c))
    for k in range(c):
        C = E.T @ F
        if np.max(np.abs(C)) <= 1e-12 * max(1.0, np.max(np.abs(Xc))):
            raise DegenerateFit(f"cross-covariance vanished at component {k + 1}")
        w = dominant_eigenvectors(C @ C.T, 1)[:, 0]
        t = E @ w
        norm = np.linalg.norm(t)
        if norm <= 1e-12:
            raise DegenerateFit(f"zero score vector at component {k + 1}")
        t = t / norm
        W[:, k] = w
        T[:, k] = t
        proj = np.outer(t, t)
        E = E - proj @ E
        F = F - proj @ F
    return W, T


def bpls_weights(G, XtY, c: int, alpha: float) -> np.ndarray:
    """Bridge latent step on centred moments: W holds the first ``c`` dominant
    eigenvectors of ``M = alpha G + (1 - alpha) XtY XtY^T``, which is
    ``Xc^T (alpha I + (1 - alpha) Yc Yc^T) Xc``, from one eigensolve.

    Let XtY = U S V^T, with r singular values s_1 >= ... >= s_r above
    rounding (XtY's numerical rank, at most its column count q).  As
    alpha -> 0, M's top c eigenvectors tend to W = [U, top c - r eigenvectors
    of Gp = (I - U U^T) G (I - U U^T)], a problem that does not depend on
    alpha.  With beta = alpha / (1 - alpha), M / (1 - alpha) is
    XtY XtY^T + beta G, whose eigenvalues past the r-th are of order
    beta ||G||.  A solver's rounding on M, of order eps s_1^2, turns their
    eigenvectors by about eps s_1^2 / (beta ||G||); the limit is off them by
    about beta ||G|| / s_r^2, U's coupling to the rest over the gap (both
    over Gp's relative eigengap).  So the limit is the more accurate answer
    where beta ||G|| <= sqrt(eps) s_1 s_r, with ||G|| bounded by tr G: the
    rule below, times 1 - alpha.  It holds by a factor of 700 or more on
    every benchmark fit at alpha = 1e-10; there Gp is solved (by Lanczos)
    and M is not formed.  Elsewhere, as at alpha = 0.3 or at alpha = 1
    (PCR), M is formed and solved whole.  An r below q (collinear columns
    of XtY) and alpha = 0 take the limit too.  G is read from its upper half.
    """
    try:
        U, s, _ = linalg.svd(XtY, full_matrices=False, check_finite=False)
    except np.linalg.LinAlgError as e:
        raise DegenerateFit(f"cross-covariance SVD failed: {e}") from e
    r = int(np.count_nonzero(s > s[0] * max(XtY.shape) * _EPS))
    if r and alpha * np.trace(G) <= np.sqrt(_EPS) * s[0] * s[r - 1] * (1.0 - alpha):
        return dominant_eigenvectors(G, c, U[:, :r])
    M = blas.dsyrk(1.0 - alpha, XtY, beta=alpha, c=G)  # G is copied
    return dominant_eigenvectors(M, c)


def pls_fit(X, Y, c: int) -> RegressionModel:
    """Fit by iterative PLS (:func:`pls_latents`), one component per pass."""
    X, Y, mx, my = _fit_inputs(X, Y, c)
    Xc, Yc = X - mx, Y - my
    W, T = pls_latents(Xc, Yc, c)
    return _linear_model(W, T.T @ Xc @ W, T.T @ Yc, mx, my)


def bpls_fit(X, Y, c: int, alpha: float, moments=None) -> RegressionModel:
    """Fit by Bridge PLS (:func:`bpls_weights`) from the centred moments;
    the score Gram ``T^T T`` is ``W^T G W``.

    ``moments``, when given, are the ``(G, XtY, mean_x, mean_y)`` of these X
    and Y (from :func:`centred_moments` or :func:`label_moments`); X is then
    read for its shape only, to bound c, and Y (read only to form moments)
    may be None.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInput(f"alpha={alpha} outside [0, 1]")
    if moments is None:
        moments = centred_moments(X, Y, c)
    else:
        _check_components(c, *np.shape(X))
    G, XtY, mx, my = moments
    W = bpls_weights(G, XtY, c, alpha)
    H = blas.dgemm(1.0, W, blas.dsymm(1.0, G, W), trans_a=1)
    return _linear_model(W, H, blas.dgemm(1.0, W, XtY, trans_a=1), mx, my)


def predict(model: RegressionModel, x) -> np.ndarray:
    """Evaluate the model at one point or at a batch of row vectors."""
    x = np.asarray(x, dtype=np.float64)
    p = model.coefficients.shape[0]
    if x.shape[-1] != p:
        raise InvalidInput(f"dimension mismatch: x has {x.shape[-1]}, model expects {p}")
    return x @ model.coefficients + model.intercept


def cross_validate_components(
    X,
    Y,
    candidates,
    folds: int = 5,
    seed: int = 0,
    ridge: float = 1e-10,
) -> int:
    """Pick the candidate component count with the lowest k-fold MSE.

    Folds are contiguous blocks of a single seeded shuffle; ties go to the
    smallest candidate.
    """
    X = _as_matrix(X, "X")
    Y = _as_matrix(Y, "Y")
    n = X.shape[0]
    if folds < 2:
        raise InvalidInput("folds must be >= 2")
    if n < folds:
        raise InvalidInput(f"{n} samples cannot fill {folds} folds")
    if not candidates:
        raise InvalidInput("candidates is empty")

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    held_out = np.array_split(order, folds)

    best_c, best_err = None, np.inf
    for c in sorted(candidates):
        errs = []
        for held in held_out:
            train = np.setdiff1d(order, held, assume_unique=True)
            model = bpls_fit(X[train], Y[train], c, ridge)
            resid = predict(model, X[held]) - Y[held]
            errs.append(np.mean(resid**2))
        err = float(np.mean(errs))
        if err < best_err - 1e-15:
            best_c, best_err = c, err
    return best_c
