"""Mean-centered linear regression via iterative PLS and Bridge PLS.

A fit returns only its linear head (:class:`RegressionModel`).  Both fits
find latent weights W and solve one head ``B = W H^-1 R``; only the latent
step differs.  :func:`pls_latents` takes one eigendecomposition per
component of the centred data, deflating in between; :func:`bpls_weights`
takes all components from one top-c eigensolve of a ridge-stabilized
cross-covariance matrix built from :func:`centred_moments`, so the bridge
fit never forms the centred data or the scores.  Training forms one Gram
per class: :func:`label_moments` pools the positives' moments with the
negatives' for the label fit.  The bridge fit runs all its dense algebra in
SciPy's BLAS/LAPACK: NumPy bundles a second OpenBLAS, and alternating the
two slows both.  Training uses only the bridge path; the iterative one is
the tests' reference.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import blas

from .errors import DegenerateFit, InvalidComponents, InvalidInput

# Condition-number ceiling for the score Gram matrix before a fit is
# declared degenerate.
_COND_LIMIT = 1e12

# Rows centred at a time while accumulating the Gram matrix.
_BLOCK_ROWS = 1024

# Columns per strip of the symmetry check and of the Gram's mirror, so that
# neither forms a p x p temporary.
_SYMMETRY_STRIP = 64

# Eigendecomposition call counter, used by efficiency tests.  Incremented by
# dominant_eigenvectors; read/reset through the helpers below.
_EIG_CALLS = 0


def eigendecomposition_count() -> int:
    """Number of eigensolver invocations since the last reset."""
    return _EIG_CALLS


def reset_eigendecomposition_count() -> None:
    global _EIG_CALLS
    _EIG_CALLS = 0


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
        c = self.components
        if isinstance(c, bool) or not isinstance(c, numbers.Integral) or c < 1:
            raise InvalidInput(f"components must be an integer >= 1, got {c!r}")
        if not 0.0 <= self.ridge <= 1.0:  # NaN fails too
            raise InvalidInput(f"ridge must lie in [0, 1], got {self.ridge}")


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInput(f"{name} must be a nonempty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def mean_center(X) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the column means; returns (centered, mean)."""
    X = _as_matrix(X, "X")
    mean = X.mean(axis=0)
    return X - mean, mean


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so each column's largest-|.| entry is positive."""
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


def dominant_eigenvectors(M, c: int) -> np.ndarray:
    """First ``c`` dominant eigenvectors of a symmetric matrix, as columns.

    Columns are unit-norm, ordered by descending eigenvalue, with signs
    fixed so the largest-magnitude entry of each column is positive.  Only
    the top ``c`` eigenpairs are computed.
    """
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise InvalidInput(f"M must be square, got {M.shape}")
    p = M.shape[0]
    tol = 1e-9 * max(M.max(), -M.min())
    for k in range(0, p, _SYMMETRY_STRIP):
        # the strip's columns from row k down against the mirrored rows; the
        # pairs above row k were compared in earlier strips
        strip = slice(k, k + _SYMMETRY_STRIP)
        if np.max(np.abs(M[k:, strip] - M[strip, k:].T)) > tol:
            raise InvalidInput("M is not symmetric")
    if not 1 <= c <= p:
        raise InvalidInput(f"component count {c} outside [1, {p}]")

    global _EIG_CALLS
    _EIG_CALLS += 1
    try:
        _, V = linalg.eigh(  # ascending order
            M, subset_by_index=(p - c, p - 1), driver="evr", check_finite=False
        )
    except np.linalg.LinAlgError as e:
        raise DegenerateFit(f"eigensolver failed: {e}") from e
    return _fix_signs(V[:, ::-1])


def _check_components(c: int, n: int, p: int) -> None:
    if not 1 <= c <= min(n - 1, p):
        raise InvalidComponents(
            f"c={c} must satisfy 1 <= c <= min(n-1, p) = {min(n - 1, p)}"
        )


def _fit_inputs(X, Y, c: int):
    """Validate a fit's inputs (each once) and component count; return
    ``(X, Y, mean_x, mean_y)``."""
    X = _as_matrix(X, "X")
    Y = _as_matrix(Y, "Y")
    n, p = X.shape
    if Y.shape[0] != n:
        raise InvalidInput(f"row count mismatch: X has {n}, Y has {Y.shape[0]}")
    _check_components(c, n, p)
    return X, Y, X.mean(axis=0), Y.mean(axis=0)


def _centred_products(X, mx, Y=None, my=None):
    """G = Xc^T Xc, and Xc^T Yc when Y is given.  Rows are centred a block at
    a time: no n x p centred copy, and none of the cancellation of
    ``X^T X - n m m^T``."""
    p = X.shape[1]
    G = np.zeros((p, p), order="F")
    XtY = None if Y is None else np.zeros((p, Y.shape[1]), order="F")
    for i in range(0, len(X), _BLOCK_ROWS):
        At = (X[i : i + _BLOCK_ROWS] - mx).T  # (p, rows), F-order
        G = blas.dsyrk(1.0, At, beta=1.0, c=G, overwrite_c=1)  # upper triangle
        if Y is not None:
            Yc = Y[i : i + _BLOCK_ROWS] - my
            XtY = blas.dgemm(1.0, At, Yc, beta=1.0, c=XtY, overwrite_c=1)
    s = _SYMMETRY_STRIP  # mirror into the lower triangle, still zero, by strips
    for k in range(0, p, s):
        strip = slice(k, k + s)
        G[strip, strip] += np.triu(G[strip, strip], 1).T
        G[k + s :, strip] = G[strip, k + s :].T
    return G, XtY


def centred_moments(X, Y, c: int):
    """Validate a fit's inputs; return ``(G, XtY, mean_x, mean_y)`` with
    G = Xc^T Xc and XtY = Xc^T Yc, formed a block of rows at a time."""
    X, Y, mx, my = _fit_inputs(X, Y, c)
    return (*_centred_products(X, mx, Y, my), mx, my)


def label_moments(X, n_pos: int, G_pos, mean_pos):
    """Centred moments ``(G, XtY, mean_x, mean_y)`` of X against the labels
    +1 on its first ``n_pos`` rows and -1 on the rest, given G and the mean of
    the first rows (from :func:`centred_moments`).

    Only the rest is read: it is validated and its Gram G- formed.  The
    classes pool as in Chan, Golub & LeVeque (1979), a sum of positive
    semi-definite terms with no cancellation: G = G+ + G- + (n+ n-/n) d d^T
    and XtY = (2 n+ n-/n) d, with d = m+ - m-.
    """
    X = np.asarray(X)
    if not 1 <= n_pos < len(X):
        raise InvalidInput(f"n_pos={n_pos} must leave rows of both labels in {len(X)}")
    neg = _as_matrix(X[n_pos:], "X")
    n_neg = len(neg)
    n = n_pos + n_neg
    mean_neg = neg.mean(axis=0)
    G, _ = _centred_products(neg, mean_neg)
    d = mean_pos - mean_neg
    v = np.sqrt(n_pos * n_neg / n) * d
    G += G_pos
    G += v[:, None] * v  # v_i v_j == v_j v_i, so G stays exactly symmetric
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
    """
    M = blas.dgemm(1.0 - alpha, XtY, XtY, trans_b=1, beta=alpha, c=G)
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
    read for its shape only, to bound c.
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
