"""Mean-centered linear regression via iterative PLS and Bridge PLS.

Both fitting routines produce the same :class:`RegressionModel` container.
The iterative path extracts one latent component per eigendecomposition
(deflating the working matrices in between); the bridge path obtains all
components from a single eigendecomposition of a ridge-stabilized
cross-covariance matrix, which makes it the production choice for large
component counts.  Training uses only the bridge path; the iterative one
stays as the reference that tests compare against.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, InvalidComponents, InvalidInput

# Condition-number ceiling for the score Gram matrix before a fit is
# declared degenerate.
_COND_LIMIT = 1e12

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
    """A fitted mean-centered linear model ``Y ~ mean_y + (X - mean_x) B``.

    weights: (p, c) latent direction vectors, unit-norm columns.
    scores: (n, c) latent components of the training predictors.
    coefficients: (p, q) regression coefficient matrix B.
    residual: (n, q) training residual, exactly ``Yc - Xc @ B``.
    ridge: the bridge ridge parameter; 0 marks an iterative-PLS fit.
    """

    weights: np.ndarray
    scores: np.ndarray
    coefficients: np.ndarray
    residual: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray
    components: int
    ridge: float


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
    fixed so the largest-magnitude entry of each column is positive.
    """
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise InvalidInput(f"M must be square, got {M.shape}")
    scale = np.max(np.abs(M))
    if scale > 0 and np.max(np.abs(M - M.T)) > 1e-9 * scale:
        raise InvalidInput("M is not symmetric")
    if not 1 <= c <= M.shape[0]:
        raise InvalidInput(f"component count {c} outside [1, {M.shape[0]}]")

    global _EIG_CALLS
    _EIG_CALLS += 1
    evals, evecs = np.linalg.eigh(M)  # ascending order
    V = evecs[:, ::-1][:, :c]
    return _fix_signs(V)


def _center_pair(X, Y):
    X = _as_matrix(X, "X")
    Y = _as_matrix(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise InvalidInput(f"row count mismatch: X has {X.shape[0]}, Y has {Y.shape[0]}")
    Xc, mx = mean_center(X)
    Yc, my = mean_center(Y)
    return Xc, mx, Yc, my


def _coefficients_from_scores(W, T, G, Yc):
    """Solve B = W G^-1 T^T Yc with a conditioning check on G."""
    if np.linalg.cond(G) > _COND_LIMIT:
        raise DegenerateFit("score Gram matrix is numerically singular")
    B = W @ np.linalg.solve(G, T.T @ Yc)
    return B


def pls_fit(X, Y, c: int) -> RegressionModel:
    """Fit by the iterate-and-deflate procedure, one component per pass.

    Each pass extracts the dominant eigenvector of ``E^T F F^T E`` for the
    current deflated matrices, takes the (normalized) score ``t = E w``,
    and projects ``t`` out of both working matrices.
    """
    Xc, mx, Yc, my = _center_pair(X, Y)
    n, p = Xc.shape
    if not 1 <= c <= min(n - 1, p):
        raise InvalidComponents(
            f"c={c} must satisfy 1 <= c <= min(n-1, p) = {min(n - 1, p)}"
        )

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

    B = _coefficients_from_scores(W, T, T.T @ Xc @ W, Yc)
    R = Yc - Xc @ B
    return RegressionModel(W, T, B, R, mx, my, c, 0.0)


def bpls_fit(X, Y, c: int, alpha: float) -> RegressionModel:
    """Fit by the bridge variant: one eigendecomposition yields all weights.

    The weight matrix holds the first ``c`` dominant eigenvectors of
    ``Xc^T (alpha I + (1 - alpha) Yc Yc^T) Xc``; scores are ``Xc W``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInput(f"alpha={alpha} outside [0, 1]")
    Xc, mx, Yc, my = _center_pair(X, Y)
    n, p = Xc.shape
    if not 1 <= c <= min(n - 1, p):
        raise InvalidComponents(
            f"c={c} must satisfy 1 <= c <= min(n-1, p) = {min(n - 1, p)}"
        )

    XtY = Xc.T @ Yc
    M = alpha * (Xc.T @ Xc) + (1.0 - alpha) * (XtY @ XtY.T)
    M = 0.5 * (M + M.T)
    W = dominant_eigenvectors(M, c)
    T = Xc @ W
    B = _coefficients_from_scores(W, T, T.T @ T, Yc)
    R = Yc - Xc @ B
    return RegressionModel(W, T, B, R, mx, my, c, float(alpha))


def predict(model: RegressionModel, x) -> np.ndarray:
    """Evaluate the model at one point or at a batch of row vectors."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.mean_x.shape[0]:
        raise InvalidInput(
            f"dimension mismatch: x has {x.shape[-1]}, model expects {model.mean_x.shape[0]}"
        )
    return model.mean_y + (x - model.mean_x) @ model.coefficients


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
