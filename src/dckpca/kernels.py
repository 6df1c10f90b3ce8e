"""Kernel evaluation, Gram assembly, double centering, and out-of-sample rows.

Gram matrices are symmetric by construction, so ``entries == entries.T``
holds exactly (``GramMatrix`` checks it). Centering stats (column means of the
uncentered matrix plus its grand mean) are stored for out-of-sample use.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data_io import Dataset
from .errors import DataError, KpcaError

FAMILIES = ("linear", "gaussian", "laplace", "precomputed")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth. ``bandwidth`` is a positive float or the
    string ``"auto"`` (resolved by :func:`sigma_rule` at fit time); the linear
    and precomputed families carry no bandwidth."""

    family: str
    bandwidth: object = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KpcaError(f"unknown kernel family {self.family!r}")
        if self.family in ("gaussian", "laplace"):
            if self.bandwidth is None:
                raise KpcaError(f"{self.family} kernel requires a bandwidth")
            if self.bandwidth != "auto" and not float(self.bandwidth) > 0:
                raise KpcaError(f"bandwidth must be positive, got {self.bandwidth}")
        elif self.bandwidth is not None:
            raise KpcaError(f"{self.family} kernel carries no bandwidth")

    @property
    def resolved(self) -> bool:
        return self.bandwidth != "auto"

    @property
    def sigma(self) -> float | None:
        if self.family in ("gaussian", "laplace"):
            if not self.resolved:
                raise KpcaError("bandwidth is 'auto'; resolve against data first")
            return float(self.bandwidth)
        return None

    def resolve(self, dataset: Dataset) -> "KernelSpec":
        if self.resolved:
            return self
        return KernelSpec(self.family, sigma_rule(dataset))


@dataclass(frozen=True)
class CenteringStats:
    col_means: np.ndarray
    grand_mean: float


@dataclass(frozen=True)
class GramMatrix:
    """n x n exactly-symmetric kernel matrix with centering state."""

    entries: np.ndarray
    centered: bool = False
    stats: CenteringStats | None = None

    def __post_init__(self):
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise KpcaError("Gram matrix must be square")
        if not np.array_equal(e, e.T):
            raise KpcaError("Gram matrix is not exactly symmetric")
        e.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def sigma_rule(dataset: Dataset) -> float:
    """Bandwidth rule sigma = 0.1 sqrt(d * var_x), var_x being the mean
    per-coordinate sample variance of the training data."""
    if dataset.n < 2:
        raise DataError("bandwidth rule needs n >= 2")
    if dataset.is_sparse:
        X = dataset.values
        n = dataset.n
        mean = np.asarray(X.mean(axis=0)).ravel()
        sq_mean = np.asarray(X.multiply(X).mean(axis=0)).ravel()
        var = (sq_mean - mean ** 2) * (n / (n - 1))
    else:
        var = np.var(dataset.values, axis=0, ddof=1)
    var_x = float(np.mean(var))
    if var_x <= 0:
        raise DataError("degenerate data: zero variance")
    return 0.1 * np.sqrt(dataset.d * var_x)


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Single kernel evaluation k(x, y)."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise DataError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if spec.family == "linear":
        return float(x @ y)
    if spec.family == "precomputed":
        raise KpcaError("precomputed kernels cannot be evaluated pointwise")
    sig2 = 2.0 * spec.sigma ** 2
    d2 = float(np.sum((x - y) ** 2))
    if spec.family == "gaussian":
        return float(np.exp(-d2 / sig2))
    return float(np.exp(-np.sqrt(d2) / sig2))


def _cross_sqdist(X, Y) -> np.ndarray:
    """Pairwise squared Euclidean distances (m x n), dense or CSR inputs."""
    if sparse.issparse(X):
        xs = np.asarray(X.multiply(X).sum(axis=1)).ravel()
        ys = np.asarray(Y.multiply(Y).sum(axis=1)).ravel()
        inner = np.asarray((X @ Y.T).todense())
    else:
        xs = np.einsum("ij,ij->i", X, X)
        ys = np.einsum("ij,ij->i", Y, Y)
        inner = X @ Y.T
    d2 = xs[:, None] + ys[None, :] - 2.0 * inner
    np.maximum(d2, 0.0, out=d2)
    return d2


def kernel_cross(spec: KernelSpec, train: Dataset, X) -> np.ndarray:
    """Uncentered m x n matrix [k(x_a, train_i)] for query rows X."""
    if spec.family == "precomputed":
        raise KpcaError("precomputed kernels cannot evaluate new points")
    X = _as_query_matrix(train, X)
    if X.shape[1] != train.d:
        raise DataError(f"dimension mismatch: query d={X.shape[1]}, train d={train.d}")
    if spec.family == "linear":
        out = X @ train.values.T
        return np.asarray(out.todense()) if sparse.issparse(out) else out
    d2 = _cross_sqdist(X, train.values)
    sig2 = 2.0 * spec.sigma ** 2
    if spec.family == "gaussian":
        return np.exp(-d2 / sig2)
    return np.exp(-np.sqrt(d2) / sig2)


def _as_query_matrix(train: Dataset, X):
    if sparse.issparse(X):
        return X.tocsr()
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if train.is_sparse:
        return sparse.csr_matrix(X)
    return X


def gram(dataset: Dataset, spec: KernelSpec) -> GramMatrix:
    """Assemble the uncentered Gram matrix for a resolved kernel spec. On a
    Dataset's values (one CSR matrix or float64 buffer) the cross kernel of X
    with itself is exactly symmetric as computed, so no mirroring is needed."""
    if spec.family == "precomputed":
        raise KpcaError("use load_gram_csv for precomputed Gram matrices")
    if not spec.resolved:
        raise KpcaError("resolve the 'auto' bandwidth before assembling a Gram")
    G = kernel_cross(spec, dataset, dataset.values)
    if spec.family in ("gaussian", "laplace"):
        np.fill_diagonal(G, 1.0)
    return GramMatrix(G, centered=False)


def center_gram(gm: GramMatrix) -> GramMatrix:
    """Double centering G_c = J G J with J = I - 11'/n; records the stats of
    its input so new points can be centered consistently. Entry (i, j) is
    G_ij - (mu_i + mu_j) + grand, symmetric in i and j term by term."""
    G = gm.entries
    mu = G.mean(axis=0)
    grand = float(mu.mean())
    Gc = np.add.outer(mu, mu)
    np.subtract(G, Gc, out=Gc)
    Gc += grand
    return GramMatrix(Gc, centered=True, stats=CenteringStats(mu.copy(), grand))


def add_jitter(gm: GramMatrix, theta: float = 1e-10) -> GramMatrix:
    """Escape hatch for rank-deficient centered Grams: adds theta*mean(diag)*I."""
    G = np.array(gm.entries)
    G[np.diag_indices_from(G)] += theta * float(np.mean(np.diag(G)))
    return GramMatrix(G, centered=gm.centered, stats=gm.stats)


def kernel_row(spec: KernelSpec, train: Dataset, stats: CenteringStats, x) -> np.ndarray:
    """Centered kernel row for a single point x (length-n vector)."""
    return kernel_rows(spec, train, stats, x)[0]


def kernel_rows(spec: KernelSpec, train: Dataset, stats: CenteringStats, X) -> np.ndarray:
    """Centered kernel rows for a batch of query points (m x n).

    Row entries are k(x, x_i) - mean_j k(x, x_j) - colmean_i + grandmean,
    with colmean/grandmean taken from the stored training stats.
    """
    K = kernel_cross(spec, train, X)
    row_means = K.mean(axis=1)
    return K - row_means[:, None] - stats.col_means[None, :] + stats.grand_mean


def self_kernel(spec: KernelSpec, X) -> np.ndarray:
    """Uncentered k(x, x) per query row. X must be a 2-d matrix (dense or CSR)."""
    if spec.family in ("gaussian", "laplace"):
        return np.ones(X.shape[0])
    if sparse.issparse(X):
        return np.asarray(X.multiply(X).sum(axis=1)).ravel()
    X = np.asarray(X, dtype=float)
    return np.einsum("ij,ij->i", X, X)


def centered_self_kernel(spec: KernelSpec, train: Dataset, stats: CenteringStats, X) -> np.ndarray:
    """Centered self-similarity k~(x, x) per query row: the squared feature-space
    norm of the centered feature map."""
    K = kernel_cross(spec, train, X)
    kxx = self_kernel(spec, _as_query_matrix(train, X))
    return kxx - 2.0 * K.mean(axis=1) + stats.grand_mean


def load_gram_csv(path) -> GramMatrix:
    """Load a dense precomputed n x n Gram from CSV. Non-finite entries and
    asymmetry beyond 1e-8 * max|entry| are rejected; within tolerance the
    matrix is symmetrized."""
    G = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if G.shape[0] != G.shape[1]:
        raise DataError(f"precomputed Gram must be square, got {G.shape}")
    bad = np.argwhere(~np.isfinite(G))
    if bad.size:
        i, j = bad[0]
        raise DataError(f"precomputed Gram row {i + 1}, column {j + 1}: non-finite entry")
    scale = np.max(np.abs(G)) if G.size else 0.0
    asym = np.max(np.abs(G - G.T))
    if asym > 1e-8 * max(scale, 1e-300):
        raise DataError(f"precomputed Gram asymmetry {asym:.3e} exceeds tolerance")
    return GramMatrix(0.5 * (G + G.T), centered=False)
