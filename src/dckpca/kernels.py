"""Kernel evaluation, Gram assembly, double centering, and out-of-sample rows.

Gram matrices are symmetric by construction, so ``entries == entries.T``
holds exactly (``GramMatrix`` checks it, tile by tile). Centering stats
(column means of the uncentered matrix plus its grand mean) are stored for
out-of-sample use.

Every kernel matrix is built inside its one output buffer. The inner
products X Y' fill it, then the distance, bandwidth and exponential steps
run in place, one panel of ``BLOCK`` rows at a time; a panel is the only
other allocation. With CSR queries against a Dataset that holds a dense
transpose, scipy writes X Y' straight into that buffer; against a CSR
transpose (samples with d > n) the sparse product X Y' is densified into
it, so it is live beside it until then. Query rows are centered in place as
well. ``center_gram(gm, overwrite=True)`` centers panel by panel in
``gm``'s own buffer, so a fit from data holds one n x n buffer from the
kernel's inner products to the final decomposition; the default copies
first and leaves ``gm`` as it was, for a Gram the caller owns.

The training side of a kernel evaluation comes from the Dataset, which
computes it once: the rows' squared norms and the transposed sample matrix
(for CSR samples dense when d <= n and CSR when d > n, so no product
converts it again). A query pays for its own rows only. Either form of the
transpose gives the same entries bit for bit.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data_io import Dataset, row_sq_norms
from .errors import DataError, KpcaError

FAMILIES = ("linear", "gaussian", "laplace", "precomputed")

# Rows per panel of the in-place kernel and centering passes, and the side
# of the tiles of the symmetry checks: a 256-row panel of an n=3000 matrix
# is 6 MB, a 256 x 256 tile 512 KB.
BLOCK = 256


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
    """Column means of an uncentered Gram (read-only) and its grand mean."""

    col_means: np.ndarray
    grand_mean: float

    def __post_init__(self):
        self.col_means.setflags(write=False)


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
        if not all(np.array_equal(e[r, c], e[c, r].T) for r, c in _tiles(e.shape[0])):
            raise KpcaError("Gram matrix is not exactly symmetric")
        e.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _tiles(n):
    """(rows, cols) slices of the BLOCK x BLOCK tiles on and above the
    diagonal of an n x n matrix; each tile's mirror is [cols, rows]."""
    for i in range(0, n, BLOCK):
        for j in range(i, n, BLOCK):
            yield slice(i, i + BLOCK), slice(j, j + BLOCK)


def _panels(m):
    """Row slices of BLOCK rows covering an m-row matrix."""
    return (slice(i, i + BLOCK) for i in range(0, m, BLOCK))


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


def kernel_cross(spec: KernelSpec, train: Dataset, X) -> np.ndarray:
    """Uncentered m x n matrix [k(x_a, train_i)] for query rows X.

    With d2 = (|x_a|^2 + |y_i|^2) - 2 <x_a, y_i>, clamped at 0, the gaussian
    entry is exp(-d2 / (2 sigma^2)) and the laplace entry
    exp(-sqrt(d2) / (2 sigma^2)). Both are computed in place in the buffer of
    inner products; the sum of squared norms comes first, so entry (a, i) of
    the kernel of X with itself equals entry (i, a) exactly.
    """
    if spec.family == "precomputed":
        raise KpcaError("precomputed kernels cannot evaluate new points")
    X = _as_query_matrix(train, X)
    if X.shape[1] != train.d:
        raise DataError(f"dimension mismatch: query d={X.shape[1]}, train d={train.d}")
    # a dense X X' runs as one symmetric product; a CSR X against a dense
    # transpose is written straight into a dense result, against a CSR one
    # the sparse product is densified once
    K = X @ train.transposed
    K = K.toarray() if sparse.issparse(K) else np.asarray(K)
    if spec.family == "linear":
        return K
    xs, ys = row_sq_norms(X), train.sq_norms
    neg_sig2 = -2.0 * spec.sigma ** 2
    for rows in _panels(K.shape[0]):
        P = K[rows]
        P *= -2.0
        P += np.add.outer(xs[rows], ys)
        np.maximum(P, 0.0, out=P)
        if spec.family == "laplace":
            np.sqrt(P, out=P)
        np.divide(P, neg_sig2, out=P)
        np.exp(P, out=P)
    return K


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


def center_gram(gm: GramMatrix, overwrite: bool = False) -> GramMatrix:
    """Double centering G_c = J G J with J = I - 11'/n; records the stats of
    its input so new points can be centered consistently. Entry (i, j) is
    (G_ij - (mu_i + mu_j)) + grand, symmetric in i and j term by term.

    With ``overwrite=True`` the centering runs in ``gm``'s buffer, which the
    result takes over (``gm`` then holds centered entries), as scipy's
    ``overwrite_a``; a buffer that cannot be made writable is a KpcaError.
    By default the entries are copied and ``gm`` is left unchanged. Both give
    the same entries bit for bit."""
    G = gm.entries
    if overwrite:
        try:
            G.setflags(write=True)
        except ValueError as exc:
            raise KpcaError(f"cannot center the Gram in place: its buffer "
                            f"is read-only memory ({exc})") from exc
    mu = G.mean(axis=0)
    grand = float(mu.mean())
    if not overwrite:
        G = G.copy()
    for rows in _panels(G.shape[0]):
        P = G[rows]
        P -= np.add.outer(mu[rows], mu)
        P += grand
    return GramMatrix(G, centered=True, stats=CenteringStats(mu, grand))


def kernel_rows(spec: KernelSpec, train: Dataset, stats: CenteringStats, X) -> np.ndarray:
    """Centered kernel rows for a batch of query points (m x n).

    Row entries are k(x, x_i) - mean_j k(x, x_j) - colmean_i + grandmean,
    with colmean/grandmean taken from the stored training stats.
    """
    K = kernel_cross(spec, train, X)
    return _center_rows(K, K.mean(axis=1), stats)


def kernel_rows_with_self(spec: KernelSpec, train: Dataset, stats: CenteringStats,
                          X) -> tuple[np.ndarray, np.ndarray]:
    """``kernel_rows`` of X together with the centered self-similarity
    k~(x, x) = k(x, x) - 2 mean_j k(x, x_j) + grandmean of each row (the
    squared feature-space norm of the centered feature map), from one
    evaluation of the cross kernel."""
    X = _as_query_matrix(train, X)
    K = kernel_cross(spec, train, X)
    row_means = K.mean(axis=1)
    kxx = row_sq_norms(X) if spec.family == "linear" else np.ones(X.shape[0])
    self_k = kxx - 2.0 * row_means + stats.grand_mean
    return _center_rows(K, row_means, stats), self_k


def _center_rows(K, row_means, stats):
    K -= row_means[:, None]
    K -= stats.col_means
    K += stats.grand_mean
    return K


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
    # symmetrized in place, tile against mirror tile: no n x n temporary
    scale = max(G.max(), -G.min()) if G.size else 0.0
    asym = 0.0
    for r, c in _tiles(G.shape[0]):
        upper, lower = G[r, c], G[c, r].T
        asym = max(asym, np.max(np.abs(upper - lower)))
        sym = 0.5 * (upper + lower)
        G[r, c] = sym
        G[c, r] = sym.T
    if asym > 1e-8 * max(scale, 1e-300):
        raise DataError(f"precomputed Gram asymmetry {asym:.3e} exceeds tolerance")
    return GramMatrix(G, centered=False)
