"""Kernel evaluation, Gram assembly, double centering, out-of-sample rows, and
the one product with a Gram.

Gram matrices are symmetric by construction, so ``entries == entries.T``
holds exactly (``GramMatrix`` checks it, tile by tile, for caller entries).
They are stored in float64, or in float32 for a fit from data (see
``gram``), plus a rank-2 term that ``gram_product`` applies in O(ns).
Centering stats (column means of the uncentered matrix plus its grand mean)
are stored for out-of-sample use.

Every kernel matrix is built inside its one output buffer. The inner
products X Y' fill it, then the distance, bandwidth and exponential steps
run in place, one panel of ``BLOCK`` rows at a time (``_kernel_block``); a
panel is the only other allocation. A query takes the layout of the
training samples. Against a dense transpose (dense samples, and CSR samples
with d <= n) X Y' is written straight into that buffer; against a CSR
transpose (CSR samples with d > n) the sparse product X Y' is densified
into it, so it is live beside it until then. ``kernel_rows`` centers rows
in place too. A Gram, float64 or float32, is built a strip of BLOCK
columns at a time on and below the diagonal, so no n x n product of the
samples is formed. ``center_gram`` writes no entry: the centered Gram
shares its parent's buffer and holds the centering as its rank-2 term, so
a fit holds one n x n buffer, the Gram it was given or built, from the
kernel to the final decomposition.

The training side of a kernel evaluation comes from the Dataset, which
computes it once: the rows' squared norms and the transposed sample matrix
(for CSR samples dense when d <= n and CSR when d > n, so no product
converts it again). A query pays for its own rows only. Either form of the
transpose gives the same entries bit for bit.
"""

from dataclasses import InitVar, dataclass

import numpy as np
from scipy import sparse

from .data_io import Dataset, read_csv, row_sq_norms
from .errors import DataError, KpcaError

FAMILIES = ("linear", "gaussian", "laplace", "precomputed")

# Rows per panel of the in-place kernel passes and of a materialized Gram,
# and the side of the tiles of the symmetry checks: a 256-row panel of an
# n=3000 matrix is 6 MB, a 256 x 256 tile 512 KB.
BLOCK = 256


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth. ``bandwidth`` is a positive finite float
    or the string ``"auto"`` (resolved by :func:`sigma_rule` at fit time); the linear
    and precomputed families carry no bandwidth."""

    family: str
    bandwidth: object = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KpcaError(f"unknown kernel family {self.family!r}")
        if self.family in ("gaussian", "laplace"):
            if self.bandwidth is None:
                raise KpcaError(f"{self.family} kernel requires a bandwidth")
            if self.bandwidth != "auto" and not 0 < float(self.bandwidth) < np.inf:
                raise KpcaError(f"bandwidth must be positive and finite, "
                                f"got {self.bandwidth}")
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
    """n x n exactly-symmetric kernel matrix E - m 1' - 1 m' + g 11': the
    stored ``entries`` E, float64 or float32, and a rank-2 term of float64
    ``m`` (None for none) and ``g``, which products apply in O(ns)
    (``gram_product``) and only ``baselines._dense`` materializes.
    ``stats`` holds the column means of the uncentered Gram: for a centered
    one those of the Gram it was centered from. An uncentered Gram with a
    term (float32, from ``gram``: m = -t) carries its own.

    Symmetry is checked here, tile by tile, unless a package builder, which
    makes its buffer exactly symmetric itself, passes ``_checked=True``."""

    entries: np.ndarray
    centered: bool = False
    stats: CenteringStats | None = None
    m: np.ndarray | None = None
    g: float = 0.0
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked):
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise KpcaError("Gram matrix must be square")
        if e.dtype not in (np.float32, np.float64):
            raise KpcaError(f"Gram entries must be float32 or float64, got {e.dtype}")
        if self.m is not None and self.stats is None and not self.centered:
            raise KpcaError("an uncentered Gram with a rank-2 term needs its stats")
        if not _checked and not all(np.array_equal(e[r, c], e[c, r].T)
                                    for r, c in _tiles(e.shape[0])):
            raise KpcaError("Gram matrix is not exactly symmetric")
        e.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def shape(self) -> tuple:
        return self.entries.shape


def gram_product(G, Q, exact: bool = False) -> np.ndarray:
    """G Q in float64: the one product with a Gram that the solvers, the
    dual core, the model and the baselines use. ``G`` is a GramMatrix or an
    array, which is taken as float64 as it was given.

    A float32 Gram multiplies Q cast once to float32, in single precision.
    With ``exact`` it accumulates in float64 instead, over upcast BLOCK-row
    panels of the stored entries: the product a model's spectrum and the
    checks (``pi``, ``dual_residual``) read. A float64 Gram gives ``E @ Q``
    either way. The rank-2 term is then applied in float64:
    G Q = E Q - m (1'Q) - 1 (m'Q - g 1'Q)."""
    E = G.entries if isinstance(G, GramMatrix) else np.asarray(G, dtype=float)
    if E.dtype == np.float64:
        out = E @ Q
    elif not exact:
        out = (E @ Q.astype(np.float32)).astype(np.float64)
    else:
        out = np.empty((E.shape[0], Q.shape[1]))
        for rows in _panels(E.shape[0]):
            np.matmul(E[rows].astype(np.float64), Q, out=out[rows])
    if isinstance(G, GramMatrix) and G.m is not None:
        col_sums = Q.sum(axis=0)
        out -= np.multiply.outer(G.m, col_sums)
        out -= G.m @ Q - G.g * col_sums
    return out


def product_rounding(G) -> float:
    """Relative rounding of ``gram_product`` (not ``exact``): the machine
    epsilon of the precision it runs in times sqrt(n), the typical growth of
    rounding over a length-n sum. An s x s matrix H'GH formed from it is
    known only to within about this fraction of its largest eigenvalue."""
    dtype = G.entries.dtype if isinstance(G, GramMatrix) else np.float64  # arrays: as read
    return float(np.finfo(dtype).eps) * float(np.sqrt(np.shape(G)[0]))


# Smallest benchmark-mode delta on a float32 Gram: there eta levels off at 2.7e-10
# to 5.6e-9 (gaussian, laplace and linear kernels, n=200 to 3000, s=5 to 20).
FLOAT32_MIN_DELTA = 1e-8


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
    xs = None if spec.family == "linear" else row_sq_norms(X)
    return _kernel_block(spec, X @ train.transposed, xs, train.sq_norms)


def _kernel_block(spec, K, xs, ys):
    """Kernel values in one dense float64 buffer from the inner products
    K[a, i] = <x_a, y_i> and the rows' squared norms xs and ys (unread by the
    linear kernel). A sparse K, the product with a CSR transpose, is
    densified once; the gaussian and laplace steps then run in place, one
    panel of BLOCK rows at a time. Callers pass the product as the call's
    expression X @ T, so no slice of X or T outlives it."""
    K = K.toarray() if sparse.issparse(K) else np.asarray(K)
    if spec.family == "linear":
        return K
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
    """Query rows in the training samples' layout, CSR or a float64 array:
    scipy copies a dense F-ordered transpose whole for a CSR query."""
    if sparse.issparse(X):
        if train.is_sparse:
            return X.tocsr()
        X = X.toarray()
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2):
        raise DataError(f"a query is a vector or a 2-d matrix of rows, got shape {X.shape}")
    X = np.atleast_2d(X)
    return sparse.csr_matrix(X) if train.is_sparse else X


def gram(dataset: Dataset, spec: KernelSpec, dtype=np.float64) -> GramMatrix:
    """Assemble the uncentered Gram matrix for a resolved kernel spec, stored
    as ``dtype``: float64 (the default) or float32.

    G is computed a strip of BLOCK columns at a time: K = G[i:, strip] is
    X[i:] X[strip]' in float64 (a sparse product has at most n x BLOCK
    entries) turned into kernel values in place, so the kernel runs on the
    lower triangle only. K's diagonal tile gets its lower triangle copied
    over its upper one, K is stored, and each tile above the diagonal is then
    copied from its mirror, so the buffer is exactly symmetric.

    float64 stores G. float32 (4n^2 bytes) stores E = G - (t 1' + 1 t'),
    each entry rounded once as it is written, and holds m = -t as its rank-2
    term, so the Gram is G to E's rounding; its ``stats`` are G's column
    means, summed in float64 from K's column and row sums. t = mu~ -
    mean(mu~) / 2, mu~ being the column means of the kernel against every
    ceil(n / BLOCK)-th sample, so E_ij is about the centered entry: rounding
    G itself would cost the centered entries their accuracy where they are
    much smaller than G's (the robust-libsvm Gram: rms 0.83 against 0.017)."""
    if spec.family == "precomputed":
        raise KpcaError("use load_gram_csv for precomputed Gram matrices")
    if not spec.resolved:
        raise KpcaError("resolve the 'auto' bandwidth before assembling a Gram")
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise KpcaError(f"a Gram is stored as float64 or float32, not {dtype}")
    shifted = dtype == np.float32
    n = dataset.n
    V, T, norms = dataset.values, dataset.transposed, dataset.sq_norms
    if shifted:
        means = kernel_cross(spec, dataset, V[::(n + BLOCK - 1) // BLOCK]).mean(axis=0)
        t = means - 0.5 * means.mean()
        sums = np.zeros(n)
    above = ~np.tri(BLOCK, dtype=bool)  # a tile's entries above its diagonal
    G = np.empty((n, n), dtype=dtype)
    for cols in _panels(n):
        i = cols.start
        b = min(BLOCK, n - i)
        K = _kernel_block(spec, V[i:] @ T[:, cols], norms[i:], norms[cols])
        D = K[:b]
        np.copyto(D, D.T, where=above[:b, :b])
        if spec.family in ("gaussian", "laplace"):
            np.fill_diagonal(D, 1.0)
        if shifted:
            sums[cols] += K.sum(axis=0)
            sums[i + b:] += K[b:].sum(axis=1)
            for rows in _panels(K.shape[0]):
                np.subtract(K[rows], np.add.outer(t[i:][rows], t[cols]),
                            out=G[i:, cols][rows], casting="same_kind")
        else:
            G[i:, cols] = K
        del K, D  # one strip live at a time
    for rows, cols in _tiles(n):
        if rows != cols:
            G[rows, cols] = G[cols, rows].T
    stats = CenteringStats(sums / n, float(np.mean(sums / n))) if shifted else None
    return GramMatrix(G, stats=stats, m=-t if shifted else None, _checked=True)


def center_gram(gm: GramMatrix) -> GramMatrix:
    """Double centering G_c = J G J with J = I - 11'/n, writing no entry: J
    removes any rank-2 term, so G_c is the stored entries E with the term
    m = mu, g = grand (E's column means, in float64, and their mean), and it
    shares ``gm``'s buffer. ``baselines._dense`` materializes entry (i, j)
    as (E_ij - (mu_i + mu_j)) + grand. A centered Gram is returned as it is.

    A float32 Gram from ``gram`` gives mu = stats.col_means + m + mean(m) - g
    in O(n) once its diagonal bounds every |E_ij| below E's range (a PSD
    kernel matrix A has |A_ij| <= max A_kk); any other Gram takes one
    read-only pass. A non-finite mu (a kernel that overflowed on huge
    samples) is a DataError. The recorded stats are the uncentered Gram's
    own, or mu and grand."""
    if gm.centered:
        return gm
    E, m, g = gm.entries, gm.m, gm.g
    if m is not None and np.max(np.diagonal(E) - 2 * m) + 2 * np.max(np.abs(m)) \
            + g + abs(g) < 0.5 * np.finfo(E.dtype).max:
        mu = gm.stats.col_means + m + m.mean() - g
    else:
        mu = E.mean(axis=0, dtype=np.float64)
    if not np.isfinite(mu).all():
        raise DataError("the Gram matrix holds a non-finite entry: the kernel "
                        "overflowed on the samples' magnitudes")
    grand = float(mu.mean())
    stats = gm.stats if gm.stats is not None else CenteringStats(mu, grand)
    return GramMatrix(E, centered=True, stats=stats, m=mu, g=grand, _checked=True)


def kernel_rows(spec: KernelSpec, train: Dataset, stats: CenteringStats, X) -> np.ndarray:
    """Centered kernel rows for a batch of query points (m x n): entries
    k(x, x_i) - mean_j k(x, x_j) - colmean_i + grandmean from the stored
    training stats, centered in place. ``model.project`` forms no such row.
    """
    K = kernel_cross(spec, train, X)
    K -= K.mean(axis=1)[:, None]
    K -= stats.col_means
    K += stats.grand_mean
    return K


def load_gram_csv(path) -> GramMatrix:
    """Load a dense precomputed n x n Gram from CSV (``data_io.read_csv``).
    Non-finite entries and asymmetry beyond 1e-8 * max|entry| are rejected;
    within tolerance the matrix is symmetrized."""
    G = read_csv(path, finite=False)
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
    return GramMatrix(G, centered=False, _checked=True)
