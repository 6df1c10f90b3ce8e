"""Dataset loading, synthetic generators, and the outlier-contamination protocol.

Datasets are immutable after construction and safe to share across threads;
every generator is a pure function of its sizes and a 64-bit seed. A Dataset
computes the training side of every kernel evaluation when it is built: the
squared norm of each row, and the transposed sample matrix. For CSR samples
the transpose is a dense d x n buffer when d <= n, so a CSR query is one
sparse x dense product, and a CSR matrix of its own when d > n. CSR samples
are held as a read-only copy in canonical form (sorted indices, no
duplicates).
"""

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DataError, KpcaError


def row_sq_norms(X) -> np.ndarray:
    """Squared Euclidean norm of each row of a dense or CSR matrix.

    For CSR the result is bit-identical to ``X.multiply(X).sum(axis=1)``:
    the nonzero squares of X's canonical form, summed row by row by
    ``np.add.reduceat``, without building a sparse matrix. A non-canonical X
    is canonicalized on a copy."""
    if not sparse.issparse(X):
        return np.einsum("ij,ij->i", X, X)
    X = _canonical_csr(X)
    sq = X.data * X.data
    ptr = X.indptr
    if not sq.all():
        # X.multiply(X) stores no zero squares (explicit zeros, underflow);
        # reduceat's grouping of a row's terms shifts with them, so drop them
        kept = sq != 0
        ptr = np.concatenate(([0], np.cumsum(kept)))[ptr]
        sq = sq[kept]
    out = np.zeros(X.shape[0])
    rows = np.flatnonzero(np.diff(ptr))
    out[rows] = np.add.reduceat(sq, ptr[rows])
    return out


def _canonical_csr(X):
    """X as CSR with sorted indices and no duplicates: X itself when it
    already is, else a canonicalized copy (the caller's matrix is kept)."""
    X = X.tocsr()
    if not X.has_canonical_format:
        X = X.copy()
        X.sum_duplicates()
    return X


def _transpose_csr(X):
    """The d x n transpose of canonical n x d CSR samples, read-only: dense
    and C-contiguous when d <= n (8nd bytes, no larger than an n x n Gram),
    CSR otherwise. Both forms give the same product Q @ T for a CSR query Q
    bit for bit: scipy sums the same nonzero terms in the same order, and
    the dense form only adds exact zeros."""
    n, d = X.shape
    if d <= n:
        T = X.T.toarray(order="C")
        T.setflags(write=False)
        return T
    T = X.T.tocsr()
    for part in (T.data, T.indices, T.indptr):
        part.setflags(write=False)
    return T


@dataclass(frozen=True)
class Dataset:
    """n x d sample matrix, dense float64 ndarray or CSR (other inputs are
    converted), with optional per-row labels.

    ``sq_norms`` (the rows' squared norms) and ``transposed`` (the d x n
    transpose) are computed once, here, and are read-only. For dense samples
    the transpose is a view of their buffer. CSR samples are held as a
    read-only copy in canonical form, so the caller's matrix is left as it
    was and a later change to it does not reach the Dataset; their
    transpose is a dense buffer when d <= n and a CSR matrix of its own when
    d > n. The dense one takes 8nd bytes for as long as the Dataset lives:
    during a fit that is at most 8n^2, but a model with its training data
    attached holds it for every projection, where a CSR transpose took about
    12 bytes per nonzero.
    """

    values: object
    labels: np.ndarray | None = None
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    transposed: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DataError("dataset values must be a 2-d matrix")
        n, d = self.values.shape
        if n < 1 or d < 1:
            raise DataError(f"dataset must have n >= 1 and d >= 1, got {n} x {d}")
        if self.labels is not None and len(self.labels) != n:
            raise DataError("label count does not match row count")
        # one float64 CSR matrix, or one float64 buffer in C or F order that
        # the products with it and its transpose read without a copy
        if sparse.issparse(self.values):
            # a copy of its own: the caller's matrix could otherwise change
            # under the norms and the transpose computed from it here
            values = sparse.csr_matrix(self.values, dtype=float, copy=True)
            values.sum_duplicates()
            for part in (values.data, values.indices, values.indptr):
                part.setflags(write=False)
            transposed = _transpose_csr(values)
        else:
            values = np.asarray(self.values, dtype=float)
            if not (values.flags.c_contiguous or values.flags.f_contiguous):
                values = np.ascontiguousarray(values)
            values.setflags(write=False)
            transposed = values.T
        sq_norms = row_sq_norms(values)
        sq_norms.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "transposed", transposed)
        object.__setattr__(self, "sq_norms", sq_norms)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.values)

    def take_rows(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        labels = None if self.labels is None else self.labels[idx]
        return Dataset(self.values[idx], labels)  # indexing copies either format


def parse_libsvm(source, d: int | None = None) -> Dataset:
    """Parse LIBSVM text (``<label> <idx>:<val> ...``, 1-based ascending indices).

    ``source`` is a string or a text stream. ``d`` overrides the inferred
    dimension (max index seen); the format itself does not carry d. Labels
    and values must be finite.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    labels: list[float] = []
    max_idx = 0
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric label {tokens[0]!r}") from None
        if not math.isfinite(labels[-1]):
            raise DataError(f"line {lineno}: non-finite label {tokens[0]!r}")
        prev = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataError(f"line {lineno}: malformed token {tok!r}") from None
            if not math.isfinite(val):
                raise DataError(f"line {lineno}: non-finite value {tok!r}")
            if idx < 1:
                raise DataError(f"line {lineno}: index below 1 at {tok!r}")
            if idx <= prev:
                raise DataError(f"line {lineno}: non-ascending index at {tok!r}")
            prev = idx
            indices.append(idx - 1)
            data.append(val)
        indptr.append(len(data))
        max_idx = max(max_idx, prev)
    if not labels:
        raise DataError("empty dataset")
    if d is None:
        d = max_idx
    elif d < max_idx:
        raise DataError(f"explicit d={d} smaller than max index {max_idx}")
    if d < 1:
        raise DataError("empty dataset: no feature was seen and no d given")
    values = sparse.csr_matrix(
        (np.asarray(data, dtype=float), indices, indptr), shape=(len(labels), d)
    )
    return Dataset(values, np.asarray(labels, dtype=float))


def load_csv(path, label_col: int | None = None) -> Dataset:
    """Load a rectangular numeric CSV of finite values (``read_csv``) as a
    dense Dataset. ``label_col`` flags one column as the per-row label; one
    outside the file's columns raises KpcaError (a bad argument, not bad
    data)."""
    values = read_csv(path)
    if label_col is None:
        return Dataset(values)
    width = values.shape[1]
    if not -width <= label_col < width:
        raise KpcaError(f"label column {label_col} is outside the {width} "
                        f"columns of {path}")
    return Dataset(np.delete(values, label_col, axis=1), values[:, label_col].copy())


def read_csv(path, skip: int = 0, finite: bool = True) -> np.ndarray:
    """The rows of a rectangular numeric CSV ('.' decimal, ',' separator, no
    comments) after its first ``skip`` lines, as a 2-D float array: the one
    parse path of samples, precomputed Grams and model payloads. With
    ``finite`` a non-finite cell is a DataError too.

    numpy's C parser reads the file first; its values are bit-identical to
    Python's ``float``. Input it rejects (quoted cells, ``1_0``, a ragged or
    malformed row), that holds no row, or that holds a non-finite value the
    caller refuses, is read again line by line (``_parse_csv``), which
    raises a DataError naming the failing line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            values = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                                dtype=float, skiprows=skip)
    except ValueError:
        values = None
    if values is None or not values.size or (finite and not np.isfinite(values).all()):
        values = _parse_csv(path, skip, finite)
    return values


def _parse_csv(path, skip: int = 0, finite: bool = True) -> np.ndarray:
    """``read_csv``'s rows, read one line and one ``float`` at a time."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        for _ in range(skip):
            fh.readline()
        for lineno, rec in enumerate(csv.reader(fh), start=skip + 1):
            if not rec or (len(rec) == 1 and not rec[0].strip()):
                continue
            if width is None:
                width = len(rec)
            elif len(rec) != width:
                raise DataError(f"line {lineno}: ragged row ({len(rec)} != {width} cells)")
            try:
                vals = [float(c) for c in rec]
            except ValueError:
                raise DataError(f"line {lineno}: non-numeric cell") from None
            if finite and not all(map(math.isfinite, vals)):
                raise DataError(f"line {lineno}: non-finite cell")
            rows.append(vals)
    if not rows:
        raise DataError("empty dataset")
    return np.asarray(rows, dtype=float)


def gen_synth_gaussian(n: int, d: int, seed: int) -> Dataset:
    """n x d rows drawn i.i.d. from a standard multivariate normal."""
    if n < 1 or d < 1:
        raise DataError("n and d must be >= 1")
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d)))


def gen_controlled_spectrum_gram(n: int, c: float, seed: int):
    """Synthetic symmetric matrix G = 0.01 (X + X') + U diag(exp(-c i)) U'.

    X is standard normal n x n, U a random orthogonal matrix (the sign-fixed
    Q of a standard normal matrix's QR), and i runs over 1..n, so ``c``
    controls how quickly the planted spectrum decays. The seed draws X, then
    the matrix whose QR gives U. Exactly symmetric by upper-triangle
    mirroring.
    """
    from .kernels import GramMatrix

    if n < 1:
        raise DataError("n must be >= 1")
    if not c >= 0:  # NaN fails too
        raise DataError("c must be >= 0")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q *= np.sign(np.diag(R))
    G = 0.01 * (X + X.T) + (Q * np.exp(-c * np.arange(1, n + 1))) @ Q.T
    return GramMatrix(np.triu(G) + np.triu(G, 1).T, centered=False, _checked=True)


def contaminate(dataset: Dataset, omega: float, tau: float, seed: int) -> Dataset:
    """Replace exactly floor(omega * n) distinct rows i by b_i * x_i with
    b_i ~ N(0, tau^2); the corrupted index set is drawn uniformly without
    replacement. All other rows are left bit-identical."""
    if not 0.0 <= omega <= 1.0:
        raise DataError(f"omega must be in [0, 1], got {omega}")
    if not 0 < tau < math.inf:
        raise DataError(f"tau must be positive and finite, got {tau}")
    k = int(np.floor(omega * dataset.n))
    rng = np.random.default_rng(seed)
    idx = rng.choice(dataset.n, size=k, replace=False)
    mult = rng.normal(0.0, tau, size=k)
    if dataset.is_sparse:
        values = dataset.values.copy().tocsr()
        for j, i in enumerate(idx):
            values.data[values.indptr[i]:values.indptr[i + 1]] *= mult[j]
    else:
        values = np.array(dataset.values)
        values[idx] *= mult[:, None]
    return Dataset(values, dataset.labels)
