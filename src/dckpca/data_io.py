"""Dataset loading, synthetic generators, and the outlier-contamination protocol.

Datasets are immutable after construction and safe to share across threads;
every generator is a pure function of its sizes and a 64-bit seed.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DataError


@dataclass(frozen=True)
class Dataset:
    """n x d sample matrix, dense float64 ndarray or CSR (other inputs are
    converted), with optional per-row labels."""

    values: object
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DataError("dataset values must be a 2-d matrix")
        n, d = self.values.shape
        if n < 1 or d < 1:
            raise DataError(f"dataset must have n >= 1 and d >= 1, got {n} x {d}")
        if self.labels is not None and len(self.labels) != n:
            raise DataError("label count does not match row count")
        # one CSR matrix, or one float64 buffer in C or F order: X X' (the
        # Gram) is then computed as a symmetric product, exactly symmetric
        if sparse.issparse(self.values):
            object.__setattr__(self, "values", self.values.tocsr())
        else:
            values = np.asarray(self.values, dtype=float)
            if not (values.flags.c_contiguous or values.flags.f_contiguous):
                values = np.ascontiguousarray(values)
            values.setflags(write=False)
            object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.values)

    def dense(self) -> np.ndarray:
        """Row-major float64 copy of the sample matrix."""
        if self.is_sparse:
            return np.asarray(self.values.todense(), dtype=float)
        return np.array(self.values, dtype=float)

    def take_rows(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        labels = None if self.labels is None else self.labels[idx]
        if self.is_sparse:
            return Dataset(self.values[idx], labels)
        return Dataset(self.values[idx].copy(), labels)


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


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of :func:`parse_libsvm`; zero entries are dropped by the format."""
    labels = dataset.labels
    if labels is None:
        labels = np.zeros(dataset.n)
    rows = dataset.values.tocsr() if dataset.is_sparse else None
    out = []
    for i in range(dataset.n):
        if rows is not None:
            cols = rows.indices[rows.indptr[i]:rows.indptr[i + 1]]
            vals = rows.data[rows.indptr[i]:rows.indptr[i + 1]]
        else:
            row = dataset.values[i]
            cols = np.nonzero(row)[0]
            vals = row[cols]
        pairs = " ".join(f"{c + 1}:{float(v)!r}" for c, v in zip(cols, vals))
        out.append(f"{float(labels[i])!r} {pairs}".rstrip())
    return "\n".join(out) + "\n"


def load_csv(path, label_col: int | None = None) -> Dataset:
    """Load a rectangular numeric CSV ('.' decimal, ',' separator) of finite
    values as a dense Dataset. ``label_col`` flags one column as the per-row
    label."""
    rows = []
    labels = []
    width = None
    with open(path, newline="") as fh:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
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
            if not all(map(math.isfinite, vals)):
                raise DataError(f"line {lineno}: non-finite cell")
            if label_col is not None:
                labels.append(vals.pop(label_col))
            rows.append(vals)
    if not rows:
        raise DataError("empty dataset")
    values = np.asarray(rows, dtype=float)
    return Dataset(values, np.asarray(labels) if label_col is not None else None)


def gen_synth_gaussian(n: int, d: int, seed: int) -> Dataset:
    """n x d rows drawn i.i.d. from a standard multivariate normal."""
    if n < 1 or d < 1:
        raise DataError("n and d must be >= 1")
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d)))


def gen_controlled_spectrum_gram(n: int, c: float, seed: int):
    """Synthetic symmetric matrix G = 0.01 (X + X') + U diag(exp(-c i)) U'.

    X is standard normal n x n, U a random orthogonal matrix (sign-fixed QR),
    and i runs over 1..n, so ``c`` controls how quickly the planted spectrum
    decays. Exactly symmetric by upper-triangle mirroring.
    """
    from .kernels import GramMatrix

    if n < 1:
        raise DataError("n must be >= 1")
    if c < 0:
        raise DataError("c must be >= 0")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    decay = np.exp(-c * np.arange(1, n + 1))
    G = 0.01 * (X + X.T) + (Q * decay) @ Q.T
    G = np.triu(G) + np.triu(G, 1).T
    return GramMatrix(G, centered=False)


def contaminate(dataset: Dataset, omega: float, tau: float, seed: int) -> Dataset:
    """Replace exactly floor(omega * n) distinct rows i by b_i * x_i with
    b_i ~ N(0, tau^2); the corrupted index set is drawn uniformly without
    replacement. All other rows are left bit-identical."""
    if not 0.0 <= omega <= 1.0:
        raise DataError(f"omega must be in [0, 1], got {omega}")
    if tau <= 0:
        raise DataError(f"tau must be > 0, got {tau}")
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
