"""Reference solvers: dense eigendecomposition KPCA and randomized SVD with
an adaptive oversampling loop driven by the dual residual."""

from dataclasses import dataclass

import numpy as np

from .dual_core import check_components, dual_residual
from .errors import ToleranceUnreachableError
from .kernels import GramMatrix, _panels, gram_product

OVERSAMPLES = 10  # rsvd's default p, and the first p of rsvd_adaptive


@dataclass(frozen=True)
class EigPairs:
    """Top-s eigenpairs: values decreasing, vectors n x s with orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def h_from_pairs(pairs: EigPairs) -> np.ndarray:
    """Dual variable assembled from eigenpairs: eigenvectors scaled by
    sqrt(eigenvalue), negative round-off values clamped before the root."""
    return pairs.vectors * np.sqrt(np.maximum(pairs.values, 0.0))


def _dense(G) -> np.ndarray:
    """The matrix the dense eigendecomposition runs on, in float64, and the
    one place a Gram's rank-2 term is materialized: entry (i, j) is
    (E_ij - (m_i + m_j)) + g, one BLOCK-row panel at a time. A Gram with no
    term gives its entries, a float32 one upcast into a new matrix."""
    if not isinstance(G, GramMatrix):
        return np.asarray(G, dtype=float)
    if G.m is None:
        return np.asarray(G.entries, dtype=float)
    out = np.empty(G.shape)
    for rows in _panels(G.n):
        P = out[rows]
        np.add.outer(G.m[rows], G.m, out=P)
        np.subtract(G.entries[rows], P, out=P)
        P += G.g
    return out


def kpca_dense_eig(G, s: int):
    """Top-s eigenpairs of symmetric G (values decreasing, ties in index
    order) by one LAPACK subset call on the F-ordered view of ``_dense(G)``,
    and the dual solution H_svd from them. LAPACK overwrites that matrix only
    if ``_dense`` built it: never a caller's array or a Gram's entries."""
    from scipy import linalg  # here: loading it adds ~8 MB of RSS to every fit
    n = G.shape[0]
    check_components(s, n)
    A = _dense(G)
    owned = not np.may_share_memory(A, G.entries if isinstance(G, GramMatrix) else G)
    w, V = linalg.eigh(A.T, subset_by_index=[n - s, n - 1], overwrite_a=owned)
    order = np.argsort(-w, kind="stable")
    pairs = EigPairs(w[order], V[:, order])
    return pairs, h_from_pairs(pairs)


def rsvd(G, s: int, p: int = OVERSAMPLES, q: int = 2, seed=0) -> EigPairs:
    """Randomized range finder for the top-s eigenpairs of symmetric G.

    Sketches with an n x (s+p) seeded Gaussian test matrix, runs q symmetric
    power iterations with re-orthonormalization, then returns the top-s Ritz
    pairs on the sketched basis Q: the eigenpairs of Q'GQ, values
    decreasing, vectors lifted back by Q (one more product with G).
    """
    if p < 0 or q < 0:
        raise ValueError("oversamples and power iterations must be >= 0")
    n = G.shape[0]
    check_components(s, n)
    k = min(s + p, n)
    Omega = np.random.default_rng(seed).standard_normal((n, k))
    Q, _ = np.linalg.qr(gram_product(G, Omega))
    for _ in range(q):
        Q, _ = np.linalg.qr(gram_product(G, Q))
    B = Q.T @ gram_product(G, Q)
    w, W = np.linalg.eigh(0.5 * (B + B.T))
    order = np.argsort(-w, kind="stable")[:s]
    return EigPairs(w[order], Q @ W[:, order])


def rsvd_adaptive(G, s: int, delta: float, seed=0, *, top_eigs, q: int = 2,
                  collect=None):
    """Grow the oversampling p until the dual residual of the sketched
    solution drops below ``delta``; returns (pairs, p_used).

    The sketch width s + p cannot exceed n, so p is capped at
    ``cap = max(n - s, 0)``. The schedule is ``min(OVERSAMPLES, cap)``, then
    ``p = min(2p, cap)``: 10 * 2^k until the next doubling would pass the
    cap, then the cap itself.
    ``ToleranceUnreachableError`` is raised only after the attempt at p = cap
    has missed ``delta``. At the cap the sketch spans R^n, so the residual is
    round-off and only a ``delta`` at or below it (e.g. 0) is unreachable.

    ``top_eigs`` are the exact top-s eigenvalues of G (the eta oracle).
    """
    n = G.shape[0]
    rng = np.random.default_rng(seed)
    cap = max(n - s, 0)
    p = min(OVERSAMPLES, cap)
    while True:
        pairs = rsvd(G, s, p=p, q=q, seed=rng)
        eta = dual_residual(G, h_from_pairs(pairs), top_eigs)
        if collect is not None:
            collect.append((p, eta))
        if eta < delta:
            return pairs, p
        if p >= cap:
            raise ToleranceUnreachableError(
                f"rsvd_adaptive: eta {eta:.3e} >= delta {delta:.3e} at oversampling cap p={p}"
            )
        p = min(2 * p, cap)
