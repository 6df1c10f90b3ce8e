"""Reference solvers: dense eigendecomposition KPCA and randomized SVD with
an adaptive oversampling loop driven by the dual residual."""

from dataclasses import dataclass

import numpy as np

from .dual_core import dual_residual
from .errors import ToleranceUnreachableError
from .kernels import GramMatrix, gram_product


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
    """The matrix a full eigendecomposition runs on, in float64: a float32
    Gram's entries are upcast (a copy, beside the one LAPACK makes)."""
    return np.asarray(G.entries if isinstance(G, GramMatrix) else G, dtype=float)


def kpca_dense_eig(G, s: int):
    """Full symmetric eigendecomposition; returns the top-s pairs and the
    closed-form dual solution H_svd built from them."""
    w, V = np.linalg.eigh(_dense(G))
    order = np.argsort(-w, kind="stable")[:s]
    pairs = EigPairs(w[order], V[:, order])
    return pairs, h_from_pairs(pairs)


def top_eigenvalues(G, s: int) -> np.ndarray:
    """The s largest eigenvalues of symmetric G, decreasing, from a dense
    ``eigvalsh`` (ties keep index order): the exact eta oracle."""
    w = np.linalg.eigvalsh(_dense(G))
    return w[np.argsort(-w, kind="stable")[:s]]


def rsvd(G, s: int, p: int = 10, q: int = 2, seed=0) -> EigPairs:
    """Randomized range finder for the top-s eigenpairs of symmetric G.

    Sketches with an n x (s+p) seeded Gaussian test matrix, runs q symmetric
    power iterations with re-orthonormalization, then solves the small
    eigenproblem in the sketched basis.
    """
    if p < 0 or q < 0:
        raise ValueError("oversamples and power iterations must be >= 0")
    n = G.shape[0]
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = min(s + p, n)
    Omega = rng.standard_normal((n, k))
    Q, _ = np.linalg.qr(gram_product(G, Omega))
    for _ in range(q):
        Q, _ = np.linalg.qr(gram_product(G, Q))
    return rayleigh_ritz(G, Q, s)


def rayleigh_ritz(G, Q, s: int) -> EigPairs:
    """Top-s Ritz pairs of symmetric G on the span of Q (orthonormal columns):
    the eigenpairs of Q'GQ, values decreasing, vectors lifted back by Q.
    Costs one product of G with Q."""
    B = Q.T @ gram_product(G, Q)
    w, W = np.linalg.eigh(0.5 * (B + B.T))
    order = np.argsort(-w, kind="stable")[:s]
    return EigPairs(w[order], Q @ W[:, order])


def rsvd_adaptive(G, s: int, delta: float, seed=0, top_eigs=None, q: int = 2,
                  p_start: int = 10, collect=None):
    """Grow the oversampling p until the dual residual of the sketched
    solution drops below ``delta``; returns (pairs, p_used).

    The sketch width s + p cannot exceed n, so p is capped at
    ``cap = max(n - s, 0)``. The schedule is ``min(p_start, cap)``, then
    ``p = min(2p, cap)`` (from 1 when p is 0): p_start * 2^k until the next
    doubling would pass the cap, then the cap itself.
    ``ToleranceUnreachableError`` is raised only after the attempt at p = cap
    has missed ``delta``. At the cap the sketch spans R^n, so the residual is
    round-off and only a ``delta`` at or below it (e.g. 0) is unreachable.

    ``top_eigs`` are the exact top-s eigenvalues of G (the eta oracle),
    computed once by ``top_eigenvalues`` when not given.
    """
    n = G.shape[0]
    if top_eigs is None:
        top_eigs = top_eigenvalues(G, s)
    rng = np.random.default_rng(seed)
    cap = max(n - s, 0)
    p = min(p_start, cap)
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
        p = min(max(2 * p, 1), cap)
