"""Dual objective machinery: pi(H) = Tr sqrt(H'GH), its gradient, the
singularity floor, and the benchmark residual eta.

The whole point of working with H'GH (s x s) instead of G (n x n) is that one
n^2 s matrix product plus an s x s eigendecomposition replaces the O(n^3) SVD
of the Gram matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import KpcaError, SingularMatrixError
from .kernels import gram_product, product_rounding


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition M = U' diag(lam) U of a small symmetric matrix.

    Rows of U are eigenvectors; lam is sorted decreasingly. The sign of each
    row is fixed (largest-magnitude component positive) and ties in lam keep
    the original index order, so decompositions are reproducible.
    """

    U: np.ndarray
    lam: np.ndarray

    def apply(self, fn) -> np.ndarray:
        """The spectral function U' diag(fn(lam)) U."""
        return self.U.T @ (fn(self.lam)[:, None] * self.U)

    def trace_sqrt(self) -> float:
        """Tr sqrt(M), negative round-off eigenvalues clamped to zero."""
        return float(np.sum(np.sqrt(np.maximum(self.lam, 0.0))))


def sym_eig_small(M: np.ndarray) -> SpectralDecomp:
    """Deterministic symmetric eigendecomposition of a small s x s matrix."""
    M = np.asarray(M, dtype=float)
    scale = max(float(np.max(np.abs(M))), 1.0)
    if np.max(np.abs(M - M.T)) > 1e-10 * scale:
        raise KpcaError("matrix is not symmetric within 1e-10")
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    order = np.argsort(-w, kind="stable")
    w = w[order]
    U = V[:, order].T
    lead = np.argmax(np.abs(U), axis=1)
    signs = np.sign(U[np.arange(U.shape[0]), lead])
    signs[signs == 0] = 1.0
    U = signs[:, None] * U
    return SpectralDecomp(U, w)


def _small_eig(G, H, exact=False):
    GH = gram_product(G, H, exact)
    M = H.T @ GH
    return GH, sym_eig_small(0.5 * (M + M.T))


def pi(G, H) -> float:
    """Tr sqrt(H'GH) = sum_i sqrt(max(lam_i(H'GH), 0)).

    Negative round-off eigenvalues are clamped to zero; this equals the
    nuclear norm of G^(1/2) H whenever G is PSD. The product GH is the exact
    one (``gram_product(G, H, exact=True)``).
    """
    return _small_eig(G, H, exact=True)[1].trace_sqrt()


SINGULARITY_FLOOR_SCALE = 1e-12


def check_floor(lam, singular_hint: str | None = None, rounding: float = 0.0) -> None:
    """Raise SingularMatrixError unless every eigenvalue of H'GH (``lam``,
    decreasing) is finite and sits above the floor 1e-12 * lam_max.

    The floor is relative, so the check is the same for G and c G at any
    scale c > 0. An H'GH with no positive eigenvalue (all-zero rows of H, for
    one) has a floor of zero or below and always fails.

    An eigenvalue below -max(floor, rounding * lam_max) is beyond round-off
    of a PSD product: H'GH is then indefinite, so G is not positive
    semidefinite on the span of H and Tr sqrt(H'GH) is outside the domain
    the dual is defined on. ``rounding`` is the relative rounding of the
    products H'GH was formed from (``kernels.product_rounding``): on a
    float32 Gram it exceeds 1e-12, and a negative eigenvalue within it is
    rounding noise around zero. Otherwise H'GH is near-singular;
    ``singular_hint`` (a likely cause) is appended to that message only.
    """
    if not np.isfinite(lam).all():  # NaN would pass every comparison below
        raise SingularMatrixError(
            f"H'GH has a non-finite eigenvalue {lam[~np.isfinite(lam)][0]}")
    floor = SINGULARITY_FLOOR_SCALE * float(lam[0])
    bound = max(floor, rounding * float(lam[0]))
    lam_min = float(lam[-1])
    if lam_min < -bound:
        raise SingularMatrixError(
            f"H'GH is indefinite: eigenvalue {lam_min:.6e} <= floor {bound:.6e}; "
            "G is not positive semidefinite on the span of H"
        )
    if lam_min <= floor:
        message = f"H'GH is near-singular: eigenvalue {lam_min:.6e} <= floor {floor:.6e}"
        raise SingularMatrixError(
            message if singular_hint is None else f"{message}; {singular_hint}")


def grad_pi(G, H):
    """Gradient of pi at H together with the decomposition of H'GH.

    grad = GH U' diag(1/sqrt(lam)) U (GH by ``gram_product``: in single
    precision on a float32 Gram), which requires every eigenvalue of H'GH
    to sit above the floor (``check_floor`` at the rounding of that
    product). Below the floor the call fails loudly: the gradient is not
    Lipschitz near singularity, and a silent clamp would corrupt the solve.
    """
    GH, dec = _small_eig(G, H)
    check_floor(dec.lam, rounding=product_rounding(G))
    grad = GH @ dec.apply(lambda lam: 1.0 / np.sqrt(lam))
    return grad, dec


def optimal_dual_cost(top_eigs: np.ndarray) -> float:
    """d_opt = -0.5 * sum of the top-s eigenvalues of G; zero (a degenerate
    Gram, which no relative residual can be taken against) raises KpcaError."""
    d_opt = -0.5 * float(np.sum(top_eigs))
    if d_opt == 0.0:
        raise KpcaError("degenerate Gram: optimal dual cost is zero")
    return d_opt


def dual_residual(G, H, top_eigs) -> float:
    """Relative gap eta = |d(H) - d_opt| / |d_opt| of the square-loss dual cost.

    ``top_eigs`` are the s largest eigenvalues of G; the absolute value in the
    denominator keeps eta nonnegative (d_opt itself is negative).
    """
    d_opt = optimal_dual_cost(np.asarray(top_eigs, dtype=float))
    d = 0.5 * float(np.sum(H * H)) - pi(G, H)
    return abs(d - d_opt) / abs(d_opt)


def check_critical_point(G, H) -> float:
    """Normal-equation residual ||H H'H - GH||_F / ||GH||_F.

    Vanishes at critical points of the dual problem, which are also critical
    points of the Gram reconstruction cost 0.25 ||G - HH'||_F^2. GH is the
    exact product (``gram_product(G, H, exact=True)``).
    """
    GH = gram_product(G, H, exact=True)
    denom = float(np.linalg.norm(GH))
    if denom == 0.0:
        raise KpcaError("GH = 0: criticality residual undefined")
    return float(np.linalg.norm(H @ (H.T @ H) - GH)) / denom
