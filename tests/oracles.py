"""Independent oracles used by the tests: brute-force / spectral routes that
never share code with the implementation paths they check."""

import numpy as np
from scipy.spatial.distance import cdist

from dckpca.errors import KpcaError


def kernel_eval(spec, x, y):
    """Single kernel evaluation k(x, y) by the closed forms, pointwise."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if spec.family == "linear":
        return float(x @ y)
    d = float(np.sqrt(np.sum((x - y) ** 2)))
    arg = d * d if spec.family == "gaussian" else d
    return float(np.exp(-arg / (2.0 * spec.sigma ** 2)))


def kernel_row(spec, train_values, stats, x):
    """Centered kernel row of one point x, entry by entry from kernel_eval:
    k(x, x_i) - mean_j k(x, x_j) - colmean_i + grandmean."""
    k = np.array([kernel_eval(spec, x, xi) for xi in np.asarray(train_values)])
    return k - k.mean() - stats.col_means + stats.grand_mean


def kernel_matrix(spec, A, B):
    """k(a_i, b_j) for all pairs of dense rows, by scipy's cdist (the
    gaussian and laplace closed forms) or the plain inner product."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if spec.family == "linear":
        return A @ B.T
    arg = cdist(A, B, "sqeuclidean" if spec.family == "gaussian" else "euclidean")
    return np.exp(-arg / (2.0 * spec.sigma ** 2))


def centered_kernels(spec, X, Q):
    """The float64 double-centered Gram of training rows X and the centered
    kernel rows of queries Q, each from ``kernel_matrix`` and the column
    means of the uncentered Gram."""
    K = kernel_matrix(spec, X, X)
    mu = K.mean(axis=0)
    grand = mu.mean()
    Kq = kernel_matrix(spec, Q, X)
    return (K - mu[:, None] - mu[None, :] + grand,
            Kq - Kq.mean(axis=1)[:, None] - mu[None, :] + grand)


def centered_self_kernel(spec, X, Q):
    """k(q, q) - 2 mean_i k(q, x_i) + mean_ij k(x_i, x_j) for each query row
    q: its squared feature-space norm after centering, from ``kernel_matrix``."""
    Q = np.asarray(Q, dtype=float)
    kqq = np.array([kernel_matrix(spec, q[None], q[None])[0, 0] for q in Q])
    return kqq - 2.0 * kernel_matrix(spec, Q, X).mean(axis=1) \
        + kernel_matrix(spec, X, X).mean()


def projection(Gc, Kc, H):
    """Projections Kc A of centered query rows, A = H (H'GH)^(-1/2) from a
    dense eigendecomposition of H'GH."""
    w, V = np.linalg.eigh(H.T @ Gc @ H)
    return Kc @ (H @ ((V / np.sqrt(w)) @ V.T))


def square_eta(Gc, H, s):
    """Relative gap |d(H) - d_opt| / |d_opt| of the square-loss dual
    d(H) = 0.5 ||H||^2 - Tr sqrt(H'GH), with d_opt = -0.5 (sum of the top s
    eigenvalues of Gc) from a dense eigvalsh."""
    d_opt = -0.5 * float(np.sum(dense_top_eigs(Gc, s)))
    lam = np.linalg.eigvalsh(H.T @ Gc @ H)
    d = 0.5 * float(np.sum(H * H)) - float(np.sum(np.sqrt(np.maximum(lam, 0.0))))
    return abs(d - d_opt) / abs(d_opt)


def dual_cost(G, H, objective):
    """Dual objective 0.5 ||H||_F^2 + Psi*(H) - ||G^(1/2) H||_*, with the
    nuclear norm from an SVD and Psi* (square, eps kinds and Huber ball
    indicators) written out from its definition."""
    H = np.asarray(H, dtype=float)
    value = 0.5 * float(np.sum(H * H)) - nuclear_norm(psd_sqrt(np.asarray(G)) @ H)
    rows = np.sqrt(np.sum(H * H, axis=1))
    kind = objective.kind
    if kind == "eps_linf":
        return value + objective.eps * float(np.sum(np.abs(H)))
    if kind == "eps_row2":
        return value + objective.eps * float(rows.sum())
    if kind in ("huber_l1", "huber_row2"):
        gauge = float(np.max(np.abs(H))) if kind == "huber_l1" else float(rows.sum())
        return value if gauge <= objective.kappa * (1.0 + 1e-9) else np.inf
    return value


def dense(dataset):
    """Row-major float64 copy of a Dataset's sample matrix."""
    if dataset.is_sparse:
        return np.asarray(dataset.values.todense(), dtype=float)
    return np.array(dataset.values, dtype=float)


def serialize_libsvm(dataset):
    """LIBSVM text of a Dataset, the inverse of ``parse_libsvm``; zero
    entries are dropped by the format."""
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


def check_critical_point(G, H):
    """Normal-equation residual ||H H'H - GH||_F / ||GH||_F of a dense G, GH
    in float64. It vanishes at critical points of the dual problem, which are
    also critical points of the Gram reconstruction cost 0.25 ||G - HH'||_F^2."""
    GH = np.asarray(G, dtype=float) @ H
    denom = float(np.linalg.norm(GH))
    if denom == 0.0:
        raise KpcaError("GH = 0: criticality residual undefined")
    return float(np.linalg.norm(H @ (H.T @ H) - GH)) / denom


def dense_top_eigs(G, s):
    w = np.linalg.eigvalsh(G)
    return w[np.argsort(-w, kind="stable")[:s]]


def psd_sqrt(G):
    """Symmetric PSD square root via full eigendecomposition."""
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.T


def nuclear_norm(A):
    return float(np.sum(np.linalg.svd(A, compute_uv=False)))


def fd_grad(fun, X, eps=1e-6):
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            Xp = X.copy()
            Xp[i, j] += eps
            Xm = X.copy()
            Xm[i, j] -= eps
            g[i, j] = (fun(Xp) - fun(Xm)) / (2 * eps)
    return g


def project_l1_kkt(v, r, iters=200):
    """Projection onto the l1 ball by bisecting the KKT multiplier of
    sum_i max(|v_i| - theta, 0) = r (no sorting involved)."""
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= r:
        return v.copy()
    lo, hi = 0.0, float(a.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > r:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def prox_psi_independent(kind, Y, kappa=None, eps=None, iters=200):
    """prox of Psi itself (not Psi*), via closed forms with the clip/threshold
    roles swapped, or a 1-d KKT bisection for the max-row-norm case."""
    Y = np.asarray(Y, dtype=float)
    if kind == "square":  # Psi* = 0, so Psi is the indicator of {0}
        return np.zeros_like(Y)
    if kind == "huber_l1":  # Psi = kappa ||.||_1: entrywise soft threshold
        return np.sign(Y) * np.maximum(np.abs(Y) - kappa, 0.0)
    if kind == "eps_linf":  # Psi = indicator of sup-norm ball: clip
        return np.clip(Y, -eps, eps)
    if kind == "eps_row2":  # Psi = indicator of max-row-norm ball: cap row norms
        r = np.linalg.norm(Y, axis=1)
        scale = np.minimum(1.0, np.divide(eps, r, out=np.ones_like(r), where=r > 0))
        return Y * scale[:, None]
    if kind == "huber_row2":
        # Psi = kappa * max_i ||y_i||: solution caps row norms at t* minimizing
        # 0.5 sum max(||y_i||-t,0)^2 + kappa t; bisect on the derivative.
        r = np.linalg.norm(Y, axis=1)
        if r.sum() <= kappa:
            return np.zeros_like(Y)
        lo, hi = 0.0, float(r.max())
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if np.maximum(r - mid, 0.0).sum() > kappa:
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        scale = np.minimum(1.0, np.divide(t, r, out=np.ones_like(r), where=r > 0))
        return Y * scale[:, None]
    raise ValueError(kind)


def plain_dca(G, H, prox, tol, max_iters=1000):
    """Unaccelerated DCA H <- prox(G H (H'GH)^(-1/2)) from H, stopped at the
    first iterate whose fixed-point residual r has r**2 <= tol. Returns H and
    the number of products with G (one per iterate)."""
    for products in range(1, max_iters + 1):
        GH = G @ H
        w, V = np.linalg.eigh(H.T @ GH)
        T = prox(GH @ (V / np.sqrt(w)) @ V.T)
        if np.sum((T - H) ** 2) <= tol * np.sum(H * H):
            break
        H = T
    return H, products
