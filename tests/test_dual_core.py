import numpy as np
import pytest

from dckpca import (KpcaError, ObjectiveSpec, SingularMatrixError,
                    check_critical_point, dual_cost, dual_residual, grad_pi,
                    optimal_dual_cost, pi, sym_eig_small)
from dckpca.baselines import kpca_dense_eig

from oracles import dense_top_eigs, fd_grad, nuclear_norm, psd_sqrt


def random_psd(n, seed, rank=None):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, rank or n))
    G = B @ B.T
    return np.triu(G) + np.triu(G, 1).T


def test_sym_eig_diag():
    dec = sym_eig_small(np.diag([2.0, 1.0]))
    assert np.allclose(dec.lam, [2.0, 1.0])
    assert np.allclose(np.abs(dec.U), np.eye(2))
    assert np.all(dec.U[np.arange(2), np.argmax(np.abs(dec.U), axis=1)] > 0)


def test_sym_eig_identity():
    dec = sym_eig_small(np.eye(4))
    assert np.allclose(dec.lam, 1.0)


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5))
    M = 0.5 * (M + M.T)
    dec = sym_eig_small(M)
    rebuilt = dec.U.T @ np.diag(dec.lam) @ dec.U
    assert np.linalg.norm(rebuilt - M) <= 1e-10 * max(np.linalg.norm(M), 1.0)
    assert np.linalg.norm(dec.U.T @ dec.U - np.eye(5)) <= 1e-10 * 5


def test_sym_eig_rejects_asymmetry():
    with pytest.raises(KpcaError, match="symmetric"):
        sym_eig_small(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sym_eig_deterministic_signs():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 6))
    M = 0.5 * (M + M.T)
    d1, d2 = sym_eig_small(M), sym_eig_small(M.copy())
    assert np.array_equal(d1.U, d2.U) and np.array_equal(d1.lam, d2.lam)


def test_pi_toy_values():
    assert pi(np.diag([4.0, 1.0]), np.array([[1.0], [0.0]])) == pytest.approx(2.0)
    H = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    assert pi(np.eye(3), H) == pytest.approx(3.0)


def test_pi_equals_nuclear_norm_of_sqrt_gram_times_h():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 50))
        s = int(rng.integers(1, 4))
        G = random_psd(n, seed + 100)
        H = rng.standard_normal((n, s))
        assert pi(G, H) == pytest.approx(nuclear_norm(psd_sqrt(G) @ H), abs=1e-8, rel=1e-8)


def test_pi_positive_homogeneity():
    rng = np.random.default_rng(1)
    G = random_psd(12, 5)
    H = rng.standard_normal((12, 3))
    base = pi(G, H)
    for alpha in (0.0, 0.3, 2.0, 17.5):
        assert abs(pi(G, alpha * H) - alpha * base) <= 1e-12 * max(1.0, alpha * base)


def test_grad_pi_toy_and_fixed_point():
    G = np.diag([4.0, 1.0])
    g1, _ = grad_pi(G, np.array([[1.0], [0.0]]))
    assert np.allclose(g1, [[2.0], [0.0]], atol=1e-12)
    g2, _ = grad_pi(G, np.array([[2.0], [0.0]]))
    assert np.allclose(g2, [[2.0], [0.0]], atol=1e-12)


def test_grad_pi_matches_finite_differences():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n, s = 20, 3
        G = random_psd(n, seed + 50) + 0.5 * np.eye(n)
        G = np.triu(G) + np.triu(G, 1).T
        H = rng.standard_normal((n, s))
        g, dec = grad_pi(G, H)
        assert dec.lam[-1] >= 1e-6 * dec.lam[0]
        fd = fd_grad(lambda X: pi(G, X), H)
        assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-5


def test_grad_pi_euler_identity():
    rng = np.random.default_rng(2)
    G = random_psd(15, 9) + 0.1 * np.eye(15)
    G = np.triu(G) + np.triu(G, 1).T
    H = rng.standard_normal((15, 4))
    g, _ = grad_pi(G, H)
    val = pi(G, H)
    assert abs(float(np.vdot(g, H)) - val) <= 1e-10 * max(1.0, abs(val))


def test_grad_pi_singularity_error():
    G = np.diag([4.0, 1.0, 0.5])
    H = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])  # rank-1 H'GH
    with pytest.raises(SingularMatrixError, match="eigenvalue"):
        grad_pi(G, H)


def test_dual_cost_square_toy():
    G = np.diag([4.0, 1.0])
    sq = ObjectiveSpec("square")
    assert dual_cost(G, np.array([[2.0], [0.0]]), sq) == pytest.approx(-2.0)
    assert dual_cost(G, np.zeros((2, 1)), sq) == pytest.approx(0.0)


def test_dual_cost_eps_linf_additive_term():
    G = np.diag([4.0, 1.0])
    H = np.array([[2.0], [-1.0]])
    sq = dual_cost(G, H, ObjectiveSpec("square"))
    eps = dual_cost(G, H, ObjectiveSpec("eps_linf", eps=0.5))
    assert eps == pytest.approx(sq + 0.5 * 3.0)


def test_dual_cost_huber_indicator():
    G = np.diag([4.0, 1.0])
    H = np.array([[2.0], [0.0]])
    assert np.isinf(dual_cost(G, H, ObjectiveSpec("huber_l1", kappa=1.0)))
    assert dual_cost(G, H, ObjectiveSpec("huber_l1", kappa=2.5)) == pytest.approx(-2.0)


def test_dual_cost_at_hsvd_is_optimal():
    G = random_psd(30, 7)
    s = 4
    _, h_svd = kpca_dense_eig(G, s)
    top = dense_top_eigs(G, s)
    assert dual_cost(G, h_svd, ObjectiveSpec("square")) == pytest.approx(
        -0.5 * top.sum(), rel=1e-10)


def test_dual_residual_zero_at_optimum_and_one_at_zero():
    G = random_psd(25, 8)
    s = 3
    top = dense_top_eigs(G, s)
    _, h_svd = kpca_dense_eig(G, s)
    assert dual_residual(G, h_svd, top) <= 1e-12
    assert dual_residual(G, np.zeros((25, s)), top) == pytest.approx(1.0)


def test_dual_residual_matches_direct_recomputation():
    rng = np.random.default_rng(4)
    G = random_psd(50, 11)
    s = 5
    top = dense_top_eigs(G, s)
    H = rng.standard_normal((50, s))
    eta = dual_residual(G, H, top)
    lam = np.linalg.eigvalsh(H.T @ G @ H)
    d = 0.5 * np.sum(H * H) - np.sum(np.sqrt(np.maximum(lam, 0.0)))
    d_opt = -0.5 * top.sum()
    assert eta == pytest.approx(abs(d - d_opt) / abs(d_opt), abs=1e-12)


def test_dual_residual_degenerate_gram():
    with pytest.raises(KpcaError, match="degenerate"):
        dual_residual(np.zeros((3, 3)), np.zeros((3, 1)), np.zeros(1))
    assert optimal_dual_cost(np.array([4.0, 1.0])) == -2.5


def test_check_critical_point_toy():
    G = np.diag([4.0, 1.0])
    assert check_critical_point(G, np.array([[2.0], [0.0]])) == pytest.approx(0.0)


def test_check_critical_point_hsvd_and_scaling():
    G = random_psd(30, 13)
    _, h_svd = kpca_dense_eig(G, 3)
    assert check_critical_point(G, h_svd) <= 1e-8
    assert check_critical_point(G, 2.0 * h_svd) > 1e-3


def test_check_critical_point_zero_gh():
    with pytest.raises(KpcaError, match="GH"):
        check_critical_point(np.zeros((2, 2)), np.ones((2, 1)))
