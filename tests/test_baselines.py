import numpy as np
import pytest

from dckpca import (GramMatrix, KernelSpec, KpcaError, ObjectiveSpec,
                    ToleranceUnreachableError, center_gram, dual_residual,
                    gen_controlled_spectrum_gram, gen_synth_gaussian, gram,
                    kpca_dense_eig, rsvd, rsvd_adaptive)
from dckpca.baselines import _dense, h_from_pairs
from dckpca.kernels import BLOCK

from oracles import check_critical_point, dense_top_eigs, dual_cost


def random_psd(n, seed, rank=None):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, rank or n))
    G = B @ B.T
    return np.triu(G) + np.triu(G, 1).T


def test_dense_eig_toy():
    pairs, h_svd = kpca_dense_eig(np.diag([4.0, 1.0]), 1)
    assert np.allclose(pairs.values, [4.0])
    assert np.allclose(np.abs(h_svd), [[2.0], [0.0]], atol=1e-12)


def test_dense_eig_dual_cost_identity_and_eta():
    G = random_psd(40, 0)
    s = 5
    pairs, h_svd = kpca_dense_eig(G, s)
    assert dual_cost(G, h_svd, ObjectiveSpec("square")) == pytest.approx(
        -0.5 * pairs.values.sum(), rel=1e-10)
    assert dual_residual(G, h_svd, pairs.values) <= 1e-12
    assert check_critical_point(G, h_svd) <= 1e-8


def test_dense_eig_full_reconstruction():
    G = random_psd(25, 1)
    pairs, _ = kpca_dense_eig(G, 25)
    rebuilt = (pairs.vectors * pairs.values) @ pairs.vectors.T
    assert np.linalg.norm(rebuilt - G) <= 1e-8 * np.linalg.norm(G)


def test_dense_eig_orthonormal_vectors():
    G = random_psd(30, 2)
    pairs, _ = kpca_dense_eig(G, 6)
    assert np.linalg.norm(pairs.vectors.T @ pairs.vectors - np.eye(6)) <= 1e-8


def _gram_inputs(n):
    """The four forms a baseline takes: centered float32 and float64 Grams
    from ``gram``, a Gram of a caller's array and the plain array."""
    spec = KernelSpec("gaussian", 2.0)
    ds = gen_synth_gaussian(n, 5, 11)
    caller = _dense(center_gram(gram(ds, spec)))
    return {"float32": center_gram(gram(ds, spec, dtype=np.float32)),
            "float64": center_gram(gram(ds, spec)),
            "caller-gram": GramMatrix(caller.copy()),
            "array": caller}


@pytest.mark.parametrize("form", ["float32", "float64", "caller-gram", "array"])
def test_dense_eig_subset_matches_the_full_spectrum_and_writes_no_input(form):
    n, s = 300, 20
    assert n > BLOCK
    G = _gram_inputs(n)[form]
    buffers = [G.entries, G.m] if isinstance(G, GramMatrix) else [G]
    buffers = [b for b in buffers if b is not None]
    before = [b.tobytes() for b in buffers]
    pairs, h_svd = kpca_dense_eig(G, s)
    assert [b.tobytes() for b in buffers] == before
    A = _dense(G)
    w, V = np.linalg.eigh(A)
    w, V = w[::-1], V[:, ::-1]
    np.testing.assert_allclose(pairs.values, w[:s], rtol=1e-12)
    # the gap after the s-th value is clear, so the subspaces agree
    assert w[s - 1] - w[s] > 1e-3 * w[0]
    cosines = np.linalg.svd(V[:, :s].T @ pairs.vectors, compute_uv=False)
    assert cosines.min() >= 1.0 - 1e-10
    assert dual_cost(A, h_svd, ObjectiveSpec("square")) == pytest.approx(
        -0.5 * pairs.values.sum(), rel=1e-10)


@pytest.mark.parametrize("s", [0, -1, 5])
@pytest.mark.parametrize("baseline", [
    lambda G, s: kpca_dense_eig(G, s),
    lambda G, s: rsvd(G, s),
    lambda G, s: rsvd_adaptive(G, s, 1e-6, top_eigs=np.ones(max(s, 0))),
], ids=["kpca_dense_eig", "rsvd", "rsvd_adaptive-oracle-given"])
def test_baselines_refuse_s_outside_one_to_n(baseline, s):
    # n = 3: s = 5 is n + 2
    with pytest.raises(KpcaError, match=f"1 <= s <= n, got s={s} for n=3"):
        baseline(np.diag([3.0, 2.0, 1.0]), s)


def test_rsvd_exact_rank_recovery():
    # G is a sum of s outer products: the sketch captures it exactly
    n, s = 60, 4
    rng = np.random.default_rng(3)
    B = rng.standard_normal((n, s))
    G = B @ B.T
    G = np.triu(G) + np.triu(G, 1).T
    pairs = rsvd(G, s, p=5, q=1, seed=0)
    exact = dense_top_eigs(G, s)
    assert np.allclose(pairs.values, exact, rtol=1e-10)


def test_rsvd_deterministic_given_seed():
    G = random_psd(50, 4)
    a = rsvd(G, 5, p=6, q=2, seed=9)
    b = rsvd(G, 5, p=6, q=2, seed=9)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_rsvd_rayleigh_upper_bound():
    # sketched eigenvalue estimates never exceed the true ones (beyond round-off)
    for seed in range(5):
        G = random_psd(200, seed + 20, rank=40)
        exact = dense_top_eigs(G, 8)
        pairs = rsvd(G, 8, p=4, q=1, seed=seed)
        assert np.all(pairs.values <= exact + 1e-8 * exact[0])


def test_rsvd_accuracy_degrades_for_slow_decay_at_fixed_p():
    # planted-spectrum regime (small n keeps the symmetric noise term small):
    # at a fixed sketch budget the slowly decaying spectrum is harder
    n, s, p, q = 30, 3, 2, 1
    med = {}
    for c in (0.02, 0.6):
        etas = []
        for seed in range(6):
            gm = gen_controlled_spectrum_gram(n, c, seed)
            top = dense_top_eigs(gm.entries, s)
            pairs = rsvd(gm.entries, s, p=p, q=q, seed=seed + 100)
            etas.append(dual_residual(gm.entries, h_from_pairs(pairs), top))
        med[c] = np.median(etas)
    assert med[0.02] > med[0.6]


def test_rsvd_adaptive_exact_rank_stops_immediately():
    n, s = 80, 3
    rng = np.random.default_rng(6)
    B = rng.standard_normal((n, s))
    G = B @ B.T
    G = np.triu(G) + np.triu(G, 1).T
    trace = []
    pairs, p_used = rsvd_adaptive(G, s, 1e-8, seed=1,
                                  top_eigs=dense_top_eigs(G, s), collect=trace)
    assert p_used == 10
    assert trace[0][0] == 10 and trace[0][1] < 1e-8


def test_rsvd_adaptive_doubling_schedule():
    G = random_psd(120, 7)
    trace = []
    pairs, p_used = rsvd_adaptive(G, 10, 1e-10, seed=2,
                                  top_eigs=dense_top_eigs(G, 10), collect=trace)
    ps = [p for p, _ in trace]
    # doubling from 10, capped at n - s = 110
    assert ps == [min(10 * 2 ** k, 110) for k in range(len(ps))]
    assert p_used == ps[-1]
    final_eta = trace[-1][1]
    assert final_eta < 1e-10


def test_rsvd_adaptive_tolerance_unreachable():
    G = random_psd(40, 8)
    # eta >= 0 never beats delta 0; the last attempt is at the cap n - s = 36
    with pytest.raises(ToleranceUnreachableError, match="p=36"):
        rsvd_adaptive(G, 4, 0.0, seed=3, top_eigs=dense_top_eigs(G, 4))


def test_rsvd_adaptive_schedule_ends_at_small_cap():
    # n - s = 7: p starts at the cap, below the fixed start of 10
    G = random_psd(12, 10)
    trace = []
    with pytest.raises(ToleranceUnreachableError, match="p=7"):
        rsvd_adaptive(G, 5, 0.0, seed=5, top_eigs=dense_top_eigs(G, 5), collect=trace)
    assert [p for p, _ in trace] == [7]


def test_rsvd_adaptive_takes_its_oracle_by_keyword_only():
    G = random_psd(12, 10)
    with pytest.raises(TypeError):
        rsvd_adaptive(G, 5, 1e-6)
    with pytest.raises(TypeError):
        rsvd_adaptive(G, 5, 1e-6, 0, dense_top_eigs(G, 5))
