import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dckpca import (GramMatrix, KernelSpec, ObjectiveSpec, SingularMatrixError,
                    center_gram, dca_solve, fit,
                    gen_synth_gaussian, gram, kappa_max, lbfgs_solve,
                    parse_objective, solvers)
from dckpca.baselines import _dense
from dckpca.kernels import gram_product
from dckpca.solvers import SolveConfig

from oracles import (check_critical_point, dense_top_eigs, dual_cost, plain_dca,
                     prox_psi_independent)


def centered_gram(n=120, d=5, seed=0, sigma=1.5):
    ds = gen_synth_gaussian(n, d, seed)
    return center_gram(gram(ds, KernelSpec("gaussian", sigma)))


def assert_ritz_form(G, H):
    M = H.T @ G @ H
    diag = np.diag(M)
    assert np.max(np.abs(M - np.diag(diag))) <= 1e-8 * np.max(diag)
    assert np.all(np.diff(diag) < 0)


# ------------------------------------------------------------------ lbfgs

def test_lbfgs_rank_one_toy():
    G = np.diag([4.0, 1.0])
    H, rep = lbfgs_solve(G, 1, SolveConfig(tol=1e-10, seed=3))
    assert rep.cost_trace[-1] == pytest.approx(-2.0, abs=1e-8)
    assert np.allclose(np.abs(H), [[2.0], [0.0]], atol=1e-5)


def test_lbfgs_matches_dense_eig_cost():
    Gc = centered_gram(n=300, d=8, seed=42, sigma=2.5)
    s = 5
    top = dense_top_eigs(_dense(Gc), s)
    cfg = SolveConfig(tol=1e-9, seed=7, benchmark_eigs=top)
    H, rep = lbfgs_solve(Gc, s, cfg)
    d_opt = -0.5 * top.sum()
    assert abs(rep.cost_trace[-1] - d_opt) / abs(d_opt) <= 1e-6
    assert rep.termination == "tolerance"


def test_lbfgs_converged_solution_is_critical():
    Gc = centered_gram(n=150, d=6, seed=5)
    s = 4
    top = dense_top_eigs(_dense(Gc), s)
    H, _ = lbfgs_solve(Gc, s, SolveConfig(tol=1e-9, seed=1, benchmark_eigs=top))
    assert check_critical_point(_dense(Gc), H) <= 1e-4


def test_lbfgs_deterministic_bitwise():
    Gc = centered_gram(n=80, d=4, seed=2)
    a_H, a_rep = lbfgs_solve(Gc, 3, SolveConfig(seed=11))
    b_H, b_rep = lbfgs_solve(Gc, 3, SolveConfig(seed=11))
    assert np.array_equal(a_H, b_H)
    assert a_rep.cost_trace == b_rep.cost_trace
    assert a_rep.iterations == b_rep.iterations


def test_lbfgs_production_stopping_and_report_shape():
    Gc = centered_gram(n=60, d=4, seed=3)
    H, rep = lbfgs_solve(Gc, 2, SolveConfig(tol=1e-8, seed=4))
    assert rep.termination in ("gradient", "tolerance")
    assert len(rep.cost_trace) == rep.iterations + 1
    assert rep.eta_trace is None
    assert rep.wall_seconds > 0
    diffs = np.diff(rep.cost_trace)
    assert np.all(diffs <= 1e-10)  # each step's basis contains the last X
    assert check_critical_point(_dense(Gc), H) <= 1e-4


def test_lbfgs_max_iters_termination():
    Gc = centered_gram(n=60, d=4, seed=6)
    _, rep = lbfgs_solve(Gc, 2, SolveConfig(tol=1e-16, max_iters=3, seed=0))
    assert rep.termination == "max_iters"
    assert rep.iterations == 3
    # the init's GH, then one product per Ritz step; no Anderson candidates
    assert (rep.products, rep.rejected) == (4, 0)


def test_lbfgs_iterations_on_a_slow_spectrum():
    # exact subspace steps: 8-12 iterations here, against 21-24 for L-BFGS
    Gc = centered_gram(n=300, d=8, seed=42, sigma=2.5)
    for seed in range(5):
        _, rep = lbfgs_solve(Gc, 5, SolveConfig(tol=1e-10, seed=seed))
        assert rep.termination == "tolerance"
        assert rep.iterations <= 15


def test_lbfgs_ritz_form_at_every_exit():
    Gc = centered_gram(n=150, d=5, seed=17)
    G = _dense(Gc)
    H, rep = lbfgs_solve(Gc, 4, SolveConfig(tol=1e-16, max_iters=3, seed=3))
    assert rep.termination == "max_iters"
    assert_ritz_form(G, H)
    # a rotated optimum is a critical point that is not in Ritz form: the
    # solve stops at its first Ritz step and returns the Ritz form
    w, V = np.linalg.eigh(G)
    h_opt = V[:, -4:] * np.sqrt(w[-4:])
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    H, rep = lbfgs_solve(Gc, 4, SolveConfig(tol=1e-12), h0=h_opt @ Q)
    assert rep.iterations == 1 and rep.products == 2 and rep.termination == "tolerance"
    assert_ritz_form(G, H)
    assert rep.cost_trace[-1] == pytest.approx(-0.5 * w[-4:].sum(), rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 30), s=st.integers(1, 4), extra_rank=st.integers(0, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lbfgs_cost_descends_and_stays_above_optimum(n, s, extra_rank, seed):
    s = min(s, n)
    rank = min(s + extra_rank, n)
    B = np.random.default_rng(seed).standard_normal((n, rank))
    G = B @ B.T
    G = np.triu(G) + np.triu(G, 1).T
    d_opt = -0.5 * float(dense_top_eigs(G, s).sum())
    _, rep = lbfgs_solve(G, s, SolveConfig(tol=1e-12, seed=seed))
    costs = np.array(rep.cost_trace)
    assert np.all(np.diff(costs) <= 1e-10 * np.abs(costs[1:]))
    assert costs[-1] >= d_opt * (1 + 1e-10)


def test_lbfgs_benchmark_eigs_validation():
    Gc = centered_gram(n=30, d=3, seed=7)
    from dckpca import KpcaError
    with pytest.raises(KpcaError, match="benchmark_eigs"):
        lbfgs_solve(Gc, 2, SolveConfig(benchmark_eigs=np.ones(5)))


def test_lbfgs_singularity_retry_then_fail():
    # rank-1 G with s=2 makes H'GH singular for every init
    G = np.zeros((6, 6))
    G[0, 0] = 1.0
    with pytest.raises(SingularMatrixError):
        lbfgs_solve(G, 2, SolveConfig(seed=0))


@pytest.mark.parametrize("solve", [
    lambda G: lbfgs_solve(G, 2),
    lambda G: dca_solve(G, 2, parse_objective("square")),
], ids=["lbfgs", "dca"])
def test_floor_is_relative_to_the_scale_of_g(solve):
    # the optimum for c G is sqrt(c) times the one for G; at c = 1e-7, H'GH
    # has eigenvalues near c^2 lam^2 ~ 1e-14, below an absolute floor of 1e-12
    G = np.diag([3.0, 2.0, 1.0])
    H1, _ = solve(G)
    for c in (1e-7, 1.0, 1e7):
        H, rep = solve(c * G)
        assert rep.termination == "tolerance"
        assert np.max(np.abs(H / np.sqrt(c) - H1)) <= 1e-8 * np.max(np.abs(H1))


@pytest.mark.parametrize("kind, radius", [
    ("huber_row2", 2.5), ("huber_l1", 1.4), ("eps_row2", 0.1), ("eps_linf", 0.05)])
def test_dca_is_scale_equivariant(kind, radius):
    # with kappa or eps scaled by sqrt(c), the first step from the shared
    # random init already gives sqrt(c) times the one for G; the Anderson
    # history must hold no difference taken at the init to keep that
    G = np.diag([3.0, 2.0, 1.0])
    param = "kappa" if kind.startswith("huber") else "eps"
    solve = lambda c: dca_solve(c * G, 2, ObjectiveSpec(kind, **{param: np.sqrt(c) * radius}))
    H1, rep1 = solve(1.0)
    assert rep1.iterations >= 3   # so candidates were formed from iterate 2 on
    for c in (1e-6, 1e6):
        H, rep = solve(c)
        assert rep.termination == "tolerance"
        assert np.max(np.abs(H / np.sqrt(c) - H1)) <= 1e-8 * np.max(np.abs(H1))


def test_lbfgs_indefinite_gram_named():
    # H'GH = -1: G is not PSD on span(H), which is not a near-singular H'GH
    with pytest.raises(SingularMatrixError, match="indefinite") as info:
        lbfgs_solve(np.diag([1.0, -1.0]), 1, h0=[[0.0], [1.0]])
    assert "near-singular" not in str(info.value)


def test_s_above_numerical_rank_named():
    # a centered linear Gram on d=2 has rank 2: H'GH is singular at every init
    Gc = center_gram(gram(gen_synth_gaussian(50, 2, 4), KernelSpec("linear")))
    solves = (lambda: lbfgs_solve(Gc, 3),
              lambda: dca_solve(Gc, 3, ObjectiveSpec("square")),
              lambda: dca_solve(Gc, 3, parse_objective("huber2:0.5")))
    for solve in solves:
        with pytest.raises(SingularMatrixError, match="near-singular") as info:
            solve()
        assert str(info.value).count("s=3 likely exceeds the numerical rank of G") == 2
        assert "kappa" not in str(info.value)


@pytest.mark.parametrize("tol", [1e-13, 1e-6], ids=["float64", "float32"])
def test_s_above_the_numerical_rank_of_a_gaussian_gram_is_named(tol):
    # sigma=50 on d=2 leaves about 5 eigenvalues above rounding. On the
    # float64 Gram (tol < 1e-12) the Ritz step finds H'GH near-singular; on
    # the float32 one the init finds a negative eigenvalue within the
    # products' rounding, which is not evidence of an indefinite G
    with pytest.raises(SingularMatrixError) as info:
        fit(gen_synth_gaussian(500, 2, 4), KernelSpec("gaussian", 50.0),
            ObjectiveSpec("square"), 8, SolveConfig(tol=tol))
    message = str(info.value)
    assert message.count("s=8 likely exceeds the numerical rank of G") == 2
    assert "indefinite" not in message


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_every_product_applies_g_to_at_most_s_columns(monkeypatch, dtype):
    Gc = center_gram(gram(gen_synth_gaussian(300, 6, 8), KernelSpec("gaussian", 2.0),
                          dtype=dtype))
    columns = []

    def counted(G, Q, exact=False):
        columns.append(Q.shape[1])
        return gram_product(G, Q, exact)

    monkeypatch.setattr(solvers, "gram_product", counted)
    s = 6
    _, rep = lbfgs_solve(Gc, s, SolveConfig(tol=1e-10, seed=4))
    assert rep.iterations >= 4   # later steps carry a P block
    assert len(columns) == rep.products
    assert max(columns) <= s


def test_lbfgs_warm_start():
    G = np.diag([4.0, 1.0])
    h0 = np.array([[1.9], [0.1]])
    H, rep = lbfgs_solve(G, 1, SolveConfig(tol=1e-12, seed=0), h0=h0)
    assert rep.cost_trace[0] == pytest.approx(dual_cost(G, h0, ObjectiveSpec("square")))
    assert rep.cost_trace[-1] == pytest.approx(-2.0, abs=1e-9)


def test_lbfgs_init_is_evaluated_without_a_gradient(monkeypatch):
    # H0 is iteration 0: its cost is recorded and no stop test reads its
    # gradient, for a random init and for an h0 alike
    def no_gradient(*args, **kwargs):
        raise AssertionError("grad_pi called")
    monkeypatch.setattr(solvers, "grad_pi", no_gradient)
    Gc = centered_gram(n=60, d=4, seed=6)
    for seed, h0 in ((1, None), (0, np.random.default_rng(5).standard_normal((60, 2)))):
        _, rep = lbfgs_solve(Gc, 2, SolveConfig(tol=1e-10, seed=seed), h0=h0)
        H0 = np.random.default_rng(seed).standard_normal((60, 2)) if h0 is None else h0
        assert rep.termination == "tolerance" and rep.iterations >= 1
        assert rep.cost_trace[0] == pytest.approx(
            dual_cost(_dense(Gc), H0, ObjectiveSpec("square")), rel=1e-12)


def test_lbfgs_returns_ritz_form():
    # a solve returns H = V diag(theta)^(1/2), so H'GH is diag(theta^2) with
    # theta decreasing
    Gc = centered_gram(n=150, d=5, seed=17)
    H, _ = lbfgs_solve(Gc, 4, SolveConfig(seed=3))
    assert_ritz_form(_dense(Gc), H)


def test_kappa_max_huber_l1_independent_of_init():
    # max|h_ij| depends on the rotation of H; the Ritz form fixes it, so the
    # xmax radius no longer moves with the init (4.5e-2 relative spread before)
    Gc = center_gram(gram(gen_synth_gaussian(200, 5, 3), KernelSpec("gaussian", 1.5)))
    kms = [kappa_max("huber_l1", lbfgs_solve(Gc, 3, SolveConfig(seed=seed))[0])
           for seed in (0, 1, 2)]
    assert (max(kms) - min(kms)) / np.mean(kms) <= 5e-3


def _fixed_point_residual(G, H, kind=None, kappa=None):
    """||H - T(H)|| / ||H|| with T(H) = prox_{Psi*}(grad pi(H)), where
    prox_{Psi*}(Y) = Y - prox_Psi(Y) (Moreau) and T = grad pi for the square loss."""
    M = H.T @ G @ H
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    Y = G @ H @ (V / np.sqrt(w)) @ V.T
    T = Y if kind is None else Y - prox_psi_independent(kind, Y, kappa=kappa)
    return float(np.linalg.norm(H - T) / np.linalg.norm(H))


def test_every_solver_honours_the_same_tol():
    Gc = center_gram(gram(gen_synth_gaussian(200, 5, 3), KernelSpec("gaussian", 1.5)))
    G = _dense(Gc)
    kappa = 0.8 * kappa_max("huber_row2", lbfgs_solve(Gc, 3, SolveConfig(seed=0))[0])
    for tol in (1e-6, 1e-8):
        cfg = SolveConfig(tol=tol, seed=0)
        H, rep = lbfgs_solve(Gc, 3, cfg)
        assert rep.termination == "tolerance"
        assert _fixed_point_residual(G, H) <= 2 * np.sqrt(tol)
        H, rep = dca_solve(Gc, 3, ObjectiveSpec("square"), cfg)
        assert rep.termination == "tolerance"
        assert _fixed_point_residual(G, H) <= 2 * np.sqrt(tol)
        H, rep = dca_solve(Gc, 3, ObjectiveSpec("huber_row2", kappa=kappa), cfg)
        assert rep.termination == "tolerance"
        assert _fixed_point_residual(G, H, "huber_row2", kappa) <= 2 * np.sqrt(tol)


def test_solve_config_validation():
    from dckpca import KpcaError
    with pytest.raises(KpcaError):
        SolveConfig(tol=0.0)


def test_solve_config_rejects_a_negative_seed():
    # numpy's generators take no negative seed
    from dckpca import KpcaError
    with pytest.raises(KpcaError, match="seed must be >= 0, got -1"):
        SolveConfig(seed=-1)


@pytest.mark.parametrize("solve", [lbfgs_solve,
                                   lambda G, s, cfg, h0: dca_solve(
                                       G, s, ObjectiveSpec("square"), cfg, h0)],
                         ids=["subspace", "dca"])
def test_a_stationary_point_below_the_optimum_stops_as_gradient(solve):
    # h0 = e2 is an eigenvector of G but not the top one: the residual is 0
    # and eta = |-0.5 - (-2)| / 2 = 0.75 stays above tol, so benchmark mode
    # stops at once. DCA's map fixes e2 at the init; the subspace solver
    # takes its one Ritz step on span[e2, G e2] = span[e2] first
    G = np.diag([4.0, 1.0, 0.5])
    h0 = np.array([[0.0], [1.0], [0.0]])
    H, rep = solve(G, 1, SolveConfig(benchmark_eigs=[4.0]), h0)
    assert rep.termination == "gradient"
    assert rep.iterations == (1 if solve is lbfgs_solve else 0)
    assert rep.eta_trace[-1] == 0.75
    assert np.array_equal(np.abs(H), h0)


@pytest.mark.parametrize("max_iters", [0, -3])
def test_solve_config_rejects_max_iters_below_one(max_iters):
    # it would return the seeded init unchanged, terminated at "max_iters"
    from dckpca import KpcaError
    with pytest.raises(KpcaError, match="max_iters"):
        dca_solve(centered_gram(n=30), 2, ObjectiveSpec("square"),
                  SolveConfig(max_iters=max_iters))


def test_lbfgs_reseed_error_names_both_inits():
    # G = -I makes H'GH negative at every init, so the reseed fails as well
    with pytest.raises(SingularMatrixError) as info:
        lbfgs_solve(-np.eye(3), 1)
    message = str(info.value)
    assert "seed 0" in message and "reseed 1" in message
    assert message.count("indefinite") == 2
    assert isinstance(info.value.__cause__, SingularMatrixError)


def _nan_pair():
    A = np.eye(5)
    A[0, 1] = A[1, 0] = np.nan
    return A


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("make", [
    _nan_pair,
    lambda: GramMatrix(np.where(np.eye(5) > 0, np.inf, 0.0)),
], ids=["nan-array", "inf-gram"])
@pytest.mark.parametrize("solve", [
    lambda G, s: lbfgs_solve(G, s),
    lambda G, s: dca_solve(G, s, ObjectiveSpec("square")),
], ids=["lbfgs", "dca"])
def test_non_finite_gram_fails_the_floor_check(solve, make):
    # a NaN eigenvalue of H'GH would pass every comparison with the floor
    with pytest.raises(SingularMatrixError, match="non-finite eigenvalue") as info:
        solve(make(), 2)
    assert str(info.value).count("iteration 0: H'GH has a non-finite") == 2


@pytest.mark.parametrize("solve", [
    lambda G, s: lbfgs_solve(G, s),
    lambda G, s: dca_solve(G, s, ObjectiveSpec("square")),
], ids=["lbfgs", "dca"])
def test_s_above_n_is_rejected_naming_both(solve):
    from dckpca import KpcaError
    G = np.diag([3.0, 2.0, 1.0])
    with pytest.raises(KpcaError, match=r"s=4 for n=3"):
        solve(G, 4)
    H, _ = solve(G, 3)
    assert H.shape == (3, 3)


def test_h0_checked_at_shared_entry():
    from dckpca import KpcaError
    G = np.diag([4.0, 1.0])
    solves = (lambda h0: lbfgs_solve(G, 1, h0=h0),
              lambda h0: dca_solve(G, 1, ObjectiveSpec("square"), h0=h0))
    for solve in solves:
        with pytest.raises(KpcaError, match="n x s"):
            solve(np.ones((2, 2)))
        with pytest.raises(KpcaError, match="n x s"):
            solve(np.ones(2))
        with pytest.raises(KpcaError, match="non-finite"):
            solve([[np.nan], [1.0]])
        H, _ = solve([[1.0], [0.5]])
        assert H.shape == (2, 1)


# -------------------------------------------------------------------- dca

def test_dca_square_hand_iteration():
    G = np.diag([4.0, 1.0])
    h0 = np.array([[1.0], [0.0]])
    H, rep = dca_solve(G, 1, ObjectiveSpec("square"), SolveConfig(seed=0), h0=h0)
    assert np.allclose(H, [[2.0], [0.0]], atol=1e-12)
    # costs: -1.5 at the init, -2 from the first update onward
    assert rep.cost_trace[0] == pytest.approx(-1.5)
    assert rep.cost_trace[1] == pytest.approx(-2.0)
    assert rep.termination == "tolerance"
    assert len(rep.cost_trace) == rep.iterations + 1


def test_dca_eps_zero_trace_identical_to_square():
    Gc = centered_gram(n=70, d=4, seed=8)
    cfg = SolveConfig(seed=21)
    sq_H, sq_rep = dca_solve(Gc, 3, ObjectiveSpec("square"), cfg)
    for kind in ("eps_linf", "eps_row2"):
        e_H, e_rep = dca_solve(Gc, 3, ObjectiveSpec(kind, eps=0.0), cfg)
        assert np.max(np.abs(e_H - sq_H)) <= 1e-12
        assert np.allclose(e_rep.cost_trace, sq_rep.cost_trace, atol=1e-12)


def test_dca_huber_above_kappa_max_reproduces_square():
    Gc = centered_gram(n=70, d=4, seed=9)
    cfg = SolveConfig(seed=22)
    sq_H, sq_rep = dca_solve(Gc, 3, ObjectiveSpec("square"), cfg)
    for kind in ("huber_l1", "huber_row2"):
        km = kappa_max(kind, sq_H)
        h_H, h_rep = dca_solve(Gc, 3, ObjectiveSpec(kind, kappa=1.5 * km), cfg)
        rel = abs(h_rep.cost_trace[-1] - sq_rep.cost_trace[-1]) / abs(sq_rep.cost_trace[-1])
        assert rel <= 1e-8
        # with the constraint void the iterates coincide entirely
        assert np.max(np.abs(h_H - sq_H)) <= 1e-12


def test_dca_descent_all_kinds():
    Gc = centered_gram(n=60, d=4, seed=10)
    specs = [ObjectiveSpec("square"),
             ObjectiveSpec("huber_l1", kappa=0.5),
             ObjectiveSpec("huber_row2", kappa=4.0),
             ObjectiveSpec("eps_linf", eps=0.02),
             ObjectiveSpec("eps_row2", eps=0.1)]
    for seed in range(10):
        for spec in specs:
            _, rep = dca_solve(Gc, 3, spec, SolveConfig(seed=seed, max_iters=300))
            costs = [c for c in rep.cost_trace if np.isfinite(c)]
            assert np.all(np.diff(costs) <= 1e-10)


@pytest.mark.parametrize("spec", [
    ObjectiveSpec("square"), ObjectiveSpec("huber_l1", kappa=0.5),
    ObjectiveSpec("huber_row2", kappa=4.0), ObjectiveSpec("eps_linf", eps=0.02),
    ObjectiveSpec("eps_row2", eps=0.1)], ids=lambda spec: spec.kind)
def test_dca_checks_the_floor_once_per_product(monkeypatch, spec):
    # init, plain steps and Anderson candidates: each H multiplied by G gets
    # exactly one floor check, an accepted candidate too
    calls = []
    check = solvers.check_floor
    monkeypatch.setattr(solvers, "check_floor",
                        lambda *a, **k: calls.append(1) or check(*a, **k))
    _, rep = dca_solve(centered_gram(n=60, d=4, seed=10), 3, spec, SolveConfig(seed=0))
    assert rep.iterations > 2
    assert len(calls) == rep.products


def test_dca_huber_iterates_feasible_after_first_step():
    Gc = centered_gram(n=50, d=4, seed=11)
    cfg = SolveConfig(seed=3, max_iters=5)
    kappa = 0.4
    H, rep = dca_solve(Gc, 2, ObjectiveSpec("huber_l1", kappa=kappa), cfg)
    assert np.max(np.abs(H)) <= kappa + 1e-15
    kappa = 3.0
    H, rep = dca_solve(Gc, 2, ObjectiveSpec("huber_row2", kappa=kappa), cfg)
    assert np.linalg.norm(H, axis=1).sum() <= kappa + 1e-12


def test_dca_anderson_against_plain_dca():
    # the accelerated solve ends at a fixed point of the same cost as plain
    # DCA from the same init, in fewer products with G
    products = plain_products = 0
    for seed in range(3):
        Gc = centered_gram(n=300, d=6, seed=seed, sigma=2.0)
        G = _dense(Gc)
        kappa = 0.8 * kappa_max("huber_row2", lbfgs_solve(Gc, 4, SolveConfig(seed=seed))[0])
        spec = ObjectiveSpec("huber_row2", kappa=kappa)
        cfg = SolveConfig(seed=seed)
        H, rep = dca_solve(Gc, 4, spec, cfg)
        H_plain, count = plain_dca(
            G, np.random.default_rng(seed).standard_normal((300, 4)),
            lambda Y: Y - prox_psi_independent("huber_row2", Y, kappa=kappa), cfg.tol)
        assert rep.termination == "tolerance"
        assert _fixed_point_residual(G, H, "huber_row2", kappa) ** 2 <= cfg.tol * (1 + 1e-9)
        cost, plain_cost = dual_cost(G, H, spec), dual_cost(G, H_plain, spec)
        assert abs(cost - plain_cost) <= 1e-5 * abs(plain_cost)
        assert rep.rejected < rep.iterations
        products += rep.products
        plain_products += count
    assert products <= 0.75 * plain_products


def test_dca_rejects_a_singular_anderson_candidate_and_steps_plainly(monkeypatch):
    # a zero candidate fails the floor check: it is rejected, not raised, so
    # the solve is plain DCA, each rejection costing one more product
    monkeypatch.setattr(solvers, "_anderson_candidate", lambda dR, dT, g, T: 0 * T)
    Gc = centered_gram(n=100, d=4, seed=6)
    cfg = SolveConfig(seed=2)
    H, rep = dca_solve(Gc, 3, ObjectiveSpec("square"), cfg)
    assert rep.termination == "tolerance" and rep.rejected >= 1
    assert rep.products == rep.iterations + 1 + rep.rejected
    H_plain, count = plain_dca(_dense(Gc), np.random.default_rng(2).standard_normal((100, 3)),
                               lambda Y: Y, cfg.tol)
    assert count == rep.iterations + 1
    assert np.allclose(H, H_plain, rtol=0, atol=1e-9 * np.max(np.abs(H_plain)))


def test_dca_refuses_an_unresolved_xmax_radius():
    from dckpca import KpcaError
    with pytest.raises(KpcaError, match="resolve the kappa_max fraction"):
        dca_solve(centered_gram(n=30), 2, parse_objective("huber2:xmax:0.8"))


def test_lbfgs_stops_at_1000_iterations_by_default():
    # the one default cap of both solvers; tol 1e-300 is never met
    _, rep = lbfgs_solve(centered_gram(n=40, d=4, seed=12), 2, SolveConfig(tol=1e-300))
    assert (rep.termination, rep.iterations) == ("max_iters", 1000)


def test_dca_stops_at_1000_iterations_by_default():
    Gc = centered_gram(n=40, d=3, seed=12)
    _, rep = dca_solve(Gc, 2, ObjectiveSpec("eps_linf", eps=0.01), SolveConfig(seed=5))
    assert rep.iterations <= 1000
    assert rep.termination in ("tolerance", "max_iters")


def test_dca_benchmark_mode_eta_stop():
    Gc = centered_gram(n=90, d=4, seed=13)
    top = dense_top_eigs(_dense(Gc), 3)
    cfg = SolveConfig(tol=1e-6, seed=6, benchmark_eigs=top)
    _, rep = dca_solve(Gc, 3, ObjectiveSpec("square"), cfg)
    assert rep.termination == "tolerance"
    assert rep.eta_trace[-1] < 1e-6


@pytest.mark.parametrize("objective", [
    ObjectiveSpec("huber_l1", kappa=1.0), ObjectiveSpec("huber_row2", kappa=1.0),
    ObjectiveSpec("eps_linf", eps=0.1), ObjectiveSpec("eps_row2", eps=0.1)],
    ids=["huber1", "huber2", "epsinf", "eps2"])
def test_dca_refuses_benchmark_mode_off_the_square_loss(objective):
    # eta is the square-loss dual gap: it is not the gap of these objectives
    from dckpca import KpcaError
    Gc = centered_gram(n=40, d=3, seed=13)
    cfg = SolveConfig(benchmark_eigs=dense_top_eigs(_dense(Gc), 2))
    with pytest.raises(KpcaError, match=f"square objective only, got {objective.kind}"):
        dca_solve(Gc, 2, objective, cfg)


@pytest.mark.parametrize("solve", [lbfgs_solve,
                                   lambda G, s, cfg: dca_solve(
                                       G, s, ObjectiveSpec("square"), cfg)],
                         ids=["subspace", "dca"])
def test_benchmark_eta_trace_is_the_gap_of_the_cost_trace(solve):
    from dckpca.dual_core import optimal_dual_cost
    Gc = centered_gram(n=90, d=4, seed=13)
    top = dense_top_eigs(_dense(Gc), 3)
    _, rep = solve(Gc, 3, SolveConfig(tol=1e-8, seed=6, benchmark_eigs=top))
    d_opt = optimal_dual_cost(top)
    assert rep.termination == "tolerance"
    assert rep.eta_trace == [abs(c - d_opt) / abs(d_opt) for c in rep.cost_trace]


def test_benchmark_mode_refuses_a_delta_below_the_float32_floor():
    # a float32 Gram's eta levels off near 1e-9: at 1e-10 the solve would run
    # to its cap, so it is refused up front
    from dckpca import KpcaError
    ds = gen_synth_gaussian(200, 5, 3)
    spec = KernelSpec("gaussian", 2.0)
    top = dense_top_eigs(_dense(center_gram(gram(ds, spec))), 5)
    Gc = center_gram(gram(ds, spec, dtype=np.float32))
    with pytest.raises(KpcaError, match="delta=1e-10 is below 1e-08.*needs a float64 Gram"):
        lbfgs_solve(Gc, 5, SolveConfig(tol=1e-10, max_iters=50, benchmark_eigs=top))
    _, rep = lbfgs_solve(Gc, 5, SolveConfig(tol=1e-8, max_iters=50, benchmark_eigs=top))
    assert rep.termination == "tolerance"


def test_dca_honours_tol():
    Gc = centered_gram(n=60, d=4, seed=16)
    _, loose = dca_solve(Gc, 2, ObjectiveSpec("square"), SolveConfig(tol=1e-4, seed=0))
    _, tight = dca_solve(Gc, 2, ObjectiveSpec("square"), SolveConfig(tol=1e-10, seed=0))
    assert loose.termination == tight.termination == "tolerance"
    assert loose.iterations < tight.iterations


def test_dca_indefinite_huber_does_not_blame_kappa():
    with pytest.raises(SingularMatrixError, match="indefinite") as info:
        dca_solve(np.diag([1.0, -1.0]), 1, parse_objective("huber2:0.5"),
                  h0=[[0.0], [1.0]])
    assert "kappa" not in str(info.value)


def test_dca_huber_singularity_names_kappa():
    # a tiny kappa on the sum of row norms leaves one nonzero row of H,
    # killing rank (a tiny sup-norm kappa only scales H, which the relative
    # floor accepts)
    Gc = centered_gram(n=30, d=3, seed=14)
    with pytest.raises(SingularMatrixError, match="kappa"):
        dca_solve(Gc, 2, ObjectiveSpec("huber_row2", kappa=1e-14), SolveConfig(seed=0))


def test_dca_tiny_sup_norm_kappa_solves():
    # a tiny kappa on the sup norm clips every entry of H to +-kappa: that
    # scales H without losing rank, and the relative floor accepts it
    Gc = centered_gram(n=30, d=3, seed=14)
    H, rep = dca_solve(Gc, 2, ObjectiveSpec("huber_l1", kappa=1e-14), SolveConfig(seed=0))
    assert rep.termination == "tolerance"
    assert np.all(np.isfinite(H)) and np.max(np.abs(H)) <= 1e-14 * (1 + 1e-12)
    lam = np.linalg.eigvalsh(H.T @ _dense(Gc) @ H)
    assert lam[0] > 0.1 * lam[-1]


def test_report_json_round_trip():
    import json
    Gc = centered_gram(n=40, d=3, seed=15)
    _, rep = dca_solve(Gc, 2, ObjectiveSpec("huber_l1", kappa=0.5),
                       SolveConfig(seed=7, max_iters=10))
    blob = json.loads(rep.to_json())
    assert blob["spec_version"]
    assert blob["iterations"] == rep.iterations
    assert blob["termination"] == rep.termination
    assert blob["products"] == rep.products >= rep.iterations + 1
    assert blob["rejected"] == rep.rejected
    assert len(blob["cost_trace"]) == rep.iterations + 1
    # an infeasible random init shows up as null, not Infinity
    assert blob["cost_trace"][0] is None or isinstance(blob["cost_trace"][0], float)
