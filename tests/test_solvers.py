import numpy as np
import pytest

from dckpca import (KernelSpec, ObjectiveSpec, SingularMatrixError,
                    center_gram, check_critical_point, dca_solve, dual_cost,
                    gen_synth_gaussian, gram, kappa_max, lbfgs_solve,
                    parse_objective)
from dckpca.solvers import SolveConfig, _wolfe_scalar

from oracles import dense_top_eigs, prox_psi_independent


def centered_gram(n=120, d=5, seed=0, sigma=1.5):
    ds = gen_synth_gaussian(n, d, seed)
    return center_gram(gram(ds, KernelSpec("gaussian", sigma)))


def line_search_strong_wolfe(fg, x, direction, c1=1e-4, c2=0.9, max_steps=25):
    """Strong-Wolfe step along ``direction`` for ``fg(x) -> (cost, gradient)``:
    the L-BFGS loop's scalar search run on the ray x + a * direction."""
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    phi = lambda a: float(fg(x + a * direction)[0])
    dphi = lambda a: float(np.vdot(fg(x + a * direction)[1], direction))
    return _wolfe_scalar(phi, dphi, phi(0.0), dphi(0.0), c1, c2, 1.0, max_steps)


# ------------------------------------------------------------- line search

def test_line_search_quadratic_accepts_unit_step():
    fg = lambda x: (0.5 * float(x @ x), x)
    alpha = line_search_strong_wolfe(fg, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert alpha == pytest.approx(1.0)


def test_line_search_satisfies_both_conditions():
    rng = np.random.default_rng(0)
    c1, c2 = 1e-4, 0.9
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        Q = A @ A.T + 0.1 * np.eye(n)
        b = rng.standard_normal(n)
        fg = lambda x: (0.5 * float(x @ Q @ x) + float(b @ x), Q @ x + b)
        x = rng.standard_normal(n)
        f0, g0 = fg(x)
        d = -g0
        alpha = line_search_strong_wolfe(fg, x, d, c1=c1, c2=c2)
        assert alpha is not None and alpha > 0
        fa, ga = fg(x + alpha * d)
        d0 = float(g0 @ d)
        assert fa <= f0 + c1 * alpha * d0 + 1e-12 * abs(f0)
        assert abs(float(ga @ d)) <= -c2 * d0 + 1e-12 * abs(d0)


def test_line_search_rejects_ascent():
    fg = lambda x: (0.5 * float(x @ x), x)
    with pytest.raises(ValueError, match="descent"):
        line_search_strong_wolfe(fg, np.array([1.0]), np.array([1.0]))


# ------------------------------------------------------------------ lbfgs

def test_lbfgs_rank_one_toy():
    G = np.diag([4.0, 1.0])
    H, rep = lbfgs_solve(G, 1, SolveConfig(tol=1e-10, seed=3))
    assert rep.cost_trace[-1] == pytest.approx(-2.0, abs=1e-8)
    assert np.allclose(np.abs(H), [[2.0], [0.0]], atol=1e-5)


def test_lbfgs_matches_dense_eig_cost():
    Gc = centered_gram(n=300, d=8, seed=42, sigma=2.5)
    s = 5
    top = dense_top_eigs(Gc.entries, s)
    cfg = SolveConfig(tol=1e-9, seed=7, benchmark_eigs=top)
    H, rep = lbfgs_solve(Gc, s, cfg)
    d_opt = -0.5 * top.sum()
    assert abs(rep.cost_trace[-1] - d_opt) / abs(d_opt) <= 1e-6
    assert rep.termination == "tolerance"


def test_lbfgs_converged_solution_is_critical():
    Gc = centered_gram(n=150, d=6, seed=5)
    s = 4
    top = dense_top_eigs(Gc.entries, s)
    H, _ = lbfgs_solve(Gc, s, SolveConfig(tol=1e-9, seed=1, benchmark_eigs=top))
    assert check_critical_point(Gc.entries, H) <= 1e-4


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
    assert np.all(diffs <= 1e-10)  # strong Wolfe guarantees descent
    assert check_critical_point(Gc.entries, H) <= 1e-4


def test_lbfgs_max_iters_termination():
    Gc = centered_gram(n=60, d=4, seed=6)
    _, rep = lbfgs_solve(Gc, 2, SolveConfig(tol=1e-16, max_iters=3, seed=0))
    assert rep.termination == "max_iters"
    assert rep.iterations == 3


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


def test_lbfgs_indefinite_gram_named():
    # H'GH = -1: G is not PSD on span(H), which is not a near-singular H'GH
    with pytest.raises(SingularMatrixError, match="indefinite") as info:
        lbfgs_solve(np.diag([1.0, -1.0]), 1, h0=[[0.0], [1.0]])
    assert "near-singular" not in str(info.value)


def test_lbfgs_warm_start():
    G = np.diag([4.0, 1.0])
    h0 = np.array([[1.9], [0.1]])
    H, rep = lbfgs_solve(G, 1, SolveConfig(tol=1e-12, seed=0), h0=h0)
    assert rep.cost_trace[0] == pytest.approx(dual_cost(G, h0, ObjectiveSpec("square")))
    assert rep.cost_trace[-1] == pytest.approx(-2.0, abs=1e-9)


def test_lbfgs_returns_ritz_form():
    # the Rayleigh-Ritz finish returns H = V diag(theta)^(1/2), so H'GH is
    # diag(theta^2) with theta decreasing
    Gc = centered_gram(n=150, d=5, seed=17)
    H, _ = lbfgs_solve(Gc, 4, SolveConfig(seed=3))
    M = H.T @ Gc.entries @ H
    diag = np.diag(M)
    assert np.max(np.abs(M - np.diag(diag))) <= 1e-8 * np.max(diag)
    assert np.all(np.diff(diag) < 0)


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
    G = Gc.entries
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


def test_lbfgs_reseed_error_names_both_inits():
    # G = -I makes H'GH negative at every init, so the reseed fails as well
    with pytest.raises(SingularMatrixError) as info:
        lbfgs_solve(-np.eye(3), 1)
    message = str(info.value)
    assert "seed 0" in message and "reseed 1" in message
    assert message.count("indefinite") == 2
    assert isinstance(info.value.__cause__, SingularMatrixError)


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


def test_dca_huber_iterates_feasible_after_first_step():
    Gc = centered_gram(n=50, d=4, seed=11)
    cfg = SolveConfig(seed=3, max_iters=5)
    kappa = 0.4
    H, rep = dca_solve(Gc, 2, ObjectiveSpec("huber_l1", kappa=kappa), cfg)
    assert np.max(np.abs(H)) <= kappa + 1e-15
    kappa = 3.0
    H, rep = dca_solve(Gc, 2, ObjectiveSpec("huber_row2", kappa=kappa), cfg)
    assert np.linalg.norm(H, axis=1).sum() <= kappa + 1e-12


def test_dca_stops_at_1000_iterations_by_default():
    Gc = centered_gram(n=40, d=3, seed=12)
    _, rep = dca_solve(Gc, 2, ObjectiveSpec("eps_linf", eps=0.01), SolveConfig(seed=5))
    assert rep.iterations <= 1000
    assert rep.termination in ("tolerance", "max_iters")


def test_dca_benchmark_mode_eta_stop():
    Gc = centered_gram(n=90, d=4, seed=13)
    top = dense_top_eigs(Gc.entries, 3)
    cfg = SolveConfig(tol=1e-6, seed=6, benchmark_eigs=top)
    _, rep = dca_solve(Gc, 3, ObjectiveSpec("square"), cfg)
    assert rep.termination == "tolerance"
    assert rep.eta_trace[-1] < 1e-6


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
    # a tiny kappa collapses every row to near-zero, killing rank
    Gc = centered_gram(n=30, d=3, seed=14)
    with pytest.raises(SingularMatrixError, match="kappa"):
        dca_solve(Gc, 2, ObjectiveSpec("huber_l1", kappa=1e-14), SolveConfig(seed=0))


def test_report_json_round_trip():
    import json
    Gc = centered_gram(n=40, d=3, seed=15)
    _, rep = dca_solve(Gc, 2, ObjectiveSpec("huber_l1", kappa=0.5),
                       SolveConfig(seed=7, max_iters=10))
    blob = json.loads(rep.to_json())
    assert blob["spec_version"]
    assert blob["iterations"] == rep.iterations
    assert blob["termination"] == rep.termination
    assert len(blob["cost_trace"]) == rep.iterations + 1
    # an infeasible random init shows up as null, not Infinity
    assert blob["cost_trace"][0] is None or isinstance(blob["cost_trace"][0], float)


def test_line_search_stall_signal():
    # one trial on a function whose minimum needs bracketing: budget exhausted
    fg = lambda x: (float((x - 3.0) ** 4), 4.0 * (x - 3.0) ** 3)
    alpha = line_search_strong_wolfe(fg, np.array(0.0), np.array(1.0),
                                     max_steps=1, c2=1e-4)
    assert alpha is None
