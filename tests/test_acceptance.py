"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete. Criterion 12 is implemented exactly as stated and is
expected to fail; README ("Note: acceptance criterion 12") gives the measured
cause.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import dckpca as dk
from dckpca import (KernelSpec, ObjectiveSpec, SingularMatrixError,
                    ToleranceUnreachableError)
from dckpca.baselines import h_from_pairs
from dckpca.model import assemble_model
from dckpca.solvers import SolveConfig

from oracles import (dense_top_eigs, fd_grad, nuclear_norm, project_l1_kkt,
                     prox_psi_independent, psd_sqrt)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def random_psd(n, seed, jitter=0.0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    G = B @ B.T + jitter * np.eye(n)
    return np.triu(G) + np.triu(G, 1).T


def cluster_dataset(n, d, seed, spread=3.0, within=0.3, k=3):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, d)) * spread
    lab = rng.integers(0, k, size=n)
    X = centers[lab] + within * rng.standard_normal((n, d))
    return dk.Dataset(X, lab.astype(float))


def test_criterion_01_oracle_equivalence_square_loss():
    t0 = time.perf_counter()
    ds = dk.gen_synth_gaussian(300, 8, 42)
    spec = KernelSpec("gaussian", 2.5)
    Gc = dk.center_gram(dk.gram(ds, spec))
    s = 5
    top = dense_top_eigs(Gc.entries, s)
    d_opt = -0.5 * top.sum()

    cfg = SolveConfig(tol=1e-10, seed=7, benchmark_eigs=top)
    model = dk.fit(ds, spec, ObjectiveSpec("square"), s, cfg)
    cost_rel = abs(model.report.cost_trace[-1] - d_opt) / abs(d_opt)

    _, h_svd = dk.kpca_dense_eig(Gc.entries, s)
    eig_model = assemble_model(Gc, spec, ObjectiveSpec("square"), s, h_svd, ds)
    P1 = dk.project(model, ds.values)
    P2 = dk.project(eig_model, ds.values)
    g1, g2 = P1 @ P1.T, P2 @ P2.T
    pp_rel = np.linalg.norm(g1 - g2) / np.linalg.norm(g2)
    elapsed = time.perf_counter() - t0

    ok = cost_rel <= 1e-6 and pp_rel <= 1e-4 and elapsed < 5.0
    assert report(1, ok, f"cost rel {cost_rel:.2e} (<=1e-6), PP' rel "
                         f"{pp_rel:.2e} (<=1e-4), {elapsed:.1f}s (<5s)")


def test_criterion_02_gradient_against_finite_differences():
    worst = 0.0
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(10, 51))
        s = int(rng.integers(1, 5))
        G = random_psd(n, 2000 + seed, jitter=0.5)
        H = rng.standard_normal((n, s))
        g, dec = dk.grad_pi(G, H)
        if dec.lam[-1] < 1e-6 * dec.lam[0]:
            continue
        fd = fd_grad(lambda X: dk.pi(G, X), H)
        worst = max(worst, np.linalg.norm(fd - g) / np.linalg.norm(g))
        checked += 1
    ok = checked == 20 and worst <= 1e-5
    assert report(2, ok, f"{checked}/20 instances, worst FD rel err {worst:.2e} (<=1e-5)")


def test_criterion_03_nuclear_norm_identity():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(5, 51))
        s = int(rng.integers(1, 5))
        G = random_psd(n, 4000 + seed)
        H = rng.standard_normal((n, s))
        lhs = dk.pi(G, H)
        rhs = nuclear_norm(psd_sqrt(G) @ H)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst <= 1e-8
    assert report(3, ok, f"worst |pi - nuclear| rel {worst:.2e} (<=1e-8)")


def test_criterion_04_moreau_decomposition():
    kinds = (("huber_l1", {"kappa": 0.7}), ("huber_row2", {"kappa": 2.0}),
             ("eps_linf", {"eps": 0.3}), ("eps_row2", {"eps": 0.8}))
    rng = np.random.default_rng(44)
    worst = 0.0
    for kind, params in kinds:
        spec = ObjectiveSpec(kind, **params)
        for _ in range(100):
            Y = rng.standard_normal((7, 3)) * rng.choice([0.3, 1.0, 3.0])
            gap = np.max(np.abs(prox_psi_independent(kind, Y, **params)
                                + dk.prox_psi_star(spec, Y) - Y))
            worst = max(worst, gap)
    ok = worst <= 1e-12
    assert report(4, ok, f"worst decomposition gap {worst:.2e} (<=1e-12) over 4x100 draws")


def test_criterion_05_projection_oracles():
    rng = np.random.default_rng(55)
    worst_v = 0.0
    for _ in range(60):
        m = int(rng.integers(1, 9))
        v = rng.standard_normal(m) * rng.choice([0.2, 1.0, 5.0])
        r = float(rng.uniform(0.05, 3.0))
        worst_v = max(worst_v, np.max(np.abs(
            dk.project_l1_ball(v, r) - project_l1_kkt(v, r))))
    worst_m = 0.0
    for _ in range(60):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 5))
        Y = rng.standard_normal((rows, cols)) * rng.choice([0.5, 2.0])
        kappa = float(rng.uniform(0.1, 2.5))
        spec = ObjectiveSpec("huber_row2", kappa=kappa)
        mine = dk.prox_psi_star(spec, Y)
        oracle = Y - prox_psi_independent("huber_row2", Y, kappa=kappa)
        worst_m = max(worst_m, np.max(np.abs(mine - oracle)))
    ok = worst_v <= 1e-8 and worst_m <= 1e-8
    assert report(5, ok, f"l1-ball worst gap {worst_v:.2e}, row-norm ball worst "
                         f"gap {worst_m:.2e} (both <=1e-8)")


def test_criterion_06_dca_descent():
    ds = dk.gen_synth_gaussian(80, 5, 6)
    Gc = dk.center_gram(dk.gram(ds, KernelSpec("gaussian", 1.8)))
    specs = [ObjectiveSpec("square"),
             ObjectiveSpec("huber_l1", kappa=0.5),
             ObjectiveSpec("huber_row2", kappa=4.0),
             ObjectiveSpec("eps_linf", eps=0.02),
             ObjectiveSpec("eps_row2", eps=0.1)]
    worst = -np.inf
    runs = 0
    for seed in range(10):
        for spec in specs:
            _, rep = dk.dca_solve(Gc, 3, spec, SolveConfig(seed=seed, max_iters=400))
            costs = [c for c in rep.cost_trace if np.isfinite(c)]
            worst = max(worst, float(np.max(np.diff(costs))))
            runs += 1
    ok = worst <= 1e-10
    assert report(6, ok, f"{runs} runs, worst per-step cost increase {worst:.2e} (<=1e-10)")


def test_criterion_07_criticality_certificate():
    worst = 0.0
    for seed in range(5):
        ds = dk.gen_synth_gaussian(120 + 30 * seed, 4 + seed, seed)
        Gc = dk.center_gram(dk.gram(ds, KernelSpec("gaussian", 1.5)))
        s = 3
        top = dense_top_eigs(Gc.entries, s)
        H, rep = dk.lbfgs_solve(Gc, s, SolveConfig(tol=1e-9, seed=seed,
                                                      benchmark_eigs=top))
        assert rep.termination == "tolerance"
        worst = max(worst, dk.check_critical_point(Gc.entries, H))
    ok = worst <= 1e-4
    assert report(7, ok, f"worst ||HH'H - GH||/||GH|| {worst:.2e} (<=1e-4) over 5 solves")


def test_criterion_08_reductions_to_square_loss():
    ds = dk.gen_synth_gaussian(90, 5, 8)
    Gc = dk.center_gram(dk.gram(ds, KernelSpec("gaussian", 1.6)))
    worst = 0.0
    for seed in (0, 1):
        cfg = SolveConfig(seed=seed)
        sq_H, sq_rep = dk.dca_solve(Gc, 3, ObjectiveSpec("square"), cfg)
        ref = sq_rep.cost_trace[-1]
        for spec in (ObjectiveSpec("eps_linf", eps=0.0),
                     ObjectiveSpec("eps_row2", eps=0.0),
                     ObjectiveSpec("huber_l1",
                                   kappa=1.5 * dk.kappa_max("huber_l1", sq_H)),
                     ObjectiveSpec("huber_row2",
                                   kappa=1.5 * dk.kappa_max("huber_row2", sq_H))):
            _, rep = dk.dca_solve(Gc, 3, spec, cfg)
            worst = max(worst, abs(rep.cost_trace[-1] - ref) / abs(ref))
    ok = worst <= 1e-8
    assert report(8, ok, f"worst final-cost rel diff {worst:.2e} (<=1e-8)")


def test_criterion_09_sparsity_trend():
    t0 = time.perf_counter()
    ds = dk.gen_synth_gaussian(1000, 20, 0)
    spec = KernelSpec("gaussian", 4.5)
    Gc = dk.center_gram(dk.gram(ds, spec))
    s = 5
    cfg = SolveConfig(seed=0)
    sq_H, _ = dk.dca_solve(Gc, s, ObjectiveSpec("square"), cfg)
    base_err = dk.reconstruction_error(
        assemble_model(Gc, spec, ObjectiveSpec("square"), s, sq_H, ds), ds)

    eps_grid = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35]
    sparsity, ratios = [], []
    for eps in eps_grid:
        H, _ = dk.dca_solve(Gc, s, ObjectiveSpec("eps_row2", eps=eps), cfg)
        sparsity.append(dk.sparsity_metrics(H)["zero_rows_pct"])
        err = dk.reconstruction_error(
            assemble_model(Gc, spec, ObjectiveSpec("eps_row2", eps=eps), s,
                           H, ds), ds)
        ratios.append(err / base_err)
    rho = float(spearmanr(eps_grid, sparsity).statistic)
    zero_ok = abs(ratios[0] - 1.0) <= 1e-6
    headline = any(sp >= 40.0 and ra <= 1.25 for sp, ra in zip(sparsity, ratios))
    elapsed = time.perf_counter() - t0
    ok = rho >= 0.9 and zero_ok and headline and elapsed < 120.0
    assert report(9, ok, f"spearman {rho:.3f} (>=0.9), eps=0 ratio {ratios[0]:.8f} "
                         f"(1 +/- 1e-6), headline {headline} "
                         f"(sparsity {max(sparsity):.0f}% max), {elapsed:.0f}s (<120s)")


def test_criterion_10_robustness_direction():
    # Each Huber variant is checked in the kernel geometry where its ball
    # constraint is selective: the row-norm Huber on a bounded (sigma=1)
    # Gaussian kernel, the entrywise Huber in the wide-bandwidth regime where
    # scale outliers dominate the spectrum.
    def wins(objective, sigma, s_comp):
        count = 0
        for seed in range(5):
            base = cluster_dataset(150, 4, seed)
            rng = np.random.default_rng(seed)
            perm = rng.permutation(150)
            test_idx, train_idx = np.sort(perm[:30]), np.sort(perm[30:])
            train, test = base.take_rows(train_idx), base.take_rows(test_idx)
            noisy = dk.contaminate(train, 0.08, 100.0, seed)
            spec = KernelSpec("gaussian", sigma)
            cfg = SolveConfig(seed=seed)
            e_sq = dk.reconstruction_error(
                dk.fit(noisy, spec, ObjectiveSpec("square"), s_comp, cfg), test)
            e_h = dk.reconstruction_error(
                dk.fit(noisy, spec, dk.parse_objective(objective), s_comp, cfg), test)
            count += e_h <= e_sq
        return count

    w2 = wins("huber2:xmax:0.8", sigma=1.0, s_comp=6)
    w1 = wins("huber1:xmax:0.6", sigma=200.0, s_comp=2)
    ok = w1 >= 4 and w2 >= 4
    assert report(10, ok, f"huber1@0.6 wins {w1}/5, huber2@0.8 wins {w2}/5 (each >=4/5)")


@pytest.mark.slow
def test_criterion_11_speed_direction():
    t0 = time.perf_counter()
    ds = dk.gen_synth_gaussian(8000, 20, 0)
    spec = KernelSpec("laplace", 4.5)
    Gc = dk.center_gram(dk.gram(ds, spec))
    G = Gc.entries
    s, delta = 20, 1e-2

    t_eig0 = time.perf_counter()
    pairs, _ = dk.kpca_dense_eig(G, s)
    t_eig = time.perf_counter() - t_eig0
    top = pairs.values

    t_lb0 = time.perf_counter()
    H, rep = dk.lbfgs_solve(G, s, SolveConfig(tol=delta, seed=0,
                                                 benchmark_eigs=top))
    t_lbfgs = time.perf_counter() - t_lb0
    assert rep.eta_trace[-1] < delta

    try:
        t_rs0 = time.perf_counter()
        _, p_used = dk.rsvd_adaptive(G, s, delta, seed=0, top_eigs=top)
        t_rsvd = time.perf_counter() - t_rs0
        rsvd_note = f"rsvd_adaptive {t_rsvd:.2f}s at p={p_used} (informational)"
    except ToleranceUnreachableError:
        t_rsvd = float("nan")
        rsvd_note = "rsvd_adaptive unreachable (informational)"

    elapsed = time.perf_counter() - t0
    ok = t_lbfgs < t_eig and elapsed < 300.0
    assert report(11, ok, f"lbfgs {t_lbfgs:.2f}s ({rep.iterations} iters) < dense eig "
                          f"{t_eig:.2f}s; {rsvd_note}; total {elapsed:.0f}s (<300s)")


def test_criterion_12_spectrum_robustness_direction():
    # Implemented exactly as specified, and expected to FAIL: with
    # G = 0.01(X+X') + U diag(exp(-ci)) U' at n=500 the noise term buries the
    # planted decay for c in {0.1, 0.5}, so G is indefinite, its top s
    # eigenvalues are the noise edge (RSVD needs the full sketch) and H'GH is
    # indefinite at a Gaussian init. README ("Note: acceptance criterion 12")
    # gives the measured values; the FAIL line reports them per c.
    n, s, delta = 500, 20, 1e-4
    grid = [0.01, 0.1, 0.5]
    iters, oversamples, spectra, notes = {}, {}, {}, []
    for c in grid:
        gm = dk.gen_controlled_spectrum_gram(n, c, seed=0)
        w = np.linalg.eigvalsh(gm.entries)
        top = w[::-1][:s]
        spectra[c] = f"lam_min {w[0]:.3f}, lam{s}/lam{s + 1} {w[-s] / w[-s - 1]:.4f}"
        try:
            _, rep = dk.lbfgs_solve(gm.entries, s,
                                    SolveConfig(tol=delta, seed=0, benchmark_eigs=top))
            iters[c] = rep.iterations if rep.termination == "tolerance" else None
        except SingularMatrixError as exc:
            iters[c] = None
            notes.append(f"lbfgs at c={c}: {exc}")
        try:
            _, p = dk.rsvd_adaptive(gm.entries, s, delta, seed=0, top_eigs=top)
            oversamples[c] = p
        except ToleranceUnreachableError as exc:
            oversamples[c] = None
            notes.append(f"rsvd at c={c}: {exc}")

    rsvd_ok = (None not in oversamples.values()
               and oversamples[0.01] > oversamples[0.1] > oversamples[0.5])
    it_vals = [iters[c] for c in grid]
    lbfgs_ok = (None not in it_vals
                and max(it_vals) < 3 * max(min(it_vals), 1))
    ok = rsvd_ok and lbfgs_ok
    assert report(12, ok, f"oversamples {oversamples} (strict increase as c drops: "
                          f"{rsvd_ok}), lbfgs iters {iters} (<3x spread: {lbfgs_ok}); "
                          f"G spectrum {spectra}"
                          + (f"; {'; '.join(notes)}" if notes else ""))
