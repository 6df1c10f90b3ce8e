"""The benchmark's output checks accept correct answers and reject perturbed
ones; the tracer restores what it wraps and attributes self time."""

import time

import numpy as np
import pytest

import dckpca
from dckpca import model as model_mod
from perfbench import checks
from perfbench.tracer import Tracer, self_times

SIGMA = 1.5


@pytest.fixture(scope="module")
def problem():
    X = np.random.default_rng(3).standard_normal((150, 4))
    Gc, col_means, grand = checks.centered_gram(X, SIGMA)
    return X, Gc, col_means, grand


def _top_pairs(Gc, s):
    w, V = np.linalg.eigh(Gc)
    order = np.argsort(-w)[:s]
    return w[order], V[:, order]


def test_square_fit_accepts_optimum_and_rejects_perturbation(problem):
    _, Gc, _, _ = problem
    top, V = _top_pairs(Gc, 5)
    H = V * np.sqrt(top)
    assert checks.square_fit(Gc, top, H)["ok"]
    noisy = H + 1e-2 * np.random.default_rng(0).standard_normal(H.shape)
    assert not checks.square_fit(Gc, top, noisy)["ok"]
    assert not checks.square_fit(Gc, top, 1.05 * H)["ok"]
    # the next eigenvector in place of the s-th: a critical point, not the optimum
    w, V6 = _top_pairs(Gc, 6)
    swapped = V6[:, [0, 1, 2, 3, 5]] * np.sqrt(w[[0, 1, 2, 3, 5]])
    assert (w[4] - w[5]) / top.sum() > checks.ETA_MAX
    assert not checks.square_fit(Gc, top, swapped)["ok"]


def test_top_eigenvalues_match_dense_spectrum(problem):
    _, Gc, _, _ = problem
    dense = np.sort(np.linalg.eigvalsh(Gc))[::-1][:8]
    np.testing.assert_allclose(checks.top_eigenvalues(Gc, 8), dense, rtol=1e-12)


def _dca_fixed_point(Gc, s, kappa, iters=400):
    H = np.random.default_rng(1).standard_normal((Gc.shape[0], s))
    for _ in range(iters):
        GH = Gc @ H
        W, _ = checks._inv_sqrt(H.T @ GH)
        H = checks._project_row_norms(GH @ W, kappa)
    return H


def test_huber_row2_fit_accepts_fixed_point_and_rejects_perturbations(problem):
    _, Gc, _, _ = problem
    top, V = _top_pairs(Gc, 3)
    kappa = 0.8 * float(np.linalg.norm(V * np.sqrt(top), axis=1).sum())
    H = _dca_fixed_point(Gc, 3, kappa)
    result = checks.huber_row2_fit(Gc, H, kappa)
    assert result["ok"], result

    assert not checks.huber_row2_fit(Gc, 1.001 * H, kappa)["ok"]       # infeasible
    singular = H.copy()
    singular[:, -1] = 0.0
    assert not checks.huber_row2_fit(Gc, singular, kappa)["ok"]        # H'GH singular
    moved = checks._project_row_norms(
        H + 0.05 * np.random.default_rng(2).standard_normal(H.shape), kappa)
    assert not checks.huber_row2_fit(Gc, moved, kappa)["ok"]           # not a fixed point


def test_reference_projection_matches_model_and_rejects_perturbation(problem, tmp_path):
    X, Gc, col_means, grand = problem
    dataset = dckpca.Dataset(X)
    fitted = model_mod.fit(dataset, dckpca.KernelSpec("gaussian", SIGMA),
                           dckpca.ObjectiveSpec("square"), 3)
    model_mod.save_model(fitted, tmp_path / "m.dk")
    header, H = checks.read_model(tmp_path / "m.dk")
    assert header["s"] == 3
    Q = np.random.default_rng(4).standard_normal((20, 4))
    P_ref = checks.reference_projection(X, SIGMA, col_means, grand, Gc, H, Q)
    P = model_mod.project(fitted, Q)
    assert checks.projection(P, P_ref)["ok"]
    assert checks.projection(P[0], P_ref[0:1])["ok"]
    P_bad = P.copy()
    P_bad[7, 1] += 1e-6 * np.max(np.abs(P_ref))
    assert not checks.projection(P_bad, P_ref)["ok"]


def test_tracer_restores_wrapped_functions_and_computes_self_time():
    original = model_mod.project
    tracer = Tracer()
    with tracer.installed():
        assert model_mod.project is not original
    assert model_mod.project is original

    with tracer.span("model.outer"):
        time.sleep(0.02)
        with tracer.span("kernels.inner"):
            time.sleep(0.03)
    spans = tracer.by_op()[1]
    own = self_times(spans)
    outer, inner = spans
    assert inner.parent == outer.index
    assert own["kernels"] == pytest.approx(inner.duration)
    assert own["model"] == pytest.approx(outer.duration - inner.duration)
    assert own["model"] + own["kernels"] == pytest.approx(outer.duration)
