"""A fit from data stores its Gram in float32, whatever its kernel, unless its
config asks for more (benchmark mode, tol < 1e-12). These tests hold the
float32 fits to float64 oracles that share no code with the package: the
Gram and query rows from scipy's cdist, spectra from dense eigh."""

import numpy as np
import pytest
from scipy import sparse

from dckpca import (Dataset, KernelSpec, ObjectiveSpec, SingularMatrixError,
                    center_gram, fit, gram, lbfgs_solve, parse_objective, project,
                    save_model)
from dckpca import kernels
from dckpca.baselines import _dense
from dckpca.model import assemble_model
from dckpca.solvers import SolveConfig

import oracles

S = 10


def _samples(layout, rng, rows):
    """Square-dense-like gaussian rows, or robust-libsvm-like CSR rows (d=100
    at 10% density, uniform values)."""
    if layout == "dense":
        return rng.standard_normal((rows, 20))
    return np.where(rng.random((rows, 100)) < 0.1, rng.random((rows, 100)), 0.0)


def _case(layout, n=600, queries=200, seed=0):
    rng = np.random.default_rng(seed)
    X, Q = _samples(layout, rng, n), _samples(layout, rng, queries)
    spec = KernelSpec("gaussian", 2.0 if layout == "dense" else 4.0)
    if layout == "dense":
        return X, Q, Dataset(X), Q, spec
    return X, Q, Dataset(sparse.csr_matrix(X)), sparse.csr_matrix(Q), spec


@pytest.fixture
def gram_dtypes(monkeypatch):
    """The dtype of every Gram that ``fit`` builds."""
    seen = []
    build = kernels.gram

    def recorded(dataset, spec, dtype=np.float64):
        seen.append(np.dtype(dtype))
        return build(dataset, spec, dtype=dtype)

    monkeypatch.setattr(kernels, "gram", recorded)
    return seen


@pytest.mark.parametrize("layout", ["dense", "csr"])
def test_float32_fit_projects_like_the_float64_oracle(layout, gram_dtypes):
    # the model's spectrum comes from the exact product (float64 sums over
    # the float32 entries): 0.7-1.1e-9 from the oracle on these inputs,
    # where a float32 final product gives 0.9-2.1e-8
    X, Q, ds, queries, spec = _case(layout)
    model = fit(ds, spec, ObjectiveSpec("square"), S, SolveConfig(seed=0))
    assert gram_dtypes == [np.float32]
    Gc, Kc = oracles.centered_kernels(spec, X, Q)
    want = oracles.projection(Gc, Kc, model.H)
    got = project(model, queries)
    assert np.max(np.abs(got - want)) <= 2e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("layout", ["dense", "csr"])
def test_float32_fit_reaches_the_float64_eta(layout):
    # the same solve on the float64 Gram, from the same init and tol
    X, Q, ds, _, spec = _case(layout)
    cfg = SolveConfig(tol=1e-6, seed=0)
    model = fit(ds, spec, ObjectiveSpec("square"), S, cfg)
    H64, _ = lbfgs_solve(center_gram(gram(ds, spec)), S, cfg)
    Gc, _ = oracles.centered_kernels(spec, X, Q)
    assert oracles.square_eta(Gc, model.H, S) <= 1.1 * oracles.square_eta(Gc, H64, S)


@pytest.mark.parametrize("layout", ["dense", "csr"])
def test_float32_huber_fit_is_a_fixed_point_of_the_float64_dca_map(layout):
    # as the benchmark's huber_row2 check: feasible, H'GH above the floor,
    # and ||H - P(GH (H'GH)^(-1/2))|| / ||H|| within the solver's tol of
    # r^2 <= 1e-6, P the projection onto sum_i ||h_i|| <= kappa
    X, Q, ds, _, spec = _case(layout)
    model = fit(ds, spec, parse_objective("huber2:xmax:0.8"), S, SolveConfig(seed=0))
    kappa, H = model.objective.kappa, model.H
    Gc, _ = oracles.centered_kernels(spec, X, Q)
    GH = Gc @ H
    lam, V = np.linalg.eigh(H.T @ GH)
    assert lam[0] > 1e-12 * lam[-1]
    assert np.sum(np.linalg.norm(H, axis=1)) <= kappa * (1.0 + 1e-9)
    Y = GH @ ((V / np.sqrt(lam)) @ V.T)
    T = Y - oracles.prox_psi_independent("huber_row2", Y, kappa=kappa)
    assert np.linalg.norm(H - T) <= 1.1e-3 * np.linalg.norm(H)


@pytest.mark.parametrize("layout", ["dense", "csr"])
@pytest.mark.parametrize("cfg", [SolveConfig(tol=1e-10, seed=3, benchmark_eigs="top"),
                                 SolveConfig(tol=1e-13, seed=3)],
                         ids=["benchmark-mode", "tol-1e-13"])
def test_fits_that_ask_for_float64_solve_the_float64_gram(layout, cfg, gram_dtypes,
                                                         tmp_path):
    # the saved model is the one the float64 Gram gives, byte for byte
    _, _, ds, _, spec = _case(layout, n=300)
    Gc = center_gram(gram(ds, spec))
    if cfg.benchmark_eigs is not None:
        w = np.linalg.eigvalsh(_dense(Gc))
        cfg = SolveConfig(tol=cfg.tol, seed=cfg.seed, benchmark_eigs=w[::-1][:S])
    gram_dtypes.clear()
    fitted = fit(ds, spec, ObjectiveSpec("square"), S, cfg)
    assert gram_dtypes == [np.float64]
    H, report = lbfgs_solve(Gc, S, cfg)
    direct = assemble_model(Gc, spec, ObjectiveSpec("square"), S, H, ds, report=report)
    save_model(fitted, tmp_path / "fit.dk")
    save_model(direct, tmp_path / "direct.dk")
    assert (tmp_path / "fit.dk").read_bytes() == (tmp_path / "direct.dk").read_bytes()


def test_linear_kernel_fits_store_a_float32_gram(gram_dtypes):
    # as every other kernel; s above the rank d = 20 is still named, since
    # the floor check counts eigenvalues within the products' rounding
    _, _, ds, _, _ = _case("dense", n=100)
    fit(ds, KernelSpec("linear"), ObjectiveSpec("square"), 3, SolveConfig(seed=0))
    with pytest.raises(SingularMatrixError, match="s=21 likely exceeds the numerical rank"):
        fit(ds, KernelSpec("linear"), ObjectiveSpec("square"), 21, SolveConfig(seed=0))
    assert gram_dtypes == [np.float32, np.float32]
