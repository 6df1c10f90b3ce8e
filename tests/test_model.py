import numpy as np
import pytest

from dckpca import (DataError, KernelSpec, ObjectiveSpec, UnprojectableModelError,
                    attach_training_data, center_gram, fit, gen_synth_gaussian,
                    gram, kpca_dense_eig, load_model, project,
                    reconstruction_error, recover_primal_coefficients,
                    save_model, sparsity_metrics)
from dckpca.model import assemble_model
from dckpca.solvers import SolveConfig

from oracles import dense_top_eigs


@pytest.fixture(scope="module")
def small_fit():
    ds = gen_synth_gaussian(80, 5, 1)
    spec = KernelSpec("gaussian", 1.8)
    m = fit(ds, spec, ObjectiveSpec("square"), 3, SolveConfig(tol=1e-10, seed=2))
    return ds, spec, m


def test_fit_square_matches_dense_eig_cost(small_fit):
    ds, spec, m = small_fit
    Gc = center_gram(gram(ds, spec))
    top = dense_top_eigs(Gc.entries, 3)
    assert m.report.cost_trace[-1] == pytest.approx(-0.5 * top.sum(), rel=1e-6)


def test_fit_deterministic(small_fit):
    ds, spec, m = small_fit
    again = fit(ds, spec, ObjectiveSpec("square"), 3, SolveConfig(tol=1e-10, seed=2))
    assert np.array_equal(m.H, again.H)
    assert np.array_equal(m.decomp.lam, again.decomp.lam)


def test_primal_coefficients_toy():
    # hand-checkable rank-1 case: H = (2,0)', G = diag(4,1)
    from dckpca.kernels import GramMatrix
    G = GramMatrix(np.diag([4.0, 1.0]), centered=True)
    spec = KernelSpec("precomputed")
    m = assemble_model(G, spec, ObjectiveSpec("square"), 1,
                       np.array([[2.0], [0.0]]), None)
    A = recover_primal_coefficients(m)
    assert np.allclose(A, [[0.5], [0.0]], atol=1e-12)
    assert (A.T @ G.entries @ A).item() == pytest.approx(1.0)
    # projection formula: centered row of training point 1 is (4, 0)
    assert (np.array([4.0, 0.0]) @ A).item() == pytest.approx(2.0)


def test_primal_coefficients_feasibility(small_fit):
    ds, spec, m = small_fit
    Gc = center_gram(gram(ds, spec))
    A = recover_primal_coefficients(m)
    assert np.linalg.norm(A.T @ Gc.entries @ A - np.eye(3)) <= 1e-8


def test_training_projections_equal_gram_times_coefficients(small_fit):
    ds, spec, m = small_fit
    Gc = center_gram(gram(ds, spec))
    P = project(m, ds.values)
    GA = Gc.entries @ recover_primal_coefficients(m)
    assert np.max(np.abs(P - GA)) <= 1e-10


def test_captured_variance_identity(small_fit):
    ds, spec, m = small_fit
    Gc = center_gram(gram(ds, spec))
    top = dense_top_eigs(Gc.entries, 3)
    P = project(m, ds.values)
    assert np.sum(P * P) == pytest.approx(top.sum(), rel=1e-6)


def test_projection_gram_matches_dense_eig(small_fit):
    ds, spec, m = small_fit
    Gc = center_gram(gram(ds, spec))
    _, h_svd = kpca_dense_eig(Gc.entries, 3)
    m2 = assemble_model(Gc, spec, ObjectiveSpec("square"), 3, h_svd, ds)
    P1, P2 = project(m, ds.values), project(m2, ds.values)
    g1, g2 = P1 @ P1.T, P2 @ P2.T
    assert np.linalg.norm(g1 - g2) <= 1e-4 * np.linalg.norm(g2)


def test_project_single_point_and_dimension_check(small_fit):
    ds, spec, m = small_fit
    single = project(m, ds.values[0])
    batch = project(m, ds.values[:1])
    assert single.shape == (3,)
    assert np.allclose(single, batch[0])
    with pytest.raises(DataError):
        project(m, np.ones(7))


def test_reconstruction_error_full_rank_is_zero():
    ds = gen_synth_gaussian(12, 3, 4)
    spec = KernelSpec("gaussian", 1.2)
    m = fit(ds, spec, ObjectiveSpec("square"), 11, SolveConfig(tol=1e-12, seed=0))
    assert reconstruction_error(m, ds) <= 1e-8


def test_reconstruction_error_non_increasing_in_s():
    ds = gen_synth_gaussian(60, 5, 5)
    spec = KernelSpec("gaussian", 1.5)
    errs = []
    for s in range(1, 6):
        m = fit(ds, spec, ObjectiveSpec("square"), s, SolveConfig(tol=1e-10, seed=3))
        errs.append(reconstruction_error(m, ds))
    assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(4))


def test_sparsity_metrics_cases():
    out = sparsity_metrics(np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert out == {"zero_rows_pct": 50.0, "zero_entries_pct": 50.0}
    out = sparsity_metrics(np.zeros((3, 2)))
    assert out == {"zero_rows_pct": 100.0, "zero_entries_pct": 100.0}


def test_sparsity_square_vs_block_thresholded():
    ds = gen_synth_gaussian(100, 6, 6)
    spec = KernelSpec("gaussian", 2.0)
    m_sq = fit(ds, spec, ObjectiveSpec("square"), 3, SolveConfig(seed=1))
    assert sparsity_metrics(m_sq.H)["zero_rows_pct"] == 0.0
    m_eps = fit(ds, spec, ObjectiveSpec("eps_row2", eps=0.25), 3, SolveConfig(seed=1))
    assert sparsity_metrics(m_eps.H)["zero_rows_pct"] > 0.0


def test_huber_xmax_resolution_records_kappa(small_fit):
    ds, spec, _ = small_fit
    from dckpca import parse_objective
    m = fit(ds, spec, parse_objective("huber1:xmax:0.6"), 3, SolveConfig(seed=2))
    assert m.kappa_max_value is not None
    assert m.objective.kappa == pytest.approx(0.6 * m.kappa_max_value)
    assert np.max(np.abs(m.H)) <= m.objective.kappa * (1 + 1e-12)


def test_unprojectable_model_error():
    ds = gen_synth_gaussian(40, 4, 7)
    spec = KernelSpec("gaussian", 1.5)
    Gc = center_gram(gram(ds, spec))
    H = np.zeros((40, 2))
    H[0, 0] = 1.0  # rank-deficient H'GH
    with pytest.raises(UnprojectableModelError):
        assemble_model(Gc, spec, ObjectiveSpec("square"), 2, H, ds)


def test_fit_with_collapsing_eps_raises_singularity():
    from dckpca import SingularMatrixError
    ds = gen_synth_gaussian(40, 4, 7)
    spec = KernelSpec("gaussian", 1.5)
    # absurd eps zeroes every row; the DCA floor check fails loudly
    with pytest.raises(SingularMatrixError):
        fit(ds, spec, ObjectiveSpec("eps_row2", eps=100.0), 2, SolveConfig(seed=0))


def test_save_load_round_trip(tmp_path, small_fit):
    ds, spec, m = small_fit
    path = tmp_path / "model.dk"
    save_model(m, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.H, m.H)
    assert np.array_equal(loaded.decomp.lam, m.decomp.lam)
    assert np.array_equal(loaded.decomp.U, m.decomp.U)
    assert loaded.kernel_spec == m.kernel_spec
    assert loaded.fingerprint == m.fingerprint
    assert loaded.train_data is None
    restored = attach_training_data(loaded, ds)
    assert np.allclose(project(restored, ds.values), project(m, ds.values), atol=1e-12)


def test_attach_training_data_fingerprint_mismatch(tmp_path, small_fit):
    ds, spec, m = small_fit
    other = gen_synth_gaussian(80, 5, 99)
    with pytest.raises(DataError, match="fingerprint"):
        attach_training_data(m, other)


def test_load_model_rejects_unknown_format(tmp_path):
    p = tmp_path / "bad.dk"
    p.write_text('{"format": "other/9"}\n')
    with pytest.raises(DataError, match="format"):
        load_model(p)


def _rewrite_model(src, dst, header_edit=None, payload_edit=None):
    import json
    lines = src.read_text().splitlines()
    header = json.loads(lines[0])
    if header_edit:
        header_edit(header)
    rows = lines[1:]
    if payload_edit:
        rows = payload_edit(rows)
    dst.write_text("\n".join([json.dumps(header)] + rows) + "\n")


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_load_model_non_finite_is_data_error(tmp_path, small_fit, bad):
    _, _, m = small_fit
    good = tmp_path / "good.dk"
    save_model(m, good)
    p = tmp_path / "bad.dk"

    def poison_row(rows):
        rows[4] = ",".join([bad] + rows[4].split(",")[1:])
        return rows
    _rewrite_model(good, p, payload_edit=poison_row)
    with pytest.raises(DataError, match="line 6: non-finite entry in H"):
        load_model(p)
    for field in ("lam", "U", "col_means"):
        _rewrite_model(good, p, header_edit=lambda h: h[field].__setitem__(0, float(bad)))
        with pytest.raises(DataError, match=f"'{field}' is not finite"):
            load_model(p)
    _rewrite_model(good, p, header_edit=lambda h: h.__setitem__("grand_mean", float(bad)))
    with pytest.raises(DataError, match="'grand_mean' is not finite"):
        load_model(p)


def test_load_model_checks_header_fields_and_shapes(tmp_path, small_fit):
    _, _, m = small_fit
    good = tmp_path / "good.dk"
    save_model(m, good)
    p = tmp_path / "bad.dk"
    for field in ("lam", "U", "col_means"):
        _rewrite_model(good, p, header_edit=lambda h: h[field].pop())
        with pytest.raises(DataError, match=f"'{field}' has shape"):
            load_model(p)
    _rewrite_model(good, p, header_edit=lambda h: h.pop("lam"))
    with pytest.raises(DataError, match="lacks field.*lam"):
        load_model(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_project_non_finite_query_is_data_error(small_fit, bad):
    from scipy import sparse
    ds, _, m = small_fit
    Q = np.array(ds.values[:3])
    Q[1, 2] = bad
    for query in (Q, Q[1], sparse.csr_matrix(Q)):
        with pytest.raises(DataError, match="non-finite"):
            project(m, query)


def test_fit_keeps_the_presolve_report():
    ds = gen_synth_gaussian(60, 4, 5)
    spec = KernelSpec("gaussian", 1.2)
    m = fit(ds, spec, ObjectiveSpec("huber_row2", kappa_frac=0.8), 2, SolveConfig(seed=1))
    assert m.report.presolve is not None
    assert m.report.to_dict()["presolve"]["termination"] == "tolerance"
    sq = fit(ds, spec, ObjectiveSpec("square"), 2, SolveConfig(seed=1))
    assert sq.report.presolve is None and "presolve" not in sq.report.to_dict()


def test_fit_solver_is_auto_or_dca(small_fit):
    from dckpca import KpcaError
    ds, spec, _ = small_fit
    with pytest.raises(KpcaError, match="unknown solver"):
        fit(ds, spec, ObjectiveSpec("square"), 2, solver="lbfgs")
