import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dckpca import (CenteringStats, DataError, Dataset, KernelSpec, ObjectiveSpec,
                    UnprojectableModelError, attach_training_data, center_gram,
                    dca_solve, fit, gen_synth_gaussian, gram, kpca_dense_eig,
                    lbfgs_solve, load_model, project, reconstruction_error,
                    recover_primal_coefficients, save_model, sparsity_metrics)
from dckpca.baselines import _dense
from dckpca.dual_core import SpectralDecomp
from dckpca.model import KpcaModel, _gram_dtype, assemble_model
from dckpca.objectives import kappa_max
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
    top = dense_top_eigs(_dense(Gc), 3)
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


def test_a_precomputed_model_refuses_new_points_in_the_kernel(small_fit):
    # training data attached, so the refusal is the kernel evaluation's own
    from dckpca import KpcaError
    ds, spec, _ = small_fit
    m = fit(ds, KernelSpec("precomputed"), ObjectiveSpec("square"), 2,
            gram_matrix=gram(ds, spec))
    for call in (project, reconstruction_error):
        with pytest.raises(KpcaError, match="precomputed kernels cannot evaluate"):
            call(m, ds.values if call is project else ds)


def test_primal_coefficients_feasibility(small_fit):
    ds, spec, m = small_fit
    Gc = center_gram(gram(ds, spec))
    A = recover_primal_coefficients(m)
    assert np.linalg.norm(A.T @ _dense(Gc) @ A - np.eye(3)) <= 1e-8


def test_training_projections_equal_gram_times_coefficients(small_fit):
    ds, spec, m = small_fit
    Gc = center_gram(gram(ds, spec))
    P = project(m, ds.values)
    GA = _dense(Gc) @ recover_primal_coefficients(m)
    assert np.max(np.abs(P - GA)) <= 1e-10


def test_captured_variance_identity(small_fit):
    ds, spec, m = small_fit
    Gc = center_gram(gram(ds, spec))
    top = dense_top_eigs(_dense(Gc), 3)
    P = project(m, ds.values)
    assert np.sum(P * P) == pytest.approx(top.sum(), rel=1e-6)


def test_projection_gram_matches_dense_eig(small_fit):
    ds, spec, m = small_fit
    Gc = center_gram(gram(ds, spec))
    _, h_svd = kpca_dense_eig(_dense(Gc), 3)
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


# every finite float, subnormals and signed zeros included, whose products in
# the model's coefficients A stay finite
FINITE = st.floats(-1e50, 1e50)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_save_load_round_trips_every_array_bit_for_bit(tmp_path_factory, data):
    n = data.draw(st.integers(1, 6))
    s = data.draw(st.integers(1, min(n, 3)))
    lam = data.draw(hnp.arrays(np.float64, s, elements=st.floats(1e-3, 1e3)))
    m = KpcaModel(
        kernel_spec=KernelSpec("gaussian", data.draw(st.floats(0.01, 100.0))),
        objective=data.draw(st.sampled_from([
            ObjectiveSpec("square"), ObjectiveSpec("huber_row2", kappa=0.7),
            ObjectiveSpec("eps_linf", eps=0.3)])),
        s=s, H=data.draw(hnp.arrays(np.float64, (n, s), elements=FINITE)),
        decomp=SpectralDecomp(data.draw(hnp.arrays(np.float64, (s, s), elements=FINITE)),
                              -np.sort(-lam)),
        stats=CenteringStats(data.draw(hnp.arrays(np.float64, n, elements=FINITE)),
                             data.draw(FINITE)),
        fingerprint="0" * 64)
    path = tmp_path_factory.mktemp("round_trip") / "model.dk"
    save_model(m, path)
    loaded = load_model(path)
    for got, want in ((loaded.H, m.H), (loaded.decomp.lam, m.decomp.lam),
                      (loaded.decomp.U, m.decomp.U),
                      (loaded.stats.col_means, m.stats.col_means),
                      (loaded.stats.grand_mean, m.stats.grand_mean)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert loaded.kernel_spec == m.kernel_spec and loaded.objective == m.objective


def test_save_model_payload_is_each_value_repr(tmp_path):
    # the payload is H's rows of per-value repr(float(v)), whatever the values
    H = np.array([[5e-324, -0.0, 0.1 + 0.2],
                  [2.2250738585072009e-308, 1.2345678901234567e-5, -1.7976931348623157e308],
                  [0.0, -4.9406564584124654e-324, 123456789.01234567]])
    m = KpcaModel(kernel_spec=KernelSpec("gaussian", 1.0), objective=ObjectiveSpec("square"),
                  s=3, H=H, decomp=SpectralDecomp(np.eye(3), np.array([3.0, 2.0, 1.0])),
                  stats=CenteringStats(np.zeros(3), 0.0), fingerprint="0" * 64)
    path = tmp_path / "model.dk"
    save_model(m, path)
    payload = path.read_text().split("\n", 1)[1]
    assert payload == "".join(",".join(repr(float(v)) for v in row) + "\n" for row in H)


@pytest.mark.parametrize("kind", ["eps_row2", "eps_linf"])
def test_eps_zero_fit_is_dca_on_the_square_loss(small_fit, kind):
    # the square loss is the eps-insensitive loss at eps = 0: such a fit runs
    # DCA on it and returns the H that dca_solve gives on the square loss
    ds, spec, _ = small_fit
    cfg = SolveConfig(seed=2)
    m = fit(ds, spec, ObjectiveSpec(kind, eps=0.0), 3, cfg)
    Gc = center_gram(gram(ds, spec, dtype=_gram_dtype(cfg)))
    H, _ = dca_solve(Gc, 3, ObjectiveSpec("square"), cfg)
    assert m.H.tobytes() == H.tobytes()


def test_attach_training_data_fingerprint_mismatch(tmp_path, small_fit):
    ds, spec, m = small_fit
    other = gen_synth_gaussian(80, 5, 99)
    with pytest.raises(DataError, match="fingerprint"):
        attach_training_data(m, other)


@pytest.mark.parametrize("bandwidth", ["auto", 1.5])
def test_fit_with_a_dataset_and_a_gram_projects_and_reattaches(tmp_path, bandwidth):
    # the model takes the dataset's bandwidth and fingerprint, not the Gram's
    ds = gen_synth_gaussian(40, 3, 4)
    spec = KernelSpec("gaussian", bandwidth)
    resolved = spec.resolve(ds)
    m = fit(ds, spec, ObjectiveSpec("square"), 2,
            gram_matrix=gram(ds, resolved))
    assert m.kernel_spec == resolved
    save_model(m, tmp_path / "m.dk")
    again = attach_training_data(load_model(tmp_path / "m.dk"), ds)
    assert np.array_equal(project(again, ds.values[:3]), project(m, ds.values[:3]))


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


@pytest.mark.parametrize("header, payload, match", [
    ("not json", None, "line 1"),
    ("[1, 2]", None, "line 1"),
    (None, lambda rows: rows[:2] + ["x" + rows[2]] + rows[3:], "line 4: non-numeric"),
    (None, lambda rows: rows[:3] + [rows[3] + ",0.5"] + rows[4:], "line 5: ragged"),
], ids=["header-not-json", "header-not-object", "payload-non-numeric",
        "payload-ragged"])
def test_load_model_malformed_is_data_error(tmp_path, small_fit, header, payload,
                                            match):
    _, _, m = small_fit
    good = tmp_path / "good.dk"
    save_model(m, good)
    p = tmp_path / "bad.dk"
    _rewrite_model(good, p, payload_edit=payload)
    if header is not None:
        p.write_text("\n".join([header] + p.read_text().splitlines()[1:]) + "\n")
    with pytest.raises(DataError, match=match):
        load_model(p)


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


@pytest.mark.parametrize("field, value, match", [
    ("n", "abc", "'n' is not an integer"),
    ("s", 2.5, "'s' is not an integer"),
    ("lam", "x", "'lam' is not numeric"),
    ("grand_mean", "x", "'grand_mean' is not numeric"),
    ("col_means", [[1.0], [1.0, 2.0]], "'col_means' is not numeric"),
    ("kernel", [1], "'kernel' is not an object"),
    ("kernel", {"family": "gaussian"}, "'kernel' lacks 'family' or 'sigma'"),
    ("kernel", {"sigma": 1.8}, "'kernel' lacks 'family' or 'sigma'"),
    ("kernel", {"family": "nope", "sigma": None}, "'kernel': unknown kernel family"),
    ("kernel", {"family": "gaussian", "sigma": -1}, "'kernel': bandwidth must be"),
    ("kernel", {"family": "gaussian", "sigma": "auto"}, "'kernel' has a non-numeric"),
    ("objective", "bogus", "'objective': unknown objective"),
    ("objective", 3, "'objective' is not a string"),
    ("fingerprint", None, "'fingerprint' is not a string"),
], ids=["n-string", "s-fraction", "lam-string", "grand-mean-string", "ragged",
        "kernel-list", "kernel-no-sigma", "kernel-no-family", "unknown-family",
        "negative-sigma", "auto-sigma", "unknown-objective", "objective-number",
        "fingerprint-null"])
def test_load_model_malformed_header_field_is_data_error_naming_it(
        tmp_path, small_fit, field, value, match):
    _, _, m = small_fit
    good = tmp_path / "good.dk"
    save_model(m, good)
    p = tmp_path / "bad.dk"
    _rewrite_model(good, p, header_edit=lambda h: h.__setitem__(field, value))
    with pytest.raises(DataError, match=f"model header field {match}"):
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
    # each report names the tol it stopped against: the fit's own, and
    # 0.1 sqrt(tol) for the xmax pre-solve
    ds = gen_synth_gaussian(60, 4, 5)
    spec = KernelSpec("gaussian", 1.2)
    for tol in (1e-6, 1e-8):
        m = fit(ds, spec, ObjectiveSpec("huber_row2", kappa_frac=0.8), 2,
                SolveConfig(tol=tol, seed=1))
        out = m.report.to_dict()
        assert out["spec_version"] == out["presolve"]["spec_version"] == "dckpca/3"
        assert out["presolve"]["termination"] == "tolerance"
        assert out["tol"] == tol and out["presolve"]["tol"] == 0.1 * tol ** 0.5
        sq = fit(ds, spec, ObjectiveSpec("square"), 2, SolveConfig(tol=tol, seed=1))
        assert sq.report.tol == tol
        assert sq.report.presolve is None and "presolve" not in sq.report.to_dict()


def _robust_libsvm_like(n, seed):
    """CSR samples as in the robust-libsvm benchmark: d=100, 10% density,
    uniform values."""
    from scipy import sparse
    rng = np.random.default_rng(seed)
    mask = rng.random((n, 100)) < 0.1
    return Dataset(sparse.csr_matrix(np.where(mask, rng.random((n, 100)), 0.0)), None)


@pytest.mark.parametrize("kind", ["huber_row2", "huber_l1"])
@pytest.mark.parametrize("seed", range(4))
def test_xmax_kappa_is_within_sqrt_tol_of_the_exact_gauge(kind, seed):
    # the pre-solve stops at 0.1 sqrt(tol), not at tol: kappa_max then moves
    # by at most 3.3e-4 relative on these inputs (1e-4 pre-solve tol), well
    # inside sqrt(tol), the accuracy of the DCA solve it feeds; a pre-solve
    # at 1e-2 moved it by 3.6e-3 to 3.7e-2
    ds, spec = _robust_libsvm_like(600, seed), KernelSpec("gaussian", 4.0)
    cfg = SolveConfig(seed=0)
    m = fit(ds, spec, ObjectiveSpec(kind, kappa_frac=0.8), 20, cfg)
    Gc = center_gram(gram(ds, spec, dtype=_gram_dtype(cfg)))
    H_exact, _ = lbfgs_solve(Gc, 20, SolveConfig(tol=1e-12, seed=0))
    assert m.kappa_max_value == pytest.approx(kappa_max(kind, H_exact),
                                              rel=cfg.tol ** 0.5)
    assert m.report.presolve.tol == 0.1 * cfg.tol ** 0.5
    assert m.objective.kappa == 0.8 * m.kappa_max_value


def _reference_projection(m, Q):
    """Projections recomputed from scratch on every call: the training rows'
    norms, the transposed product and A = H U' diag(lam)^(-1/2) U, with the
    package's floating-point operations in its order, on the query in the
    layout of the training samples."""
    from scipy import sparse
    Y = m.train_data.values
    X = np.atleast_2d(Q) if not sparse.issparse(Q) else Q.tocsr()
    if sparse.issparse(Y) and not sparse.issparse(X):
        X = sparse.csr_matrix(X)
    elif sparse.issparse(X) and not sparse.issparse(Y):
        X = X.toarray()

    def norms(M):
        if sparse.issparse(M):
            return np.asarray(M.multiply(M).sum(axis=1)).ravel()
        return np.einsum("ij,ij->i", M, M)

    inner = X @ Y.T
    K = inner.toarray() if sparse.issparse(inner) else np.asarray(inner)
    spec = m.kernel_spec
    if spec.family != "linear":
        d2 = np.maximum(norms(X)[:, None] + norms(Y)[None, :] - 2.0 * K, 0.0)
        arg = d2 if spec.family == "gaussian" else np.sqrt(d2)
        K = np.exp(-arg / (2.0 * spec.sigma ** 2))
    Kc = K - K.mean(axis=1)[:, None] - m.stats.col_means + m.stats.grand_mean
    return Kc @ (m.H @ m.decomp.inv_sqrt())


@pytest.mark.parametrize("layout", ["dense", "csr"])
def test_projections_equal_a_reference_that_recomputes_per_call(layout):
    from scipy import sparse
    rng = np.random.default_rng(8)
    X, Q = rng.standard_normal((70, 6)), rng.standard_normal((9, 6))
    X[rng.random(X.shape) < 0.4] = 0.0
    Q[rng.random(Q.shape) < 0.4] = 0.0
    ds = Dataset(sparse.csr_matrix(X) if layout == "csr" else X)
    for spec in (KernelSpec("linear"), KernelSpec("gaussian", 1.6),
                 KernelSpec("laplace", 0.8)):
        m = fit(ds, spec, ObjectiveSpec("square"), 3, SolveConfig(seed=4))
        for query in (Q, sparse.csr_matrix(Q)):  # one of them is cross-format
            for rows in (query, query[2:3]):  # a batch and a single row
                assert np.array_equal(project(m, rows), _reference_projection(m, rows))
        assert np.array_equal(project(m, Q[4]), _reference_projection(m, Q[4])[0])
        # the training set itself, whose norms the Dataset holds, and n other rows
        for rows in (ds.values, ds.values[::-1]):
            assert np.array_equal(project(m, rows), _reference_projection(m, rows))


def test_primal_coefficients_are_computed_once_and_read_only(tmp_path, small_fit):
    ds, _, m = small_fit
    A = recover_primal_coefficients(m)
    assert recover_primal_coefficients(m) is A
    assert not A.flags.writeable
    with pytest.raises(ValueError):
        A[0, 0] = 1.0
    path = tmp_path / "model.dk"
    save_model(m, path)
    attached = attach_training_data(load_model(path), ds)
    assert np.array_equal(recover_primal_coefficients(attached), A)
    assert not recover_primal_coefficients(attached).flags.writeable


def test_centering_stats_are_read_only(tmp_path, small_fit):
    _, _, m = small_fit
    path = tmp_path / "model.dk"
    save_model(m, path)
    for stats in (m.stats, load_model(path).stats):
        with pytest.raises(ValueError):
            stats.col_means[0] = 1.0


def test_threads_projecting_from_one_model_match_serial(small_fit):
    # more workers than cores, switching often: the model and its Dataset are
    # shared and only read
    import sys
    from concurrent.futures import ThreadPoolExecutor
    ds, _, m = small_fit
    rng = np.random.default_rng(3)
    queries = [rng.standard_normal((k, ds.d)) for k in (1, 40, 7, 120, 3, 60)] * 4
    queries.append(ds.values)
    serial = [project(m, q) for q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda q: project(m, q), queries, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


@pytest.mark.parametrize("edit", ["negative", "zero", "below_floor", "increasing"])
def test_load_model_rejects_a_spectrum_that_cannot_project(tmp_path, small_fit, edit):
    _, _, m = small_fit
    good = tmp_path / "good.dk"
    save_model(m, good)
    p = tmp_path / "bad.dk"

    def spoil(header):
        lam = header["lam"]
        if edit == "negative":
            lam[-1] = -1.0
        elif edit == "zero":
            lam[-1] = 0.0
        elif edit == "below_floor":
            lam[-1] = 1e-13 * lam[0]
        else:
            lam[0], lam[1] = lam[1], lam[0]
    _rewrite_model(good, p, header_edit=spoil)
    with pytest.raises(DataError, match="model header field 'lam'"):
        load_model(p)


def test_reconstruction_error_evaluates_the_cross_kernel_once(monkeypatch, small_fit):
    from dckpca import kernels
    ds, _, m = small_fit
    calls = []
    cross = kernels.kernel_cross

    def counted(*args, **kwargs):
        calls.append(1)
        return cross(*args, **kwargs)

    monkeypatch.setattr(kernels, "kernel_cross", counted)
    test = gen_synth_gaussian(30, ds.d, 12)
    for data in (ds, test):
        calls.clear()
        reconstruction_error(m, data)
        assert len(calls) == 1
