import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from dckpca import (DataError, Dataset, KernelSpec, KpcaError, center_gram,
                    gen_controlled_spectrum_gram, gen_synth_gaussian, gram,
                    load_gram_csv, sigma_rule)
from dckpca.baselines import _dense
from dckpca.data_io import row_sq_norms
from dckpca.kernels import (BLOCK, GramMatrix, gram_product, kernel_cross, kernel_rows,
                            kernel_rows_with_self, product_rounding)

import oracles
from oracles import kernel_row


def kernel_eval(spec, x, y):
    """k(x, y) as the package computes it: kernel_cross of the query x
    against a one-point training set {y}."""
    return float(kernel_cross(spec, Dataset(np.atleast_2d(np.asarray(y, dtype=float))),
                              x)[0, 0])


def test_kernel_eval_self_similarity():
    x = np.array([1.0, -2.0, 0.5])
    assert kernel_eval(KernelSpec("gaussian", 1.5), x, x) == 1.0
    assert kernel_eval(KernelSpec("laplace", 0.7), x, x) == 1.0


def test_kernel_eval_laplace_unit_exponent():
    sigma = 1.3
    x = np.zeros(2)
    y = np.array([2 * sigma ** 2, 0.0])
    assert kernel_eval(KernelSpec("laplace", sigma), x, y) == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_kernel_eval_gaussian_formula():
    sigma = 2.0
    x, y = np.array([1.0, 1.0]), np.array([3.0, 0.0])
    expected = np.exp(-5.0 / (2 * sigma ** 2))
    assert kernel_eval(KernelSpec("gaussian", sigma), x, y) == pytest.approx(expected, rel=1e-15)


def test_kernel_eval_linear():
    assert kernel_eval(KernelSpec("linear"), [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_kernel_eval_dimension_mismatch():
    with pytest.raises(DataError):
        kernel_eval(KernelSpec("linear"), [1.0, 2.0], [1.0, 2.0, 3.0])


def test_kernel_spec_validation():
    with pytest.raises(KpcaError):
        KernelSpec("gaussian")  # missing bandwidth
    with pytest.raises(KpcaError):
        KernelSpec("gaussian", -1.0)
    with pytest.raises(KpcaError):
        KernelSpec("gaussian", float("inf"))
    with pytest.raises(KpcaError):
        KernelSpec("linear", 2.0)
    with pytest.raises(KpcaError):
        KernelSpec("unknown_family")


def test_sigma_rule_unit_variance():
    # two points per coordinate with sample variance exactly 1
    a = np.sqrt(2.0)
    ds = Dataset(np.array([[0.0] * 4, [a] * 4]))
    assert sigma_rule(ds) == pytest.approx(0.2, rel=1e-12)


def test_sigma_rule_zero_variance():
    ds = Dataset(np.ones((5, 3)))
    with pytest.raises(DataError):
        sigma_rule(ds)


def test_sigma_rule_scaling():
    ds = gen_synth_gaussian(40, 6, 3)
    scaled = Dataset(2.5 * ds.values)
    assert sigma_rule(scaled) == pytest.approx(2.5 * sigma_rule(ds), rel=1e-12)


def test_sigma_rule_sparse_matches_dense():
    from dckpca import parse_libsvm
    ds = gen_synth_gaussian(25, 5, 8)
    sparse_ds = parse_libsvm(oracles.serialize_libsvm(Dataset(ds.values, np.zeros(25))))
    assert sigma_rule(sparse_ds) == pytest.approx(sigma_rule(ds), rel=1e-12)


def test_gram_gaussian_unit_diagonal_and_exact_symmetry():
    ds = gen_synth_gaussian(30, 4, 0)
    gm = gram(ds, KernelSpec("gaussian", 1.0))
    assert np.all(np.diag(gm.entries) == 1.0)
    assert np.array_equal(gm.entries, gm.entries.T)


def test_gram_linear_toy():
    X = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    gm = gram(Dataset(X), KernelSpec("linear"))
    assert np.allclose(gm.entries, X @ X.T, atol=1e-12)


def test_gram_psd():
    ds = gen_synth_gaussian(30, 5, 1)
    gm = gram(ds, KernelSpec("gaussian", 1.2))
    w = np.linalg.eigvalsh(gm.entries)
    assert w.min() >= -1e-8 * np.trace(gm.entries)


def test_center_gram_identity_toy():
    gm_raw = gram(Dataset(np.array([[10.0], [-10.0]])), KernelSpec("gaussian", 1e-3))
    # the off-diagonal is exp(-huge) = 0, so the raw Gram is I2
    assert np.allclose(gm_raw.entries, np.eye(2))
    gm = center_gram(gm_raw)
    assert np.allclose(_dense(gm), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_center_gram_row_sums_vanish():
    ds = gen_synth_gaussian(40, 3, 2)
    gm = center_gram(gram(ds, KernelSpec("laplace", 0.8)))
    Gc = _dense(gm)
    scale = 1e-10 * gm.n * np.max(np.abs(Gc))
    assert np.max(np.abs(Gc.sum(axis=1))) <= scale
    assert gm.centered and gm.stats is not None


def test_center_gram_matches_feature_space_centering():
    # centering a linear-kernel Gram equals the Gram of mean-subtracted data
    X = np.array([[1.0, 2.0, 0.0],
                  [0.0, -1.0, 3.0],
                  [2.0, 2.0, 2.0],
                  [-1.0, 0.5, 1.0],
                  [0.5, 0.5, -2.0]])
    gm = center_gram(gram(Dataset(X), KernelSpec("linear")))
    Xc = X - X.mean(axis=0)
    assert np.allclose(_dense(gm), Xc @ Xc.T, atol=1e-12)


def test_center_gram_default_leaves_its_input_unchanged():
    gm = gram(gen_synth_gaussian(300, 3, 7), KernelSpec("gaussian", 1.5))
    before = gm.entries.copy()
    gc = center_gram(gm)
    assert np.array_equal(gm.entries, before)
    assert not gm.entries.flags.writeable
    # no copy: the centering is the result's rank-2 term, not its entries
    assert gc.entries is gm.entries


def test_center_gram_idempotent():
    ds = gen_synth_gaussian(35, 4, 5)
    g1 = center_gram(gram(ds, KernelSpec("gaussian", 1.5)))
    g2 = center_gram(g1)
    assert np.max(np.abs(_dense(g2) - _dense(g1))) < 1e-12 * np.max(np.abs(_dense(g1)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_center_gram_of_a_centered_gram_returns_it(dtype):
    # J is idempotent; the stats stay the training column means a model
    # centers its queries with, not the centered matrix's own (all ~0)
    ds, spec = gen_synth_gaussian(50, 3, 0), KernelSpec("gaussian", 1.0)
    once = center_gram(gram(ds, spec, dtype=dtype))
    assert center_gram(once) is once
    assert np.allclose(once.stats.col_means, gram(ds, spec).entries.mean(axis=0),
                       rtol=1e-12, atol=0)


def test_centered_gram_rank_deficiency():
    ds = gen_synth_gaussian(50, 4, 6)
    gm = center_gram(gram(ds, KernelSpec("gaussian", 1.0)))
    Gc = _dense(gm)
    w = np.linalg.eigvalsh(Gc)
    assert w.min() >= -1e-8 * np.trace(Gc)
    assert w.min() <= 1e-8 * np.trace(Gc)  # centering kills one direction


def test_kernel_row_reproduces_centered_columns():
    ds = gen_synth_gaussian(25, 3, 7)
    spec = KernelSpec("gaussian", 1.1)
    gm = center_gram(gram(ds, spec))
    for i in (0, 7, 24):
        row = kernel_rows(spec, ds, gm.stats, ds.values[i])[0]
        assert np.max(np.abs(row - _dense(gm)[:, i])) < 1e-12


def test_kernel_row_all_equal_training_data():
    ds = Dataset(np.ones((6, 2)))
    spec = KernelSpec("gaussian", 1.0)
    gm = center_gram(gram(ds, spec))
    row = kernel_rows(spec, ds, gm.stats, np.array([0.3, -0.2]))[0]
    assert np.max(np.abs(row)) < 1e-14


def test_kernel_row_against_linear_feature_space():
    # with the linear kernel the centered feature map is explicit
    ds = gen_synth_gaussian(20, 4, 9)
    spec = KernelSpec("linear")
    gm = center_gram(gram(ds, spec))
    x = np.array([0.3, -1.0, 2.0, 0.1])
    row = kernel_rows(spec, ds, gm.stats, x)[0]
    mu = ds.values.mean(axis=0)
    expected = (ds.values - mu) @ (x - mu)
    assert np.allclose(row, expected, atol=1e-12)


def test_kernel_row_probe_against_big_gram_arithmetic():
    # rebuild an (n+1)-point uncentered Gram and center by hand
    ds = gen_synth_gaussian(15, 3, 10)
    spec = KernelSpec("gaussian", 0.9)
    gm = center_gram(gram(ds, spec))
    x = np.array([0.25, 0.5, -0.75])
    big = gram(Dataset(np.vstack([ds.values, x])), spec).entries
    K, kx = big[:15, :15], big[:15, 15]
    expected = kx - kx.mean() - K.mean(axis=1) + K.mean()
    row = kernel_rows(spec, ds, gm.stats, x)[0]
    assert np.allclose(row, expected, atol=1e-12)


def test_centered_self_kernel_linear_oracle():
    ds = gen_synth_gaussian(18, 3, 11)
    spec = KernelSpec("linear")
    gm = center_gram(gram(ds, spec))
    X = np.array([[0.2, 0.4, -1.0], [1.5, 0.0, 0.5]])
    rows, vals = kernel_rows_with_self(spec, ds, gm.stats, X)
    mu = ds.values.mean(axis=0)
    expected = np.sum((X - mu) ** 2, axis=1)
    assert np.allclose(vals, expected, atol=1e-12)
    assert np.array_equal(rows, kernel_rows(spec, ds, gm.stats, X))


def test_kernel_rows_batch_matches_single():
    ds = gen_synth_gaussian(12, 3, 12)
    spec = KernelSpec("laplace", 1.3)
    gm = center_gram(gram(ds, spec))
    X = np.random.default_rng(0).standard_normal((4, 3))
    batch = kernel_rows(spec, ds, gm.stats, X)
    for i in range(4):
        assert np.allclose(batch[i], kernel_row(spec, ds.values, gm.stats, X[i]),
                           atol=1e-15)


def test_load_gram_csv(tmp_path):
    G = np.array([[2.0, 0.5], [0.5, 1.0]])
    p = tmp_path / "g.csv"
    np.savetxt(p, G, delimiter=",")
    gm = load_gram_csv(p)
    assert np.allclose(gm.entries, G)
    assert np.array_equal(gm.entries, gm.entries.T)


def test_load_gram_csv_rejects_asymmetry(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("1.0,0.5\n0.2,1.0\n")
    with pytest.raises(DataError, match="asymmetry"):
        load_gram_csv(p)


def test_load_gram_csv_symmetrizes_within_tolerance(tmp_path):
    G = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    p = tmp_path / "g.csv"
    np.savetxt(p, G, delimiter=",", fmt="%.17g")
    gm = load_gram_csv(p)
    assert np.array_equal(gm.entries, gm.entries.T)


@pytest.mark.parametrize("gap", [0.5e-8, 2e-8])
def test_load_gram_csv_tiles_match_whole_matrix_symmetrization(tmp_path, gap):
    # n crosses a tile edge; the one asymmetric pair sits in the last partial
    # tile, just inside or just outside the 1e-8 * max|entry| tolerance
    n = BLOCK + 45
    A = np.random.default_rng(3).uniform(-1.0, 1.0, (n, n))
    G = A + A.T
    G[0, 0] = 4.0
    G[n - 1, n - 3] += gap * 4.0
    p = tmp_path / "g.csv"
    np.savetxt(p, G, delimiter=",", fmt="%.17g")
    if gap > 1e-8:
        with pytest.raises(DataError, match="asymmetry"):
            load_gram_csv(p)
    else:
        assert np.array_equal(load_gram_csv(p).entries, 0.5 * (G + G.T))


def test_auto_bandwidth_resolution():
    ds = gen_synth_gaussian(30, 4, 13)
    spec = KernelSpec("gaussian", "auto")
    assert not spec.resolved
    resolved = spec.resolve(ds)
    assert resolved.resolved
    assert resolved.sigma == pytest.approx(sigma_rule(ds))
    with pytest.raises(KpcaError):
        gram(ds, spec)  # unresolved bandwidths are rejected


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_load_gram_csv_non_finite_is_data_error(tmp_path, bad):
    p = tmp_path / "g.csv"
    p.write_text(f"1.0,0.5\n{bad},1.0\n")
    with pytest.raises(DataError, match="row 2, column 1: non-finite"):
        load_gram_csv(p)


def test_gram_exactly_symmetric_for_every_input_layout():
    # no mirroring: the kernel of X with itself must come out symmetric as
    # computed, whatever layout or dtype the samples came in
    from scipy import sparse
    X = gen_synth_gaussian(300, 7, 0).values
    inputs = [X, np.asfortranarray(X), np.repeat(X, 2, axis=1)[:, ::2],
              X.astype(np.float32), sparse.csr_matrix(X), sparse.csc_matrix(X)]
    for values in inputs:
        for spec in (KernelSpec("gaussian", 1.3), KernelSpec("laplace", 0.9),
                     KernelSpec("linear")):
            Gc = _dense(center_gram(gram(Dataset(values), spec)))
            assert np.array_equal(Gc, Gc.T)


@pytest.mark.parametrize("n", [5, BLOCK + 44])
def test_integer_csr_dataset_kernels_match_float(n):
    # a Dataset converts integer CSR samples to float64, on either side of a
    # panel, so every kernel matrix is built in a float64 buffer
    X = np.random.default_rng(n).integers(-3, 4, (n, 6))
    X[X < 0] = 0
    ints, floats = Dataset(sparse.csr_matrix(X)), Dataset(sparse.csr_matrix(X.astype(float)))
    query = sparse.csr_matrix(X[:3])
    for spec in (KernelSpec("linear"), KernelSpec("gaussian", 1.1), KernelSpec("laplace", 0.8)):
        gm = gram(ints, spec)
        assert gm.entries.dtype == np.float64
        assert np.array_equal(gm.entries, gram(floats, spec).entries)
        stats = center_gram(gm).stats
        assert np.array_equal(kernel_rows(spec, ints, stats, query),
                              kernel_rows(spec, floats, stats, query))


def test_csr_query_against_dense_training_set():
    # a CSR query of a model fitted on dense samples gives the dense query's rows
    ds = gen_synth_gaussian(40, 5, 17)
    Q = ds.values[:4].copy()
    Q[Q < 0] = 0.0
    for spec in (KernelSpec("linear"), KernelSpec("gaussian", 1.4), KernelSpec("laplace", 0.9)):
        stats = center_gram(gram(ds, spec)).stats
        expected = kernel_rows(spec, ds, stats, Q)
        got = kernel_rows(spec, ds, stats, sparse.csr_matrix(Q))
        assert isinstance(got, np.ndarray) and got.shape == (4, 40)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)


def whole_matrix_kernel(spec, X, Y):
    """The kernel as whole-matrix expressions, with the same floating-point
    operations in the same order as the in-place panels of kernel_cross."""
    if sparse.issparse(X):
        xs = np.asarray(X.multiply(X).sum(axis=1)).ravel()
        ys = np.asarray(Y.multiply(Y).sum(axis=1)).ravel()
        inner = np.asarray((X @ Y.T).todense())
    else:
        xs, ys, inner = np.einsum("ij,ij->i", X, X), np.einsum("ij,ij->i", Y, Y), X @ Y.T
    if spec.family == "linear":
        return inner
    d2 = np.maximum(xs[:, None] + ys[None, :] - 2.0 * inner, 0.0)
    arg = d2 if spec.family == "gaussian" else np.sqrt(d2)
    return np.exp(-arg / (2.0 * spec.sigma ** 2))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 600), m=st.integers(1, 600),
       family=st.sampled_from(["linear", "gaussian", "laplace"]),
       layout=st.sampled_from(["dense", "csr"]), seed=st.integers(0, 2 ** 32 - 1))
def test_kernels_across_panel_boundaries(n, m, family, layout, seed):
    # n and m cross the BLOCK-row panels and the BLOCK x BLOCK symmetry tiles
    # and leave partial ones; entries near the edges are checked by closed form
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    X, Q = rng.standard_normal((n, d)), rng.standard_normal((m, d))
    X[rng.random((n, d)) < 0.3] = 0.0
    spec = KernelSpec(family, None if family == "linear" else float(rng.uniform(0.5, 3.0)))
    ds = Dataset(sparse.csr_matrix(X) if layout == "csr" else X)
    query = sparse.csr_matrix(Q) if layout == "csr" else Q

    gm = gram(ds, spec)
    assert np.array_equal(gm.entries, gm.entries.T)

    def edges(k):
        picks = {0, BLOCK - 1, BLOCK, k - 1, int(rng.integers(k))}
        return sorted(i for i in picks if i < k)

    K = kernel_cross(spec, ds, query)
    assert np.array_equal(K, whole_matrix_kernel(spec, query, ds.values))
    for a in edges(m):
        for i in edges(n):
            assert K[a, i] == pytest.approx(oracles.kernel_eval(spec, Q[a], X[i]),
                                            abs=1e-12)
    gc = center_gram(gm)
    mu, stats = gm.entries.mean(axis=0), gc.stats
    Gc = _dense(gc)
    assert np.array_equal(Gc, gm.entries - np.add.outer(mu, mu) + stats.grand_mean)
    # no copy: the centered Gram reads the buffer the Gram was built in
    assert gc.entries is gm.entries and not gc.entries.flags.writeable
    # float32 storage: exactly symmetric, the float64 Gram's column means,
    # and, centered, within a few float32 roundings of the centered entries'
    # scale
    g32 = gram(ds, spec, dtype=np.float32)
    assert g32.entries.dtype == np.float32
    assert np.array_equal(g32.entries, g32.entries.T)
    scale = np.max(np.abs(gm.entries))
    assert np.allclose(g32.stats.col_means, mu, rtol=1e-12, atol=1e-14 * scale)
    c32 = center_gram(g32)
    assert c32.stats is g32.stats and c32.entries is g32.entries
    C32 = _dense(c32)
    assert np.array_equal(C32, C32.T)
    assert np.max(np.abs(C32 - Gc)) <= 2.0 ** -21 * np.max(np.abs(Gc)) + 1e-14 * scale
    rows = kernel_rows(spec, ds, stats, query)
    assert np.array_equal(rows, K - K.mean(axis=1)[:, None] - stats.col_means[None, :]
                          + stats.grand_mean)
    for a in edges(m):
        assert np.allclose(rows[a], oracles.kernel_row(spec, X, stats, Q[a]),
                           rtol=0.0, atol=1e-12)

    if n > 1:
        # one ulp off an off-diagonal entry, in the last tile row and anywhere
        last = n - 1
        for i, j in ((last, int(rng.integers(last))),
                     tuple(rng.choice(n, size=2, replace=False))):
            entries = gm.entries.copy()
            entries[i, j] = np.nextafter(entries[i, j], np.inf)
            with pytest.raises(KpcaError, match="not exactly symmetric"):
                GramMatrix(entries)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 600), source=st.sampled_from(["float64", "float32", "array", "csv"]),
       layout=st.sampled_from(["dense", "csr"]),
       family=st.sampled_from(["linear", "gaussian", "laplace"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_centered_products_match_the_materialized_matrix(tmp_path_factory, n, source,
                                                         layout, family, seed):
    # the rank-2 term every product applies is the one _dense materializes,
    # for a Gram built in either precision, a caller's array and a loaded CSV,
    # with n crossing BLOCK; a float64 Gram materializes to the explicit
    # centering (E_ij - (mu_i + mu_j)) + grand bit for bit
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, int(rng.integers(1, 6))))
    X[rng.random(X.shape) < 0.3] = 0.0
    spec = KernelSpec(family, None if family == "linear" else float(rng.uniform(0.5, 3.0)))
    ds = Dataset(sparse.csr_matrix(X) if layout == "csr" else X)
    gm = gram(ds, spec, dtype=np.float32 if source == "float32" else np.float64)
    if source == "array":
        gm = GramMatrix(gm.entries.copy())
    elif source == "csv":
        path = tmp_path_factory.mktemp("gram") / "g.csv"
        np.savetxt(path, gm.entries, delimiter=",", fmt="%.17g")
        gm = load_gram_csv(path)
    gc = center_gram(gm)
    D = _dense(gc)
    Q = rng.standard_normal((n, int(rng.integers(1, 7))))
    scale = np.linalg.norm(gm.entries) * np.linalg.norm(Q)
    assert np.linalg.norm(gram_product(gc, Q) - D @ Q) <= product_rounding(gc) * scale
    assert np.linalg.norm(gram_product(gc, Q, exact=True) - D @ Q) <= \
        product_rounding(D) * scale
    E = gm.entries
    if E.dtype == np.float64:
        mu = E.mean(axis=0, dtype=np.float64)
        assert np.array_equal(D, E - np.add.outer(mu, mu) + float(mu.mean()))


def test_builders_compare_no_tiles(tmp_path, monkeypatch):
    # gram, load_gram_csv and gen_controlled_spectrum_gram make their buffer
    # exactly symmetric themselves, so GramMatrix checks none of their tiles
    n = BLOCK + 45
    ds = gen_synth_gaussian(n, 4, 0)
    p = tmp_path / "g.csv"
    np.savetxt(p, gram(ds, KernelSpec("linear")).entries, delimiter=",", fmt="%.17g")

    def compare(*args, **kwargs):
        raise AssertionError("a tile comparison ran")
    monkeypatch.setattr(np, "array_equal", compare)
    built = [gram(ds, KernelSpec("gaussian", 1.5)),
             gram(ds, KernelSpec("laplace", 0.9), dtype=np.float32),
             load_gram_csv(p), gen_controlled_spectrum_gram(n, 0.1, 0)]
    monkeypatch.undo()
    for gm in built:
        assert np.array_equal(gm.entries, gm.entries.T)


@pytest.mark.parametrize("spec, scale", [(KernelSpec("gaussian", 1.0), 1e200),
                                         (KernelSpec("linear"), 1e25)],
                         ids=["gaussian-nan", "linear-inf"])
def test_center_gram_refuses_a_kernel_that_overflowed(spec, scale):
    # finite samples whose float32 Gram is not: a squared norm past float64's
    # range gives a NaN self-distance in the shift, a linear kernel past
    # float32's range inf
    X = np.random.default_rng(0).standard_normal((20, 3))
    X[3] *= scale
    with np.errstate(over="ignore", invalid="ignore"):
        gm = gram(Dataset(X), spec, dtype=np.float32)
        with pytest.raises(DataError, match="non-finite entry"):
            center_gram(gm)


def _draw_csr(kind, n, rng):
    """CSR samples on one side of the Dataset's transpose rule, with negative
    values, empty rows, explicit zeros and squares that underflow to 0.
    "narrow": d <= n, density from 0.5% up (dense transpose); "wide": d > n
    (CSR transpose)."""
    if kind == "narrow":
        d = int(rng.integers(1, n + 1))
        density = rng.choice([rng.uniform(0.005, 0.05), rng.uniform(0.05, 1.0)])
        M = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
        M[rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False)] = 0.0
    else:
        d = n + int(rng.integers(1, 40))
        M = rng.standard_normal((n, d)) * (rng.random((n, d)) < rng.uniform(0.0, 0.3))
    X = sparse.csr_matrix(M)
    special = rng.random(X.nnz)
    X.data[special < 0.05] = 0.0
    X.data[special > 0.95] *= 1e-170
    return X


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["narrow", "wide"]), n=st.integers(1, 300),
       family=st.sampled_from(["linear", "gaussian", "laplace"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_csr_kernels_are_bit_identical_to_the_sparse_product(kind, n, family, seed):
    # whichever transpose a CSR Dataset holds, every kernel evaluation equals
    # the explicit CSR x CSR product with X.multiply(X) norms bit for bit
    rng = np.random.default_rng(seed)
    X = _draw_csr(kind, n, rng)
    Q = X[rng.integers(0, n, int(rng.integers(1, 30)))]
    Q.data[rng.random(Q.nnz) < 0.3] *= -0.5
    ds = Dataset(X)
    assert isinstance(ds.transposed, np.ndarray) == (kind == "narrow")
    spec = KernelSpec(family, None if family == "linear" else float(rng.uniform(0.5, 3.0)))

    def norms(M):
        return np.asarray(M.multiply(M).sum(axis=1)).ravel()

    for M in (X, Q):
        assert np.array_equal(row_sq_norms(M), norms(M))
    assert np.array_equal(ds.sq_norms, norms(X))
    expected = whole_matrix_kernel(spec, X, X)
    if family != "linear":
        np.fill_diagonal(expected, 1.0)
    gm = gram(ds, spec)
    assert np.array_equal(gm.entries, expected)
    stats = center_gram(gm).stats
    K = whole_matrix_kernel(spec, Q, X)
    rows = K - K.mean(axis=1)[:, None] - stats.col_means[None, :] + stats.grand_mean
    assert np.array_equal(kernel_rows(spec, ds, stats, Q), rows)
    got_rows, self_k = kernel_rows_with_self(spec, ds, stats, Q)
    kxx = norms(Q) if family == "linear" else np.ones(Q.shape[0])
    assert np.array_equal(got_rows, rows)
    assert np.array_equal(self_k, kxx - 2.0 * K.mean(axis=1) + stats.grand_mean)
