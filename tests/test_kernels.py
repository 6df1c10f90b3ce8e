import numpy as np
import pytest

from dckpca import (DataError, Dataset, KernelSpec, KpcaError, center_gram,
                    gen_synth_gaussian, gram, load_gram_csv, sigma_rule)
from dckpca.kernels import centered_self_kernel, kernel_cross, kernel_rows

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
    from dckpca import parse_libsvm, serialize_libsvm
    ds = gen_synth_gaussian(25, 5, 8)
    sparse_ds = parse_libsvm(serialize_libsvm(Dataset(ds.values, np.zeros(25))))
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
    assert np.allclose(gm.entries, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_center_gram_row_sums_vanish():
    ds = gen_synth_gaussian(40, 3, 2)
    gm = center_gram(gram(ds, KernelSpec("laplace", 0.8)))
    scale = 1e-10 * gm.n * np.max(np.abs(gm.entries))
    assert np.max(np.abs(gm.entries.sum(axis=1))) <= scale
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
    assert np.allclose(gm.entries, Xc @ Xc.T, atol=1e-12)


def test_center_gram_idempotent():
    ds = gen_synth_gaussian(35, 4, 5)
    g1 = center_gram(gram(ds, KernelSpec("gaussian", 1.5)))
    g2 = center_gram(g1)
    assert np.max(np.abs(g2.entries - g1.entries)) < 1e-12 * np.max(np.abs(g1.entries))


def test_centered_gram_rank_deficiency():
    ds = gen_synth_gaussian(50, 4, 6)
    gm = center_gram(gram(ds, KernelSpec("gaussian", 1.0)))
    w = np.linalg.eigvalsh(gm.entries)
    assert w.min() >= -1e-8 * np.trace(gm.entries)
    assert w.min() <= 1e-8 * np.trace(gm.entries)  # centering kills one direction


def test_kernel_row_reproduces_centered_columns():
    ds = gen_synth_gaussian(25, 3, 7)
    spec = KernelSpec("gaussian", 1.1)
    gm = center_gram(gram(ds, spec))
    for i in (0, 7, 24):
        row = kernel_rows(spec, ds, gm.stats, ds.values[i])[0]
        assert np.max(np.abs(row - gm.entries[:, i])) < 1e-12


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
    vals = centered_self_kernel(spec, ds, gm.stats, X)
    mu = ds.values.mean(axis=0)
    expected = np.sum((X - mu) ** 2, axis=1)
    assert np.allclose(vals, expected, atol=1e-12)


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
            gm = center_gram(gram(Dataset(values), spec))
            assert np.array_equal(gm.entries, gm.entries.T)
