import warnings

import numpy as np
import pytest

from dckpca import (DataError, KpcaError, contaminate, gen_controlled_spectrum_gram,
                    gen_synth_gaussian, load_csv, parse_libsvm)
from dckpca import data_io
from dckpca.data_io import Dataset

from oracles import dense, serialize_libsvm


def test_parse_libsvm_basic():
    ds = parse_libsvm("1 1:0.5 3:2.0")
    assert ds.n == 1 and ds.d == 3
    assert np.allclose(dense(ds), [[0.5, 0.0, 2.0]])
    assert ds.labels[0] == 1.0


def test_parse_libsvm_empty_stream():
    with pytest.raises(DataError, match="empty"):
        parse_libsvm("")


def test_parse_libsvm_non_ascending():
    with pytest.raises(DataError, match="line 1.*non-ascending"):
        parse_libsvm("1 3:1 2:1")


@pytest.mark.parametrize("token", ["0:1.5", "-2:1.0"])
def test_parse_libsvm_index_below_one(token):
    # indices are 1-based: 0 or a negative index is not a misordered one
    with pytest.raises(DataError, match=f"line 2: index below 1 at '{token}'"):
        parse_libsvm(f"1 1:1\n1 {token} 3:2")


def test_take_rows_copies_dense_and_csr_rows_with_their_labels():
    from scipy import sparse
    X = np.arange(12.0).reshape(4, 3)
    for values in (X, sparse.csr_matrix(X)):
        ds = Dataset(values, np.array([0.0, 1.0, 2.0, 3.0]))
        part = ds.take_rows(np.array([3, 1]))
        assert part.is_sparse == ds.is_sparse
        assert np.array_equal(dense(part), X[[3, 1]])
        assert np.array_equal(part.labels, [3.0, 1.0])
        buf = lambda d: d.values.data if d.is_sparse else d.values
        assert not np.shares_memory(buf(part), buf(ds))


def test_parse_libsvm_malformed_and_line_numbers():
    with pytest.raises(DataError, match="line 2"):
        parse_libsvm("1 1:1\n1 2:abc")
    with pytest.raises(DataError, match="label"):
        parse_libsvm("x 1:1")


def test_parse_libsvm_d_override():
    ds = parse_libsvm("1 1:1.0", d=4)
    assert ds.d == 4
    with pytest.raises(DataError):
        parse_libsvm("1 3:1.0", d=2)


def test_libsvm_round_trip():
    rng = np.random.default_rng(0)
    lines = []
    for i in range(20):
        idx = np.sort(rng.choice(50, size=rng.integers(1, 8), replace=False)) + 1
        pairs = " ".join(f"{j}:{float(rng.standard_normal())!r}" for j in idx)
        lines.append(f"{float(rng.integers(0, 3))!r} {pairs}")
    lines.append("1.0 50:1.25")  # pins d through the round trip
    text = "\n".join(lines)
    ds = parse_libsvm(text)
    again = parse_libsvm(serialize_libsvm(ds))
    assert again.n == ds.n and again.d == ds.d
    assert np.array_equal(dense(again), dense(ds))
    assert np.array_equal(again.labels, ds.labels)


def test_load_csv(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3,4\n")
    ds = load_csv(p)
    assert ds.n == 2 and ds.d == 2
    assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_ragged(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(DataError, match="line 2.*ragged"):
        load_csv(p)


def test_load_csv_non_numeric(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3,x\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(p)


def test_load_csv_iris_shape(tmp_path):
    rng = np.random.default_rng(1)
    rows = rng.normal(5.0, 1.0, size=(150, 4))
    p = tmp_path / "iris_like.csv"
    p.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    ds = load_csv(p)
    assert ds.n == 150 and ds.d == 4


def test_load_csv_label_col(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2,0\n3,4,1\n")
    ds = load_csv(p, label_col=2)
    assert ds.d == 2
    assert np.array_equal(ds.labels, [0.0, 1.0])


def test_gen_synth_gaussian_deterministic():
    a = gen_synth_gaussian(50, 7, 123)
    b = gen_synth_gaussian(50, 7, 123)
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (50, 7)
    c = gen_synth_gaussian(50, 7, 124)
    assert not np.array_equal(a.values, c.values)


def test_gen_synth_gaussian_standard_normal_moments():
    ds = gen_synth_gaussian(1000, 20, 5)
    assert abs(ds.values.mean()) < 0.02
    assert abs(ds.values.var() - 1.0) < 0.02


def test_gen_synth_gaussian_bad_sizes():
    with pytest.raises(DataError):
        gen_synth_gaussian(0, 3, 0)


def test_controlled_spectrum_c_zero_is_identity_plus_noise():
    n, seed = 40, 9
    gm = gen_controlled_spectrum_gram(n, 0.0, seed)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    expected = 0.01 * (X + X.T) + np.eye(n)
    assert np.max(np.abs(gm.entries - expected)) < 1e-12


def test_controlled_spectrum_exact_symmetry():
    gm = gen_controlled_spectrum_gram(60, 0.3, 2)
    assert np.array_equal(gm.entries, gm.entries.T)


def test_controlled_spectrum_planted_eigenvalues():
    # subtract the (regenerated) noise part; what is left is U D U' whose
    # eigenvalues the dense oracle must recover
    n, c, seed = 20, 0.25, 4
    gm = gen_controlled_spectrum_gram(n, c, seed)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    planted = gm.entries - 0.01 * (X + X.T)
    w = np.sort(np.linalg.eigvalsh(planted))[::-1]
    expected = np.exp(-c * np.arange(1, n + 1))
    assert np.allclose(w, expected, atol=1e-10)


def test_contaminate_identity_at_zero_omega():
    ds = gen_synth_gaussian(30, 4, 0)
    out = contaminate(ds, 0.0, 10.0, 1)
    assert np.array_equal(out.values, ds.values)


def test_contaminate_exact_row_count():
    ds = gen_synth_gaussian(150, 4, 0)
    out = contaminate(ds, 0.08, 100.0, 3)
    changed = np.any(out.values != ds.values, axis=1)
    assert changed.sum() == 12  # floor(0.08 * 150)
    # untouched rows are bit-identical
    assert np.array_equal(out.values[~changed], ds.values[~changed])


def test_contaminate_multiplicative_structure():
    ds = gen_synth_gaussian(40, 3, 1)
    out = contaminate(ds, 0.25, 50.0, 7)
    changed = np.flatnonzero(np.any(out.values != ds.values, axis=1))
    assert len(changed) == 10
    for i in changed:
        ratios = out.values[i] / ds.values[i]
        assert np.allclose(ratios, ratios[0])


def test_contaminate_deterministic():
    ds = gen_synth_gaussian(60, 5, 2)
    a = contaminate(ds, 0.1, 25.0, 11)
    b = contaminate(ds, 0.1, 25.0, 11)
    assert np.array_equal(a.values, b.values)


def test_contaminate_validation():
    ds = gen_synth_gaussian(10, 2, 0)
    with pytest.raises(DataError):
        contaminate(ds, 1.5, 1.0, 0)
    with pytest.raises(DataError):
        contaminate(ds, 0.5, 0.0, 0)
    for tau in (np.inf, np.nan):
        with pytest.raises(DataError, match="positive and finite"):
            contaminate(ds, 0.5, tau, 0)


def test_contaminate_sparse_rows():
    ds = parse_libsvm("1 1:2.0 3:1.0\n0 2:5.0\n1 1:1.0\n0 3:4.0\n")
    out = contaminate(ds, 0.5, 10.0, 5)
    assert out.is_sparse
    diff = np.any(dense(out) != dense(ds), axis=1)
    assert diff.sum() == 2


def test_dataset_invariants():
    with pytest.raises(DataError):
        Dataset(np.zeros((0, 3)))
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), labels=np.zeros(2))


def test_controlled_spectrum_validation():
    with pytest.raises(DataError):
        gen_controlled_spectrum_gram(10, -0.1, 0)
    with pytest.raises(DataError):
        gen_controlled_spectrum_gram(0, 0.1, 0)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_load_csv_non_finite_is_data_error(tmp_path, bad):
    p = tmp_path / "t.csv"
    p.write_text(f"1,2\n3,{bad}\n")
    with pytest.raises(DataError, match="line 2: non-finite"):
        load_csv(p)


def test_load_csv_values_are_bit_identical_to_the_line_loop(tmp_path, monkeypatch):
    # numpy's parser reads these; the line-by-line loop (float()) is the reference
    rng = np.random.default_rng(3)
    n = 4000
    exps = rng.integers(-330, 308, n)
    literals = [repr(float(v)) for v in rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)]
    literals += [f"{m:.{p}f}e{e}" for m, p, e in zip(rng.uniform(-10, 10, n),
                                                      rng.integers(0, 25, n), exps)]
    literals += [f"{v:.{p}g}" for v, p in zip(rng.uniform(-1e6, 1e6, n), rng.integers(1, 21, n))]
    literals += ["5e-324", "-0.0", "+.5", "1.", "00012", "2.4703282292062328e-324",
                 "1.7976931348623157e308", "9007199254740993", "0.1000000000000000055511151231257827"]
    literals = literals[:len(literals) // 4 * 4]
    p = tmp_path / "t.csv"
    p.write_text("\n".join(",".join(literals[i:i + 4]) for i in range(0, len(literals), 4)) + "\n")
    want = data_io._parse_csv(p)
    monkeypatch.setattr(data_io, "_parse_csv", None)  # load_csv must not fall back
    got = load_csv(p).values
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_load_csv_reads_what_only_float_accepts(tmp_path):
    # quoted cells and digit separators go to the line loop
    p = tmp_path / "t.csv"
    p.write_text('"1.5",1_0\n2,3\n')
    assert np.array_equal(load_csv(p).values, [[1.5, 10.0], [2.0, 3.0]])


def test_load_csv_empty_file_warns_nothing(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(p)


@pytest.mark.parametrize("col", [3, -4])
def test_load_csv_label_col_outside_the_columns(tmp_path, col):
    p = tmp_path / "t.csv"
    p.write_text("1,2,0\n3,4,1\n")
    with pytest.raises(KpcaError, match=f"label column {col} is outside the 3 columns") as info:
        load_csv(p, label_col=col)
    assert not isinstance(info.value, DataError)


@pytest.mark.parametrize("bad", ["nan", "-inf"])
def test_parse_libsvm_non_finite_is_data_error(bad):
    with pytest.raises(DataError, match="line 2: non-finite value"):
        parse_libsvm(f"1 1:1\n1 2:{bad}")
    with pytest.raises(DataError, match="line 1: non-finite label"):
        parse_libsvm(f"{bad} 1:1")


def test_dataset_stores_one_csr_or_contiguous_float64_buffer():
    from scipy import sparse
    X = np.arange(12.0).reshape(3, 4)
    strided = Dataset(np.repeat(X, 2, axis=1)[:, ::2])
    assert strided.values.flags.c_contiguous and np.array_equal(strided.values, X)
    assert Dataset(X.astype(np.float32)).values.dtype == np.float64
    assert sparse.isspmatrix_csr(Dataset(sparse.csc_matrix(X)).values)
    for dtype in (np.int64, np.float32):
        values = Dataset(sparse.csr_matrix(X.astype(dtype))).values
        assert sparse.isspmatrix_csr(values) and values.dtype == np.float64


def test_dataset_holds_read_only_norms_and_transpose():
    # CSR samples with d <= n get a dense C-contiguous transpose, those with
    # d > n a CSR transpose; either is read-only
    from scipy import sparse
    X = np.array([[1.0, 0.0, -2.0], [0.0, 0.0, 0.0], [3.0, 0.5, 0.0], [0.0, -1.0, 4.0]])
    dense, csr = Dataset(X), Dataset(sparse.csr_matrix(X))
    for ds in (dense, csr):
        assert np.array_equal(ds.sq_norms, np.sum(X * X, axis=1))
        assert not ds.sq_norms.flags.writeable
    assert np.array_equal(dense.transposed, X.T) and not dense.transposed.flags.writeable
    t = csr.transposed
    assert type(t) is np.ndarray and t.flags.c_contiguous and not t.flags.writeable
    assert np.array_equal(t, X.T)
    # the 3 x 4 transpose of X has d > n
    t = Dataset(sparse.csr_matrix(X.T)).transposed
    assert sparse.isspmatrix_csr(t) and np.array_equal(t.toarray(), X)
    assert not any(a.flags.writeable for a in (t.data, t.indices, t.indptr))


def test_csr_dataset_holds_a_read_only_copy():
    # a later change to the caller's matrix must not reach the samples the
    # norms and the transpose were computed from
    from scipy import sparse
    X = sparse.csr_matrix(np.eye(3))
    ds = Dataset(X)
    assert ds.values is not X
    X.data[0] = 5.0
    assert ds.values[0, 0] == ds.sq_norms[0] == ds.transposed[0, 0] == 1.0
    assert not any(a.flags.writeable
                   for a in (ds.values.data, ds.values.indices, ds.values.indptr))


def test_non_canonical_csr_is_canonicalized_on_a_copy():
    # duplicate entries and unsorted indices: row 0 holds 1 and 0.5 at
    # column 1 and 0.25 at column 0, so its squared norm is 1.5^2 + 0.25^2
    from scipy import sparse
    from dckpca import KernelSpec, center_gram, gram
    from dckpca.data_io import row_sq_norms
    from dckpca.kernels import kernel_rows, kernel_rows_with_self
    data = np.array([1.0, 0.5, 0.25, 2.0, 3.0, -1.0])
    indices = np.array([1, 1, 0, 2, 2, 0], dtype=np.int32)
    indptr = np.array([0, 3, 4, 6], dtype=np.int32)
    # d = 3 gives the Dataset a dense transpose, d = 5 > n a CSR one
    for d in (3, 5):
        X = sparse.csr_matrix((data, indices, indptr), shape=(3, d))
        assert not X.has_canonical_format
        # summing the stored squares row by row would miss the cross term
        assert np.add.reduceat(X.data * X.data, X.indptr[:-1])[0] == 1.3125
        canonical = X.copy()
        canonical.sum_duplicates()
        ds = Dataset(X)
        assert ds.values.has_canonical_format
        assert row_sq_norms(X)[0] == 2.3125
        assert np.array_equal(row_sq_norms(X), row_sq_norms(canonical))
        assert np.array_equal(ds.sq_norms, Dataset(canonical).sq_norms)
        for spec in (KernelSpec("linear"), KernelSpec("gaussian", 1.3)):
            gm = gram(ds, spec)
            assert np.array_equal(gm.entries, gram(Dataset(canonical), spec).entries)
            # X as a query against the canonical Dataset: its rows' norms
            # must come from the summed duplicates too
            stats = center_gram(gm).stats
            want, want_self = kernel_rows_with_self(spec, ds, stats, canonical)
            got, got_self = kernel_rows_with_self(spec, ds, stats, X)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            assert np.allclose(got_self, want_self, rtol=0, atol=1e-12)
            assert np.allclose(kernel_rows(spec, ds, stats, X), want, rtol=0, atol=1e-12)
        assert np.array_equal(X.indices, [1, 1, 0, 2, 2, 0])
        assert np.array_equal(X.data, [1.0, 0.5, 0.25, 2.0, 3.0, -1.0])
        assert np.array_equal(X.indptr, [0, 3, 4, 6])


@pytest.mark.parametrize("n, c, seed", [(1, 0.3, 0), (7, 0.0, 3), (300, 0.1, 0),
                                        (513, 0.5, 5)])
def test_controlled_spectrum_matches_whole_matrix_formula(n, c, seed):
    # the same draws and floating-point operations as building every term
    # as a whole n x n matrix, across the panel and tile edges
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    G = 0.01 * (X + X.T) + (Q * np.exp(-c * np.arange(1, n + 1))) @ Q.T
    expected = np.triu(G) + np.triu(G, 1).T
    assert np.array_equal(gen_controlled_spectrum_gram(n, c, seed).entries, expected)


def test_controlled_spectrum_qr_raises_on_a_lapack_argument_error(monkeypatch):
    # numpy's QR gufuncs report a LAPACK argument error as an invalid
    # floating-point operation; as in np.linalg.qr, that is a LinAlgError,
    # not a matrix of NaN
    from numpy.linalg import _umath_linalg

    def flagged(Z, tau=None, signature=None):
        return np.divide(np.zeros(Z.shape[0]), 0.0)

    monkeypatch.setattr(_umath_linalg, "qr_reduced", flagged)
    with pytest.raises(np.linalg.LinAlgError, match="QR"):
        gen_controlled_spectrum_gram(5, 0.1, 0)
