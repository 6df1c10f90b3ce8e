"""Memory bounds of Gram assembly and of a fit, in units of one n x n float64
buffer (8 n^2 bytes), and of a query, in units of the n x d samples.
tracemalloc sees numpy's buffers, so its peak and current sizes count every
n^2 array the package allocates."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from dckpca import (CenteringStats, Dataset, KernelSpec, ObjectiveSpec, center_gram,
                    gen_synth_gaussian, gram, kernel_rows)
from dckpca import model
from dckpca.baselines import kpca_dense_eig
from dckpca.kernels import BLOCK
from dckpca.objectives import parse_objective
from dckpca.solvers import SolveConfig


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _entry_recorder(monkeypatch, name, sizes):
    solve = getattr(model, name)

    def recorded(*args, **kwargs):
        sizes.append(tracemalloc.get_traced_memory()[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(model, name, recorded)


def test_gram_peak_is_one_buffer_and_a_panel(traced):
    n = 2000
    ds = gen_synth_gaussian(n, 5, 0)
    tracemalloc.reset_peak()
    gm = gram(ds, KernelSpec("gaussian", 1.0))
    peak = tracemalloc.get_traced_memory()[1]
    assert gm.n == n
    assert peak <= 1.25 * 8 * n * n


def test_dense_square_fit_enters_the_solver_with_one_gram(traced, monkeypatch):
    n = 2000
    ds = gen_synth_gaussian(n, 5, 1)
    sizes = []
    _entry_recorder(monkeypatch, "lbfgs_solve", sizes)
    model.fit(ds, KernelSpec("gaussian", 2.0), ObjectiveSpec("square"), 3,
              SolveConfig(seed=0))
    assert len(sizes) == 1
    assert sizes[0] <= 1.1 * 8 * n * n


def test_dense_square_fit_peak_is_one_gram(traced):
    # one float32 Gram (half a float64 buffer), centered without a pass over
    # its entries, plus one strip of BLOCK columns while it is built
    n = 2000
    ds = gen_synth_gaussian(n, 5, 1)
    tracemalloc.reset_peak()
    model.fit(ds, KernelSpec("gaussian", 2.0), ObjectiveSpec("square"), 3,
              SolveConfig(seed=0))
    assert tracemalloc.get_traced_memory()[1] <= 0.75 * 8 * n * n


def _traced_peak(fn):
    """fn()'s result and the peak it allocated above what was live before."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn()
    return result, tracemalloc.get_traced_memory()[1] - before


def test_centering_a_float32_gram_reads_its_stats_only(traced):
    # the Gram from gram carries its column means and shift: centering it
    # shares its buffer, writes none of its bytes and allocates O(n)
    n = 1000
    gm = gram(gen_synth_gaussian(n, 5, 2), KernelSpec("gaussian", 2.0), dtype=np.float32)
    before = gm.entries.tobytes()
    gc, peak = _traced_peak(lambda: center_gram(gm))
    assert np.shares_memory(gc.entries, gm.entries)
    assert gm.entries.tobytes() == before
    assert peak < 64 * 1024


def test_dense_eig_of_a_centered_float32_gram_holds_one_float64_buffer(traced):
    # _dense's float64 matrix is all the n^2 memory: LAPACK decomposes it in
    # place, beside an n^2 bool finiteness mask and the n x s vectors. A first
    # call loads scipy.linalg, so that its ~2 MB of module objects go uncounted.
    n = 1000
    gc = center_gram(gram(gen_synth_gaussian(n, 5, 2), KernelSpec("gaussian", 2.0),
                          dtype=np.float32))
    kpca_dense_eig(np.eye(2), 1)
    (pairs, _), peak = _traced_peak(lambda: kpca_dense_eig(gc, 10))
    assert pairs.values.shape == (10,)
    assert peak <= 1.25 * 8 * n * n


def test_fit_of_a_precomputed_gram_never_copies_it(traced):
    n = 1000
    gm = gram(gen_synth_gaussian(n, 5, 3), KernelSpec("gaussian", 2.0))
    _, peak = _traced_peak(lambda: model.fit(
        None, KernelSpec("precomputed"), ObjectiveSpec("square"), 3,
        SolveConfig(seed=0), gram_matrix=gm))
    assert gm.entries.dtype == np.float64
    assert peak < 0.5 * 8 * n * n


def test_csr_fit_with_d_above_n_never_holds_the_sparse_product(traced):
    # every two rows of these samples share a column, so X X' is 99% dense
    # and its CSR form alone takes 1.49 float64 buffers; the fit builds the
    # Gram from n x BLOCK products, and what it allocates peaks at 0.93. A
    # float64 gram runs the same strips: its buffer plus one strip's sparse
    # and dense product peak at 1.43 (2.49 when X X' was formed whole)
    n = 1500
    X = sparse.random(n, 2 * n, density=0.04, format="csr",
                      random_state=np.random.default_rng(3))
    ds = Dataset(X)
    spec = KernelSpec("gaussian", 4.0)
    _, peak = _traced_peak(lambda: model.fit(
        ds, spec, ObjectiveSpec("square"), 3, SolveConfig(seed=0)))
    _, peak64 = _traced_peak(lambda: gram(ds, spec))
    tracemalloc.stop()
    product = X @ X.T
    assert peak < product.data.nbytes + product.indices.nbytes
    assert peak64 <= 1.75 * 8 * n * n


def test_csr_query_against_dense_samples_never_copies_them(traced):
    # a CSR query is densified against dense samples; a CSR product with
    # their transposed view copied the whole n x d matrix on every call
    n, d = 2000, 100
    ds = Dataset(np.random.default_rng(4).standard_normal((n, d)))
    spec, stats = KernelSpec("gaussian", 2.0), CenteringStats(np.zeros(n), 0.0)
    q = ds.values[:1].copy()
    q[0, ::3] = 0.0
    rows, peak = _traced_peak(lambda: kernel_rows(spec, ds, stats, sparse.csr_matrix(q)))
    assert peak <= 0.1 * 8 * n * d
    assert np.array_equal(rows, kernel_rows(spec, ds, stats, q))


def test_projection_peak_is_its_kernel_block_and_a_panel(traced):
    # the m x n kernel block, one BLOCK-row panel of its in-place kernel
    # steps, and O(ms): centering after the product with A (an m x s outer
    # product, row means) adds no m x n temporary. Measured: 138 KB above
    # the first two at m=1000, s=3.
    n, m, s = 2000, 1000, 3
    fitted = model.fit(gen_synth_gaussian(n, 5, 5), KernelSpec("gaussian", 2.0),
                       ObjectiveSpec("square"), s, SolveConfig(seed=0))
    Q = gen_synth_gaussian(m, 5, 6).values
    model.project(fitted, Q[:2])  # first-call allocations go uncounted
    P, peak = _traced_peak(lambda: model.project(fitted, Q))
    assert P.shape == (m, s)
    assert peak <= 8 * m * n + 8 * BLOCK * n + 8 * 8 * m * s


def test_csr_huber_fit_enters_both_solves_with_one_gram(traced, monkeypatch):
    n = 1500
    values = sparse.random(n, 100, density=0.1, format="csr",
                           random_state=np.random.default_rng(2))
    ds = Dataset(values)
    sizes = []
    _entry_recorder(monkeypatch, "lbfgs_solve", sizes)
    _entry_recorder(monkeypatch, "dca_solve", sizes)
    model.fit(ds, KernelSpec("gaussian", 4.0), parse_objective("huber2:xmax:0.8"), 3,
              SolveConfig(seed=0))
    assert len(sizes) == 2  # the xmax pre-solve, then the main solve
    assert max(sizes) <= 1.1 * 8 * n * n
