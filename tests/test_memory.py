"""Memory bounds of Gram assembly and of a fit, in units of one n x n float64
buffer (8 n^2 bytes). tracemalloc sees numpy's buffers, so its peak and
current sizes count every n^2 array the package allocates."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from dckpca import (Dataset, KernelSpec, ObjectiveSpec, gen_controlled_spectrum_gram,
                    gen_synth_gaussian, gram)
from dckpca import model
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
    # the Gram is centered in the buffer it was built in, so no second n x n
    # buffer is live at any point of the fit
    n = 2000
    ds = gen_synth_gaussian(n, 5, 1)
    tracemalloc.reset_peak()
    model.fit(ds, KernelSpec("gaussian", 2.0), ObjectiveSpec("square"), 3,
              SolveConfig(seed=0))
    assert tracemalloc.get_traced_memory()[1] <= 1.25 * 8 * n * n


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


def test_controlled_spectrum_peak_is_three_buffers(traced):
    # U diag(exp(-c i)) U' needs its two factors and its output; nothing else
    # of size n x n that Python allocates is live beside them. LAPACK's work
    # copies inside the QR steps are malloc'd and not traced: the process's
    # real peak is about one buffer more.
    n = 1000
    tracemalloc.reset_peak()
    gm = gen_controlled_spectrum_gram(n, 0.1, 0)
    peak = tracemalloc.get_traced_memory()[1]
    assert gm.n == n
    assert peak <= 3 * 8 * n * n + 8 * n
