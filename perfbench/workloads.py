"""The two workloads and their seeded inputs.

A workload runs on ``datasets`` independent inputs drawn from the seed, so a
run's fit time does not hang on one draw's eigengap (the L-BFGS
iteration count moves between ~21 and ~35 from draw to draw on
square-dense). The program only sees the files written here.
"""

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from . import checks


@dataclass(frozen=True)
class Workload:
    name: str
    data_id: int      # inputs are drawn from (seed, data_id, k)
    fmt: str          # input file format passed to `dckpca solve --format`
    n: int
    d: int
    density: float | None   # None: dense standard normal; else CSR uniform
    sigma: float
    s: int
    objective: str
    tol: float
    max_iters: int | None   # `solve --max-iters`; None keeps the solver default
    datasets: int
    queries: int
    baselines: bool   # trace the paper's comparison rows (dense eig, rsvd)
    check: str        # fit check: "eta" or "huber_row2" (checks.py)


WORKLOADS = {
    # Gaussian sigma=2 keeps lam20/lam21 ~ 1.02, so L-BFGS runs ~30
    # iterations; sigma auto would make G ~ I and stop after one.
    "square-dense": Workload("square-dense", 0, "csv", 3000, 20, None, 2.0, 20,
                             "square", 1e-6, None, 6, 2000, True, "eta"),
    # DCA dominates; covers the LIBSVM parser, the CSR kernel branch and the
    # xmax pre-solve. n=1000 keeps a fit near 1 s with one BLAS thread, so a
    # run holds ~20 fits (n=2000 took ~10 s a fit). DCA ignores --tol and
    # stops on a cost change below machine epsilon, after 508 to 1000 (the
    # default cap) iterations depending on the draw; the cap of 400 makes
    # every fit do the same DCA work, so fit_s does not hang on how many of a
    # run's draws stop early.
    "robust-libsvm": Workload("robust-libsvm", 1, "libsvm", 1000, 100, 0.1, 4.0, 20,
                              "huber2:xmax:0.8", 1e-6, 400, 6, 2000, False,
                              "huber_row2"),
}

BATCH_ROWS = 1000


def _samples(wl: Workload, rng, rows):
    if wl.density is None:
        return rng.standard_normal((rows, wl.d))
    mask = rng.random((rows, wl.d)) < wl.density
    X = np.where(mask, rng.random((rows, wl.d)), 0.0)
    if X[0, wl.d - 1] == 0.0:
        X[0, wl.d - 1] = 0.5   # LIBSVM infers d from the largest index seen
    return X


def _write_csv(path, X):
    np.savetxt(path, X, delimiter=",", fmt="%.17g")


def _write_libsvm(path, X):
    with open(path, "w") as fh:
        for row in X:
            cols = np.flatnonzero(row)
            fh.write("0 " + " ".join(f"{c + 1}:{float(row[c])!r}" for c in cols) + "\n")


@dataclass
class Case:
    """One seeded input: the file the program reads, the dense samples and
    queries, and the benchmark's own centered Gram and spectrum."""

    k: int
    path: Path
    model_path: Path
    X: np.ndarray
    Q: np.ndarray          # dense queries (for the reference route)
    Q_in: object           # queries as passed to project (dense or CSR)
    Gc: np.ndarray
    col_means: np.ndarray
    grand: float
    top: np.ndarray | None
    setup_s: float
    model: object = None             # loaded model with training data attached
    P_ref: np.ndarray | None = None  # reference projections of Q under model

    def batch(self, b):
        lo = (b * BATCH_ROWS) % self.Q.shape[0]
        return slice(lo, lo + BATCH_ROWS)


def make_case(wl: Workload, seed: int, k: int, workdir: Path) -> Case:
    """Generate, write and take the oracle of input k of a run (timed as
    set-up)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([seed, wl.data_id, k]))
    X = _samples(wl, rng, wl.n)
    Q = _samples(wl, rng, wl.queries)
    path = workdir / f"train{k}.{wl.fmt}"
    (_write_csv if wl.fmt == "csv" else _write_libsvm)(path, X)
    Gc, col_means, grand = checks.centered_gram(X, wl.sigma)
    top = checks.top_eigenvalues(Gc, wl.s) if wl.check == "eta" else None
    Q_in = Q if wl.density is None else sparse.csr_matrix(Q)
    return Case(k, path, workdir / f"model{k}.dk", X, Q, Q_in, Gc, col_means,
                grand, top, time.perf_counter() - t0)


def solve_argv(wl: Workload, case: Case, out: Path) -> list[str]:
    return ["solve", "--data", str(case.path), "--format", wl.fmt,
            "--kernel", "gaussian", "--sigma", repr(wl.sigma),
            "--components", str(wl.s), "--objective", wl.objective,
            "--tol", repr(wl.tol), "--seed", "0", "--out", str(out),
            "--report", str(out.with_suffix(".report.json")),
            *([] if wl.max_iters is None else ["--max-iters", str(wl.max_iters)])]
