"""The fitted-KPCA artifact: out-of-sample projection, primal coefficient
recovery, feature-space reconstruction error, and sparsity metrics.

Out-of-sample projection follows the kernel trick
    p(x) = k_row(x) @ A,   A = H @ U' diag(lam)^(-1/2) U
with (U, lam) the eigendecomposition of H'GH, which needs every lam above the
positivity floor. Only the centered kernel row k_row(x) depends on the query:
a model checks its spectrum and computes A once, when it is built (a fit,
``assemble_model``, ``load_model`` or ``attach_training_data``), and its
training Dataset holds the training rows' norms, so projecting m rows costs
one m x n kernel evaluation and an m x n by n x s product. Models serialize as
a one-line JSON header followed by a CSV payload of H; the training data
itself is replaced by a fingerprint and must be re-supplied for projection.
"""

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from . import kernels
from .data_io import Dataset
from .dual_core import SpectralDecomp, check_floor, sym_eig_small
from .errors import (DataError, KpcaError, SingularMatrixError,
                     UnprojectableModelError)
from .objectives import ObjectiveSpec, format_objective, kappa_max, parse_objective
from .solvers import SolveConfig, SolveReport, dca_solve, lbfgs_solve

MODEL_FORMAT = "dckpca-model/1"


@dataclass(frozen=True)
class KpcaModel:
    """A fitted model. Building one checks that ``decomp.lam`` is
    non-increasing and above the singularity floor (UnprojectableModelError
    otherwise) and computes the read-only primal coefficients A."""

    kernel_spec: kernels.KernelSpec
    objective: ObjectiveSpec
    s: int
    H: np.ndarray
    decomp: SpectralDecomp
    stats: kernels.CenteringStats
    fingerprint: str
    train_data: Dataset | None = None
    report: SolveReport | None = None
    kappa_max_value: float | None = None
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = self.decomp.lam
        if np.any(lam[1:] > lam[:-1]):
            raise UnprojectableModelError("eigenvalues of H'GH are not non-increasing")
        try:
            check_floor(lam)
        except SingularMatrixError as exc:
            raise UnprojectableModelError(
                f"{exc}: the fitted model cannot project") from exc
        A = self.H @ self.decomp.apply(lambda lam: 1.0 / np.sqrt(lam))
        A.setflags(write=False)
        object.__setattr__(self, "coefficients", A)

    @property
    def n(self) -> int:
        return self.H.shape[0]


def dataset_fingerprint(dataset: Dataset) -> str:
    """sha256 over shape and canonical value bytes (labels excluded)."""
    h = hashlib.sha256()
    h.update(np.asarray(dataset.values.shape, dtype=np.int64).tobytes())
    if dataset.is_sparse:
        m = dataset.values.tocsr()
        h.update(np.asarray(m.indptr, dtype=np.int64).tobytes())
        h.update(np.asarray(m.indices, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(m.data, dtype=np.float64).tobytes())
    else:
        h.update(np.ascontiguousarray(dataset.values, dtype=np.float64).tobytes())
    return h.hexdigest()


def gram_fingerprint(gm: kernels.GramMatrix) -> str:
    """sha256 over shape and the entries' bytes as stored (no n^2 copy)."""
    h = hashlib.sha256()
    h.update(np.asarray(gm.entries.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(gm.entries))
    return h.hexdigest()


# Smallest tol a fit from data solves on a float32 Gram. The products' own
# rounding puts a floor under the fixed-point residual: r^2 ~ 5e-14 at
# n=1000 (gaussian, dense and CSR samples, s=10 and 20), growing with n.
FLOAT32_MIN_TOL = 1e-12


def _gram_dtype(cfg: SolveConfig, spec: kernels.KernelSpec):
    """The precision of a fit's Gram storage, decided once: float32, unless
    the fit is in benchmark mode (eta is defined against the eigenvalues of
    the float64 G, which a float32 Gram's differ from at its rounding), asks
    for tol < FLOAT32_MIN_TOL, or uses the linear kernel. A linear Gram has
    rank at most d, and s > rank is a user error that must be reported as
    such: rounded to float32, its null space fills with eigenvalues of
    either sign at the rounding level, so the solve would report an
    indefinite H'GH instead."""
    if (cfg.benchmark_eigs is not None or cfg.tol < FLOAT32_MIN_TOL
            or spec.family == "linear"):
        return np.float64
    return np.float32


def _final_decomp(G, H) -> SpectralDecomp:
    # the exact product: with a float32 Gram, the model's spectrum (and so
    # its projections) keeps float64 accuracy on the stored entries
    M = H.T @ kernels.gram_product(G, H, exact=True)
    return sym_eig_small(0.5 * (M + M.T))


def fit(dataset: Dataset | None, kernel_spec: kernels.KernelSpec,
        objective: ObjectiveSpec, s: int, config: SolveConfig | None = None,
        solver: str = "auto",
        gram_matrix: kernels.GramMatrix | None = None) -> KpcaModel:
    """Fit KPCA by solving the dual problem.

    The square objective goes to the subspace solver ``lbfgs_solve`` (or DCA
    when ``solver='dca'``), every Moreau-envelope objective to DCA. An
    unresolved ``xmax`` radius triggers a square-loss pre-solve to measure
    kappa_max; its report nests in the model's report as ``presolve``.
    ``gram_matrix`` short-circuits kernel assembly for precomputed Grams
    (``dataset`` may then be None); it is solved in its own precision.

    From data the Gram is stored in float32 (4n^2 bytes), except in
    benchmark mode, at tol < FLOAT32_MIN_TOL or for the linear kernel,
    where it is float64 (``_gram_dtype``). On a float32 Gram the solvers'
    products run in single precision; the s x s algebra, the costs and the
    final decomposition of H'GH, taken from the exact float64-accumulated
    product, stay in float64.
    """
    cfg = config or SolveConfig()
    if solver not in ("auto", "dca"):
        raise KpcaError(f"unknown solver {solver!r}")
    if gram_matrix is not None:
        if dataset is not None and gram_matrix.n != dataset.n:
            raise DataError("precomputed Gram size does not match dataset")
        spec = kernel_spec
        fingerprint = gram_fingerprint(gram_matrix)
        Gc = gram_matrix if gram_matrix.centered else kernels.center_gram(gram_matrix)
    else:
        if dataset is None:
            raise DataError("fit needs a dataset or a precomputed Gram")
        spec = kernel_spec.resolve(dataset)
        fingerprint = dataset_fingerprint(dataset)
        # centered in the buffer it was built in: one n x n buffer per fit
        gm = kernels.gram(dataset, spec, dtype=_gram_dtype(cfg, spec))
        Gc = kernels.center_gram(gm, overwrite=True)

    kappa_max_value = presolve = None
    if not objective.resolved:
        H_sq, presolve = _dispatch("square", ObjectiveSpec("square"), Gc, s, cfg,
                                   solver)
        kappa_max_value = kappa_max(objective.kind, H_sq)
        objective = objective.resolve(kappa_max_value)

    kind = "square" if objective.kind == "square" else "envelope"
    H, report = _dispatch(kind, objective, Gc, s, cfg, solver)
    report = replace(report, presolve=presolve)
    return assemble_model(Gc, spec, objective, s, H, dataset,
                          fingerprint=fingerprint, report=report,
                          kappa_max_value=kappa_max_value)


def assemble_model(Gc: kernels.GramMatrix, spec: kernels.KernelSpec,
                   objective: ObjectiveSpec, s: int, H: np.ndarray,
                   dataset: Dataset | None, fingerprint: str | None = None,
                   report: SolveReport | None = None,
                   kappa_max_value: float | None = None) -> KpcaModel:
    """Wrap a solved dual variable into a projectable model (spectral factors
    of H'GH, centering stats, fingerprint). Raises when H'GH is singular."""
    dec = _final_decomp(Gc, H)
    if fingerprint is None:
        fingerprint = dataset_fingerprint(dataset) if dataset is not None \
            else gram_fingerprint(Gc)
    stats = Gc.stats if Gc.stats is not None else \
        kernels.CenteringStats(np.zeros(Gc.n), 0.0)
    return KpcaModel(kernel_spec=spec, objective=objective, s=s, H=H, decomp=dec,
                     stats=stats, fingerprint=fingerprint, train_data=dataset,
                     report=report, kappa_max_value=kappa_max_value)


def _dispatch(kind, objective, Gc, s, cfg, solver):
    if kind == "square" and solver != "dca":
        return lbfgs_solve(Gc, s, cfg)
    return dca_solve(Gc, s, objective, cfg)


def recover_primal_coefficients(model: KpcaModel) -> np.ndarray:
    """Coefficients A with w_j = sum_i A_ij phi(x_i): A = H U' diag(lam)^(-1/2) U.
    Satisfies A'GA = I_s (orthonormal directions in feature space). A is
    computed once, when the model is built; this returns that read-only
    array."""
    return model.coefficients


def _check_query(model: KpcaModel, X) -> None:
    if model.train_data is None:
        raise KpcaError("model has no training data attached; call attach_training_data")
    if model.kernel_spec.family == "precomputed":
        raise KpcaError("precomputed-kernel models cannot project new points")
    values = X.data if sparse.issparse(X) else np.asarray(X, dtype=float)
    if not np.isfinite(values).all():
        raise DataError("query rows contain a non-finite value")


def project(model: KpcaModel, X) -> np.ndarray:
    """Principal-component projections of query rows (m x s, or (s,) for a
    single vector x)."""
    _check_query(model, X)
    single = not sparse.issparse(X) and np.asarray(X).ndim == 1
    rows = kernels.kernel_rows(model.kernel_spec, model.train_data, model.stats, X)
    P = rows @ recover_primal_coefficients(model)
    return P[0] if single else P


def reconstruction_error(model: KpcaModel, dataset: Dataset) -> float:
    """Mean feature-space reconstruction error over the dataset:
    mean_x max(0, k~(x,x) - ||p(x)||^2), the squared distance from the centered
    feature map to its projection onto the fitted components."""
    _check_query(model, dataset.values)
    rows, self_k = kernels.kernel_rows_with_self(
        model.kernel_spec, model.train_data, model.stats, dataset.values)
    P = rows @ recover_primal_coefficients(model)
    residual = np.maximum(self_k - np.einsum("ij,ij->i", P, P), 0.0)
    return float(residual.mean())


def sparsity_metrics(H: np.ndarray, rel_tol: float = 1e-9) -> dict:
    """Percentages of zero entries and all-zero rows of H, where an entry
    counts as zero when |h| < rel_tol * max|H|. All-zero H is 100/100."""
    H = np.asarray(H, dtype=float)
    scale = float(np.max(np.abs(H)))
    if scale == 0.0:
        return {"zero_rows_pct": 100.0, "zero_entries_pct": 100.0}
    zero = np.abs(H) < rel_tol * scale
    return {
        "zero_rows_pct": 100.0 * float(np.mean(zero.all(axis=1))),
        "zero_entries_pct": 100.0 * float(np.mean(zero)),
    }


def save_model(model: KpcaModel, path) -> None:
    """One JSON header line, then the n x s payload of H as CSV rows."""
    header = {
        "format": MODEL_FORMAT,
        "kernel": {"family": model.kernel_spec.family,
                   "sigma": model.kernel_spec.sigma},
        "objective": format_objective(model.objective),
        "s": model.s,
        "n": model.n,
        "fingerprint": model.fingerprint,
        "lam": model.decomp.lam.tolist(),
        "U": model.decomp.U.ravel().tolist(),
        "col_means": model.stats.col_means.tolist(),
        "grand_mean": model.stats.grand_mean,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for row in model.H:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_model(path) -> KpcaModel:
    """Inverse of save_model. The returned model has no training data attached;
    use attach_training_data before projecting. Every array must have its
    header-given shape and finite entries, and ``lam`` must be non-increasing
    and above the singularity floor, or a model cannot project."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("format") != MODEL_FORMAT:
            raise DataError(f"unrecognized model format {header.get('format')!r}")
        H = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=float)
    missing = sorted({"kernel", "objective", "s", "n", "fingerprint", "lam", "U",
                      "col_means", "grand_mean"} - header.keys())
    if missing:
        raise DataError(f"model header lacks field(s) {', '.join(missing)}")
    n, s = int(header["n"]), int(header["s"])
    if H.shape != (n, s):
        raise DataError("model payload shape does not match header")
    bad = np.flatnonzero(~np.isfinite(H).all(axis=1))
    if bad.size:
        raise DataError(f"model payload line {bad[0] + 2}: non-finite entry in H")
    fields = {}
    for name, shape in (("U", (s * s,)), ("lam", (s,)), ("col_means", (n,)),
                        ("grand_mean", ())):
        value = np.asarray(header[name], dtype=float)
        if value.shape != shape:
            raise DataError(f"model header field {name!r} has shape {value.shape}, "
                            f"expected {shape}")
        if not np.all(np.isfinite(value)):
            raise DataError(f"model header field {name!r} is not finite")
        fields[name] = value
    fam = header["kernel"]["family"]
    sigma = header["kernel"]["sigma"]
    spec = kernels.KernelSpec(fam, sigma if fam in ("gaussian", "laplace") else None)
    dec = SpectralDecomp(fields["U"].reshape(s, s), fields["lam"])
    stats = kernels.CenteringStats(fields["col_means"], float(fields["grand_mean"]))
    try:
        return KpcaModel(
            kernel_spec=spec, objective=parse_objective(header["objective"]),
            s=s, H=H, decomp=dec, stats=stats, fingerprint=header["fingerprint"])
    except UnprojectableModelError as exc:
        raise DataError(f"model header field 'lam': {exc}") from exc


def attach_training_data(model: KpcaModel, dataset: Dataset) -> KpcaModel:
    """Re-attach training data to a loaded model, checked by fingerprint."""
    fp = dataset_fingerprint(dataset)
    if fp != model.fingerprint:
        raise DataError("training data fingerprint does not match the model")
    return replace(model, train_data=dataset)
