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

import contextlib
import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from . import kernels
from .data_io import Dataset, read_csv
from .dual_core import SpectralDecomp, _small_eig, check_floor
from .errors import (DataError, KpcaError, SingularMatrixError,
                     UnprojectableModelError)
from .objectives import ObjectiveSpec, format_objective, kappa_max, parse_objective
from .solvers import SolveConfig, SolveReport, dca_solve, lbfgs_solve

MODEL_FORMAT = "dckpca-model/1"
ZERO_REL_TOL = 1e-9


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


def _gram_dtype(cfg: SolveConfig):
    """The precision of a fit's Gram storage, decided once: float32, unless
    the fit is in benchmark mode (eta is defined against the eigenvalues of
    the float64 G, which a float32 Gram's differ from at its rounding) or
    asks for tol < FLOAT32_MIN_TOL. Every kernel is treated alike: a linear
    Gram has rank at most d, and the rounding-aware floor check
    (``check_floor``) names that rank on a float32 Gram too."""
    if cfg.benchmark_eigs is not None or cfg.tol < FLOAT32_MIN_TOL:
        return np.float64
    return np.float32


def fit(dataset: Dataset | None, kernel_spec: kernels.KernelSpec,
        objective: ObjectiveSpec, s: int, config: SolveConfig | None = None,
        gram_matrix: kernels.GramMatrix | None = None) -> KpcaModel:
    """Fit KPCA by solving the dual problem.

    The objective alone picks the solver: the square loss goes to the
    subspace solver ``lbfgs_solve``, every Moreau-envelope objective to DCA
    (``eps_row2`` or ``eps_linf`` at eps = 0 runs DCA on the square loss). An
    unresolved ``xmax`` radius triggers a square-loss pre-solve to measure
    kappa_max; its report nests in the model's report as ``presolve``.
    ``gram_matrix`` short-circuits kernel assembly for precomputed Grams
    (``dataset`` may then be None); it is solved in its own precision, and a
    given dataset still sets the model's bandwidth and fingerprint.

    From data the Gram is stored in float32 (4n^2 bytes), whatever the
    kernel, except in benchmark mode or at tol < FLOAT32_MIN_TOL, where it
    is float64 (``_gram_dtype``). On a float32 Gram the solvers'
    products run in single precision; the s x s algebra, the costs and the
    final decomposition of H'GH, taken from the exact float64-accumulated
    product, stay in float64.
    """
    cfg = config or SolveConfig()
    if dataset is None:
        if gram_matrix is None:
            raise DataError("fit needs a dataset or a precomputed Gram")
        spec, fingerprint = kernel_spec, gram_fingerprint(gram_matrix)
    else:
        if gram_matrix is not None and gram_matrix.n != dataset.n:
            raise DataError("precomputed Gram size does not match dataset")
        spec, fingerprint = kernel_spec.resolve(dataset), dataset_fingerprint(dataset)
    if gram_matrix is not None:
        Gc = gram_matrix if gram_matrix.centered else kernels.center_gram(gram_matrix)
    else:
        # centered in the buffer it was built in: one n x n buffer per fit
        gm = kernels.gram(dataset, spec, dtype=_gram_dtype(cfg))
        Gc = kernels.center_gram(gm, overwrite=True)

    kappa_max_value = presolve = None
    if not objective.resolved:
        H_sq, presolve = lbfgs_solve(Gc, s, cfg)
        kappa_max_value = kappa_max(objective.kind, H_sq)
        objective = objective.resolve(kappa_max_value)

    if objective.kind == "square":
        H, report = lbfgs_solve(Gc, s, cfg)
    else:
        H, report = dca_solve(Gc, s, objective, cfg)
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
    of H'GH, centering stats, fingerprint). Raises when H'GH is singular.
    H'GH comes from the exact product: with a float32 Gram, the model's
    spectrum (and so its projections) keeps float64 accuracy on the stored
    entries."""
    _, dec = _small_eig(Gc, H, exact=True)
    if fingerprint is None:
        fingerprint = dataset_fingerprint(dataset) if dataset is not None \
            else gram_fingerprint(Gc)
    stats = Gc.stats if Gc.stats is not None else \
        kernels.CenteringStats(np.zeros(Gc.n), 0.0)
    return KpcaModel(kernel_spec=spec, objective=objective, s=s, H=H, decomp=dec,
                     stats=stats, fingerprint=fingerprint, train_data=dataset,
                     report=report, kappa_max_value=kappa_max_value)


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


def sparsity_metrics(H: np.ndarray) -> dict:
    """Percentages of zero entries and all-zero rows of H, where an entry
    counts as zero when |h| < ZERO_REL_TOL * max|H|. All-zero H is 100/100."""
    H = np.asarray(H, dtype=float)
    scale = float(np.max(np.abs(H)))
    if scale == 0.0:
        return {"zero_rows_pct": 100.0, "zero_entries_pct": 100.0}
    zero = np.abs(H) < ZERO_REL_TOL * scale
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
        for row in model.H:  # row by row: a whole H.tolist() holds 32 B a value
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def load_model(path) -> KpcaModel:
    """Inverse of save_model. The returned model has no training data attached;
    use attach_training_data before projecting. The header line must be a
    JSON object whose fields have the types ``save_model`` writes and name a
    valid kernel and objective, every array must have its header-given shape
    and finite entries, and ``lam`` must be non-increasing and above the
    singularity floor, or a DataError naming the field is raised: such a
    model cannot project."""
    with open(path) as fh:
        line = fh.readline()
    try:
        header = json.loads(line)
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise DataError("model header (line 1) is not a JSON object")
    if header.get("format") != MODEL_FORMAT:
        raise DataError(f"unrecognized model format {header.get('format')!r}")
    H = read_csv(path, skip=1, finite=False)
    missing = sorted({"kernel", "objective", "s", "n", "fingerprint", "lam", "U",
                      "col_means", "grand_mean"} - header.keys())
    if missing:
        raise DataError(f"model header lacks field(s) {', '.join(missing)}")
    for name, kind in (("n", int), ("s", int), ("kernel", dict), ("objective", str),
                       ("fingerprint", str)):
        if type(header[name]) is not kind:
            raise DataError(f"model header field {name!r} is not {_JSON_TYPES[kind]}")
    n, s = header["n"], header["s"]
    if H.shape != (n, s):
        raise DataError("model payload shape does not match header")
    bad = np.flatnonzero(~np.isfinite(H).all(axis=1))
    if bad.size:
        raise DataError(f"model payload line {bad[0] + 2}: non-finite entry in H")
    fields = {}
    for name, shape in (("U", (s * s,)), ("lam", (s,)), ("col_means", (n,)),
                        ("grand_mean", ())):
        try:
            value = np.asarray(header[name])
        except ValueError:  # a ragged nested list
            value = None
        if value is None or value.dtype.kind not in "iuf":
            raise DataError(f"model header field {name!r} is not numeric")
        if value.shape != shape:
            raise DataError(f"model header field {name!r} has shape {value.shape}, "
                            f"expected {shape}")
        if not np.all(np.isfinite(value)):
            raise DataError(f"model header field {name!r} is not finite")
        fields[name] = value.astype(float)
    kernel = header["kernel"]
    if not {"family", "sigma"} <= kernel.keys():
        raise DataError("model header field 'kernel' lacks 'family' or 'sigma'")
    fam, sigma = kernel["family"], kernel["sigma"]
    bandwidth = sigma if fam in ("gaussian", "laplace") else None
    if bandwidth is not None and type(bandwidth) not in (int, float):
        raise DataError("model header field 'kernel' has a non-numeric sigma")
    with _header_field("kernel"):
        spec = kernels.KernelSpec(fam, bandwidth)
    with _header_field("objective"):
        objective = parse_objective(header["objective"])
    dec = SpectralDecomp(fields["U"].reshape(s, s), fields["lam"])
    stats = kernels.CenteringStats(fields["col_means"], float(fields["grand_mean"]))
    with _header_field("lam"):
        return KpcaModel(kernel_spec=spec, objective=objective, s=s, H=H, decomp=dec,
                         stats=stats, fingerprint=header["fingerprint"])


_JSON_TYPES = {int: "an integer", dict: "an object", str: "a string"}


@contextlib.contextmanager
def _header_field(name):
    """Re-raise a KpcaError from reading a model header field as a DataError
    naming it: the spec it names cannot be built from the file."""
    try:
        yield
    except KpcaError as exc:
        raise DataError(f"model header field {name!r}: {exc}") from exc


def attach_training_data(model: KpcaModel, dataset: Dataset) -> KpcaModel:
    """Re-attach training data to a loaded model, checked by fingerprint."""
    fp = dataset_fingerprint(dataset)
    if fp != model.fingerprint:
        raise DataError("training data fingerprint does not match the model")
    return replace(model, train_data=dataset)
