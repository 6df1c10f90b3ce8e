"""Benchmark and experiment command line: solve / bench / spectrum / robust / sparse.

Exit codes: 1 usage error, 2 data error, 3 numeric failure. All CSV outputs
carry a header row; numeric cells are written with full repr precision so a
rerun with identical flags, seed, and thread count reproduces them exactly
(wall-clock columns excepted). Linear algebra thread count follows the BLAS
environment (OMP_NUM_THREADS / OPENBLAS_NUM_THREADS).
"""

import argparse
import contextlib
import csv
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import baselines, data_io, kernels, model as model_mod
from .dual_core import dual_residual
from .errors import (DataError, KpcaError, SingularMatrixError,
                     ToleranceUnreachableError, UnprojectableModelError)
from .objectives import KIND_OF, ObjectiveSpec, format_objective, parse_objective
from .solvers import SolveConfig, dca_solve, lbfgs_solve

USAGE_EXIT, DATA_EXIT, NUMERIC_EXIT = 1, 2, 3


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it, as every usage error
        raise _Usage(message)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return "" if x is None else str(x)


def _write_csv(path, header, rows):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    finally:
        if path:
            out.close()


def _value(cast, ok, domain):
    """An argparse type: one ``cast`` value for which ``ok`` holds; any other
    text is refused as not ``domain``."""
    def parse(text):
        with contextlib.suppress(ValueError):
            if ok(value := cast(text)):
                return value
        raise argparse.ArgumentTypeError(f"{text!r} is not {domain}")
    return parse


def _list_of(item):
    """An argparse type: a comma-separated list naming at least one value,
    each read by the type ``item``."""
    def parse(text):
        values = [item(t) for t in text.split(",") if t.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"{text!r} names no value")
        return values
    return parse


def _objective(text):
    try:
        return parse_objective(text)
    except KpcaError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# each flag's domain, where it does not depend on the input
_POSITIVE_INT = _value(int, lambda v: v >= 1, "an integer >= 1")
_NONNEGATIVE_INT = _value(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = _value(float, lambda v: 0 < v < np.inf, "a positive finite number")
_NONNEGATIVE = _value(float, lambda v: 0 <= v < np.inf, "a finite number >= 0")
_SIGMA = _value(lambda t: t if t == "auto" else float(t),
                lambda v: v == "auto" or 0 < v < np.inf,
                "'auto' or a positive finite bandwidth")
_BENCH_ROWS = ("eig", "rsvd", "lbfgs", "dca")


def _add_input_flags(p, formats=("libsvm", "csv"), synth=None, kernel="gaussian",
                     sigma="auto"):
    """The input and kernel flags, each read or refused by ``_read_input``.

    All default to None, so a given flag is told from an absent one; the
    command's defaults are set_defaults attributes. ``synth``: the (n, d) of
    the synthetic dataset drawn without --data, or None where --data is
    required."""
    p.add_argument("--data", required=synth is None, help="input file (see --format)")
    p.add_argument("--format", choices=formats, help="format of --data (default csv)")
    p.add_argument("--label-col", type=int, help="CSV column holding per-row labels")
    if synth is not None:
        p.add_argument("--synth-n", type=int, help="rows of the synthetic "
                       f"standard-normal dataset drawn without --data (default {synth[0]})")
        p.add_argument("--synth-d", type=int,
                       help=f"columns of the synthetic dataset (default {synth[1]})")
    p.add_argument("--kernel", choices=("linear", "gaussian", "laplace"),
                   help=f"kernel family (default {kernel})")
    p.add_argument("--sigma", type=_SIGMA,
                   help=f"gaussian/laplace bandwidth: a positive value or "
                        f"'auto' (default {sigma})")
    p.set_defaults(default_synth=synth, default_kernel=kernel, default_sigma=sigma)


def _check_count(flag, value, high=None):
    if value < 1:
        raise _Usage(f"{flag} must be >= 1")
    if high is not None and value > high:
        raise _Usage(f"{flag} must be <= {high}")


def _read_input(args):
    """The one reader of the input and kernel flags: (dataset, kernel spec,
    None) for samples, (None, KernelSpec("precomputed"), Gram) for
    --format gram. A given flag that the input does not read is a usage
    error naming it. The input's name, "synth" or its format, is left in
    ``args.task``."""
    def refuse(flag, reason):
        if getattr(args, flag[2:].replace("-", "_"), None) is not None:
            raise _Usage(f"{flag} {reason}")

    if args.data is None:
        refuse("--format", "applies to --data only")
        args.task = "synth"
    else:
        for flag in ("--synth-n", "--synth-d"):
            refuse(flag, "does not apply to --data")
        args.task = args.format or "csv"
    if args.task != "csv":
        refuse("--label-col", "applies to CSV --data only")
    if args.task == "gram":
        for flag in ("--kernel", "--sigma"):
            refuse(flag, "does not apply to --format gram")
        return None, kernels.KernelSpec("precomputed"), kernels.load_gram_csv(args.data)
    kernel = args.kernel or args.default_kernel
    if kernel == "linear":
        refuse("--sigma", "does not apply to the linear kernel")
    sigma = args.default_sigma if args.sigma is None else args.sigma
    spec = kernels.KernelSpec(kernel, None if kernel == "linear" else sigma)
    if args.task == "synth":
        n, d = args.default_synth
        n = n if args.synth_n is None else args.synth_n
        d = d if args.synth_d is None else args.synth_d
        _check_count("--synth-n", n)
        _check_count("--synth-d", d)
        return data_io.gen_synth_gaussian(n, d, args.seed), spec, None
    if args.task == "libsvm":
        with open(args.data) as fh:
            return data_io.parse_libsvm(fh), spec, None
    try:
        return data_io.load_csv(args.data, label_col=args.label_col), spec, None
    except DataError:
        raise
    except KpcaError as exc:  # the label column is outside the file
        raise _Usage(f"--label-col: {exc}") from exc


# ---------------------------------------------------------------- solve

def _cmd_solve(args):
    cfg = SolveConfig(tol=args.tol, seed=args.seed, max_iters=args.max_iters)
    dataset, spec, gm = _read_input(args)
    _check_count("--components", args.components,
                 high=dataset.n if gm is None else gm.n)
    fitted = model_mod.fit(dataset, spec, args.objective, args.components, cfg,
                           gram_matrix=gm)
    model_mod.save_model(fitted, args.out)
    # a capped model still projects, so it is written and the exit code
    # stays 0; the cap is named on stderr (the report says "max_iters")
    for stage, rep in (("xmax pre-solve", fitted.report.presolve),
                       ("solve", fitted.report)):
        if rep is not None and rep.termination == "max_iters":
            print(f"dckpca: warning: the {stage} stopped at its iteration cap "
                  f"({rep.iterations}) before reaching --tol", file=sys.stderr)
    report_json = fitted.report.to_json()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report_json + "\n")
    else:
        print(report_json)
    return 0


# ---------------------------------------------------------------- bench

def _cmd_bench(args):
    s = args.components
    top = None  # the eta oracle: the eig row's eigenvalues, else kpca_dense_eig's

    # each row returns (H or None, iterations or oversamples, eta)
    def eig():
        nonlocal top
        pairs, H = baselines.kpca_dense_eig(G, s)
        top = pairs.values
        return H, None, None  # eta: computed below, untimed

    def rsvd():
        attempts = []  # (p, eta) of each attempt: the row reads the last one
        try:
            pairs, _ = baselines.rsvd_adaptive(G, s, args.delta, seed=args.seed,
                                               top_eigs=top, collect=attempts)
            H = baselines.h_from_pairs(pairs)
        except ToleranceUnreachableError:
            H = None  # the row stays, marked unconverged
        return (H, *attempts[-1])

    def square(solve, *objective):  # a benchmark-mode solve of G to eta < delta
        cfg = SolveConfig(tol=args.delta, seed=args.seed, benchmark_eigs=top)
        H, rep = solve(G, s, *objective, cfg)
        return H, rep.iterations, rep.eta_trace[-1]

    # in this order, so that eig's eigenvalues and rsvd's time are known to
    # the rows after them
    table = {"eig": eig, "rsvd": rsvd, "lbfgs": lambda: square(lbfgs_solve),
             "dca": lambda: square(dca_solve, ObjectiveSpec("square"))}
    solvers = args.solvers
    if len(set(solvers)) < len(solvers):
        raise _Usage(f"--solvers must name each solver once, got {','.join(solvers)!r}")
    if {"lbfgs", "dca"} & set(solvers) and not args.delta > 0:
        # an rsvd row alone takes delta 0 too: it is then marked unconverged
        raise _Usage("--delta must be positive for the lbfgs and dca rows")
    dataset, spec, gm = _read_input(args)
    _check_count("--components", s, high=dataset.n if gm is None else gm.n)
    if gm is None:
        gm = kernels.gram(dataset, spec.resolve(dataset))
    G = kernels.center_gram(gm)
    if "eig" not in solvers:
        top = baselines.kpca_dense_eig(G, s)[0].values

    rows = {}
    for name in [name for name in table if name in solvers]:
        samples = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            H, iters, eta = table[name]()
            samples.append(time.perf_counter() - t0)
        if name == "eig":
            eta = dual_residual(G, H, top)
        mean = float(np.mean(samples))
        speedup = None
        if name == "lbfgs" and "rsvd" in rows and mean > 0:
            speedup = rows["rsvd"][4] / mean  # rsvd's wall_seconds
        rows[name] = [args.task, G.n, name, args.delta, mean,
                      ";".join(map(repr, samples)), iters, eta, eta < args.delta, speedup]
        if args.dump_dir and H is not None:
            with open(f"{args.dump_dir.rstrip('/')}/H_{name}.csv", "w") as fh:
                for hrow in H:
                    fh.write(",".join(repr(float(v)) for v in hrow) + "\n")
    _write_csv(args.out, ["task", "n", "solver", "delta", "wall_seconds",
                          "wall_samples", "iters_or_oversamples", "eta",
                          "converged", "speedup_vs_rsvd"], [rows[name] for name in solvers])
    return 0


# ---------------------------------------------------------------- spectrum

def _cmd_spectrum(args):
    _check_count("--components", args.components, high=args.n)
    rows = []
    for c in args.c_grid:
        G = data_io.gen_controlled_spectrum_gram(args.n, c, args.seed)
        top = baselines.kpca_dense_eig(G, args.components)[0].values
        lbfgs_iters, lbfgs_status = None, "ok"
        try:
            cfg = SolveConfig(tol=args.delta, seed=args.seed, benchmark_eigs=top)
            _, rep = lbfgs_solve(G, args.components, cfg)
            if rep.termination == "tolerance":
                lbfgs_iters = rep.iterations
            else:
                lbfgs_status = rep.termination
        except SingularMatrixError:
            lbfgs_status = "singular"
        oversamples, rsvd_status = None, "ok"
        try:
            _, oversamples = baselines.rsvd_adaptive(
                G, args.components, args.delta, seed=args.seed, top_eigs=top,
                q=args.q)
        except ToleranceUnreachableError:
            rsvd_status = "unreachable"
        rows.append([c, lbfgs_iters, lbfgs_status, oversamples, rsvd_status])
        del G  # not live while the next matrix is generated

    min_iters = min((r[1] for r in rows if r[1] is not None), default=None)
    min_p = min((r[3] for r in rows if r[3] is not None), default=None)
    out_rows = [[c, it, None if it is None else it - min_iters, st,
                 p, None if p is None else p - min_p, pst]
                for c, it, st, p, pst in rows]
    _write_csv(args.out, ["c", "lbfgs_iters", "lbfgs_extra_iters", "lbfgs_status",
                          "rsvd_oversamples", "rsvd_extra_oversamples",
                          "rsvd_status"], out_rows)
    return 0


# ---------------------------------------------------------------- robust

def _split_indices(n, test_frac, labels, rng):
    """Seeded train/test split, stratified by label; unlabelled rows are one class."""
    labels = np.zeros(n) if labels is None else labels
    test = []
    for value in np.unique(labels):
        members = np.flatnonzero(labels == value)
        members = members[rng.permutation(len(members))]
        k = int(np.floor(test_frac * len(members)))
        test.extend(members[:k])
    test = np.sort(np.asarray(test, dtype=int))
    return np.setdiff1d(np.arange(n), test), test


def _cmd_robust(args):
    base, spec, _ = _read_input(args)
    rng = np.random.default_rng(args.seed)
    train_idx, test_idx = _split_indices(base.n, args.test_split, base.labels, rng)
    if not (train_idx.size and test_idx.size):
        raise _Usage(f"--test-split leaves {train_idx.size} training and "
                     f"{test_idx.size} test rows")
    _check_count("--components", args.components, high=train_idx.size)
    train, test = base.take_rows(train_idx), base.take_rows(test_idx)
    # one contaminated training set per tau, shared by its objectives' cells
    noisy = {tau: data_io.contaminate(train, args.omega, tau, args.seed)
             for tau in args.tau_grid}

    def cell(tau, objective):
        cfg = SolveConfig(tol=args.tol, seed=args.seed)
        fitted = model_mod.fit(noisy[tau], spec, objective, args.components, cfg)
        err = model_mod.reconstruction_error(fitted, test)
        kappa = fitted.objective.kappa if fitted.objective.kind != "square" else None
        return err, kappa, fitted.report.iterations, fitted.report.termination

    cells = [(tau, obj) for tau in args.tau_grid for obj in args.objectives]
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        outcomes = list(pool.map(lambda c: cell(*c), cells))
    rows = [[tau, format_objective(obj), *outcome]
            for (tau, obj), outcome in zip(cells, outcomes)]
    _write_csv(args.out, ["tau", "objective", "reconstruction_error", "kappa",
                          "iterations", "termination"], rows)
    return 0


# ---------------------------------------------------------------- sparse

def _cmd_sparse(args):
    kind = KIND_OF[args.objective]
    dataset, spec, _ = _read_input(args)
    _check_count("--components-grid", max(args.components_grid), high=dataset.n)
    spec = spec.resolve(dataset)
    Gc = kernels.center_gram(kernels.gram(dataset, spec))

    def solve(s, eps):
        # at eps = 0 the solve is DCA on the square loss: the baseline of
        # its s, so a failure there ends the command
        objective = ObjectiveSpec(kind, eps=eps)
        try:
            H, rep = dca_solve(Gc, s, objective, SolveConfig(seed=args.seed))
        except SingularMatrixError:
            if eps == 0:
                raise
            return None, None, None, None  # eps collapsed the iterates entirely
        try:
            fitted = model_mod.assemble_model(Gc, spec, objective, s, H, dataset)
            err = model_mod.reconstruction_error(fitted, dataset)
        except UnprojectableModelError:
            if eps == 0:
                raise
            err = None
        return model_mod.sparsity_metrics(H), err, rep.iterations, rep.termination

    # the baselines first, so the first failing one is the error reported
    solves = dict.fromkeys([(s, 0.0) for s in args.components_grid] +
                           [(s, eps) for s in args.components_grid
                            for eps in args.eps_grid])
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        done = dict(zip(solves, pool.map(lambda c: solve(*c), solves)))
    rows = []
    for s in args.components_grid:
        base_err = done[s, 0.0][1]
        for eps in args.eps_grid:
            m, err, *rest = done[s, eps]
            ratio = err / base_err if err is not None and base_err > 0 else None
            rows.append([eps, s, None if m is None else m["zero_rows_pct"],
                         None if m is None else m["zero_entries_pct"], err, ratio, *rest])
    _write_csv(args.out, ["epsilon", "s", "zero_rows_pct", "zero_entries_pct",
                          "reconstruction_error", "error_ratio", "iterations",
                          "termination"], rows)
    return 0


# ---------------------------------------------------------------- wiring

def build_parser() -> _Parser:
    p = _Parser(prog="dckpca", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="fit a model and write it to disk")
    _add_input_flags(ps, formats=("libsvm", "csv", "gram"))
    ps.add_argument("--components", type=_POSITIVE_INT, required=True)
    ps.add_argument("--objective", type=_objective, default="square")
    ps.add_argument("--tol", type=_POSITIVE, default=1e-6,
                    help="stop once the relative fixed-point residual r = "
                         "||H - prox(grad pi(H))|| / ||H|| has r^2 <= TOL")
    ps.add_argument("--max-iters", type=_POSITIVE_INT, default=1000,
                    help="iteration cap of each solve (default %(default)s)")
    ps.add_argument("--seed", type=_NONNEGATIVE_INT, default=0)
    ps.add_argument("--out", required=True, help="model file path")
    ps.add_argument("--report", help="write the solve report JSON here "
                                     "instead of stdout")
    ps.set_defaults(func=_cmd_solve)

    pb = sub.add_parser("bench", help="timed solver comparison on one task")
    _add_input_flags(pb, formats=("libsvm", "csv", "gram"), synth=(2000, 20),
                     kernel="laplace")
    pb.add_argument("--components", type=_POSITIVE_INT, default=20)
    pb.add_argument("--solvers", default="eig,rsvd,lbfgs",
                    type=_list_of(_value(str.strip, lambda v: v in _BENCH_ROWS,
                                         f"one of {', '.join(_BENCH_ROWS)}")))
    pb.add_argument("--delta", type=_NONNEGATIVE, default=1e-2)
    pb.add_argument("--repeats", type=_POSITIVE_INT, default=1)
    pb.add_argument("--seed", type=_NONNEGATIVE_INT, default=0)
    pb.add_argument("--dump-dir", help="directory for per-solver H dumps")
    pb.add_argument("--out", help="CSV path (default stdout)")
    pb.set_defaults(func=_cmd_bench)

    pc = sub.add_parser("spectrum", help="controlled-spectrum study")
    pc.add_argument("--c-grid", type=_list_of(_NONNEGATIVE), default=[0.01, 0.1, 0.5])
    pc.add_argument("--n", type=_POSITIVE_INT, default=500)
    pc.add_argument("--delta", type=_POSITIVE, default=1e-4)
    pc.add_argument("--components", type=_POSITIVE_INT, default=20)
    pc.add_argument("--q", type=_NONNEGATIVE_INT, default=2, help="rsvd power iterations")
    pc.add_argument("--seed", type=_NONNEGATIVE_INT, default=0)
    pc.add_argument("--out", help="CSV path (default stdout)")
    pc.set_defaults(func=_cmd_spectrum)

    pr = sub.add_parser("robust", help="outlier-contamination study")
    _add_input_flags(pr, synth=(150, 4), sigma=1.0)
    pr.add_argument("--components", type=_POSITIVE_INT, default=2)
    pr.add_argument("--objectives", type=_list_of(_objective),
                    default="square,huber1:xmax:0.6,huber2:xmax:0.8")
    pr.add_argument("--omega", type=_value(float, lambda v: 0 <= v <= 1, "in [0, 1]"),
                    default=0.08)
    pr.add_argument("--tau-grid", type=_list_of(_POSITIVE),
                    default=[10.0, 25.0, 50.0, 75.0, 100.0])
    pr.add_argument("--test-split", type=_value(float, lambda v: 0 < v < 1, "in (0, 1)"),
                    default=0.2)
    pr.add_argument("--tol", type=_POSITIVE, default=1e-6,
                    help="solver tolerance, as for solve")
    pr.add_argument("--seed", type=_NONNEGATIVE_INT, default=0)
    pr.add_argument("--jobs", type=_POSITIVE_INT, default=1)
    pr.add_argument("--out", help="CSV path (default stdout)")
    pr.set_defaults(func=_cmd_robust)

    pp = sub.add_parser("sparse", help="sparsity-accuracy tradeoff study")
    _add_input_flags(pp, synth=(1000, 20))
    pp.add_argument("--objective", choices=("eps2", "epsinf"), default="eps2")
    pp.add_argument("--eps-grid", type=_list_of(_NONNEGATIVE), required=True)
    pp.add_argument("--components-grid", type=_list_of(_POSITIVE_INT), required=True)
    pp.add_argument("--seed", type=_NONNEGATIVE_INT, default=0)
    pp.add_argument("--jobs", type=_POSITIVE_INT, default=1)
    pp.add_argument("--out", help="CSV path (default stdout)")
    pp.set_defaults(func=_cmd_sparse)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _Usage as exc:
        print(f"dckpca: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (DataError, OSError) as exc:  # DataError before KpcaError
        print(f"dckpca: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (KpcaError, np.linalg.LinAlgError) as exc:
        print(f"dckpca: numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
