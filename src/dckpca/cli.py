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
from .objectives import ObjectiveSpec, format_objective, parse_objective
from .solvers import SolveConfig, dca_solve, lbfgs_solve

USAGE_EXIT, DATA_EXIT, NUMERIC_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


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


def _float_list(text):
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}")


def _int_list(text):
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")


def _add_data_flags(p, synth_n=None, synth_d=None):
    p.add_argument("--data", help="input file (see --format)")
    p.add_argument("--format", choices=("libsvm", "csv", "gram"), default="csv")
    p.add_argument("--label-col", type=int, default=None,
                   help="CSV column holding per-row labels")
    if synth_n is not None:
        p.add_argument("--synth-n", type=int, default=synth_n,
                       help="rows of the synthetic standard-normal dataset")
        p.add_argument("--synth-d", type=int, default=synth_d,
                       help="columns of the synthetic dataset")


def _add_kernel_flags(p, kernel="gaussian", sigma=None):
    p.add_argument("--kernel", choices=("linear", "gaussian", "laplace"),
                   default=kernel)
    p.add_argument("--sigma", default=sigma,
                   help="kernel bandwidth: a positive value or 'auto'")


def _kernel_spec(args) -> kernels.KernelSpec:
    if args.kernel in ("gaussian", "laplace"):
        sigma = args.sigma if args.sigma is not None else "auto"
        if sigma != "auto":
            sigma = float(sigma)
        return kernels.KernelSpec(args.kernel, sigma)
    if args.sigma is not None:
        raise KpcaError(f"--sigma does not apply to the {args.kernel} kernel")
    return kernels.KernelSpec(args.kernel)


def _load_dataset(args, seed=None):
    if args.data is not None:
        if args.format == "libsvm":
            with open(args.data) as fh:
                return data_io.parse_libsvm(fh)
        if args.format == "csv":
            return data_io.load_csv(args.data, label_col=args.label_col)
        raise KpcaError("precomputed Gram input is not valid for this command")
    return data_io.gen_synth_gaussian(args.synth_n, args.synth_d,
                                      args.seed if seed is None else seed)


# ---------------------------------------------------------------- solve

def _cmd_solve(args):
    if args.data is None:
        raise _Usage("solve requires --data")
    with _usage_phase():
        objective = parse_objective(args.objective)
    if args.components < 1:
        raise _Usage("--components must be >= 1")
    cfg = SolveConfig(tol=args.tol, seed=args.seed, max_iters=args.max_iters)
    if args.format == "gram":
        gm = kernels.load_gram_csv(args.data)
        spec = kernels.KernelSpec("precomputed")
        fitted = model_mod.fit(None, spec, objective, args.components, cfg,
                               solver=args.solver, jitter=args.jitter,
                               gram_matrix=gm)
    else:
        dataset = _load_dataset(args)
        with _usage_phase():
            spec = _kernel_spec(args)
        fitted = model_mod.fit(dataset, spec, objective, args.components, cfg,
                               solver=args.solver, jitter=args.jitter)
    model_mod.save_model(fitted, args.out)
    report_json = fitted.report.to_json()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report_json + "\n")
    else:
        print(report_json)
    return 0


# ---------------------------------------------------------------- bench

def _bench_timed(fn, repeats):
    samples = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return result, samples


def _cmd_bench(args):
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    known = {"eig", "rsvd", "lbfgs", "dca"}
    bad = set(solvers) - known
    if bad:
        raise _Usage(f"unknown solvers: {sorted(bad)}")
    if args.repeats < 1:
        raise _Usage("--repeats must be >= 1")
    s = args.components
    if args.data is not None and args.format == "gram":
        gm = kernels.load_gram_csv(args.data)
        task = "gram"
    else:
        dataset = _load_dataset(args)
        with _usage_phase():
            spec = _kernel_spec(args)
        spec = spec.resolve(dataset)
        gm = kernels.gram(dataset, spec)
        task = args.task
    Gc = kernels.center_gram(gm)
    G = Gc.entries
    n = Gc.n

    # Dense eigendecomposition doubles as the eta oracle; run it once,
    # timed only when requested as a solver row.
    rows = []
    results = {}
    if "eig" in solvers:
        (pairs, h_svd), eig_samples = _bench_timed(
            lambda: baselines.kpca_dense_eig(G, s), args.repeats)
        top = pairs.values
        eta = dual_residual(G, h_svd, top)
        results["eig"] = {"wall": eig_samples, "iters": None, "eta": eta, "H": h_svd}
    else:
        top = baselines.top_eigenvalues(G, s)

    if "rsvd" in solvers:
        def run_rsvd():
            trace = []
            try:
                pairs, p_used = baselines.rsvd_adaptive(
                    G, s, args.delta, seed=args.seed, top_eigs=top, collect=trace)
                return baselines.h_from_pairs(pairs), p_used, trace
            except ToleranceUnreachableError:
                # row stays, marked unconverged with the last attempt's state
                return None, trace[-1][0] if trace else None, trace
        (h_r, p_used, trace), samples = _bench_timed(run_rsvd, args.repeats)
        eta = dual_residual(G, h_r, top) if h_r is not None else \
            (trace[-1][1] if trace else np.inf)
        results["rsvd"] = {"wall": samples, "iters": p_used, "eta": eta, "H": h_r}
    if "lbfgs" in solvers:
        cfg = SolveConfig(tol=args.delta, seed=args.seed, benchmark_eigs=top)
        (H, rep), samples = _bench_timed(lambda: lbfgs_solve(G, s, cfg),
                                         args.repeats)
        results["lbfgs"] = {"wall": samples, "iters": rep.iterations,
                            "eta": rep.eta_trace[-1], "H": H}
    if "dca" in solvers:
        cfg = SolveConfig(tol=args.delta, seed=args.seed, benchmark_eigs=top)
        (H, rep), samples = _bench_timed(
            lambda: dca_solve(G, s, ObjectiveSpec("square"), cfg), args.repeats)
        results["dca"] = {"wall": samples, "iters": rep.iterations,
                          "eta": rep.eta_trace[-1], "H": H}

    means = {k: float(np.mean(v["wall"])) for k, v in results.items()}
    for name in solvers:
        r = results[name]
        speedup = None
        if name == "lbfgs" and "rsvd" in means and means["lbfgs"] > 0:
            speedup = means["rsvd"] / means["lbfgs"]
        rows.append([task, n, name, args.delta, means[name],
                     ";".join(repr(t) for t in r["wall"]), r["iters"], r["eta"],
                     r["eta"] < args.delta, speedup])
        if args.dump_dir and r["H"] is not None:
            with open(f"{args.dump_dir.rstrip('/')}/H_{name}.csv", "w") as fh:
                for hrow in r["H"]:
                    fh.write(",".join(repr(float(v)) for v in hrow) + "\n")
    _write_csv(args.out, ["task", "n", "solver", "delta", "wall_seconds",
                          "wall_samples", "iters_or_oversamples", "eta",
                          "converged", "speedup_vs_rsvd"], rows)
    return 0


# ---------------------------------------------------------------- spectrum

def _cmd_spectrum(args):
    rows = []
    for c in args.c_grid:
        gm = data_io.gen_controlled_spectrum_gram(args.n, c, args.seed)
        G = gm.entries
        top = baselines.top_eigenvalues(G, args.components)
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

    iter_vals = [r[1] for r in rows if r[1] is not None]
    p_vals = [r[3] for r in rows if r[3] is not None]
    min_iters = min(iter_vals) if iter_vals else None
    min_p = min(p_vals) if p_vals else None
    out_rows = [[c, it, None if it is None else it - min_iters, st,
                 p, None if p is None else p - min_p, pst]
                for c, it, st, p, pst in rows]
    _write_csv(args.out, ["c", "lbfgs_iters", "lbfgs_extra_iters", "lbfgs_status",
                          "rsvd_oversamples", "rsvd_extra_oversamples",
                          "rsvd_status"], out_rows)
    return 0


# ---------------------------------------------------------------- robust

def _split_indices(n, test_frac, labels, rng):
    """Seeded train/test split, stratified when labels exist."""
    if labels is None:
        perm = rng.permutation(n)
        k = int(np.floor(test_frac * n))
        return np.sort(perm[k:]), np.sort(perm[:k])
    test = []
    for value in np.unique(labels):
        members = np.flatnonzero(labels == value)
        members = members[rng.permutation(len(members))]
        k = int(np.floor(test_frac * len(members)))
        test.extend(members[:k])
    test = np.sort(np.asarray(test, dtype=int))
    mask = np.ones(n, dtype=bool)
    mask[test] = False
    return np.flatnonzero(mask), test


def _cmd_robust(args):
    with _usage_phase():
        objectives = [parse_objective(t) for t in args.objectives.split(",")]
    base = _load_dataset(args)
    if args.synth_scales is not None and args.data is None:
        scales = np.asarray(args.synth_scales, dtype=float)
        if scales.shape != (base.d,):
            raise _Usage(f"--synth-scales needs {base.d} values")
        base = data_io.Dataset(base.values * scales[None, :], base.labels)
    rng = np.random.default_rng(args.seed)
    train_idx, test_idx = _split_indices(base.n, args.test_split, base.labels, rng)
    train, test = base.take_rows(train_idx), base.take_rows(test_idx)
    with _usage_phase():
        spec = _kernel_spec(args)

    def cell(tau, objective):
        noisy = data_io.contaminate(train, args.omega, tau, args.seed)
        cfg = SolveConfig(tol=args.tol, seed=args.seed)
        fitted = model_mod.fit(noisy, spec, objective, args.components, cfg)
        err = model_mod.reconstruction_error(fitted, test)
        kappa = fitted.objective.kappa if fitted.objective.kind != "square" else None
        return err, kappa, fitted.report.iterations, fitted.report.termination

    cells = [(tau, obj) for tau in args.tau_grid for obj in objectives]
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(lambda c: cell(*c), cells))
    else:
        outcomes = [cell(*c) for c in cells]
    rows = [[tau, format_objective(obj), *outcome]
            for (tau, obj), outcome in zip(cells, outcomes)]
    _write_csv(args.out, ["tau", "objective", "reconstruction_error", "kappa",
                          "iterations", "termination"], rows)
    return 0


# ---------------------------------------------------------------- sparse

def _cmd_sparse(args):
    if args.objective not in ("eps2", "epsinf"):
        raise _Usage("--objective must be eps2 or epsinf")
    kind = {"eps2": "eps_row2", "epsinf": "eps_linf"}[args.objective]
    dataset = _load_dataset(args)
    with _usage_phase():
        spec = _kernel_spec(args)
    spec = spec.resolve(dataset)
    Gc = kernels.center_gram(kernels.gram(dataset, spec))

    def baseline(s):
        cfg = SolveConfig(seed=args.seed)
        H, _ = dca_solve(Gc, s, ObjectiveSpec("square"), cfg)
        fitted = model_mod.assemble_model(Gc, spec, ObjectiveSpec("square"), s,
                                          H, dataset)
        return model_mod.reconstruction_error(fitted, dataset)

    def cell(s, eps, base_err):
        objective = ObjectiveSpec(kind, eps=eps)
        cfg = SolveConfig(seed=args.seed)
        try:
            H, rep = dca_solve(Gc, s, objective, cfg)
        except SingularMatrixError:
            # eps large enough to collapse the iterates entirely
            return None, None, None, None, None
        metrics = model_mod.sparsity_metrics(H)
        try:
            fitted = model_mod.assemble_model(Gc, spec, objective, s, H, dataset)
            err = model_mod.reconstruction_error(fitted, dataset)
            ratio = err / base_err if base_err > 0 else None
        except UnprojectableModelError:
            err, ratio = None, None
        return metrics, err, ratio, rep.iterations, rep.termination

    base_errs = {s: baseline(s) for s in args.components_grid}
    cells = [(s, eps) for s in args.components_grid for eps in args.eps_grid]
    run = lambda c: cell(c[0], c[1], base_errs[c[0]])
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(run, cells))
    else:
        outcomes = [run(c) for c in cells]
    rows = [[eps, s,
             None if m is None else m["zero_rows_pct"],
             None if m is None else m["zero_entries_pct"], *rest]
            for (s, eps), (m, *rest) in zip(cells, outcomes)]
    _write_csv(args.out, ["epsilon", "s", "zero_rows_pct", "zero_entries_pct",
                          "reconstruction_error", "error_ratio", "iterations",
                          "termination"], rows)
    return 0


# ---------------------------------------------------------------- wiring

class _Usage(Exception):
    pass


@contextlib.contextmanager
def _usage_phase():
    """Convert validation-time KpcaErrors into usage errors (exit 1)."""
    try:
        yield
    except KpcaError as exc:
        raise _Usage(str(exc)) from exc


def build_parser() -> _Parser:
    p = _Parser(prog="dckpca", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="fit a model and write it to disk")
    _add_data_flags(ps)
    _add_kernel_flags(ps)
    ps.add_argument("--components", type=int, required=True)
    ps.add_argument("--objective", default="square")
    ps.add_argument("--tol", type=float, default=1e-6,
                    help="stop once the relative fixed-point residual r = "
                         "||H - prox(grad pi(H))|| / ||H|| has r^2 <= TOL")
    ps.add_argument("--max-iters", type=int, default=None)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--solver", choices=("auto", "dca"), default="auto",
                    help="auto: L-BFGS for the square loss, DCA otherwise; "
                         "dca: DCA for every objective")
    ps.add_argument("--jitter", action="store_true",
                    help="add 1e-10*mean(diag)*I to the centered Gram")
    ps.add_argument("--out", required=True, help="model file path")
    ps.add_argument("--report", help="write the solve report JSON here "
                                     "instead of stdout")
    ps.set_defaults(func=_cmd_solve)

    pb = sub.add_parser("bench", help="timed solver comparison on one task")
    _add_data_flags(pb, synth_n=2000, synth_d=20)
    _add_kernel_flags(pb, kernel="laplace", sigma="auto")
    pb.add_argument("--components", type=int, default=20)
    pb.add_argument("--solvers", default="eig,rsvd,lbfgs")
    pb.add_argument("--delta", type=float, default=1e-2)
    pb.add_argument("--repeats", type=int, default=1)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--task", default="synth")
    pb.add_argument("--dump-dir", help="directory for per-solver H dumps")
    pb.add_argument("--out", help="CSV path (default stdout)")
    pb.set_defaults(func=_cmd_bench)

    pc = sub.add_parser("spectrum", help="controlled-spectrum study")
    pc.add_argument("--c-grid", type=_float_list, default=[0.01, 0.1, 0.5])
    pc.add_argument("--n", type=int, default=500)
    pc.add_argument("--delta", type=float, default=1e-4)
    pc.add_argument("--components", type=int, default=20)
    pc.add_argument("--q", type=int, default=2, help="rsvd power iterations")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", help="CSV path (default stdout)")
    pc.set_defaults(func=_cmd_spectrum)

    pr = sub.add_parser("robust", help="outlier-contamination study")
    _add_data_flags(pr, synth_n=150, synth_d=4)
    pr.add_argument("--synth-scales", type=_float_list, default=None,
                    help="per-column scaling for the synthetic dataset")
    _add_kernel_flags(pr, kernel="gaussian", sigma="1.0")
    pr.add_argument("--components", type=int, default=2)
    pr.add_argument("--objectives",
                    default="square,huber1:xmax:0.6,huber2:xmax:0.8")
    pr.add_argument("--omega", type=float, default=0.08)
    pr.add_argument("--tau-grid", type=_float_list, default=[10, 25, 50, 75, 100])
    pr.add_argument("--test-split", type=float, default=0.2)
    pr.add_argument("--tol", type=float, default=1e-6,
                    help="solver tolerance, as for solve")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--jobs", type=int, default=1)
    pr.add_argument("--out", help="CSV path (default stdout)")
    pr.set_defaults(func=_cmd_robust)

    pp = sub.add_parser("sparse", help="sparsity-accuracy tradeoff study")
    _add_data_flags(pp, synth_n=1000, synth_d=20)
    _add_kernel_flags(pp, kernel="gaussian", sigma="auto")
    pp.add_argument("--objective", default="eps2", help="eps2 or epsinf")
    pp.add_argument("--eps-grid", type=_float_list, required=True)
    pp.add_argument("--components-grid", type=_int_list, required=True)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--jobs", type=int, default=1)
    pp.add_argument("--out", help="CSV path (default stdout)")
    pp.set_defaults(func=_cmd_sparse)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"dckpca: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (DataError, FileNotFoundError) as exc:  # DataError before KpcaError
        print(f"dckpca: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (KpcaError, np.linalg.LinAlgError) as exc:
        print(f"dckpca: numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
