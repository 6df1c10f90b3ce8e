"""Set up, warm up, measure, check and report one run of one workload.

End-to-end metrics come from untraced ops. With ``--trace 1`` the timed
loop alternates untraced and traced ops on the same input, and the run
reports per-layer numbers from the traced ones instead (see README.md).
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import trim_mean

import dckpca
from dckpca import baselines, cli, data_io
from dckpca import model as model_mod
from dckpca.errors import ToleranceUnreachableError

from . import checks
from .tracer import Tracer, self_times
from .workloads import BATCH_ROWS, WORKLOADS, make_case, solve_argv

END_TO_END = {"fit_s": "s", "fit_peak_rss_mb": "MB",
              "project_batch_rows_per_s": "rows/s", "project_row_ms": "ms",
              "setup_s": "s"}
LAYERS = ("cli", "data_io", "kernels", "solvers", "dual_core", "objectives", "model")
PER_LAYER = {
    "data_io.load_s": "s", "data_io.input_bytes": "B",
    "kernels.gram_s": "s", "kernels.center_gram_s": "s",
    "kernels.gram_bytes_computed": "B", "kernels.kernel_rows_s": "s",
    "solvers.lbfgs_s": "s", "solvers.lbfgs_iters": "count",
    "solvers.dca_s": "s", "solvers.dca_iters": "count",
    "solvers.max_iters_stops": "count",
    "solvers.gemm_floor_s": "s", "solvers.lbfgs_floor_ratio": "ratio",
    "solvers.dca_floor_ratio": "ratio", "solvers.flops_per_iter_computed": "flop",
    "dual_core.grad_pi_calls": "count", "dual_core.grad_pi_s": "s",
    "dual_core.sym_eig_small_calls": "count", "dual_core.sym_eig_small_s": "s",
    "objectives.prox_calls": "count", "objectives.prox_s": "s",
    "model.assemble_s": "s", "model.save_s": "s",
    "model.project_s": "s", "model.recover_primal_s": "s",
    "baselines.kpca_dense_eig_s": "s", "baselines.rsvd_adaptive_s": "s",
    "baselines.rsvd_p": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace_overhead_frac": "ratio",
}

# One cycle of the timed loop is a fit, then this many 1000-row batches and
# single-row queries on the model it wrote, so projection samples come from
# as many stretches of the run as there are fits.
CYCLE_BATCHES = 4
CYCLE_ROWS = 500
GEMM_REPEATS = 5          # G @ H samples after each traced cycle

# The reported value of a timing is the mean of its per-cycle medians, with
# this share cut from each end. On a shared VM the host switches, for seconds
# at a time, between speeds that differ by up to 1.6x for the same op; a run's
# plain median then jumps from one speed to the other as the share of time
# spent at each crosses one half, while this mean moves in proportion to it.
TRIM = 0.1


def summary(samples, value, of, scale=lambda t: t):
    """The reported ``value`` (``of`` says how it was taken), plus the median
    and the highest percentile with at least ten samples beyond it (None when
    there are too few) over all ``samples``, and their count. ``scale`` maps
    a time to the metric's unit."""
    out = {"value": scale(value), "of": of, "n": len(samples),
           "median": scale(statistics.median(samples)), "high": None}
    for p in (99.9, 99, 95, 90, 75):
        if len(samples) * (1 - p / 100) >= 10:
            out["high"] = (f"p{p:g}", scale(float(np.percentile(samples, p))))
            break
    return out


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpu": cpu}


class Run:
    def __init__(self, wl, seed, workdir, root):
        self.wl, self.seed, self.workdir, self.root = wl, seed, workdir, root
        self.cases = []
        self.tracer = Tracer()
        self.attempted = 0
        self.failures = []
        self.untraced = {"fit": [], "batch": [], "row": []}
        self.cycle_medians = {"fit": [], "batch": [], "row": []}   # untraced
        self.traced = {"fit": [], "batch": [], "row": []}   # (op id, seconds)
        self.extra = {}                              # per-layer numbers not from spans
        self.gemm_s = []                             # G @ H samples (traced runs)

    # ------------------------------------------------------------ ops

    def _fail(self, op, detail):
        self.failures.append({"op": op, "detail": detail})
        return None

    def _timed(self, kind, trace, fn):
        """Run one op, traced or not; returns (result, seconds), or None when
        the op raised. Records the sample."""
        self.attempted += 1
        try:
            with self.tracer.installed() if trace else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = fn()
                dt = time.perf_counter() - t0
        except Exception as exc:   # an op that raises counts as failed
            return self._fail(kind, repr(exc))
        if trace:
            self.traced[kind].append((self.tracer.op_count, dt))
        return result, dt

    def fit(self, case, trace=False, record=True):
        """One `dckpca solve` op, input file to model file, then its check."""
        done = self._timed("fit", trace, lambda: cli.main(
            solve_argv(self.wl, case, case.model_path)))
        if done is None:
            return None
        rc, dt = done
        if rc != 0:
            return self._fail("fit", f"exit code {rc}")
        try:
            result = self._check_fit(case)
        except (OSError, ValueError, KeyError, IndexError) as exc:   # unreadable model
            return self._fail("fit", repr(exc))
        if not result["ok"]:
            return self._fail("fit", result)
        if record and not trace:
            self.untraced["fit"].append(dt)
        return dt

    def _check_fit(self, case):
        header, H = checks.read_model(case.model_path)
        if self.wl.check == "eta":
            return checks.square_fit(case.Gc, case.top, H)
        kappa = float(header["objective"].split(":")[1])
        return checks.huber_row2_fit(case.Gc, H, kappa)

    def prepare_queries(self, case):
        """Load the case's model the way a user does and build the reference
        projections of its query set."""
        if self.wl.fmt == "csv":
            dataset = data_io.load_csv(case.path)
        else:
            with open(case.path) as fh:
                dataset = data_io.parse_libsvm(fh)
        case.model = dckpca.attach_training_data(dckpca.load_model(case.model_path),
                                                 dataset)
        _, H = checks.read_model(case.model_path)
        case.P_ref = checks.reference_projection(case.X, self.wl.sigma, case.col_means,
                                                 case.grand, case.Gc, H, case.Q)

    def project(self, case, rows, kind, trace=False):
        queries = case.Q_in[rows]
        done = self._timed(kind, trace, lambda: model_mod.project(case.model, queries))
        if done is None:
            return None
        P, dt = done
        result = checks.projection(P, case.P_ref[rows])
        if not result["ok"]:
            return self._fail(kind, result)
        if not trace:
            self.untraced[kind].append(dt)
        return dt

    def batch(self, case, b, trace=False):
        return self.project(case, case.batch(b), "batch", trace)

    def row(self, case, i, trace=False):
        i %= case.Q.shape[0]
        # 1-d for dense inputs (a single query vector), a 1-row CSR otherwise
        return self.project(case, i if self.wl.density is None else slice(i, i + 1),
                            "row", trace)

    # ------------------------------------------------------------ phases

    def setup(self):
        for k in range(self.wl.datasets):
            self.cases.append(make_case(self.wl, self.seed, k, self.workdir))
        # The first fit in a process pays one-off costs (~2.3 s against
        # ~1.3 s on square-dense); it is neither timed nor a set-up cost.
        warm = self.cases[0]
        if self.fit(warm, record=False) is not None:
            self.prepare_queries(warm)
            model_mod.project(warm.model, warm.Q_in[warm.batch(0)])
            model_mod.project(warm.model, warm.Q_in[0])

    def measure(self, seconds, trace):
        """The timed loop, one closed-loop client: cycles over the inputs
        until ``seconds`` have passed. Traced runs do each op untraced, then
        traced, on the same input."""
        modes = (False, True) if trace else (False,)
        deadline = time.perf_counter() + seconds
        j = 0
        while j == 0 or time.perf_counter() < deadline:
            case = self.cases[j % len(self.cases)]
            start = {kind: len(samples) for kind, samples in self.untraced.items()}
            fitted = [self.fit(case, traced) is not None for traced in modes]
            if all(fitted):
                if case.model is None:
                    self.prepare_queries(case)
                self.queries(case, j, modes)
            for kind, samples in self.untraced.items():
                if len(samples) > start[kind]:
                    self.cycle_medians[kind].append(statistics.median(samples[start[kind]:]))
            if trace:
                self.time_gemm(case)
            j += 1

    def time_gemm(self, case):
        """The n^2 s floor: G @ H on the input's own centered Gram, sampled
        next to the traced ops so both see the same machine state."""
        H = np.random.default_rng(case.k).standard_normal((self.wl.n, self.wl.s))
        for _ in range(GEMM_REPEATS):
            t0 = time.perf_counter()
            case.Gc @ H
            self.gemm_s.append(time.perf_counter() - t0)

    def queries(self, case, j, modes):
        for traced in modes:
            for b in range(CYCLE_BATCHES):
                self.batch(case, j * CYCLE_BATCHES + b, traced)
            for i in range(CYCLE_ROWS):
                self.row(case, j * CYCLE_ROWS + i, traced)

    def peak_rss_mb(self):
        """Peak RSS of a fresh process that runs one `dckpca solve`."""
        case = self.cases[0]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(self.root / "src"), str(self.root)]))
        argv = solve_argv(self.wl, case, self.workdir / "rss_probe.dk")
        self.attempted += 1
        try:
            proc = subprocess.run([sys.executable, "-m", "perfbench.rss_probe", *argv],
                                  env=env, capture_output=True, text=True, timeout=150)
        except subprocess.TimeoutExpired:
            return self._fail("rss_probe", "timed out")
        if proc.returncode != 0:
            return self._fail("rss_probe", f"exit code {proc.returncode}")
        return int(proc.stdout.split()[-1]) / 1024.0

    def floor_and_baselines(self):
        """Trace-only numbers timed directly: the G @ H floor, and the paper's
        comparison rows on the first input."""
        case = self.cases[0]
        self.extra["solvers.gemm_floor_s"] = statistics.median(self.gemm_s)
        self.extra.update({"baselines.kpca_dense_eig_s": 0.0,
                           "baselines.rsvd_adaptive_s": 0.0, "baselines.rsvd_p": 0})
        if not self.wl.baselines:
            return
        t0 = time.perf_counter()
        _, H_eig = baselines.kpca_dense_eig(case.Gc, self.wl.s)
        self.extra["baselines.kpca_dense_eig_s"] = time.perf_counter() - t0
        self._check_baseline("eig", case, H_eig)
        t0 = time.perf_counter()
        try:
            pairs, p = baselines.rsvd_adaptive(case.Gc, self.wl.s, self.wl.tol,
                                               seed=self.seed, top_eigs=case.top)
        except ToleranceUnreachableError as exc:
            self.attempted += 1
            self._fail("rsvd", repr(exc))
            return
        self.extra["baselines.rsvd_adaptive_s"] = time.perf_counter() - t0
        self.extra["baselines.rsvd_p"] = p
        self._check_baseline("rsvd", case, baselines.h_from_pairs(pairs))

    def _check_baseline(self, name, case, H):
        self.attempted += 1
        result = checks.square_fit(case.Gc, case.top, H)
        if not result["ok"]:
            self._fail(name, result)

    # ------------------------------------------------------------ metrics

    def end_to_end(self):
        def timing(kind, scale=lambda t: t):
            cycles = self.cycle_medians[kind]
            return summary(self.untraced[kind], float(trim_mean(cycles, TRIM)),
                           f"trimmed mean of {len(cycles)} cycle medians", scale)
        setups = [c.setup_s for c in self.cases]
        return {
            "fit_s": timing("fit"),
            "fit_peak_rss_mb": None,     # filled in by the caller
            "project_batch_rows_per_s": timing("batch", lambda t: BATCH_ROWS / t),
            "project_row_ms": timing("row", lambda t: 1e3 * t),
            "setup_s": summary(setups, statistics.median(setups),
                               f"median of {len(setups)} inputs"),
        }

    def per_layer(self):
        by_op = self.tracer.by_op()
        fit_ops = [fit_metrics(by_op[op], self.extra["solvers.gemm_floor_s"])
                   for op, _ in self.traced["fit"]]
        batch_ops = [batch_metrics(by_op[op]) for op, _ in self.traced["batch"]]
        self_ops = [self_times(by_op[op]) for op, _ in self.traced["fit"]]
        out = {}
        for name in PER_LAYER:
            values = [m[name] for m in fit_ops + batch_ops if name in m]
            out[name] = statistics.median(values) if values else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = statistics.median(
                [st.get(layer, 0.0) for st in self_ops]) if self_ops else 0.0
        n = self.wl.n
        out["data_io.input_bytes"] = self.cases[0].path.stat().st_size
        out["kernels.gram_bytes_computed"] = 8 * n * n
        out["solvers.flops_per_iter_computed"] = 2 * n * n * self.wl.s
        out.update(self.extra)
        traced = [dt for _, dt in self.traced["fit"]]
        out["trace_overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(self.untraced["fit"]) - 1.0)
        return out

    def rationale(self, layers):
        """One line that says whether the traced ops match why the workload
        was chosen: shares of the median traced fit, and solver calls seen
        while projecting (there should be none)."""
        by_op = self.tracer.by_op()
        solver_calls = sum(sp.name.startswith(("solvers.", "dual_core.", "objectives."))
                           for kind in ("batch", "row") for op, _ in self.traced[kind]
                           for sp in by_op[op])
        fit = statistics.median(dt for _, dt in self.traced["fit"])
        kernels = layers["kernels.gram_s"] + layers["kernels.center_gram_s"]
        return (f"rationale: shares of fit_s (traced median {fit:.4g} s): "
                f"kernels.gram+center_gram {kernels / fit:.3f}, "
                f"solvers.lbfgs {layers['solvers.lbfgs_s'] / fit:.3f}, "
                f"solvers.dca {layers['solvers.dca_s'] / fit:.3f}; "
                f"solver-layer calls in traced projections: {solver_calls}")


def _totals(spans):
    total, calls = {}, {}
    for sp in spans:
        total[sp.name] = total.get(sp.name, 0.0) + sp.duration
        calls[sp.name] = calls.get(sp.name, 0) + 1
    return total, calls


def fit_metrics(spans, gemm_s):
    """Per-layer numbers of one traced fit op."""
    total, calls = _totals(spans)
    iters = {"lbfgs": 0, "dca": 0}
    products = {"lbfgs": 0, "dca": 0}
    capped = 0
    for sp in spans:
        kind = {"solvers.lbfgs_solve": "lbfgs", "solvers.dca_solve": "dca"}.get(sp.name)
        if kind is None:
            continue
        it = sp.info["iterations"]
        iters[kind] += it
        # G-products: L-BFGS does one per accepted step plus the initial GH
        # and a refresh every 64 steps; DCA one per cost evaluation.
        products[kind] += it + 1 + (it // 64 if kind == "lbfgs" else 0)
        capped += sp.info["termination"] == "max_iters"
    out = {
        "data_io.load_s": total.get("data_io.load_csv", 0.0)
        + total.get("data_io.parse_libsvm", 0.0),
        "kernels.gram_s": total.get("kernels.gram", 0.0),
        "kernels.center_gram_s": total.get("kernels.center_gram", 0.0),
        "solvers.max_iters_stops": capped,
        "dual_core.grad_pi_calls": calls.get("dual_core.grad_pi", 0),
        "dual_core.grad_pi_s": total.get("dual_core.grad_pi", 0.0),
        "dual_core.sym_eig_small_calls": calls.get("dual_core.sym_eig_small", 0),
        "dual_core.sym_eig_small_s": total.get("dual_core.sym_eig_small", 0.0),
        "objectives.prox_calls": calls.get("objectives.prox_psi_star", 0),
        "objectives.prox_s": total.get("objectives.prox_psi_star", 0.0),
        "model.assemble_s": total.get("model.assemble_model", 0.0),
        "model.save_s": total.get("model.save_model", 0.0),
    }
    for kind in ("lbfgs", "dca"):
        spent = total.get(f"solvers.{kind}_solve", 0.0)
        out[f"solvers.{kind}_s"] = spent
        out[f"solvers.{kind}_iters"] = iters[kind]
        out[f"solvers.{kind}_floor_ratio"] = (spent / (products[kind] * gemm_s)
                                              if products[kind] else 0.0)
    return out


def batch_metrics(spans):
    """Per-layer numbers of one traced 1000-row projection."""
    total, _ = _totals(spans)
    return {"kernels.kernel_rows_s": total.get("kernels.kernel_rows", 0.0),
            "model.project_s": total.get("model.project", 0.0),
            "model.recover_primal_s": total.get("model.recover_primal_coefficients", 0.0)}


def _fmt_summary(name, unit, s):
    high = "" if s["high"] is None else f", at {s['high'][0]} of op time {s['high'][1]:.6g}"
    return (f"{name}: {s['value']:.6g} {unit} ({s['of']}; "
            f"median {s['median']:.6g}{high}, n={s['n']})")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    env = environment()
    out_dir = root / ".perfbench_run"
    workdir = out_dir / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(wl, args.seed, workdir, root)
    trace = bool(args.trace)
    rss = None
    try:
        run.setup()
        run.measure(args.seconds, trace)
        if trace:
            run.floor_and_baselines()
            layers = run.per_layer()
            metrics = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
        elif run.untraced["fit"] and run.untraced["batch"] and run.untraced["row"]:
            e2e = run.end_to_end()
            rss = run.peak_rss_mb()
            e2e["fit_peak_rss_mb"] = summary([rss], rss, "one fresh process")
            metrics = {name: (e2e[name]["value"], unit)
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    for failure in run.failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)
    if not trace and (not run.untraced["fit"] or rss is None):
        print("perfbench: no measurement for some metric; every such op failed",
              file=sys.stderr)
        return 1
    print(f"env: {json.dumps(env)}")
    print(f"workload: {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if trace:
        for name, (value, unit) in metrics.items():
            print(f"{name}: {value:.6g} {unit}")
        print(run.rationale(layers))
    else:
        for name, unit in END_TO_END.items():
            print(_fmt_summary(name, unit, e2e[name]))
    print(f"fail_frac: {failed / run.attempted:.6g} ratio ({failed} of {run.attempted} ops)")

    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "result": result,
              "failures": run.failures,
              "summaries": {} if trace else e2e,
              "spans": run.tracer.to_json() if trace else []}
    with open(out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, default=str)
    print(json.dumps(result))
    return 0
