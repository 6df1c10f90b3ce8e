import csv
import json

import numpy as np
import pytest

from dckpca import dual_residual, gen_synth_gaussian, load_model
from dckpca.cli import main


def write_csv_dataset(path, n=40, d=4, seed=0, labels=False):
    ds = gen_synth_gaussian(n, d, seed)
    rng = np.random.default_rng(seed + 1)
    with open(path, "w") as fh:
        for i, row in enumerate(ds.values):
            cells = [repr(float(v)) for v in row]
            if labels:
                cells.append(str(int(rng.integers(0, 3))))
            fh.write(",".join(cells) + "\n")
    return ds


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_solve_square_writes_model_and_report(tmp_path, capsys):
    data = tmp_path / "train.csv"
    write_csv_dataset(data, n=150, d=4, seed=3)
    out = tmp_path / "model.dk"
    rc = main(["solve", "--data", str(data), "--format", "csv",
               "--kernel", "gaussian", "--sigma", "1.5",
               "--components", "2", "--objective", "square",
               "--tol", "1e-8", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    report = json.loads(capsys.readouterr().out)
    assert report["termination"] in ("gradient", "tolerance")
    assert report["spec_version"]
    model = load_model(out)
    assert model.s == 2 and model.n == 150


def test_solve_zero_components_is_usage_error(tmp_path):
    data = tmp_path / "t.csv"
    write_csv_dataset(data)
    rc = main(["solve", "--data", str(data), "--components", "0",
               "--sigma", "1.0", "--out", str(tmp_path / "m.dk")])
    assert rc == 1


def test_solve_missing_file_is_data_error(tmp_path):
    rc = main(["solve", "--data", str(tmp_path / "nope.csv"),
               "--components", "2", "--sigma", "1.0",
               "--out", str(tmp_path / "m.dk")])
    assert rc == 2


def test_solve_bad_objective_is_usage_error(tmp_path):
    data = tmp_path / "t.csv"
    write_csv_dataset(data)
    rc = main(["solve", "--data", str(data), "--components", "2",
               "--sigma", "1.0", "--objective", "banana:3",
               "--out", str(tmp_path / "m.dk")])
    assert rc == 1


def test_solve_huber_xmax_records_resolved_kappa(tmp_path, capsys):
    data = tmp_path / "t.csv"
    write_csv_dataset(data, n=60, d=4, seed=5)
    out = tmp_path / "m.dk"
    rc = main(["solve", "--data", str(data), "--kernel", "gaussian",
               "--sigma", "1.2", "--components", "2",
               "--objective", "huber1:xmax:0.6", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    model = load_model(out)
    assert model.objective.kind == "huber_l1"
    assert model.objective.kappa is not None and model.objective.kappa > 0
    assert np.max(np.abs(model.H)) <= model.objective.kappa * (1 + 1e-9)


def test_solve_at_its_iteration_cap_warns_and_still_writes_the_model(tmp_path, capsys):
    # a capped model can still project: it is written, the exit code stays 0,
    # and stderr names each capped stage and its cap, the pre-solve first
    data = tmp_path / "t.csv"
    write_csv_dataset(data, n=60, d=4, seed=5)
    out = tmp_path / "m.dk"
    rc = main(["solve", "--data", str(data), "--kernel", "gaussian",
               "--sigma", "1.2", "--components", "2",
               "--objective", "huber2:xmax:0.8", "--max-iters", "1",
               "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["termination"] == report["presolve"]["termination"] == "max_iters"
    assert captured.err.splitlines() == [
        "dckpca: warning: the xmax pre-solve stopped at its iteration cap (1) "
        "before reaching --tol",
        "dckpca: warning: the solve stopped at its iteration cap (1) "
        "before reaching --tol"]
    load_model(out)
    # a solve that reaches its tolerance prints nothing to stderr
    assert main(["solve", "--data", str(data), "--kernel", "gaussian",
                 "--sigma", "1.2", "--components", "2", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["termination"] == "tolerance"
    assert captured.err == ""


def test_solve_precomputed_gram(tmp_path, capsys):
    rng = np.random.default_rng(0)
    B = rng.standard_normal((25, 25))
    G = B @ B.T
    gpath = tmp_path / "g.csv"
    np.savetxt(gpath, 0.5 * (G + G.T), delimiter=",", fmt="%.17g")
    out = tmp_path / "m.dk"
    rc = main(["solve", "--data", str(gpath), "--format", "gram",
               "--components", "3", "--out", str(out), "--seed", "4"])
    assert rc == 0
    capsys.readouterr()
    model = load_model(out)
    assert model.kernel_spec.family == "precomputed"


def test_solve_report_to_file(tmp_path, capsys):
    data = tmp_path / "t.csv"
    write_csv_dataset(data, n=30, d=3, seed=6)
    rep = tmp_path / "report.json"
    rc = main(["solve", "--data", str(data), "--sigma", "1.0",
               "--components", "2", "--seed", "0",
               "--out", str(tmp_path / "m.dk"), "--report", str(rep)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(rep.read_text())["iterations"] >= 0


def test_solve_jitter_is_usage_error(tmp_path):
    # the jitter knob is gone: it could not lift the s-th eigenvalue of H'GH
    # above the singularity floor
    data = tmp_path / "t.csv"
    write_csv_dataset(data)
    with pytest.raises(SystemExit) as info:
        main(["solve", "--data", str(data), "--components", "2", "--sigma", "1.0",
              "--jitter", "--out", str(tmp_path / "m.dk")])
    assert info.value.code == 1


def test_solve_s_above_rank_names_rank(tmp_path, capsys):
    # a centered linear Gram on d=2 has rank 2, so s=3 cannot be fitted
    data = tmp_path / "t.csv"
    write_csv_dataset(data, n=50, d=2, seed=4)
    rc = main(["solve", "--data", str(data), "--kernel", "linear",
               "--components", "3", "--out", str(tmp_path / "m.dk")])
    assert rc == 3
    assert "s=3 likely exceeds the numerical rank of G" in capsys.readouterr().err


def test_bench_rows_converged_and_eta_recompute(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    dump = tmp_path
    rc = main(["bench", "--synth-n", "300", "--synth-d", "6",
               "--kernel", "gaussian", "--sigma", "1.5",
               "--components", "5", "--solvers", "eig,rsvd,lbfgs,dca",
               "--delta", "1e-2", "--repeats", "2", "--seed", "0",
               "--out", str(out), "--dump-dir", str(dump)])
    assert rc == 0
    capsys.readouterr()
    rows = read_rows(out)
    assert [r["solver"] for r in rows] == ["eig", "rsvd", "lbfgs", "dca"]
    for r in rows:
        assert float(r["eta"]) < 1e-2
        assert r["converged"] == "true"
        assert len(r["wall_samples"].split(";")) == 2
    lbfgs_row = rows[2]
    assert lbfgs_row["speedup_vs_rsvd"] != ""

    # eta recomputed from the serialized H matches the reported value
    from dckpca import KernelSpec, center_gram, gram
    ds = gen_synth_gaussian(300, 6, 0)
    Gc = center_gram(gram(ds, KernelSpec("gaussian", 1.5)))
    w = np.linalg.eigvalsh(Gc.entries)[::-1][:5]
    for r in rows:
        H = np.loadtxt(dump / f"H_{r['solver']}.csv", delimiter=",", ndmin=2)
        assert abs(dual_residual(Gc.entries, H, w) - float(r["eta"])) <= 1e-12


def test_bench_unknown_solver_usage_error(tmp_path):
    rc = main(["bench", "--solvers", "eig,miracle", "--out", str(tmp_path / "b.csv")])
    assert rc == 1


def test_spectrum_schema_and_statuses(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--c-grid", "0.05,0.3", "--n", "80",
               "--components", "4", "--delta", "1e-3", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rows = read_rows(out)
    assert [float(r["c"]) for r in rows] == [0.05, 0.3]
    for r in rows:
        assert r["rsvd_status"] in ("ok", "unreachable")
        assert r["lbfgs_status"] in ("ok", "singular", "max_iters", "stalled")
        if r["rsvd_status"] == "ok":
            assert int(r["rsvd_oversamples"]) >= 10
    ok_extra = [int(r["rsvd_extra_oversamples"]) for r in rows if r["rsvd_status"] == "ok"]
    assert not ok_extra or min(ok_extra) == 0


def test_robust_omega_zero_objectives_agree(tmp_path, capsys):
    out = tmp_path / "robust.csv"
    rc = main(["robust", "--synth-n", "60", "--synth-d", "4",
               "--kernel", "gaussian", "--sigma", "2.0",
               "--components", "2", "--omega", "0.0",
               "--tau-grid", "10", "--seed", "3", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rows = read_rows(out)
    errs = [float(r["reconstruction_error"]) for r in rows]
    assert len(errs) == 3
    spread = (max(errs) - min(errs)) / min(errs)
    assert spread <= 0.01  # no outliers: near-identical errors


def test_robust_stratified_split_runs_with_labels(tmp_path, capsys):
    data = tmp_path / "lab.csv"
    write_csv_dataset(data, n=60, d=3, seed=9, labels=True)
    out = tmp_path / "robust.csv"
    rc = main(["robust", "--data", str(data), "--format", "csv",
               "--label-col", "3", "--kernel", "gaussian", "--sigma", "2.0",
               "--components", "2", "--omega", "0.1", "--tau-grid", "50",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert len(read_rows(out)) == 3


def test_sparse_eps_zero_ratio_one(tmp_path, capsys):
    out = tmp_path / "sparse.csv"
    rc = main(["sparse", "--synth-n", "120", "--synth-d", "6",
               "--kernel", "gaussian", "--sigma", "2.5",
               "--objective", "eps2", "--eps-grid", "0,0.2",
               "--components-grid", "3", "--seed", "0", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rows = read_rows(out)
    zero_row = rows[0]
    assert float(zero_row["epsilon"]) == 0.0
    assert abs(float(zero_row["error_ratio"]) - 1.0) <= 1e-6
    assert float(zero_row["zero_rows_pct"]) == 0.0


def test_sparse_and_robust_csvs_reproducible(tmp_path, capsys):
    args = ["sparse", "--synth-n", "80", "--synth-d", "5",
            "--kernel", "gaussian", "--sigma", "2.0", "--objective", "eps2",
            "--eps-grid", "0,0.1,0.3", "--components-grid", "2,3", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sparse_and_robust_csvs_report_iterations_and_termination(tmp_path, capsys):
    sparse_out, robust_out = tmp_path / "sparse.csv", tmp_path / "robust.csv"
    assert main(["sparse", "--synth-n", "60", "--synth-d", "4",
                 "--kernel", "gaussian", "--sigma", "2.0", "--objective", "eps2",
                 "--eps-grid", "0,5", "--components-grid", "2", "--seed", "1",
                 "--out", str(sparse_out)]) == 0
    assert main(["robust", "--synth-n", "50", "--synth-d", "3",
                 "--kernel", "gaussian", "--sigma", "2.0", "--components", "2",
                 "--tau-grid", "10", "--seed", "4", "--out", str(robust_out)]) == 0
    capsys.readouterr()
    solved, collapsed = read_rows(sparse_out)
    assert int(solved["iterations"]) > 0 and solved["termination"] == "tolerance"
    # eps=5 collapses the iterates: no solve to report
    assert collapsed["zero_rows_pct"] == collapsed["iterations"] == ""
    assert collapsed["termination"] == ""
    for row in read_rows(robust_out):
        assert int(row["iterations"]) > 0
        assert row["termination"] in ("gradient", "tolerance")


def test_sparse_jobs_concurrent_matches_serial(tmp_path, capsys):
    base = ["sparse", "--synth-n", "60", "--synth-d", "4",
            "--kernel", "gaussian", "--sigma", "2.0", "--objective", "epsinf",
            "--eps-grid", "0,0.05", "--components-grid", "2", "--seed", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_robust_jobs_concurrent_matches_serial(tmp_path, capsys):
    base = ["robust", "--synth-n", "50", "--synth-d", "3",
            "--kernel", "gaussian", "--sigma", "2.0", "--components", "2",
            "--omega", "0.1", "--tau-grid", "10,50", "--seed", "4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_bench_csv_reproducible_modulo_timing(tmp_path, capsys):
    args = ["bench", "--synth-n", "120", "--synth-d", "5",
            "--kernel", "gaussian", "--sigma", "1.5", "--components", "3",
            "--solvers", "eig,lbfgs", "--delta", "1e-2", "--seed", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    timing = {"wall_seconds", "wall_samples", "speedup_vs_rsvd"}
    rows_a, rows_b = read_rows(a), read_rows(b)
    for ra, rb in zip(rows_a, rows_b):
        for key in ra:
            if key not in timing:
                assert ra[key] == rb[key]


def test_every_command_is_deterministic(tmp_path):
    # each command twice with the same seed: the same bytes, wall-clock
    # fields aside; solve and robust fit float32 Grams, the rest float64 ones
    from scipy import sparse
    from dckpca import Dataset, serialize_libsvm
    data = tmp_path / "train.csv"
    write_csv_dataset(data, n=150, d=4, seed=3)
    libsvm = tmp_path / "train.libsvm"
    X = sparse.random(120, 30, density=0.2, format="csr",
                      random_state=np.random.default_rng(4))
    libsvm.write_text(serialize_libsvm(Dataset(X)))
    commands = {
        "solve-csv": ["solve", "--data", str(data), "--sigma", "1.5",
                      "--components", "3", "--seed", "1"],
        "solve-libsvm": ["solve", "--data", str(libsvm), "--format", "libsvm",
                         "--sigma", "2.0", "--components", "3",
                         "--objective", "huber2:xmax:0.8", "--seed", "1"],
        "robust": ["robust", "--synth-n", "50", "--synth-d", "3", "--kernel",
                   "gaussian", "--sigma", "2.0", "--components", "2",
                   "--omega", "0.1", "--tau-grid", "10,50", "--seed", "4"],
        "sparse": ["sparse", "--synth-n", "80", "--synth-d", "5", "--kernel",
                   "gaussian", "--sigma", "2.0", "--objective", "eps2",
                   "--eps-grid", "0,0.1,0.3", "--components-grid", "2,3",
                   "--seed", "5"],
        "bench": ["bench", "--synth-n", "120", "--synth-d", "5", "--kernel",
                  "gaussian", "--sigma", "1.5", "--components", "3",
                  "--solvers", "eig,lbfgs", "--delta", "1e-2", "--seed", "2"],
        "spectrum": ["spectrum", "--c-grid", "0.05,0.3", "--n", "80",
                     "--components", "4", "--delta", "1e-3", "--seed", "1"],
    }
    timing = {"wall_seconds", "wall_samples", "speedup_vs_rsvd"}

    def untimed(report):
        return {k: untimed(v) if k == "presolve" else v
                for k, v in report.items() if k not in timing}

    for name, args in commands.items():
        runs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}.out"
            if args[0] == "solve":
                report = tmp_path / f"{name}-{run}.json"
                assert main(args + ["--out", str(out), "--report", str(report)]) == 0
                runs.append((out.read_bytes(), untimed(json.loads(report.read_text()))))
            else:
                assert main(args + ["--out", str(out)]) == 0
                rows = read_rows(out)
                runs.append([{k: v for k, v in row.items() if k not in timing}
                             for row in rows] if timing & set(rows[0]) else out.read_bytes())
        assert runs[0] == runs[1], name


def test_bench_rsvd_unreachable_marks_unconverged(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--synth-n", "60", "--synth-d", "4",
               "--kernel", "gaussian", "--sigma", "1.5", "--components", "3",
               "--solvers", "rsvd", "--delta", "0", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rows = read_rows(out)
    # eta >= 0, so delta 0 is never met; any positive delta can be, since at
    # the cap p = n - s the sketch spans R^n and eta may round to exactly 0
    assert rows[0]["converged"] == "false"
    assert rows[0]["iters_or_oversamples"] == "57"  # the cap n - s = 60 - 3


def test_solve_report_nests_the_presolve(tmp_path, capsys):
    data = tmp_path / "t.csv"
    write_csv_dataset(data, n=60, d=4, seed=5)
    base = ["solve", "--data", str(data), "--kernel", "gaussian", "--sigma", "1.2",
            "--components", "2", "--seed", "2", "--out", str(tmp_path / "m.dk")]
    assert main(base + ["--objective", "huber2:xmax:0.8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["presolve"]["termination"] == "tolerance"
    assert report["presolve"]["iterations"] == len(report["presolve"]["cost_trace"]) - 1
    assert main(base + ["--objective", "square"]) == 0
    assert "presolve" not in json.loads(capsys.readouterr().out)


def test_solve_solver_lbfgs_is_usage_error(tmp_path):
    data = tmp_path / "t.csv"
    write_csv_dataset(data)
    with pytest.raises(SystemExit) as info:
        main(["solve", "--data", str(data), "--components", "2", "--sigma", "1.0",
              "--solver", "lbfgs", "--out", str(tmp_path / "m.dk")])
    assert info.value.code == 1


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("fmt", ["csv", "libsvm", "gram"])
def test_solve_non_finite_input_is_data_error(tmp_path, capsys, fmt, bad):
    data = tmp_path / f"t.{fmt}"
    text = {"csv": f"1,2\n{bad},4\n0.5,1\n",
            "libsvm": f"0 1:1 2:2\n0 1:{bad}\n0 2:0.5\n",
            "gram": f"2,1,0\n1,{bad},0\n0,0,1\n"}[fmt]
    data.write_text(text)
    rc = main(["solve", "--data", str(data), "--format", fmt, "--components", "1",
               "--out", str(tmp_path / "m.dk")])
    assert rc == 2
    assert ("row 2" if fmt == "gram" else "line 2") in capsys.readouterr().err
