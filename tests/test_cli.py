import csv
import json
import warnings

import numpy as np
import pytest

from dckpca import dual_residual, gen_synth_gaussian, load_model
from dckpca.baselines import _dense
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


def assert_usage_error(rc, capsys, named, out):
    """Exit code 1, one stderr line that starts "dckpca: error: " + ``named``,
    and nothing written to ``out``."""
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dckpca: error: {named}") and err.count("\n") == 1, err
    assert not out.exists()
    return err


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


def test_solve_zero_components_is_usage_error(tmp_path, capsys):
    data = tmp_path / "t.csv"
    write_csv_dataset(data)
    rc = main(["solve", "--data", str(data), "--components", "0",
               "--sigma", "1.0", "--out", str(tmp_path / "m.dk")])
    assert_usage_error(rc, capsys, "argument --components: ", tmp_path / "m.dk")


@pytest.mark.parametrize("argv, flag", [
    (["bench", "--synth-n", "40", "--components", "0"], "--components"),
    (["spectrum", "--n", "40", "--components", "0"], "--components"),
    (["spectrum", "--n", "40", "--q", "-1"], "--q"),
    (["robust", "--synth-n", "40", "--components", "0"], "--components"),
    (["sparse", "--synth-n", "40", "--eps-grid", "0", "--components-grid", "2,0"],
     "--components-grid"),
    (["spectrum", "--n", "0"], "--n"),
])
def test_count_flag_below_its_floor_is_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    rc = main(argv + ["--out", str(out)])
    err = assert_usage_error(rc, capsys, f"argument {flag}: ", out)
    assert "is not an integer >= " in err


@pytest.mark.parametrize("argv, flag, n", [
    (["solve", "--data", "{csv}", "--sigma", "1.0", "--components", "6"],
     "--components", 4),
    (["bench", "--synth-n", "30", "--components", "40", "--solvers", "eig"],
     "--components", 30),
    (["spectrum", "--n", "10", "--components", "20"], "--components", 10),
    (["robust", "--synth-n", "20", "--components", "30"], "--components", 16),
    (["sparse", "--synth-n", "10", "--eps-grid", "0", "--components-grid", "2,20"],
     "--components-grid", 10),
], ids=["solve", "bench", "spectrum", "robust", "sparse"])
def test_count_flag_above_the_sample_count_is_usage_error(tmp_path, capsys, argv,
                                                          flag, n):
    # n is the rows the command fits on: robust's are its training rows
    data = tmp_path / "t.csv"
    write_csv_dataset(data, n=4)
    rc = main([a.format(csv=data) for a in argv] + ["--out", str(tmp_path / "out")])
    assert_usage_error(rc, capsys, f"{flag} must be <= {n}", tmp_path / "out")


@pytest.mark.parametrize("split, named", [
    ("1.5", "argument --test-split: "), ("1", "argument --test-split: "),
    ("0", "argument --test-split: "), ("-0.5", "argument --test-split: "),
    ("0.01", "--test-split leaves "),
], ids=["1.5", "1", "0", "-0.5", "0.01"])
def test_robust_test_split_outside_its_range_is_usage_error(tmp_path, capsys, split,
                                                            named):
    # 0.01 of 40 rows floors to an empty test side, which needs the input
    rc = main(["robust", "--synth-n", "40", f"--test-split={split}",
               "--out", str(tmp_path / "r.csv")])
    assert_usage_error(rc, capsys, named, tmp_path / "r.csv")


SOLVE = ["solve", "--data", "{csv}", "--sigma", "1.0", "--components", "2"]


# a domain that needs no input is the flag's argparse type, so its refusal
# names "argument FLAG: "; bench's positive --delta (for the lbfgs and dca
# rows) and repeated --solvers depend on another flag and are refused after
# parsing, as "FLAG ..."
@pytest.mark.parametrize("argv, named", [
    (SOLVE + ["--tol", "0"], "argument --tol: "),
    (SOLVE + ["--tol", "nan"], "argument --tol: "),
    (["robust", "--synth-n", "40", "--tol", "0"], "argument --tol: "),
    (["spectrum", "--n", "30", "--components", "2", "--delta", "0"], "argument --delta: "),
    (["sparse", "--synth-n", "40", "--eps-grid", "0,-1", "--components-grid", "2"],
     "argument --eps-grid: "),
    (["robust", "--synth-n", "40", "--tau-grid", "10,-5"], "argument --tau-grid: "),
    (["robust", "--synth-n", "40", "--tau-grid", "0"], "argument --tau-grid: "),
    (["spectrum", "--n", "40", "--components", "2", "--c-grid", "0.1,-1"],
     "argument --c-grid: "),
    (["robust", "--synth-n", "40", "--omega", "2"], "argument --omega: "),
    (["robust", "--synth-n", "40", "--jobs", "0"], "argument --jobs: "),
    (["sparse", "--synth-n", "40", "--eps-grid", "0", "--components-grid", "2",
      "--jobs", "0"], "argument --jobs: "),
    (SOLVE + ["--max-iters", "0"], "argument --max-iters: "),
    (["bench", "--synth-n", "40", "--components", "2", "--solvers", "rsvd,dca",
      "--delta", "0"], "--delta "),
    (["bench", "--synth-n", "40", "--components", "2", "--solvers", "rsvd",
      "--delta", "-1"], "argument --delta: "),
    (["bench", "--synth-n", "40", "--components", "2", "--solvers", "rsvd",
      "--delta", "inf"], "argument --delta: "),
    (["bench", "--synth-n", "40", "--components", "2", "--solvers", ","],
     "argument --solvers: "),
    (["bench", "--synth-n", "40", "--components", "2", "--solvers", "eig,eig"],
     "--solvers "),
    (["bench", "--synth-n", "40", "--components", "2", "--solvers", "eig,miracle"],
     "argument --solvers: "),
], ids=["solve-tol", "solve-tol-nan", "robust-tol", "spectrum-delta", "sparse-eps-grid",
        "robust-tau-grid", "robust-tau-grid-zero", "spectrum-c-grid", "robust-omega",
        "robust-jobs", "sparse-jobs", "solve-max-iters", "bench-delta", "bench-delta-negative",
        "bench-delta-inf", "bench-solvers-empty",
        "bench-solvers-repeated", "bench-solvers-unknown"])
def test_flag_value_out_of_its_range_is_usage_error(tmp_path, capsys, argv, named):
    data = tmp_path / "t.csv"
    write_csv_dataset(data)
    rc = main([a.format(csv=data) for a in argv] + ["--out", str(tmp_path / "out")])
    assert_usage_error(rc, capsys, named, tmp_path / "out")


@pytest.mark.parametrize("col", ["3", "-4"])
def test_label_col_naming_no_column_is_usage_error(tmp_path, capsys, col):
    data = tmp_path / "t.csv"
    write_csv_dataset(data, d=3)
    rc = main(["solve", "--data", str(data), f"--label-col={col}", "--sigma", "1.0",
               "--components", "1", "--out", str(tmp_path / "m.dk")])
    assert "the 3 columns" in assert_usage_error(rc, capsys, "--label-col",
                                                 tmp_path / "m.dk")


def test_solve_missing_file_is_data_error(tmp_path):
    rc = main(["solve", "--data", str(tmp_path / "nope.csv"),
               "--components", "2", "--sigma", "1.0",
               "--out", str(tmp_path / "m.dk")])
    assert rc == 2


def test_solve_bad_objective_is_usage_error(tmp_path, capsys):
    data = tmp_path / "t.csv"
    write_csv_dataset(data)
    rc = main(["solve", "--data", str(data), "--components", "2",
               "--sigma", "1.0", "--objective", "banana:3",
               "--out", str(tmp_path / "m.dk")])
    err = assert_usage_error(rc, capsys, "argument --objective: ", tmp_path / "m.dk")
    assert "unknown objective 'banana:3'" in err


@pytest.mark.parametrize("command, argv, flag", [
    ("solve", ["--objective", "huber1"], "--objective"),
    ("robust", ["--objectives", "square,huber2:xmax:-1"], "--objectives"),
    ("sparse", ["--objective", "huber1:1"], "--objective"),
])
def test_objective_outside_the_commands_catalog_is_usage_error(tmp_path, capsys, command,
                                                              argv, flag):
    assert_usage_error(_kernel_command(tmp_path, command, *argv), capsys,
                       f"argument {flag}: ", tmp_path / "out")


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


def test_max_iters_caps_the_presolve_at_its_derived_tol(tmp_path, capsys):
    # CSR samples as in the robust-libsvm benchmark (n=300): the pre-solve
    # needs 6 steps to its tol 0.1 sqrt(1e-6) = 1e-4, so a cap of 4 stops it
    # and names it on stderr; uncapped it stops there, short of the 10 steps
    # a square-loss solve takes to the fit's own tol
    from dckpca import Dataset
    from oracles import serialize_libsvm
    from scipy import sparse
    rng = np.random.default_rng(0)
    X = np.where(rng.random((300, 100)) < 0.1, rng.random((300, 100)), 0.0)
    data = tmp_path / "t.libsvm"
    data.write_text(serialize_libsvm(Dataset(sparse.csr_matrix(X))))
    base = ["solve", "--data", str(data), "--format", "libsvm", "--kernel",
            "gaussian", "--sigma", "4", "--components", "20", "--tol", "1e-6",
            "--out", str(tmp_path / "m.dk")]
    assert main(base + ["--objective", "huber2:xmax:0.8", "--max-iters", "4"]) == 0
    captured = capsys.readouterr()
    presolve = json.loads(captured.out)["presolve"]
    assert (presolve["termination"], presolve["iterations"]) == ("max_iters", 4)
    assert presolve["tol"] == 0.1 * 1e-6 ** 0.5
    assert captured.err.splitlines()[0] == (
        "dckpca: warning: the xmax pre-solve stopped at its iteration cap (4) "
        "before reaching --tol")
    assert main(base + ["--objective", "huber2:xmax:0.8"]) == 0
    presolve = json.loads(capsys.readouterr().out)["presolve"]
    assert main(base + ["--objective", "square"]) == 0
    square = json.loads(capsys.readouterr().out)
    assert presolve["termination"] == square["termination"] == "tolerance"
    assert 4 < presolve["iterations"] < square["iterations"]


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


def test_solve_jitter_is_usage_error(tmp_path, capsys):
    # the jitter knob is gone: it could not lift the s-th eigenvalue of H'GH
    # above the singularity floor
    data = tmp_path / "t.csv"
    write_csv_dataset(data)
    rc = main(["solve", "--data", str(data), "--components", "2", "--sigma", "1.0",
               "--jitter", "--out", str(tmp_path / "m.dk")])
    assert_usage_error(rc, capsys, "unrecognized arguments: --jitter", tmp_path / "m.dk")


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
    w = np.linalg.eigvalsh(_dense(Gc))[::-1][:5]
    for r in rows:
        H = np.loadtxt(dump / f"H_{r['solver']}.csv", delimiter=",", ndmin=2)
        assert abs(dual_residual(_dense(Gc), H, w) - float(r["eta"])) <= 1e-12


def test_bench_unknown_solver_usage_error(tmp_path, capsys):
    rc = main(["bench", "--solvers", "eig,miracle", "--out", str(tmp_path / "b.csv")])
    err = assert_usage_error(rc, capsys, "argument --solvers: ", tmp_path / "b.csv")
    assert "'miracle' is not one of eig, rsvd, lbfgs, dca" in err


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
        assert r["lbfgs_status"] in ("ok", "gradient", "max_iters", "singular")
        if r["rsvd_status"] == "ok":
            assert int(r["rsvd_oversamples"]) >= 10
    ok_extra = [int(r["rsvd_extra_oversamples"]) for r in rows if r["rsvd_status"] == "ok"]
    assert not ok_extra or min(ok_extra) == 0


def test_spectrum_rsvd_missing_delta_at_its_cap_is_unreachable(tmp_path):
    # at the cap p = n - s the residual is round-off, above a delta of 1e-300
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", "40", "--components", "2", "--delta", "1e-300",
                 "--c-grid", "0.5", "--out", str(out)]) == 0
    [row] = read_rows(out)
    assert row["rsvd_status"] == "unreachable"
    assert row["rsvd_oversamples"] == row["rsvd_extra_oversamples"] == ""


def test_spectrum_lbfgs_stopping_short_of_tolerance_writes_its_termination(
        tmp_path, monkeypatch):
    # a square-loss solve capped at one step ends by "max_iters": the row
    # names it in place of an iteration count
    import dataclasses
    import dckpca.cli as cli
    solve = cli.lbfgs_solve
    monkeypatch.setattr(cli, "lbfgs_solve", lambda G, s, cfg: solve(
        G, s, dataclasses.replace(cfg, max_iters=1)))
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", "40", "--components", "2", "--delta", "1e-12",
                 "--c-grid", "0.5", "--out", str(out)]) == 0
    [row] = read_rows(out)
    assert row["lbfgs_status"] == "max_iters"
    assert row["lbfgs_iters"] == row["lbfgs_extra_iters"] == ""
    assert row["rsvd_status"] == "ok"


def test_help_exits_zero_and_shows_the_iteration_cap(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--help"])
    assert info.value.code == 0
    assert "(default 1000)" in " ".join(capsys.readouterr().out.split())


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


def test_robust_default_tau_grid_writes_what_the_spelled_out_grid_writes(tmp_path):
    base = ["robust", "--synth-n", "80", "--seed", "2"]
    default, spelled = tmp_path / "default.csv", tmp_path / "spelled.csv"
    assert main(base + ["--out", str(default)]) == 0
    assert main(base + ["--tau-grid", "10,25,50,75,100", "--out", str(spelled)]) == 0
    assert default.read_bytes() == spelled.read_bytes()
    assert [row["tau"] for row in read_rows(default)][::3] == [
        "10.0", "25.0", "50.0", "75.0", "100.0"]


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


def test_sparse_eps_zero_solve_is_the_baseline_of_its_s(tmp_path, capsys, monkeypatch):
    # the eps = 0 cell is DCA on the square loss, so it is not solved twice
    import dckpca.cli as cli
    calls = []
    solve = cli.dca_solve
    monkeypatch.setattr(cli, "dca_solve",
                        lambda *a, **k: calls.append(a[1]) or solve(*a, **k))
    out = tmp_path / "sparse.csv"
    assert main(["sparse", "--synth-n", "80", "--synth-d", "5", "--sigma", "2.0",
                 "--eps-grid", "0,0.1,0.3", "--components-grid", "2,3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(calls) == [2, 2, 2, 3, 3, 3]
    ratios = [r["error_ratio"] for r in read_rows(out) if float(r["epsilon"]) == 0.0]
    assert ratios == ["1.0", "1.0"]


def test_sparse_failing_baseline_solve_is_numeric_failure(tmp_path, capsys):
    # sigma=50 on d=2 leaves about 5 eigenvalues above rounding: the eps = 0
    # solve at s=8 collapses, with 0 on the grid or not
    for grid in ("0,0.1", "0.1"):
        rc = main(["sparse", "--synth-n", "60", "--synth-d", "2", "--sigma", "50",
                   "--eps-grid", grid, "--components-grid", "2,8",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 3
        assert "H'GH is near-singular" in capsys.readouterr().err


def test_sparse_unprojectable_model_has_no_error_unless_it_is_the_baseline(
        tmp_path, capsys, monkeypatch):
    # a solve whose model cannot project keeps its row, with no error or
    # ratio; at eps = 0 it is the baseline of its s and ends the command
    import dckpca.cli as cli
    from dckpca import UnprojectableModelError
    assemble = cli.model_mod.assemble_model

    def refuse_from(eps_min):
        def assemble_model(Gc, spec, objective, s, H, dataset):
            if objective.eps >= eps_min:
                raise UnprojectableModelError("H'GH is near-singular")
            return assemble(Gc, spec, objective, s, H, dataset)
        return assemble_model

    argv = ["sparse", "--synth-n", "60", "--synth-d", "4", "--sigma", "2.0",
            "--eps-grid", "0,0.1", "--components-grid", "2", "--out", str(tmp_path / "s.csv")]
    monkeypatch.setattr(cli.model_mod, "assemble_model", refuse_from(0.1))
    assert main(argv) == 0
    base, refused = read_rows(tmp_path / "s.csv")
    assert base["error_ratio"] == "1.0"
    assert refused["reconstruction_error"] == refused["error_ratio"] == ""
    assert refused["termination"] == "tolerance" and refused["zero_rows_pct"] != ""
    monkeypatch.setattr(cli.model_mod, "assemble_model", refuse_from(0.0))
    assert main(argv) == 3
    assert capsys.readouterr().err == "dckpca: numeric failure: H'GH is near-singular\n"


def test_sparse_failure_cancels_the_solves_not_started(tmp_path, capsys, monkeypatch):
    # baselines run first; once the s=8 one fails, the pool's map cancels
    # the solves not yet started: at most the one already running finishes
    import time
    import dckpca.cli as cli
    from dckpca import SingularMatrixError
    calls = []

    def slow_solve(G, s, objective, cfg):
        calls.append((s, objective.eps))
        if s == 8:
            raise SingularMatrixError("collapsed")
        time.sleep(0.2)
        return solve(G, s, objective, cfg)

    solve = cli.dca_solve
    monkeypatch.setattr(cli, "dca_solve", slow_solve)
    rc = main(["sparse", "--synth-n", "60", "--synth-d", "2", "--sigma", "2.0",
               "--eps-grid", "0,0.1,0.2,0.3", "--components-grid", "2,8",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "collapsed" in capsys.readouterr().err
    assert calls[:2] == [(2, 0.0), (8, 0.0)] and len(calls) <= 3


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
    from dckpca import Dataset
    from oracles import serialize_libsvm
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


def test_solve_solver_lbfgs_is_usage_error(tmp_path, capsys):
    data = tmp_path / "t.csv"
    write_csv_dataset(data)
    rc = main(["solve", "--data", str(data), "--components", "2", "--sigma", "1.0",
               "--solver", "lbfgs", "--out", str(tmp_path / "m.dk")])
    assert_usage_error(rc, capsys, "unrecognized arguments: --solver lbfgs",
                       tmp_path / "m.dk")


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


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("text, named", [
    ("2,1,0\n1,x,0\n0,0,1\n", "line 2: non-numeric cell"),
    ("2,1,0\n1,2\n0,0,1\n", "line 2: ragged row (2 != 3 cells)"),
    ("", "empty dataset"),
], ids=["non-numeric", "ragged", "empty"])
def test_malformed_gram_is_data_error_naming_the_line(tmp_path, capsys, command, text,
                                                       named):
    data = tmp_path / "g.csv"
    data.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--data", str(data), "--format", "gram", "--components", "1",
                   "--out", str(out)] + (["--solvers", "eig"] if command == "bench" else []))
    assert rc == 2
    assert capsys.readouterr().err == f"dckpca: data error: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["robust", "--synth-n", "40", "--tau-grid", ","], "--tau-grid"),
    (["sparse", "--synth-n", "40", "--eps-grid", ",", "--components-grid", "2"],
     "--eps-grid"),
    (["sparse", "--synth-n", "40", "--eps-grid", "0", "--components-grid", ","],
     "--components-grid"),
    (["spectrum", "--n", "40", "--components", "2", "--c-grid", ","], "--c-grid"),
], ids=["robust-tau-grid", "sparse-eps-grid", "sparse-components-grid",
        "spectrum-c-grid"])
def test_grid_list_naming_no_value_is_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    err = assert_usage_error(main(argv + ["--out", str(out)]), capsys,
                             f"argument {flag}: ", out)
    assert "names no value" in err


@pytest.mark.parametrize("argv, flag", [
    (["robust", "--synth-n", "40", "--tau-grid", "inf"], "--tau-grid"),
    (["robust", "--synth-n", "40", "--tau-grid", "10,nan"], "--tau-grid"),
    (["sparse", "--synth-n", "40", "--eps-grid", "0,inf", "--components-grid", "2"],
     "--eps-grid"),
    (["spectrum", "--n", "40", "--components", "2", "--c-grid", "inf"], "--c-grid"),
], ids=["robust-tau-inf", "robust-tau-nan", "sparse-eps-inf", "spectrum-c-inf"])
def test_grid_list_non_finite_value_is_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    err = assert_usage_error(main(argv + ["--out", str(out)]), capsys,
                             f"argument {flag}: ", out)
    assert "finite number" in err


# each command that takes a kernel, on small inputs
KERNEL_COMMANDS = {
    "solve": ["solve", "--data", "{csv}", "--components", "2"],
    "bench": ["bench", "--synth-n", "40", "--synth-d", "3", "--components", "2"],
    "robust": ["robust", "--synth-n", "40", "--synth-d", "3", "--tau-grid", "10"],
    "sparse": ["sparse", "--synth-n", "40", "--synth-d", "3", "--eps-grid", "0,0.1",
               "--components-grid", "2"],
}


def _kernel_command(tmp_path, command, *extra):
    data = tmp_path / "t.csv"
    write_csv_dataset(data, d=3)
    return main([a.format(csv=data) for a in KERNEL_COMMANDS[command]] +
                list(extra) + ["--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", KERNEL_COMMANDS)
def test_linear_kernel_runs_without_sigma_in_every_command(tmp_path, capsys, command):
    # --sigma is the gaussian/laplace bandwidth: the command's default
    # applies to those alone, and a --sigma with the linear kernel is refused
    assert _kernel_command(tmp_path, command, "--kernel", "linear") == 0
    capsys.readouterr()
    (tmp_path / "out").unlink()
    rc = _kernel_command(tmp_path, command, "--kernel", "linear", "--sigma", "1")
    assert_usage_error(rc, capsys, "--sigma does not apply to the linear kernel",
                       tmp_path / "out")


@pytest.mark.parametrize("sigma", ["abc", "inf", "0", "nan"])
@pytest.mark.parametrize("command", KERNEL_COMMANDS)
def test_bad_sigma_is_usage_error_naming_it(tmp_path, capsys, command, sigma):
    assert_usage_error(_kernel_command(tmp_path, command, "--sigma", sigma), capsys,
                       "argument --sigma: ", tmp_path / "out")


@pytest.mark.parametrize("command", ["robust", "sparse"])
def test_gram_format_is_usage_error_where_no_gram_is_read(tmp_path, capsys, command):
    assert_usage_error(_kernel_command(tmp_path, command, "--format", "gram"), capsys,
                       "argument --format: ", tmp_path / "out")


def test_bench_task_cell_names_the_input(tmp_path, capsys):
    data = tmp_path / "t.csv"
    write_csv_dataset(data, d=3)
    out = tmp_path / "b.csv"
    for argv, task in ((["--synth-n", "40"], "synth"), (["--data", str(data)], "csv")):
        assert main(["bench", *argv, "--components", "2", "--solvers", "eig",
                     "--out", str(out)]) == 0
        assert [r["task"] for r in read_rows(out)] == [task]


def test_singular_step_after_the_init_names_its_seed_iteration_and_cause(tmp_path, capsys):
    # the eps = 0 solve at s=8 collapses at its first plain step, not at the
    # init: s is above the Gram's numerical rank (about 5)
    rc = main(["sparse", "--synth-n", "60", "--synth-d", "2", "--sigma", "50",
               "--eps-grid", "0.1", "--components-grid", "2,8",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "seed 0, iteration 1: " in err and "reseed 1, iteration 1: " in err
    assert err.count("s=8 likely exceeds the numerical rank") == 2
    assert "init" not in err


# the inputs a command can be given, and each command's other flags
CSV = ["--data", "{csv}"]
LIBSVM = ["--data", "{libsvm}", "--format", "libsvm"]
GRAM = ["--data", "{gram}", "--format", "gram"]
SYNTH = ["--synth-n", "40", "--synth-d", "3"]
COMMAND_FLAGS = {
    "solve": ["--components", "2"],
    "bench": ["--components", "2", "--solvers", "eig"],
    "robust": ["--tau-grid", "10"],
    "sparse": ["--eps-grid", "0", "--components-grid", "2"],
}


@pytest.mark.parametrize("command, argv, flag", [
    ("bench", ["--format", "gram", "--synth-n", "40"], "--format"),
    ("bench", ["--format", "libsvm", "--synth-n", "30"], "--format"),
    ("robust", ["--format", "csv"], "--format"),
    ("sparse", ["--format", "libsvm"], "--format"),
    ("solve", LIBSVM + ["--label-col", "0"], "--label-col"),
    ("solve", GRAM + ["--label-col", "7"], "--label-col"),
    ("bench", SYNTH + ["--label-col", "5"], "--label-col"),
    ("bench", GRAM + ["--label-col", "0"], "--label-col"),
    ("robust", SYNTH + ["--label-col", "0"], "--label-col"),
    ("sparse", LIBSVM + ["--label-col", "0"], "--label-col"),
    ("bench", CSV + ["--synth-n", "99"], "--synth-n"),
    ("bench", GRAM + ["--synth-d", "3"], "--synth-d"),
    ("robust", CSV + ["--synth-n", "0"], "--synth-n"),
    ("sparse", LIBSVM + ["--synth-d", "3"], "--synth-d"),
    ("solve", GRAM + ["--kernel", "linear", "--sigma", "3"], "--kernel"),
    ("solve", GRAM + ["--sigma", "auto"], "--sigma"),
    ("bench", GRAM + ["--kernel", "gaussian"], "--kernel"),
    ("bench", GRAM + ["--sigma", "2"], "--sigma"),
])
def test_input_flag_the_input_does_not_read_is_usage_error(tmp_path, capsys, command,
                                                             argv, flag):
    # a given flag counts even when its value is falsy (--synth-n 0,
    # --label-col 0); the refusal comes before any output is written
    from scipy import sparse
    from dckpca import Dataset
    from oracles import serialize_libsvm
    ds = write_csv_dataset(tmp_path / "t.csv", d=3)
    X = sparse.random(40, 6, density=0.5, format="csr",
                      random_state=np.random.default_rng(2))
    (tmp_path / "t.libsvm").write_text(serialize_libsvm(Dataset(X)))
    np.savetxt(tmp_path / "g.csv", ds.values @ ds.values.T + np.eye(40),
               delimiter=",", fmt="%.17g")
    out = tmp_path / "out"
    paths = {"csv": tmp_path / "t.csv", "libsvm": tmp_path / "t.libsvm",
             "gram": tmp_path / "g.csv"}
    rc = main([command] + [a.format(**paths) for a in argv] + COMMAND_FLAGS[command] +
              ["--out", str(out)])
    assert_usage_error(rc, capsys, f"{flag} ", out)


SEED_COMMANDS = {**KERNEL_COMMANDS,
                 "spectrum": ["spectrum", "--n", "30", "--components", "2"]}


@pytest.mark.parametrize("command", SEED_COMMANDS)
def test_negative_seed_is_usage_error_in_every_command(tmp_path, capsys, command):
    # numpy's generators take no negative seed: it is refused before any work
    data = tmp_path / "t.csv"
    write_csv_dataset(data, d=3)
    rc = main([a.format(csv=data) for a in SEED_COMMANDS[command]] +
              ["--seed", "-1", "--out", str(tmp_path / "out")])
    err = assert_usage_error(rc, capsys, "argument --seed: ", tmp_path / "out")
    assert "'-1' is not an integer >= 0" in err


@pytest.mark.parametrize("flag", ["--synth-n", "--synth-d"])
@pytest.mark.parametrize("command", ["bench", "robust", "sparse"])
def test_empty_synthetic_dataset_is_usage_error_naming_its_flag(tmp_path, capsys,
                                                                command, flag):
    argv = list(KERNEL_COMMANDS[command])
    argv[argv.index(flag) + 1] = "0"
    assert_usage_error(main(argv + ["--out", str(tmp_path / "out")]), capsys,
                       f"{flag} must be >= 1", tmp_path / "out")


@pytest.mark.parametrize("argv", [
    ["solve", "--data", "{csv}", "--components", "2", "--out", "{dir}"],
    ["solve", "--data", "{csv}", "--components", "2", "--out", "{dir}/m",
     "--report", "{dir}"],
    ["bench", "--synth-n", "40", "--components", "2", "--solvers", "eig", "--out", "{dir}"],
    ["solve", "--data", "{dir}", "--components", "2", "--out", "{dir}/m"],
    ["robust", "--data", "{dir}", "--format", "libsvm", "--out", "{dir}/r"],
    ["bench", "--data", "{dir}", "--format", "gram", "--out", "{dir}/b"],
], ids=["solve-out", "solve-report", "bench-out", "csv-data", "libsvm-data",
        "gram-data"])
def test_a_directory_as_a_file_is_data_error_naming_it(tmp_path, capsys, argv):
    target = tmp_path / "adir"
    target.mkdir()
    write_csv_dataset(tmp_path / "t.csv", d=3)
    assert main([a.format(csv=tmp_path / "t.csv", dir=target) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dckpca: data error: ") and str(target) in err


def test_unlabelled_split_is_one_permutation():
    # the split of unlabelled rows is the stratified split of one class:
    # the same indices, from the same draw, as the permutation it replaces
    from dckpca.cli import _split_indices
    for n in (1, 2, 7, 40, 150, 1001):
        for frac in (0.2, 0.5, 0.01):
            ref, rng = np.random.default_rng(n), np.random.default_rng(n)
            perm, k = ref.permutation(n), int(np.floor(frac * n))
            train, test = _split_indices(n, frac, None, rng)
            assert np.array_equal(train, np.sort(perm[k:]))
            assert np.array_equal(test, np.sort(perm[:k])) and test.dtype == perm.dtype
            assert rng.bit_generator.state == ref.bit_generator.state  # same draws


@pytest.mark.parametrize("source", ["synth", "csv-labels", "libsvm"])
def test_robust_equals_a_cell_by_cell_reference(tmp_path, capsys, source):
    # each cell is take_rows, contaminate, fit and reconstruction_error on
    # the split the command draws, written with repr precision
    import io
    from scipy import sparse
    from dckpca import (Dataset, KernelSpec, contaminate, fit, format_objective,
                        parse_libsvm, parse_objective, reconstruction_error)
    from dckpca.cli import _split_indices
    from dckpca.data_io import load_csv
    from dckpca.solvers import SolveConfig
    from oracles import serialize_libsvm
    if source == "synth":
        argv, base = ["--synth-n", "60", "--synth-d", "3"], gen_synth_gaussian(60, 3, 4)
    elif source == "csv-labels":
        write_csv_dataset(tmp_path / "t.csv", n=60, d=3, seed=9, labels=True)
        argv = ["--data", str(tmp_path / "t.csv"), "--label-col", "3"]
        base = load_csv(tmp_path / "t.csv", label_col=3)
    else:
        X = sparse.random(60, 12, density=0.3, format="csr",
                          random_state=np.random.default_rng(5))
        labels = np.arange(60) % 2
        (tmp_path / "t.libsvm").write_text(serialize_libsvm(Dataset(X, labels)))
        argv = ["--data", str(tmp_path / "t.libsvm"), "--format", "libsvm"]
        with open(tmp_path / "t.libsvm") as fh:
            base = parse_libsvm(fh)
        assert base.is_sparse
    objectives = ["square", "huber1:xmax:0.6", "huber2:xmax:0.8"]
    out = tmp_path / "robust.csv"
    assert main(["robust", *argv, "--sigma", "2.0", "--components", "2",
                 "--objectives", ",".join(objectives), "--omega", "0.1",
                 "--tau-grid", "10,50", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()

    train_idx, test_idx = _split_indices(base.n, 0.2, base.labels,
                                         np.random.default_rng(4))
    train, test = base.take_rows(train_idx), base.take_rows(test_idx)
    expected = io.StringIO()
    w = csv.writer(expected)
    w.writerow(["tau", "objective", "reconstruction_error", "kappa", "iterations",
                "termination"])
    for tau in (10.0, 50.0):
        noisy = contaminate(train, 0.1, tau, 4)
        for text in objectives:
            m = fit(noisy, KernelSpec("gaussian", 2.0), parse_objective(text), 2,
                    SolveConfig(seed=4))
            kappa = "" if text == "square" else repr(m.objective.kappa)
            w.writerow([repr(tau), format_objective(parse_objective(text)),
                        repr(reconstruction_error(m, test)), kappa,
                        str(m.report.iterations), m.report.termination])
    assert out.read_bytes().decode() == expected.getvalue()
