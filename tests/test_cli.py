"""Command line interface: exit codes, documents, CSV round trips."""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import merton_factor
from merton_factor import (
    IllPosedError,
    cli,
    load_model,
    psi_eta_profile,
    read_solution_csv,
    recompute_csv_residual,
    solve,
    solve_regime,
)
from merton_factor._parallel import map_ordered, worker_count
from merton_factor.diffusion_solver import CSV_COLUMNS

REGIME = {
    "family": "regime",
    "Q": [[-0.5, 0.5], [0.5, -0.5]],
    "r": [0.02, 0.01],
    "lambda": [0.4, 0.1],
    "sigma": [0.25, 0.2],
    "delta": [0.3, 0.18],
    "R": 2.0,
}
BS = {
    "family": "black_scholes",
    "params": {"R": 2.0, "delta": 0.1, "r": 0.02, "lambda": 0.3, "sigma": 0.25},
}
BS_ILLPOSED = {
    "family": "black_scholes",
    "params": {"R": 2.0, "delta": -0.2, "r": 0.02, "lambda": 0.3, "sigma": 0.25},
}
REFUSAL_KEYS = {"certificate", "error", "eta", "quick_checks", "verdict"}
MPR = {
    "family": "mpr",
    "params": {
        "R": 1.5,
        "delta": 0.05,
        "r": 0.02,
        "sigma": 0.2,
        "kappa": 0.3,
        "theta": 0.5,
        "nu": 0.6,
        "rho": -0.2,
    },
}
VASICEK = {
    "family": "vasicek",
    "params": {
        "R": 1.5,
        "delta": 0.02,
        "lambda": 23.0 / 60.0,
        "sigma": 0.18,
        "kappa": 0.43,
        "theta": 0.013,
        "nu": 0.033,
        "rho": -0.0012,
    },
}
HESTON = {
    "family": "heston",
    "params": {
        "R": 2.0,
        "delta": 0.02,
        "r": 0.013,
        "lambda": 1.66,
        "kappa": 0.088,
        "theta": 0.035,
        "nu": 0.031,
        "rho": -0.84,
    },
}


@pytest.fixture
def model_file(tmp_path):
    def write(payload, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_wellposed_regime_document(model_file, capsys):
    rc, out, _ = run_cli(capsys, ["wellposed", "--model", model_file(REGIME)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["eta"] == pytest.approx([0.18, 0.09625], rel=0, abs=1e-15)
    assert doc["quick_checks"]["all_eta_positive"] is True


def test_illposed_regime_exits_2(model_file, capsys):
    bad = dict(REGIME, delta=[-0.9, -0.9])
    rc, out, _ = run_cli(capsys, ["wellposed", "--model", model_file(bad)])
    assert rc == 2
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["quick_checks"]["all_eta_nonpositive"] is True
    assert doc["certificate"]["verdict"] is False


def test_wellposed_diffusion_document(model_file, capsys):
    argv = ["wellposed", "--model", model_file(MPR), "--domain", "-3,3", "--n", "200"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0, err
    doc = json.loads(out)
    assert set(doc) == {
        "model_type",
        "family",
        "domain",
        "n",
        "scheme",
        "distortion",
        "verdict",
        "certificate",
        "quick_checks",
        "eta",
    }
    assert doc["model_type"] == "diffusion" and doc["family"] == "mpr"
    assert doc["verdict"] is True
    assert doc["certificate"]["note"] == ""
    assert doc["domain"] == [-3.0, 3.0] and doc["n"] == 200
    assert doc["eta"]["n"] == 201


def test_illposed_diffusion_wellposed_exits_2(model_file, capsys):
    argv = ["wellposed", "--model", model_file(BS_ILLPOSED), "--domain", "-1,1", "--n", "16"]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 2
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["certificate"]["failure_index"] == 16


def test_wellposed_diffusion_report_is_the_solve_refusal_report(model_file, capsys):
    # One record for one verdict: the wellposed document carries the report
    # that a solve on the same grid refuses with.
    grid = ["--model", model_file(BS_ILLPOSED), "--domain", "-1,1", "--n", "16"]
    rc, out, _ = run_cli(capsys, ["wellposed", *grid])
    assert rc == 2
    wellposed = json.loads(out)
    rc, out, _ = run_cli(capsys, ["solve", *grid])
    assert rc == 2
    refusal = json.loads(out)
    setting = {"model_type", "family", "domain", "n", "scheme", "distortion"}
    assert set(wellposed) - setting == set(refusal) - {"error"} == REFUSAL_KEYS - {"error"}
    assert {key: wellposed[key] for key in set(refusal) - {"error"}} == {
        key: value for key, value in refusal.items() if key != "error"
    }


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"family": "regime",\n "Q": [[-1, 1], [1, -1]],\n "r": [0.02 0.01]}\n')
    rc, out, err = run_cli(capsys, ["wellposed", "--model", str(path)])
    assert rc == 1
    assert out == ""
    assert "line 3, column 13" in err


MC_RUN = ["--y0", "0", "--horizon", "20", "--dt", "0.05"]
BS_GRID = ["--domain", "-1,1", "--n", "8"]
EXPAND_RUN = ["--h", "0.05", "--window", "-1,1"]
BOUNDS_GRID = ["--domain", "0,3", "--n", "9"]


@pytest.mark.parametrize(
    "model, argv, flag",
    [
        pytest.param(BS, ["solve"], "--domain", id="solve-without-domain"),
        pytest.param(None, ["frobnicate"], "frobnicate", id="unknown-command"),
        pytest.param(None, [], "command", id="no-command"),
        pytest.param(None, ["wellposed", "--model", "/no/such/file.json"], "file.json", id="file"),
        pytest.param(BS, ["solve", "--domain", "3,-3", "--n", "8"], "--domain", id="domain-order"),
        pytest.param(BS, ["solve", "--domain", "a,b", "--n", "8"], "--domain", id="domain-text"),
        pytest.param(BS, ["solve", "--domain", "-1,1", "--n", "0"], "--n", id="n-zero"),
        pytest.param(BS, ["solve", "--domain", "-1,1", "--n", "1,2"], "--n", id="n-list"),
        pytest.param(BS, ["solve", "--domain", "-1,1", "--n", "x"], "--n", id="n-text"),
        pytest.param(MPR, ["refine", "--domain", "-2,2", "--n", "100"], "--n", id="refine-one-n"),
        pytest.param(BS, ["solve", *BS_GRID, "--scheme", "foo"], "--scheme", id="scheme"),
        pytest.param(BS, ["solve", *BS_GRID, "--tol", "0"], "--tol", id="tol"),
        pytest.param(MPR, ["expand", "--m", "2,3", "--h", "0", "--window", "-1,1"], "--h", id="h"),
        pytest.param(REGIME, ["mc", *MC_RUN, "--paths", "50", "--x0", "0"], "--x0", id="x0"),
        pytest.param(REGIME, ["mc", *MC_RUN, "--paths", "50", "--x0", "inf"], "--x0", id="x0-inf"),
        pytest.param(
            REGIME,
            ["mc", "--y0", "0", "--horizon", "inf", "--dt", "0.05", "--paths", "50"],
            "--horizon",
            id="horizon-inf",
        ),
        pytest.param(
            REGIME,
            ["mc", "--y0", "0", "--horizon", "20", "--dt", "nan", "--paths", "50"],
            "--dt",
            id="dt-nan",
        ),
        pytest.param(MPR, ["bounds", "--domain", "0,3", "--n", "9", "--g1", "zz"], "--g1", id="g1"),
        pytest.param(MPR, ["bounds", *BOUNDS_GRID, "--g1", "nan"], "--g1", id="g1-nan"),
        pytest.param(MPR, ["bounds", *BOUNDS_GRID, "--g2", "inf"], "--g2", id="g2-inf"),
        pytest.param(MPR, ["expand", "--m", "2,x", *EXPAND_RUN], "--m", id="m"),
        pytest.param(MPR, ["expand", "--m", "2,3", "--window", "0"], "--window", id="window"),
        # Flags that a subcommand's handler would not read are refused.
        pytest.param(MPR, ["bounds", *BOUNDS_GRID, "--tol", "5"], "--tol", id="bounds-tol"),
        pytest.param(
            MPR, ["bounds", *BOUNDS_GRID, "--scheme", "central"], "--scheme", id="bounds-scheme"
        ),
        pytest.param(REGIME, ["wellposed", "--tol", "1e-8"], "--tol", id="wellposed-tol"),
        pytest.param(MPR, ["wellposed", *BS_GRID, "--tol", "1e-8"], "--tol", id="wellposed-tol-mpr"),
        # Subcommands that discretize a factor refuse a regime model.
        pytest.param(
            REGIME, ["refine", "--domain", "-1,1", "--n", "8,16"], "refine needs a", id="regime-refine"
        ),
        pytest.param(REGIME, ["expand", "--m", "2,3", *EXPAND_RUN], "expand needs a", id="regime-expand"),
        pytest.param(REGIME, ["bounds"], "bounds needs a", id="regime-bounds"),
        pytest.param(REGIME, ["report"], "report needs a", id="regime-report"),
        # Without profiles, bounds needs eta > 0 on the grid; vasicek's is not on [-5, 5].
        pytest.param(VASICEK, ["bounds", "--domain", "-5,5", "--n", "10"], "--g1", id="bounds-eta"),
    ],
)
def test_usage_errors_exit_1(model_file, capsys, model, argv, flag):
    if model is not None:
        argv = [argv[0], "--model", model_file(model), *argv[1:]]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    assert flag in err


@pytest.mark.parametrize(
    "model, argv",
    [
        (REGIME, ["mc", *MC_RUN, "--paths", "1"]),
        (REGIME, ["mc", *MC_RUN, "--paths", "11", "--antithetic"]),
        (REGIME, ["mc", *MC_RUN, "--paths", "2", "--antithetic"]),
        (REGIME, ["mc", "--y0", "0", "--horizon", "20", "--dt", "0", "--paths", "50"]),
        (REGIME, ["mc", "--y0", "0", "--horizon", "1e300", "--dt", "1e-300", "--paths", "50"]),
        (MPR, ["refine", "--domain", "-2,2", "--n", "100,150"]),
        (MPR, ["expand", "--m", "3,2", *EXPAND_RUN]),
        (HESTON, ["expand", "--m", "0,1", "--h", "0.05", "--window", "0.5,0.9"]),
        (MPR, ["expand", "--m=-1,2", *EXPAND_RUN]),
        (MPR, ["bounds", "--domain", "-3,3", "--n", "100", "--g1", "5"]),
        (MPR, ["report", "--domain", "-3,3", "--n", "300", "--tail-fraction", "0.9"]),
        (REGIME, ["wellposed", "--out", "/no/such/dir/x.json"]),
        (BS, ["solve", *BS_GRID, "--out", "/no/such/dir/x.csv"]),
    ],
    ids=[
        "mc-paths",
        "mc-antithetic",
        "mc-antithetic-one-pair",
        "mc-dt",
        "mc-steps-overflow",
        "refine-n",
        "expand-m",
        "expand-m-zero",
        "expand-m-negative",
        "bounds-g1",
        "report-tail",
        "wellposed-out-dir",
        "solve-out-dir",
    ],
)
def test_library_argument_errors_exit_1(model_file, capsys, model, argv):
    # The library refuses these arguments with ValueError, or --out cannot be
    # opened (OSError); main reports it like any other error.
    rc, out, err = run_cli(capsys, [argv[0], "--model", model_file(model), *argv[1:]])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_float_overflow_exits_1(model_file, capsys):
    # R = 1e300 leaves no float p = 1 - 1/R below 1 (and eta' divides by
    # R**2, which overflows): the model is refused at load, naming R.
    huge_r = {**MPR, "params": {**MPR["params"], "R": 1e300}}
    argv = ["--domain", "-1,1", "--n", "8", "--g1", "0.01", "--g2", "eta"]
    rc, out, err = run_cli(capsys, ["bounds", "--model", model_file(huge_r), *argv])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "R = 1e+300" in err


@pytest.mark.parametrize(
    "argv",
    [["bounds", "--domain", "0.01,0.2", "--n", "8", "--g2", "eta"], ["solve", *BS_GRID]],
    ids=["bounds", "solve"],
)
def test_overflowing_lambda_is_refused_at_load(model_file, capsys, argv):
    # lambda^2 overflows a float, and the frozen rate squares lambda.
    huge = {**HESTON, "params": {**HESTON["params"], "lambda": 1e200}}
    argv = [argv[0], "--model", model_file(huge), *argv[1:]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == "" and caught == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "lambda" in err


@pytest.mark.parametrize("command", ["solve", "wellposed"])
def test_overflowing_regime_lambda_is_refused_at_load(model_file, capsys, command):
    # lambda^2 overflows a float in state 0, and the frozen rate squares lambda.
    huge = dict(REGIME, **{"lambda": [1e200, 0.1]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, [command, "--model", model_file(huge)])
    assert rc == 1
    assert out == "" and caught == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "lambda" in err


def test_solve_regime_document(model_file, capsys):
    rc, out, _ = run_cli(capsys, ["solve", "--model", model_file(REGIME)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["f"] == pytest.approx([50.73506890664007, 58.7728969599557], rel=1e-9)
    assert doc["u"] == pytest.approx([0.14039313523141583, 0.13044019849958916], rel=1e-9)
    assert doc["pi_hat"] == pytest.approx([0.8, 0.25], rel=0, abs=1e-12)
    assert doc["method"] == "newton"
    assert doc["stop"] == "quadratic"
    assert len(doc["trace"]) == doc["iterations"] and doc["trace"][-1] < doc["trace"][0]
    assert 0.0 <= doc["residual"] <= 1e-10 * doc["residual_scale"]
    assert doc["csv"] is None


def test_solve_diffusion_writes_csv_roundtrip(model_file, tmp_path, capsys):
    out_csv = str(tmp_path / "solution.csv")
    rc, out, _ = run_cli(
        capsys,
        [
            "solve",
            "--model",
            model_file(BS),
            "--domain",
            "-1,1",
            "--n",
            "64",
            "--out",
            out_csv,
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["csv"] == out_csv
    assert doc["metadata"]["N"] == 64
    assert doc["metadata"]["stop"] == "step"  # the start is the constant root
    assert doc["u"]["min"] == pytest.approx(0.07125, rel=1e-11)

    metadata, columns = read_solution_csv(out_csv)
    assert metadata["solve"]["N"] == 64
    assert metadata["solve"]["stop"] == "step"
    assert metadata["solve"]["trace"] == doc["metadata"]["trace"]
    assert len(doc["metadata"]["trace"]) == doc["metadata"]["iterations"]
    assert len(columns["y"]) == 65
    assert columns["u"] == pytest.approx(np.full(65, 0.07125), rel=1e-11)
    recomputed, stored = recompute_csv_residual(out_csv)
    assert recomputed == stored


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "line, edit, message",
    [
        (6, lambda cells: cells[:-1], "data row 3 has 7 values under its 8-column header"),
        (5, lambda cells: [*cells[:3], "abc", *cells[4:]], "data row 2 has 'abc' in column xi"),
        (5, lambda cells: [*cells[:3], "1_000", *cells[4:]], ""),  # float() reads it, loadtxt not
    ],
)
def test_malformed_csv_row_is_named(model_file, tmp_path, capsys, line, edit, message):
    out_csv = tmp_path / "mpr.csv"
    argv = ["solve", "--model", model_file(MPR), "--domain", "-3,3", "--n", "20"]
    assert run_cli(capsys, argv + ["--out", str(out_csv)])[0] == 0
    lines = out_csv.read_text().splitlines()
    assert lines[3].split(",") == list(CSV_COLUMNS)  # three comment lines, then the header
    lines[line] = ",".join(edit(lines[line].split(",")))
    out_csv.write_text("\n".join(lines) + "\n")
    for read in (read_solution_csv, recompute_csv_residual):
        with pytest.raises(ValueError) as caught:
            read(str(out_csv))
        assert str(caught.value).startswith(f"{out_csv}: {message}")
        assert "usecols" not in str(caught.value)


def test_solve_regime_writes_csv_roundtrip(model_file, tmp_path, capsys):
    out_csv = str(tmp_path / "regime.csv")
    rc, out, _ = run_cli(capsys, ["solve", "--model", model_file(REGIME), "--out", out_csv])
    assert rc == 0
    doc = json.loads(out)
    assert doc["csv"] == out_csv

    metadata, columns = read_solution_csv(out_csv)
    assert tuple(columns) == CSV_COLUMNS
    assert metadata["solve"]["model_type"] == "regime"
    assert list(columns["u"]) == doc["u"]
    recomputed, stored = recompute_csv_residual(out_csv)
    assert recomputed == stored == doc["residual"]


def test_solve_csv_leaves_psi_eta_undefined_where_eta_is_not_positive(
    model_file, tmp_path, capsys
):
    out_csv = str(tmp_path / "vasicek.csv")
    argv = ["solve", "--model", model_file(VASICEK), "--domain=-0.3,0.3", "--n", "300"]
    rc, out, err = run_cli(capsys, argv + ["--out", out_csv])
    assert rc == 0, err
    doc = json.loads(out)

    _, columns = read_solution_csv(out_csv)
    positive = columns["eta"] > 0.0
    assert 0 < np.count_nonzero(positive) < positive.size  # eta changes sign here
    assert np.array_equal(np.isnan(columns["psi_eta"]), ~positive)
    expected = psi_eta_profile(load_model(VASICEK), columns["y"][positive])
    assert np.array_equal(columns["psi_eta"][positive], expected)
    recomputed, stored = recompute_csv_residual(out_csv)
    assert recomputed == stored == doc["metadata"]["residual"]


def test_malformed_model_array_is_reported_not_raised(model_file, capsys):
    rc, out, err = run_cli(capsys, ["wellposed", "--model", model_file(dict(REGIME, Q="x"))])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: Q must be")


def test_solve_illposed_diffusion_exits_2(model_file, capsys, tmp_path):
    csv = tmp_path / "x.csv"
    argv = ["solve", "--model", model_file(BS_ILLPOSED), "--domain", "-1,1", "--n", "16"]
    rc, out, _ = run_cli(capsys, argv + ["--out", str(csv)])
    assert rc == 2
    # Like a successful solve's, the ill-posed document goes to stdout; no CSV is written.
    assert not csv.exists()
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert "ill-posed" in doc["error"]
    assert doc["certificate"]["verdict"] is False


def test_illposed_solve_document_is_the_library_report(model_file, capsys):
    argv = ["solve", "--model", model_file(BS_ILLPOSED), "--domain", "-1,1", "--n", "100"]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 2
    doc = json.loads(out)
    with pytest.raises(IllPosedError) as refusal:
        solve(load_model(BS_ILLPOSED), -1.0, 1.0, 100)
    report = refusal.value.report
    assert doc == {"verdict": False, "error": str(refusal.value), **report.to_dict()}
    assert doc["certificate"] == report.certificate.to_dict()
    eta = np.asarray(report.eta)
    assert doc["eta"] == {"min": eta.min(), "max": eta.max(), "n": 101}


@pytest.mark.parametrize(
    "model, argv",
    [
        (BS_ILLPOSED, ["report", "--domain", "-1,1", "--n", "16"]),
        (BS_ILLPOSED, ["refine", "--domain", "-1,1", "--n", "16,32"]),
        (BS_ILLPOSED, ["expand", "--m", "1,2", "--h", "0.1", "--window", "-0.5,0.5"]),
        (BS_ILLPOSED, ["mc", "--domain", "-1,1", "--n", "16", "--y0", "0"]),
        (dict(REGIME, delta=[-0.9, -0.9]), ["mc", "--y0", "0"]),
    ],
    ids=["report", "refine", "expand", "mc-diffusion", "mc-regime"],
)
def test_refusals_exit_2_through_every_subcommand(model_file, capsys, model, argv):
    if argv[0] == "mc":
        argv = argv + ["--horizon", "1", "--dt", "0.1", "--paths", "8"]
    rc, out, err = run_cli(capsys, [argv[0], "--model", model_file(model), *argv[1:]])
    assert rc == 2, err
    doc = json.loads(out)
    assert set(doc) == REFUSAL_KEYS
    assert doc["verdict"] is False and doc["certificate"]["verdict"] is False
    assert "ill-posed" in doc["error"]


def test_regime_solve_record_is_the_library_record(model_file, tmp_path, capsys):
    out_csv = str(tmp_path / "regime.csv")
    argv = ["solve", "--model", model_file(REGIME), "--tol", "1e-12", "--out", out_csv]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    doc = json.loads(out)
    record = solve_regime(load_model(REGIME), tol=1e-12).metadata
    assert record["tolerance"] == 1e-12
    assert list(doc) == ["model_type", "verdict", "eta", "f", "u", "pi_hat", *record, "csv"]
    assert {key: doc[key] for key in record} == record
    logged = read_solution_csv(out_csv)[0]["solve"]
    assert list(logged) == ["model_type", "n_states", *record]
    assert logged == {"model_type": "regime", "n_states": 2, **record}


def test_solve_respects_tolerance_flag(model_file, capsys):
    rc, out, _ = run_cli(
        capsys,
        [
            "solve",
            "--model",
            model_file(MPR),
            "--domain",
            "-2,2",
            "--n",
            "100",
            "--tol",
            "1e-6",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["metadata"]["tolerance"] == 1e-6


def test_refine_document(model_file, capsys):
    rc, out, _ = run_cli(
        capsys,
        [
            "refine",
            "--model",
            model_file(MPR),
            "--domain",
            "-2,2",
            "--n",
            "100,200,400",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "refinement"
    assert [row["n_coarse"] for row in doc["rows"]] == [100, 200]
    assert [row["n_fine"] for row in doc["rows"]] == [200, 400]
    assert all(row["sup_diff"] > 0.0 for row in doc["rows"])
    assert doc["fit"] == pytest.approx(1.0, abs=0.4)  # upwind: first order


def test_expand_document(model_file, capsys):
    rc, out, _ = run_cli(
        capsys,
        [
            "expand",
            "--model",
            model_file(MPR),
            "--m",
            "2,3,4",
            "--h",
            "0.05",
            "--window",
            "-1,1",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "expansion"
    assert len(doc["rows"]) == 2
    diffs = [row["sup_diff"] for row in doc["rows"]]
    assert diffs[1] < diffs[0]
    assert 0.0 < doc["fit"] < 0.5


def test_expand_single_pair_notes_missing_fit(model_file, capsys):
    rc, out, _ = run_cli(
        capsys,
        [
            "expand",
            "--model",
            model_file(MPR),
            "--m",
            "2,3",
            "--h",
            "0.05",
            "--window",
            "-1,1",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert math.isnan(doc["fit"])
    assert "needs at least two pairs" in doc["note"]


def test_bounds_document(model_file, capsys):
    rc, out, _ = run_cli(
        capsys, ["bounds", "--model", model_file(MPR), "--domain", "-3,3", "--n", "300"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["C1"] == 1.0
    assert doc["C2"] == pytest.approx(26.2085, rel=1e-3)
    assert doc["nodes"] == 301


def test_report_document(model_file, capsys):
    rc, out, _ = run_cli(
        capsys, ["report", "--model", model_file(MPR), "--domain", "-3,3", "--n", "300"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["family"] == "mpr"
    assert doc["below_eta_flag"] is True
    assert doc["mean_reversion_check"]["applicable"] is True
    assert doc["mean_reversion_check"]["satisfied"] is True
    assert doc["window"]["tail_nodes"] > 0


def test_mc_document(model_file, capsys):
    rc, out, _ = run_cli(
        capsys,
        [
            "mc",
            "--model",
            model_file(REGIME),
            "--y0",
            "0",
            "--horizon",
            "80",
            "--dt",
            "0.05",
            "--paths",
            "400",
            "--seed",
            "3",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["estimate"]["paths"] == 400
    assert doc["solver_value"] == pytest.approx(-50.73506890664007, rel=1e-9)
    assert math.isfinite(doc["z_score"])
    assert abs(doc["z_score"]) < 6.0
    assert doc["seed"] == 3


def test_mc_diffusion_document_is_reproducible(model_file, capsys):
    argv = ["mc", "--model", model_file(MPR), "--domain", "-3,3", "--n", "600", "--y0", "0"]
    argv += ["--horizon", "40", "--dt", "0.05", "--paths", "400", "--seed", "3"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["estimate"]["paths"] == 400
    assert math.isfinite(doc["z_score"])
    assert run_cli(capsys, argv) == (0, out, err)


def test_mc_refuses_diffusion_start_outside_domain(model_file, capsys):
    # np.interp would clamp y0 = 8 to the boundary node of [-3, 3].
    argv = ["mc", "--model", model_file(MPR), "--domain", "-3,3", "--n", "600", "--y0", "8"]
    rc, out, err = run_cli(capsys, argv + ["--horizon", "20", "--dt", "0.05", "--paths", "50"])
    assert rc == 1
    assert out == ""
    assert "--y0" in err and "outside --domain" in err


def test_mc_refuses_fractional_regime_state(model_file, capsys):
    argv = ["mc", "--model", model_file(REGIME), "--y0", "1.9"]
    rc, out, err = run_cli(capsys, argv + ["--horizon", "20", "--dt", "0.05", "--paths", "50"])
    assert rc == 1
    assert out == ""
    assert "state index" in err


def test_out_flag_writes_document(model_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys, ["wellposed", "--model", model_file(REGIME), "--out", str(target)]
    )
    assert rc == 0
    doc = json.loads(target.read_text())
    assert doc["verdict"] is True


def _child_env():
    """Environment whose PYTHONPATH puts the checkout under test first."""
    env = dict(os.environ)
    root = str(Path(merton_factor.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, inherited] if inherited else [root])
    return env


def _console_script(name):
    """The ``[project.scripts]`` entry point ``name`` declared in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    return EntryPoint(name=name, value=scripts[name], group="console_scripts")


def test_console_entry_point(model_file):
    # Run the declared target the way the generated launcher script does, so
    # the check needs no installed wrapper on PATH.
    entry = _console_script("merton-factor")
    launcher = (
        f"import sys; from {entry.module} import {entry.attr}; "
        f"sys.argv[0] = {entry.name!r}; sys.exit({entry.attr}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "wellposed", "--model", model_file(REGIME)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] is True


@pytest.mark.skipif(
    shutil.which("merton-factor") is None,
    reason="merton-factor executable not on PATH (package not installed)",
)
def test_installed_console_script(model_file):
    proc = subprocess.run(
        ["merton-factor", "wellposed", "--model", model_file(REGIME)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True


def test_python_dash_m_invocation(model_file):
    proc = subprocess.run(
        [sys.executable, "-m", "merton_factor.cli", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "merton-factor" in proc.stdout


_REGIME_WITHOUT_SCIPY = """
import sys
import merton_factor
from merton_factor import check_wellposed, cli, estimate_value, load_model, solve_regime

regime, mpr = sys.argv[1:]
model = load_model(regime)
assert check_wellposed(model).verdict
solution = solve_regime(model)
estimate_value(model, (solution.pi_hat, solution.u), 1.0, 0, 5.0, 0.05, 20, seed=1)
assert cli.main(["solve", "--model", regime]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
assert cli.main(["solve", "--model", mpr, "--domain=-3,3", "--n", "50"]) == 0
assert "scipy.linalg" in sys.modules
"""


def test_regime_models_run_without_scipy(model_file):
    # The dense route is numpy's; scipy loads at the first tridiagonal solve.
    proc = subprocess.run(
        [sys.executable, "-c", _REGIME_WITHOUT_SCIPY, model_file(REGIME), model_file(MPR, "mpr.json")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("MERTON_FACTOR_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("MERTON_FACTOR_THREADS", "0")
    assert worker_count() == 1  # clamped to serial
    monkeypatch.setenv("MERTON_FACTOR_THREADS", "not-a-number")
    with pytest.raises(ValueError, match="MERTON_FACTOR_THREADS"):
        worker_count()
    monkeypatch.delenv("MERTON_FACTOR_THREADS")
    assert worker_count() == 1


def test_map_ordered_preserves_order(monkeypatch):
    items = list(range(25))
    for workers in ("1", "4"):
        monkeypatch.setenv("MERTON_FACTOR_THREADS", workers)
        assert map_ordered(lambda k: k * k, items) == [k * k for k in items]


def test_emit_writes_numpy_values_as_their_python_equivalents(tmp_path, capsys):
    nan = float("nan")
    numpy_document = {
        "f64": np.float64(0.1),
        "f32": np.float32(0.1),
        "i64": np.int64(-7),
        "flag": np.bool_(True),
        "array": np.array([[1.0, np.nan], [2.5, -0.0]]),
        "ints": np.arange(3),
        "pair": (np.float64(1e-300), 2),
        "nan": nan,
        "nested": {"x": [np.int64(3), np.float32(2.5)]},
    }
    plain_document = {
        "f64": 0.1,
        "f32": 0.10000000149011612,
        "i64": -7,
        "flag": True,
        "array": [[1.0, nan], [2.5, -0.0]],
        "ints": [0, 1, 2],
        "pair": [1e-300, 2],
        "nan": nan,
        "nested": {"x": [3, 2.5]},
    }
    cli._emit(numpy_document, None)
    numpy_text = capsys.readouterr().out
    cli._emit(plain_document, None)
    assert numpy_text == capsys.readouterr().out
    target = tmp_path / "document.json"
    cli._emit(numpy_document, str(target))
    assert target.read_text() == numpy_text
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._emit({"x": object()}, None)


PUBLIC_SURFACE = set(
    """
    AsymptoticReport BoundsCertificate ConvergenceError ConvergenceTable
    DiffusionModel DiffusionSolution DiscretizationError DomainError
    HjbSolution IllPosedError MCertificate MertonFactorError ModelError NotMMatrixError
    NotZMatrixError PathSample RegimeModel SingularMatrixError
    TridiagonalOperator ValueEstimate WellPosednessReport __version__ assemble_A
    assemble_discrete_hjb asymptotic_report check_nonsingular_m_matrix check_wellposed
    cyclic_wellposed distortion_power domain_expansion_study estimate_value
    expansion_domain grid_refinement_study hjb_residual load_model
    model_to_dict nearest_neighbour_wellposed
    proportional_bounds psi psi_eta_profile read_solution_csv recompute_csv_residual
    sample_ctmc_path solve solve_hjb_fixed_point solve_hjb_newton
    solve_matrix_hjb solve_regime to_zero_correlation
    vasicek_supersolution_profile write_solution_csv
    """.split()
)
SUBMODULES = (
    "analysis",
    "diffusion_solver",
    "discretizer",
    "errors",
    "linalg",
    "model",
    "montecarlo",
    "regime_solver",
)


def test_public_surface_is_pinned():
    assert len(PUBLIC_SURFACE) == 51
    assert set(merton_factor.__all__) == PUBLIC_SURFACE
    owner = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"merton_factor.{name}")
        for export in module.__all__:
            assert export not in owner, f"{export} exported by {owner[export]} and {name}"
            owner[export] = name
            obj = getattr(merton_factor, export)
            assert obj is getattr(module, export)
            assert obj.__module__ == module.__name__, f"{export} is not defined in {name}"
    assert set(owner) == PUBLIC_SURFACE - {"__version__"}
