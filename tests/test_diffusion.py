"""Diffusion HJB solver: exactness, convergence, duality, CSV round-trips."""

import numpy as np
import pytest

import oracles
from merton_factor import (
    DiscretizationError,
    IllPosedError,
    ModelError,
    domain_expansion_study,
    expansion_domain,
    grid_refinement_study,
    hjb_residual,
    load_model,
    read_solution_csv,
    recompute_csv_residual,
    solve,
    write_solution_csv,
)


def test_constant_coefficients_reproduce_closed_form(bs_model):
    value, eta = oracles.frozen_bs_value(1.0, 2.0, 0.1, 0.02, 0.3)
    sol = solve(bs_model, -1.0, 1.0, 64)
    assert np.max(np.abs(sol.u - eta)) <= 1e-12
    assert sol.f == pytest.approx(np.full_like(sol.f, eta**-2.0), rel=1e-11, abs=0)
    assert sol.pi_hat == pytest.approx(np.full_like(sol.u, 0.6), rel=0, abs=1e-12)
    # V(x) = x^(1-R)/(1-R) f: at x = 1 this is -f = -eta^-2.
    assert -sol.f[0] == pytest.approx(value, rel=1e-12)


def test_solution_invariants(mpr_model):
    sol = solve(mpr_model, -3.0, 3.0, 600)
    assert np.all(sol.u > 0.0)
    assert np.all(sol.f > 0.0)
    assert sol.f == pytest.approx(sol.u ** (-mpr_model.R), rel=1e-12, abs=0)
    assert sol.du_over_u == pytest.approx(
        np.gradient(sol.u, float(sol.grid[1] - sol.grid[0])) / sol.u, rel=0, abs=1e-15
    )
    meta = sol.metadata
    assert meta["N"] == 600
    assert meta["scheme"] == "upwind"
    assert meta["domain"] == (-3.0, 3.0)
    assert meta["phi"] == pytest.approx(75.0 / 74.0, rel=0, abs=1e-15)
    assert meta["R_tilde"] == pytest.approx(1.48, rel=0, abs=1e-15)
    assert meta["residual"] <= 1e-6  # small but h-dependent; exact contract below


def test_reported_residual_is_recomputable(mpr_model):
    # The reported residual is measured on the transformed unknown
    # u^(-R_tilde) against the assembled operator; recompute it.
    from merton_factor import assemble_discrete_hjb, to_zero_correlation

    sol = solve(mpr_model, -3.0, 3.0, 400)
    work, phi = to_zero_correlation(mpr_model)
    A_h, _ = assemble_discrete_hjb(work, -3.0, 3.0, 400)
    check = sol.u ** (-work.R)
    residual = float(np.max(np.abs(A_h.matvec(check) - check ** sol.metadata["p"])))
    assert residual == pytest.approx(sol.metadata["residual"], rel=0, abs=0)
    assert sol.metadata["residual"] <= 10 * sol.metadata["tolerance"] * sol.metadata[
        "residual_scale"
    ] + 100 * np.finfo(float).eps * A_h.norm_inf() * np.max(check)


def test_upwind_solution_converges_under_refinement(mpr_model):
    coarse = solve(mpr_model, -3.0, 3.0, 600)
    fine = solve(mpr_model, -3.0, 3.0, 2400)
    assert np.max(np.abs(coarse.u - fine.u[::4])) <= 1e-3


def test_correlated_solution_satisfies_original_equation(mpr_model):
    # The solver works through the zero-correlation transform; verify the
    # result against the untransformed equation by direct substitution.
    assert mpr_model.rho != 0.0
    sol = solve(mpr_model, -3.0, 3.0, 2400, scheme="central")
    residual = hjb_residual(mpr_model, sol.grid, sol.u)
    assert np.nanmax(np.abs(residual)) <= 5e-5
    sol_up = solve(mpr_model, -3.0, 3.0, 2400, scheme="upwind")
    residual_up = hjb_residual(mpr_model, sol_up.grid, sol_up.u)
    assert np.nanmax(np.abs(residual_up)) <= 5e-3
    # Both discretizations approximate the same function.
    assert np.max(np.abs(sol.u - sol_up.u)) <= 5e-4


def test_residual_nan_endpoints_alignment(mpr_model):
    sol = solve(mpr_model, -3.0, 3.0, 100)
    residual = hjb_residual(mpr_model, sol.grid, sol.u)
    assert np.isnan(residual[0]) and np.isnan(residual[-1])
    assert np.all(np.isfinite(residual[1:-1]))
    assert residual.shape == sol.grid.shape


def test_schemes_agree_on_smooth_problem(mpr_model):
    up = solve(mpr_model, -2.0, 2.0, 1200, scheme="upwind")
    cen = solve(mpr_model, -2.0, 2.0, 1200, scheme="central")
    assert np.max(np.abs(up.u - cen.u)) <= 2e-4
    assert cen.metadata["scheme"] == "central"


def test_ill_posed_problem_is_refused_with_report():
    bad = load_model(
        {
            "family": "black_scholes",
            "params": {"R": 2.0, "delta": -0.2, "r": 0.02, "lambda": 0.3},
        }
    )
    assert oracles.frozen_rate_scalar(2.0, -0.2, 0.02, 0.3) < 0.0
    with pytest.raises(IllPosedError) as exc_info:
        solve(bad, -1.0, 1.0, 50)
    report = exc_info.value.report
    assert report.verdict is False
    assert report.quick_checks.all_eta_nonpositive is True
    assert report.certificate.verdict is False


def test_solve_input_validation(mpr_model, regime2_model):
    with pytest.raises(ModelError):
        solve(regime2_model, -1.0, 1.0, 10)
    with pytest.raises(DiscretizationError, match="scheme"):
        solve(mpr_model, -1.0, 1.0, 10, scheme="spectral")


def test_refinement_study_rows_and_first_order_fit(mpr_model):
    table = grid_refinement_study(mpr_model, -3.0, 3.0, [150, 300, 600, 1200])
    assert [row["n_coarse"] for row in table.rows] == [150, 300, 600]
    diffs = [row["sup_diff"] for row in table.rows]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert table.fit == pytest.approx(1.0, abs=0.3)
    assert table.kind == "refinement"


def test_refinement_study_validates_divisibility(mpr_model):
    with pytest.raises(ValueError, match="divide"):
        grid_refinement_study(mpr_model, -3.0, 3.0, [100, 150])
    with pytest.raises(ValueError, match="increasing"):
        grid_refinement_study(mpr_model, -3.0, 3.0, [100])


def test_expansion_study_decays_geometrically(mpr_model):
    study = domain_expansion_study(mpr_model, [2.0, 3.0, 4.0, 5.0], 0.01, (-1.0, 1.0))
    diffs = [row["sup_diff"] for row in study.rows]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert study.fit_kind == "geometric_rate"
    assert 0.0 < study.fit < 0.5


def test_expansion_domain_shapes(mpr_model, heston_model):
    assert expansion_domain(mpr_model, 3.0) == (-3.0, 3.0)
    lo, hi = expansion_domain(heston_model, 4.0)
    assert lo == pytest.approx(0.25, rel=0, abs=0)
    assert hi == pytest.approx(2.0, rel=0, abs=0)


def test_csv_round_trip_is_bitwise(tmp_path, mpr_model):
    sol = solve(mpr_model, -3.0, 3.0, 300)
    path = tmp_path / "solution.csv"
    write_solution_csv(path, sol, mpr_model)
    meta, cols = read_solution_csv(path)
    assert np.array_equal(cols["y"], sol.grid)
    assert np.array_equal(cols["u"], sol.u)
    assert np.array_equal(cols["f"], sol.f)
    assert np.array_equal(cols["pi"], sol.pi_hat)
    assert meta["model"]["family"] == "mpr"
    assert meta["solve"]["N"] == 300
    recomputed, stored = recompute_csv_residual(path)
    assert recomputed == stored
    # A file cut before its column header is refused by name.
    lines = path.read_text().splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    path.write_text("\n".join(lines[:header_at]) + "\n")
    with pytest.raises(ValueError, match="no column header"):
        read_solution_csv(path)


def test_csv_rejects_tampered_content(tmp_path, mpr_model):
    sol = solve(mpr_model, -3.0, 3.0, 60)
    path = tmp_path / "solution.csv"
    write_solution_csv(path, sol, mpr_model)
    text = path.read_text().splitlines()
    it = (i for i, line in enumerate(text) if not line.startswith("#"))
    first_data = next(it)
    fields = text[first_data + 1].split(",")
    fields[1] = repr(float(fields[1]) * 1.5)
    text[first_data + 1] = ",".join(fields)
    path.write_text("\n".join(text) + "\n")
    recomputed, stored = recompute_csv_residual(path)
    assert recomputed > 100 * stored


def test_heston_solves_on_positive_truncation(heston_model):
    lo, hi = expansion_domain(heston_model, 8.0)
    sol = solve(heston_model, lo, hi, 800)
    assert np.all(sol.u > 0.0)
    assert np.all(np.isfinite(sol.pi_hat))


def test_vasicek_solves_and_policies_are_finite(vasicek_model):
    sol = solve(vasicek_model, -4.45, 4.45, 1000)
    assert np.all(sol.u > 0.0)
    assert np.all(np.isfinite(sol.du_over_u))
