"""Diffusion HJB solver: exactness, convergence, duality, CSV round-trips."""

import io
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from merton_factor import (
    DiscretizationError,
    IllPosedError,
    ModelError,
    TridiagonalOperator,
    WellPosednessReport,
    assemble_discrete_hjb,
    check_nonsingular_m_matrix,
    diffusion_solver,
    domain_expansion_study,
    expansion_domain,
    grid_refinement_study,
    hjb_residual,
    load_model,
    model_to_dict,
    psi_eta_profile,
    read_solution_csv,
    recompute_csv_residual,
    regime_solver,
    solve,
    solve_regime,
    to_zero_correlation,
    write_solution_csv,
)


def mpr(**overrides):
    """The AC3 mpr model with some parameters replaced."""
    params = {"R": 1.5, "delta": 0.05, "r": 0.02, "sigma": 0.2, "kappa": 0.3}
    params.update(theta=0.5, nu=0.6, rho=-0.2)
    return load_model({"family": "mpr", "params": {**params, **overrides}})


def residual_limit(sol, model):
    """tol * scale plus the rounding floor 100 eps ||A_h||_inf ||x||_inf of a solve."""
    meta = sol.metadata
    work, _ = to_zero_correlation(model)
    A_h, _ = assemble_discrete_hjb(work, *meta["domain"], meta["N"], scheme=meta["scheme"])
    x = sol.u ** (-meta["R_tilde"])
    floor = 100 * np.finfo(float).eps * A_h.norm_inf() * np.max(x)
    return meta["tolerance"] * meta["residual_scale"] + floor


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
    assert isinstance(report, WellPosednessReport)
    assert report.verdict is False
    assert report.quick_checks.all_eta_nonpositive is True
    assert report.certificate.verdict is False
    assert np.array_equal(report.eta, bad.eta(np.linspace(-1.0, 1.0, 51)))


def _certificate_calls(monkeypatch):
    """Count calls of check_nonsingular_m_matrix under both names the solvers see."""
    calls = []
    for module in (regime_solver, diffusion_solver):

        def spy(*args, _certify=module.check_nonsingular_m_matrix, **kwargs):
            calls.append(args)
            return _certify(*args, **kwargs)

        monkeypatch.setattr(module, "check_nonsingular_m_matrix", spy)
    return calls


def test_each_successful_solve_certifies_once(
    monkeypatch, mpr_model, heston_model, bs_model, regime2_model
):
    newton_regime = load_model(
        {
            "family": "regime",
            "Q": [[-0.5, 0.5], [0.5, -0.5]],
            "r": [0.02, 0.01],
            "lambda": [0.4, 0.1],
            "sigma": [0.25, 0.2],
            "delta": [0.3, 0.18],
            "R": 0.4,
        }
    )
    calls = _certificate_calls(monkeypatch)
    solves = [
        lambda: solve(mpr_model, -3.0, 3.0, 200),
        lambda: solve(mpr_model, -3.0, 3.0, 400, scheme="central"),
        lambda: solve(heston_model, 0.005, 0.2, 200),
        lambda: solve(bs_model, -1.0, 1.0, 50),
        lambda: solve_regime(regime2_model),
        lambda: solve_regime(newton_regime),
    ]
    for run in solves:
        calls.clear()
        run()
        assert len(calls) == 1


def test_no_certificate_outlives_certification(monkeypatch, mpr_model):
    # Newton's steps may hold the witness w = A^-1 1, but not the certificate
    # (its ratios and Aw are two more N-vectors).  A witness's second try is
    # solved by a shifted_solver too, so only calls after certification
    # returns count.
    certificates, alive = [], []

    def certify(op, _certify=regime_solver.check_nonsingular_m_matrix):
        certificate = _certify(op)
        certificates.append(weakref.ref(certificate))
        return certificate

    def solver(op, _solver=TridiagonalOperator.shifted_solver):
        solve_shifted = _solver(op)

        def step(d, rhs):
            if certificates:
                alive.append(certificates[-1]() is not None)
            return solve_shifted(d, rhs)

        return step

    monkeypatch.setattr(regime_solver, "check_nonsingular_m_matrix", certify)
    monkeypatch.setattr(TridiagonalOperator, "shifted_solver", solver)
    solve(mpr_model, -3.0, 3.0, 200)
    assert alive and not any(alive)


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


def test_refinement_study_notes_when_no_order_fits(bs_model, mpr_model):
    # Constant coefficients solve exactly at every N: every difference is at
    # the floor.  Two step counts give one pair, too few for a slope.
    for model, n_list, note in (
        (bs_model, [4, 8, 16], "differences at the tolerance floor"),
        (mpr_model, [100, 200], "order fit needs at least two pairs above the tolerance floor"),
    ):
        table = grid_refinement_study(model, -2.0, 2.0, n_list)
        assert np.isnan(table.fit)
        assert table.note.startswith(note)
        assert len(table.rows) == len(n_list) - 1


def test_refinement_fit_leaves_out_pairs_at_the_floor():
    # Rows built by hand: the third pair lies below the floor 100 * tol * max|u|
    # = 4e-10, so the order is the slope through the other three pairs.
    diffs = [3.4e-9, 1.4e-9, 6.7e-11, 2.2e-9]
    rows = [{"h": 2.0 ** -k, "sup_diff": d} for k, d in enumerate(diffs)]
    log_h = np.log([row["h"] for row in rows])
    table = diffusion_solver._convergence_table(
        "refinement", "order_slope", rows, log_h, float, np.array([0.5, -4.0]), "central", 1e-12
    )
    kept = [0, 1, 3]
    expected = np.polyfit(log_h[kept], np.log([diffs[k] for k in kept]), 1)[0]
    assert table.fit == expected
    assert table.note == "1 pair(s) at the tolerance floor (<= 4e-10) excluded from the order fit"
    assert table.rows is rows and table.kind == "refinement" and table.fit_kind == "order_slope"
    # Leaving only one pair above the floor leaves no order to fit.
    rows[1]["sup_diff"] = 1e-10
    table = diffusion_solver._convergence_table(
        "refinement", "order_slope", rows[:3], log_h[:3], float, np.array([4.0]), "central", 1e-12
    )
    assert np.isnan(table.fit)
    assert table.note == "order fit needs at least two pairs above the tolerance floor"


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


@pytest.mark.parametrize(
    "window, message",
    [
        ((1.0, -1.0), r"^window must be increasing, got \(1\.0, -1\.0\)$"),
        ((-2.5, 1.0), r"^window \[-2\.5, 1\.0\] not contained in the m = 2\.0 domain \[-2, 2\]$"),
    ],
    ids=["decreasing", "outside-domain"],
)
def test_expansion_study_refuses_an_unusable_window(mpr_model, window, message):
    with pytest.raises(ValueError, match=message):
        domain_expansion_study(mpr_model, [2.0, 3.0], 0.1, window)


def test_expansion_study_notes_differences_at_the_floor(bs_model):
    study = domain_expansion_study(bs_model, [1.0, 2.0, 3.0], 0.1, (-0.5, 0.5))
    assert np.isnan(study.fit)
    assert study.note.startswith("differences at the tolerance floor")
    assert study.note.endswith("rate fit not applicable")


def test_expansion_domain_shapes(mpr_model, heston_model):
    assert expansion_domain(mpr_model, 3.0) == (-3.0, 3.0)
    lo, hi = expansion_domain(heston_model, 4.0)
    assert lo == pytest.approx(0.25, rel=0, abs=0)
    assert hi == pytest.approx(2.0, rel=0, abs=0)
    # A bounded interval clips the domain just inside its ends.
    y = [-1.0, 0.0, 1.0]
    table = {k: [0.2, 0.2, 0.2] for k in ("r", "lambda", "sigma", "delta", "a", "b")}
    tab = load_model({"family": "tabulated", "params": {"R": 2.0, "y": y, **table}})
    assert expansion_domain(tab, 0.5) == (-0.5, 0.5)
    assert expansion_domain(tab, 3.0) == (-1.0 + 1e-9, 1.0 - 1e-9)
    for model in (mpr_model, heston_model, tab):
        for m in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="expansion step m must be positive and finite"):
                expansion_domain(model, m)


def test_expansion_refuses_an_m_that_leaves_no_domain(heston_model):
    # A table over [1, 2] and m = 0.5 would clip [-0.5, 0.5] to an inverted
    # interval; heston's (1/m, sqrt(m)) is empty for m <= 1.
    table = {k: [0.2, 0.2, 0.2] for k in ("r", "lambda", "sigma", "delta", "a", "b")}
    tab = load_model({"family": "tabulated", "params": {"R": 2.0, "y": [1.0, 1.5, 2.0], **table}})
    assert expansion_domain(tab, 1.5) == (1.0 + 2e-9, 1.5)
    no_domain = "m = 0.5 leaves no domain inside the state interval"
    for model in (tab, heston_model):
        with pytest.raises(ValueError, match=no_domain):
            expansion_domain(model, 0.5)
    with pytest.raises(ValueError, match=no_domain):
        domain_expansion_study(tab, [0.5, 1.5], 0.05, (1.2, 1.4))


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
    # Blank lines before the column header are skipped.
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["", lines[0], "", *lines[1:]]) + "\n")
    assert read_solution_csv(path)[0] == meta
    # A file cut before its column header is refused by name.
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


def test_csv_reader_refuses_malformed_tables_by_name(tmp_path, mpr_model):
    sol = solve(mpr_model, -3.0, 3.0, 60)
    path = tmp_path / "solution.csv"
    write_solution_csv(path, sol, mpr_model)
    lines = path.read_text().splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    head, rows = lines[: header_at + 1], lines[header_at + 1 :]
    cases = [
        ([], "no data rows under its 8-column header"),
        (["", "# a comment, then a blank line", "  "], "no data rows under its 8-column header"),
        ([row.rpartition(",")[0] for row in rows], "61 rows of 7 values under its 8-column header"),
        ([row + ",0" for row in rows], "61 rows of 9 values under its 8-column header"),
    ]
    for body, message in cases:
        path.write_text("\n".join(head + body) + "\n")
        for reader in (read_solution_csv, recompute_csv_residual):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{re.escape(f'{path} has {message}')}$"):
                    reader(path)


def test_csv_rows_match_savetxt():
    block = diffusion_solver._CSV_BLOCK_ROWS
    rng = np.random.default_rng(18)
    bodies = [
        rng.standard_normal((rows, 8)) * 10.0 ** rng.integers(-300, 300, (rows, 8))
        for rows in (1, block - 1, block, block + 1, 2 * block + 3)
    ]
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072014e-308]
    special += [1.7976931348623157e308, 0.1]
    bodies.append(np.array([np.roll(special, shift) for shift in range(len(special))]))
    for body in bodies:
        text = io.StringIO()
        diffusion_solver._write_csv_rows(text, list(body.T))
        assert text.getvalue() == oracles.savetxt_body(body)


def _csv_body_text(path):
    lines = path.read_text().splitlines(keepends=True)
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return "".join(lines[header_at + 1 :])


def test_written_tables_match_savetxt(tmp_path, regime2_model, vasicek_model):
    regime = solve_regime(regime2_model, tol=1e-12)
    path = tmp_path / "regime.csv"
    write_solution_csv(path, regime, regime2_model)
    nan = np.full(regime2_model.n_states, np.nan)
    body = np.column_stack(
        [np.arange(regime2_model.n_states), regime.u, regime.f, regime.u, regime.pi_hat]
        + [regime2_model.eta(), nan, nan]
    )
    assert _csv_body_text(path) == oracles.savetxt_body(body)

    sol = solve(vasicek_model, -0.3, 0.3, 300)
    path = tmp_path / "vasicek.csv"
    write_solution_csv(path, sol, vasicek_model)
    eta = vasicek_model.eta(sol.grid)
    positive = eta > 0.0
    assert 0 < np.count_nonzero(positive) < positive.size  # psi_eta is partly NaN
    psi_eta = np.full(eta.shape, np.nan)
    psi_eta[positive] = psi_eta_profile(vasicek_model, sol.grid[positive])
    body = np.column_stack([sol.grid, sol.u, sol.f, sol.u, sol.pi_hat, eta, psi_eta, sol.du_over_u])
    assert _csv_body_text(path) == oracles.savetxt_body(body)


def test_regime_csv_logs_trace_and_residual_scale(tmp_path, regime2_model):
    regime = solve_regime(regime2_model, tol=1e-12)
    path = tmp_path / "regime.csv"
    write_solution_csv(path, regime, regime2_model)
    logged = read_solution_csv(path)[0]["solve"]
    assert logged["tolerance"] == 1e-12  # the solve's own, not passed to the writer
    assert logged["trace"] == regime.trace.tolist() and len(logged["trace"]) > 0
    assert logged["residual_scale"] == regime.residual_scale
    assert recompute_csv_residual(path) == (regime.residual, regime.residual)


def test_diffusion_metadata_is_the_grid_then_the_solve_record(tmp_path, mpr_model):
    sol = solve(mpr_model, -3.0, 3.0, 200, tol=1e-11)
    work, phi = to_zero_correlation(mpr_model)
    assert phi != 1.0
    A_h, _ = assemble_discrete_hjb(work, -3.0, 3.0, 200)
    core = regime_solver.solve_matrix_hjb(A_h, work.R, tol=1e-11)
    expected = {"N": 200, "domain": (-3.0, 3.0), "scheme": "upwind", "phi": phi, "R_tilde": work.R}
    expected.update(core.metadata)
    # phi != 1: the residual is that of the vector a CSV reader rebuilds from u
    check = sol.u ** (-work.R)
    expected["residual"], expected["residual_scale"] = regime_solver._hjb_residual(
        A_h.matvec, check, core.p
    )
    assert list(sol.metadata) == list(expected) and sol.metadata == expected
    assert expected["tolerance"] == 1e-11
    path = tmp_path / "mpr.csv"
    write_solution_csv(path, sol, mpr_model)
    assert read_solution_csv(path)[0]["solve"] == dict(expected, domain=[-3.0, 3.0])


def test_heston_solves_on_positive_truncation(heston_model):
    lo, hi = expansion_domain(heston_model, 8.0)
    sol = solve(heston_model, lo, hi, 800)
    assert np.all(sol.u > 0.0)
    assert np.all(np.isfinite(sol.pi_hat))


def test_vasicek_solves_and_policies_are_finite(vasicek_model):
    sol = solve(vasicek_model, -4.45, 4.45, 1000)
    assert np.all(sol.u > 0.0)
    assert np.all(np.isfinite(sol.du_over_u))


@pytest.mark.parametrize(
    "family, rho, R",
    [
        (family, rho, R)
        for family in ("mpr", "vasicek", "heston")
        for rho in (0.0, -0.2, 0.5)
        for R in (0.7, 1.5, 4.0)
        # mpr with R < 1 has eta -> -inf in both tails, so its A_h is refused.
        if not (family == "mpr" and R < 1.0)
    ],
)
def test_raising_delta_raises_u_at_every_node(request, family, rho, R):
    # Comparison principle: more impatience means a larger consumption rate.
    params = model_to_dict(request.getfixturevalue(f"{family}_model"))["params"]
    lo, hi = {"mpr": (-3.0, 3.0), "vasicek": (-0.3, 0.3), "heston": (0.005, 0.2)}[family]
    n = 400
    base, bumped = (
        load_model({"family": family, "params": {**params, "R": R, "rho": rho, "delta": delta}})
        for delta in (0.05, 0.1)
    )
    for scheme in ("upwind", "central"):
        try:
            u_base = solve(base, lo, hi, n, scheme=scheme).u
        except DiscretizationError:  # central refuses h >= h*
            assert scheme == "central"
            continue
        assert np.all(solve(bumped, lo, hi, n, scheme=scheme).u - u_base > 0.0), scheme


@pytest.mark.parametrize("n_steps", [1_000, 10_000, 100_000])
def test_newton_route_reaches_the_rounding_floor(n_steps):
    # R = 0.4 gives p = 1 - 1/R~ < -1, so solve takes Newton.  Its residual
    # cannot fall below eps ||A_h|| ||x||, which grows like 1/h^2; a
    # residual-only stop never fired here and raised ConvergenceError.
    model = mpr(R=0.4, delta=0.6)
    sol = solve(model, -0.5, 0.5, n_steps)
    assert sol.metadata["method"] == "newton"
    assert sol.metadata["iterations"] <= 10
    assert np.all(sol.u > 0.0)
    assert sol.metadata["residual"] <= residual_limit(sol, model)


def test_newton_step_count_does_not_depend_on_the_grid():
    # The first three log-sup steps agree across N (the third is about 7e-7);
    # later ones are rounding noise that grows with N, so a stop on the step
    # size alone would count a grid-dependent number of them.
    model = mpr()
    counts = set()
    for n_steps in (1_000, 10_000, 100_000):
        meta = solve(model, -3.0, 3.0, n_steps).metadata
        assert (meta["method"], meta["stop"]) == ("newton", "quadratic")
        counts.add(meta["iterations"])
    assert counts == {3}


@pytest.mark.parametrize(
    "overrides, domain, max_steps",
    [({"R": 0.49, "delta": 0.6}, (-0.5, 0.5), 5), ({"R": 10.0}, (-3.0, 3.0), 8)],
    ids=["R_tilde_0.51", "R_10"],
)
def test_newton_is_fast_where_the_contraction_is_slow(overrides, domain, max_steps):
    # |p| = 0.96 and 0.90: the fixed point takes 474 and 217 steps at N = 10^3.
    model = mpr(**overrides)
    coarse, fine = (solve(model, *domain, n_steps) for n_steps in (1_000, 100_000))
    for sol in (coarse, fine):
        assert sol.metadata["method"] == "newton"
        assert sol.metadata["iterations"] <= max_steps
        assert sol.metadata["residual"] <= residual_limit(sol, model)
    work, _ = to_zero_correlation(model)
    A_h, _ = assemble_discrete_hjb(work, *domain, 1_000)
    fixed = regime_solver.solve_hjb_fixed_point(A_h, coarse.metadata["p"])
    assert np.max(np.abs(np.log(fixed.f) + work.R * np.log(coarse.u))) <= 1e-9


@pytest.mark.parametrize(
    "family, tol, stop",
    [("mpr", 1e-10, "quadratic"), ("black_scholes", 1e-10, "step"), ("mpr", 1e-300, "floor")],
)
def test_each_stop_rule_is_reported(bs_model, family, tol, stop):
    # A constant-coefficient start is already the root, so its first step
    # meets tol; tol = 1e-300, far below any nonzero step, can only end at
    # the rounding floor (tol = 0 is refused).
    model = mpr() if family == "mpr" else bs_model
    sol = solve(model, -0.5, 0.5, 100, tol=tol)
    assert sol.metadata["stop"] == stop
    assert sol.metadata["residual"] <= residual_limit(sol, model)


def test_solve_working_memory_per_node():
    # The solve peaks at 88 B/node, in a Newton step: the bands, the grid,
    # x, log x, x^p, the residual, shift / x and the two off-diagonal copies
    # that every dgtsv call of the loop reuses.  The certificate peaks at 68
    # and the residual at 80.  Keeping A's LU through the steps (+36 B/node),
    # building a factor per step or one more N-vector per step crosses the
    # bound.
    model = mpr()
    solve(model, -3.0, 3.0, 1_000)
    n_steps = 200_000
    tracemalloc.start()
    try:
        solve(model, -3.0, 3.0, n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n_steps + 1) <= 92.0, f"{peak / (n_steps + 1):.1f} B/node"


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    R=st.floats(0.15, 0.49) | st.floats(0.55, 4.0).filter(lambda R: abs(R - 1.0) > 1e-3),
    delta=st.floats(-0.2, 0.8),
    domain=st.sampled_from([(-0.5, 0.5), (-3.0, 3.0)]),
    n_steps=st.sampled_from([10, 100, 1000, 10_000]),
)
def test_verdict_and_solve_agree_on_discretized_mpr(R, delta, domain, n_steps):
    model = mpr(R=R, delta=delta)
    A_h, _ = assemble_discrete_hjb(to_zero_correlation(model)[0], *domain, n_steps)
    if not check_nonsingular_m_matrix(A_h).verdict:
        with pytest.raises(IllPosedError) as refusal:
            solve(model, *domain, n_steps)
        assert isinstance(refusal.value.report, WellPosednessReport)
        assert refusal.value.report.certificate.verdict is False
        return
    sol = solve(model, *domain, n_steps)
    assert np.all(sol.u > 0.0)
    assert sol.metadata["residual"] <= residual_limit(sol, model)


def test_zero_correlation_solve_logs_the_solver_residual(tmp_path):
    # With rho = 0 the solved vector is f itself; its residual and scale are
    # ||A_h f - f^p|| and ||f^p|| exactly, and the CSV reproduces them.
    model = mpr(rho=0.0)
    sol = solve(model, -3.0, 3.0, 1000)
    meta = sol.metadata
    assert meta["phi"] == 1.0
    A_h, _ = assemble_discrete_hjb(model, -3.0, 3.0, 1000)
    rhs = sol.f ** meta["p"]
    assert meta["residual"] == float(np.max(np.abs(A_h.matvec(sol.f) - rhs)))
    assert meta["residual_scale"] == float(np.max(np.abs(rhs)))
    path = tmp_path / "rho0.csv"
    write_solution_csv(path, sol, model)
    csv_meta, columns = read_solution_csv(path)
    assert csv_meta["solve"] == {**meta, "domain": list(meta["domain"])}
    assert np.array_equal(columns["f"], sol.f) and np.array_equal(columns["u"], sol.u)
    assert recompute_csv_residual(path) == (meta["residual"], meta["residual"])
