"""Psi functional, proportional bounds, asymptotic diagnostics."""

import numpy as np
import pytest

from merton_factor import (
    DomainError,
    asymptotic_report,
    constant_profile,
    eta_profile,
    hjb_residual,
    load_model,
    proportional_bounds,
    psi,
    psi_eta_profile,
    solve,
    vasicek_supersolution_profile,
)


def test_psi_of_constant_profile_is_exactly_one(mpr_model):
    g, gp, gpp = constant_profile(0.37)
    y = np.linspace(-3.0, 3.0, 11)
    ev = psi(mpr_model, g, gp, gpp, y)
    assert np.array_equal(ev.psi_g, np.ones(11))
    assert np.array_equal(ev.g, np.full(11, 0.37))


def test_psi_eta_pinned_values(mpr_model):
    # Hand evaluation for eta(y) = 0.04 + y^2/9, a_tilde = 0.15 - 0.26 y,
    # b = 0.6, d = (0.18)((0.96)(1.5) + 1.04):
    # Psi eta(0) = 1 + (0.5*0.36*(2/9)) / 0.04^2 = 1 + 0.04/0.0016 = 26.
    assert psi_eta_profile(mpr_model, 0.0) == pytest.approx([26.0], rel=0, abs=5e-13)
    assert psi_eta_profile(mpr_model, 10.0) == pytest.approx([0.954948], abs=5e-7)
    assert psi_eta_profile(mpr_model, -10.0) == pytest.approx([0.949586], abs=5e-7)
    # Large |y|: Psi eta tends to 1 (the eta profile becomes self-similar).
    assert psi_eta_profile(mpr_model, 80.0) == pytest.approx([1.0], abs=2e-3)


def test_psi_matches_eta_profile_route(mpr_model):
    g, gp, gpp = eta_profile(mpr_model)
    y = np.array([-2.0, 0.5, 3.0])
    via_psi = psi(mpr_model, g, gp, gpp, y).psi_g
    assert np.array_equal(via_psi, psi_eta_profile(mpr_model, y))


def test_psi_rejects_nonpositive_profiles(mpr_model):
    g, gp, gpp = constant_profile(1.0)
    with pytest.raises(DomainError, match="positive"):
        psi(mpr_model, lambda y: y, gp, gpp, np.array([-1.0, 1.0]))


def test_psi_accepts_array_profiles_with_note(mpr_model):
    grid = np.linspace(-2.0, 2.0, 41)
    values = mpr_model.eta(grid)
    cert = proportional_bounds(mpr_model, None, values, grid)
    assert "central differences" in cert.derivative_note
    assert cert.C2 == pytest.approx(26.0, rel=0.05)


def test_proportional_bounds_certificate_and_sandwich(mpr_model):
    sol = solve(mpr_model, -3.0, 3.0, 1200)
    cert = proportional_bounds(mpr_model, constant_profile(0.04), "eta", sol.grid)
    assert cert.valid is True
    # Constant profiles have Psi = 1 exactly, so C1 = 1.
    assert cert.C1 == pytest.approx(1.0, rel=0, abs=1e-15)
    # C2 is the grid supremum of Psi eta (peaks near, not exactly at, 0).
    assert cert.C2 == pytest.approx(float(np.max(psi_eta_profile(mpr_model, sol.grid))), rel=0, abs=0)
    assert cert.C2 >= 26.0
    lower, upper = cert.lower(), cert.upper()
    assert np.all(lower <= sol.u)
    assert np.all(sol.u <= upper)
    doc = cert.to_dict()
    assert doc["valid"] is True


def test_proportional_bounds_enforce_profile_ordering(mpr_model):
    grid = np.linspace(-3.0, 3.0, 13)
    with pytest.raises(ValueError, match="g1 > eta"):
        proportional_bounds(mpr_model, constant_profile(50.0), "eta", grid)
    with pytest.raises(ValueError, match="eta > g2"):
        proportional_bounds(mpr_model, None, constant_profile(0.05), grid)
    with pytest.raises(ValueError, match="at least one"):
        proportional_bounds(mpr_model, None, None, grid)


def test_one_sided_certificate(mpr_model):
    grid = np.linspace(-3.0, 3.0, 13)
    cert = proportional_bounds(mpr_model, None, "eta", grid)
    assert cert.C1 is None
    assert cert.lower() is None
    assert cert.upper() is not None


def test_vasicek_supersolution_profile_derivatives(vasicek_model):
    g, gp, gpp = vasicek_supersolution_profile(vasicek_model)
    y = np.array([-4.0, -1.0, 0.0, 1.5, 4.0])
    h = 1e-4
    fd1 = (g(y + h) - g(y - h)) / (2 * h)
    fd2 = (g(y + h) - 2 * g(y) + g(y - h)) / h**2
    assert gp(y) == pytest.approx(fd1, rel=1e-6, abs=1e-9)
    assert gpp(y) == pytest.approx(fd2, rel=1e-4, abs=1e-6)
    assert np.all(g(y) > 0.0)


def test_vasicek_profile_is_supersolution_on_the_left(vasicek_model):
    g, gp, gpp = vasicek_supersolution_profile(vasicek_model)
    y = np.linspace(-4.45, 0.0, 50)
    ev = psi(vasicek_model, g, gp, gpp, y)
    assert np.all(ev.psi_g >= 1.0 - 1e-9)


def test_asymptotic_report_structure(mpr_model):
    sol = solve(mpr_model, -3.0, 3.0, 600)
    rep = asymptotic_report(sol, mpr_model)
    doc = rep.to_dict()
    assert set(doc) == {
        "ratio_left",
        "ratio_right",
        "logderiv_left",
        "logderiv_right",
        "below_eta_flag",
        "below_eta_psi_flag",
        "psi_eta_below_eta_flag",
        "mean_reversion_check",
        "window",
    }
    assert doc["mean_reversion_check"]["applicable"] is True
    assert doc["mean_reversion_check"]["family"] == "mpr"
    assert doc["mean_reversion_check"]["kappa"] == 0.3
    assert doc["mean_reversion_check"]["satisfied"] is True
    # u stays below eta somewhere in the tails for this strongly
    # mean-reverting instance.
    assert isinstance(doc["below_eta_flag"], bool)
    window = doc["window"]
    assert window["tail_fraction"] == 0.1
    assert window["left_y"][0] == -3.0


def test_mean_reversion_check_needs_an_ou_or_square_root_factor(bs_model):
    y = np.linspace(-1.0, 1.0, 21)
    columns = {"r": 0.02 + 0 * y, "lambda": 0.3 * y, "sigma": 0.25 + 0 * y,
               "delta": 0.1 + 0 * y, "a": -0.5 * y, "b": 0.4 + 0 * y}
    tab = load_model({"family": "tabulated", "params": {"R": 2.0, "y": y, **columns}})
    for model in (bs_model, tab):
        doc = asymptotic_report(solve(model, -0.9, 0.9, 200), model).to_dict()
        assert doc["mean_reversion_check"] == {"applicable": False, "family": model.family}


def test_asymptotic_report_window_parameters(mpr_model):
    sol = solve(mpr_model, -3.0, 3.0, 600)
    rep = asymptotic_report(sol, mpr_model, tail_fraction=0.25, margin_fraction=0.05)
    window = rep.to_dict()["window"]
    assert window["tail_fraction"] == 0.25
    assert window["tail_nodes"] == 150
    assert window["margin_nodes"] == 30


def test_residual_detects_local_tampering(mpr_model):
    sol = solve(mpr_model, -3.0, 3.0, 800)
    base = np.nanmax(np.abs(hjb_residual(mpr_model, sol.grid, sol.u)))
    u = sol.u.copy()
    u[400] *= 1.001
    spiked = np.abs(hjb_residual(mpr_model, sol.grid, u))
    h = float(sol.grid[1] - sol.grid[0])
    # A point perturbation of relative size 1e-3 shows up at the scale
    # b^2/h^2 * du ~ 1e-3/h^2 * b^2 u, orders of magnitude above the base.
    assert np.nanmax(spiked) > 100 * base
    assert np.nanmax(spiked) > 0.1 * 0.6**2 * 1e-3 * sol.u[400] / h**2


def test_solved_u_satisfies_psi_identity(mpr_model):
    # Plugging the equation into the operator: Psi u = 2 - eta/u wherever
    # the residual vanishes, so the discrete solution must reproduce the
    # identity up to discretization error (second order for central).
    sol = solve(mpr_model, -3.0, 3.0, 2400, scheme="central")
    grid, u = sol.grid, sol.u
    h = float(grid[1] - grid[0])
    du = np.gradient(u, h)
    d2u = np.empty_like(u)
    d2u[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
    d2u[0], d2u[-1] = d2u[1], d2u[-2]
    inner = slice(40, -40)
    ev = psi(mpr_model, u[inner], du[inner], d2u[inner], grid[inner])
    identity = 2.0 - mpr_model.eta(grid[inner]) / u[inner]
    assert np.max(np.abs(ev.psi_g - identity)) < 2e-4
