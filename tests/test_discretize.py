"""Finite-difference generators: stencils, monotonicity, conservation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from merton_factor import (
    DiscretizationError,
    TridiagonalOperator,
    assemble_discrete_hjb,
    load_model,
    to_zero_correlation,
)
from merton_factor.discretizer import _grid_and_coefficients, _stencil


def generator(model, e_minus, e_plus, n_steps, scheme="upwind"):
    """Q_h on the grid of :func:`assemble_discrete_hjb`, from the stencil it scales."""
    grid, h, a, b = _grid_and_coefficients(model, e_minus, e_plus, n_steps)
    return TridiagonalOperator(*_stencil(a, b, h, scheme)), grid, h


def tabulated(y, a, b, lam=None, R=2.0):
    """Piecewise-linear model over y, padded one cell so the full range is usable."""
    y = np.asarray(y, dtype=float)
    pad = y[1] - y[0]
    y = np.concatenate([[y[0] - pad], y, [y[-1] + pad]])
    a = np.concatenate([[a[0]], np.asarray(a, dtype=float), [a[-1]]])
    b = np.concatenate([[b[0]], np.asarray(b, dtype=float), [b[-1]]])
    lam = np.zeros_like(y) if lam is None else np.concatenate([[lam[0]], np.asarray(lam, dtype=float), [lam[-1]]])
    return load_model(
        {
            "family": "tabulated",
            "params": {
                "R": R,
                "y": y.tolist(),
                "r": (0.02 + 0.0 * y).tolist(),
                "lambda": lam.tolist(),
                "sigma": (0.25 + 0.0 * y).tolist(),
                "delta": (0.1 + 0.0 * y).tolist(),
                "a": np.asarray(a, dtype=float).tolist(),
                "b": np.asarray(b, dtype=float).tolist(),
            },
        }
    )


@pytest.mark.parametrize("scheme", ["upwind", "central"])
def test_operator_matches_dense_transcription(mpr_model, scheme):
    A_h, grid = assemble_discrete_hjb(mpr_model, -3.0, 3.0, 24, scheme=scheme)
    expected = getattr(oracles, f"dense_{scheme}_operator")(
        mpr_model.eta(grid),
        mpr_model.a(grid),
        mpr_model.b(grid),
        mpr_model.R,
        float(grid[1] - grid[0]),
    )
    got = A_h.to_dense()
    # Off-diagonal bands follow the identical arithmetic path: bitwise equal.
    assert np.array_equal(np.diag(got, -1), np.diag(expected, -1))
    assert np.array_equal(np.diag(got, 1), np.diag(expected, 1))
    # The diagonal uses the conservative form -(sub + sup) instead of the
    # written-out stencil, so agreement is to rounding only.
    assert np.diag(got) == pytest.approx(np.diag(expected), rel=5e-15, abs=0)


def test_unknown_scheme_is_refused_before_coefficients(mpr_model, monkeypatch):
    monkeypatch.setattr(mpr_model, "a", lambda y: pytest.fail("drift evaluated"))
    with pytest.raises(DiscretizationError, match="unknown scheme 'spectral'"):
        assemble_discrete_hjb(mpr_model, -3.0, 3.0, 24, scheme="spectral")


@pytest.mark.parametrize("scheme", ["upwind", "central"])
def test_assembly_fills_bands_in_place(mpr_model, scheme):
    # Q_h's bands are scaled into A_h in place and a, b are dropped before
    # eta is evaluated: the peak is 56 B per node (80 with fresh A_h bands).
    work, _ = to_zero_correlation(mpr_model)
    n_steps = 200_000
    tracemalloc.start()
    try:
        assemble_discrete_hjb(work, -3.0, 3.0, n_steps, scheme=scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n_steps + 1) <= 64.0, f"{peak / (n_steps + 1):.1f} B/node"


def test_two_node_generator_is_symmetric_half_rate():
    # b = 1, a = 0 on [0, 1] with one step: both reflection rows give
    # rate b^2/(2 h^2) = 1/2, i.e. the two-state generator [[-.5,.5],[.5,-.5]].
    y = np.linspace(0.0, 1.0, 5)
    model = tabulated(y, 0.0 * y, 1.0 + 0.0 * y)
    Q_h, _, _ = generator(model, 0.0, 1.0, 1)
    assert np.array_equal(Q_h.to_dense(), [[-0.5, 0.5], [0.5, -0.5]])


def test_generators_conserve_probability(mpr_model):
    for n_steps, scheme in ((50, "upwind"), (100, "central")):
        Q_h, _, _ = generator(mpr_model, -3.0, 3.0, n_steps, scheme)
        rows = Q_h.to_dense().sum(axis=1)
        assert np.max(np.abs(rows)) <= 1e-13 * Q_h.norm_inf()


def test_generators_are_monotone_z_matrices(mpr_model):
    for n_steps, scheme in ((50, "upwind"), (100, "central")):
        Q_h, _, _ = generator(mpr_model, -3.0, 3.0, n_steps, scheme)
        assert np.all(Q_h.sub >= 0.0)
        assert np.all(Q_h.sup >= 0.0)
        assert np.all(Q_h.main <= 0.0)


def test_assembled_rows_sum_to_eta(mpr_model):
    A_h, grid = assemble_discrete_hjb(mpr_model, -3.0, 3.0, 40)
    rows = A_h.to_dense().sum(axis=1)
    eta = mpr_model.eta(grid)
    assert rows == pytest.approx(eta, rel=1e-12, abs=1e-12)


def test_monotone_step_limit_value(mpr_model):
    # b = 0.6 constant, drift 0.3(0.5 - y): sup |a| on [-3, 3] is 1.05 at y = -3,
    # so h* = 0.36 / 1.05 = 12/35 = 0.342857...
    _, _, a, b = _grid_and_coefficients(mpr_model, -3.0, 3.0, 100)
    with pytest.raises(DiscretizationError, match=r"h\* = 0\.342857 for .*, got h = 0\.35;"):
        _stencil(a, b, 0.35, "central")
    # Bracket h* to a relative 1e-14 on both sides.
    with pytest.raises(DiscretizationError, match=r"h\* = 0\.342857 "):
        _stencil(a, b, 12.0 / 35.0 * (1.0 + 1e-14), "central")
    _stencil(a, b, 12.0 / 35.0 * (1.0 - 1e-14), "central")


def test_central_scheme_enforces_step_limit(mpr_model):
    with pytest.raises(DiscretizationError, match="h\\*"):
        generator(mpr_model, -3.0, 3.0, 10, "central")
    # The upwind scheme has no such restriction.
    generator(mpr_model, -3.0, 3.0, 10)


def test_central_upwind_interior_identical_for_zero_drift():
    y = np.linspace(-1.0, 1.0, 9)
    model = tabulated(y, 0.0 * y, 0.7 + 0.0 * y)
    up = generator(model, -1.0, 1.0, 8)[0].to_dense()
    cen = generator(model, -1.0, 1.0, 8, "central")[0].to_dense()
    # Interior rows agree bitwise; the wall rows use different reflections
    # (half-cell for upwind, mirror for central).
    assert np.array_equal(up[1:-1], cen[1:-1])
    h = 0.25
    assert cen[0, 1] == pytest.approx(0.7**2 / h**2, rel=0, abs=0)
    assert up[0, 1] == pytest.approx(0.7**2 / (2 * h**2), rel=0, abs=0)


def test_central_mirror_rows_cancel_drift(mpr_model):
    Q_h, grid, h = generator(mpr_model, -3.0, 3.0, 200, "central")
    b = mpr_model.b(grid)
    assert Q_h.sup[0] == pytest.approx(b[0] ** 2 / h**2, rel=0, abs=0)
    assert Q_h.main[0] == -Q_h.sup[0]
    assert Q_h.sub[-1] == pytest.approx(b[-1] ** 2 / h**2, rel=0, abs=0)
    assert Q_h.main[-1] == -Q_h.sub[-1]


def test_upwind_boundary_rows_split_drift():
    y = np.linspace(-1.0, 1.0, 9)
    model = tabulated(y, 0.5 + 0.0 * y, 1.0 + 0.0 * y)  # constant positive drift
    Q_h, _, h = generator(model, -1.0, 1.0, 4)
    assert h == 0.5
    # Left wall: outflow rate b^2/(2h^2) + a+/h; right wall: b^2/(2h^2) + a-/h.
    assert Q_h.sup[0] == pytest.approx(1.0 / (2 * h**2) + 0.5 / h, rel=0, abs=0)
    assert Q_h.sub[-1] == pytest.approx(1.0 / (2 * h**2), rel=0, abs=0)


def test_grid_geometry(mpr_model):
    A_h, grid = assemble_discrete_hjb(mpr_model, -3.0, 3.0, 12)
    assert A_h.n == 13 and grid.shape == (13,)
    assert grid[0] == -3.0 and grid[-1] == 3.0
    assert np.diff(grid) == pytest.approx(np.full(12, 0.5), rel=0, abs=1e-15)


def test_domain_validation(mpr_model, heston_model, regime2_model):
    with pytest.raises(DiscretizationError, match="^assemble_discrete_hjb expects a DiffusionModel$"):
        assemble_discrete_hjb(regime2_model, -3.0, 3.0, 10)
    with pytest.raises(DiscretizationError, match="e_minus < e_plus"):
        assemble_discrete_hjb(mpr_model, 3.0, -3.0, 10)
    with pytest.raises(DiscretizationError, match="grid nodes"):
        assemble_discrete_hjb(mpr_model, -3.0, 3.0, 0)
    with pytest.raises(DiscretizationError, match="state interval"):
        assemble_discrete_hjb(heston_model, -1.0, 1.0, 10)
    frozen = {"R": 2.0, "delta": 0.1, "r": 0.02, "lambda": 0.3, "b": 0.0}
    frozen_factor = load_model({"family": "black_scholes", "params": frozen})
    with pytest.raises(DiscretizationError, match=r"vanishes at interior node 1 \(y = -0\.8\)"):
        assemble_discrete_hjb(frozen_factor, -1.0, 1.0, 10)
    # Square-root state space: strictly positive truncations work.
    _, grid = assemble_discrete_hjb(heston_model, 0.01, 0.2, 10)
    assert np.all(grid > 0.0)


def test_assemble_uses_the_given_models_risk_aversion(mpr_model):
    # diag(eta) - Q_h / R with the model's own R; the zero-correlation
    # transform changes R, so the assembled operators must differ.
    raw, _ = assemble_discrete_hjb(mpr_model, -3.0, 3.0, 20)
    work, phi = to_zero_correlation(mpr_model)
    transformed, _ = assemble_discrete_hjb(work, -3.0, 3.0, 20)
    assert phi != 1.0
    assert np.max(np.abs(raw.to_dense() - transformed.to_dense())) > 0.0


# Closed-form coefficients (a, b, lambda, eta) of the three parametric families,
# written out here rather than read from the package.
def _mpr_coefficients(p, y):
    lam = y
    eta = (p["delta"] - (1.0 - p["R"]) * (p["r"] + lam * lam / (2.0 * p["R"]))) / p["R"]
    return -p["kappa"] * (y - p["theta"]), np.full_like(y, p["nu"]), lam, eta


def _heston_coefficients(p, y):
    lam = p["lambda"] * np.sqrt(y)
    eta = (p["delta"] - (1.0 - p["R"]) * (p["r"] + lam * lam / (2.0 * p["R"]))) / p["R"]
    return -p["kappa"] * (y - p["theta"]), p["nu"] * np.sqrt(y), lam, eta


def _vasicek_coefficients(p, y):
    lam = np.full_like(y, p["lambda"])
    eta = (p["delta"] - (1.0 - p["R"]) * (y + lam * lam / (2.0 * p["R"]))) / p["R"]
    return -p["kappa"] * (y - p["theta"]), np.full_like(y, p["nu"]), lam, eta


_CLOSED_FORMS = {
    "mpr": _mpr_coefficients,
    "heston": _heston_coefficients,
    "vasicek": _vasicek_coefficients,
}


@st.composite
def _correlated_models(draw):
    """(family, params, domain): a correlated mpr, heston or vasicek problem."""
    def between(lo, hi):
        return draw(st.floats(lo, hi))

    family = draw(st.sampled_from(sorted(_CLOSED_FORMS)))
    p = {
        "R": draw(st.floats(0.3, 5.0).filter(lambda R: abs(R - 1.0) > 1e-3)),
        "delta": between(0.01, 0.3),
        "kappa": between(0.05, 3.0),
        "rho": draw(st.floats(0.05, 0.99) | st.floats(-0.99, -0.05)),
    }
    if family == "mpr":
        p.update(r=between(0.0, 0.06), sigma=between(0.05, 0.5), theta=between(-1.0, 1.0))
        p["nu"] = between(0.05, 1.5)
        domain = (-3.0, 3.0)
    elif family == "heston":
        p.update(r=between(0.0, 0.06), theta=between(0.01, 0.5))
        p["lambda"] = between(0.0, 3.0)
        # Feller: nu^2 / 2 <= kappa theta, with margin against rounding.
        p["nu"] = between(0.1, 0.99) * np.sqrt(2.0 * p["kappa"] * p["theta"])
        domain = (p["theta"] / 10.0, 3.0 * p["theta"])
    else:
        p.update(sigma=between(0.05, 0.5), theta=between(-0.05, 0.1), nu=between(0.005, 0.1))
        p["lambda"] = between(-1.0, 1.0)
        domain = (p["theta"] - 0.2, p["theta"] + 0.2)
    return family, p, domain


def _oracle_operator(family, p, domain, n_steps, rho):
    """Dense upwind A_h of the zero-correlation rewrite, from the closed forms."""
    y = np.linspace(domain[0], domain[1], n_steps + 1)
    a, b, lam, eta = _CLOSED_FORMS[family](p, y)
    R = p["R"]
    a_tilde = a + (1.0 - R) / R * rho * lam * b
    phi = 1.0 / (1.0 - (R - 1.0) / R * rho * rho)
    h = (domain[1] - domain[0]) / n_steps
    return oracles.dense_upwind_operator(eta, a_tilde, b, R / phi, h), eta


def _assembled(family, p, domain, n_steps, rho):
    model = load_model({"family": family, "params": {**p, "rho": rho}})
    A_h, _ = assemble_discrete_hjb(to_zero_correlation(model)[0], *domain, n_steps)
    return A_h.to_dense()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=_correlated_models(), n_steps=st.integers(2, 60))
def test_zero_correlation_operator_matches_closed_form_oracle(case, n_steps):
    family, p, domain = case
    got = _assembled(family, p, domain, n_steps, p["rho"])
    expected, eta = _oracle_operator(family, p, domain, n_steps, p["rho"])
    # Off the diagonal every entry agrees to rel 1e-12; the diagonal
    # eta - Q_ii / R~ may cancel, so it is held to 1e-12 of its two terms.
    off = ~np.eye(n_steps + 1, dtype=bool)
    assert np.all(np.abs(got[off] - expected[off]) <= 1e-12 * np.abs(expected[off]))
    d_got, d_exp = np.diag(got), np.diag(expected)
    assert np.all(np.abs(d_got - d_exp) <= 1e-12 * (np.abs(eta) + np.abs(d_exp - eta)))

    # rho -> 0 is continuous: ||A_h(t rho) - A_h(0)||_max <= L |rho| t, with L
    # a Lipschitz bound in rho from the closed forms (R~ lies between R and 1).
    y = np.linspace(domain[0], domain[1], n_steps + 1)
    a, b, lam, _ = _CLOSED_FORMS[family](p, y)
    h = (domain[1] - domain[0]) / n_steps
    R = p["R"]
    kappa = np.max(np.abs((1.0 - R) / R * lam * b)) / h
    rate = np.max(b * b) / h**2 + np.max(np.abs(a)) / h + kappa
    L = 2.0 * (kappa + rate * abs(R - 1.0)) / min(R, 1.0) ** 2
    A_0 = _assembled(family, p, domain, n_steps, 0.0)
    floor = 64.0 * np.finfo(float).eps * np.max(np.abs(A_0))
    for t in (1e-2, 1e-5, 1e-8):
        rho = t * p["rho"]
        gap = np.max(np.abs(_assembled(family, p, domain, n_steps, rho) - A_0))
        assert gap <= L * abs(rho) + floor
