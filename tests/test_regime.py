"""Regime-model well-posedness checks and the matrix HJB solvers."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from merton_factor import (
    IllPosedError,
    assemble_A,
    assemble_discrete_hjb,
    check_nonsingular_m_matrix,
    check_wellposed,
    cyclic_wellposed,
    load_model,
    nearest_neighbour_wellposed,
    solve,
    solve_hjb_fixed_point,
    solve_hjb_newton,
    solve_matrix_hjb,
    solve_regime,
    to_zero_correlation,
)
from merton_factor import regime_solver
from merton_factor.linalg import as_operator


def make_regime(Q, r, lam, sigma, delta, R):
    return load_model(
        {
            "family": "regime",
            "Q": Q,
            "r": r,
            "lambda": lam,
            "sigma": sigma,
            "delta": delta,
            "R": R,
        }
    )


def test_assemble_A_is_diag_eta_minus_scaled_generator(regime2_model):
    A = assemble_A(regime2_model)
    Q = np.array([[-0.5, 0.5], [0.5, -0.5]])
    expected = np.diag([0.18, 0.09625]) - Q / 2.0
    assert A == pytest.approx(expected, rel=0, abs=1e-15)


def test_solve_regime_matches_independent_root(regime2_model):
    sol = solve_regime(regime2_model, tol=1e-12)
    A = assemble_A(regime2_model)
    expected_f = oracles.root_solve_dense(A, 0.5)
    assert sol.f == pytest.approx(expected_f, rel=1e-9, abs=0)
    assert sol.u == pytest.approx(expected_f ** (-0.5), rel=1e-9, abs=0)
    assert sol.pi_hat == pytest.approx([0.4 / (2 * 0.25), 0.1 / (2 * 0.2)], rel=0, abs=1e-15)
    # V(x, i) = x^(1-R)/(1-R) f_i.
    assert sol.value(1.0, 0) == pytest.approx(-expected_f[0], rel=1e-9)
    assert sol.value(2.0, 1) == pytest.approx(2.0 ** (-1.0) / (-1.0) * expected_f[1], rel=1e-9)
    assert sol.method == "newton"
    assert sol.residual <= 1e-10 * sol.residual_scale


def test_solved_root_satisfies_equation_componentwise(regime2_model):
    sol = solve_regime(regime2_model, tol=1e-13)
    A = assemble_A(regime2_model)
    assert A @ sol.f == pytest.approx(sol.f**sol.p, rel=1e-11, abs=0)


def test_fixed_point_step_ratios_respect_contraction_rate():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        Q, eta, R = oracles.random_regime_instance(rng, n, well_posed_bias=1.0)
        if R <= 0.5:
            R = 2.0
        A = np.diag(eta) - Q / R
        if not oracles.is_m_matrix_by_minors(A):
            continue
        p = 1.0 - 1.0 / R
        sol = solve_hjb_fixed_point(A, p, tol=1e-12)
        assert sol.stop == "step"
        steps = np.asarray(sol.trace)
        live = steps[:-1] > 0
        ratios = steps[1:][live] / steps[:-1][live]
        assert np.all(ratios <= abs(p) + 0.02)


def test_newton_branch_used_for_small_risk_aversion():
    model = make_regime(
        [[-0.3, 0.3], [0.6, -0.6]], [0.02, 0.01], [0.2, 0.3], [0.2, 0.25], [0.05, 0.06], 0.4
    )
    sol = solve_regime(model, tol=1e-12)
    assert sol.method == "newton"
    A = assemble_A(model)
    expected = oracles.root_solve_dense(A, 1.0 - 1.0 / 0.4)
    assert sol.f == pytest.approx(expected, rel=1e-9, abs=0)
    assert np.all(sol.f > 0.0)


def _random_operator(seed, n, R):
    """A = diag(eta) - Q / R of a random well-posed-leaning regime instance."""
    Q, eta, _ = oracles.random_regime_instance(np.random.default_rng(seed), n, 1.0)
    return np.diag(eta) - Q / R


def _mpr_operator(R, delta, theta, n_steps):
    """Upwind A_h of an mpr model's zero-correlation rewrite on [-3, 3], with p."""
    params = {"R": R, "delta": delta, "r": 0.02, "sigma": 0.2, "kappa": 0.3}
    params.update(theta=theta, nu=0.6, rho=-0.2)
    work, _ = to_zero_correlation(load_model({"family": "mpr", "params": params}))
    A_h, _ = assemble_discrete_hjb(work, -3.0, 3.0, n_steps)
    return A_h, 1.0 - 1.0 / work.R


def _log_sup(x, y):
    return float(np.max(np.abs(np.log(x) - np.log(y))))


_CONTRACTING_R = st.floats(0.55, 12.0).filter(lambda R: abs(R - 1.0) > 1e-3)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), R=_CONTRACTING_R)
def test_newton_and_fixed_point_agree_where_both_apply(seed, n, R):
    A = _random_operator(seed, n, R)
    assume(oracles.is_m_matrix_by_minors(A))
    p = 1.0 - 1.0 / R
    fixed = solve_hjb_fixed_point(A, p, tol=1e-13)
    newton = solve_hjb_newton(A, p, tol=1e-13)
    assert fixed.f == pytest.approx(newton.f, rel=1e-10, abs=0)
    assert newton.iterations <= 12



@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), p=st.floats(-3.0, 0.95))
def test_witness_start_is_on_the_safe_side_and_never_slower(seed, n, p):
    # p in (0, 1): F(x0) >= 0 and the iterates decrease; p <= 0: F(x0) <= 0
    # and they increase; both up to a few ulps.
    A = _random_operator(seed, n, 1.0 / (1.0 - p))
    assume(oracles.is_m_matrix_by_minors(A))
    ulps = 64.0 * np.finfo(float).eps
    side = 1.0 if p > 0.0 else -1.0
    w = check_nonsingular_m_matrix(A).witness[0]
    x0 = regime_solver._newton_start(as_operator(A), w, p)
    image = A @ x0 - x0**p
    assert np.all(side * image >= -ulps * (np.abs(A) @ x0 + x0**p))
    iterates = oracles.newton_iterates(A, p, x0, 8)
    assert np.all(side * np.diff(iterates, axis=0) <= ulps * iterates[:-1])

    newton = solve_hjb_newton(A, p, tol=1e-13)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            regime_solver, "_newton_start", lambda op, w, p: oracles.constant_newton_start(A, p, w)
        )
        constant = solve_hjb_newton(A, p, tol=1e-13)
    assert newton.iterations <= constant.iterations
    assert newton.f == pytest.approx(constant.f, rel=1e-10, abs=0)


def test_p_zero_reduces_to_one_linear_solve():
    A = np.array([[0.43, -0.25], [-0.25, 0.34625]])
    sol = solve_hjb_fixed_point(A, 0.0)
    assert sol.iterations == 1
    assert sol.f == pytest.approx(np.linalg.solve(A, np.ones(2)), rel=0, abs=1e-13)


def test_solve_matrix_hjb_rejects_non_m_matrix():
    A = np.array([[0.01, -0.5], [-0.5, 0.01]])
    assert not oracles.is_m_matrix_by_minors(A)
    with pytest.raises(IllPosedError):
        solve_matrix_hjb(A, 2.0)


def test_check_wellposed_verdicts_and_quick_screens(regime2_model):
    report = check_wellposed(regime2_model)
    assert report.verdict is True
    assert report.quick_checks.all_eta_positive is True
    assert report.quick_checks.dominance_failure_index is None
    assert report.eta == pytest.approx([0.18, 0.09625], rel=0, abs=1e-15)
    doc = report.to_dict()
    assert doc["verdict"] is True

    bad = make_regime(
        [[-0.5, 0.5], [0.5, -0.5]],
        [0.02, 0.01],
        [0.4, 0.1],
        [0.25, 0.2],
        [-0.9, -0.9],
        2.0,
    )
    report = check_wellposed(bad)
    assert report.verdict is False
    assert report.quick_checks.all_eta_nonpositive is True
    assert oracles.is_m_matrix_by_minors(assemble_A(bad)) is False
    with pytest.raises(IllPosedError) as refusal:
        solve_regime(bad)
    assert refusal.value.report.to_dict() == report.to_dict()


@pytest.mark.parametrize("n", [64, 65])
def test_report_record_summarizes_eta_above_64_states(n):
    Q = -np.eye(n) + np.roll(np.eye(n), 1, axis=1)  # a cycle at rate 1
    delta = np.linspace(0.1, 0.3, n).tolist()
    model = make_regime(Q.tolist(), [0.02] * n, [0.3] * n, [0.2] * n, delta, 2.0)
    report = check_wellposed(model)
    record = report.to_dict()
    assert record["certificate"] == report.certificate.to_dict()
    assert record["certificate"]["n_ratios"] == n  # the array stays on .certificate.ratios
    eta = report.eta.tolist()
    assert record["eta"] == (eta if n <= 64 else {"min": min(eta), "max": max(eta), "n": n})
    assert json.loads(json.dumps(record)) == record


def test_solve_record_keeps_the_tolerance_it_was_solved_with(regime2_model):
    solution = solve_regime(regime2_model, tol=1e-12)
    record = solution.metadata
    keys = ["tolerance", "p", "method", "stop", "iterations", "trace", "residual", "residual_scale"]
    assert list(record) == keys
    assert record["tolerance"] == 1e-12 and record["p"] == solution.p == 0.5
    assert record["trace"] == solution.trace.tolist() and len(record["trace"]) == solution.iterations
    assert json.loads(json.dumps(record)) == record
    fixed_point = solve_hjb_fixed_point(assemble_A(regime2_model), 0.5, tol=1e-9)
    assert fixed_point.metadata["tolerance"] == 1e-9
    assert fixed_point.metadata["method"] == "fixed_point"


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
@pytest.mark.parametrize("entry", ["fixed_point", "newton", "solve"])
def test_solvers_refuse_a_tolerance_that_is_not_positive_and_finite(entry, tol, mpr_model):
    A = np.array([[2.0, -0.5, 0.0], [-1.5, 3.0, -0.2], [0.0, -0.1, 0.3]])
    calls = {
        "fixed_point": lambda: solve_hjb_fixed_point(A, 0.5, tol=tol),
        "newton": lambda: solve_hjb_newton(A, 0.5, tol=tol),
        "solve": lambda: solve(mpr_model, -3.0, 3.0, 50, tol=tol),
    }
    with pytest.raises(ValueError, match=f"tol = {tol}$"):
        calls[entry]()


def test_check_wellposed_rejects_diffusion_models(mpr_model):
    with pytest.raises(TypeError, match="regime models"):
        check_wellposed(mpr_model)
    with pytest.raises(TypeError, match="^assemble_A expects a RegimeModel$"):
        assemble_A(mpr_model)


@pytest.mark.parametrize(
    "entry, value",
    [
        ("solve", 0.0), ("solve", -2.0), ("solve", math.inf), ("solve", math.nan),
        ("newton", 1.0), ("newton", math.inf), ("newton", -math.inf), ("newton", math.nan),
        ("fixed_point", 1.0), ("fixed_point", -1.0), ("fixed_point", math.nan),
    ],
)
def test_solvers_refuse_an_R_or_p_they_cannot_use(entry, value):
    # solve_matrix_hjb names R (at R = inf, p = 1 would name p); the
    # solvers of A x = x^p name p.
    A = np.array([[2.0, -0.5], [-1.5, 3.0]])
    calls = {
        "solve": (solve_matrix_hjb, f"^R = {value} must be positive and finite$"),
        "newton": (solve_hjb_newton, f"^p = {value} must be a finite number below 1$"),
        "fixed_point": (solve_hjb_fixed_point, rf"^p = {value} outside \(-1, 1\)"),
    }
    solver, message = calls[entry]
    with pytest.raises(ValueError, match=message):
        solver(A, value)


@pytest.mark.parametrize("R", [1e-320, 5e-324])
def test_solve_matrix_hjb_names_an_R_whose_reciprocal_overflows(R):
    # A positive finite R whose 1/R overflows is refused naming R, before
    # p = 1 - 1/R = -inf reaches the Newton solver's check on p.
    A = np.array([[2.0, -0.5], [-1.5, 3.0]])
    with pytest.raises(ValueError, match=rf"^R = {R} is too small: 1/R overflows, so p = 1 - 1/R"):
        solve_matrix_hjb(A, R)


def test_mixed_sign_eta_can_still_be_well_posed():
    # One bad state is rescued by fast switching into a good one.
    model = make_regime(
        [[-4.0, 4.0], [4.0, -4.0]],
        [0.02, 0.02],
        [0.0, 0.0],
        [0.2, 0.2],
        [-0.06, 0.4],
        2.0,
    )
    eta = model.eta()
    assert eta[0] < 0.0 < eta[1]
    report = check_wellposed(model)
    assert report.verdict is True
    assert report.verdict == oracles.is_m_matrix_by_minors(assemble_A(model))
    sol = solve_regime(model)
    assert np.all(sol.u > 0.0)


def test_cyclic_quick_formula_matches_full_certificate():
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        eta = rng.normal(0.05, 0.15, n)
        q = rng.uniform(0.2, 3.0, n)
        R = float(rng.choice([0.4, 1.5, 2.0, 3.0]))
        if np.any(eta + q / R <= 0.0):
            continue  # outside the formula's validity region
        Q = np.zeros((n, n))
        for i in range(n):
            Q[i, (i + 1) % n] = q[i]
            Q[i, i] = -q[i]
        A = np.diag(eta) - Q / R
        assert cyclic_wellposed(eta, q, R) == oracles.is_m_matrix_by_minors(A)


def test_cyclic_formula_outside_validity_region_is_ill_posed():
    # eta_i <= -q_i / R makes the chain ill-posed outright; the formula
    # reports False without evaluating the log sum.
    assert cyclic_wellposed([0.1, -2.0], [1.0, 1.0], 2.0) is False
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    A = np.diag([0.1, -2.0]) - Q / 2.0
    assert not oracles.is_m_matrix_by_minors(A)


@pytest.mark.parametrize(
    "eta, q, R",
    [
        ([math.nan, 0.1], [1.0, 1.0], 2.0),
        ([0.1, 0.1], [1.0, math.inf], 2.0),
        ([0.1, 0.1], [1.0, 1.0], math.nan),
        ([0.1, 0.1], [1.0, 1.0], math.inf),
    ],
    ids=["eta-nan", "q-inf", "R-nan", "R-inf"],
)
def test_cyclic_formula_refuses_non_finite_input(eta, q, R):
    with pytest.raises(ValueError, match="finite"):
        cyclic_wellposed(eta, q, R)


@pytest.mark.parametrize(
    "eta, q, R, message",
    [
        ([0.1, 0.1], [1.0], 2.0, "^eta and q must be 1-d arrays of equal length$"),
        ([[0.1]], [[1.0]], 2.0, "^eta and q must be 1-d arrays of equal length$"),
        ([0.1, 0.1], [1.0, 0.0], 2.0, "^cycle rates q must be positive$"),
        ([0.1, 0.1], [1.0, 1.0], 0.0, "^R must be positive$"),
        ([0.1, 0.1], [1.0, 1.0], -1.0, "^R must be positive$"),
    ],
    ids=["unequal-lengths", "two-d", "q-zero", "R-zero", "R-negative"],
)
def test_cyclic_formula_refuses_malformed_input(eta, q, R, message):
    with pytest.raises(ValueError, match=message):
        cyclic_wellposed(eta, q, R)


def test_nearest_neighbour_quick_formula_matches_full_certificate():
    rng = np.random.default_rng(78)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        eta = rng.normal(0.05, 0.12, n)
        q_plus = np.append(rng.uniform(0.2, 2.0, n - 1), 0.0)
        q_minus = np.append(0.0, rng.uniform(0.2, 2.0, n - 1))
        R = float(rng.choice([0.4, 1.5, 2.0]))
        Q = np.zeros((n, n))
        for i in range(n):
            if i + 1 < n:
                Q[i, i + 1] = q_plus[i]
            if i - 1 >= 0:
                Q[i, i - 1] = q_minus[i]
            Q[i, i] = -(q_plus[i] + q_minus[i])
        A = np.diag(eta) - Q / R
        verdict, ratios = nearest_neighbour_wellposed(eta, q_minus, q_plus, R)
        assert verdict == oracles.is_m_matrix_by_minors(A)
        if verdict:
            expected = oracles.leading_minors(A)
            assert np.cumprod(ratios) == pytest.approx(expected, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("R", [math.inf, math.nan, 0.0, -1.0])
def test_nearest_neighbour_formula_refuses_unusable_R(R):
    with pytest.raises(ValueError, match="R = "):
        nearest_neighbour_wellposed([0.1, 0.1], [0.0, 1.0], [1.0, 0.0], R)


@pytest.mark.parametrize(
    "q_minus, q_plus, message",
    [
        ([0.0, 1.0], [1.0, 0.0, 0.0], "^eta, q_minus, q_plus must have equal length$"),
        ([0.5, 1.0, 1.0], [1.0, 1.0, 0.0], r"^boundary convention requires q_minus\[0\] = 0"),
        ([0.0, 1.0, 1.0], [1.0, 1.0, 0.5], r"^boundary convention requires .* q_plus\[-1\] = 0$"),
        ([0.0, -1.0, 1.0], [1.0, 1.0, 0.0], "^jump rates must be nonnegative$"),
    ],
    ids=["unequal-lengths", "q-minus-boundary", "q-plus-boundary", "negative-rate"],
)
def test_nearest_neighbour_formula_refuses_malformed_chains(q_minus, q_plus, message):
    with pytest.raises(ValueError, match=message):
        nearest_neighbour_wellposed([0.1, 0.1, 0.1], q_minus, q_plus, 2.0)


def test_nearest_neighbour_single_state():
    # One state, no jumps: A = [eta], an M-matrix exactly when eta > 0.
    for eta, verdict in ((0.1, True), (0.0, False), (-0.1, False)):
        got, ratios = nearest_neighbour_wellposed([eta], [0.0], [0.0], 2.0)
        assert got is verdict and ratios.tolist() == [eta]
    with pytest.raises(ValueError, match="^need at least one state$"):
        nearest_neighbour_wellposed([], [], [], 2.0)


def test_solver_handles_strong_coupling_scale():
    # Fast chain, slow discounting: A is barely diagonally dominant.
    n = 6
    rng = np.random.default_rng(5)
    Q = rng.uniform(5.0, 30.0, (n, n))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    eta = rng.uniform(0.005, 0.05, n)
    R = 2.0
    A = np.diag(eta) - Q / R
    sol = solve_matrix_hjb(A, R, tol=1e-12)
    expected = oracles.root_solve_dense(A, 0.5)
    assert sol.f == pytest.approx(expected, rel=1e-8, abs=0)


def test_consumption_rate_increases_with_impatience():
    # Raising any discount rate increases the corresponding frozen rate and
    # must raise every state's optimal consumption rate (comparison
    # principle for the matrix equation).
    rng = np.random.default_rng(18)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        Q, _, R = oracles.random_regime_instance(rng, n, well_posed_bias=1.0)
        r = rng.uniform(0.0, 0.05, n)
        lam = rng.uniform(0.05, 0.6, n)
        target_eta = rng.uniform(0.01, 0.3, n)
        delta = R * target_eta + (1.0 - R) * (r + lam**2 / (2.0 * R))
        payload = {
            "family": "regime",
            "Q": Q.tolist(),
            "r": r.tolist(),
            "lambda": lam.tolist(),
            "sigma": rng.uniform(0.1, 0.4, n).tolist(),
            "delta": delta.tolist(),
            "R": R,
        }
        base = solve_regime(load_model(payload))
        payload["delta"] = [d + 0.05 for d in payload["delta"]]
        bumped = solve_regime(load_model(payload))
        assert np.all(bumped.u >= base.u - 1e-12)
        assert np.all(bumped.f <= base.f + 1e-12)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    R=_CONTRACTING_R,
    delta=st.floats(0.05, 0.6),
    theta=st.floats(-1.0, 1.0),
    n_steps=st.sampled_from([10, 100, 1000, 10_000]),
)
def test_newton_and_fixed_point_agree_on_discretized_mpr(R, delta, theta, n_steps):
    A_h, p = _mpr_operator(R, delta, theta, n_steps)
    assume(-1.0 < p < 1.0 and check_nonsingular_m_matrix(A_h).verdict)
    fixed = solve_hjb_fixed_point(A_h, p)
    newton = solve_hjb_newton(A_h, p)
    assert _log_sup(fixed.f, newton.f) <= 1e-8
    assert newton.iterations <= 12


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    R=st.sampled_from([0.2, 0.4, 0.8, 1.5, 4.0]),
    c=st.floats(1e-2, 1e2),
)
def test_scaling_A_by_c_scales_u_by_c_on_both_routes(seed, n, R, c):
    # If A f = f^p then (c A)(c^-R f) = (c^-R f)^p, so u = f^(-1/R) scales by c.
    A = _random_operator(seed, n, R)
    assume(oracles.is_m_matrix_by_minors(A))
    p = 1.0 - 1.0 / R
    solvers = [solve_hjb_newton] + ([solve_hjb_fixed_point] if abs(p) < 1.0 else [])
    for solver in solvers:
        base = solver(A, p, tol=1e-12)
        scaled = solver(c * A, p, tol=1e-12)
        assert scaled.f == pytest.approx(c ** (-R) * base.f, rel=1e-9, abs=0)
        assert scaled.u == pytest.approx(c * base.u, rel=1e-9, abs=0)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_verdict_and_solve_agree_on_regime_matrices(seed, n):
    # R is drawn from 0.25 ... 3.0, so both routes and both verdicts occur.
    Q, eta, R = oracles.random_regime_instance(np.random.default_rng(seed), n, 0.5)
    A = np.diag(eta) - Q / R
    certificate = check_nonsingular_m_matrix(A)
    if not certificate.verdict:
        with pytest.raises(IllPosedError) as refusal:
            solve_matrix_hjb(A, R)
        report = refusal.value.report
        assert report.verdict is False and report.failure_index == certificate.failure_index
        assert np.array_equal(report.ratios, certificate.ratios)
        return
    sol = solve_matrix_hjb(A, R)
    floor = 100.0 * np.finfo(float).eps * np.linalg.norm(A, np.inf) * np.max(sol.f)
    assert np.all(sol.u > 0.0)
    assert sol.residual <= 1e-10 * sol.residual_scale + floor
