"""Tridiagonal kernels and M-matrix certification against dense oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from merton_factor import (
    IllPosedError,
    NotZMatrixError,
    SingularMatrixError,
    TridiagonalOperator,
    check_nonsingular_m_matrix,
    inverse_norm_bound,
    solve_matrix_hjb,
    tridiag_solve,
)


def random_tridiagonal(rng, n, dominant=True):
    sub = -rng.uniform(0.1, 1.0, n - 1)
    sup = -rng.uniform(0.1, 1.0, n - 1)
    main = np.zeros(n)
    main[0] = -sup[0]
    main[-1] = -sub[-1]
    main[1:-1] = -(sub[:-1] + sup[1:])
    if dominant:
        main += rng.uniform(0.05, 0.5, n)
    else:
        main += rng.normal(0.0, 0.25, n)
    return TridiagonalOperator(sub, main, sup)


def test_operator_dense_matvec_norm_consistency():
    rng = np.random.default_rng(5)
    op = random_tridiagonal(rng, 9)
    dense = op.to_dense()
    v = rng.normal(size=9)
    assert op.matvec(v) == pytest.approx(dense @ v, rel=0, abs=1e-14)
    assert op.norm_inf() == pytest.approx(np.max(np.abs(dense).sum(axis=1)), rel=0, abs=0)
    assert op.is_z_matrix


def test_certificate_minors_match_determinant_oracle():
    rng = np.random.default_rng(11)
    # An M-matrix that is not diagonally dominant: partial pivoting exchanges
    # rows on it (minors 1, 1.25, 1.75), so its ratios cannot be read off U.
    swapping = TridiagonalOperator([-1.5, -1.5], [1.0, 2.0, 2.0], [-0.5, -0.5])
    for op in (random_tridiagonal(rng, 7), swapping):
        cert = check_nonsingular_m_matrix(op)
        assert cert.verdict is True
        expected = oracles.leading_minors(op.to_dense())
        assert cert.minors == pytest.approx(expected, rel=1e-12, abs=1e-300)
        assert np.cumprod(cert.ratios) == pytest.approx(expected, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("evidence", ["minor_ratios", "positive_image"])
@pytest.mark.parametrize("shape", ["tridiagonal", "dense"])
def test_certificates_match_oracle_on_random_instances(evidence, shape):
    # One certificate carries both characterizations; each case checks the
    # verdict and the evidence of one of them against its dense oracle.
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(150):
        n = int(rng.integers(2, 9))
        if shape == "tridiagonal":
            op = random_tridiagonal(rng, n, dominant=bool(rng.random() < 0.5))
            dense = op.to_dense()
            target = op
        else:
            Q, eta, R = oracles.random_regime_instance(rng, n)
            dense = np.diag(eta) - Q / R
            target = dense
        expected = oracles.is_m_matrix_by_minors(dense)
        assert expected == oracles.is_m_matrix_by_inverse(dense)
        assert expected == oracles.is_m_matrix_by_positive_image(dense)
        cert = check_nonsingular_m_matrix(target)
        assert cert.verdict == expected, f"instance {checked}: {cert}"
        if evidence == "minor_ratios":
            k = len(cert.ratios)
            minors = oracles.leading_minors(dense)[:k]
            assert np.cumprod(cert.ratios) == pytest.approx(minors, rel=1e-9, abs=1e-300)
        elif cert.verdict:
            w, image = cert.witness
            assert w == pytest.approx(np.linalg.solve(dense, np.ones(n)), rel=1e-9)
            assert dense @ w == pytest.approx(image, rel=1e-9)
            assert np.all(w > 0.0) and np.all(image > 0.0)
        checked += 1
    assert checked == 150


def test_positive_image_witness_is_recorded():
    A = np.array([[0.43, -0.25], [-0.25, 0.34625]])
    cert = check_nonsingular_m_matrix(A)
    assert cert.verdict is True
    x, image = cert.witness
    assert np.all(x > 0.0)
    assert np.all(image > 0.0)
    assert A @ x == pytest.approx(image, rel=0, abs=1e-12)


def test_near_zero_pivot_is_refused_with_its_certificate():
    # Exact pivots 1, 1e-9 and -0.25; the computed third ratio comes out 5.51
    # because the rounding error of the second is divided by 1e-9.
    op = TridiagonalOperator([-0.82, -0.83], [1.0, 0.459200001, 298799997.37282246], [-0.56, -0.36])
    for A in (op, op.to_dense()):
        cert = check_nonsingular_m_matrix(A)
        assert cert.verdict is False
        assert np.all(cert.ratios > 0.0)
        with pytest.raises(IllPosedError) as refusal:
            solve_matrix_hjb(A, 2.0)
        report = refusal.value.report
        assert report.verdict is False and report.failure_index == cert.failure_index
        assert np.array_equal(report.ratios, cert.ratios)
        assert np.array_equal(report.witness[0], cert.witness[0])


def _exact_pivots_and_witness(main, sub, sup):
    """Pivots of elimination without row exchanges and, for an M-matrix,
    A^-1 1, in rationals (None otherwise)."""
    main, sub, sup = ([Fraction(v) for v in band] for band in (main, sub, sup))
    pivots, y = [main[0]], [Fraction(1)]
    for i in range(1, len(main)):
        multiplier = sub[i - 1] / pivots[-1]
        pivots.append(main[i] - multiplier * sup[i - 1])
        y.append(1 - multiplier * y[-1])
    if not all(pivot > 0 for pivot in pivots):
        return pivots, None
    w = [y[-1] / pivots[-1]]
    for i in range(len(main) - 2, -1, -1):
        w.insert(0, (y[i] - sup[i] * w[0]) / pivots[i])
    return pivots, w


_OFF = st.floats(-1.0, -0.1)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    sub=st.tuples(_OFF, _OFF),
    sup=st.tuples(_OFF, _OFF),
    main0=st.floats(0.5, 2.0),
    digits=st.floats(6.0, 12.0),
    third=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_near_singular_verdicts_match_exact_pivots(sub, sup, main0, digits, third):
    # Second pivot 10^-digits, third pivot `third`, both exact for the stored
    # floats up to the rounding of main1 and main2; the rationals decide.
    head = Fraction(sub[0]) * Fraction(sup[0]) / Fraction(main0)
    main1 = float(head + Fraction(10.0**-digits))
    main2 = float(Fraction(sub[1]) * Fraction(sup[1]) / (Fraction(main1) - head) + Fraction(third))
    main = [main0, main1, main2]
    pivots, w = _exact_pivots_and_witness(main, sub, sup)
    op = TridiagonalOperator(sub, main, sup)
    dense = op.to_dense()
    # || |A| A^-1 1 ||_inf: no double-precision method resolves the sign of a
    # pivot once this reaches 1/eps, so only an M-matrix well below it must pass.
    resolvable = w is not None and max(
        sum(abs(Fraction(a)) * x for a, x in zip(row, w)) for row in dense
    ) * np.finfo(float).eps < 1e-2
    for A in (op, dense):
        verdict = check_nonsingular_m_matrix(A).verdict
        assert not (verdict and w is None), f"certified a matrix with exact pivots {pivots}"
        assert verdict or not resolvable, "refused an M-matrix of condition below 0.01/eps"


def test_positive_off_diagonal_is_rejected_not_judged():
    bad = np.array([[1.0, 0.2], [-0.1, 1.0]])
    with pytest.raises(NotZMatrixError, match=r"\(0, 1\)"):
        check_nonsingular_m_matrix(bad)
    op = TridiagonalOperator(np.array([0.3]), np.array([1.0, 1.0]), np.array([-0.2]))
    with pytest.raises(NotZMatrixError, match=r"\(1, 0\)"):
        check_nonsingular_m_matrix(op)


def test_singular_and_numerically_singular_verdicts():
    # Graph Laplacian: singular M-matrix, last minor exactly zero.
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    cert = check_nonsingular_m_matrix(lap)
    assert cert.verdict is False
    assert cert.failure_index == 1
    tiny = np.diag([1e-310, 1.0])
    cert = check_nonsingular_m_matrix(tiny)
    assert cert.verdict is False
    assert "numerically singular" in cert.note


def test_negative_pivot_verdict_matches_oracle():
    A = np.array([[-0.02, -0.1], [-0.1, 0.5]])
    assert not oracles.is_m_matrix_by_minors(A)
    cert = check_nonsingular_m_matrix(A)
    assert cert.verdict is False
    assert cert.failure_index == 0


def test_tridiag_solve_matches_dense_and_meets_residual_bound():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        sub = rng.normal(size=max(n - 1, 0))
        sup = rng.normal(size=max(n - 1, 0))
        main = rng.normal(size=n) + 4.0
        op = TridiagonalOperator(sub, main, sup)
        rhs = rng.normal(size=n)
        x = tridiag_solve(op, rhs)
        dense = op.to_dense()
        assert x == pytest.approx(np.linalg.solve(dense, rhs), rel=1e-10, abs=1e-12)
        residual = np.max(np.abs(op.matvec(x) - rhs))
        bound = 1e-12 * (op.norm_inf() * np.max(np.abs(x)) + np.max(np.abs(rhs)))
        assert residual <= bound


def test_tridiag_solve_raises_on_singular_system():
    op = TridiagonalOperator(np.array([-1.0]), np.array([1.0, 1.0]), np.array([-1.0]))
    with pytest.raises(SingularMatrixError):
        tridiag_solve(op, np.ones(2))
    one = TridiagonalOperator(np.array([]), np.array([0.0]), np.array([]))
    with pytest.raises(SingularMatrixError):
        tridiag_solve(one, np.ones(1))


def test_inverse_norm_bound_dominates_true_norm():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        op = random_tridiagonal(rng, n)
        dense = op.to_dense()
        x = np.linalg.solve(dense, np.ones(n))
        bound = inverse_norm_bound(op, x)
        true = np.max(np.abs(np.linalg.inv(dense)).sum(axis=1))
        assert bound >= true * (1.0 - 1e-12)


def test_inverse_norm_bound_checks_preconditions():
    op = TridiagonalOperator(np.array([-1.0]), np.array([2.0, 2.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        inverse_norm_bound(op, np.array([1.0, -1.0]))
