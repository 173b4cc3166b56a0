"""Tridiagonal kernels and M-matrix certification against dense oracles."""

import numpy as np
import pytest

import oracles
from merton_factor import (
    NotZMatrixError,
    SingularMatrixError,
    TridiagonalOperator,
    check_nonsingular_m_matrix,
    inverse_norm_bound,
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
        assert cert.method == "minor_ratios"
        expected = oracles.leading_minors(op.to_dense())
        assert cert.minors == pytest.approx(expected, rel=1e-12, abs=1e-300)
        assert np.cumprod(cert.ratios) == pytest.approx(expected, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("method", ["minor_ratios", "positive_image"])
@pytest.mark.parametrize("shape", ["tridiagonal", "dense"])
def test_certificates_match_oracle_on_random_instances(method, shape):
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
        cert = check_nonsingular_m_matrix(target, method=method)
        assert cert.verdict == expected, f"instance {checked}: {cert}"
        checked += 1
    assert checked == 150


def test_positive_image_witness_is_recorded():
    A = np.array([[0.43, -0.25], [-0.25, 0.34625]])
    cert = check_nonsingular_m_matrix(A, method="positive_image")
    assert cert.verdict is True
    x, image = cert.witness
    assert np.all(x > 0.0)
    assert np.all(image > 0.0)
    assert A @ x == pytest.approx(image, rel=0, abs=1e-12)


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
