"""Tridiagonal kernels and M-matrix certification against dense oracles."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from merton_factor import (
    IllPosedError,
    MCertificate,
    NotZMatrixError,
    SingularMatrixError,
    TridiagonalOperator,
    check_nonsingular_m_matrix,
    solve_matrix_hjb,
)
from merton_factor import linalg
from merton_factor.linalg import as_operator


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
    # n = 1 and 2 give empty and one-entry off-diagonal slices.
    rng = np.random.default_rng(5)
    one = TridiagonalOperator([], [-0.7], [])
    for op in (random_tridiagonal(rng, 9), one, random_tridiagonal(rng, 2)):
        dense = op.to_dense()
        assert dense.shape == (op.n, op.n)
        v = rng.normal(size=op.n)
        assert op.matvec(v) == pytest.approx(dense @ v, rel=0, abs=1e-14)
        assert op.norm_inf() == pytest.approx(np.max(np.abs(dense).sum(axis=1)), rel=0, abs=0)
        assert op.positive_off_diagonal() is None


def test_certificate_minors_match_determinant_oracle():
    rng = np.random.default_rng(11)
    # An M-matrix that is not diagonally dominant: partial pivoting exchanges
    # rows on it (minors 1, 1.25, 1.75) in both of its forms, so its ratios
    # cannot be read off U.
    swapping = TridiagonalOperator([-1.5, -1.5], [1.0, 2.0, 2.0], [-0.5, -0.5])
    for op in (random_tridiagonal(rng, 7), swapping, swapping.to_dense()):
        cert = check_nonsingular_m_matrix(op)
        assert cert.verdict is True
        expected = oracles.leading_minors(op if isinstance(op, np.ndarray) else op.to_dense())
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


def test_certificate_record_summarizes_the_ratios():
    witness_refused = TridiagonalOperator(
        [-0.82, -0.83], [1.0, 0.459200001, 298799997.37282246], [-0.56, -0.36]
    )
    certified = check_nonsingular_m_matrix(np.array([[0.43, -0.25], [-0.25, 0.34625]]))
    ratio_refused = check_nonsingular_m_matrix(np.array([[0.01, -0.5], [-0.5, 0.01]]))
    witness_refused = check_nonsingular_m_matrix(witness_refused)
    for cert in (certified, ratio_refused, witness_refused):
        record = cert.to_dict()
        assert record == {
            "verdict": cert.verdict,
            "failure_index": cert.failure_index,
            "note": cert.note,
            "n_ratios": cert.ratios.size,
            "ratio_min": float(cert.ratios.min()),
        }
        assert json.loads(json.dumps(record)) == record
    assert certified.to_dict()["verdict"] is True and certified.to_dict()["note"] == ""
    assert certified.to_dict()["n_ratios"] == 2 and certified.to_dict()["ratio_min"] > 0.0
    refused = ratio_refused.to_dict()  # the ratios stop at the first one not positive
    assert refused["n_ratios"] == 2 and refused["failure_index"] == 1
    assert refused["ratio_min"] == pytest.approx(0.01 - 0.25 / 0.01, rel=1e-12)
    refused = witness_refused.to_dict()
    assert refused["verdict"] is False and refused["note"].startswith("witness")
    assert refused["n_ratios"] == 3 and refused["ratio_min"] > 0.0
    assert MCertificate(False).to_dict() == {"verdict": False, "failure_index": None, "note": ""}
    empty = MCertificate(False, ratios=np.array([])).to_dict()
    assert empty["n_ratios"] == 0 and "ratio_min" not in empty


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


def _near_singular_draws(rng, count):
    """(main, sub, sup) of 3x3 Z-tridiagonals drawn as in the test above."""
    for _ in range(count):
        sub, sup = -rng.uniform(0.1, 1.0, 2), -rng.uniform(0.1, 1.0, 2)
        main0, digits, third = rng.uniform(0.5, 2.0), rng.uniform(6.0, 12.0), rng.uniform(-1.0, 1.0)
        head = Fraction(sub[0]) * Fraction(sup[0]) / Fraction(main0)
        main1 = float(head + Fraction(10.0**-digits))
        main2 = float(Fraction(sub[1]) * Fraction(sup[1]) / (Fraction(main1) - head) + Fraction(third))
        yield [main0, main1, main2], sub.tolist(), sup.tolist()


def test_near_singular_sweep_certifies_no_fewer_and_no_non_m_matrix():
    # 1,000 seeded draws with second pivot 1e-6..1e-12.  The witness taken from
    # the ratios, with the pivoting LU's as a second try, must certify no
    # fewer M-matrices than the pivoting LU's witness alone (its count on
    # these draws: 131 of 498), and no matrix with a pivot that is not
    # positive in rationals.
    certified = exact_m = 0
    for main, sub, sup in _near_singular_draws(np.random.default_rng(16), 1000):
        pivots, w = _exact_pivots_and_witness(main, sub, sup)
        verdict = check_nonsingular_m_matrix(TridiagonalOperator(sub, main, sup)).verdict
        assert not (verdict and w is None), f"certified a matrix with exact pivots {pivots}"
        exact_m += w is not None
        certified += verdict
    assert exact_m == 498
    assert certified >= 131


def test_positive_off_diagonal_is_rejected_not_judged():
    bad = np.array([[1.0, 0.2], [-0.1, 1.0]])
    with pytest.raises(NotZMatrixError, match=r"\(0, 1\)"):
        check_nonsingular_m_matrix(bad)
    op = TridiagonalOperator(np.array([0.3]), np.array([1.0, 1.0]), np.array([-0.2]))
    with pytest.raises(NotZMatrixError, match=r"\(1, 0\)"):
        check_nonsingular_m_matrix(op)
    op = TridiagonalOperator(np.array([-0.3]), np.array([1.0, 1.0]), np.array([0.2]))
    with pytest.raises(NotZMatrixError, match=r"\(0, 1\)"):
        check_nonsingular_m_matrix(op)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TridiagonalOperator([], 5.0, []), "main diagonal must be a nonempty 1-d array"),
        (lambda: TridiagonalOperator([], [], []), "main diagonal must be a nonempty 1-d array"),
        (lambda: TridiagonalOperator([-1.0], [1.0, 1.0], []), r"off-diagonals must have length 1"),
        (lambda: TridiagonalOperator([math.nan], [1.0, 1.0], [-1.0]), "bands must be finite"),
        (lambda: TridiagonalOperator([-1.0], [1.0, math.inf], [-1.0]), "bands must be finite"),
        (lambda: check_nonsingular_m_matrix(np.ones((2, 3))), r"square matrix, got shape \(2, 3\)"),
        (lambda: check_nonsingular_m_matrix(np.array([[math.nan]])), "entries must be finite"),
        (lambda: check_nonsingular_m_matrix([[1.0, -math.inf], [0.0, 1.0]]), "entries must be finite"),
    ],
    ids=["scalar-main", "empty-main", "short-sup", "nan-sub", "inf-main", "dense-not-square",
         "dense-nan", "dense-minus-inf"],
)
def test_operators_refuse_malformed_or_non_finite_entries(build, message):
    # Refused before any arithmetic: this suite makes a RuntimeWarning an error.
    with pytest.raises(ValueError, match=message):
        build()


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
        given = rhs.copy()
        x = op.factorized()(rhs)
        dense = op.to_dense()
        assert as_operator(dense).factorized()(rhs) == pytest.approx(x, rel=1e-10, abs=1e-12)
        assert np.array_equal(rhs, given)  # both operators solve on a copy of rhs
        assert x == pytest.approx(np.linalg.solve(dense, rhs), rel=1e-10, abs=1e-12)
        residual = np.max(np.abs(op.matvec(x) - rhs))
        bound = 1e-12 * (op.norm_inf() * np.max(np.abs(x)) + np.max(np.abs(rhs)))
        assert residual <= bound


def test_solve_shifted_meets_residual_bound_and_keeps_no_factor():
    # No diagonal dominance, so partial pivoting exchanges rows; the bands
    # (and the dense matrix, whose solver overwrites neither argument) must
    # come back untouched.
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 10, 50):
        op = TridiagonalOperator(rng.normal(size=n - 1), rng.normal(size=n), rng.normal(size=n - 1))
        bands = [band.copy() for band in (op.sub, op.main, op.sup)]
        d = rng.normal(size=n)
        rhs = rng.normal(size=n)
        shifted = op.to_dense() - np.diag(d)
        norm = np.max(np.abs(shifted).sum(axis=1))
        dense = as_operator(op.to_dense())
        given = [a.copy() for a in (dense.dense, d, rhs)]
        for x in (op.shifted_solver()(d.copy(), rhs.copy()), dense.shifted_solver()(d, rhs)):
            residual = np.max(np.abs(shifted @ x - rhs))
            assert residual <= 1e-12 * (norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))
        assert all(np.array_equal(a, b) for a, b in zip(bands, (op.sub, op.main, op.sup)))
        assert all(np.array_equal(a, b) for a, b in zip(given, (dense.dense, d, rhs)))


def test_factor_holds_one_band():
    # One solve through factorized() is one dgtsv call on copies of the three
    # bands and of rhs: 32 B per row, and nothing outlives it.
    n = 200_000
    op = TridiagonalOperator(-np.ones(n - 1), np.full(n, 3.0), -np.ones(n - 1))
    rhs = np.ones(n)
    tracemalloc.start()
    try:
        solve = op.factorized()
        assert tracemalloc.get_traced_memory()[0] <= 4096
        x = solve(rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n + 4096, f"{peak / n:.1f} B per row"
    assert np.array_equal(rhs, np.ones(n))
    assert np.max(np.abs(op.matvec(x) - rhs)) <= 1e-14


def _exchanges_rows(op):
    """True when LAPACK's pivoting LU of a tridiagonal (n >= 3) exchanges rows."""
    ipiv = scipy.linalg.lapack.dgttrf(op.sub, op.main, op.sup)[4]
    return not np.array_equal(ipiv, np.arange(1, op.n + 1))


def test_pivot_ratios_hold_two_bands():
    # dpttrf works in place on the scaled main band and sqrt(sub sup): 16 B
    # per row, on an operator whose pivoting LU exchanges rows.
    n = 200_000
    op = TridiagonalOperator(np.full(n - 1, -3.0), np.full(n, 2.0), np.full(n - 1, -0.1))
    assert _exchanges_rows(op)
    tracemalloc.start()
    try:
        ratios = op.pivot_ratios()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ratios.shape == (n,) and np.all(ratios > 0.0)
    assert peak / n <= 24.0, f"{peak / n:.1f} B per row"


def _tridiagonal_from_ratios(rng, ratios):
    """Z-tridiagonal whose pivots are ``ratios`` up to the rounding of its main band."""
    n = ratios.shape[0]
    sub = -np.exp(rng.uniform(-1.0, 1.8, n - 1))
    sup = -np.exp(rng.uniform(-4.0, -1.5, n - 1))
    main = ratios.copy()
    main[1:] += sub * sup / ratios[:-1]
    return TridiagonalOperator(sub, main, sup)


def test_certificate_ratios_match_the_recursion_whatever_rows_are_exchanged():
    # The certificate's ratios against the plain-float recursion of the
    # oracle, on M-matrices with and without row exchanges in their pivoting
    # LU and on refusals, whose ratio prefix must stop at the same index.
    rng = np.random.default_rng(61)
    exchanged = refused = 0
    for n in (1, 2, 3, 50, 1000):
        for trial in range(16):
            ratios = rng.uniform(0.5, 2.0, n)
            if trial % 4 == 3:
                ratios[rng.integers(n)] *= -1.0
            op = _tridiagonal_from_ratios(rng, ratios)
            expected = oracles.tridiagonal_ratios(op.main, op.sub, op.sup)
            cert = check_nonsingular_m_matrix(op)
            assert len(cert.ratios) == len(expected)
            assert cert.ratios == pytest.approx(expected, rel=1e-12)
            if not np.all(expected > 0.0):
                refused += 1
                assert cert.verdict is False
                assert cert.failure_index == len(expected) - 1
            elif n >= 3 and _exchanges_rows(op):
                exchanged += 1
    assert exchanged >= 10 and refused == 20


def test_witness_from_the_ratios_passes_where_rows_are_exchanged():
    # The certificate's witness comes from the LU without row exchanges whose
    # pivots are its ratios, also where partial pivoting would exchange rows;
    # it passes the rounding check, and the verdict is the rationals'.
    rng = np.random.default_rng(67)
    exchanged = 0
    for n in (3, 4, 10, 40):
        for _ in range(8):
            op = _tridiagonal_from_ratios(rng, rng.uniform(0.5, 2.0, n))
            if not _exchanges_rows(op):
                continue
            exchanged += 1
            pivots, exact = _exact_pivots_and_witness(op.main, op.sub, op.sup)
            cert = check_nonsingular_m_matrix(op)
            assert exact is not None and cert.verdict is True
            assert np.array_equal(cert.witness[0], op.solve_certified(cert.ratios, np.ones(n)))
            assert cert.witness[0] == pytest.approx([float(v) for v in exact], rel=1e-12)
    assert exchanged >= 20


def test_tridiagonal_certificate_factors_once(monkeypatch):
    # n >= 3: one dpttrf gives the ratios and, through dgttrs on its pivots,
    # the witness; no pivoting LU (dgtsv) runs, with or without row exchanges.
    lapack, calls = linalg._lapack(), []

    class Counting:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(lapack, name)

    monkeypatch.setattr(linalg, "_lapack", Counting)
    dominant = TridiagonalOperator(-np.ones(999), np.full(1000, 2.5), -np.ones(999))
    swapping = TridiagonalOperator([-1.5, -1.5], [1.0, 2.0, 2.0], [-0.5, -0.5])
    assert _exchanges_rows(swapping)
    for op in (dominant, swapping):
        calls.clear()
        assert check_nonsingular_m_matrix(op).verdict is True
        assert calls == ["dpttrf", "dgttrs"]


def _entered_faster_than_left(n):
    """diag(eta) - Q/2 for a random generator whose state 0 is left at rate 0.5
    and entered at rate 5 from states 1-3: dgetrf on it exchanges rows."""
    rng = np.random.default_rng(3)
    Q = rng.uniform(0.0, 1.0, (n, n)) / n
    Q[0] *= 0.5 / (Q[0].sum() - Q[0, 0])
    Q[1:4, 0] = 5.0
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return np.diag(rng.uniform(0.05, 0.5, n)) - Q / 2.0


def test_dense_ratios_match_the_minors_whatever_rows_are_exchanged():
    # The dense ratios come from elimination without row exchanges, so they
    # are the minor ratios also on an M-matrix whose pivoting LU exchanges
    # rows, and a refusal stops at its first ratio not positive.
    n = 50
    dominant = TridiagonalOperator(-np.ones(n - 1), np.full(n, 2.5), -np.ones(n - 1))
    assert check_nonsingular_m_matrix(dominant.to_dense()).verdict is True
    swapping = TridiagonalOperator([-1.5, -1.5], [1.0, 2.0, 2.0], [-0.5, -0.5])
    cert = check_nonsingular_m_matrix(swapping.to_dense())
    assert cert.verdict is True
    assert cert.ratios == pytest.approx([1.0, 1.25, 1.4], rel=1e-15)
    generator = _entered_faster_than_left(60)
    assert not np.array_equal(scipy.linalg.lapack.dgetrf(generator)[1], np.arange(60))
    cert = check_nonsingular_m_matrix(generator)
    minors = oracles.leading_minors(generator)
    assert cert.verdict is True
    assert cert.ratios == pytest.approx(minors / np.concatenate([[1.0], minors[:-1]]), rel=1e-10)
    cert = check_nonsingular_m_matrix(np.array([[0.01, -0.5], [-0.5, 0.01]]))
    assert cert.verdict is False
    assert cert.ratios == pytest.approx([0.01, 0.01 - 25.0], rel=1e-15)


@pytest.mark.parametrize("n", [2, 10, 60, 200])
def test_dense_ratios_match_the_minors_of_random_generators(n):
    # n = 60 and 200 run the Schur-complement recursion.  Every other draw has
    # eta of mixed sign, so refusals check the ratio prefix and its last entry.
    rng = np.random.default_rng(n)
    refused = 0
    for trial in range(8):
        Q = rng.exponential(1.0, (n, n)) / n
        Q[rng.random((n, n)) < 0.3] = 0.0
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        R = float(rng.choice([0.5, 2.0, 5.0]))
        eta = rng.uniform(0.01, 0.3, n) if trial % 2 == 0 else rng.normal(0.0, 0.2, n)
        A = np.diag(eta) - Q / R
        cert = check_nonsingular_m_matrix(A)
        assert cert.verdict == oracles.is_m_matrix_by_minors(A)
        k = len(cert.ratios)
        minors = oracles.leading_minors(A)[:k]
        assert cert.ratios == pytest.approx(minors / np.concatenate([[1.0], minors[:-1]]), rel=1e-10)
        if not cert.verdict:
            refused += 1
            assert cert.failure_index == k - 1 and not cert.ratios[-1] > 0.0
    assert refused >= 1


@pytest.mark.filterwarnings("error")
def test_overflowing_minors_keep_finite_ratios():
    # Minors 1e200, 1e400, 1e600 overflow; the ratios and the witness do not,
    # nor, in the second operator, the products sub_i sup_i = 1e320, nor, in
    # the third, the rounding bound of Aw, although 2 diag(A) is 3e308.
    op = TridiagonalOperator([-1.0, -1.0], [1e200] * 3, [-1.0, -1.0])
    wide = TridiagonalOperator([-1e160] * 2, [3e160] * 3, [-1e160] * 2)
    edge = TridiagonalOperator([-1e307] * 2, [1.5e308] * 3, [-1e307] * 2)
    for A in (op, op.to_dense(), wide, wide.to_dense(), edge, edge.to_dense()):
        cert = check_nonsingular_m_matrix(A)
        assert cert.verdict is True
        assert cert.note == ""
        assert np.all(np.isfinite(cert.ratios))


@pytest.mark.parametrize("a, verdict", [(2.0, True), (0.0, False), (-1.0, False)])
def test_one_node_operator(a, verdict):
    # LAPACK's tridiagonal wrappers in scipy reject the empty off-diagonals.
    op = TridiagonalOperator([], [a], [])
    cert = check_nonsingular_m_matrix(op)
    assert cert.verdict is verdict
    assert cert.ratios.tolist() == [a]
    assert cert.failure_index == (None if verdict else 0)
    if a == 0.0:
        return
    for solve in (op.factorized(), as_operator(op.to_dense()).factorized()):
        assert solve(np.array([3.0])).tolist() == [3.0 / a]
    assert op.shifted_solver()(np.array([0.5]), np.array([3.0])).tolist() == [3.0 / (a - 0.5)]
    for R in (0.5, 2.0, 10.0):
        if verdict:
            p = 1.0 - 1.0 / R
            f = solve_matrix_hjb(op, R).f
            assert f == pytest.approx([a ** (-1.0 / (1.0 - p))], rel=1e-12)
        else:
            with pytest.raises(IllPosedError):
                solve_matrix_hjb(op, R)


def test_tridiag_solve_raises_on_singular_system():
    op = TridiagonalOperator(np.array([-1.0]), np.array([1.0, 1.0]), np.array([-1.0]))
    one = TridiagonalOperator(np.array([]), np.array([0.0]), np.array([]))
    for singular in (op, one):
        for kind in (singular, as_operator(singular.to_dense())):
            with pytest.raises(SingularMatrixError):
                kind.factorized()(np.ones(singular.n))
        with pytest.raises(SingularMatrixError):
            singular.shifted_solver()(np.zeros(singular.n), np.ones(singular.n))

