"""Tridiagonal operators, M-matrix certification, and solve helpers.

A Z-matrix has nonpositive off-diagonal entries.  A nonsingular Z-matrix is
an M-matrix exactly when all leading principal minors are positive, or
equivalently when some x > 0 has Ax > 0, or when A^-1 exists and is
entrywise nonnegative.  Certification here uses the leading-minor ratios
(the pivots of Gaussian elimination without row exchanges)

    r_1 = A_11,    r_n = A_nn - A_{n,n-1} A_{n-1,n} / r_{n-1},

so the n-th leading minor is r_1 * ... * r_n; positivity of all ratios is
the M-matrix verdict.  The positive-image route (solve Ax = 1, check x > 0
and Ax > 0) is available as an alternative certificate.

A tridiagonal operator is factored once (LAPACK banded LU with partial
pivoting) and that factor serves both its solves and its certificate: when
no rows were exchanged, the diagonal of U is the ratio sequence above.  An
M-matrix need not be diagonally dominant, so rows can still be exchanged;
the recursion then recomputes the ratios.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import NotZMatrixError, SingularMatrixError

__all__ = [
    "TridiagonalOperator",
    "MCertificate",
    "check_nonsingular_m_matrix",
    "tridiag_solve",
    "inverse_norm_bound",
]

# Ratios at or below this magnitude are treated as numerically singular
# rather than as evidence either way.
_SINGULAR_RATIO = 1e-300


class TridiagonalOperator:
    """Tridiagonal matrix stored as three bands.

    ``sub`` has length n-1 (entries (i, i-1)), ``main`` length n, ``sup``
    length n-1 (entries (i, i+1)).
    """

    __slots__ = ("sub", "main", "sup", "n", "_lu")

    def __init__(self, sub, main, sup):
        main = np.asarray(main, dtype=float)
        sub = np.asarray(sub, dtype=float)
        sup = np.asarray(sup, dtype=float)
        n = main.shape[0]
        if main.ndim != 1 or n < 1:
            raise ValueError("main diagonal must be a nonempty 1-d array")
        if sub.shape != (n - 1,) or sup.shape != (n - 1,):
            raise ValueError(
                f"off-diagonals must have length {n - 1}, got {sub.shape} and {sup.shape}"
            )
        if not (np.all(np.isfinite(main)) and np.all(np.isfinite(sub)) and np.all(np.isfinite(sup))):
            raise ValueError("tridiagonal bands must be finite")
        self.sub = sub
        self.main = main
        self.sup = sup
        self.n = n
        self._lu = None

    @property
    def is_z_matrix(self):
        """True when all off-diagonal entries are <= 0."""
        return bool(np.all(self.sub <= 0.0) and np.all(self.sup <= 0.0))

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        out = self.main * x
        if self.n > 1:
            out[:-1] += self.sup * x[1:]
            out[1:] += self.sub * x[:-1]
        return out

    def to_dense(self):
        dense = np.diag(self.main)
        if self.n > 1:
            dense += np.diag(self.sub, -1) + np.diag(self.sup, 1)
        return dense

    def norm_inf(self):
        row = np.abs(self.main).copy()
        if self.n > 1:
            row[:-1] += np.abs(self.sup)
            row[1:] += np.abs(self.sub)
        return float(row.max())

    def _factor(self):
        # (lu, ipiv, info) of LAPACK's banded LU, cached: no code changes the
        # bands after construction.  U's diagonal is lu[2]; ipiv is 0-based.
        if self._lu is None:
            ab = np.zeros((4, self.n))
            ab[1, 1:] = self.sup
            ab[2] = self.main
            ab[3, :-1] = self.sub
            self._lu = dgbtrf(ab, 1, 1, overwrite_ab=1)
        return self._lu

    def solve(self, rhs):
        return tridiag_solve(self, rhs)

    def factorized(self):
        """Return a solve closure on the operator's one LU factorization.

        That LU is computed on first use and shared by every later solve and
        certificate of this operator; a zero pivot raises SingularMatrixError.
        """
        lu, ipiv, info = self._factor()
        if info > 0:
            raise SingularMatrixError(f"singular tridiagonal system: zero pivot at {info - 1}")
        return lambda rhs: dgbtrs(lu, 1, 1, np.asarray(rhs, dtype=float), ipiv)[0]


@dataclass
class MCertificate:
    """Outcome of an M-matrix check.

    ``method`` is ``"minor_ratios"`` (ratios = elimination pivots, so the
    k-th leading minor is the product of the first k ratios) or
    ``"positive_image"`` (witness = (x, Ax) with the verdict requiring both
    positive).  ``failure_index`` is the first index where positivity fails.
    ``minors`` is filled on the ratio route unless the products overflow, in
    which case a note says so and the ratios stand alone.
    """

    verdict: bool
    method: str
    ratios: Optional[np.ndarray] = None
    minors: Optional[np.ndarray] = None
    witness: Optional[tuple] = None
    failure_index: Optional[int] = None
    note: str = ""


def _minor_products(ratios):
    with np.errstate(over="ignore", invalid="ignore"):
        minors = np.cumprod(ratios)
    if np.all(np.isfinite(minors)):
        return minors, ""
    return None, "leading minors overflow; reporting pivot ratios only"


def _certificate_from_ratios(ratios):
    ratios = np.asarray(ratios)
    failed = np.flatnonzero(~(ratios > _SINGULAR_RATIO))
    if failed.size:
        i = int(failed[0])
        r = ratios[i]
        if not r > 0.0:
            note = f"pivot ratio {r:.6g} at index {i} is not positive"
        else:
            note = f"numerically singular: pivot ratio {r:.6g} at index {i}"
        return MCertificate(
            verdict=False,
            method="minor_ratios",
            ratios=ratios[: i + 1],
            failure_index=i,
            note=note,
        )
    minors, note = _minor_products(ratios)
    return MCertificate(
        verdict=True, method="minor_ratios", ratios=ratios, minors=minors, note=note
    )


def _tridiagonal_ratios(A):
    # Only runs when the banded LU exchanged rows.  Plain-float loop: the
    # recursion is sequential, and Python floats beat numpy scalars by ~5x.
    main = A.main.tolist()
    sub = A.sub.tolist()
    sup = A.sup.tolist()
    ratios = [main[0]]
    r = main[0]
    for i in range(1, A.n):
        if not r > _SINGULAR_RATIO:
            break
        r = main[i] - sub[i - 1] * sup[i - 1] / r
        ratios.append(r)
    return np.array(ratios)


def _dense_ratios(A):
    n = A.shape[0]
    work = np.array(A, dtype=float)
    ratios = []
    for k in range(n):
        pivot = work[k, k]
        ratios.append(pivot)
        if not pivot > _SINGULAR_RATIO:
            break
        if k + 1 < n:
            work[k + 1 :, k + 1 :] -= np.outer(work[k + 1 :, k], work[k, k + 1 :]) / pivot
    return np.array(ratios)


def _positive_image_certificate(A, matvec, solve):
    ones = np.ones(A.n if isinstance(A, TridiagonalOperator) else A.shape[0])
    try:
        x = solve(ones)
    except SingularMatrixError as exc:
        return MCertificate(
            verdict=False, method="positive_image", note=f"solve for the witness failed: {exc}"
        )
    image = matvec(x)
    ok = bool(np.all(x > 0.0) and np.all(image > 0.0))
    failure = None
    if not ok:
        bad = np.flatnonzero(~((x > 0.0) & (image > 0.0)))
        failure = int(bad[0])
    return MCertificate(
        verdict=ok,
        method="positive_image",
        witness=(x, image),
        failure_index=failure,
        note="" if ok else "candidate witness x = A^-1 1 is not strictly positive",
    )


def check_nonsingular_m_matrix(A, method="minor_ratios"):
    """Certify that a Z-matrix is a nonsingular M-matrix.

    ``A`` is a :class:`TridiagonalOperator` or a dense square ndarray.  A
    positive off-diagonal entry raises :class:`NotZMatrixError` (the check
    does not apply).  Pivot ratios at or below 1e-300 yield verdict False
    with a "numerically singular" note rather than a sign claim.

    A tridiagonal operator's ratios are the diagonal of U in its cached LU
    (see ``TridiagonalOperator.factorized``), so it is factored once however
    often it is certified; the recursion runs only if that LU exchanged rows.
    """
    if isinstance(A, TridiagonalOperator):
        if not A.is_z_matrix:
            bad_sub = np.flatnonzero(A.sub > 0.0)
            bad_sup = np.flatnonzero(A.sup > 0.0)
            if bad_sub.size:
                where = f"({bad_sub[0] + 1}, {bad_sub[0]})"
            else:
                where = f"({bad_sup[0]}, {bad_sup[0] + 1})"
            raise NotZMatrixError(f"positive off-diagonal entry {where}; not a Z-matrix")
        if method == "positive_image":
            return _positive_image_certificate(A, A.matvec, A.solve)
        if method != "minor_ratios":
            raise ValueError(f"unknown method {method!r}")
        lu, ipiv, _ = A._factor()
        if np.array_equal(ipiv, np.arange(A.n)):
            return _certificate_from_ratios(lu[2].copy())  # never alias the cached LU
        return _certificate_from_ratios(_tridiagonal_ratios(A))

    dense = np.asarray(A, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {dense.shape}")
    off = dense.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off > 0.0):
        i, j = np.argwhere(off > 0.0)[0]
        raise NotZMatrixError(f"positive off-diagonal entry ({i}, {j}); not a Z-matrix")
    if method == "positive_image":
        def dense_solve(rhs):
            try:
                return np.linalg.solve(dense, rhs)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(str(exc)) from exc

        return _positive_image_certificate(dense, dense.dot, dense_solve)
    if method != "minor_ratios":
        raise ValueError(f"unknown method {method!r}")
    return _certificate_from_ratios(_dense_ratios(dense))


def tridiag_solve(A, rhs):
    """Solve A x = rhs for a tridiagonal operator with its banded LU factor.

    Raises :class:`SingularMatrixError` on an exactly singular system.  The
    result satisfies the backward-stable residual bound
    ||Ax - rhs||_inf <= 1e-12 (||A||_inf ||x||_inf + ||rhs||_inf).
    """
    if not isinstance(A, TridiagonalOperator):
        raise TypeError("tridiag_solve expects a TridiagonalOperator")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (A.n,):
        raise ValueError(f"rhs must have shape ({A.n},), got {rhs.shape}")
    return A.factorized()(rhs)


def inverse_norm_bound(A, x):
    """Upper bound ||A^-1||_inf <= ||x||_inf / min_j (Ax)_j for x > 0, Ax > 0.

    Valid for M-matrices; the preconditions on x are checked.
    """
    x = np.asarray(x, dtype=float)
    image = A.matvec(x) if isinstance(A, TridiagonalOperator) else np.asarray(A).dot(x)
    if not np.all(x > 0.0):
        raise ValueError("witness x must be strictly positive")
    if not np.all(image > 0.0):
        raise ValueError("witness image Ax must be strictly positive")
    return float(np.max(np.abs(x)) / np.min(image))
