"""Tridiagonal operators, M-matrix certification, and solve helpers.

A Z-matrix has nonpositive off-diagonal entries.  A nonsingular Z-matrix is
an M-matrix exactly when all leading principal minors are positive, or
equivalently when some x > 0 has Ax > 0 (Berman & Plemmons, *Nonnegative
Matrices in the Mathematical Sciences*, ch. 6).  The leading-minor ratios
are the pivots of Gaussian elimination without row exchanges

    r_1 = A_11,    r_n = A_nn - A_{n,n-1} A_{n-1,n} / r_{n-1},

so the n-th leading minor is r_1 * ... * r_n.  The certificate asks for
both characterizations: every ratio positive, and the witness w = A^-1 1
with w > 0 and Aw > 0, where the computed Aw must exceed its own rounding
bound, so that the exact product is positive.  A ratio near zero carries
rounding error that the next division amplifies, so the ratios alone can
certify a matrix that is not an M-matrix; the witness refuses it.  Such a
witness proves the M-matrix property of the stored entries; a matrix whose
condition || |A| A^-1 1 ||_inf comes within about 100 of 1/eps may not be
provable so and is then refused as numerically singular.

Every operator is factored once and that factor serves both its solves and
its certificate.  A tridiagonal operator uses LAPACK banded LU with partial
pivoting: when no rows were exchanged, the diagonal of U is the ratio
sequence above; an M-matrix need not be diagonally dominant, so rows can
still be exchanged, and the recursion then recomputes the ratios.  A dense
square matrix enters through :func:`as_operator`, whose factor is the
elimination without row exchanges itself (an M-matrix needs none).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrs

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
    row_terms = 3  # products per row of matvec, for its rounding bound

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
        return self.positive_off_diagonal() is None

    def positive_off_diagonal(self):
        """(i, j) of a positive off-diagonal entry, or None for a Z-matrix."""
        bad_sub = np.flatnonzero(self.sub > 0.0)
        if bad_sub.size:
            return int(bad_sub[0]) + 1, int(bad_sub[0])
        bad_sup = np.flatnonzero(self.sup > 0.0)
        if bad_sup.size:
            return int(bad_sup[0]), int(bad_sup[0]) + 1
        return None

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

    def shifted(self, d):
        """The operator A - diag(d)."""
        return TridiagonalOperator(self.sub, self.main - d, self.sup)

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

    def pivot_ratios(self):
        """Leading-minor ratios: U's diagonal, or the recursion if rows were exchanged."""
        lu, ipiv, _ = self._factor()
        if np.array_equal(ipiv, np.arange(self.n)):
            return lu[2].copy()  # never alias the cached LU
        return _tridiagonal_ratios(self)

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


class _DenseOperator:
    """A dense square matrix behind the surface of :class:`TridiagonalOperator`.

    Its one factor is Gaussian elimination without row exchanges, so its
    pivots are the leading-minor ratios.  Elimination stops at the first
    pivot that is not above 1e-300, and solving on such a factor raises
    SingularMatrixError: every M-matrix factors to the end.
    """

    __slots__ = ("dense", "main", "n", "row_terms", "_lu")

    def __init__(self, dense):
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {dense.shape}")
        self.dense = dense
        self.main = np.diag(dense)
        self.n = self.row_terms = dense.shape[0]
        self._lu = None

    def positive_off_diagonal(self):
        off = self.dense.copy()
        np.fill_diagonal(off, 0.0)
        bad = np.argwhere(off > 0.0)
        return (int(bad[0, 0]), int(bad[0, 1])) if bad.size else None

    def matvec(self, x):
        return self.dense.dot(x)

    def norm_inf(self):
        return float(np.linalg.norm(self.dense, np.inf))

    def shifted(self, d):
        return _DenseOperator(self.dense - np.diag(d))

    def _factor(self):
        # (lu, k): pivots 0..k-1 eliminated, unit L below the diagonal, U on
        # and above it; k < n means pivot k is not above 1e-300.
        if self._lu is None:
            lu = self.dense.copy()
            k = 0
            while k < self.n and lu[k, k] > _SINGULAR_RATIO:
                lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :]) / lu[k, k]
                lu[k + 1 :, k] /= lu[k, k]
                k += 1
            self._lu = lu, k
        return self._lu

    def pivot_ratios(self):
        lu, k = self._factor()
        return np.diag(lu)[: k + 1].copy()

    def solve(self, rhs):
        return tridiag_solve(self, rhs)

    def factorized(self):
        lu, k = self._factor()
        if k < self.n:
            raise SingularMatrixError(
                f"elimination without row exchanges stopped at pivot {lu[k, k]:.6g} at {k}"
            )
        ipiv = np.arange(self.n, dtype=np.int32)
        return lambda rhs: dgetrs(lu, ipiv, np.asarray(rhs, dtype=float))[0]


def as_operator(A):
    """``A`` behind the operator surface: a :class:`TridiagonalOperator` as
    it is, a dense square matrix through its no-row-exchange adapter."""
    return A if isinstance(A, (TridiagonalOperator, _DenseOperator)) else _DenseOperator(A)


@dataclass
class MCertificate:
    """Outcome of an M-matrix check.

    ``ratios`` are the elimination pivots, so the k-th leading minor is the
    product of the first k ratios; on a failed ratio they stop at the first
    one that is not positive.  ``witness`` = (w, Aw) with w = A^-1 1, solved
    on the operator's cached factor once every ratio is positive; the
    verdict also requires w > 0 and Aw above its rounding bound.
    ``failure_index`` is the first index where positivity fails.  ``minors`` is None when the ratios
    fail or their products overflow, in which case a note says so.
    """

    verdict: bool
    ratios: Optional[np.ndarray] = None
    minors: Optional[np.ndarray] = None
    witness: Optional[tuple] = None
    failure_index: Optional[int] = None
    note: str = ""


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


def check_nonsingular_m_matrix(A):
    """Certify that a Z-matrix is a nonsingular M-matrix.

    ``A`` is a :class:`TridiagonalOperator` or a dense square ndarray.  A
    positive off-diagonal entry raises :class:`NotZMatrixError` (the check
    does not apply).  The verdict is True when every pivot ratio exceeds
    1e-300 and the witness w = A^-1 1 has w > 0 and Aw > 0 beyond the
    rounding bound of the product; ratios at or below 1e-300 yield a
    "numerically singular" note rather than a sign claim.

    The ratios and the witness come from the operator's one cached factor
    (see ``TridiagonalOperator.factorized``), which its solves reuse.
    """
    op = as_operator(A)
    where = op.positive_off_diagonal()
    if where is not None:
        raise NotZMatrixError(f"positive off-diagonal entry {where}; not a Z-matrix")
    ratios = op.pivot_ratios()
    failed = np.flatnonzero(~(ratios > _SINGULAR_RATIO))
    if failed.size:
        i = int(failed[0])
        r = ratios[i]
        if not r > 0.0:
            note = f"pivot ratio {r:.6g} at index {i} is not positive"
        else:
            note = f"numerically singular: pivot ratio {r:.6g} at index {i}"
        return MCertificate(verdict=False, ratios=ratios[: i + 1], failure_index=i, note=note)
    with np.errstate(over="ignore", invalid="ignore"):
        minors = np.cumprod(ratios)
    note = ""
    if not np.all(np.isfinite(minors)):
        minors, note = None, "leading minors overflow; reporting pivot ratios only"
    w = op.factorized()(np.ones(op.n))
    image = op.matvec(w)
    # Positive ratios give a Z-matrix a positive diagonal, so |A| w = 2 diag(A) w - Aw
    # for w > 0; k eps |A| w is twice the rounding bound of a k-term row product.
    rounding = op.row_terms * np.finfo(float).eps * (2.0 * op.main * w - image)
    bad = np.flatnonzero(~((w > 0.0) & (image > rounding)))
    if bad.size:
        note = "witness w = A^-1 1 fails w > 0, Aw > 0 beyond rounding: not an M-matrix or singular"
    return MCertificate(
        verdict=not bad.size,
        ratios=ratios,
        minors=minors,
        witness=(w, image),
        failure_index=int(bad[0]) if bad.size else None,
        note=note,
    )


def tridiag_solve(A, rhs):
    """Solve A x = rhs on the cached factor of A (see :func:`as_operator`).

    Raises :class:`SingularMatrixError` on an exactly singular tridiagonal
    system, and on a dense one whose elimination without row exchanges meets
    a pivot not above 1e-300.  For a tridiagonal operator the result
    satisfies the backward-stable residual bound
    ||Ax - rhs||_inf <= 1e-12 (||A||_inf ||x||_inf + ||rhs||_inf).
    """
    op = as_operator(A)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.n,):
        raise ValueError(f"rhs must have shape ({op.n},), got {rhs.shape}")
    return op.factorized()(rhs)


def inverse_norm_bound(A, x):
    """Upper bound ||A^-1||_inf <= ||x||_inf / min_j (Ax)_j for x > 0, Ax > 0.

    Valid for M-matrices; the preconditions on x are checked.
    """
    x = np.asarray(x, dtype=float)
    image = as_operator(A).matvec(x)
    if not np.all(x > 0.0):
        raise ValueError("witness x must be strictly positive")
    if not np.all(image > 0.0):
        raise ValueError("witness image Ax must be strictly positive")
    return float(np.max(np.abs(x)) / np.min(image))
