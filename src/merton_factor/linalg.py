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

Nothing is factored ahead of time or kept.  Every solve is one LAPACK call,
LU with partial pivoting, that makes its factor and drops it on return:
dgtsv for a tridiagonal operator, dgesv for a dense square matrix (which
enters through :func:`as_operator`).  The certificate's witness, a step of
the fixed point and a Newton step's shifted system (A - diag(d)) x = rhs all
take this route, the first two with d = 0.  The certificate solves the
witness first, then computes the ratios.  Those of a tridiagonal depend on
its off-diagonals only through the products sub_i sup_i >= 0, so they are
the pivots of LAPACK's dpttrf on (main, sqrt(sub sup)).  A dense matrix's
are U's diagonal divided by w from dgetrf on W A^T, W = diag(w): its k-th
leading minor is w_1 ... w_k times A's, and it is strictly column
diagonally dominant exactly when Aw > 0, so on a certified matrix partial
pivoting exchanges no rows.  When rows are exchanged all the same,
elimination without row exchanges gives them.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgesv, dgetrf, dgtsv, dpttrf

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

    __slots__ = ("sub", "main", "sup", "n")
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

    def solve_shifted(self, d, rhs):
        """Solve (A - diag(d)) x = rhs by one LAPACK dgtsv call on copies of
        the bands; ``rhs`` may be overwritten with x.  A zero pivot raises
        SingularMatrixError.
        """
        if self.n == 1:  # the dgtsv wrapper rejects empty off-diagonals
            return _DenseOperator(self.main[:, None]).solve_shifted(d, rhs)
        *_, x, info = dgtsv(self.sub, self.main - d, self.sup, rhs, overwrite_d=1, overwrite_b=1)
        if info > 0:
            raise SingularMatrixError(f"singular tridiagonal system: zero pivot at {info - 1}")
        return x

    def factorized(self):
        """Solve closure for A x = rhs: :meth:`solve_shifted` with no shift, on
        a copy of ``rhs``, so no factor outlives a call."""
        return lambda rhs: self.solve_shifted(0.0, np.array(rhs, dtype=float))

    def pivot_ratios(self, w=None):
        """The ratios by one dpttrf (module docstring), up to the first not
        positive; the witness ``w`` of the dense surface is not needed."""
        if self.n == 1:  # the dpttrf wrapper rejects an empty off-diagonal
            return self.main.copy()
        # sqrt(sub_i sup_i) with both factors scaled by a power of two c near
        # their largest magnitude (off-diagonals of a Z-matrix are <= 0): the
        # scaling is exact, and the product cannot overflow.
        c = 2.0 ** (np.frexp(max(-self.sub.min(), -self.sup.min()))[1] - 1)
        e = self.sub / c
        e *= self.sup / c
        np.sqrt(e, out=e)
        e *= c
        d, _, info = dpttrf(self.main, e, overwrite_e=1)
        return d[:info] if info > 0 else d


class _DenseOperator:
    """A dense square matrix behind the surface of :class:`TridiagonalOperator`."""

    __slots__ = ("dense", "main", "n", "row_terms")

    def __init__(self, dense):
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {dense.shape}")
        self.dense = dense
        self.main = np.diag(dense)
        self.n = self.row_terms = dense.shape[0]

    def positive_off_diagonal(self):
        off = self.dense.copy()
        np.fill_diagonal(off, 0.0)
        bad = np.argwhere(off > 0.0)
        return (int(bad[0, 0]), int(bad[0, 1])) if bad.size else None

    def matvec(self, x):
        return self.dense.dot(x)

    def norm_inf(self):
        return float(np.linalg.norm(self.dense, np.inf))

    def solve_shifted(self, d, rhs):
        """Solve (A - diag(d)) x = rhs by one LAPACK dgesv call on a copy of A
        whose diagonal is shifted in place; ``rhs`` may be overwritten with x."""
        shifted = self.dense.copy(order="F")
        shifted[np.diag_indices(self.n)] -= d
        *_, x, info = dgesv(shifted, rhs, overwrite_a=1, overwrite_b=1)
        if info > 0:
            raise SingularMatrixError(f"singular system: zero pivot at {info - 1}")
        return x

    factorized = TridiagonalOperator.factorized

    def pivot_ratios(self, w=None):
        """diag(U) / w from dgetrf on W A^T (module docstring) when it exchanged no
        rows (scipy's ipiv is 0-based), else elimination without row exchanges,
        up to the first pivot not above 1e-300.  ``w`` is the witness when it
        is finite and nonzero, else ones."""
        if w is None or not np.all(np.isfinite(w) & (w != 0.0)):
            w = np.ones(self.n)
        lu, ipiv, _ = dgetrf(w[:, None] * self.dense.T, overwrite_a=1)
        if np.array_equal(ipiv, np.arange(self.n)):
            return np.diag(lu) / w
        del lu
        work = self.dense.copy()
        ratios = []
        for k in range(self.n):
            ratios.append(work[k, k])
            if not work[k, k] > _SINGULAR_RATIO:
                break
            work[k + 1 :, k + 1 :] -= np.outer(work[k + 1 :, k], work[k, k + 1 :]) / work[k, k]
        return np.array(ratios)


def as_operator(A):
    """``A`` behind the operator surface: a :class:`TridiagonalOperator` as
    it is, a dense square matrix through its dense adapter."""
    return A if isinstance(A, (TridiagonalOperator, _DenseOperator)) else _DenseOperator(A)


@dataclass
class MCertificate:
    """Outcome of an M-matrix check.

    ``ratios`` are the elimination pivots, so the k-th leading minor is the
    product of the first k ratios; on a failed ratio they stop at the first
    one that is not positive.  ``witness`` = (w, Aw) with w = A^-1 1, solved
    by the operator's one dgtsv or dgesv call and kept once every ratio is
    positive; the verdict also requires w > 0 and Aw above its rounding
    bound.  An exact zero pivot of that solve behind positive ratios (rows
    were exchanged) leaves no witness and a false verdict.
    ``failure_index`` is the first index where positivity fails.
    """

    verdict: bool
    ratios: Optional[np.ndarray] = None
    witness: Optional[tuple] = None
    failure_index: Optional[int] = None
    note: str = ""


def check_nonsingular_m_matrix(A):
    """Certify that a Z-matrix is a nonsingular M-matrix.

    ``A`` is a :class:`TridiagonalOperator` or a dense square ndarray.  A
    positive off-diagonal entry raises :class:`NotZMatrixError` (the check
    does not apply).  The verdict is True when every pivot ratio exceeds
    1e-300 and the witness w = A^-1 1 has w > 0 and Aw > 0 beyond the
    rounding bound of the product; ratios at or below 1e-300 yield a
    "numerically singular" note rather than a sign claim.

    The witness is solved first, by one solve call that keeps no factor;
    only then are the ratios computed (a dense operator's with w as its
    scaling), so the two never hold memory at the same time.
    """
    op = as_operator(A)
    where = op.positive_off_diagonal()
    if where is not None:
        raise NotZMatrixError(f"positive off-diagonal entry {where}; not a Z-matrix")
    try:
        w = op.factorized()(np.ones(op.n))
    except SingularMatrixError as exc:
        w, singular = None, f"numerically {exc}"
    ratios = op.pivot_ratios(w)
    failed = np.flatnonzero(~(ratios > _SINGULAR_RATIO))
    if failed.size:
        i = int(failed[0])
        r = ratios[i]
        if not r > 0.0:
            note = f"pivot ratio {r:.6g} at index {i} is not positive"
        else:
            note = f"numerically singular: pivot ratio {r:.6g} at index {i}"
        return MCertificate(verdict=False, ratios=ratios[: i + 1], failure_index=i, note=note)
    if w is None:  # positive ratios, yet an exact zero pivot in U
        return MCertificate(verdict=False, ratios=ratios, note=singular)
    image = op.matvec(w)
    # Positive ratios give a Z-matrix a positive diagonal, so |A| w = 2 diag(A) w - Aw
    # for w > 0; k eps |A| w is twice the rounding bound of a k-term row product.
    # diag(A) w is formed first: 2 diag(A) alone can overflow.
    rounding = op.row_terms * np.finfo(float).eps * (2.0 * (op.main * w) - image)
    bad = np.flatnonzero(~((w > 0.0) & (image > rounding)))
    note = ""
    if bad.size:
        note = "witness w = A^-1 1 fails w > 0, Aw > 0 beyond rounding: not an M-matrix or singular"
    return MCertificate(
        verdict=not bad.size,
        ratios=ratios,
        witness=(w, image),
        failure_index=int(bad[0]) if bad.size else None,
        note=note,
    )


def tridiag_solve(A, rhs):
    """Solve A x = rhs by A's one solve call (see :func:`as_operator`),
    leaving ``rhs`` untouched.

    Raises :class:`SingularMatrixError` on an exactly singular system (a
    zero pivot of LU with partial pivoting).  For a tridiagonal operator
    the result satisfies the backward-stable residual bound
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
