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

Nothing is factored ahead of time or kept.  A step of the fixed point or a
Newton step's shifted system (A - diag(d)) x = rhs is one LU with partial
pivoting that drops its factor on return, by the function an operator's
``shifted_solver()`` returns (``factorized()`` is it at zero shift): LAPACK's
dgtsv for a tridiagonal operator (on copies of the off-diagonals that a
loop of steps reuses), numpy.linalg.solve for a dense square matrix (which
enters through :func:`as_operator`).  The certificate computes the ratios first.
Those of a tridiagonal depend on its off-diagonals only through the
products sub_i sup_i >= 0, so they are the pivots of LAPACK's dpttrf on
(main, sqrt(sub sup)).  Positive, they are also the pivots of A's LU
without row exchanges, which is backward stable on an M-matrix (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2002, ch. 9), so one
dgttrs call on that LU solves the witness: one factorization serves both.
A dense matrix's ratios are those of its leading half and of the half's
Schur complement, down to blocks of at most 24 rows eliminated by rank-1
updates; its witness is the pivoting solve.  A tridiagonal witness that
fails the check gets a second try on the pivoting LU, as either one proves
the property alone.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotZMatrixError, SingularMatrixError

__all__ = [
    "TridiagonalOperator",
    "MCertificate",
    "check_nonsingular_m_matrix",
]

# Ratios at or below this magnitude are treated as numerically singular
# rather than as evidence either way.
_SINGULAR_RATIO = 1e-300


def _lapack():
    # Imported at the first tridiagonal call, on purpose not at the top of the
    # module: scipy.linalg costs about 0.35 s and 28 MB to import, and the
    # dense operators of regime models never need it.
    from scipy.linalg import lapack

    return lapack


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
        if main.ndim != 1 or main.size < 1:
            raise ValueError("main diagonal must be a nonempty 1-d array")
        n = main.shape[0]
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
        product = self.sup * x[1:]  # one buffer for both off-diagonal products
        out[:-1] += product
        out[1:] += np.multiply(self.sub, x[:-1], out=product)
        return out

    def to_dense(self):
        dense = np.diag(self.main)
        dense += np.diag(self.sub, -1) + np.diag(self.sup, 1)
        return dense

    def norm_inf(self):
        row = np.abs(self.main)
        band = np.abs(self.sup)  # one buffer for both off-diagonals
        row[:-1] += band
        row[1:] += np.abs(self.sub, out=band)
        return float(row.max())

    def shifted_solver(self):
        """A function that solves (A - diag(d)) x = rhs by one LAPACK dgtsv
        call, overwriting d and rhs.  dgtsv overwrites the off-diagonals it
        is given, so the function copies them into two buffers of its own,
        made once for all of its calls: a loop of solves allocates no new
        bands.  A zero pivot raises SingularMatrixError."""
        if self.n == 1:  # the dgtsv wrapper rejects empty off-diagonals
            return _DenseOperator(self.main[:, None]).shifted_solver()
        dgtsv, sub, sup = _lapack().dgtsv, np.empty(self.n - 1), np.empty(self.n - 1)

        def solve(d, rhs):
            np.copyto(sub, self.sub)
            np.copyto(sup, self.sup)
            main = np.subtract(self.main, d, out=d)
            flags = {"overwrite_dl": 1, "overwrite_d": 1, "overwrite_du": 1, "overwrite_b": 1}
            *_, x, info = dgtsv(sub, main, sup, rhs, **flags)
            if info > 0:
                raise SingularMatrixError(f"singular tridiagonal system: zero pivot at {info - 1}")
            return x

        return solve

    def factorized(self):
        """Solve closure for A x = rhs: a :meth:`shifted_solver` built per call, with
        no shift, on a copy of ``rhs``, so no factor outlives a call."""
        return lambda rhs: self.shifted_solver()(np.zeros(self.n), np.array(rhs, dtype=float))

    def pivot_ratios(self):
        """The ratios by one dpttrf (module docstring), up to the first not positive."""
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
        d, _, info = _lapack().dpttrf(self.main, e, overwrite_e=1)
        return d[:info] if info > 0 else d

    def solve_certified(self, ratios, rhs):
        """Solve A x = rhs, overwriting ``rhs`` with x, by the LU without row
        exchanges whose pivots are the positive ``ratios`` of
        :meth:`pivot_ratios`: one dgttrs call with identity pivots, unit lower
        band sub / ratios[:-1] and upper bands (ratios, sup)."""
        if self.n < 3:  # the dgttrs wrapper rejects an empty second superdiagonal
            return self.factorized()(rhs)
        lower, second = self.sub / ratios[:-1], np.zeros(self.n - 2)
        pivots = np.arange(1, self.n + 1, dtype=np.intc)
        return _lapack().dgttrs(lower, ratios, self.sup, second, pivots, rhs, overwrite_b=1)[0]


class _DenseOperator:
    """A dense square matrix behind the surface of :class:`TridiagonalOperator`."""

    __slots__ = ("dense", "main", "n", "row_terms")

    def __init__(self, dense):
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {dense.shape}")
        if not np.all(np.isfinite(dense)):
            raise ValueError("matrix entries must be finite")
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

    def shifted_solver(self):
        """A function that solves (A - diag(d)) x = rhs by one numpy.linalg.solve call
        on a copy of A, overwriting neither; a singular one raises SingularMatrixError."""

        def solve(d, rhs):
            shifted = self.dense.copy()
            shifted[np.diag_indices(self.n)] -= d
            try:
                return np.linalg.solve(shifted, rhs)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(f"singular system: {exc}") from None

        return solve

    factorized = TridiagonalOperator.factorized

    def solve_certified(self, ratios, rhs):
        """Solve A x = rhs by :meth:`factorized`; the ratios are not needed."""
        return self.factorized()(rhs)

    def pivot_ratios(self):
        """The ratios by elimination without row exchanges (module docstring)."""
        return _elimination_pivots(self.dense.copy())


def _elimination_pivots(a):
    """Pivots of elimination without row exchanges on ``a`` (overwritten), up
    to the first not above 1e-300.  Multipliers are divided by their pivot
    before they multiply, so two large entries are never multiplied."""
    n = a.shape[0]
    if n > 24:
        h = n // 2
        head = _elimination_pivots(a[:h, :h].copy())
        if not head[-1] > _SINGULAR_RATIO:
            return head
        a[h:, h:] -= a[h:, :h] @ np.linalg.solve(a[:h, :h], a[:h, h:])
        return np.concatenate([head, _elimination_pivots(a[h:, h:])])
    pivots = np.empty(n)
    for k in range(n):
        pivots[k] = a[k, k]
        if not pivots[k] > _SINGULAR_RATIO:
            return pivots[: k + 1]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k] / pivots[k], a[k, k + 1 :])
    return pivots


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
    once every ratio is positive (a tridiagonal's on the LU whose pivots are
    the ratios, and on the pivoting LU if that one fails); the verdict also
    requires w > 0 and Aw above its rounding bound.  An exact zero pivot of
    a pivoting solve behind positive ratios (rows were exchanged) leaves no
    witness and a false verdict.  ``failure_index`` is the first index
    where positivity fails.
    """

    verdict: bool
    ratios: Optional[np.ndarray] = None
    witness: Optional[tuple] = None
    failure_index: Optional[int] = None
    note: str = ""

    def to_dict(self):
        """JSON record: verdict, failure index and note, and the ratios by
        their count and minimum (the array stays on ``ratios``)."""
        record = {"verdict": self.verdict, "failure_index": self.failure_index, "note": self.note}
        if self.ratios is not None:
            ratios = np.asarray(self.ratios)
            record["n_ratios"] = int(ratios.size)
            if ratios.size:
                record["ratio_min"] = float(ratios.min())
        return record


def check_nonsingular_m_matrix(A):
    """Certify that a Z-matrix is a nonsingular M-matrix.

    ``A`` is a :class:`TridiagonalOperator` or a dense square ndarray.  A
    positive off-diagonal entry raises :class:`NotZMatrixError` (the check
    does not apply).  The verdict is True when every pivot ratio exceeds
    1e-300 and the witness w = A^-1 1 has w > 0 and Aw > 0 beyond the
    rounding bound of the product; ratios at or below 1e-300 yield a
    "numerically singular" note rather than a sign claim.

    The ratios come first.  A tridiagonal (n >= 3) then solves the witness
    by :meth:`TridiagonalOperator.solve_certified` on the LU whose pivots
    they are, so one dpttrf is its only factorization; a witness that fails
    is solved once more by the pivoting LU of :meth:`factorized`.  A dense
    matrix solves it by numpy.linalg.solve.  No factor is kept.
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
    try:
        w = op.solve_certified(ratios, np.ones(op.n))
        image, bad = _witness_failures(op, w)
        if bad.size and isinstance(op, TridiagonalOperator):
            # A second try on the pivoting LU (for n < 3 the first one was):
            # either witness proves the M-matrix property alone.
            w = op.factorized()(np.ones(op.n))
            image, bad = _witness_failures(op, w)
    except SingularMatrixError as exc:  # a pivoting LU met an exact zero behind positive ratios
        return MCertificate(verdict=False, ratios=ratios, note=f"numerically {exc}")
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


def _witness_failures(op, w):
    """(Aw, the indices where w > 0 or Aw above its rounding bound fails)."""
    image = op.matvec(w)
    # Positive ratios give a Z-matrix a positive diagonal, so |A| w = 2 diag(A) w - Aw
    # for w > 0; k eps |A| w is twice the rounding bound of a k-term row product.
    # diag(A) w is formed first: 2 diag(A) alone can overflow.
    rounding = op.main * w
    rounding *= 2.0
    rounding -= image
    rounding *= op.row_terms * np.finfo(float).eps
    return image, np.flatnonzero(~((w > 0.0) & (image > rounding)))
