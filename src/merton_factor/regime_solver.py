"""Matrix HJB solver for finite-regime models.

Writing eta for the per-state frozen consumption rates and Q for the chain
generator, the candidate value function is V(x, i) = x^(1-R)/(1-R) * f_i
where f > 0 solves the matrix HJB equation

    A f = f^(1 - 1/R),      A = diag(eta) - Q / R

(the power acts entrywise).  The problem is well-posed exactly when A is a
nonsingular M-matrix; then the equation has a unique positive solution, the
optimal consumption fraction is xi = f^(-1/R) and the risky weight is
pi = lambda / (R sigma) per state.

With p = 1 - 1/R in (-1, 1) (that is, R > 1/2), T x = A^-1 x^p contracts the
log-sup metric d(x, y) = ||log x - log y||_inf at rate |p| and the iteration
from the invariant-box corner converges geometrically.  For R <= 1/2
Newton's method is used instead, from a start on the side where it
converges monotonically.  Both run in one driver that shares the set-up,
the positivity checks, the stop test and the result.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, IllPosedError, NotMMatrixError, SingularMatrixError
from .linalg import MCertificate, TridiagonalOperator, check_nonsingular_m_matrix
from .model import RegimeModel

__all__ = [
    "HjbSolution",
    "WellPosednessReport",
    "assemble_A",
    "check_wellposed",
    "solve_hjb_fixed_point",
    "solve_hjb_newton",
    "solve_matrix_hjb",
    "solve_regime",
    "cyclic_wellposed",
    "nearest_neighbour_wellposed",
    "value_and_policies",
]


@dataclass
class HjbSolution:
    """Positive HJB solution with policies and iteration diagnostics.

    ``f`` is the value-function factor, ``u = f^(-1/R)`` the optimal
    consumption rate, ``pi_hat`` the risky weight (None until policies are
    attached), ``trace`` the per-iteration log-sup step sizes, ``residual``
    the recomputed ||A f - f^p||_inf with scale ``residual_scale`` =
    ||f^p||_inf.
    """

    f: np.ndarray
    u: np.ndarray
    p: float
    iterations: int
    trace: np.ndarray
    residual: float
    residual_scale: float
    method: str
    pi_hat: Optional[np.ndarray] = None
    certificate: Optional[MCertificate] = None

    @property
    def R(self):
        return 1.0 / (1.0 - self.p)

    def value(self, x, state=None):
        """Candidate value x^(1-R)/(1-R) * f at one state or all states."""
        R = self.R
        factor = self.f if state is None else self.f[int(state)]
        return x ** (1.0 - R) / (1.0 - R) * factor


@dataclass
class QuickChecks:
    """Cheap sign-based screens; conclusive flags agree with the verdict.

    All eta positive implies well-posed; all eta nonpositive implies
    ill-posed; eta_i <= -(off-diagonal row sum)/R at some state makes the
    diagonal of A nonpositive there, which also implies ill-posed
    (``dominance_failure_index`` is the first such state).
    """

    all_eta_positive: bool
    all_eta_nonpositive: bool
    dominance_failure_index: Optional[int]


@dataclass
class WellPosednessReport:
    verdict: bool
    certificate: MCertificate
    quick_checks: QuickChecks
    eta: np.ndarray

    def to_dict(self):
        cert = {
            "verdict": self.certificate.verdict,
            "method": self.certificate.method,
            "failure_index": self.certificate.failure_index,
            "note": self.certificate.note,
        }
        if self.certificate.ratios is not None:
            cert["ratios"] = np.asarray(self.certificate.ratios).tolist()
        return {
            "verdict": self.verdict,
            "certificate": cert,
            "quick_checks": {
                "all_eta_positive": self.quick_checks.all_eta_positive,
                "all_eta_nonpositive": self.quick_checks.all_eta_nonpositive,
                "dominance_failure_index": self.quick_checks.dominance_failure_index,
            },
            "eta": np.asarray(self.eta).tolist(),
        }


def assemble_A(model):
    """Dense HJB matrix diag(eta) - Q / R for a regime model."""
    if not isinstance(model, RegimeModel):
        raise TypeError("assemble_A expects a RegimeModel")
    return np.diag(model.eta()) - model.Q / model.R


def check_wellposed(model, method="minor_ratios"):
    """Well-posedness verdict with an M-matrix certificate and quick screens."""
    if not isinstance(model, RegimeModel):
        raise TypeError(
            "check_wellposed applies to regime models; discretize a diffusion model "
            "with assemble_discrete_hjb and certify the resulting matrix instead"
        )
    eta = model.eta()
    off_row_sums = model.Q.sum(axis=1) - np.diag(model.Q)
    dominated = eta + off_row_sums / model.R
    failure = np.flatnonzero(dominated <= 0.0)
    quick = QuickChecks(
        all_eta_positive=bool(np.all(eta > 0.0)),
        all_eta_nonpositive=bool(np.all(eta <= 0.0)),
        dominance_failure_index=int(failure[0]) if failure.size else None,
    )
    certificate = check_nonsingular_m_matrix(assemble_A(model), method=method)
    return WellPosednessReport(
        verdict=certificate.verdict, certificate=certificate, quick_checks=quick, eta=eta
    )


class _Ops(NamedTuple):
    """What the iteration needs of A; ``solve`` reuses one factorization."""

    n: int
    matvec: Callable
    solve: Callable
    jacobian_solve: Callable  # (d, rhs) -> (A - diag(d))^-1 rhs
    norm_inf: Callable  # () -> ||A||_inf


def _linear_solver(A):
    """:class:`_Ops` of a dense or tridiagonal A."""
    if isinstance(A, TridiagonalOperator):
        def jacobian_solve(d, rhs):
            return TridiagonalOperator(A.sub, A.main - d, A.sup).solve(rhs)

        return _Ops(A.n, A.matvec, A.factorized(), jacobian_solve, A.norm_inf)
    dense = np.asarray(A, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {dense.shape}")
    lu, piv = scipy.linalg.lu_factor(dense, check_finite=False)
    if np.any(np.diag(lu) == 0.0):
        raise SingularMatrixError("singular matrix in HJB solve")

    def jacobian_solve(d, rhs):
        try:
            return np.linalg.solve(dense - np.diag(d), rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"singular Newton system: {exc}") from exc

    return _Ops(
        dense.shape[0],
        dense.dot,
        lambda rhs: scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False),
        jacobian_solve,
        lambda: float(np.linalg.norm(dense, np.inf)),
    )


def _hjb_solution(matvec, x, p, iterations, trace, method):
    """HjbSolution of x with the recomputed residual ||A x - x^p||_inf and scale ||x^p||_inf."""
    rhs = x**p
    return HjbSolution(
        f=x,
        u=x ** (p - 1.0),
        p=p,
        iterations=iterations,
        trace=np.array(trace),
        residual=float(np.max(np.abs(matvec(x) - rhs))),
        residual_scale=float(np.max(np.abs(rhs))),
        method=method,
    )


def _fixed_point_box(c_min, c_max, p):
    """Invariant box [m, M] for T x = A^-1 x^p from c = extrema of A^-1 1."""
    if p >= 0.0:
        e = 1.0 / (1.0 - p)
        return c_min**e, c_max**e
    e = 1.0 / (1.0 - p * p)
    return (c_min * c_max**p) ** e, (c_min**p * c_max) ** e


def _iteration_cap(m_box, M_box, p, tol):
    """Worst-case iteration count for accuracy tol*(1-|p|) in the log-sup metric."""
    ap = abs(p)
    if ap == 0.0:
        return 1
    spread = M_box * M_box / m_box - M_box
    if not spread > 0.0:
        return 1
    eps = tol * (1.0 - ap)
    bound = (math.log(eps) - math.log(spread)) / math.log(ap)
    return max(1, math.ceil(bound))


def _iterate(A, p, method, plan):
    """Solve A x = x^p by x <- step(x); the one loop behind both solvers.

    ``plan(ops, w)`` gets the :class:`_Ops` of A and w = A^-1 1 (checked
    positive) and returns (start, iteration cap, step tolerance, step),
    where step(x) returns (x_next, at_floor).  The loop stops when the
    log-sup step ||log x_next - log x||_inf is at most the step tolerance,
    or when the step reports its residual at the rounding floor and the
    log-sup steps have stopped shrinking.  An iterate outside the positive
    cone raises :class:`NotMMatrixError`.
    """
    ops = _linear_solver(A)
    w = ops.solve(np.ones(ops.n))
    if not np.all(w > 0.0):
        raise NotMMatrixError("A^-1 1 has nonpositive entries; A is not an M-matrix")
    x, cap, step_tol, step = plan(ops, w)
    trace = []
    log_x = np.log(x)
    for _ in range(cap):
        x_next, at_floor = step(x)
        if not np.all(x_next > 0.0):
            raise NotMMatrixError("iteration left the positive cone; A is not an M-matrix")
        log_next = np.log(x_next)
        trace.append(float(np.max(np.abs(log_next - log_x))))
        x, log_x = x_next, log_next
        if trace[-1] <= step_tol or (at_floor and len(trace) > 1 and trace[-1] >= trace[-2]):
            return _hjb_solution(ops.matvec, x, p, len(trace), trace, method)
    raise ConvergenceError(f"{method} not converged after {cap} iterations", last_iterate=x)


def solve_hjb_fixed_point(A, p, tol=1e-10):
    """Solve A x = x^p by the contraction T x = A^-1 x^p, p in (-1, 1).

    Starts from the lower corner of the invariant box (from A^-1 1 itself
    when p = 0, which is then the solution) and stops when the log-sup step
    is at most tol * (1 - |p|), which leaves the iterate within tol of the
    fixed point in that metric.  For p outside (-1, 1) raises ValueError
    advising :func:`solve_hjb_newton`.
    """
    if not -1.0 < p < 1.0:
        raise ValueError(
            f"p = {p} outside (-1, 1): the iteration does not contract; use solve_hjb_newton"
        )

    def plan(ops, w):
        m_box, M_box = _fixed_point_box(float(w.min()), float(w.max()), p)
        start = w if p == 0.0 else np.full(ops.n, m_box)
        cap = _iteration_cap(m_box, M_box, p, tol) + 32
        return start, cap, tol * (1.0 - abs(p)), lambda x: (ops.solve(x**p), False)

    return _iterate(A, p, "fixed_point", plan)


def solve_hjb_newton(A, p, tol=1e-10):
    """Newton's method for A x = x^p, any p < 1 (covers R <= 1/2).

    For p <= 0 the map F(x) = A x - x^p is componentwise concave and the
    Jacobian A - diag(p x^(p-1)) adds a positive diagonal to A, hence stays
    a nonsingular M-matrix on the positive cone.  Started from a point with
    F(x0) <= 0, the Newton sequence is then monotonically increasing and
    converges to the minimal positive root; the start m * 1 with m = min
    over rows i with (A 1)_i > 0 of (A 1)_i^(-1/(1-p)) satisfies
    F(m 1) <= 0 by construction.

    For p in (0, 1), F is componentwise convex instead, and the safe side
    flips: starting from the upper corner M * 1 of the contraction's
    invariant box, F(x0) >= 0 holds, every iterate stays a supersolution
    above the root, and there the Jacobian keeps the root as a positive
    image (J(x) x* >= (1 - p) x*^p > 0), so it remains a nonsingular
    M-matrix and the sequence decreases monotonically to the root.  A
    lower start is unsafe in this regime: x^(p-1) blows up near 0 and
    Newton can stall at a spurious small-component point.

    Newton stops when its log-sup step is at most tol, or when the residual
    ||A x - x^p||_inf is within tol * ||x^p||_inf + eps * ||A||_inf *
    ||x||_inf (the rounding floor, which grows like h^-2 for a discretized
    diffusion) and the steps have stopped shrinking.  An iterate leaving
    the positive cone raises :class:`NotMMatrixError`; no convergence
    within 100 steps raises :class:`ConvergenceError` with the last iterate
    attached.
    """
    if not p < 1.0:
        raise ValueError(f"p = {p} must be < 1")

    def plan(ops, w):
        if p > 0.0:
            m = _fixed_point_box(float(w.min()), float(w.max()), p)[1]
        else:
            image = ops.matvec(np.ones(ops.n))
            positive = image[image > 0.0]
            m = float(np.min(positive ** (-1.0 / (1.0 - p)))) if positive.size else 1.0
        rounding = np.finfo(float).eps * ops.norm_inf()

        def step(x):
            rhs = x**p
            fx = ops.matvec(x) - rhs
            at_floor = np.max(np.abs(fx)) <= tol * np.max(rhs) + rounding * np.max(x)
            return x - ops.jacobian_solve(p * rhs / x, fx), at_floor

        return np.full(ops.n, m), 100, tol, step

    return _iterate(A, p, "newton", plan)


def solve_matrix_hjb(A, R, tol=1e-10):
    """Certify A, then dispatch on R: contraction for R > 1/2, Newton otherwise.

    Raises :class:`IllPosedError` carrying the failed certificate when A is
    not a nonsingular M-matrix.  Neither method asks for a residual below
    the rounding floor eps * ||A||_inf * ||x||_inf, which for a discretized
    diffusion grows like h^-2 (see :func:`solve_hjb_newton`).
    """
    certificate = check_nonsingular_m_matrix(A)
    if not certificate.verdict:
        raise IllPosedError(
            "matrix HJB is ill-posed: A is not a nonsingular M-matrix",
            report=certificate,
        )
    p = 1.0 - 1.0 / R
    if -1.0 < p < 1.0:
        solution = solve_hjb_fixed_point(A, p, tol=tol)
    else:
        solution = solve_hjb_newton(A, p, tol=tol)
    solution.certificate = certificate
    return solution


def cyclic_wellposed(eta, q, R):
    """Well-posedness of the single-cycle chain (state i jumps to i+1 at rate q_i).

    Requires eta_i > -q_i / R for every i (otherwise ill-posed); then the
    verdict is sum_i log1p(R eta_i / q_i) > 0, the log form of the product
    criterion prod_i (1 + (R/q_i) eta_i) > 1.
    """
    eta = np.asarray(eta, dtype=float)
    q = np.asarray(q, dtype=float)
    if eta.shape != q.shape or eta.ndim != 1:
        raise ValueError("eta and q must be 1-d arrays of equal length")
    if np.any(q <= 0.0):
        raise ValueError("cycle rates q must be positive")
    if R <= 0.0:
        raise ValueError("R must be positive")
    if np.any(eta <= -q / R):
        return False
    return bool(np.sum(np.log1p(R * eta / q)) > 0.0)


def nearest_neighbour_wellposed(eta, q_minus, q_plus, R):
    """Well-posedness of a birth-death chain via the minor-ratio certificate.

    ``q_minus[i]``/``q_plus[i]`` are the down/up jump rates of state i, with
    the boundary convention q_minus[0] = 0 and q_plus[-1] = 0.  Returns
    (verdict, ratios); the ratios are the leading-minor ratios of
    diag(eta) - Q/R and the verdict is their positivity.  On failure the
    ratio sequence is truncated at the first nonpositive entry.
    """
    eta = np.asarray(eta, dtype=float)
    q_minus = np.asarray(q_minus, dtype=float)
    q_plus = np.asarray(q_plus, dtype=float)
    n = eta.shape[0]
    if q_minus.shape != (n,) or q_plus.shape != (n,):
        raise ValueError("eta, q_minus, q_plus must have equal length")
    if q_minus[0] != 0.0 or q_plus[-1] != 0.0:
        raise ValueError("boundary convention requires q_minus[0] = 0 and q_plus[-1] = 0")
    if np.any(q_minus < 0.0) or np.any(q_plus < 0.0):
        raise ValueError("jump rates must be nonnegative")
    if R <= 0.0:
        raise ValueError("R must be positive")

    A = TridiagonalOperator(-q_minus[1:] / R, eta + (q_minus + q_plus) / R, -q_plus[:-1] / R)
    certificate = check_nonsingular_m_matrix(A)
    return certificate.verdict, certificate.ratios


def value_and_policies(model, f):
    """Attach optimal policies to a positive factor vector f.

    Returns an :class:`HjbSolution` with u = f^(-1/R), pi = lambda/(R sigma)
    and the recomputed equation residual.
    """
    if not isinstance(model, RegimeModel):
        raise TypeError("value_and_policies expects a RegimeModel")
    f = np.asarray(f, dtype=float)
    if f.shape != (model.n_states,) or not np.all(f > 0.0):
        raise ValueError("f must be a strictly positive vector, one entry per state")
    solution = _hjb_solution(assemble_A(model).dot, f, 1.0 - 1.0 / model.R, 0, [], "direct")
    solution.pi_hat = model.lam / (model.R * model.sigma)
    return solution


def solve_regime(model, tol=1e-10):
    """Certify well-posedness, solve the matrix HJB, attach policies.

    Raises :class:`IllPosedError` carrying the full :func:`check_wellposed`
    report when certification fails, per the refuse-then-report contract;
    that report is built only on refusal.
    """
    try:
        solution = solve_matrix_hjb(assemble_A(model), model.R, tol=tol)
    except IllPosedError:
        raise IllPosedError("regime problem is ill-posed", report=check_wellposed(model)) from None
    solution.pi_hat = model.lam / (model.R * model.sigma)
    return solution
