"""Matrix HJB solver for finite-regime models.

Writing eta for the per-state frozen consumption rates and Q for the chain
generator, the candidate value function is V(x, i) = x^(1-R)/(1-R) * f_i
where f > 0 solves the matrix HJB equation

    A f = f^(1 - 1/R),      A = diag(eta) - Q / R

(the power acts entrywise).  The problem is well-posed exactly when A is a
nonsingular M-matrix; then the equation has a unique positive solution, the
optimal consumption fraction is xi = f^(-1/R) and the risky weight is
pi = lambda / (R sigma) per state.

Every R is solved by Newton's method (p = 1 - 1/R < 1) from a start on the
side where it converges monotonically.  For R > 1/2, T x = A^-1 x^p also
contracts the log-sup metric d(x, y) = ||log x - log y||_inf at rate |p|;
that fixed point stays as a second route.  Both run in one driver that
certifies A once, keeps only the certificate's witness A^-1 1 to choose the
start, and shares the positive-cone check, the stop rules and the result.
"""

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, IllPosedError, NotMMatrixError
from .linalg import MCertificate, TridiagonalOperator, as_operator, check_nonsingular_m_matrix
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
    attached), ``trace`` the per-iteration log-sup step sizes, ``stop`` the
    rule that ended them (``quadratic``, ``step`` or ``floor``; None when
    nothing was iterated), ``residual`` the recomputed ||A f - f^p||_inf
    with scale ``residual_scale`` = ||f^p||_inf.
    """

    f: np.ndarray
    u: np.ndarray
    p: float
    iterations: int
    trace: np.ndarray
    residual: float
    residual_scale: float
    method: str
    stop: Optional[str] = None
    pi_hat: Optional[np.ndarray] = None

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
    ill-posed; a nonpositive diagonal entry of A (for a regime model,
    eta_i <= -(off-diagonal row sum of Q)/R) also implies ill-posed
    (``dominance_failure_index`` is the first such index).
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

    @classmethod
    def from_certificate(cls, diagonal, eta, certificate):
        """Report of ``certificate`` with the sign screens of eta and of A's diagonal."""
        nonpositive = np.flatnonzero(diagonal <= 0.0)
        quick = QuickChecks(
            all_eta_positive=bool(np.all(eta > 0.0)),
            all_eta_nonpositive=bool(np.all(eta <= 0.0)),
            dominance_failure_index=int(nonpositive[0]) if nonpositive.size else None,
        )
        return cls(certificate.verdict, certificate, quick, eta)

    def to_dict(self):
        cert = {
            "verdict": self.certificate.verdict,
            "failure_index": self.certificate.failure_index,
            "note": self.certificate.note,
        }
        if self.certificate.ratios is not None:
            cert["ratios"] = np.asarray(self.certificate.ratios).tolist()
        return {
            "verdict": self.verdict,
            "certificate": cert,
            "quick_checks": asdict(self.quick_checks),
            "eta": np.asarray(self.eta).tolist(),
        }


def assemble_A(model):
    """Dense HJB matrix diag(eta) - Q / R for a regime model."""
    if not isinstance(model, RegimeModel):
        raise TypeError("assemble_A expects a RegimeModel")
    return np.diag(model.eta()) - model.Q / model.R


def check_wellposed(model):
    """Well-posedness verdict with an M-matrix certificate and quick screens."""
    if not isinstance(model, RegimeModel):
        raise TypeError(
            "check_wellposed applies to regime models; discretize a diffusion model "
            "with assemble_discrete_hjb and certify the resulting matrix instead"
        )
    A = assemble_A(model)
    certificate = check_nonsingular_m_matrix(A)
    return WellPosednessReport.from_certificate(np.diag(A), model.eta(), certificate)


def _hjb_residual(matvec, x, p):
    """(||A x - x^p||_inf, ||x^p||_inf) of an x > 0: the residual every
    solution logs and every CSV reader recomputes, so the two agree bitwise."""
    rhs = x**p
    return float(np.max(np.abs(matvec(x) - rhs))), float(np.max(rhs))


def _hjb_solution(matvec, x, p, trace, method, stop=None):
    """HjbSolution of x with its residual and scale from :func:`_hjb_residual`."""
    residual, scale = _hjb_residual(matvec, x, p)
    return HjbSolution(
        x, x ** (p - 1.0), p, len(trace), np.array(trace), residual, scale, method, stop
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
    spread = M_box * M_box / m_box - M_box
    if ap == 0.0 or not spread > 0.0:
        return 1
    eps = tol * (1.0 - ap)
    bound = (math.log(eps) - math.log(spread)) / math.log(ap)
    return max(1, math.ceil(bound))


def _certified_witness(op):
    """w = A^-1 1 of a certified A; the rest of the certificate goes only into a refusal."""
    certificate = check_nonsingular_m_matrix(op)
    if not certificate.verdict:
        raise IllPosedError(
            "matrix HJB is ill-posed: A is not a nonsingular M-matrix", report=certificate
        )
    return certificate.witness[0]


def _iterate(A, p, method, plan):
    """Certify A, then solve A x = x^p by x <- step(x); the one loop behind both solvers.

    A that is not a nonsingular M-matrix raises :class:`IllPosedError`
    carrying its certificate.  ``plan(op, w)`` gets A behind the operator
    surface of :func:`as_operator` and the certificate's witness
    w = A^-1 1, and returns (start, iteration cap, step tolerance, step),
    where step(x) returns (x_next, at_floor).  No factor of A outlives the
    certificate and no part of it but w reaches the plan, so a plan that
    solves with A makes its own ``op.factorized()``.  With
    log-sup steps s_k, the first rule met stops the loop and is named in
    the result: ``quadratic`` (Newton only) when s_k < s_(k-1) and the next
    step quadratic convergence predicts, s_k^3 / s_(k-1)^2, is at most the
    step tolerance (Kelley, *Iterative Methods for Linear and Nonlinear
    Equations*, 1995, ch. 5); ``step`` when s_k is; ``floor`` when the step
    reports its residual at the rounding floor and s_k >= s_(k-1).  An
    iterate outside the positive cone raises :class:`NotMMatrixError`.
    """
    op = as_operator(A)
    x, cap, step_tol, step = plan(op, _certified_witness(op))
    trace = []
    log_x = np.log(x)
    for _ in range(cap):
        x_next, at_floor = step(x)
        if not np.all(x_next > 0.0):
            raise NotMMatrixError("iteration left the positive cone; A is not an M-matrix")
        log_next = np.log(x_next)
        trace.append(float(np.max(np.abs(log_next - log_x))))
        x, log_x = x_next, log_next
        s, last = trace[-1], trace[-2] if len(trace) > 1 else math.nan  # NaN fails every test
        quadratic = method == "newton" and s < last and s**3 <= step_tol * last**2
        if quadratic or s <= step_tol or (at_floor and s >= last):
            stop = "quadratic" if quadratic else "step" if s <= step_tol else "floor"
            return _hjb_solution(op.matvec, x, p, trace, method, stop)
    raise ConvergenceError(f"{method} not converged after {cap} iterations", last_iterate=x)


def solve_hjb_fixed_point(A, p, tol=1e-10):
    """Solve A x = x^p by the contraction T x = A^-1 x^p, p in (-1, 1).

    Starts from the lower corner of the invariant box (from A^-1 1 itself
    when p = 0, which is then the solution) and stops when the log-sup step
    is at most tol * (1 - |p|), which leaves the iterate within tol of the
    fixed point in that metric.  For p outside (-1, 1) raises ValueError
    advising :func:`solve_hjb_newton`; for A that is not a nonsingular
    M-matrix, :class:`IllPosedError` carrying the certificate.
    """
    if not -1.0 < p < 1.0:
        raise ValueError(
            f"p = {p} outside (-1, 1): the iteration does not contract; use solve_hjb_newton"
        )

    def plan(op, w):
        solve = op.factorized()
        m_box, M_box = _fixed_point_box(float(w.min()), float(w.max()), p)
        start = w if p == 0.0 else np.full(op.n, m_box)
        cap = _iteration_cap(m_box, M_box, p, tol) + 32
        return start, cap, tol * (1.0 - abs(p)), lambda x: (solve(x**p), False)

    return _iterate(A, p, "fixed_point", plan)


def solve_hjb_newton(A, p, tol=1e-10):
    """Newton's method for A x = x^p, any p < 1: the route of every solve.

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

    Newton stops once the log-sup step that quadratic convergence predicts
    next is at most tol, in the same number of steps at every grid size;
    a step at most tol, or a residual within tol * ||x^p||_inf + eps *
    ||A||_inf * ||x||_inf (the floor, growing like h^-2 for a discretized
    diffusion) once steps stop shrinking, are backstops.  A that is not a
    nonsingular M-matrix raises :class:`IllPosedError` carrying the
    certificate; an iterate leaving the positive cone raises
    :class:`NotMMatrixError`; no convergence within 100 steps raises
    :class:`ConvergenceError` with the last iterate attached.
    """
    if not p < 1.0:
        raise ValueError(f"p = {p} must be < 1")

    def plan(op, w):
        if p > 0.0:
            m = _fixed_point_box(float(w.min()), float(w.max()), p)[1]
        else:
            image = op.matvec(np.ones(op.n))
            positive = image[image > 0.0]
            m = float(np.min(positive ** (-1.0 / (1.0 - p)))) if positive.size else 1.0
        rounding = np.finfo(float).eps * op.norm_inf()

        def step(x):
            rhs = x**p
            fx = op.matvec(x) - rhs
            at_floor = np.max(np.abs(fx)) <= tol * np.max(rhs) + rounding * np.max(x)
            rhs *= p / x  # now the Jacobian's diagonal shift p x^(p-1)
            return x - op.solve_shifted(rhs, fx), at_floor

        return np.full(op.n, m), 100, tol, step

    return _iterate(A, p, "newton", plan)


def solve_matrix_hjb(A, R, tol=1e-10):
    """Solve A x = x^(1 - 1/R) by :func:`solve_hjb_newton`, for every R.

    Its step count grows neither with the grid size nor as |p| -> 1, where
    the contraction's does (239 steps at R = 10).  A that is not a
    nonsingular M-matrix raises :class:`IllPosedError` carrying the failed
    certificate.
    """
    return solve_hjb_newton(A, 1.0 - 1.0 / R, tol=tol)


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
    diag(eta) - Q/R and the verdict is that of
    :func:`check_nonsingular_m_matrix`.  On a failed ratio the sequence is
    truncated at the first nonpositive entry.
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
    solution = _hjb_solution(assemble_A(model).dot, f, 1.0 - 1.0 / model.R, [], "direct")
    solution.pi_hat = model.lam / (model.R * model.sigma)
    return solution


def solve_regime(model, tol=1e-10):
    """Certify well-posedness, solve the matrix HJB, attach policies.

    Raises :class:`IllPosedError` carrying a :class:`WellPosednessReport`
    of the failed certificate, per the refuse-then-report contract.
    """
    A = assemble_A(model)
    try:
        solution = solve_matrix_hjb(A, model.R, tol=tol)
    except IllPosedError as exc:
        report = WellPosednessReport.from_certificate(np.diag(A), model.eta(), exc.report)
        raise IllPosedError("regime problem is ill-posed", report=report) from None
    solution.pi_hat = model.lam / (model.R * model.sigma)
    return solution
