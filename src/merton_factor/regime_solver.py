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
that fixed point stays as a second route: Newton's step without its
Jacobian shift, run in the same loop from the same start (from the witness
A^-1 1 of A's certificate) to the same stop rules but Newton's quadratic one.
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
]


@dataclass
class HjbSolution:
    """Positive HJB solution with policies and iteration diagnostics.

    ``f`` is the value-function factor, ``u = f^(-1/R)`` the optimal
    consumption rate, ``pi_hat`` the risky weight (None until policies are
    attached), ``trace`` the per-iteration log-sup step sizes, ``stop`` the
    rule that ended them (``quadratic``, ``step`` or ``floor``), ``residual``
    the recomputed ||A f - f^p||_inf with scale ``residual_scale`` =
    ||f^p||_inf, and ``tolerance`` the tolerance it was solved with.
    """

    f: np.ndarray
    u: np.ndarray
    p: float
    iterations: int
    trace: np.ndarray
    residual: float
    residual_scale: float
    method: str
    stop: str
    tolerance: float
    pi_hat: Optional[np.ndarray] = None

    @property
    def R(self):
        return 1.0 / (1.0 - self.p)

    @property
    def metadata(self):
        """The solve's JSON record, the one that every CSV ``# solve:`` line
        and CLI ``solve`` document carries."""
        return {
            "tolerance": self.tolerance,
            "p": self.p,
            "method": self.method,
            "stop": self.stop,
            "iterations": self.iterations,
            "trace": self.trace.tolist(),
            "residual": self.residual,
            "residual_scale": self.residual_scale,
        }

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
        """JSON record; an eta of more than 64 entries as its {min, max, n}."""
        eta = np.asarray(self.eta).tolist()
        if np.size(self.eta) > 64:
            eta = {"min": min(eta), "max": max(eta), "n": len(eta)}
        return {
            "verdict": self.verdict,
            "certificate": self.certificate.to_dict(),
            "quick_checks": asdict(self.quick_checks),
            "eta": eta,
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
    image = matvec(x)
    image -= rhs
    return float(max(image.max(), -image.min())), float(rhs.max())


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


def _step(op, solve, x, p, shift, tol, rounding):
    """(x - (A - diag(d))^-1 (A x - x^p), whether ||A x - x^p|| <= tol ||x^p|| +
    rounding ||x||) with d = shift x^(p-1): Newton's step at shift = p, T x at
    shift = 0, solved by ``solve``, the loop's ``op.shifted_solver()``.  A
    function of its own, so no temporary outlives the step."""
    rhs = x**p
    fx = op.matvec(x)
    fx -= rhs
    at_floor = max(fx.max(), -fx.min()) <= tol * rhs.max() + rounding * x.max()
    rhs *= shift / x  # now the diagonal shift d
    sol = solve(rhs, fx)
    return np.subtract(x, sol, out=sol), at_floor


def _iterate(A, p, method, tol, check_power=None):
    """Certify A, then solve A x = x^p by :func:`_step`; the one loop behind both solvers.

    A that is not a nonsingular M-matrix raises :class:`IllPosedError`
    carrying its certificate; of the certificate only the witness
    w = A^-1 1 is kept, for the start :func:`_newton_start` that both
    methods share.  ``newton`` steps with the Jacobian shift p x^(p-1),
    at most 100 times, to step tolerance ``tol``; ``fixed_point`` steps
    with no shift, up to the contraction's worst-case count from its
    invariant box, to step tolerance tol * (1 - |p|).  With log-sup steps
    s_k, the first rule met stops the loop and is named in the result:
    ``quadratic`` (Newton only) when s_k < s_(k-1) and the next step
    quadratic convergence predicts, s_k^3 / s_(k-1)^2, is at most the step
    tolerance (Kelley, *Iterative Methods for Linear and Nonlinear
    Equations*, 1995, ch. 5); ``step`` when s_k is; ``floor`` when the
    residual before the step was at the rounding floor and s_k >= s_(k-1).
    The result records ``tol``, the solver's own tolerance, and the
    residual of x, or of u^check_power with u = x^(p-1) when
    ``check_power`` is given.  An iterate outside the positive cone raises
    :class:`NotMMatrixError`, and a tol that is not positive and finite
    ``ValueError``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"need a positive finite tolerance, got tol = {tol}")
    op = as_operator(A)
    w = _certified_witness(op)
    if method == "newton":
        shift, cap, step_tol = p, 100, tol
    else:
        m_box, M_box = _fixed_point_box(float(w.min()), float(w.max()), p)
        shift, cap, step_tol = 0.0, _iteration_cap(m_box, M_box, p, tol) + 32, tol * (1.0 - abs(p))
    x = _newton_start(op, w, p)
    del w  # x's buffer from here on
    rounding = np.finfo(float).eps * op.norm_inf()
    trace = []
    log_x = np.log(x)
    solve = op.shifted_solver()
    for _ in range(cap):
        x, at_floor = _step(op, solve, x, p, shift, tol, rounding)
        if not x.min() > 0.0:
            raise NotMMatrixError("iteration left the positive cone; A is not an M-matrix")
        log_next = np.log(x)
        log_x -= log_next
        trace.append(float(max(log_x.max(), -log_x.min())))
        log_x = log_next
        s, last = trace[-1], trace[-2] if len(trace) > 1 else math.nan  # NaN fails every test
        quadratic = method == "newton" and s < last and s**3 <= step_tol * last**2
        if quadratic or s <= step_tol or (at_floor and s >= last):
            del log_x, log_next, solve
            stop = "quadratic" if quadratic else "step" if s <= step_tol else "floor"
            u = x ** (p - 1.0)
            check = x if check_power is None else u**check_power
            residual, scale = _hjb_residual(op.matvec, check, p)
            trace = np.array(trace)
            return HjbSolution(x, u, p, trace.size, trace, residual, scale, method, stop, float(tol))
    raise ConvergenceError(f"{method} not converged after {cap} iterations", last_iterate=x)


def solve_hjb_fixed_point(A, p, tol=1e-10):
    """Solve A x = x^p by the contraction T x = A^-1 x^p, p in (-1, 1).

    Steps x - A^-1 (A x - x^p) from Newton's start, which lies in the
    invariant box (and is A^-1 1, the solution, when p = 0), until the
    log-sup step is at most tol * (1 - |p|), leaving the iterate within tol
    of the fixed point in that metric, or Newton's rounding-floor rule
    holds.  For p outside (-1, 1) raises ValueError advising
    :func:`solve_hjb_newton`; for A that is not a nonsingular M-matrix,
    :class:`IllPosedError` carrying the certificate.
    """
    if not -1.0 < p < 1.0:
        raise ValueError(
            f"p = {p} outside (-1, 1): the iteration does not contract; use solve_hjb_newton"
        )
    return _iterate(A, p, "fixed_point", tol)


def _newton_start(op, w, p):
    """Both methods' start for A x = x^p from the witness w = A^-1 1, on
    Newton's safe side of the root (see :func:`solve_hjb_newton`), formed in
    w's buffer."""
    x0 = w
    x0 *= float(w.max()) ** (p / (1.0 - p))
    if p <= 0.0:
        image = op.matvec(np.ones(op.n))
        positive = image[image > 0.0]
        m = float(np.min(positive ** (-1.0 / (1.0 - p)))) if positive.size else 1.0
        np.maximum(x0, m, out=x0)
    return x0


def solve_hjb_newton(A, p, tol=1e-10, *, _check_power=None):
    """Newton's method for A x = x^p, any p < 1: the route of every solve.

    It starts from the certificate's witness w = A^-1 1 scaled by
    lambda = (max w)^(p/(1-p)).  As A w = 1, F(x) = A x - x^p has
    F(lambda w) = lambda 1 - lambda^p w^p: >= 0 for p in (0, 1) and <= 0
    for p < 0, the sides from which Newton converges monotonically.

    For p <= 0, F is componentwise concave and the Jacobian
    A - diag(p x^(p-1)) stays a nonsingular M-matrix on the positive cone,
    so the iterates increase monotonically to the root.  The start is
    max(lambda w, m 1), where m = min over rows i with (A 1)_i > 0 of
    (A 1)_i^(-1/(1-p)) gives F(m 1) <= 0: the maximum of two subsolutions
    of a Z-matrix system is one, and m lifts the rows where lambda w alone
    sits far below the root (small w_i, large |p|).

    For p in (0, 1), F is componentwise convex.  Every iterate from the
    supersolution lambda w (at most the invariant box's corner
    (max w)^(1/(1-p))) stays a supersolution above the root, where
    J(x) x* >= (1 - p) x*^p > 0 keeps the Jacobian a nonsingular M-matrix,
    so the iterates decrease monotonically.  A lower start is unsafe here:
    x^(p-1) blows up near 0 and Newton can stall at a spurious
    small-component point.

    Newton stops once the log-sup step that quadratic convergence predicts
    next is at most tol, in the same number of steps at every grid size;
    a step at most tol, or a residual within tol * ||x^p||_inf + eps *
    ||A||_inf * ||x||_inf (the floor, growing like h^-2 for a discretized
    diffusion) once steps stop shrinking, are backstops.  A that is not a
    nonsingular M-matrix raises :class:`IllPosedError` carrying the
    certificate; an iterate leaving the positive cone raises
    :class:`NotMMatrixError`; no convergence within 100 steps raises
    :class:`ConvergenceError` with the last iterate attached.
    ``_check_power`` is :func:`_iterate`'s ``check_power``.
    """
    if not -math.inf < p < 1.0:
        raise ValueError(f"p = {p} must be a finite number below 1")
    return _iterate(A, p, "newton", tol, _check_power)


def solve_matrix_hjb(A, R, tol=1e-10, *, _check_power=None):
    """Solve A x = x^(1 - 1/R) by :func:`solve_hjb_newton`, for every R.

    Its step count grows neither with the grid size nor as |p| -> 1, where
    the contraction's does (217 steps at R = 10).  A that is not a
    nonsingular M-matrix raises :class:`IllPosedError` carrying the failed
    certificate, an R that is not positive and finite, or so small that
    1/R overflows, ``ValueError``.  ``_check_power`` is :func:`_iterate`'s
    ``check_power``.
    """
    if not 0.0 < R < math.inf:
        raise ValueError(f"R = {R} must be positive and finite")
    if 1.0 / float(R) == math.inf:
        raise ValueError(f"R = {R} is too small: 1/R overflows, so p = 1 - 1/R is not finite")
    return solve_hjb_newton(A, 1.0 - 1.0 / R, tol=tol, _check_power=_check_power)


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
    if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(q)) and math.isfinite(R)):
        raise ValueError("eta, q and R must be finite")
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
    if n == 0:
        raise ValueError("need at least one state")
    if q_minus.shape != (n,) or q_plus.shape != (n,):
        raise ValueError("eta, q_minus, q_plus must have equal length")
    if q_minus[0] != 0.0 or q_plus[-1] != 0.0:
        raise ValueError("boundary convention requires q_minus[0] = 0 and q_plus[-1] = 0")
    if np.any(q_minus < 0.0) or np.any(q_plus < 0.0):
        raise ValueError("jump rates must be nonnegative")
    if not 0.0 < R < math.inf:
        raise ValueError(f"R = {R} must be positive and finite")

    A = TridiagonalOperator(-q_minus[1:] / R, eta + (q_minus + q_plus) / R, -q_plus[:-1] / R)
    certificate = check_nonsingular_m_matrix(A)
    return certificate.verdict, certificate.ratios


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
