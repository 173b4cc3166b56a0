"""Finite-difference generators for the factor diffusion on a truncated interval.

The interval [e-, e+] strictly inside the state space is split into N steps
of width h = (e+ - e-)/N with nodes y_i = e- + i h, i = 0..N.  The generator
of the diffusion with reflection at both ends is approximated by a
tridiagonal rate matrix Q_h with nonnegative off-diagonal entries and zero
row sums, so diag(eta) - Q_h / R is automatically a Z-matrix.

Upwind scheme (first order, unconditionally monotone), a+ = max(a, 0),
a- = max(-a, 0):

    interior:  Q_{i,i-1} = b^2/(2h^2) + a^-/h
               Q_{i,i+1} = b^2/(2h^2) + a^+/h
               Q_{i,i}   = -(sum of the two)
    top row:   Q_{0,1}   = b^2/(2h^2) + a^+/h,  Q_{0,0} = -Q_{0,1}
    bottom:    Q_{N,N-1} = b^2/(2h^2) + a^-/h,  Q_{N,N} = -Q_{N,N-1}

Central scheme (second order): interior off-diagonals b^2/(2h^2) ± a/(2h);
monotone only when h < h* = inf b^2 / sup |a| over the grid, which is
enforced.  Its reflection rows use the mirror (ghost node) form

    top row:   Q_{0,1}   = b^2/h^2,  Q_{0,0} = -Q_{0,1}
    bottom:    Q_{N,N-1} = b^2/h^2,  Q_{N,N} = -Q_{N,N-1}

(the drift term cancels by ghost symmetry), which keeps the boundary
consistent to the same order as the interior; the upwind half-rate rows
would cap the observed global convergence at first order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DiscretizationError
from .linalg import TridiagonalOperator
from .model import DiffusionModel, _ZeroCorrelationModel

__all__ = [
    "DiscreteGenerator",
    "build_upwind_generator",
    "build_central_generator",
    "assemble_discrete_hjb",
    "monotone_step_limit",
]

_ROWSUM_ATOL = 1e-10


@dataclass
class DiscreteGenerator:
    """Reflected-diffusion generator on a uniform grid.

    ``Q_h`` has nonnegative off-diagonal bands and rows summing to zero
    (within 1e-10 per unit rate; exact by construction here).
    """

    grid: np.ndarray
    h: float
    Q_h: TridiagonalOperator
    scheme: str

    @property
    def n_steps(self):
        return self.grid.shape[0] - 1


def _grid_and_coefficients(model, e_minus, e_plus, n_steps):
    if not isinstance(model, (DiffusionModel, _ZeroCorrelationModel)):
        raise DiscretizationError("grid builders expect a DiffusionModel")
    if not np.isfinite(e_minus) or not np.isfinite(e_plus) or not e_minus < e_plus:
        raise DiscretizationError(f"need finite e_minus < e_plus, got [{e_minus}, {e_plus}]")
    lo, hi = model.interval
    if not (e_minus > lo and e_plus < hi):
        raise DiscretizationError(
            f"[{e_minus}, {e_plus}] must lie strictly inside the state interval ({lo}, {hi})"
        )
    n_steps = int(n_steps)
    if n_steps < 1:
        raise DiscretizationError(f"need at least 2 grid nodes, got {n_steps + 1}")
    grid = np.linspace(e_minus, e_plus, n_steps + 1)
    h = (e_plus - e_minus) / n_steps
    a = np.asarray(model.a(grid), dtype=float)
    b = np.asarray(model.b(grid), dtype=float)
    zero_b = np.flatnonzero(b[1:-1] == 0.0) + 1
    if zero_b.size:
        i = int(zero_b[0])
        raise DiscretizationError(
            f"factor volatility vanishes at interior node {i} (y = {grid[i]:.6g})"
        )
    return grid, h, a, b


def _boundary_rows(sub, sup, main, a, b, h):
    half = b**2 / (2.0 * h * h)
    sup[0] = half[0] + max(a[0], 0.0) / h
    main[0] = -sup[0]
    sub[-1] = half[-1] + max(-a[-1], 0.0) / h
    main[-1] = -sub[-1]


def _mirror_boundary_rows(sub, sup, main, b, h):
    sup[0] = b[0] ** 2 / (h * h)
    main[0] = -sup[0]
    sub[-1] = b[-1] ** 2 / (h * h)
    main[-1] = -sub[-1]


def build_upwind_generator(model, e_minus, e_plus, n_steps):
    """First-order monotone generator; valid for any step size."""
    grid, h, a, b = _grid_and_coefficients(model, e_minus, e_plus, n_steps)
    n = grid.shape[0]
    half = b**2 / (2.0 * h * h)
    a_plus = np.maximum(a, 0.0) / h
    a_minus = np.maximum(-a, 0.0) / h

    sub = np.empty(n - 1)
    sup = np.empty(n - 1)
    main = np.empty(n)
    # interior rows i = 1..n-2: sub[i-1] = Q_{i,i-1}, sup[i] = Q_{i,i+1}
    sub[:-1] = half[1:-1] + a_minus[1:-1]
    sup[1:] = half[1:-1] + a_plus[1:-1]
    main[1:-1] = -(sub[:-1] + sup[1:])
    _boundary_rows(sub, sup, main, a, b, h)
    return DiscreteGenerator(grid=grid, h=h, Q_h=TridiagonalOperator(sub, main, sup), scheme="upwind")


def monotone_step_limit(model, e_minus, e_plus, n_steps):
    """h* = inf b^2 / sup |a| over the grid nodes (inf when the drift vanishes)."""
    grid, _, a, b = _grid_and_coefficients(model, e_minus, e_plus, n_steps)
    sup_a = float(np.max(np.abs(a)))
    if sup_a == 0.0:
        return np.inf
    return float(np.min(b**2) / sup_a)


def build_central_generator(model, e_minus, e_plus, n_steps):
    """Second-order generator; refuses steps h >= h* that break monotonicity."""
    grid, h, a, b = _grid_and_coefficients(model, e_minus, e_plus, n_steps)
    n = grid.shape[0]
    sup_a = float(np.max(np.abs(a)))
    h_star = np.inf if sup_a == 0.0 else float(np.min(b**2)) / sup_a
    if h >= h_star:
        raise DiscretizationError(
            f"central scheme needs h < h* = {h_star:.6g} for monotonicity, got h = {h:.6g};"
            " refine the grid or use the upwind scheme"
        )
    half = b**2 / (2.0 * h * h)
    drift = a / (2.0 * h)

    sub = np.empty(n - 1)
    sup = np.empty(n - 1)
    main = np.empty(n)
    sub[:-1] = half[1:-1] - drift[1:-1]
    sup[1:] = half[1:-1] + drift[1:-1]
    main[1:-1] = -(sub[:-1] + sup[1:])
    _mirror_boundary_rows(sub, sup, main, b, h)
    return DiscreteGenerator(grid=grid, h=h, Q_h=TridiagonalOperator(sub, main, sup), scheme="central")


def assemble_discrete_hjb(model, e_minus, e_plus, n_steps, scheme="upwind"):
    """Discrete HJB operator A_h = diag(eta) - Q_h / R and its grid.

    Coefficients are evaluated at the nodes, never averaged.  With constant
    eta the rows sum to exactly eta by construction.
    """
    if scheme == "upwind":
        gen = build_upwind_generator(model, e_minus, e_plus, n_steps)
    elif scheme == "central":
        gen = build_central_generator(model, e_minus, e_plus, n_steps)
    else:
        raise DiscretizationError(f"unknown scheme {scheme!r}; expected 'upwind' or 'central'")
    eta = np.asarray(model.eta(gen.grid), dtype=float)
    R = model.R
    A_h = TridiagonalOperator(
        -gen.Q_h.sub / R, eta - gen.Q_h.main / R, -gen.Q_h.sup / R
    )
    return A_h, gen.grid
