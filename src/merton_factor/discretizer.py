"""Finite-difference generators for the factor diffusion on a truncated interval.

The interval [e-, e+] strictly inside the state space is split into N steps
of width h = (e+ - e-)/N with nodes y_i = e- + i h, i = 0..N.  The generator
of the diffusion with reflection at both ends is approximated by a
tridiagonal rate matrix Q_h with nonnegative off-diagonal entries and zero
row sums, so diag(eta) - Q_h / R is automatically a Z-matrix.  Both schemes
build it from the drift a and diffusion b at the nodes:

    Q_{i,i-1} = b^2/(2h^2) + d-_i,   Q_{i,i+1} = b^2/(2h^2) + d+_i,
    Q_{i,i}   = -(sum of the off-diagonal entries of row i),

where the wall rows 0 and N keep only their inward rate.  They differ in
the drift split (d-, d+):

    upwind (first order, unconditionally monotone):  (a-/h, a+/h) at every
        node, a+ = max(a, 0), a- = max(-a, 0);
    central (second order):  (-a/(2h), a/(2h)) at interior nodes; monotone
        only when h < h* = inf b^2 / sup |a| over the grid, which is enforced.
        The wall rows use the mirror (ghost node) form Q_{0,1} = Q_{N,N-1} =
        b^2/h^2, i.e. a drift share of b^2/(2h^2): the drift term cancels by
        ghost symmetry, which keeps the boundary consistent to the same
        order as the interior (the upwind wall rows would cap the observed
        global convergence at first order).
"""

import numpy as np

from .errors import DiscretizationError
from .linalg import TridiagonalOperator
from .model import DiffusionModel, _ZeroCorrelationModel

__all__ = ["assemble_discrete_hjb"]


def _grid_and_coefficients(model, e_minus, e_plus, n_steps):
    if not isinstance(model, (DiffusionModel, _ZeroCorrelationModel)):
        raise DiscretizationError("assemble_discrete_hjb expects a DiffusionModel")
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


def _stencil(a, b, h, scheme):
    """Bands (sub, main, sup) of Q_h from a and b at the nodes (module docstring).

    A central wall rate b^2/(2h^2) + b^2/(2h^2) is b^2/h^2 bitwise: halving
    commutes with rounding.
    """
    half = b**2 / (2.0 * h * h)
    if scheme == "upwind":
        down = np.maximum(-a, 0.0) / h
        up = np.maximum(a, 0.0) / h
    else:
        # h* = inf b^2 / sup |a| over the nodes; inf when the drift vanishes.
        sup_a = float(np.max(np.abs(a)))
        h_star = np.inf if sup_a == 0.0 else float(np.min(b**2)) / sup_a
        if h >= h_star:
            raise DiscretizationError(
                f"central scheme needs h < h* = {h_star:.6g} for monotonicity, got h = {h:.6g};"
                " refine the grid or use the upwind scheme"
            )
        up = a / (2.0 * h)
        down = -up
        up[0], down[-1] = half[0], half[-1]
    # lower[i] = Q_{i,i-1} and upper[i] = Q_{i,i+1}, zero where the row has none.
    lower = np.add(down, half, out=down)
    upper = np.add(up, half, out=up)
    lower[0] = upper[-1] = 0.0
    main = -(lower + upper)
    return lower[1:], main, upper[:-1]


def assemble_discrete_hjb(model, e_minus, e_plus, n_steps, scheme="upwind"):
    """Discrete HJB operator A_h = diag(eta) - Q_h / R and its grid.

    Coefficients are evaluated at the nodes, never averaged.  With constant
    eta the rows sum to exactly eta by construction.
    """
    if scheme not in ("upwind", "central"):
        raise DiscretizationError(f"unknown scheme {scheme!r}; expected 'upwind' or 'central'")
    grid, h, a, b = _grid_and_coefficients(model, e_minus, e_plus, n_steps)
    sub, main, sup = _stencil(a, b, h, scheme)
    del a, b
    R = model.R
    # In place, on bands no one else holds: -x / R is x / -R bitwise.
    main /= R
    np.subtract(model.eta(grid), main, out=main)
    return TridiagonalOperator(np.divide(sub, -R, out=sub), main, np.divide(sup, -R, out=sup)), grid
