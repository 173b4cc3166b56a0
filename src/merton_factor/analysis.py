"""Sub/supersolution machinery, HJB residuals, and tail diagnostics.

For a positive C^2 profile g the operator

    Psi g = 1 + ((1/2) b^2 g'' + a~ g') / g^2 - d (g')^2 / g^3

turns ordering information into proportional bounds: if g1 <= eta <= g2 and
C1 = inf Psi g1 > 0, C2 = sup Psi g2 < inf, then C1 g1 is a subsolution and
C2 g2 a supersolution of the consumption-rate HJB equation, sandwiching the
solution u.  For a solution itself, Psi u = 2 - eta / u identically.

The asymptotic report reads off tail behaviour of a computed solution:
u/eta at the outermost nodes, the log-derivative u'/u at a margin-offset
node (the reflecting boundary row distorts the one-sided difference in an
O(h)-wide layer, so the literal boundary value reflects the scheme, not the
solution), and window flags u <= eta and u <= eta * Psi(eta) over the right
tail.
"""

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ModelError
from .model import DiffusionModel

__all__ = [
    "BoundsCertificate",
    "AsymptoticReport",
    "psi",
    "psi_eta_profile",
    "vasicek_supersolution_profile",
    "proportional_bounds",
    "hjb_residual",
    "asymptotic_report",
]


@dataclass
class BoundsCertificate:
    """Proportional-bounds certificate on a grid.

    One-sided certificates are allowed (g1 or g2 may be absent; needed, for
    example, when eta changes sign so no positive lower profile exists).
    ``valid`` requires C1 > 0 (when g1 is given) and finite C2 (when g2 is
    given); the profile ordering g1 <= eta <= g2 is checked at construction.
    """

    grid: np.ndarray
    C1: Optional[float]
    C2: Optional[float]
    valid: bool
    g1_values: Optional[np.ndarray]
    g2_values: Optional[np.ndarray]
    derivative_note: str = ""

    def lower(self):
        """Subsolution C1 * g1 on the grid (None for one-sided certificates)."""
        if self.C1 is None or self.g1_values is None:
            return None
        return self.C1 * self.g1_values

    def upper(self):
        if self.C2 is None or self.g2_values is None:
            return None
        return self.C2 * self.g2_values

    def to_dict(self):
        return {
            "C1": self.C1,
            "C2": self.C2,
            "valid": self.valid,
            "grid_min": float(self.grid[0]),
            "grid_max": float(self.grid[-1]),
            "nodes": int(self.grid.shape[0]),
            "derivative_note": self.derivative_note,
        }


@dataclass
class AsymptoticReport:
    """Tail diagnostics of a computed solution.

    Ratios are read at the literal outermost nodes; log-derivatives at the
    margin-offset nodes recorded in ``window``.  Flags are evaluated over
    the right tail window with the margin excluded: ``below_eta`` means
    u <= eta there, ``below_eta_psi`` means u <= eta * Psi(eta), and
    ``psi_eta_below_eta`` means eta * Psi(eta) <= eta, so the three together
    assert the chain u <= eta Psi(eta) <= eta.
    """

    ratio_left: float
    ratio_right: float
    logderiv_left: float
    logderiv_right: float
    below_eta_flag: bool
    below_eta_psi_flag: bool
    psi_eta_below_eta_flag: bool
    mean_reversion_check: dict
    window: dict

    def to_dict(self):
        return asdict(self)


def _evaluate_profile(spec, y):
    return np.asarray(spec(y) if callable(spec) else spec, dtype=float) * np.ones_like(y)


def _interior(model, y):
    """y as a float array strictly inside a diffusion model's state interval."""
    if not isinstance(model, DiffusionModel):
        raise ModelError("the diagnostics apply to diffusion models")
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    lo, hi = model.interval
    if np.any(arr <= lo) or np.any(arr >= hi):
        raise DomainError(f"y on or outside the boundary of ({lo}, {hi})")
    return arr


def psi(model, g, g_prime, g_second, y):
    """Psi g at interior points y, as an array; g may be callables or arrays.

    Nonpositive g values are a domain error (the operator divides by powers
    of g).  Constant profiles give exactly 1.
    """
    y = _interior(model, y)
    g_val = _evaluate_profile(g, y)
    g1 = _evaluate_profile(g_prime, y)
    g2 = _evaluate_profile(g_second, y)
    bad = np.flatnonzero(g_val <= 0.0)
    if bad.size:
        raise DomainError(f"profile must be positive; g(y) <= 0 at y = {y[bad[0]]:.6g}")
    return (
        1.0
        + (0.5 * model.b(y) ** 2 * g2 + model.a_tilde(y) * g1) / g_val**2
        - model.d_coefficient(y) * g1**2 / g_val**3
    )


def vasicek_supersolution_profile(model):
    """Logistic-log upper profile for the stochastic-short-rate family.

    g(y) = 1 - ((1-R)/R) log(1 + exp(y - y*)) with y* the zero of eta; its
    Psi stays bounded on the whole line, giving a finite C2 even though eta
    is unbounded.
    """
    if model.family != "vasicek":
        raise ValueError("profile is specific to the vasicek family")
    R = model.R
    p = model.params
    y_star = p["delta"] / (1.0 - R) - p["lambda"] ** 2 / (2.0 * R)
    slope = -(1.0 - R) / R

    def g(y):
        return 1.0 + slope * np.logaddexp(0.0, np.asarray(y, dtype=float) - y_star)

    def g_prime(y):
        z = np.asarray(y, dtype=float) - y_star
        return slope / (1.0 + np.exp(-z))

    def g_second(y):
        z = np.asarray(y, dtype=float) - y_star
        s = 1.0 / (1.0 + np.exp(-z))
        return slope * s * (1.0 - s)

    return g, g_prime, g_second


def psi_eta_profile(model, y):
    """Psi applied to eta itself, as a plain array."""
    return psi(model, model.eta, model.eta_prime, model.eta_second, y)


def _profile_triplet(model, spec, grid, side):
    """Normalize a profile spec to (values, d1, d2) arrays on the grid."""
    note = ""
    if isinstance(spec, str):
        if spec != "eta":
            raise ValueError(f"unknown profile spec {spec!r}; expected 'eta'")
        if model.family == "tabulated":
            note = f"{side}: eta derivatives from central differences on the table grid"
        return model.eta(grid), model.eta_prime(grid), model.eta_second(grid), note
    if isinstance(spec, tuple) and len(spec) == 3 and all(callable(fn) for fn in spec):
        return (*(_evaluate_profile(fn, grid) for fn in spec), note)
    if np.isscalar(spec):
        c = float(spec)
        zeros = np.zeros_like(grid)
        return np.full_like(grid, c), zeros, zeros, note
    values = np.asarray(spec, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"{side} profile array must match the grid shape {grid.shape}")
    d1 = np.gradient(values, grid)
    d2 = np.gradient(d1, grid)
    note = f"{side}: derivatives from central differences on the evaluation grid"
    return values, d1, d2, note


def proportional_bounds(model, g1, g2, grid):
    """Certificate C1 = inf Psi g1, C2 = sup Psi g2 over the grid.

    ``g1``/``g2`` may be 'eta', a constant, a (g, g', g'') callable triple,
    an array of node values (derivatives then use central differences and a
    note records it), or None for a one-sided certificate.  The ordering
    g1 <= eta <= g2 is enforced; violations raise with the offending nodes.
    """
    if g1 is None and g2 is None:
        raise ValueError("at least one of g1, g2 must be given")
    grid = _interior(model, grid)
    eta = model.eta(grid)
    notes, profiles = [], {}
    for side, spec, violated, ordering in (
        ("g1", g1, np.greater, "g1 > eta"),
        ("g2", g2, np.less, "eta > g2"),
    ):
        if spec is None:
            continue
        values, d1, d2, note = _profile_triplet(model, spec, grid, side)
        if note:
            notes.append(note)
        bad = np.flatnonzero(violated(values, eta))
        if bad.size:
            shown = ", ".join(f"y = {grid[i]:.6g}" for i in bad[:5])
            raise ValueError(
                f"profile ordering violated: {ordering} at {bad.size} node(s) ({shown}...)"
            )
        profiles[side] = values, d1, d2

    psi_g = {side: psi(model, *profile, grid) for side, profile in profiles.items()}
    C1 = float(np.min(psi_g["g1"])) if g1 is not None else None
    C2 = float(np.max(psi_g["g2"])) if g2 is not None else None
    valid = (C1 is None or C1 > 0.0) and (C2 is None or math.isfinite(C2))
    return BoundsCertificate(
        grid=grid,
        C1=C1,
        C2=C2,
        valid=valid,
        g1_values=profiles["g1"][0] if g1 is not None else None,
        g2_values=profiles["g2"][0] if g2 is not None else None,
        derivative_note="; ".join(notes),
    )


def hjb_residual(model, grid, u):
    """Pointwise residual of the consumption-rate HJB equation.

    Central second differences at interior nodes; the two boundary nodes are
    excluded (NaN) so indices align with the grid.
    """
    grid = np.asarray(grid, dtype=float)
    u = np.asarray(u, dtype=float)
    if grid.shape != u.shape or grid.ndim != 1 or grid.size < 3:
        raise ValueError("grid and u must be matching 1-d arrays with at least 3 nodes")
    if np.any(u <= 0.0):
        raise DomainError("u must be positive")
    h = float(grid[1] - grid[0])
    if not np.allclose(np.diff(grid), h, rtol=1e-8, atol=0.0):
        raise ValueError("grid must be uniform")
    inner = _interior(model, grid[1:-1])
    du = (u[2:] - u[:-2]) / (2.0 * h)
    d2u = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    mid = u[1:-1]
    residual = (
        0.5 * model.b(inner) ** 2 * d2u
        + model.a_tilde(inner) * du
        + model.eta(inner) * mid
        - mid**2
        - model.d_coefficient(inner) * du**2 / mid
    )
    out = np.full_like(u, np.nan)
    out[1:-1] = residual
    return out


def _mean_reversion_check(model):
    family = model.family
    p = model.params
    R = model.R
    if family == "mpr":
        threshold = (1.0 - R) / R * model.rho * p["nu"]
    elif family == "heston":
        threshold = (1.0 - R) / R * model.rho * p["lambda"] * p["nu"]
    elif family == "vasicek":
        threshold = 0.0
    else:
        return {"applicable": False, "family": family}
    return {
        "applicable": True,
        "family": family,
        "kappa": p["kappa"],
        "threshold": threshold,
        "satisfied": bool(p["kappa"] > threshold),
    }


def asymptotic_report(solution, model, tail_fraction=0.1, margin_fraction=0.01):
    """Tail diagnostics for a DiffusionSolution against its model."""
    grid = solution.grid
    u = solution.u
    n = grid.shape[0]
    k_tail = int(round(tail_fraction * n))
    k_margin = max(1, int(round(margin_fraction * n)))
    if k_tail < k_margin + 1 or k_tail >= n // 2:
        raise ValueError(
            f"tail window of {k_tail} nodes with margin {k_margin} is not usable on {n} nodes"
        )
    eta = model.eta(_interior(model, grid))

    right = slice(n - k_tail, n - k_margin)
    psi_eta = psi_eta_profile(model, grid[right])
    eta_right = eta[right]
    u_right = u[right]
    below_eta = bool(np.all(u_right <= eta_right))
    below_eta_psi = bool(np.all(u_right <= eta_right * psi_eta))
    psi_below = bool(np.all(eta_right * psi_eta <= eta_right))

    return AsymptoticReport(
        ratio_left=float(u[0] / eta[0]) if eta[0] != 0.0 else float("nan"),
        ratio_right=float(u[-1] / eta[-1]) if eta[-1] != 0.0 else float("nan"),
        logderiv_left=float(solution.du_over_u[k_margin]),
        logderiv_right=float(solution.du_over_u[n - 1 - k_margin]),
        below_eta_flag=below_eta,
        below_eta_psi_flag=below_eta_psi,
        psi_eta_below_eta_flag=psi_below,
        mean_reversion_check=_mean_reversion_check(model),
        window={
            "tail_fraction": tail_fraction,
            "margin_fraction": margin_fraction,
            "tail_nodes": k_tail,
            "margin_nodes": k_margin,
            "left_y": [float(grid[0]), float(grid[k_tail - 1])],
            "right_y": [float(grid[n - k_tail]), float(grid[-1])],
            "logderiv_left_at": float(grid[k_margin]),
            "logderiv_right_at": float(grid[n - 1 - k_margin]),
        },
    )
