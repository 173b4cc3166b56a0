"""Market models: finite-regime chains and one-dimensional diffusion factors.

An agent with constant relative risk aversion ``R`` (R > 0, R != 1; log
utility is out of scope) invests and consumes in a market whose short rate
``r``, market price of risk ``lambda``, asset volatility ``sigma`` and
impatience rate ``delta`` depend on an exogenous factor ``y``.  The factor is
either a finite-state Markov chain (:class:`RegimeModel`) or a scalar
diffusion ``dY = a(Y) dt + b(Y) dW~`` on an interval (:class:`DiffusionModel`)
whose Brownian motion has constant correlation ``rho`` with the asset noise.

The quantity everything else is built from is the frozen consumption rate

    eta(y) = (1/R) * (delta(y) - (1 - R) * (r(y) + lambda(y)^2 / (2 R))),

the optimal consumption rate of the constant-coefficient problem with the
coefficients frozen at ``y``.  All rates are annualized; time is in years.

Correlated diffusion models can be rewritten with zero correlation at the
cost of a drift adjustment and a changed risk aversion (distortion
transform); :func:`to_zero_correlation` performs the rewrite and keeps eta
unchanged.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DomainError, ModelError

__all__ = [
    "RegimeModel",
    "DiffusionModel",
    "DerivedCoefficients",
    "frozen_rate",
    "distortion_power",
    "to_zero_correlation",
    "coefficients_at",
    "load_model",
    "model_to_dict",
]

_Q_ROWSUM_RTOL = 1e-12

DIFFUSION_FAMILIES = ("black_scholes", "mpr", "heston", "vasicek", "tabulated")

_REQUIRED_PARAMS = {
    "black_scholes": ("R", "delta", "r", "lambda"),
    "mpr": ("R", "delta", "r", "sigma", "kappa", "theta", "nu"),
    "heston": ("R", "delta", "r", "lambda", "kappa", "theta", "nu"),
    "vasicek": ("R", "delta", "lambda", "sigma", "kappa", "theta", "nu"),
    "tabulated": ("R", "y", "r", "lambda", "sigma", "delta", "a", "b"),
}

_OPTIONAL_PARAMS = {
    "black_scholes": ("rho", "sigma", "a", "b"),
    "mpr": ("rho",),
    "heston": ("rho",),
    "vasicek": ("rho",),
    "tabulated": ("rho",),
}

_COEFFICIENTS = ("r", "lambda", "sigma", "delta", "a", "b")


def _finite_scalar(name, value):
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"parameter {name!r} must be a number, got {value!r}") from exc
    if not math.isfinite(out):
        raise ModelError(f"parameter {name!r} must be finite, got {out!r}")
    return out


def _float_array(name, values):
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"{name} must be a rectangular array of numbers ({exc})") from exc


def _frozen_rate_at(y, delta, r, lam, R):
    """eta(y) from coefficient functions; numpy reuses their temporaries in place."""
    return (delta(y) - (1.0 - R) * (r(y) + lam(y) ** 2 / (2.0 * R))) / R


def _constant(value):
    return lambda y: np.full_like(y, value)


def _interpolant(grid, values):
    return lambda y: np.interp(y, grid, values)


def _check_risk_aversion(R):
    R = _finite_scalar("R", R)
    if R <= 0:
        raise ModelError(f"risk aversion R must be positive, got {R}")
    if R == 1.0:
        raise ModelError("R = 1 (log utility) is out of scope")
    return R


def _checked_generator(Q):
    """Q as a float array; ModelError unless it is a generator (see RegimeModel)."""
    Q = _float_array("Q", Q)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ModelError(f"Q must be square, got shape {Q.shape}")
    if Q.shape[0] < 1:
        raise ModelError("Q must have at least one state")
    if not np.all(np.isfinite(Q)):
        raise ModelError("Q contains non-finite entries")
    off = Q - np.diag(np.diagonal(Q))
    if np.any(off < 0):
        i, j = np.argwhere(off < 0)[0]
        raise ModelError(f"Q[{i},{j}] = {Q[i, j]} is negative; off-diagonal rates must be >= 0")
    sums = Q.sum(axis=1)
    bad = np.abs(sums) > _Q_ROWSUM_RTOL * np.maximum(1.0, np.abs(Q).sum(axis=1))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ModelError(f"row {i} of Q sums to {sums[i]:.3e}, not zero")
    return Q


class RegimeModel:
    """Finite-regime market: one coefficient value per Markov-chain state.

    Parameters
    ----------
    Q : (N, N) array_like
        Generator of the factor chain: nonnegative off-diagonal rates, rows
        summing to zero (checked to 1e-12 relative).
    r, lam, sigma, delta : (N,) array_like
        Short rate, market price of risk, asset volatility (> 0) and
        impatience rate per state.
    R : float
        Relative risk aversion, positive and != 1.
    """

    def __init__(self, Q, r, lam, sigma, delta, R):
        Q = _checked_generator(Q)
        n = Q.shape[0]
        vectors = {}
        for name, values in (("r", r), ("lambda", lam), ("sigma", sigma), ("delta", delta)):
            arr = _float_array(name, values)
            if arr.shape != (n,):
                raise ModelError(f"{name} must have shape ({n},), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"{name} contains non-finite entries")
            vectors[name] = arr
        if np.any(vectors["sigma"] <= 0):
            raise ModelError("sigma must be positive in every state")

        self.Q = Q
        self.r = vectors["r"]
        self.lam = vectors["lambda"]
        self.sigma = vectors["sigma"]
        self.delta = vectors["delta"]
        self.R = _check_risk_aversion(R)
        for arr in (self.Q, self.r, self.lam, self.sigma, self.delta):
            arr.setflags(write=False)
        states = np.arange(n)
        self._eta = _frozen_rate_at(states, self.delta.take, self.r.take, self.lam.take, self.R)
        self._eta.setflags(write=False)

    @property
    def n_states(self):
        return self.Q.shape[0]

    def eta(self):
        """Frozen consumption rate per state."""
        return self._eta

    def __repr__(self):
        return f"RegimeModel(n_states={self.n_states}, R={self.R})"


class DiffusionModel:
    """Diffusion-factor market from a small closed catalog of families.

    Families
    --------
    ``black_scholes``
        All market coefficients constant (``sigma`` defaults to 1, factor
        drift/volatility default to 0/1 and are irrelevant to the value).
    ``mpr``
        Linear market price of risk ``lambda(y) = y``; constant ``r``,
        ``sigma``, ``delta``; Ornstein-Uhlenbeck factor
        ``a(y) = -kappa (y - theta)``, ``b(y) = nu`` on the whole line.
    ``heston``
        ``lambda(y) = lambda * sqrt(y)``, ``sigma(y) = sqrt(y)``; square-root
        factor ``a(y) = -kappa (y - theta)``, ``b(y) = nu * sqrt(y)`` on
        (0, inf); requires the Feller condition ``kappa theta >= nu^2 / 2``.
    ``vasicek``
        Stochastic short rate ``r(y) = y``; constant ``lambda``, ``sigma``,
        ``delta``; Ornstein-Uhlenbeck factor on the whole line.
    ``tabulated``
        Piecewise-linear coefficients from parallel arrays on a strictly
        increasing grid ``y``; derivatives use central differences on the
        table grid.
    """

    def __init__(self, family, params):
        if family not in DIFFUSION_FAMILIES:
            raise ModelError(
                f"unknown model family {family!r}; expected one of {', '.join(DIFFUSION_FAMILIES)}"
            )
        params = dict(params)
        required = _REQUIRED_PARAMS[family]
        optional = _OPTIONAL_PARAMS[family]
        missing = [k for k in required if k not in params]
        if missing:
            raise ModelError(f"{family} model is missing parameters: {', '.join(missing)}")
        unknown = [k for k in params if k not in required and k not in optional]
        if unknown:
            raise ModelError(f"unknown field {unknown[0]!r} in {family} model parameters")

        self.family = family
        self.rho = _finite_scalar("rho", params.get("rho", 0.0))
        if not -1.0 <= self.rho <= 1.0:
            raise ModelError(f"rho must lie in [-1, 1], got {self.rho}")
        self.R = _check_risk_aversion(params["R"])
        if family == "tabulated":
            self._init_tabulated(params)
        else:
            self._init_closed_form(family, params)

    # -- construction -----------------------------------------------------

    def _init_closed_form(self, family, params):
        p = {k: _finite_scalar(k, v) for k, v in params.items()}
        p["R"] = self.R
        p["rho"] = self.rho
        if family == "black_scholes":
            p.setdefault("sigma", 1.0)
            p.setdefault("a", 0.0)
            p.setdefault("b", 1.0)
        self.params = p
        R = self.R
        if "sigma" in p and p["sigma"] <= 0:
            raise ModelError("sigma must be positive")
        if "nu" in p and p["nu"] == 0:
            raise ModelError("nu must be nonzero")

        # Each coefficient starts as the constant its parameter names; the
        # overrides below replace those that depend on the factor, which
        # include every coefficient that no parameter names.
        b = "b" if family == "black_scholes" else "nu"
        self._r, self._lam, self._sigma, self._delta, self._a, self._b = (
            _constant(p.get(k)) for k in ("r", "lambda", "sigma", "delta", "a", b)
        )
        self._eta_prime = self._eta_second = _constant(0.0)
        self.interval = (-math.inf, math.inf)
        if family != "black_scholes":
            self._a = lambda y: -p["kappa"] * (y - p["theta"])
        if family == "mpr":
            self._lam = lambda y: y.copy()
            self._eta_prime = lambda y: (R - 1.0) / R**2 * y
            # Powers of R are taken per call, as a float ** that overflows raises.
            self._eta_second = lambda y: np.full_like(y, (R - 1.0) / R**2)
        elif family == "heston":
            half_nu2 = 0.5 * (p["nu"] * p["nu"])  # a product overflows to inf; ** raises
            if p["kappa"] * p["theta"] < half_nu2:
                raise ModelError(
                    f"Feller condition fails: kappa*theta = {p['kappa'] * p['theta']:.6g}"
                    f" < nu^2/2 = {half_nu2:.6g}"
                )
            self.interval = (0.0, math.inf)
            lam0 = p["lambda"]
            self._lam = lambda y: lam0 * np.sqrt(y)
            self._sigma = lambda y: np.sqrt(y)
            self._b = lambda y: p["nu"] * np.sqrt(y)
            self._eta_prime = lambda y: np.full_like(y, (R - 1.0) * lam0**2 / (2.0 * R**2))
        elif family == "vasicek":
            self._r = lambda y: y.copy()
            self._eta_prime = _constant((R - 1.0) / R)

    def _init_tabulated(self, params):
        grid = _float_array("tabulated y", params["y"])
        if grid.ndim != 1 or grid.size < 3:
            raise ModelError("tabulated y grid needs at least 3 points")
        if not np.all(np.isfinite(grid)):
            raise ModelError("tabulated y grid must be finite")
        if not np.all(np.diff(grid) > 0):
            raise ModelError("tabulated y grid must be strictly increasing")
        tables = {}
        for name in _COEFFICIENTS:
            arr = _float_array(f"tabulated {name}", params[name])
            if arr.shape != grid.shape:
                raise ModelError(f"tabulated {name} must match y in length")
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"tabulated {name} contains non-finite entries")
            tables[name] = arr
        if np.any(tables["sigma"] <= 0):
            raise ModelError("tabulated sigma must be positive everywhere")
        if np.any(tables["b"] == 0):
            raise ModelError("tabulated b must be nonzero everywhere")
        self.params = {"R": self.R, "rho": self.rho, "y": grid, **tables}
        self.interval = (float(grid[0]), float(grid[-1]))
        self._r, self._lam, self._sigma, self._delta, self._a, self._b = (
            _interpolant(grid, tables[k]) for k in _COEFFICIENTS
        )
        d1 = np.gradient(self.eta(grid), grid)
        self._eta_prime = _interpolant(grid, d1)
        self._eta_second = _interpolant(grid, np.gradient(d1, grid))

    # -- evaluation -------------------------------------------------------

    def _closure(self, y):
        arr = np.asarray(y, dtype=float)
        lo, hi = self.interval
        # No float lies outside an infinite end, so only finite ends are compared.
        if (lo > -math.inf and np.any(arr < lo)) or (hi < math.inf and np.any(arr > hi)):
            raise DomainError(f"y outside state interval [{lo}, {hi}]")
        return arr

    def _interior(self, y):
        arr = np.asarray(y, dtype=float)
        lo, hi = self.interval
        if np.any(arr <= lo) or np.any(arr >= hi):
            raise DomainError(f"y on or outside the boundary of ({lo}, {hi})")
        return arr

    def r(self, y):
        return self._r(self._closure(y))

    def lam(self, y):
        return self._lam(self._closure(y))

    def sigma(self, y):
        return self._sigma(self._closure(y))

    def delta(self, y):
        return self._delta(self._closure(y))

    def a(self, y):
        return self._a(self._closure(y))

    def b(self, y):
        return self._b(self._closure(y))

    def eta(self, y):
        """Frozen consumption rate; accepts the closure of the state interval."""
        return _frozen_rate_at(self._closure(y), self._delta, self._r, self._lam, self.R)

    def eta_prime(self, y):
        return self._eta_prime(self._closure(y))

    def eta_second(self, y):
        return self._eta_second(self._closure(y))

    def a_tilde(self, y):
        """Distortion-adjusted factor drift a(y) + ((1-R)/R) rho lambda(y) b(y)."""
        arr = self._closure(y)
        return self._a(arr) + (1.0 - self.R) / self.R * self.rho * self._lam(arr) * self._b(arr)

    def d_coefficient(self, y):
        """Quadratic-gradient weight (1/2) b(y)^2 ((1 - rho^2) R + rho^2 + 1)."""
        arr = self._closure(y)
        return 0.5 * self._b(arr) ** 2 * ((1.0 - self.rho**2) * self.R + self.rho**2 + 1.0)

    def __repr__(self):
        return f"DiffusionModel(family={self.family!r}, R={self.R}, rho={self.rho})"


@dataclass(frozen=True)
class _ZeroCorrelationModel:
    """Distortion-transformed coefficients: zero correlation, adjusted drift and R.

    ``a``, ``b`` and ``eta`` are the base model's ``a_tilde``, ``b`` and
    ``eta`` methods (so the frozen rate is unchanged) and ``R`` is ``R / phi``;
    with ``interval`` they are all the discretizer reads.
    """

    interval: tuple
    a: Callable
    b: Callable
    eta: Callable
    R: float
    rho: float = 0.0


@dataclass(frozen=True)
class DerivedCoefficients:
    """Transform-level coefficients at one or more factor points.

    ``eta`` is invariant under the zero-correlation rewrite; ``a_tilde`` is
    the adjusted drift, ``d`` the quadratic-gradient weight, ``phi`` the
    distortion power and ``R_tilde = R / phi`` the transformed risk aversion
    (equal to ``(1 - rho^2) R + rho^2``).
    """

    eta: np.ndarray
    a_tilde: np.ndarray
    d: np.ndarray
    phi: float
    R_tilde: float


def frozen_rate(model, y=None):
    """Frozen consumption rate eta.

    For a :class:`RegimeModel`, returns the per-state vector (``y`` may be a
    state index).  For a :class:`DiffusionModel`, evaluates eta at ``y``
    (scalar or array), accepting the closure of the state interval.
    """
    if isinstance(model, RegimeModel):
        eta = model.eta()
        if y is None:
            return eta
        state = int(y)
        if not 0 <= state < model.n_states:
            raise DomainError(f"state index {state} outside 0..{model.n_states - 1}")
        return float(eta[state])
    if isinstance(model, DiffusionModel):
        if y is None:
            raise DomainError("diffusion models need an evaluation point y")
        return model.eta(y)
    raise ModelError(f"unsupported model type {type(model).__name__}")


def distortion_power(R, rho):
    """phi = 1 / (1 - ((R - 1)/R) rho^2); equals R when |rho| = 1."""
    return 1.0 / (1.0 - (R - 1.0) / R * rho**2)


def to_zero_correlation(model):
    """Rewrite a diffusion model with zero correlation, returning (work, phi).

    ``work`` is a coefficient record (``interval``, ``a``, ``b``, ``eta``,
    ``R``, ``rho = 0``) that keeps the factor volatility and the frozen rate
    eta, changes the drift to ``a_tilde`` and the risk aversion to
    ``R_tilde = R / phi``; :func:`assemble_discrete_hjb` accepts it.  A model
    with rho = 0, or a record, is returned unchanged with phi = 1.
    """
    if not isinstance(model, (DiffusionModel, _ZeroCorrelationModel)):
        raise ModelError("to_zero_correlation applies to diffusion models")
    if model.rho == 0.0:
        return model, 1.0
    phi = distortion_power(model.R, model.rho)
    work = _ZeroCorrelationModel(model.interval, model.a_tilde, model.b, model.eta, model.R / phi)
    return work, phi


def coefficients_at(model, y):
    """Derived coefficients (eta, a_tilde, d, phi, R_tilde) at interior y."""
    if not isinstance(model, DiffusionModel):
        raise ModelError("coefficients_at applies to diffusion models")
    arr = model._interior(y)
    phi = distortion_power(model.R, model.rho)
    return DerivedCoefficients(
        eta=model.eta(arr),
        a_tilde=model.a_tilde(arr),
        d=model.d_coefficient(arr),
        phi=phi,
        R_tilde=model.R / phi,
    )


# -- JSON schema --------------------------------------------------------------

_REGIME_KEYS = ("Q", "r", "lambda", "sigma", "delta", "R")


def _model_from_dict(data):
    if not isinstance(data, dict):
        raise ModelError(f"model JSON must be an object, got {type(data).__name__}")
    family = data.get("family")
    if family is None:
        raise ModelError("model JSON is missing the 'family' field")
    if family == "regime":
        missing = [k for k in _REGIME_KEYS if k not in data]
        if missing:
            raise ModelError(f"regime model is missing fields: {', '.join(missing)}")
        unknown = [k for k in data if k != "family" and k not in _REGIME_KEYS]
        if unknown:
            raise ModelError(f"unknown field {unknown[0]!r} in regime model")
        return RegimeModel(
            Q=data["Q"],
            r=data["r"],
            lam=data["lambda"],
            sigma=data["sigma"],
            delta=data["delta"],
            R=data["R"],
        )
    if family in DIFFUSION_FAMILIES:
        unknown = [k for k in data if k not in ("family", "params")]
        if unknown:
            raise ModelError(f"unknown field {unknown[0]!r} in {family} model")
        params = data.get("params")
        if not isinstance(params, dict):
            raise ModelError(f"{family} model needs a 'params' object")
        return DiffusionModel(family, params)
    raise ModelError(
        f"unknown model family {family!r}; expected 'regime' or one of {', '.join(DIFFUSION_FAMILIES)}"
    )


def load_model(source):
    """Build a model from a dict, a JSON string path, or a Path.

    JSON syntax errors are reported with line and column; schema errors name
    the offending field.
    """
    if isinstance(source, dict):
        return _model_from_dict(source)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return _model_from_dict(data)


def model_to_dict(model):
    """Serializable dict matching the JSON schema accepted by load_model."""
    if isinstance(model, RegimeModel):
        return {
            "family": "regime",
            "Q": model.Q.tolist(),
            "r": model.r.tolist(),
            "lambda": model.lam.tolist(),
            "sigma": model.sigma.tolist(),
            "delta": model.delta.tolist(),
            "R": model.R,
        }
    if isinstance(model, DiffusionModel):
        params = {}
        for key, value in model.params.items():
            params[key] = value.tolist() if isinstance(value, np.ndarray) else value
        return {"family": model.family, "params": params}
    raise ModelError(f"unsupported model type {type(model).__name__}")
