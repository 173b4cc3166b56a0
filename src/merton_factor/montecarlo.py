"""Monte Carlo cross-verification of policies and value functions.

Wealth under a policy (pi, xi) follows, in log form,

    d log X = (r + pi lambda sigma - xi - pi^2 sigma^2 / 2) dt + pi sigma dW,

and the realized objective of one path is the discounted utility integral

    J = int_0^T exp(-int_0^t delta ds) (xi_t X_t)^(1-R) / (1-R) dt,

accumulated with the left-endpoint rule.

The factor never depends on wealth, so each path is simulated in two
stages.  A sampler draws the factor at the step starts and the asset
increments: chains exactly by uniformization, diffusions by Euler (full
truncation at the boundary of the state space) with correlated increments
dW = rho dW~ + sqrt(1-rho^2) dW_perp, and no factor path for
black_scholes.  Then one wealth kernel, shared by ``estimate_value`` and
``simulate_wealth``, turns those arrays into running log wealth, running
discount and each step's utility flow.  It reads four step coefficients,
drift * dt, pi sigma, delta * dt and log xi: per-state tables for a regime
model, built once per call and gathered by state; one row at ``y0`` for
black_scholes, so its discount is one cumulative sum shared by every path;
for other diffusions, values on the clipped factor.  Paths are sampled
in blocks of about 10^6 path-steps; the kernel runs on row slices of at
most ``_SLICE_ELEMENTS`` path-steps, so its temporaries stay small.

Reproducibility: path i draws from the 2^128 counter block i of one Philox
key (the seed); a block of paths keeps one Philox and resets its counter
per path.  Blocks are index-addressed and reduced in a fixed order, so
results are bitwise identical for any worker count
(``MERTON_FACTOR_THREADS``).
"""

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ._parallel import map_ordered
from .errors import ModelError
from .model import DiffusionModel, RegimeModel, _checked_generator

__all__ = [
    "PathSample",
    "ValueEstimate",
    "sample_ctmc_path",
    "simulate_wealth",
    "estimate_value",
]


@dataclass
class PathSample:
    """One simulated path.

    For bare factor paths (``sample_ctmc_path``), ``times`` holds the segment
    start times plus the terminal time and ``states`` one state per segment;
    wealth and the integrals are None.  For wealth simulations, all arrays
    are aligned with the step grid ``times`` and the integrals are the
    running discount exponent and utility accumulator.
    """

    times: np.ndarray
    states: np.ndarray
    wealth: Optional[np.ndarray] = None
    discount_integral: Optional[np.ndarray] = None
    utility_integral: Optional[np.ndarray] = None


@dataclass
class ValueEstimate:
    """Sample mean of the path objective with its standard error.

    ``truncation_note`` reports the (signed) average contribution of the
    final 10% of the horizon, an observed bound on what a longer horizon
    could still add at the same decay rate.
    """

    mean: float
    se: float
    paths: int
    horizon: float
    dt: float
    truncation_note: str
    tail_mean: float
    tail_share: float
    antithetic: bool = False

    def to_dict(self):
        return asdict(self)


def _path_streams(seed):
    """``stream(index)``: one generator, reset to path ``index``'s stream.

    That is ``Philox(key=seed, counter=index << 128)``, a disjoint 2^128
    counter block; resetting the counter is much cheaper than building it.
    Each call moves the one generator, so use one stream at a time.
    """
    bits = np.random.Philox(key=int(seed))
    rng, state = np.random.Generator(bits), bits.state
    counter = state["state"]["counter"]

    def stream(index):
        counter[2], counter[3] = int(index) & 0xFFFF_FFFF_FFFF_FFFF, int(index) >> 64
        bits.state = state
        return rng

    return stream


def default_horizon(min_eta, cutoff=1e-4):
    """Horizon T with exp(-min_eta * T) < cutoff (discounted flow decays at eta)."""
    if min_eta <= 0.0:
        raise ValueError("default horizon needs a positive minimal eta")
    return math.log(1.0 / cutoff) / min_eta


def _uniformized(Q):
    """(Lambda, rows of the CDF of P = I + Q / Lambda without their last entry).

    The chain moves at the events of a Poisson process of rate
    Lambda = max_i |Q_ii|, each one step of P, possibly to the same state.
    """
    rate = max(0.0, float(np.max(-np.diagonal(Q))))
    P = np.eye(Q.shape[0]) + (Q / rate if rate > 0.0 else 0.0)
    return rate, np.cumsum(P, axis=1)[:, :-1]


def _event_batch(mean):
    """Events drawn per batch when ``mean`` are expected: mean + 8 sd + 16."""
    return math.ceil(mean + 8.0 * math.sqrt(mean)) + 16


def _chain_events(rng, rate, T):
    """Event times in [0, T) of a rate-``rate`` Poisson process, one uniform each.

    Draws batches of standard exponentials, then as many uniforms, until
    the events pass T, so the process is never truncated.
    """
    times, uniforms = [np.zeros(1)], [np.empty(0)]
    while rate > 0.0 and times[-1][-1] < T:
        k = _event_batch(rate * T)
        times.append(times[-1][-1] + np.cumsum(rng.standard_exponential(k)) / rate)
        uniforms.append(rng.random(k))
    times = np.concatenate(times)[1:]
    return times[times < T], np.concatenate(uniforms)[times < T]


def _embedded_chains(events, cdf, y0):
    """(event times padded with +inf, y0 and the state after each event), a row per path.

    One step per event index, vectorized over the paths; a pad's uniform 0
    is a valid draw whose state no step reads.  ``y0`` must be a state index.
    """
    if not (float(y0).is_integer() and 0 <= y0 < len(cdf)):
        raise ValueError(f"initial state {y0} is not an integer in 0..{len(cdf) - 1}")
    width = max(t.size for t, _ in events)
    times, uniforms = np.full((len(events), width), np.inf), np.zeros((len(events), width))
    for row, (t, u) in enumerate(events):
        times[row, : t.size], uniforms[row, : u.size] = t, u
    states = np.empty((len(events), width + 1), np.min_scalar_type(len(cdf)))
    states[:, 0] = y0
    for j in range(width):
        states[:, j + 1] = (cdf[states[:, j]] <= uniforms[:, j, None]).sum(axis=1)
    return times, states


def _on_grid(times, states, n_steps, dt):
    """(paths, n_steps) state at each step start: ``states[:, e]`` up to ``times[:, e]``."""
    edges = np.searchsorted(np.arange(n_steps) * dt, times, side="left")
    counts = np.diff(edges, axis=1, prepend=0, append=n_steps)
    return np.repeat(states.ravel(), counts.ravel()).reshape(-1, n_steps)


def sample_ctmc_path(Q, y0, T, seed):
    """Sample the factor chain exactly on [0, T]: path 0 of the estimator's sampler.

    Self-events are dropped, so consecutive segments differ in state; the
    path is one segment for a single state or an absorbing one.  ``Q`` must
    be a generator (else ``ModelError``) and ``y0`` an integer state index.
    """
    Q = _checked_generator(Q)
    if T <= 0.0:
        raise ValueError("T must be positive")
    rate, cdf = _uniformized(Q)
    times, states = _embedded_chains([_chain_events(_path_streams(seed)(0), rate, T)], cdf, y0)
    times, states = times[0], states[0].astype(np.int64)
    moves = np.flatnonzero(np.diff(states))
    return PathSample(np.concatenate(([0.0], times[moves], [T])), states[np.append(0, moves + 1)])


def _normalize_policy(model, policy):
    """Return (pi_fn, xi_fn) mapping factor values/states to policy values."""
    pi_spec, xi_spec = policy

    def as_fn(spec, name):
        if callable(spec):
            return spec
        arr = np.asarray(spec, dtype=float)
        if arr.ndim == 0:
            return lambda y: np.full(np.shape(y), float(arr))
        if not isinstance(model, RegimeModel):
            raise ValueError(f"{name} must be scalar or callable for diffusion models")
        if arr.shape != (model.n_states,):
            raise ValueError(f"{name} must be scalar or one value per state")
        return lambda s: arr[s]

    return as_fn(pi_spec, "pi"), as_fn(xi_spec, "xi")


# Path-steps per kernel call.  The kernel's temporaries then stay near 128 KB
# each; on whole blocks of 10^6 path-steps they dominated peak memory.
_SLICE_ELEMENTS = 16_384


def _clipped(model, y):
    lo, hi = model.interval
    return np.clip(y, lo, hi) if (np.isfinite(lo) or np.isfinite(hi)) else y


def _step_coefficients(model, policy, dt, y0, n_steps):
    """``lookup(factor)``: (drift * dt, pi sigma, delta * dt, log xi) at a factor block.

    drift = r + pi lambda sigma - xi - pi^2 sigma^2 / 2.  A regime model's
    four form a table with one row per state (the policy is called on
    ``arange(n_states)``), gathered by state in one pass; black_scholes has
    one row of ``n_steps`` at ``y0``, shared by every path; other diffusions
    evaluate the coefficients and the policy on the clipped factor.
    """
    pi, xi = _normalize_policy(model, policy)

    def at(y, r, lam, sig, delta):
        pi_s, xi_s = pi(y), xi(y)
        drift = (r + pi_s * lam * sig - xi_s - 0.5 * pi_s**2 * sig**2) * dt
        with np.errstate(divide="ignore"):
            return drift, pi_s * sig, delta * dt, np.log(xi_s)

    if isinstance(model, RegimeModel):
        states = np.arange(model.n_states)
        table = np.stack(
            np.broadcast_arrays(*at(states, model.r, model.lam, model.sigma, model.delta)), axis=1
        )
        return lambda factor: np.moveaxis(table.take(factor, axis=0), -1, 0)
    if not isinstance(model, DiffusionModel):
        raise ModelError(f"cannot simulate model of type {type(model).__name__}")

    def on_factor(factor):
        y = _clipped(model, factor)
        return at(y, model.r(y), model.lam(y), model.sigma(y), model.delta(y))

    if model.family == "black_scholes":
        row = on_factor(np.full((1, n_steps), float(y0)))
        return lambda factor: row
    return on_factor


def _sample_block(model, y0, T, dt, n_steps, seed, indices, antithetic):
    """(factor at the step starts, asset increments dW) of a block of paths.

    Path ``idx`` draws from its own Philox stream: the chain's events (see
    :func:`_chain_events`) and then the asset normals for regime models,
    the asset normals only for black_scholes (whose factor is one column
    holding ``y0``), the factor and then the perpendicular normals for the
    other diffusions.  With ``antithetic``, paths 2k and 2k+1 share stream
    k (and so the chain) with flipped signs.  The chains' embedded steps
    and grid mapping then run once per block, into small unsigned integers.
    """
    B = indices.shape[0]
    if isinstance(model, RegimeModel):
        kind, events = "chain", []
        rate, cdf = _uniformized(model.Q)
    elif model.family == "black_scholes":
        kind, factor = "constant", np.full((B, 1), float(y0))
    else:
        # Each row holds the path's factor increments until the Euler loop.
        kind, factor = "euler", np.empty((B, n_steps))
        rho = model.rho
    dw_asset = np.empty((B, n_steps))
    stream = _path_streams(seed)
    for row, idx in enumerate(indices):
        rng = stream(idx // 2 if antithetic else idx)
        if kind == "euler":
            z_factor, z_perp = rng.standard_normal((2, n_steps))
            factor[row] = z_factor
            dw_asset[row] = rho * z_factor + math.sqrt(1.0 - rho * rho) * z_perp
            continue
        if kind == "chain":
            events.append(_chain_events(rng, rate, T))
        rng.standard_normal(out=dw_asset[row])
    # sign * (sqrt(dt) * z) in one pass: with sign = +-1 the product is exact.
    scale = math.sqrt(dt) * (np.where(indices % 2 == 1, -1.0, 1.0)[:, None] if antithetic else 1.0)
    dw_asset *= scale
    if kind == "chain":
        factor = _on_grid(*_embedded_chains(events, cdf, y0), n_steps, dt)
    if kind == "euler":
        factor *= scale
        y = np.full(B, float(y0))
        for k in range(n_steps):
            yc = _clipped(model, y)
            y_next = y + model.a(yc) * dt + model.b(yc) * factor[:, k]
            factor[:, k] = y
            y = y_next
    return factor, dw_asset


def _wealth_kernel(lookup, R, x0, dt, factor, dw_asset):
    """(log wealth, discount exponent, utility flow) of a block of paths.

    ``factor`` and ``dw_asset`` come from :func:`_sample_block` and
    ``lookup`` from :func:`_step_coefficients`.  Column k of log wealth and
    discount is the value at t_k, k = 0..n_steps (the discount may be one
    row shared by every path); flow is (paths, n_steps) like ``dw_asset``.
    """
    drift, vol, delta_dt, log_xi = lookup(factor)
    rows, n = dw_asset.shape
    increments = vol * dw_asset
    increments += drift
    log_x = np.empty((rows, n + 1))
    log_x[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=log_x[:, 1:])
    log_x += math.log(x0)
    disc = np.zeros((delta_dt.shape[0], n + 1))
    np.cumsum(delta_dt, axis=1, out=disc[:, 1:])
    # Left-endpoint rule: step k reads wealth and discount at its start.  The
    # exponent is (1-R) log c - disc; at c = 0 it is -inf for R < 1 (flow 0)
    # and +inf for R > 1 (flow -inf).
    log_c = log_xi + log_x[:, :-1]
    with np.errstate(over="ignore", invalid="ignore"):
        flow = np.multiply(log_c, 1.0 - R, out=log_c)
        flow -= disc[:, :-1]
        np.exp(flow, out=flow)
        flow /= 1.0 - R
    flow *= dt
    return log_x, disc, flow


def _step_count(T, dt):
    """Steps of length dt over [0, T]; ValueError unless dt > 0 and T, dt, T / dt are finite."""
    T, dt = float(T), float(dt)
    if not (dt > 0.0 and math.isfinite(T) and math.isfinite(dt) and math.isfinite(T / dt)):
        raise ValueError(f"need dt > 0 and finite T, dt and T / dt; got T = {T}, dt = {dt}")
    return max(1, int(round(T / dt)))


def estimate_value(model, policy, x0, y0, T, dt, n_paths, seed, antithetic=False):
    """Estimate the value of a policy by averaging path objectives.

    ``policy`` is a (pi, xi) pair: scalars, per-state arrays (regime) or
    callables of the factor value, applied elementwise to arrays of any
    shape (paths x steps), or once to ``arange(n_states)`` for a regime
    model, where a scalar result holds in every state.  With
    ``antithetic=True`` consecutive paths share one noise stream with
    flipped signs and the standard error is computed over pair averages.
    """
    if not 0.0 < x0 < math.inf:
        raise ValueError(f"initial wealth must be positive and finite, got {x0}")
    if T <= 0.0 or dt <= 0.0 or dt > T:
        raise ValueError("need 0 < dt <= T")
    n_paths = int(n_paths)
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    if antithetic and n_paths % 2 != 0:
        raise ValueError("antithetic sampling needs an even path count")
    n_steps = _step_count(T, dt)
    lookup = _step_coefficients(model, policy, dt, y0, n_steps)

    values = np.empty(n_paths)
    tails = np.empty(n_paths)
    k_tail = int(round(0.9 * n_steps))
    block = max(16, min(n_paths, 1_000_000 // max(n_steps, 1) + 1))
    ranges = [(start, min(start + block, n_paths)) for start in range(0, n_paths, block)]
    rows = max(1, _SLICE_ELEMENTS // n_steps)

    def run(bounds):
        start, stop = bounds
        factor, dw_asset = _sample_block(
            model, y0, T, dt, n_steps, seed, np.arange(start, stop), antithetic
        )
        block_values, block_tails = values[start:stop], tails[start:stop]
        for lo in range(0, stop - start, rows):
            part = slice(lo, lo + rows)
            flow = _wealth_kernel(lookup, model.R, x0, dt, factor[part], dw_asset[part])[2]
            block_values[part] = flow.sum(axis=1)
            block_tails[part] = flow[:, k_tail:].sum(axis=1)

    map_ordered(run, ranges)

    mean = float(np.mean(values))
    # Infinite path values (zero consumption with R > 1) make the standard
    # error undefined; report NaN quietly instead of warning.
    with np.errstate(invalid="ignore"):
        if antithetic:
            pair_means = values.reshape(-1, 2).mean(axis=1)
            se = float(np.std(pair_means, ddof=1) / math.sqrt(pair_means.shape[0]))
        else:
            se = float(np.std(values, ddof=1) / math.sqrt(n_paths))
    tail_mean = float(np.mean(tails))
    tail_share = abs(tail_mean) / max(abs(mean), 1e-300)
    note = (
        f"final 10% of the horizon (t in [{0.9 * T:.6g}, {T:.6g}]) contributes "
        f"{tail_mean:.6g} ({tail_share:.3%} of the estimate in magnitude)"
    )
    return ValueEstimate(
        mean=mean,
        se=se,
        paths=n_paths,
        horizon=float(T),
        dt=float(dt),
        truncation_note=note,
        tail_mean=tail_mean,
        tail_share=tail_share,
        antithetic=antithetic,
    )


def simulate_wealth(model, policy, x0, y0=None, T=None, dt=None, seed=0, path=None):
    """Simulate one wealth path; returns the full :class:`PathSample`.

    The path is path 0 of :func:`estimate_value` with the same seed: the
    same sampler and the same wealth kernel, run on one path.  For regime
    models a pre-sampled factor path may be passed via ``path`` (as
    returned by :func:`sample_ctmc_path`); the asset normals are then the
    first draws of the stream.

    ``states`` holds the factor at each step start, with the last one
    repeated at T, for every model type.  A diffusion's Euler value at T is
    not reported, and black_scholes reports ``y0`` throughout: its constant
    coefficients need no Brownian factor, so none is simulated.
    """
    if not 0.0 < x0 < math.inf:
        raise ValueError(f"initial wealth must be positive and finite, got {x0}")
    if path is not None:
        if not isinstance(model, RegimeModel):
            raise ValueError("pre-sampled paths apply to regime models only")
        if dt is None:
            raise ValueError("dt is required with a pre-sampled path")
    elif y0 is None or T is None or dt is None:
        raise ValueError("y0, T, dt are required without a pre-sampled path")
    n_steps = _step_count(T if path is None else path.times[-1], dt)
    lookup = _step_coefficients(model, policy, dt, y0, n_steps)
    if path is not None:
        factor = _on_grid(path.times[None, 1:-1], path.states[None, :], n_steps, dt)
        dw_asset = math.sqrt(dt) * _path_streams(seed)(0).standard_normal((1, n_steps))
    else:
        factor, dw_asset = _sample_block(model, y0, T, dt, n_steps, seed, np.arange(1), False)
    log_x, disc, flow = _wealth_kernel(lookup, model.R, x0, dt, factor, dw_asset)
    states = np.broadcast_to(factor[0], n_steps).astype(np.result_type(factor.dtype, np.int64))
    return PathSample(
        times=np.arange(n_steps + 1) * dt,
        states=np.append(states, states[-1]),
        wealth=np.exp(log_x[0]),
        discount_integral=disc[0],
        utility_integral=np.append(0.0, np.cumsum(flow[0])),
    )
