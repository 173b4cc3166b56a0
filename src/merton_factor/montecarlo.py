"""Monte Carlo cross-verification of policies and value functions.

Wealth under a policy (pi, xi) follows, in log form,

    d log X = (r + pi lambda sigma - xi - pi^2 sigma^2 / 2) dt + pi sigma dW,

and the realized objective of one path is the discounted utility integral

    J = int_0^T exp(-int_0^t delta ds) (xi_t X_t)^(1-R) / (1-R) dt.

The factor never depends on wealth, and the asset noise is
dW = rho dW~ + sqrt(1-rho^2) dW_perp with dW_perp independent of the
factor's dW~.  Given the factor path log wealth moves by normal steps, so
an estimate draws no perpendicular noise: a path's value is E[J | factor
path] (conditional Monte Carlo), with the mean of J and no more variance.
Both routes read it as E[flow_t | factor path] =
exp(start + int_0^t (rate + noise)) / (1-R), from three coefficients of
:func:`_step_coefficients`.

A regime chain is sampled exactly by uniformization and is independent of
the asset noise, so a path's value is E[J | chain] of the integral over
[0, T] itself: the chain is constant between its events, and each stretch
is integrated over its event times in closed form, one term per chain
event and no time grid.  Chains are sampled in blocks of 256 paths.

A diffusion path is simulated in two stages on the grid t_k = k dt.  A
sampler draws the path's increments and from them the factor at the step
starts by Euler (full truncation at the boundary of the state space; none
for black_scholes).  Then one wealth kernel turns those arrays into each
step's utility flow by the left-endpoint rule, from one cumulative sum of
the exponent's steps rate dt + weight dW.  black_scholes has no factor
noise; its value is the realized J on the grid, and its coefficients are
one entry at ``y0`` shared by every path.  Paths are sampled in blocks of
about 10^6 path-steps; the Euler loop steps a block in time-major chunks,
and the kernel runs on row slices, each of at most ``_SLICE_ELEMENTS``
path-steps, so their temporaries stay small.
A callable policy, and a tabulated model's coefficients, see each slice's
factor values in bucket order: sorted by the 16-bit key
uint16((y - min) 65535 / (max - min)) of the slice's range, so a search
such as ``np.interp`` finds each key next to the last (a slice that is
constant or holds a non-finite value keeps path order).  Policy and
coefficient functions are applied elementwise: they may receive any
permutation of the factor values, and the results do not depend on it.

Reproducibility: path i draws from the 2^128 counter block i of one Philox
key (the seed); a block of paths keeps one Philox and resets its counter
per path.  A regime path reads from its stream, in order, its event count
N ~ Poisson(Lambda T), N uniforms for the event times and N uniforms for
the moves; a diffusion path reads its n_steps factor normals (the asset
normals for black_scholes).
Blocks are index-addressed and reduced in a fixed order, so results are
bitwise identical for any worker count: ``MERTON_FACTOR_THREADS`` threads,
serial when it is unset, empty or at most 1 (not an integer: ValueError).
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ModelError
from .model import DiffusionModel, RegimeModel, _checked_generator

__all__ = [
    "PathSample",
    "ValueEstimate",
    "sample_ctmc_path",
    "estimate_value",
]


@dataclass
class PathSample:
    """One factor chain path of :func:`sample_ctmc_path`.

    ``times`` holds the segment start times plus the terminal time and
    ``states`` one state per segment.
    """

    times: np.ndarray
    states: np.ndarray


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


def default_horizon(min_eta):
    """Horizon T with exp(-min_eta * T) = 1e-4 (discounted flow decays at eta)."""
    if not 0.0 < min_eta < math.inf:
        raise ValueError(f"default horizon needs a positive finite minimal eta, got {min_eta}")
    return math.log(1.0 / 1e-4) / min_eta


def _uniformized(Q):
    """(Lambda, rows of the CDF of P = I + Q / Lambda without their last entry).

    The chain moves at the events of a Poisson process of rate
    Lambda = max_i |Q_ii|, each one step of P, possibly to the same state.
    """
    rate = max(0.0, float(np.max(-np.diagonal(Q))))
    P = np.eye(Q.shape[0]) + (Q / rate if rate > 0.0 else 0.0)
    return rate, np.cumsum(P, axis=1)[:, :-1]


def _chain_events(rng, rate, T):
    """Event times in [0, T) of a rate-``rate`` Poisson process, one uniform each.

    Draws the count N ~ Poisson(rate T), then N uniforms that, scaled by T
    and sorted, are the event times (given N, the times of a Poisson process
    are N sorted uniforms), then N uniforms for the moves.  A time that
    rounds up to T is dropped with the last move.
    """
    times = np.sort(T * rng.random(rng.poisson(rate * T)))
    count = times.searchsorted(T)
    return times[:count], rng.random(times.size)[:count]


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


def _sample_chains(Q, y0, T, rngs):
    """:func:`_embedded_chains` of one path per generator, each drawing its events only."""
    rate, cdf = _uniformized(Q)
    return _embedded_chains([_chain_events(rng, rate, T) for rng in rngs], cdf, y0)


def sample_ctmc_path(Q, y0, T, seed):
    """Sample the factor chain exactly on [0, T]: path 0 of the estimator's sampler.

    Self-events are dropped, so consecutive segments differ in state; the
    path is one segment for a single state or an absorbing one.  ``Q`` must
    be a generator (else ``ModelError``) and ``y0`` an integer state index.
    """
    Q = _checked_generator(Q)
    if not 0.0 < T < math.inf:
        raise ValueError(f"need a positive finite horizon T, got T = {T}")
    times, states = _sample_chains(Q, y0, T, [_path_streams(seed)(0)])
    times, states = times[0], states[0].astype(np.int64)
    moves = np.flatnonzero(np.diff(states))
    return PathSample(np.concatenate(([0.0], times[moves], [T])), states[np.append(0, moves + 1)])


def _normalize_policy(model, policy):
    """(pi, xi): each a float (a scalar spec) or a function of factor values/states."""
    pi_spec, xi_spec = policy

    def as_fn(spec, name):
        if callable(spec):
            return spec
        arr = np.asarray(spec, dtype=float)
        if arr.ndim == 0:
            return float(arr)
        if not isinstance(model, RegimeModel):
            raise ValueError(f"{name} must be scalar or callable for diffusion models")
        if arr.shape != (model.n_states,):
            raise ValueError(f"{name} must be scalar or one value per state")
        return lambda s: arr[s]

    return as_fn(pi_spec, "pi"), as_fn(xi_spec, "xi")


# Path-steps per kernel call.  The kernel's temporaries then stay near 128 KB
# each; on whole blocks of 10^6 path-steps they dominated peak memory.
_SLICE_ELEMENTS = 16_384


def _step_coefficients(model, policy, x0, y0):
    """(rate, weight, start) of the flow's exponent: per-state rows, or ``lookup(factor)``.

    Given the factor path, E[flow_t] = exp(start + int_0^t (rate dt + weight dW)) / (1-R)
    with rate = (1-R) drift - delta per unit time, weight = (1-R) pi sigma c
    on the sampled normals dW and start = (1-R)(log xi + log x0); c is the
    share of the asset noise the normals carry: 1 for black_scholes, rho
    for an Euler factor's normals, 0 for a regime chain.
    drift = r + pi lambda sigma - xi - h pi^2 sigma^2 with
    h = (1 - (1-R)(1 - c^2)) / 2 also holds the conditional mean of the
    noise integrated out; at c = 1, h is exactly 1/2.  A regime model's
    three are rows with one entry per state (the policy is called on
    ``arange(n_states)``); black_scholes has one entry at ``y0``, shared by
    every path and step; other diffusions are a lookup of the
    factor block, which :func:`_sample_block` stores clipped.  There, when
    a policy is a callable or the model is tabulated, they see the
    slice's values in bucket order (a stable radix argsort of 16-bit keys
    over the slice's range; path order for a constant slice or one whose
    min or max is not finite) and the three results are put back in path
    order: a search such as ``np.interp`` then finds each key next to the
    previous one, and as every callable is elementwise the results are the
    same bits.  A scalar policy stays a float and is never called.  A diffusion's ``y0`` must be a finite point of the closed
    state interval.
    """
    pi, xi = _normalize_policy(model, policy)
    regime = isinstance(model, RegimeModel)
    if not (regime or isinstance(model, DiffusionModel)):
        raise ModelError(f"cannot simulate model of type {type(model).__name__}")
    share = 0.0 if regime else 1.0 if model.family == "black_scholes" else model.rho
    gain, log_x0 = 1.0 - model.R, math.log(x0)
    h = 0.5 * (1.0 - gain * (1.0 - share * share))

    def at(y, r, lam, sig, delta):
        pi_s = pi(y) if callable(pi) else pi
        xi_s = xi(y) if callable(xi) else xi
        # log of xi < 0 and inf - inf at an infinite factor value are NaN,
        # which the estimator refuses with the path; at xi = 0 the start is
        # -inf for R < 1 (flow 0), +inf for R > 1 (flow -inf).
        with np.errstate(divide="ignore", invalid="ignore"):
            # pi_s * pi_s, not pi_s**2: a float's ** is libm pow, an array's is x * x.
            drift = r + pi_s * lam * sig - xi_s - h * (pi_s * pi_s) * sig**2
            return gain * drift - delta, gain * pi_s * sig * share, gain * (np.log(xi_s) + log_x0)

    if regime:
        rows = at(np.arange(model.n_states), model.r, model.lam, model.sigma, model.delta)
        return np.stack(np.broadcast_arrays(*rows))
    lo, hi = model.interval
    if not (math.isfinite(y0) and lo <= y0 <= hi):
        raise ValueError(f"initial factor {y0} is not a finite point of [{lo}, {hi}]")

    def on_clipped(y):
        return at(y, model.r(y), model.lam(y), model.sigma(y), model.delta(y))

    if model.family == "black_scholes":
        row = on_clipped(np.full((1, 1), float(y0)))
        return lambda factor: row
    if not (callable(pi) or callable(xi) or model.family == "tabulated"):
        return on_clipped

    def in_bucket_order(y):
        flat = y.reshape(-1)
        lo, hi = float(flat.min()), float(flat.max())
        span = hi - lo
        scale = 65535.0 / span if 0.0 < span < math.inf else math.inf
        if scale == math.inf:  # constant, not finite or too narrow: path order
            return on_clipped(y)
        keys = flat - lo
        keys *= scale
        # A stable sort of 16-bit keys is a radix sort.
        order = np.argsort(keys.astype(np.uint16), kind="stable")

        def in_path_order(values):
            if np.ndim(values) == 0:
                return values
            out = np.empty(y.shape)
            out.reshape(-1)[order] = values
            return out

        return tuple(map(in_path_order, on_clipped(flat[order])))

    return in_bucket_order


def _sample_block(model, y0, dt, n_steps, seed, indices, antithetic):
    """(factor at the step starts, increments sqrt(dt) z) of a block of diffusion paths.

    Path ``idx`` draws the first ``n_steps`` normals z of its own Philox
    stream: the factor normals of an Euler family, whose factor is the
    full-truncation Euler path they drive (stored clipped, as a step reads
    it), or the asset normals of black_scholes (whose factor is one column
    holding ``y0``).  With
    ``antithetic``, paths 2k and 2k+1 share stream k with flipped signs.
    """
    dw = np.empty((indices.shape[0], n_steps))
    stream = _path_streams(seed)
    for row, idx in enumerate(indices):
        stream(idx // 2 if antithetic else idx).standard_normal(out=dw[row])
    # sign * (sqrt(dt) * z) in one pass: with sign = +-1 the product is exact.
    dw *= math.sqrt(dt) * (np.where(indices % 2 == 1, -1.0, 1.0)[:, None] if antithetic else 1.0)
    if model.family == "black_scholes":
        return np.full((indices.shape[0], 1), float(y0)), dw
    # The coefficient closures themselves: each step reads a value clipped
    # into the closed interval, which the public methods' check never refuses.
    (lo, hi), a, b = model.interval, model._a, model._b
    clip = np.isfinite(lo) or np.isfinite(hi)
    factor = np.empty(dw.shape)
    y = np.full(dw.shape[0], float(y0))
    # Time-major chunks of about _SLICE_ELEMENTS path-steps: each step reads
    # and writes one contiguous row, not a strided column of the block.
    chunk = max(1, _SLICE_ELEMENTS // dw.shape[0])
    factor_rows, dw_rows = np.empty((2, min(chunk, n_steps), dw.shape[0]))
    for k in range(0, n_steps, chunk):
        part = slice(k, min(k + chunk, n_steps))
        rows = part.stop - k
        dw_rows[:rows] = dw[:, part].T
        for yc, w in zip(factor_rows[:rows], dw_rows):
            if clip:
                np.clip(y, lo, hi, out=yc)
            else:
                yc[:] = y
            y = y + a(yc) * dt + b(yc) * w
        factor[:, part] = factor_rows[:rows].T
    return factor, dw


def _wealth_kernel(lookup, R, dt, factor, dw):
    """Utility flow of a block of paths, (paths, n_steps) like ``dw``.

    ``factor`` and the sampled increments ``dw`` come from
    :func:`_sample_block` and ``lookup`` from :func:`_step_coefficients`.
    Left-endpoint rule: step k's flow is dt / (1-R) exp(start_k + the sum of
    the steps rate dt + weight dw before k), one cumulative sum per path.
    """
    rate, weight, start = lookup(factor)
    steps = weight * dw
    steps += rate * dt
    flow = np.zeros(dw.shape)
    np.cumsum(steps[:, :-1], axis=1, out=flow[:, 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        flow += start
        np.exp(flow, out=flow)
    flow *= dt / (1.0 - R)
    return flow


def _stretch_integrals(rate, exponent, length):
    """int_0^length exp(exponent + rate t) dt per stretch, exactly 0 where length <= 0.

    That is exp(exponent) expm1(rate length) / rate, or length exp(exponent)
    where rate = 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.divide(np.expm1(rate * length), rate, out=length.copy(), where=rate != 0.0)
        return np.where(length > 0.0, np.exp(exponent) * ratio, 0.0)


def _conditional_values(coefficients, R, T, times, states):
    """(E[J | chain], its part from 0.9 T on) for each embedded chain.

    Given the chain, log wealth moves by normal steps, so
    E[flow_t | chain] = exp(start_{s_t} + int_0^t rate_{s_u} du) / (1-R),
    from the per-state rows ``coefficients`` of :func:`_step_coefficients`
    at share c = 0, whose drift already holds the integrated asset
    variance.  ``times`` and ``states`` come from :func:`_embedded_chains`.
    The events cut [0, T] into stretches of one (rate, start), each
    integrated over its event times in closed form.  An event that leaves
    (rate, start) unchanged does not cut, so chains with equal coefficient
    paths give bitwise equal values; the sums run in sequence, where the
    zero terms of uncut events and padding add exactly nothing.
    """
    rate, _, start = coefficients
    rate, start = rate[states], start[states]
    cut = (rate[:, 1:] != rate[:, :-1]) | (start[:, 1:] != start[:, :-1])
    begins = np.zeros(rate.shape)
    np.maximum.accumulate(np.where(cut, np.minimum(times, T), 0.0), axis=1, out=begins[:, 1:])
    ends = np.append(begins[:, 1:], np.full((len(begins), 1), T), axis=1)
    exponent = np.zeros(rate.shape)
    np.cumsum((rate * (ends - begins))[:, :-1], axis=1, out=exponent[:, 1:])
    exponent += start
    return tuple(
        np.cumsum(_stretch_integrals(rate, exponent + rate * (s - begins), ends - s), axis=1)[:, -1]
        / (1.0 - R)
        for s in (begins, np.maximum(begins, 0.9 * T))
    )


def _step_count(T, dt):
    """Steps of length dt over [0, T]; ValueError unless 0 < dt <= T and T, T / dt are finite."""
    T, dt = float(T), float(dt)
    if not (0.0 < dt <= T and math.isfinite(T) and math.isfinite(T / dt)):
        raise ValueError(f"need 0 < dt <= T with finite T, dt and T / dt; got T = {T}, dt = {dt}")
    return int(round(T / dt))


def _worker_count():
    """Threads for the path blocks: ``MERTON_FACTOR_THREADS``, 1 when unset or empty."""
    raw = os.environ.get("MERTON_FACTOR_THREADS", "").strip()
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError as exc:
        raise ValueError(f"MERTON_FACTOR_THREADS must be an integer, got {raw!r}") from exc


def _map_ordered(fn, items):
    """``[fn(item) for item in items]``, across up to :func:`_worker_count` threads."""
    workers = min(_worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def estimate_value(model, policy, x0, y0, T, dt, n_paths, seed, antithetic=False):
    """Estimate the value of a policy by averaging path objectives.

    ``policy`` is a (pi, xi) pair: scalars, per-state arrays (regime) or
    callables of the factor value.  A diffusion's callable must act
    elementwise: it is called on arrays of factor values of any shape, and
    on the Euler route on each slice's values in bucket order (sorted by a
    16-bit key), so it may receive any permutation of them.  A regime model calls it once on
    ``arange(n_states)``, where a scalar result holds in every state.  A
    scalar is used as it is and never called.  With
    ``antithetic=True`` (an even count of at least 4 paths) consecutive
    paths share one noise stream with flipped signs and the standard error
    is computed over pair averages.

    A path's value is E[J | factor path]: the mean of the realized
    objective J with no more variance, the asset noise perpendicular to
    the factor integrated out, not drawn.  A regime path's value is
    E[J | chain] of the integral over [0, T], so it does not read ``dt``.
    A diffusion path keeps the left-endpoint rule on the grid of step
    ``dt`` and reads only the first ``n_steps`` normals of its stream; for
    black_scholes these are the asset normals and its value is its realized
    J.  An antithetic pair shares its chain, so antithetic buys nothing for
    a regime model.  When every path value is equal (say, a policy that
    invests nothing, or a chain that cannot change the coefficients) the
    estimate is reported with SE exactly 0.
    """
    if not 0.0 < x0 < math.inf:
        raise ValueError(f"initial wealth must be positive and finite, got {x0}")
    n_steps = _step_count(T, dt)
    if not (float(n_paths).is_integer() and n_paths >= 2):
        raise ValueError(f"n_paths must be an integer of at least 2, got {n_paths}")
    n_paths = int(n_paths)
    if not (float(seed).is_integer() and 0 <= seed < 2**128):
        raise ValueError(f"seed must be an integer in 0..2^128 - 1, got {seed}")
    if antithetic and (n_paths % 2 != 0 or n_paths < 4):
        raise ValueError("antithetic sampling needs an even path count of at least 4")
    coefficients = _step_coefficients(model, policy, x0, y0)
    regime = isinstance(model, RegimeModel)

    values = np.empty(n_paths)
    tails = np.empty(n_paths)
    k_tail = int(round(0.9 * n_steps))
    # A chain block's size does not depend on dt, which the chain route never reads.
    block = 256 if regime else max(16, min(n_paths, 1_000_000 // n_steps + 1))
    ranges = [(start, min(start + block, n_paths)) for start in range(0, n_paths, block)]
    rows = max(1, _SLICE_ELEMENTS // n_steps)

    def run(bounds):
        start, stop = bounds
        indices = np.arange(start, stop)
        block_values, block_tails = values[start:stop], tails[start:stop]
        if regime:
            stream = _path_streams(seed)
            rngs = (stream(idx // 2 if antithetic else idx) for idx in indices)
            chains = _sample_chains(model.Q, y0, T, rngs)
            block_values[:], block_tails[:] = _conditional_values(coefficients, model.R, T, *chains)
            return
        factor, dw_asset = _sample_block(model, y0, dt, n_steps, seed, indices, antithetic)
        for lo in range(0, stop - start, rows):
            part = slice(lo, lo + rows)
            flow = _wealth_kernel(coefficients, model.R, dt, factor[part], dw_asset[part])
            block_values[part] = flow.sum(axis=1)
            block_tails[part] = flow[:, k_tail:].sum(axis=1)

    _map_ordered(run, ranges)
    nan_paths = np.flatnonzero(np.isnan(values))
    if nan_paths.size:
        raise ValueError(
            f"path {nan_paths[0]}'s value is NaN: the policy has xi < 0 or a NaN pi or xi on it"
        )

    mean = float(np.mean(values))
    # Infinite path values (zero consumption with R > 1) make the standard
    # error undefined; report NaN quietly instead of warning.  Equal values
    # have SE 0, where np.std of them may leave a rounding residue.
    with np.errstate(invalid="ignore"):
        if np.ptp(values) == 0.0:
            se = 0.0
        elif antithetic:
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
