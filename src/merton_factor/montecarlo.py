"""Monte Carlo cross-verification of policies and value functions.

Wealth under a policy (pi, xi) follows, in log form,

    d log X = (r + pi lambda sigma - xi - pi^2 sigma^2 / 2) dt + pi sigma dW,

and the realized objective of one path is the discounted utility integral

    J = int_0^T exp(-int_0^t delta ds) (xi_t X_t)^(1-R) / (1-R) dt,

accumulated with the left-endpoint rule on the grid t_k = k dt.

The factor never depends on wealth, and the asset noise is
dW = rho dW~ + sqrt(1-rho^2) dW_perp with dW_perp independent of the
factor's dW~.  Given the factor path each log-wealth step is normal, so an
estimate draws no perpendicular noise: a path's value is E[J | factor
path], the exact conditional expectation of the left-endpoint objective on
the same grid (conditional Monte Carlo), with the mean of J and no more
variance.  black_scholes has no factor noise; its value is the realized J.

A diffusion path is simulated in two stages.  A sampler draws the path's
increments and from them the factor at the step starts by Euler (full
truncation at the boundary of the state space; none for black_scholes).
Then one wealth kernel turns those arrays into each step's utility flow,
from log wealth and the discount at the step's start.  It reads four step
coefficients, drift * dt, vol, delta * dt and log xi: one row at ``y0``
for black_scholes, so its discount is one cumulative sum shared by every
path; for other diffusions, values on the clipped factor.  Paths are
sampled in blocks of about 10^6 path-steps; the kernel runs on row slices
of at most ``_SLICE_ELEMENTS`` path-steps, so its temporaries stay small.
A callable policy, and a tabulated model's coefficients, see each slice's
factor values in sorted order, so a search such as ``np.interp`` finds
each key next to the last.  Policy and coefficient functions are applied
elementwise: they may receive any permutation of the factor values, and
the results do not depend on it.

A regime chain is sampled exactly by uniformization and is independent of
the asset noise, so a path's value is E[J | chain], from per-state tables
built once per call: over a stretch of steps in one state it is a
geometric sum in closed form, so the work per path is one term per chain
event.

Reproducibility: path i draws from the 2^128 counter block i of one Philox
key (the seed); a block of paths keeps one Philox and resets its counter
per path.  A regime path reads from its stream, in order, its event count
N ~ Poisson(Lambda T), N uniforms for the event times and N uniforms for
the moves; a diffusion path reads its n_steps factor normals (the asset
normals for black_scholes).
Blocks are index-addressed and reduced in a fixed order, so results are
bitwise identical for any worker count (``MERTON_FACTOR_THREADS``).
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._parallel import map_ordered
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


def default_horizon(min_eta, cutoff=1e-4):
    """Horizon T with exp(-min_eta * T) < cutoff (discounted flow decays at eta)."""
    if not 0.0 < min_eta < math.inf:
        raise ValueError(f"default horizon needs a positive finite minimal eta, got {min_eta}")
    return math.log(1.0 / cutoff) / min_eta


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


def _grid_edges(times, n_steps, dt):
    """Index of the first step whose start t_k = k dt is not before each event
    (n_steps where none is): ceil(t / dt), moved by one step where rounding of
    the quotient or of k dt put it off that step."""
    k = np.ceil(np.minimum(times / dt, n_steps)).astype(np.intp)
    k -= (k > 0) & ((k - 1) * dt >= times)
    k += (k < n_steps) & (k * dt < times)
    return k


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


def _clipper(model):
    """``clip(y)``: y clipped to the model's state interval; y itself where no end is finite."""
    lo, hi = model.interval
    if np.isfinite(lo) or np.isfinite(hi):
        return lambda y: np.clip(y, lo, hi)
    return lambda y: y


def _step_coefficients(model, policy, dt, y0, n_steps):
    """``lookup(factor)``: (drift * dt, vol, delta * dt, log xi) at a factor block.

    The kernel weights the sampled normals by vol = pi sigma c, c being the
    share of the asset noise they carry: 1 for black_scholes, rho for an
    Euler factor's normals, 0 for a regime chain.
    drift = r + pi lambda sigma - xi - h pi^2 sigma^2 with
    h = (1 - (1-R)(1 - c^2)) / 2 also holds the conditional mean of the
    noise integrated out; at c = 1, h is exactly 1/2.  A regime model's
    four form a table with one row per state (the policy is called on
    ``arange(n_states)``), gathered by state in one pass; black_scholes has
    one row of ``n_steps`` at ``y0``, shared by every path; other diffusions
    evaluate the coefficients and the policy on the clipped factor.  There,
    when a policy is a callable or the model is tabulated, they see the
    slice's values in sorted order (one argsort) and the four results are
    put back in path order: a search such as ``np.interp`` then finds each
    key next to the previous one, and as every callable is elementwise the
    results are the same bits.  A scalar policy stays a float and is never
    called.  A diffusion's ``y0`` must be a finite point of the closed
    state interval.
    """
    pi, xi = _normalize_policy(model, policy)
    regime = isinstance(model, RegimeModel)
    if not (regime or isinstance(model, DiffusionModel)):
        raise ModelError(f"cannot simulate model of type {type(model).__name__}")
    share = 0.0 if regime else 1.0 if model.family == "black_scholes" else model.rho
    h = 0.5 * (1.0 - (1.0 - model.R) * (1.0 - share * share))

    def at(y, r, lam, sig, delta):
        pi_s = pi(y) if callable(pi) else pi
        xi_s = xi(y) if callable(xi) else xi
        # pi_s * pi_s, not pi_s**2: a float's ** is libm pow, an array's is x * x.
        drift = (r + pi_s * lam * sig - xi_s - h * (pi_s * pi_s) * sig**2) * dt
        # log of xi < 0 is NaN, which the estimator refuses with the path.
        with np.errstate(divide="ignore", invalid="ignore"):
            return drift, pi_s * sig * share, delta * dt, np.log(xi_s)

    if regime:
        states = np.arange(model.n_states)
        table = np.stack(
            np.broadcast_arrays(*at(states, model.r, model.lam, model.sigma, model.delta)), axis=1
        )
        return lambda factor: np.moveaxis(table.take(factor, axis=0), -1, 0)
    lo, hi = model.interval
    if not (math.isfinite(y0) and lo <= y0 <= hi):
        raise ValueError(f"initial factor {y0} is not a finite point of [{lo}, {hi}]")

    def on_clipped(y):
        return at(y, model.r(y), model.lam(y), model.sigma(y), model.delta(y))

    if model.family == "black_scholes":
        row = on_clipped(np.full((1, n_steps), float(y0)))
        return lambda factor: row
    clip = _clipper(model)
    if not (callable(pi) or callable(xi) or model.family == "tabulated"):
        return lambda factor: on_clipped(clip(factor))

    def in_sorted_order(factor):
        y = clip(factor)
        order = np.argsort(y, axis=None)

        def in_path_order(values):
            if np.ndim(values) == 0:
                return values
            out = np.empty(y.shape)
            out.reshape(-1)[order] = values
            return out

        return tuple(map(in_path_order, on_clipped(y.reshape(-1)[order])))

    return in_sorted_order


def _sample_block(model, y0, dt, n_steps, seed, indices, antithetic):
    """(factor at the step starts, increments sqrt(dt) z) of a block of diffusion paths.

    Path ``idx`` draws the first ``n_steps`` normals z of its own Philox
    stream: the factor normals of an Euler family, whose factor is the
    full-truncation Euler path they drive, or the asset normals of
    black_scholes (whose factor is one column holding ``y0``).  With
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
    clip, a, b = _clipper(model), model.a, model.b
    factor = np.empty(dw.shape)
    y = np.full(dw.shape[0], float(y0))
    for k in range(n_steps):
        factor[:, k] = y
        yc = clip(y)
        y = y + a(yc) * dt + b(yc) * dw[:, k]
    return factor, dw


def _wealth_kernel(lookup, R, x0, dt, factor, dw):
    """Utility flow of a block of paths, (paths, n_steps) like ``dw``.

    ``factor`` and the sampled increments ``dw`` come from
    :func:`_sample_block` and ``lookup`` from :func:`_step_coefficients`.
    Column k of log wealth and of the discount exponent is the value at
    t_k (the discount may be one row shared by every path).
    """
    drift, vol, delta_dt, log_xi = lookup(factor)
    increments = vol * dw
    increments += drift
    log_x = np.zeros(dw.shape)
    np.cumsum(increments[:, :-1], axis=1, out=log_x[:, 1:])
    log_x += math.log(x0)
    disc = np.zeros((delta_dt.shape[0], dw.shape[1]))
    np.cumsum(delta_dt[:, :-1], axis=1, out=disc[:, 1:])
    # Left-endpoint rule: step k reads wealth and discount at its start.  The
    # exponent is (1-R) log c - disc; at c = 0 it is -inf for R < 1 (flow 0)
    # and +inf for R > 1 (flow -inf).
    log_c = np.add(log_xi, log_x, out=log_x)
    with np.errstate(over="ignore", invalid="ignore"):
        flow = np.multiply(log_c, 1.0 - R, out=log_c)
        flow -= disc
        np.exp(flow, out=flow)
        flow /= 1.0 - R
    flow *= dt
    return flow


def _stretch_sums(log_w, a, m, start):
    """sum_{i<m} exp(log_w + start + i a) per stretch, exactly 0 where m = 0.

    That is exp(log_w + start) expm1(m a) / expm1(a), or m exp(log_w + start)
    where a = 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.divide(np.expm1(m * a), np.expm1(a), out=m.astype(float), where=a != 0.0)
        return np.where(m > 0, np.exp(log_w + start) * ratio, 0.0)


def _conditional_values(model, lookup, x0, dt, n_steps, k_tail, times, states):
    """(E[J | chain], its part from step ``k_tail`` on) for each embedded chain.

    Given the chain, each step's log-wealth increment is normal, so
    E[flow_k | chain] = dt / (1-R) exp(log w_{s_k} + sum_{j<k} a_{s_j}) with
    a = (1-R) drift dt - delta dt and log w = (1-R)(log xi + log x0), from
    the per-state tables of ``lookup`` at share c = 0, whose drift already
    holds the integrated asset variance.
    ``times`` and ``states`` come from :func:`_embedded_chains`.  The events
    cut the grid into stretches (step counts from :func:`_grid_edges`),
    each summed in closed form.  An event that leaves
    (a, log w) unchanged does not cut, so chains with equal coefficient
    paths give bitwise equal values; the sums run in sequence, where the
    zero terms of uncut events and padding add exactly nothing.
    """
    R = model.R
    drift, _, delta_dt, log_xi = lookup(np.arange(model.n_states))
    a = ((1.0 - R) * drift - delta_dt)[states]
    log_w = ((1.0 - R) * (log_xi + math.log(x0)))[states]
    cut = (a[:, 1:] != a[:, :-1]) | (log_w[:, 1:] != log_w[:, :-1])
    starts = np.zeros(states.shape, np.intp)
    edges = np.where(cut, _grid_edges(times, n_steps, dt), 0)
    np.maximum.accumulate(edges, axis=1, out=starts[:, 1:])
    counts = np.diff(starts, axis=1, append=n_steps)
    exponent = np.zeros(a.shape)
    np.cumsum(counts[:, :-1] * a[:, :-1], axis=1, out=exponent[:, 1:])
    tail_starts = np.maximum(starts, k_tail)
    tail_counts = np.maximum(starts + counts - tail_starts, 0)
    tail_exponent = exponent + (tail_starts - starts) * a
    return tuple(
        np.cumsum(_stretch_sums(log_w, a, m, e), axis=1)[:, -1] / (1.0 - R) * dt
        for m, e in ((counts, exponent), (tail_counts, tail_exponent))
    )


def _step_count(T, dt):
    """Steps of length dt over [0, T]; ValueError unless 0 < dt <= T and T, T / dt are finite."""
    T, dt = float(T), float(dt)
    if not (0.0 < dt <= T and math.isfinite(T) and math.isfinite(T / dt)):
        raise ValueError(f"need 0 < dt <= T with finite T, dt and T / dt; got T = {T}, dt = {dt}")
    return int(round(T / dt))


def estimate_value(model, policy, x0, y0, T, dt, n_paths, seed, antithetic=False):
    """Estimate the value of a policy by averaging path objectives.

    ``policy`` is a (pi, xi) pair: scalars, per-state arrays (regime) or
    callables of the factor value.  A diffusion's callable must act
    elementwise: it is called on arrays of factor values of any shape, and
    on the Euler route on each slice's values in sorted order, so it may
    receive any permutation of them.  A regime model calls it once on
    ``arange(n_states)``, where a scalar result holds in every state.  A
    scalar is used as it is and never called.  With
    ``antithetic=True`` (an even count of at least 4 paths) consecutive
    paths share one noise stream with flipped signs and the standard error
    is computed over pair averages.

    A path's value is E[J | factor path] on the same grid: the mean of the
    realized objective J with no more variance, the asset noise
    perpendicular to the factor integrated out, not drawn.  A diffusion
    path reads only the first ``n_steps`` normals of its stream; for
    black_scholes these are the asset normals and its value is its realized
    J.  An antithetic pair shares its chain, so antithetic buys nothing for
    a regime model.  When every path value is equal (say, a policy that
    invests nothing, or a chain that cannot change the coefficients) the
    estimate is reported with SE exactly 0.
    """
    if not 0.0 < x0 < math.inf:
        raise ValueError(f"initial wealth must be positive and finite, got {x0}")
    n_steps = _step_count(T, dt)
    n_paths = int(n_paths)
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    if antithetic and (n_paths % 2 != 0 or n_paths < 4):
        raise ValueError("antithetic sampling needs an even path count of at least 4")
    lookup = _step_coefficients(model, policy, dt, y0, n_steps)
    regime = isinstance(model, RegimeModel)

    values = np.empty(n_paths)
    tails = np.empty(n_paths)
    k_tail = int(round(0.9 * n_steps))
    block = max(16, min(n_paths, 1_000_000 // max(n_steps, 1) + 1))
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
            block_values[:], block_tails[:] = _conditional_values(
                model, lookup, x0, dt, n_steps, k_tail, *chains
            )
            return
        factor, dw_asset = _sample_block(model, y0, dt, n_steps, seed, indices, antithetic)
        for lo in range(0, stop - start, rows):
            part = slice(lo, lo + rows)
            flow = _wealth_kernel(lookup, model.R, x0, dt, factor[part], dw_asset[part])
            block_values[part] = flow.sum(axis=1)
            block_tails[part] = flow[:, k_tail:].sum(axis=1)

    map_ordered(run, ranges)
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
