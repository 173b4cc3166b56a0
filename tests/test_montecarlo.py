"""Monte Carlo estimator: exactness, reproducibility, statistics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import oracles
from merton_factor import (
    IllPosedError,
    ModelError,
    RegimeModel,
    estimate_value,
    load_model,
    sample_ctmc_path,
    solve,
    solve_regime,
)
from merton_factor import montecarlo
from merton_factor._parallel import map_ordered
from merton_factor.montecarlo import default_horizon


def flat_regime(R=2.0):
    """Two-state model whose r and delta do not depend on the state."""
    return load_model(
        {
            "family": "regime",
            "Q": [[-1.0, 1.0], [2.0, -2.0]],
            "r": [0.02, 0.02],
            "lambda": [0.4, 0.1],
            "sigma": [0.25, 0.2],
            "delta": [0.1, 0.1],
            "R": R,
        }
    )


def three_state_regime():
    """Unequal exit rates (so uniformization has self-events) and state 2 absorbing."""
    return load_model(
        {
            "family": "regime",
            "Q": [[-3.0, 2.0, 1.0], [0.5, -1.0, 0.5], [0.0, 0.0, 0.0]],
            "r": [0.02, 0.01, 0.03],
            "lambda": [0.4, 0.1, 0.2],
            "sigma": [0.25, 0.2, 0.3],
            "delta": [0.3, 0.18, 0.2],
            "R": 2.0,
        }
    )


def _grid_chains(model, y0, T, dt, n_steps, seed, n_paths):
    """The estimator's chains of paths 0..n_paths-1 at the step starts."""
    stream = montecarlo._path_streams(seed)
    times, states = montecarlo._sample_chains(model.Q, y0, T, (stream(i) for i in range(n_paths)))
    edges = montecarlo._grid_edges(times, n_steps, dt)
    counts = np.diff(edges, axis=1, prepend=0, append=n_steps)
    return np.repeat(states.ravel(), counts.ravel()).reshape(-1, n_steps)


def _is_a_path_value(est, value):
    """Whether ``value`` is one of a 2-path estimate's two path values, to rtol 1e-12.

    With two paths, mean = (J0 + J1) / 2 and se = |J0 - J1| / 2.
    """
    assert est.paths == 2 and est.se > 0.0
    return min(abs(est.mean + s * est.se - value) for s in (-1.0, 1.0)) <= 1e-12 * abs(value)


def test_zero_investment_policy_is_deterministic_on_all_routes(bs_model, mpr_model):
    T, dt, xi = 25.0, 0.05, 0.05
    expected = oracles.deterministic_policy_value(1.0, 2.0, 0.1, 0.02, xi, T, dt)
    # np.std of equal values leaves a rounding residue unless the path count
    # is a power of two; the SE must be exactly 0 at every count.
    for n_paths in (16, 200, 1000):
        est = estimate_value(bs_model, (0.0, xi), 1.0, 0.0, T, dt, n_paths, seed=3)
        assert est.mean == pytest.approx(expected, rel=1e-10)
        assert est.se == 0.0, n_paths

    reg = flat_regime()
    est = estimate_value(reg, (0.0, xi), 1.0, 0, T, dt, 16, seed=3)
    assert est.mean == pytest.approx(expected, rel=1e-10)
    assert est.se == 0.0

    # Diffusion route: the factor path moves but cannot influence wealth
    # or discounting for the mpr family (constant r and delta).
    expected_mpr = oracles.deterministic_policy_value(1.0, 1.5, 0.05, 0.02, xi, T, dt)
    for n_paths in (16, 200, 1000):
        est = estimate_value(mpr_model, (0.0, xi), 1.0, 0.0, T, dt, n_paths, seed=3)
        assert est.mean == pytest.approx(expected_mpr, rel=1e-10)
        assert est.se == 0.0, n_paths


def test_constant_policy_estimator_is_unbiased(bs_model):
    T, dt, n = 40.0, 0.02, 4000
    pi, xi = 0.6, 0.07125
    exact = oracles.gbm_policy_expected_value(1.0, 2.0, 0.1, 0.02, 0.3, 0.25, pi, xi, T, dt)
    est = estimate_value(bs_model, (pi, xi), 1.0, 0.0, T, dt, n, seed=2024)
    z = (est.mean - exact) / est.se
    assert abs(z) < 4.0, f"z = {z}, mean = {est.mean}, exact = {exact}"
    assert est.paths == n
    assert est.horizon == T


def test_suboptimal_policies_estimate_below_optimum(bs_model):
    # With R > 1 values are negative; a clearly suboptimal policy must
    # score measurably lower (more negative) than the optimal one.
    T, dt, n = 40.0, 0.02, 3000
    opt = oracles.gbm_policy_expected_value(1.0, 2.0, 0.1, 0.02, 0.3, 0.25, 0.6, 0.07125, T, dt)
    bad = oracles.gbm_policy_expected_value(1.0, 2.0, 0.1, 0.02, 0.3, 0.25, 0.3, 0.12, T, dt)
    assert bad < opt
    est = estimate_value(bs_model, (0.3, 0.12), 1.0, 0.0, T, dt, n, seed=77)
    assert (est.mean - bad) / est.se == pytest.approx(0.0, abs=4.0)
    assert est.mean + 4.0 * est.se < opt


def test_regime_estimator_agrees_with_solver(regime2_model):
    sol = solve_regime(regime2_model)
    T = default_horizon(float(np.min(regime2_model.eta())))
    est = estimate_value(
        regime2_model, (sol.pi_hat, sol.u), 1.0, 0, T, 0.05, 2000, seed=11
    )
    solver_value = sol.value(1.0, 0)
    # Allow a left-endpoint quadrature bias of order dt on top of 4 SE.
    slack = 4.0 * est.se + 0.02 * abs(solver_value)
    assert abs(est.mean - solver_value) <= slack


def test_diffusion_estimator_agrees_with_solver(mpr_model):
    sol = solve(mpr_model, -3.0, 3.0, 1200)
    grid = sol.grid

    def pi_fn(y):
        return np.interp(y, grid, sol.pi_hat)

    def xi_fn(y):
        return np.interp(y, grid, sol.u)

    T = 120.0
    est = estimate_value(mpr_model, (pi_fn, xi_fn), 1.0, 0.0, T, 0.05, 1200, seed=8)
    f0 = float(np.interp(0.0, grid, sol.f))
    solver_value = 1.0 ** (-0.5) / (-0.5) * f0
    slack = 4.0 * est.se + 0.03 * abs(solver_value)
    assert abs(est.mean - solver_value) <= slack


def test_antithetic_pairing_reduces_variance(bs_model):
    T, dt, n = 30.0, 0.05, 2000
    exact = oracles.gbm_policy_expected_value(1.0, 2.0, 0.1, 0.02, 0.3, 0.25, 0.6, 0.07125, T, dt)
    plain = estimate_value(bs_model, (0.6, 0.07125), 1.0, 0.0, T, dt, n, seed=5)
    anti = estimate_value(bs_model, (0.6, 0.07125), 1.0, 0.0, T, dt, n, seed=5, antithetic=True)
    assert anti.se < plain.se
    assert abs(anti.mean - exact) < 5.0 * anti.se
    assert anti.antithetic is True
    assert anti.to_dict()["antithetic"] is True
    again = estimate_value(bs_model, (0.6, 0.07125), 1.0, 0.0, T, dt, n, seed=5, antithetic=True)
    assert again.mean == anti.mean and again.se == anti.se


_POLICY_GRID = np.linspace(-3.0, 3.0, 1201)


def _interp_policy():
    """Search-based policy functions, like the ``mc`` CLI's tables on a solver grid."""
    pi_table = 0.5 + 0.1 * np.tanh(_POLICY_GRID)
    xi_table = 0.06 + 0.01 * np.cos(_POLICY_GRID)
    return (
        lambda y: np.interp(y, _POLICY_GRID, pi_table),
        lambda y: np.interp(y, _POLICY_GRID, xi_table),
    )


def _route_policy(fixture):
    """A scalar policy, or a callable one for the Euler-factor route."""
    if fixture == "mpr_model":
        return (lambda y: 0.5 + 0.1 * np.tanh(y), lambda y: 0.06 + 0.01 * np.cos(y))
    if fixture == "mpr_interp":
        return _interp_policy()
    return (0.6, 0.07125)


@pytest.mark.parametrize("fixture", ["bs_model", "regime2_model", "mpr_model", "mpr_interp"])
def test_results_do_not_depend_on_worker_count(fixture, request, monkeypatch):
    # 1100 paths x 2000 steps make three blocks, so two workers really fan out.
    model = request.getfixturevalue("mpr_model" if fixture == "mpr_interp" else fixture)
    fanned_out = []

    def spy(fn, items):
        items = list(items)
        fanned_out.append(len(items))
        return map_ordered(fn, items)

    monkeypatch.setattr(montecarlo, "map_ordered", spy)
    results = []
    for workers in ("1", "2"):
        monkeypatch.setenv("MERTON_FACTOR_THREADS", workers)
        est = estimate_value(model, _route_policy(fixture), 1.0, 0, 20.0, 0.01, 1100, seed=42)
        results.append((est.mean, est.se, est.tail_mean))
    assert min(fanned_out) >= 2
    assert results[0] == results[1]


def _bits(values, shape):
    return np.ascontiguousarray(np.broadcast_to(np.asarray(values, float), shape)).view(np.uint64)


def _tabulated_model():
    y = np.linspace(-2.0, 3.0, 41)
    return load_model(
        {
            "family": "tabulated",
            "params": {
                "R": 0.5,
                "y": y.tolist(),
                "r": (0.02 + 0.005 * np.sin(y)).tolist(),
                "lambda": (0.3 + 0.1 * y).tolist(),
                "sigma": (0.2 + 0.02 * y**2).tolist(),
                "delta": (0.08 + 0.01 * np.cos(y)).tolist(),
                "a": (-0.5 * y).tolist(),
                "b": np.full(y.shape, 0.4).tolist(),
                "rho": 0.3,
            },
        }
    )


@pytest.mark.parametrize("case", ["mpr", "heston", "tabulated", "tabulated_scalar"])
def test_sorted_lookup_matches_path_order_bitwise(case, mpr_model, heston_model):
    # The Euler-factor lookup evaluates its callables on each slice in
    # sorted order; put back in path order, all four coefficients must be
    # the bits of the same formula evaluated on the slice as given.
    rng = np.random.default_rng(21)
    grid = np.linspace(0.0, 0.2, 301)
    models = {
        "mpr": (mpr_model, _interp_policy(), 0.0, 1.5),
        "heston": (
            heston_model,
            (lambda y: np.interp(y, grid, 0.5 + grid), lambda y: np.interp(y, grid, 0.05 + grid)),
            0.04,
            0.05,
        ),
        "tabulated": (_tabulated_model(), _interp_policy(), 0.1, 1.5),
        "tabulated_scalar": (_tabulated_model(), (0.4, 0.06), 0.1, 1.5),
    }
    model, policy, y0, spread = models[case]
    for _ in range(40):
        rows, n = int(rng.integers(1, 9)), int(rng.integers(1, 300))
        factor = y0 + spread * rng.standard_normal((rows, n))
        # Repeated keys: ties in the sort must not matter.
        factor.ravel()[::3] = np.round(factor.ravel()[::3], 1)
        # The estimator's factor normals carry a share rho of the asset noise.
        lookup = montecarlo._step_coefficients(model, policy, 0.05, y0, n)
        expected = oracles.step_coefficients_in_path_order(model, policy, 0.05, factor, model.rho)
        for got, want in zip(lookup(factor), expected, strict=True):
            assert np.array_equal(_bits(got, factor.shape), _bits(want, factor.shape))


def test_callable_policies_see_each_slice_in_sorted_order(mpr_model):
    calls = []

    def recording(fn):
        def policy(y):
            calls.append(bool(y.ndim == 1 and np.all(np.diff(y) >= 0.0)))
            return fn(y)

        return policy

    pi_fn, xi_fn = _interp_policy()
    policy = (recording(pi_fn), recording(xi_fn))
    # 300 paths x 400 steps: several kernel slices of one block.
    estimate_value(mpr_model, policy, 1.0, 0.0, 20.0, 0.05, 300, seed=4)
    assert len(calls) > 4 and all(calls)


def test_scalar_policy_is_never_called_per_slice(mpr_model, monkeypatch):
    assert montecarlo._normalize_policy(mpr_model, (0.2, np.float32(0.5))) == (0.2, 0.5)
    argsorts = []
    real_argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        argsorts.append(1)
        return real_argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    scalar = estimate_value(mpr_model, (0.2, 0.05), 1.0, 0.0, 20.0, 0.05, 300, seed=4)
    assert argsorts == []
    # The same constants as per-slice arrays take the sorted route, and give
    # the same bits.
    full = (lambda y: np.full(np.shape(y), 0.2), lambda y: np.full(np.shape(y), 0.05))
    as_arrays = estimate_value(mpr_model, full, 1.0, 0.0, 20.0, 0.05, 300, seed=4)
    assert argsorts
    assert (scalar.mean, scalar.se, scalar.tail_mean) == (
        as_arrays.mean,
        as_arrays.se,
        as_arrays.tail_mean,
    )


@pytest.mark.parametrize("fixture", ["regime2_model", "bs_model", "mpr_model"])
def test_estimator_working_memory(fixture, request, monkeypatch):
    # 1000 paths x 2000 steps run serially as two blocks of about 10^6
    # path-steps.  The sampled block plus the kernel's row slices must stay
    # below three block-sized float arrays (3 x 8 MB).
    monkeypatch.delenv("MERTON_FACTOR_THREADS", raising=False)
    model = request.getfixturevalue(fixture)
    tracemalloc.start()
    try:
        estimate_value(model, _route_policy(fixture), 1.0, 0, 100.0, 0.05, 1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, f"peak {peak / 1e6:.1f} MB"


def test_seed_reproducibility_and_sensitivity(bs_model):
    a = estimate_value(bs_model, (0.6, 0.07125), 1.0, 0.0, 10.0, 0.1, 300, seed=1)
    b = estimate_value(bs_model, (0.6, 0.07125), 1.0, 0.0, 10.0, 0.1, 300, seed=1)
    c = estimate_value(bs_model, (0.6, 0.07125), 1.0, 0.0, 10.0, 0.1, 300, seed=2)
    assert a.mean == b.mean and a.se == b.se
    assert a.mean != c.mean


def test_ctmc_occupation_matches_stationary_distribution():
    Q = [[-1.0, 1.0], [2.0, -2.0]]
    stationary = oracles.ctmc_stationary(Q)
    assert stationary == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=0, abs=1e-12)
    path = sample_ctmc_path(Q, 0, 4000.0, seed=7)
    holds = np.diff(path.times)
    assert len(path.states) == len(path.times) - 1  # one state per segment
    occupancy0 = float(np.sum(holds[path.states == 0]) / path.times[-1])
    assert occupancy0 == pytest.approx(2.0 / 3.0, abs=0.02)
    # Mean holding times approximate 1/rate out of each state (the final
    # segment is truncated at T, a negligible bias over 4000 time units).
    mean_hold0 = float(np.mean(holds[path.states == 0]))
    mean_hold1 = float(np.mean(holds[path.states == 1]))
    assert mean_hold0 == pytest.approx(1.0, rel=0.1)
    assert mean_hold1 == pytest.approx(0.5, rel=0.1)


def test_ctmc_path_structure():
    Q = [[-0.7, 0.7], [0.3, -0.3]]
    path = sample_ctmc_path(Q, 1, 50.0, seed=13)
    assert path.times[0] == 0.0
    assert path.times[-1] == 50.0
    assert np.all(np.diff(path.times) > 0.0)
    assert path.states[0] == 1
    assert set(np.unique(path.states)) <= {0, 1}
    # States alternate for a two-state chain.
    assert np.all(np.abs(np.diff(path.states)) == 1)
    same = sample_ctmc_path(Q, 1, 50.0, seed=13)
    assert np.array_equal(same.times, path.times)
    assert np.array_equal(same.states, path.states)


def test_uniformized_states_follow_the_transition_law():
    # The estimator's chains at several grid times against expm(Q t)[y0].
    model = three_state_regime()
    n_paths, T, dt, n_steps = 20_000, 3.0, 0.25, 12
    factor = _grid_chains(model, 0, T, dt, n_steps, 2027, n_paths)
    assert np.all(factor[:, 0] == 0)
    for k in (1, 2, 4, 8, 11):
        law = scipy.linalg.expm(model.Q * (k * dt))[0]
        freq = np.bincount(factor[:, k], minlength=3) / n_paths
        se = np.sqrt(law * (1.0 - law) / n_paths)
        assert np.all(np.abs(freq - law) <= 4.0 * se), (k, freq, law)


def test_single_state_chain_is_constant():
    # Lambda = 0: no events are drawn, and nothing divides by it.  Every
    # path is then one stretch with the same closed-form conditional value.
    one = load_model(
        {
            "family": "regime",
            "Q": [[0.0]],
            "r": [0.02],
            "lambda": [0.3],
            "sigma": [0.25],
            "delta": [0.1],
            "R": 2.0,
        }
    )
    with np.errstate(divide="raise", invalid="raise"):
        path = sample_ctmc_path(one.Q, 0, 5.0, seed=1)
        factor = _grid_chains(one, 0, 5.0, 0.5, 10, 1, 3)
        est = estimate_value(one, (0.6, 0.07125), 1.0, 0, 20.0, 0.05, 200, seed=4)
    assert np.array_equal(path.times, [0.0, 5.0]) and np.array_equal(path.states, [0])
    assert np.all(factor == 0)
    exact = oracles.gbm_policy_expected_value(
        1.0, 2.0, 0.1, 0.02, 0.3, 0.25, 0.6, 0.07125, 20.0, 0.05
    )
    assert est.mean == pytest.approx(exact, rel=1e-12)
    assert est.se == 0.0


def test_chain_event_counts_follow_the_poisson_law(regime2_model):
    # Each path's event count is Poisson(Lambda T), here Lambda T = 20, so
    # its mean and its variance are both Lambda T; the sample variance of
    # Poisson counts has variance (Lambda T + 2 (Lambda T)^2) / n.
    T, n_paths = 40.0, 2000
    stream = montecarlo._path_streams(3)
    rngs = (stream(i) for i in range(n_paths))
    times, _ = montecarlo._sample_chains(regime2_model.Q, 0, T, rngs)
    events = np.isfinite(times)
    counts = events.sum(axis=1)
    mean = 0.5 * T
    assert abs(counts.mean() - mean) <= 4.0 * math.sqrt(mean / n_paths)
    assert abs(counts.var(ddof=1) - mean) <= 4.0 * math.sqrt((mean + 2.0 * mean**2) / n_paths)
    assert np.all(times[:, 1:] >= times[:, :-1])
    assert np.all((times[events] >= 0.0) & (times[events] < T))


def test_an_event_time_rounded_up_to_T_is_dropped():
    # T u can round up to T for a uniform u < 1 (with a subnormal T); a stub
    # stream stands in for such a draw.  Its event and the last move go.
    class Stream:
        draws = [np.array([0.5, 1.0, 0.25]), np.array([0.1, 0.2, 0.3])]

        def poisson(self, mean):
            return 3

        def random(self, size):
            return self.draws.pop(0)[:size].copy()

    times, moves = montecarlo._chain_events(Stream(), 1.0, 2.0)
    assert times.tolist() == [0.5, 1.0] and moves.tolist() == [0.1, 0.2]


def test_grid_edges_match_a_binary_search():
    # 300 random grids; the event times include grid points, their
    # neighbours one ulp away, the end of the horizon and +inf pads.
    rng = np.random.default_rng(5)
    for _ in range(300):
        n_steps, dt = int(rng.integers(1, 5000)), float(rng.uniform(1e-3, 2.0))
        on_grid = np.arange(n_steps)[rng.integers(0, n_steps, 64)] * dt
        times = np.concatenate(
            [
                rng.uniform(0.0, 1.05 * n_steps * dt, 256),
                on_grid,
                np.nextafter(on_grid, np.inf),
                np.nextafter(on_grid, -np.inf).clip(0.0),
                [0.0, n_steps * dt, np.inf],
            ]
        ).reshape(11, -1)
        expected = oracles.grid_edges_by_search(times, n_steps, dt)
        assert np.array_equal(montecarlo._grid_edges(times, n_steps, dt), expected)


def test_regime_path_zero_follows_its_stream_by_loop():
    # Path 0 draws its event count, the time uniforms, then the move
    # uniforms; its value is E[J | chain] on the grid.  sample_ctmc_path is
    # the same chain without its self-events.
    model = three_state_regime()
    T, dt, seed, x0 = 2.0, 0.05, 17, 1.5
    n = int(round(T / dt))
    rng = np.random.Generator(np.random.Philox(key=seed, counter=0))
    times, states = oracles.uniformized_chain_by_loop(model.Q, 0, T, rng)
    chain = np.concatenate(([0], states))
    assert np.any(chain[1:] == chain[:-1])  # self-events occur
    on_grid = [chain[np.sum(times <= k * dt)] for k in range(n)]
    # A callable reads states as signed integers: s - 1 must not wrap at s = 0.
    policy = (lambda s: 0.5 + 0.1 * (s - 1), np.array([0.1, 0.12, 0.08]))
    est = estimate_value(model, policy, x0, 0, T, dt, 2, seed=seed)

    def coef(s):
        return model.r[s], model.lam[s], model.sigma[s], model.delta[s]

    value = oracles.conditional_value_by_loop(
        coef, model.R, policy[0], lambda s: policy[1][s], x0, dt, on_grid
    )
    assert _is_a_path_value(est, value)

    moved = np.flatnonzero(chain[1:] != chain[:-1])
    path = sample_ctmc_path(model.Q, 0, T, seed=seed)
    assert path.states.dtype == np.int64
    assert np.array_equal(path.times, np.concatenate(([0.0], times[moved], [T])))
    assert np.array_equal(path.states, np.concatenate(([0], states[moved])))


@pytest.mark.parametrize("y0", [0.7, -0.5, 1.9, 2, -1])
@pytest.mark.parametrize("entry", ["estimate_value", "sample_ctmc_path"])
def test_regime_initial_state_must_be_a_state_index(entry, y0, regime2_model):
    calls = {
        "estimate_value": lambda y: estimate_value(
            regime2_model, (0.5, 0.1), 1.0, y, 5.0, 0.5, 4, seed=1
        ),
        "sample_ctmc_path": lambda y: sample_ctmc_path(regime2_model.Q, y, 5.0, seed=1),
    }
    with pytest.raises(ValueError, match="initial state"):
        calls[entry](y0)
    result = calls[entry](1.0)  # an integral float names a state
    assert entry == "estimate_value" or result.states[0] == 1


@pytest.mark.parametrize(
    "Q",
    [
        [[1.0, -1.0], [1.0, -1.0]],
        [[-1.0, 2.0], [1.0, -1.0]],
        [[-1.0, 1.0]],
        [[-1.0, 1.0], [math.nan, 0.0]],
    ],
    ids=["negative-off-diagonal", "row-sum", "not-square", "not-finite"],
)
def test_sample_ctmc_path_refuses_non_generators(Q):
    with pytest.raises(ModelError):
        sample_ctmc_path(Q, 0, 5.0, seed=1)


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
def test_sample_ctmc_path_needs_a_positive_finite_horizon(T, regime2_model):
    with pytest.raises(ValueError, match=f"T = {T}$"):
        sample_ctmc_path(regime2_model.Q, 0, T, seed=1)


@pytest.mark.parametrize("fixture", ["regime2_model", "bs_model", "mpr_model", "heston_model"])
def test_path_values_are_the_conditional_loop_values(fixture, request):
    model = request.getfixturevalue(fixture)
    y0 = 0.035 if fixture == "heston_model" else 0
    policy = _route_policy(fixture)
    est = estimate_value(model, policy, 1.5, y0, 10.0, 0.05, 2, seed=9)
    # With two paths the estimate is mean = (J0 + J1) / 2, se = |J0 - J1| / 2.
    values = sorted(est.mean + s * est.se for s in (-1.0, 1.0))
    assert est.se > 0.0
    # Each path value is E[J | factor path]: the per-step loop on the chains
    # or the Euler factor paths of paths 0 and 1 (black_scholes: on its
    # asset normals, which carry all of the noise).  The tail is the part
    # from step round(0.9 n) on.
    n, k_tail, dt = 200, 180, 0.05
    pi, xi = (f if callable(f) else (lambda y, f=f: f) for f in policy)
    expected, tails = [], []
    for index in (0, 1):
        rng = np.random.Generator(np.random.Philox(key=9, counter=index << 128))
        if fixture == "regime2_model":
            times, states = oracles.uniformized_chain_by_loop(model.Q, 0, 10.0, rng)
            chain = np.concatenate(([0], states))
            factor = [chain[np.sum(times <= k * dt)] for k in range(n)]
            steps, rho, dw = factor, 0.0, np.zeros(n)

            def coef(s):
                return model.r[s], model.lam[s], model.sigma[s], model.delta[s]

        else:
            # A diffusion stream starts with the factor normals.
            dw = math.sqrt(dt) * rng.standard_normal(n)
            if fixture == "bs_model":
                steps, rho = np.zeros(n), 1.0
            else:
                lo = model.interval[0]
                factor = oracles.euler_factor_path(model.a, model.b, y0, lo, dt, dw)
                steps, rho = np.maximum(factor, lo), model.rho

            def coef(y):
                return model.r(y), model.lam(y), model.sigma(y), model.delta(y)

        def by_loop(k):
            return oracles.conditional_value_by_loop(
                coef, model.R, pi, xi, 1.5, dt, steps[:k], rho, dw[:k]
            )

        expected.append(by_loop(n))
        tails.append(expected[-1] - by_loop(k_tail))
    np.testing.assert_allclose(values, sorted(expected), rtol=1e-12)
    assert est.tail_mean == pytest.approx(np.mean(tails), rel=1e-10)


def _rough_heston(rho):
    """A Heston factor rough enough that its Euler path goes negative (truncation)."""
    return load_model(
        {
            "family": "heston",
            "params": {
                "R": 2.0, "delta": 0.02, "r": 0.013, "lambda": 1.66,
                "kappa": 2.0, "theta": 0.04, "nu": 0.39, "rho": rho,
            },
        }
    )


@pytest.mark.parametrize("rho", [1.0, -1.0])
@pytest.mark.parametrize("family", ["mpr", "heston"])
def test_fully_correlated_path_value_is_the_realized_objective(family, rho):
    # At |rho| = 1 the factor normals are the asset's: nothing is integrated
    # out, so path 0's value is the realized objective of the wealth loop
    # driven by rho times its factor increments.
    if family == "mpr":
        params = {"R": 1.5, "delta": 0.05, "r": 0.02, "sigma": 0.2, "kappa": 0.3, "theta": 0.5}
        model = load_model({"family": "mpr", "params": dict(params, nu=0.6, rho=rho)})
        y0, policy = 0.0, _route_policy("mpr_model")
    else:
        model, y0, policy = _rough_heston(rho), 0.035, (lambda y: 1.0 + y, 0.05)
    est = estimate_value(model, policy, 1.5, y0, 10.0, 0.05, 2, seed=9)
    n, dt, lo = 200, 0.05, model.interval[0]
    dw = math.sqrt(dt) * _path_zero_normals(9, n)
    factor = oracles.euler_factor_path(model.a, model.b, y0, lo, dt, dw)
    pi, xi = (f if callable(f) else (lambda y, f=f: f) for f in policy)

    def coef(y):
        return model.r(y), model.lam(y), model.sigma(y), model.delta(y)

    util = oracles.wealth_path_by_loop(
        coef, model.R, pi, xi, 1.5, dt, np.maximum(factor, lo), rho * dw
    )[2]
    assert _is_a_path_value(est, util[-1])


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("model", ["mpr", "heston"])
def test_euler_factor_paths_do_not_depend_on_the_asset_draws(model, antithetic, mpr_model):
    # The estimator draws only the factor normals of each stream.  Its Euler
    # paths are bitwise those driven by the first half of the stream's
    # 2 n_steps draws, the factor normals of a sampler that also draws the
    # perpendicular ones.
    model, y0 = (mpr_model, 0.0) if model == "mpr" else (_rough_heston(-0.84), 0.035)
    dt, n, seed, indices = 0.05, 300, 12, np.arange(6, 14)
    factor, dw = montecarlo._sample_block(model, y0, dt, n, seed, indices, antithetic)
    lo = model.interval[0]
    for row, idx in enumerate(indices):
        stream = idx // 2 if antithetic else idx
        rng = np.random.Generator(np.random.Philox(key=seed, counter=int(stream) << 128))
        z_factor, _ = rng.standard_normal((2, n))
        sign = -1.0 if antithetic and idx % 2 == 1 else 1.0
        increments = sign * (math.sqrt(dt) * z_factor)
        assert np.array_equal(dw[row], increments)
        expected = oracles.euler_factor_path(model.a, model.b, y0, lo, dt, increments)
        assert np.array_equal(factor[row], expected)
    assert model is mpr_model or np.any(factor < 0.0)


def _path_zero_normals(seed, count):
    """The first ``count`` standard normals of path 0's Philox stream."""
    return np.random.Generator(np.random.Philox(key=seed, counter=0)).standard_normal(count)


def test_black_scholes_path_value_matches_scalar_loop(bs_model):
    # black_scholes draws only asset normals and its factor stays at y0, so
    # path 0's value is the realized objective of the scalar wealth loop.
    T, dt, n, seed, x0 = 10.0, 0.05, 200, 5, 1.5
    policy = (lambda y: 0.6, lambda y: 0.07125)
    est = estimate_value(bs_model, policy, x0, 0.0, T, dt, 2, seed=seed)
    dw = math.sqrt(dt) * _path_zero_normals(seed, n)
    util = oracles.wealth_path_by_loop(
        lambda y: (0.02, 0.3, 0.25, 0.1), 2.0, *policy, x0, dt, np.zeros(n), dw
    )[2]
    assert _is_a_path_value(est, util[-1])


def test_regime_policy_forms_agree_bitwise(regime2_model):
    pi_arr, xi_arr = np.array([0.7, 0.3]), np.array([0.09, 0.05])
    # A callable's scalar result holds in every state.
    for forms in (
        ((pi_arr, xi_arr), (lambda s: pi_arr[s], lambda s: xi_arr[s])),
        ((0.5, xi_arr), (lambda s: 0.5, lambda s: xi_arr[s])),
    ):
        a, b = (estimate_value(regime2_model, f, 1.0, 0, 20.0, 0.05, 300, seed=8) for f in forms)
        assert (a.mean, a.se, a.tail_mean) == (b.mean, b.se, b.tail_mean)


def test_zero_consumption_semantics(bs_model):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_value(bs_model, (0.0, 0.0), 1.0, 0.0, 5.0, 0.25, 8, seed=1)
    assert est.mean == -math.inf
    assert math.isnan(est.se)

    low = load_model(
        {
            "family": "black_scholes",
            "params": {"R": 0.8, "delta": 0.1, "r": 0.02, "lambda": 0.3, "sigma": 0.25},
        }
    )
    est = estimate_value(low, (0.0, 0.0), 1.0, 0.0, 5.0, 0.25, 8, seed=1)
    assert est.mean == 0.0 and est.se == 0.0

    # Regime stretches without consumption add exactly 0 for R < 1 and make
    # the path value -inf for R > 1.
    policy = ([0.7, 0.3], [0.0, 0.05])
    est = estimate_value(flat_regime(R=0.6), policy, 1.0, 1, 20.0, 0.05, 400, seed=2)
    exact = oracles.regime_grid_value(flat_regime(R=0.6), policy, 1.0, 1, 20.0, 0.05)
    assert 0.0 < exact and abs(est.mean - exact) <= 4.0 * est.se
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_value(flat_regime(), policy, 1.0, 0, 20.0, 0.05, 40, seed=2)
    assert est.mean == -math.inf
    assert math.isnan(est.se)


@pytest.mark.parametrize(
    "policy", [(0.5, -0.1), (0.5, math.nan), (math.nan, 0.1)], ids=["xi<0", "nan-xi", "nan-pi"]
)
@pytest.mark.parametrize("fixture, y0", [("regime2_model", 0), ("mpr_model", 0.0)])
def test_a_nan_path_value_is_refused(fixture, y0, policy, request):
    # Refused with no RuntimeWarning first: this suite makes one an error.
    model = request.getfixturevalue(fixture)
    with pytest.raises(ValueError, match=r"^path 0's value is NaN: the policy has xi < 0"):
        estimate_value(model, policy, 1.0, y0, 5.0, 0.05, 20, seed=1)


def test_estimate_validation(bs_model, regime2_model):
    with pytest.raises(ValueError, match="initial wealth"):
        estimate_value(bs_model, (0.6, 0.07), 0.0, 0.0, 10.0, 0.1, 10, seed=1)
    with pytest.raises(ValueError, match="0 < dt <= T"):
        estimate_value(bs_model, (0.6, 0.07), 1.0, 0.0, 10.0, 20.0, 10, seed=1)
    with pytest.raises(ValueError, match="at least 2"):
        estimate_value(bs_model, (0.6, 0.07), 1.0, 0.0, 10.0, 0.1, 1, seed=1)
    for n_paths in (2, 5):  # SE over pair averages needs two pairs
        with pytest.raises(ValueError, match="antithetic"):
            estimate_value(
                bs_model, (0.6, 0.07), 1.0, 0.0, 10.0, 0.1, n_paths, seed=1, antithetic=True
            )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_value(bs_model, (0.4, 0.06), 1.0, 0.0, 10.0, 0.05, 4, seed=7, antithetic=True)
    assert math.isfinite(est.se) and est.se > 0.0
    for T, dt in ((math.inf, 0.1), (math.nan, 0.1), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="finite T, dt and T / dt"):
            estimate_value(bs_model, (0.6, 0.07), 1.0, 0.0, T, dt, 10, seed=1)
    with pytest.raises(ModelError):
        estimate_value(object(), (0.6, 0.07), 1.0, 0.0, 10.0, 0.1, 10, seed=1)
    with pytest.raises(ValueError, match="^pi must be scalar or callable for diffusion models$"):
        estimate_value(bs_model, ([0.6, 0.5], 0.07), 1.0, 0.0, 10.0, 0.1, 10, seed=1)
    with pytest.raises(ValueError, match="^xi must be scalar or one value per state$"):
        estimate_value(regime2_model, (0.5, [0.1, 0.1, 0.1]), 1.0, 0, 5.0, 0.05, 20, seed=1)


@pytest.mark.parametrize("fixture, y0", [("regime2_model", 0), ("bs_model", 0.0), ("mpr_model", 0.5)])
@pytest.mark.parametrize("T, dt", [(-5.0, 0.1), (0.0, 0.1), (1.0, 3.0)])
def test_both_entry_points_refuse_a_horizon_shorter_than_a_step(request, fixture, y0, T, dt):
    model = request.getfixturevalue(fixture)
    with pytest.raises(ValueError, match="need 0 < dt <= T"):
        estimate_value(model, (0.5, 0.1), 1.0, y0, T, dt, 10, seed=1)


@pytest.mark.parametrize("x0", [math.inf, math.nan], ids=["inf", "nan"])
def test_initial_wealth_must_be_finite(x0, regime2_model):
    with pytest.raises(ValueError, match="initial wealth"):
        estimate_value(regime2_model, (0.5, 0.1), x0, 0, 5.0, 0.05, 20, seed=1)


def test_tail_share_reporting(bs_model):
    est = estimate_value(bs_model, (0.6, 0.07125), 1.0, 0.0, 60.0, 0.05, 400, seed=11)
    assert est.tail_share == pytest.approx(abs(est.tail_mean) / abs(est.mean), rel=0, abs=1e-15)
    assert "final 10% of the horizon" in est.truncation_note
    assert est.tail_share < 0.05


def test_heston_full_truncation_stays_finite(heston_model):
    # Coarse dt lets the Euler factor go negative; the clipped coefficients
    # must keep every path finite.
    est = estimate_value(heston_model, (1.0, 0.05), 1.0, 0.035, 30.0, 0.05, 200, seed=6)
    assert math.isfinite(est.mean)
    assert math.isfinite(est.se)


def test_default_horizon_formula():
    assert default_horizon(0.1) == pytest.approx(math.log(1e4) / 0.1, rel=0, abs=1e-12)
    assert default_horizon(0.1, cutoff=1e-3) == pytest.approx(math.log(1e3) / 0.1, rel=0)
    for min_eta in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"positive finite minimal eta, got {min_eta}$"):
            default_horizon(min_eta)


@pytest.mark.parametrize(
    "fixture, y0",
    [
        ("mpr_model", math.nan),
        ("mpr_model", math.inf),
        ("mpr_model", -math.inf),
        ("heston_model", math.nan),
        ("heston_model", math.inf),
        ("heston_model", -1.0),
    ],
)
def test_diffusion_initial_factor_must_be_a_finite_point_of_the_interval(fixture, y0, request):
    model = request.getfixturevalue(fixture)
    with pytest.raises(ValueError, match="initial factor"):
        estimate_value(model, (0.5, 0.1), 1.0, y0, 5.0, 0.05, 20, seed=1)


def test_regime_policy_value_reproduces_the_solver_f():
    # AC4's random instances, given markets whose frozen rates are theirs:
    # at the optimal policy the Feynman-Kac value is the HJB's f.
    rng, market = np.random.default_rng(44), np.random.default_rng(7)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        Q, eta, R = oracles.random_regime_instance(rng, n)
        r, lam = market.uniform(0.0, 0.05, n), market.uniform(-0.5, 0.5, n)
        sigma = market.uniform(0.1, 0.4, n)
        delta = R * eta + (1.0 - R) * (r + lam**2 / (2.0 * R))
        model = RegimeModel(Q, r, lam, sigma, delta, R)
        np.testing.assert_allclose(model.eta(), eta, rtol=1e-12, atol=1e-15)
        try:
            sol = solve_regime(model, tol=1e-12)
        except IllPosedError:
            continue
        g = oracles.regime_policy_value(model, (sol.pi_hat, sol.u))
        np.testing.assert_allclose(g, sol.f, rtol=1e-8)
        checked += 1
    assert checked >= 30


def _ac10_cases(model):
    """AC10's regime estimates: the optimum, then its four perturbations."""
    sol = solve_regime(model)
    T = default_horizon(float(np.min(model.eta())))
    pi_hat, u_hat = np.asarray(sol.pi_hat), np.asarray(sol.u)
    cases = [((pi_hat, u_hat), T, 0.02, 30_000, 2026)]
    perturbed = [
        (pi_hat + 0.15, u_hat),
        (pi_hat - 0.15, u_hat),
        (pi_hat, u_hat * 1.2),
        (pi_hat, u_hat * 0.8),
    ]
    cases += [(policy, T, 0.05, 4000, 500 + k) for k, policy in enumerate(perturbed)]
    return sol, cases


@pytest.mark.parametrize(
    "case", range(7), ids=["optimum", "pi+", "pi-", "xi*1.2", "xi*0.8", "three_state", "flat"]
)
def test_regime_estimates_lie_within_4_se_of_the_grid_value(case, regime2_model):
    # Two-sided: the estimator's exact mean on its grid is known.
    if case < 5:
        model, y0 = regime2_model, 0
        policy, T, dt, n_paths, seed = _ac10_cases(regime2_model)[1][case]
    elif case == 5:
        model, y0 = three_state_regime(), 0
        policy = ([0.5, 0.4, 0.3], [0.1, 0.12, 0.08])
        T, dt, n_paths, seed = 20.0, 0.05, 4000, 31
    else:
        model, y0 = flat_regime(), 1
        policy, T, dt, n_paths, seed = ([0.7, 0.3], 0.06), 30.0, 0.05, 4000, 32
    exact = oracles.regime_grid_value(model, policy, 1.0, y0, T, dt)
    est = estimate_value(model, policy, 1.0, y0, T, dt, n_paths, seed=seed)
    assert est.se > 0.0
    assert abs(est.mean - exact) <= 4.0 * est.se, (est.mean - exact) / est.se


def test_grid_value_approaches_the_policy_value(regime2_model):
    # The two oracles agree up to the grid's O(dt) bias and the horizon.
    cases = _ac10_cases(regime2_model)[1]
    for policy, T, dt, _, _ in cases:
        g = oracles.regime_policy_value(regime2_model, policy)
        grid = oracles.regime_grid_value(regime2_model, policy, 1.0, 0, T, dt)
        assert grid == pytest.approx(-g[0], rel=0.02)
    assert -oracles.regime_policy_value(regime2_model, cases[0][0])[0] > max(
        -oracles.regime_policy_value(regime2_model, case[0])[0] for case in cases[1:]
    )


def test_absorbed_regime_estimate_is_exact():
    # From the absorbing state every path has one coefficient stretch.
    model = three_state_regime()
    policy = ([0.5, 0.4, 0.3], [0.1, 0.12, 0.08])
    est = estimate_value(model, policy, 1.0, 2, 20.0, 0.05, 300, seed=5)
    assert est.se == 0.0
    exact = oracles.regime_grid_value(model, policy, 1.0, 2, 20.0, 0.05)
    assert est.mean == pytest.approx(exact, rel=1e-12)


def test_regime_antithetic_pairs_share_their_value(regime2_model):
    # A pair shares its chain, so its two conditional values are equal and
    # the pair SE is the SE of half as many plain paths.
    plain = estimate_value(regime2_model, (0.5, 0.1), 1.0, 0, 20.0, 0.05, 150, seed=8)
    anti = estimate_value(
        regime2_model, (0.5, 0.1), 1.0, 0, 20.0, 0.05, 300, seed=8, antithetic=True
    )
    assert anti.mean == pytest.approx(plain.mean, rel=1e-12)
    assert anti.se == pytest.approx(plain.se, rel=1e-12)
