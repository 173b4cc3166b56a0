"""Independent reference implementations used to freeze expected test values.

Everything here is derived from first principles with dense numpy/scipy
primitives and deliberately shares no code or algorithm with the package:
determinant-based minor checks, the leading-minor ratio recursion of a
tridiagonal in plain floats, inverse-nonnegativity M-matrix checks, a
log-space damped Newton root-finder, the constant Newton start that the
witness start replaced and plain dense Newton iterates, closed-form value
formulas for constant-coefficient markets, scalar per-step loops of the
Monte Carlo objective and segment-by-segment chain integrals, the step
coefficients evaluated on a factor slice in its path order, exact regime
policy values (a matrix-power recursion on a time grid, a matrix
exponential over [0, T] and a Feynman-Kac linear solve), a binary search
for a step grid's event edges, and numpy's own row-by-row text writer for
solution tables.
"""

import io
import math

import numpy as np
import scipy.linalg
import scipy.optimize


def leading_minors(A):
    """Leading principal minors det(A[:k, :k]) for k = 1..n via np.linalg.det."""
    A = np.asarray(A, dtype=float)
    return np.array([np.linalg.det(A[:k, :k]) for k in range(1, A.shape[0] + 1)])


def tridiagonal_ratios(main, sub, sup):
    """Leading-minor ratios r_1 = main_1, r_i = main_i - sub_(i-1) sup_(i-1) / r_(i-1),
    up to and including the first not above 1e-300, by a plain-float loop."""
    main, sub, sup = (np.asarray(band, dtype=float).tolist() for band in (main, sub, sup))
    ratios = [main[0]]
    for i in range(1, len(main)):
        if not ratios[-1] > 1e-300:
            break
        ratios.append(main[i] - sub[i - 1] * sup[i - 1] / ratios[-1])
    return np.array(ratios)


def is_m_matrix_by_minors(A):
    """Nonsingular M-matrix test: Z-matrix with all leading minors positive."""
    A = np.asarray(A, dtype=float)
    off = A - np.diag(np.diag(A))
    if np.any(off > 0.0):
        return False
    return bool(np.all(leading_minors(A) > 0.0))


def is_m_matrix_by_inverse(A):
    """Nonsingular M-matrix test: Z-matrix whose inverse is nonnegative."""
    A = np.asarray(A, dtype=float)
    off = A - np.diag(np.diag(A))
    if np.any(off > 0.0):
        return False
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(inv)):
        return False
    scale = float(np.max(np.abs(inv)))
    return bool(np.all(inv >= -1e-12 * scale))


def is_m_matrix_by_positive_image(A):
    """Nonsingular M-matrix test via x = A^-1 1 > 0 and A x > 0."""
    A = np.asarray(A, dtype=float)
    off = A - np.diag(np.diag(A))
    if np.any(off > 0.0):
        return False
    try:
        x = np.linalg.solve(A, np.ones(A.shape[0]))
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(x)):
        return False
    return bool(np.all(x > 0.0) and np.all(A @ x > 0.0))


def root_solve_dense(A, p, tol=1e-12, max_iterations=200):
    """Independent positive root of A x = x^p via MINPACK in log space.

    Works in z = log x with G(z) = A exp(z) - exp(p z) so positivity is
    structural.  The start exponentiates A^-1 1 by 1/(1-p), which is exact
    in one dimension and keeps the trust region away from the spurious
    x -> 0 root when p > 0.  The hybr result is verified against the
    original system's residual, then cross-checked by a damped dense
    Newton from the same start.  Raises RuntimeError on any failure.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    base = np.linalg.solve(A, np.ones(n))
    if np.all(base > 0.0):
        z0 = np.log(base) / (1.0 - p)
    else:
        z0 = np.zeros(n)

    def G(z):
        x = np.exp(z)
        return A @ x - np.exp(p * z)

    def verified(x):
        scale = max(float(np.max(np.abs(x**p))), 1e-300)
        residual = float(np.max(np.abs(A @ x - x**p)))
        return np.all(x > 0.0) and residual <= tol * scale

    z = z0.copy()
    for _ in range(max_iterations):
        g = G(z)
        norm = float(np.max(np.abs(g)))
        if norm <= tol * max(float(np.max(np.abs(np.exp(p * z)))), 1e-300):
            break
        J = A @ np.diag(np.exp(z)) - p * np.diag(np.exp(p * z))
        try:
            dz = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"oracle Newton hit a singular Jacobian: {exc}") from exc
        t = 1.0
        for _ in range(60):
            trial = z + t * dz
            if float(np.max(np.abs(G(trial)))) < norm:
                z = trial
                break
            t *= 0.5
        else:
            raise RuntimeError("oracle Newton could not reduce the residual")
    else:
        raise RuntimeError("oracle Newton did not converge")
    x = np.exp(z)
    if not verified(x):
        raise RuntimeError("oracle Newton result fails residual verification")

    cross = scipy.optimize.root(G, z0, method="hybr", tol=1e-13)
    x_cross = np.exp(cross.x)
    if verified(x_cross):
        if float(np.max(np.abs(x_cross - x))) > 1e-8 * max(1.0, float(np.max(np.abs(x)))):
            raise RuntimeError("oracle hybr and Newton disagree")
    return x


def constant_newton_start(A, p, w):
    """The constant Newton start m 1 for A x = x^p that the witness start replaced.

    For p in (0, 1) it is the upper corner max(w)^(1/(1-p)) of the
    fixed point's invariant box, w = A^-1 1; for p <= 0 it is the minimum
    over rows i with (A 1)_i > 0 of (A 1)_i^(-1/(1-p)) (1 when there is
    none).  Either makes F(m 1) = A m 1 - m^p 1 >= 0 or <= 0, respectively.
    """
    A = np.asarray(A, dtype=float)
    if p > 0.0:
        return np.full(A.shape[0], float(np.max(w)) ** (1.0 / (1.0 - p)))
    image = A.sum(axis=1)
    positive = image[image > 0.0]
    m = float(np.min(positive ** (-1.0 / (1.0 - p)))) if positive.size else 1.0
    return np.full(A.shape[0], m)


def newton_iterates(A, p, x0, steps):
    """x0 and the next ``steps`` plain Newton iterates for A x = x^p (dense solves)."""
    A = np.asarray(A, dtype=float)
    iterates = [np.asarray(x0, dtype=float)]
    for _ in range(steps):
        x = iterates[-1]
        jacobian = A - np.diag(p * x ** (p - 1.0))
        iterates.append(x - np.linalg.solve(jacobian, A @ x - x**p))
    return np.array(iterates)


def frozen_rate_scalar(R, delta, r, lam):
    """eta = (delta - (1 - R)(r + lam^2 / (2R))) / R, from the definition."""
    return (delta - (1.0 - R) * (r + lam * lam / (2.0 * R))) / R


def frozen_bs_value(x0, R, delta, r, lam):
    """Infinite-horizon value x^(1-R)/(1-R) * eta^(-R) of the frozen problem."""
    eta = frozen_rate_scalar(R, delta, r, lam)
    if eta <= 0.0:
        raise ValueError("frozen problem ill-posed (eta <= 0)")
    return x0 ** (1.0 - R) / (1.0 - R) * eta ** (-R), eta


def gbm_policy_expected_value(x0, R, delta, r, lam, sigma, pi, xi, T, dt):
    """Exact expectation of the left-endpoint discounted-utility estimator.

    For constant coefficients, log wealth is an arithmetic Brownian motion
    sampled exactly by the Euler scheme, so
    E[flow_k] = C * exp(-gamma * k * dt) with
      C = xi^(1-R) x0^(1-R) / (1 - R),
      gamma = delta - (1-R)(r + pi*lam*sigma - xi - pi^2 sigma^2 / 2)
                    - (1-R)^2 pi^2 sigma^2 / 2,
    and the estimator's mean is the geometric sum C*dt*sum_k exp(-gamma k dt).
    """
    if xi <= 0.0:
        raise ValueError("closed form needs a positive consumption rate")
    n = int(round(T / dt))
    drift = r + pi * lam * sigma - xi - 0.5 * pi * pi * sigma * sigma
    gamma = delta - (1.0 - R) * drift - 0.5 * (1.0 - R) ** 2 * pi * pi * sigma * sigma
    C = xi ** (1.0 - R) * x0 ** (1.0 - R) / (1.0 - R)
    q = math.exp(-gamma * dt)
    if q == 1.0:
        total = float(n)
    else:
        total = (1.0 - q**n) / (1.0 - q)
    return C * dt * total


def deterministic_policy_value(x0, R, delta, r, xi, T, dt):
    """Zero-investment special case of :func:`gbm_policy_expected_value`."""
    return gbm_policy_expected_value(x0, R, delta, r, 0.0, 1.0, 0.0, xi, T, dt)


def gbm_policy_integral(x0, R, delta, r, lam, sigma, pi, xi, T):
    """Exact expectation of the continuous-time objective over [0, T].

    With the C and gamma of :func:`gbm_policy_expected_value`, the mean
    flow at t is C exp(-gamma t), whose integral is C expm1(-gamma T) / -gamma.
    """
    drift = r + pi * lam * sigma - xi - 0.5 * pi * pi * sigma * sigma
    gamma = delta - (1.0 - R) * drift - 0.5 * (1.0 - R) ** 2 * pi * pi * sigma * sigma
    C = xi ** (1.0 - R) * x0 ** (1.0 - R) / (1.0 - R)
    return C * (math.expm1(-gamma * T) / -gamma if gamma != 0.0 else T)


def euler_factor_path(a, b, y0, lo, dt, dw_factor, hi=math.inf):
    """Full-truncation Euler factor at the step starts, one scalar step at a time.

    The drift ``a`` and volatility ``b`` are evaluated at min(max(y, lo), hi).
    """
    y = float(y0)
    path = []
    for dw in dw_factor:
        path.append(y)
        yc = min(max(y, lo), hi)
        y = y + a(yc) * dt + b(yc) * dw
    return np.array(path)


def wealth_path_by_loop(coef, R, pi, xi, x0, dt, factor, dw_asset):
    """Wealth, discount exponent and utility integral of one path at t_0..t_n.

    A scalar left-endpoint recursion: ``coef(y)`` gives (r, lambda, sigma,
    delta) at the step-start factor value ``y``, the policy is (pi(y), xi(y)),
    and step k adds exp(-disc) (xi X)^(1-R) / (1-R) dt to the utility.
    Zero consumption adds nothing for R < 1 (c^(1-R) = 0) and makes the
    utility -inf for R > 1.
    """
    log_x, disc, util = math.log(x0), 0.0, 0.0
    wealth, discs, utils = [x0], [0.0], [0.0]
    for y, dw in zip(factor, dw_asset):
        r, lam, sigma, delta = coef(y)
        p, c = pi(y), xi(y)
        if c > 0.0:
            util += math.exp(-disc + (1.0 - R) * (math.log(c) + log_x)) / (1.0 - R) * dt
        elif R > 1.0:
            util = -math.inf
        log_x += (r + p * lam * sigma - c - 0.5 * p * p * sigma * sigma) * dt + p * sigma * dw
        disc += delta * dt
        wealth.append(math.exp(log_x))
        discs.append(disc)
        utils.append(util)
    return np.array(wealth), np.array(discs), np.array(utils)


def step_coefficients_in_path_order(model, policy, x0, factor, share):
    """(rate, weight, start) on a diffusion factor slice as given.

    The factor is clipped to the model's state interval and every
    coefficient and policy function sees the slice in its own (path)
    order; scalar policy entries are broadcast.  ``share`` is the part c of
    the asset noise that the sampled normals carry: rate = (1-R) drift - delta,
    weight = (1-R) pi sigma c and start = (1-R)(log xi + log x0), with
    drift = r + pi lambda sigma - xi - h pi^2 sigma^2 and
    h = (1 - (1-R)(1 - c^2)) / 2, grouped as h (pi pi) (sigma sigma) and
    with log x0 from ``math.log`` so that it rounds like the package.
    """
    lo, hi = model.interval
    y = np.clip(np.asarray(factor, dtype=float), lo, hi)
    p, c = (f(y) if callable(f) else np.full(y.shape, float(f)) for f in policy)
    r, lam, sigma, delta = model.r(y), model.lam(y), model.sigma(y), model.delta(y)
    gain = 1.0 - model.R
    h = 0.5 * (1.0 - gain * (1.0 - share * share))
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = r + p * lam * sigma - c - h * (p * p) * (sigma * sigma)
        return gain * drift - delta, gain * p * sigma * share, gain * (np.log(c) + math.log(x0))


def conditional_value_by_loop(coef, R, pi, xi, x0, dt, factor, rho, dw_factor):
    """E[J | factor path] of the left-endpoint objective, one step at a time.

    Given the step-start factor values and the factor's Brownian increments
    ``dw_factor``, step k's log-wealth increment is normal with mean
    mu_k dt + rho pi sigma dw_k and variance (1 - rho^2)(pi sigma)^2 dt, so
    E[exp((1-R) log X_k - disc_k)] multiplies by
    exp((1-R)(mu dt + rho pi sigma dw) + (1-R)^2 (1-rho^2) (pi sigma)^2 dt / 2 - delta dt)
    per step, and step k adds dt (xi x0)^(1-R) / (1-R) times that mean.
    """
    log_mean, total = 0.0, 0.0
    for y, dw in zip(factor, dw_factor):
        r, lam, sigma, delta = coef(y)
        p, c = pi(y), xi(y)
        total += math.exp(log_mean + (1.0 - R) * math.log(c * x0)) / (1.0 - R) * dt
        mu = r + p * lam * sigma - c - 0.5 * p * p * sigma * sigma
        variance = (1.0 - rho * rho) * p * p * sigma * sigma
        log_mean += ((1.0 - R) * mu + 0.5 * (1.0 - R) ** 2 * variance - delta) * dt
        log_mean += (1.0 - R) * rho * p * sigma * dw
    return total


def conditional_chain_value_by_loop(coef, R, pi, xi, x0, y0, times, states, t_end):
    """E[int_0^t_end flow dt | chain] of the continuous-time objective, one segment at a time.

    The chain starts in ``y0`` and enters ``states[i]`` at ``times[i]``.
    On a segment in state s the mean flow is exp(log_mean) (xi x0)^(1-R) / (1-R)
    times exp(k t) with k = (1-R) mu + (1-R)^2 (pi sigma)^2 / 2 - delta, so
    the segment adds that weight times expm1(k l) / k over its length l
    (clipped at ``t_end``), and log_mean grows by k l.
    """
    clocks = [min(t, t_end) for t in (0.0, *times, t_end)]
    log_mean, total = 0.0, 0.0
    for s, begin, end in zip((y0, *states), clocks[:-1], clocks[1:]):
        r, lam, sigma, delta = coef(s)
        p, c = pi(s), xi(s)
        mu = r + p * lam * sigma - c - 0.5 * p * p * sigma * sigma
        k = (1.0 - R) * mu + 0.5 * (1.0 - R) ** 2 * p * p * sigma * sigma - delta
        length = end - begin
        weight = math.exp(log_mean + (1.0 - R) * math.log(c * x0)) / (1.0 - R)
        total += weight * (math.expm1(k * length) / k if k != 0.0 else length)
        log_mean += k * length
    return total


def _regime_policy_rates(model, policy):
    """Per-state (k, xi): k = -delta + (1-R) mu + (1-R)^2 (pi sigma)^2 / 2."""
    n = model.Q.shape[0]
    pi, xi = (np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in policy)
    R, sigma = model.R, model.sigma
    mu = model.r + pi * model.lam * sigma - xi - 0.5 * pi**2 * sigma**2
    return -model.delta + (1.0 - R) * mu + 0.5 * (1.0 - R) ** 2 * pi**2 * sigma**2, xi


def regime_grid_value(model, policy, x0, y0, T, dt):
    """Exact mean of the left-endpoint Monte Carlo estimate of a per-state policy.

    With D = diag(exp(k dt)), P = expm(Q dt) and w = dt (xi x0)^(1-R) / (1-R),
    the estimator's mean is (sum_{j<n} (D P)^j w)[y0], n = round(T / dt):
    step j's conditional mean is w at its state times the product of
    exp(k dt) over the states of the earlier steps.  ``policy`` holds
    scalars or one value per state.
    """
    k, xi = _regime_policy_rates(model, policy)
    w = dt * (xi * x0) ** (1.0 - model.R) / (1.0 - model.R)
    DP = np.exp(k * dt)[:, None] * scipy.linalg.expm(np.asarray(model.Q) * dt)
    total = w.copy()
    for _ in range(int(round(T / dt)) - 1):
        total = w + DP @ total
    return float(total[int(y0)])


def regime_continuous_value(model, policy, x0, y0, T):
    """Exact mean of a per-state policy's continuous-time objective over [0, T].

    Feynman-Kac: the mean is (int_0^T exp((Q + diag(k)) t) dt w)[y0] with
    w = (xi x0)^(1-R) / (1-R), the top-right block of
    expm([[Q + diag(k), w], [0, 0]] T) (Van Loan).
    """
    k, xi = _regime_policy_rates(model, policy)
    n = k.shape[0]
    block = np.zeros((n + 1, n + 1))
    block[:n, :n] = np.asarray(model.Q) + np.diag(k)
    block[:n, n] = (xi * x0) ** (1.0 - model.R) / (1.0 - model.R)
    return float(scipy.linalg.expm(block * T)[int(y0), n])


def regime_policy_value(model, policy):
    """g with value x^(1-R) / (1-R) g of a per-state policy on the infinite horizon.

    Feynman-Kac: (diag(-k) - Q) g = xi^(1-R), with k from the policy's
    wealth drift and variance; at the optimal policy g is the HJB's f.
    """
    k, xi = _regime_policy_rates(model, policy)
    return np.linalg.solve(np.diag(-k) - np.asarray(model.Q), xi ** (1.0 - model.R))


def uniformized_chain_by_loop(Q, y0, T, rng):
    """Event times in [0, T) and the chain state after each, one event at a time.

    Draws from ``rng`` the event count N ~ Poisson(Lambda T) with
    Lambda = max_i |Q_ii|, then N uniforms, one at a time, whose multiples
    of T sorted are the event times, then N uniforms for the moves.  Event i
    moves the chain by inverse-CDF sampling of the current row of
    I + Q / Lambda with the i-th move uniform (self-moves kept).
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    rate = max(-Q[i, i] for i in range(n))
    P = np.eye(n) + Q / rate
    count = rng.poisson(rate * T)
    clocks = sorted(T * rng.random() for _ in range(count))
    moves = [rng.random() for _ in range(count)]
    state, times, states = int(y0), [], []
    for clock, u in zip(clocks, moves):
        if clock >= T:
            break
        cdf, target = 0.0, 0
        for j in range(n - 1):
            cdf += P[state, j]
            if cdf <= u:
                target = j + 1
        state = target
        times.append(clock)
        states.append(state)
    return np.array(times), np.array(states)


def ctmc_stationary(Q):
    """Stationary distribution of an irreducible generator: pi Q = 0, sum 1."""
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    system = np.vstack([Q.T, np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return pi


def grid_edges_by_search(times, n_steps, dt):
    """Binary search for the first k in 0..n_steps-1 with k dt >= t, per event
    time t (n_steps where there is none)."""
    return np.searchsorted(np.arange(n_steps) * dt, times, side="left")


def dense_upwind_operator(eta, a, b, R, h):
    """Literal node-by-node transcription of the upwind discrete HJB matrix.

    Interior rows use the (b^2/(2h^2) + a^-/h, -b^2/h^2 - |a|/h,
    b^2/(2h^2) + a^+/h) stencil, boundary rows the reflecting a^+ / a^-
    splits; returns diag(eta) - Q/R as a dense array.
    """
    eta = np.asarray(eta, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = eta.shape[0]
    Q = np.zeros((n, n))
    Q[0, 1] = b[0] ** 2 / (2 * h * h) + max(a[0], 0.0) / h
    Q[0, 0] = -Q[0, 1]
    for i in range(1, n - 1):
        Q[i, i - 1] = b[i] ** 2 / (2 * h * h) + max(-a[i], 0.0) / h
        Q[i, i + 1] = b[i] ** 2 / (2 * h * h) + max(a[i], 0.0) / h
        Q[i, i] = -(b[i] ** 2) / (h * h) - abs(a[i]) / h
    Q[n - 1, n - 2] = b[n - 1] ** 2 / (2 * h * h) + max(-a[n - 1], 0.0) / h
    Q[n - 1, n - 1] = -Q[n - 1, n - 2]
    return np.diag(eta) - Q / R


def dense_central_operator(eta, a, b, R, h):
    """Literal node-by-node transcription of the central discrete HJB matrix.

    Interior rows use the (b^2/(2h^2) - a/(2h), -b^2/h^2, b^2/(2h^2) + a/(2h))
    stencil, boundary rows the mirror rate b^2/h^2; returns diag(eta) - Q/R
    as a dense array.
    """
    eta = np.asarray(eta, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = eta.shape[0]
    Q = np.zeros((n, n))
    Q[0, 1] = b[0] ** 2 / (h * h)
    Q[0, 0] = -Q[0, 1]
    for i in range(1, n - 1):
        Q[i, i - 1] = b[i] ** 2 / (2 * h * h) - a[i] / (2 * h)
        Q[i, i + 1] = b[i] ** 2 / (2 * h * h) + a[i] / (2 * h)
        Q[i, i] = -(b[i] ** 2) / (h * h)
    Q[n - 1, n - 2] = b[n - 1] ** 2 / (h * h)
    Q[n - 1, n - 1] = -Q[n - 1, n - 2]
    return np.diag(eta) - Q / R


def random_regime_instance(rng, n_states, well_posed_bias=0.5):
    """Random regime-model ingredients (Q, eta, R) mixing verdicts.

    With probability ``well_posed_bias`` eta is drawn positive (guaranteed
    well-posed); otherwise signs are mixed so both verdicts occur.
    """
    Q = rng.exponential(0.4, (n_states, n_states))
    Q[rng.random((n_states, n_states)) < 0.3] = 0.0
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    R = float(rng.choice([0.25, 0.4, 0.8, 1.5, 2.0, 3.0]))
    if rng.random() < well_posed_bias:
        eta = rng.uniform(0.01, 0.3, n_states)
    else:
        eta = rng.normal(0.02, 0.12, n_states)
    return Q, eta, R


def savetxt_body(body):
    """The text ``np.savetxt(fmt="%.17g", delimiter=",")`` writes for a 2-D body."""
    text = io.StringIO()
    np.savetxt(text, body, fmt="%.17g", delimiter=",")
    return text.getvalue()
