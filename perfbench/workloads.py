"""The four benchmark workloads: inputs, one operation, and its checks.

A workload is built from the run's seed.  ``setup`` loads the model and
runs one small warm-up op.  ``run_op(k)`` is the timed operation; it calls
the package through module attributes (``diffusion_solver.solve``, not a
name bound at import), so the traced run's hooks see the call.
``check(k, out)`` runs untimed, raises :class:`CheckFailed` when an output
is wrong, and returns observations that the traced run reports.

Why these four: ``solve-large`` is dominated by ``linalg`` (certificate,
factorization, banded solves); ``cli-solve-csv`` is the user's file round
trip, dominated by CSV writing and reading; ``mc-regime`` spends its time
in the per-path chain sampling of ``montecarlo``; ``mc-diffusion`` uses the
same module vectorized across paths with a Python loop over time steps.

The solve workloads use no randomness, so their inputs are the same for
every seed.  The Monte Carlo workloads derive one estimator seed per op
from the run's seed.
"""

import contextlib
import hashlib
import io
import json
import math
import struct

import numpy as np

from merton_factor import cli, diffusion_solver, montecarlo, regime_solver
from merton_factor.discretizer import assemble_discrete_hjb
from merton_factor.model import load_model, to_zero_correlation

import tracing

EPS = float(np.finfo(float).eps)
TOL = 1e-10
DOMAIN = (-3.0, 3.0)

# The acceptance suite's 10^6-state model (AC3).
MPR_MODEL = {
    "family": "mpr",
    "params": {
        "R": 1.5,
        "delta": 0.05,
        "r": 0.02,
        "sigma": 0.2,
        "kappa": 0.3,
        "theta": 0.5,
        "nu": 0.6,
        "rho": -0.2,
    },
}

# The two-state example model of the README.
REGIME_MODEL = {
    "family": "regime",
    "Q": [[-0.5, 0.5], [0.5, -0.5]],
    "r": [0.02, 0.01],
    "lambda": [0.4, 0.1],
    "sigma": [0.25, 0.2],
    "delta": [0.3, 0.18],
    "R": 2.0,
}


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def op_seed(seed, k):
    """Estimator seed of op k in a run with the given seed."""
    return seed * 1_000_003 + k


def digest(*values):
    """Short hash of the exact bits of some floats."""
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()[:16]


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def residual_limit(scale, norm_A, x_max):
    """tol * scale plus the rounding floor 100 eps ||A_h||_inf ||x||_inf (AC3)."""
    return TOL * scale + 100.0 * EPS * norm_A * x_max


class _Workload:
    name = ""
    work_unit = ""
    work_per_op = 0
    thread_check = False

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.recorder = None  # set while a traced op or its side calls run

    def hooks(self):
        """Hooks on objects this workload owns (added to the package hooks)."""
        return ()

    def side_calls(self, k):
        """Untimed extra calls made after a traced op."""


class _DiffusionSolve(_Workload):
    """Solver checks shared by the workloads that solve the mpr model at N steps."""

    N = 0
    norm_A = None  # ||A_h||_inf at N steps, assembled at the first check

    def hooks(self):
        return tracing.coefficient_hooks(self.model)

    def check_solution(self, u_min, u_max, metadata):
        # min and max are NaN or infinite when any entry is.
        require(math.isfinite(u_min) and math.isfinite(u_max), "u is not finite")
        require(u_min > 0.0, f"u is not positive (min {u_min!r})")
        if self.norm_A is None:
            work, _ = to_zero_correlation(self.model)
            A_h, _ = assemble_discrete_hjb(work, *DOMAIN, self.N)
            self.norm_A = A_h.norm_inf()
        # x = u^(-R_tilde) is the solved vector; its sup sits at min u.
        x_max = u_min ** (-metadata["R_tilde"])
        limit = residual_limit(metadata["residual_scale"], self.norm_A, x_max)
        residual = metadata["residual"]
        require(residual <= limit, f"residual {residual:.3g} above {limit:.3g}")
        require(
            metadata["iterations"] == self.ref_iterations,
            f"{metadata['iterations']} iterations, {self.ref_iterations} at N = 1000",
        )
        return {"residual_over_floor": residual / limit}


class SolveLarge(_DiffusionSolve):
    name = "solve-large"
    work_unit = "nodes"
    N = 1_000_000
    work_per_op = N + 1

    def setup(self):
        self.model = load_model(MPR_MODEL)
        warm = diffusion_solver.solve(self.model, *DOMAIN, 1000, tol=TOL)
        self.ref_iterations = warm.metadata["iterations"]

    def run_op(self, k):
        return diffusion_solver.solve(self.model, *DOMAIN, self.N, tol=TOL)

    def check(self, k, solution):
        u = solution.u
        return self.check_solution(float(u.min()), float(u.max()), solution.metadata)


class CliSolveCsv(_DiffusionSolve):
    name = "cli-solve-csv"
    work_unit = "nodes"
    N = 100_000
    work_per_op = N + 1

    def setup(self):
        self.model = load_model(MPR_MODEL)
        self.model_path = self.out_dir / "mpr.json"
        self.model_path.write_text(json.dumps(MPR_MODEL))
        self.csv_path = self.out_dir / "solution.csv"
        code, text, _, _ = self._round_trip(1000)
        require(code == 0, f"warm-up exit code {code}")
        self.ref_iterations = json.loads(text)["metadata"]["iterations"]

    def _round_trip(self, n_steps):
        argv = [
            "solve",
            "--model", str(self.model_path),
            "--domain", f"{DOMAIN[0]:g},{DOMAIN[1]:g}",
            "--n", str(n_steps),
            "--out", str(self.csv_path),
        ]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        recomputed, logged = diffusion_solver.recompute_csv_residual(self.csv_path)
        return code, buffer.getvalue(), recomputed, logged

    def run_op(self, k):
        return self._round_trip(self.N)

    def check(self, k, out):
        code, text, recomputed, logged = out
        require(code == 0, f"exit code {code}")
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"CLI output is not JSON: {exc}") from exc
        metadata = document["metadata"]
        observations = self.check_solution(document["u"]["min"], document["u"]["max"], metadata)
        require(
            recomputed == logged == metadata["residual"],
            f"recomputed residual {recomputed!r}, logged {logged!r}, "
            f"reported {metadata['residual']!r}",
        )
        observations["csv_bytes"] = self.csv_path.stat().st_size
        self.csv_path.unlink()
        return observations


def _mc_observations(estimate, value, slack_share):
    mean, se = estimate.mean, estimate.se
    require(math.isfinite(mean) and math.isfinite(se) and se > 0.0, f"mean {mean}, SE {se}")
    slack = 4.0 * se + slack_share * abs(value)
    require(
        abs(mean - value) <= slack,
        f"|mean - value| = {abs(mean - value):.4g} above 4 SE + {slack_share:.0%} |v| = {slack:.4g}",
    )
    return {
        "se": se,
        "abs_z": abs(mean - value) / se,
        "tail_share": estimate.tail_share,
        "value": value,
        "digest": digest(mean, se),
    }


class McRegime(_Workload):
    name = "mc-regime"
    work_unit = "path-steps"
    PATHS = 5000
    DT = 0.02
    SIDE_PATHS = 200
    thread_check = True

    def setup(self):
        self.model = load_model(REGIME_MODEL)
        self.T = montecarlo.default_horizon(float(np.min(self.model.eta())))
        self.n_steps = max(1, int(round(self.T / self.DT)))
        self.work_per_op = self.PATHS * self.n_steps
        self.norm_A = float(np.max(np.abs(regime_solver.assemble_A(self.model)).sum(axis=1)))
        solution = regime_solver.solve_regime(self.model)
        montecarlo.estimate_value(
            self.model, (solution.pi_hat, solution.u), 1.0, 0, self.T, self.DT, 20, seed=self.seed
        )

    def run_op(self, k):
        solution = regime_solver.solve_regime(self.model)
        estimate = montecarlo.estimate_value(
            self.model,
            (solution.pi_hat, solution.u),
            1.0,
            0,
            self.T,
            self.DT,
            self.PATHS,
            seed=op_seed(self.seed, k),
        )
        return solution, estimate

    def check(self, k, out):
        solution, estimate = out
        u = solution.u
        require(bool(np.all(np.isfinite(u)) and np.all(u > 0.0)), "u is not finite and positive")
        limit = residual_limit(solution.residual_scale, self.norm_A, float(np.max(solution.f)))
        require(solution.residual <= limit, f"residual {solution.residual:.3g} above {limit:.3g}")
        return _mc_observations(estimate, solution.value(1.0, 0), 0.02)

    def side_calls(self, k):
        # Bare chain paths with the op's Q, y0 and T, timed by the ctmc hook.
        base = op_seed(self.seed, k) * self.SIDE_PATHS
        for i in range(self.SIDE_PATHS):
            path = montecarlo.sample_ctmc_path(self.model.Q, 0, self.T, seed=base + i)
            self.recorder.note("jumps", len(path.states) - 1)


class McDiffusion(_DiffusionSolve):
    name = "mc-diffusion"
    work_unit = "path-steps"
    N = 1200
    PATHS = 2000
    DT = 0.05
    T = 120.0
    n_steps = int(round(T / DT))
    work_per_op = PATHS * n_steps

    def setup(self):
        self.model = load_model(MPR_MODEL)
        self.ref_iterations = diffusion_solver.solve(self.model, *DOMAIN, 1000, tol=TOL).metadata[
            "iterations"
        ]
        self._estimate(self.seed, paths=20, T=5.0)

    def _policy(self, fn):
        if self.recorder is None:
            return fn
        return tracing.wrap_leaf(self.recorder, "montecarlo.policy", fn)

    def _estimate(self, seed, paths, T):
        solution = diffusion_solver.solve(self.model, *DOMAIN, self.N, tol=TOL)
        grid = solution.grid

        def pi_fn(y):
            return np.interp(y, grid, solution.pi_hat)

        def xi_fn(y):
            return np.interp(y, grid, solution.u)

        estimate = montecarlo.estimate_value(
            self.model,
            (self._policy(pi_fn), self._policy(xi_fn)),
            1.0,
            0.0,
            T,
            self.DT,
            paths,
            seed=seed,
        )
        return solution, estimate

    def run_op(self, k):
        return self._estimate(op_seed(self.seed, k), self.PATHS, self.T)

    def check(self, k, out):
        solution, estimate = out
        u = solution.u
        observations = self.check_solution(float(u.min()), float(u.max()), solution.metadata)
        R = self.model.R
        f0 = float(np.interp(0.0, solution.grid, solution.f))
        value = 1.0 ** (1.0 - R) / (1.0 - R) * f0
        observations.update(_mc_observations(estimate, value, 0.03))
        return observations


WORKLOADS = {w.name: w for w in (SolveLarge, CliSolveCsv, McRegime, McDiffusion)}
