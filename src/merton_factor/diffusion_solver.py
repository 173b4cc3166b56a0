"""Diffusion-factor HJB solver on a truncated interval, plus convergence studies.

In consumption-rate form the stationary HJB equation for u(y) > 0 is

    0 = (1/2) b^2 u'' + a~ u' + eta u - u^2 - d (u')^2 / u,

with the adjusted drift a~ and gradient weight d from the model module; the
optimal consumption rate is u itself and the value factor is f = u^(-R).

Discretization replaces the reflected factor generator by the monotone
tridiagonal Q_h, giving the matrix equation A_h x = x^(1-1/R~) with
A_h = diag(eta) - Q_h / R~.  Models with nonzero correlation are first
rewritten with zero correlation (the consumption rate u is invariant under
that rewrite, so f = u^(-R) uses the original R).  A_h must certify as a
nonsingular M-matrix; otherwise the truncated problem is ill-posed and the
certificate is reported instead of a solution.
"""

import json
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .analysis import psi_eta_profile
from .discretizer import assemble_discrete_hjb
from .errors import IllPosedError, ModelError
from .linalg import check_nonsingular_m_matrix  # unused; perfbench/tracing.py hooks this name
from .model import DiffusionModel, RegimeModel, load_model, model_to_dict, to_zero_correlation
from .regime_solver import WellPosednessReport, _hjb_residual, assemble_A, solve_matrix_hjb

__all__ = [
    "DiffusionSolution",
    "ConvergenceTable",
    "solve",
    "grid_refinement_study",
    "domain_expansion_study",
    "expansion_domain",
    "write_solution_csv",
    "read_solution_csv",
    "recompute_csv_residual",
]

CSV_COLUMNS = ("y", "u", "f", "xi", "pi", "eta", "psi_eta", "du_over_u")
# Rows per formatting step of the CSV writer.  One row per step (np.savetxt)
# costs a Python call per row; blocks much above 1024 rows raise peak memory
# without saving time.
_CSV_BLOCK_ROWS = 1024


@dataclass
class DiffusionSolution:
    """Solution of the discretized diffusion HJB problem.

    ``u`` is the optimal consumption rate at the nodes (positive), ``f`` the
    value factor u^(-R), ``du_over_u`` the discrete log-derivative (central
    differences inside, one-sided at the ends) and ``pi_hat`` the risky
    weight (lambda - R rho b u'/u) / (R sigma).

    ``metadata`` records N (steps), domain, scheme and the distortion data
    (phi, R_tilde), then the solve's record :attr:`HjbSolution.metadata`:
    tolerance, p, method, the stop rule, iterations, their log-sup steps
    ``trace``, and the recomputed residual of the solved system together
    with its scale ||x^p||_inf.  The residual is
    computed on the vector x = u^(-R_tilde) so that a reader of the emitted
    CSV can reproduce it bitwise from the stored u column; it meets
    tol * scale up to a floor of order eps_mach * ||A_h||_inf * ||x||_inf
    that dominates on very fine grids.
    """

    grid: np.ndarray
    u: np.ndarray
    f: np.ndarray
    du_over_u: np.ndarray
    pi_hat: np.ndarray
    metadata: dict


@dataclass
class ConvergenceTable:
    """Rows of pairwise sup-norm differences with a least-squares fit.

    ``kind`` is "refinement" (``fit_kind`` "order_slope": the slope of log
    diff against log h, the observed order) or "expansion"
    ("geometric_rate": exp of the slope of log diff against m, the
    per-unit-m decay factor).  Both studies share one floor rule: a pair
    whose sup_diff is at most 100 * tolerance * max|u| is left out of the
    fit, and ``note`` counts it.  ``fit`` is NaN when fewer than two pairs
    lie above the floor; ``note`` says why.
    """

    kind: str
    rows: list
    fit: float
    fit_kind: str
    scheme: str
    tolerance: float
    note: str = ""


def solve(model, e_minus, e_plus, n_steps, tol=1e-10, scheme="upwind"):
    """Solve the truncated diffusion HJB problem on [e_minus, e_plus].

    Raises :class:`IllPosedError` with the certificate report attached when
    the discrete operator fails M-matrix certification.
    """
    if not isinstance(model, DiffusionModel):
        raise ModelError("solve expects a DiffusionModel")
    work, phi = to_zero_correlation(model)
    A_h, grid = assemble_discrete_hjb(work, e_minus, e_plus, n_steps, scheme=scheme)
    # With phi != 1 the residual is logged on u^(-R_tilde), the vector a CSV
    # reader rebuilds from u.
    check_power = None if phi == 1.0 else -work.R
    try:
        core = solve_matrix_hjb(A_h, work.R, tol=tol, _check_power=check_power)
    except IllPosedError as exc:
        raise IllPosedError(
            "discretized problem is ill-posed (A_h is not a nonsingular M-matrix)",
            report=WellPosednessReport.from_certificate(A_h.main, model.eta(grid), exc.report),
        ) from None
    u, f = core.u, core.f
    if phi != 1.0:
        f = u ** (-model.R)

    du = np.gradient(u, float(grid[1] - grid[0]))
    du_over_u = du / u
    pi_hat = (model.lam(grid) - model.R * model.rho * model.b(grid) * du_over_u) / (
        model.R * model.sigma(grid)
    )
    metadata = {
        "N": int(n_steps),
        "domain": (float(e_minus), float(e_plus)),
        "scheme": scheme,
        "phi": float(phi),
        "R_tilde": float(work.R),
        **core.metadata,
    }
    return DiffusionSolution(
        grid=grid,
        u=u,
        f=f,
        du_over_u=du_over_u,
        pi_hat=pi_hat,
        metadata=metadata,
    )


# -- studies -------------------------------------------------------------------


def _increasing(values, what):
    if len(values) < 2 or any(b <= a for a, b in pairwise(values)):
        raise ValueError(f"{what} must be at least two strictly increasing values")
    return values


def _convergence_table(kind, fit_kind, rows, x, transform, u, scheme, tol):
    """The study's table, fitting log sup_diff against x by least squares.

    Pairs at the tolerance floor 100 * tol * max|u| are left out of the fit
    and counted in the note; the fit, ``transform`` of the slope, needs two
    pairs above the floor and is NaN otherwise.
    """
    what = "order" if kind == "refinement" else "rate"
    floor = 100.0 * tol * max(float(np.max(np.abs(u))), 1e-300)
    live = [k for k, row in enumerate(rows) if row["sup_diff"] > floor]
    fit, note = float("nan"), ""
    if not live:
        note = f"differences at the tolerance floor (<= {floor:.3g}); {what} fit not applicable"
    elif len(live) < 2:
        note = f"{what} fit needs at least two pairs above the tolerance floor"
    else:
        if len(live) < len(rows):
            note = (
                f"{len(rows) - len(live)} pair(s) at the tolerance floor "
                f"(<= {floor:.3g}) excluded from the {what} fit"
            )
        log_d = np.log([rows[k]["sup_diff"] for k in live])
        fit = float(transform(np.polyfit(np.asarray(x)[live], log_d, 1)[0]))
    return ConvergenceTable(
        kind=kind, rows=rows, fit=fit, fit_kind=fit_kind, scheme=scheme, tolerance=tol, note=note
    )


def grid_refinement_study(model, e_minus, e_plus, n_list, scheme="upwind", tol=1e-10):
    """Pairwise differences on common nodes under grid refinement.

    Each N must divide the next so coarse nodes are a subset of fine nodes.
    The fitted order is the least-squares slope of log(sup diff) against
    log h.
    """
    n_list = _increasing([int(n) for n in n_list], "n_list")
    for a, b in pairwise(n_list):
        if b % a != 0:
            raise ValueError(f"each N must divide the next for common nodes; {a} !| {b}")
    solutions = [solve(model, e_minus, e_plus, n, tol=tol, scheme=scheme) for n in n_list]
    span = float(e_plus) - float(e_minus)
    rows = [
        {
            "n_coarse": n_coarse,
            "n_fine": n_fine,
            "h": span / n_coarse,
            "sup_diff": float(np.max(np.abs(coarse.u - fine.u[:: n_fine // n_coarse]))),
        }
        for (n_coarse, coarse), (n_fine, fine) in pairwise(zip(n_list, solutions))
    ]
    log_h = np.log([row["h"] for row in rows])
    return _convergence_table(
        "refinement", "order_slope", rows, log_h, float, solutions[-1].u, scheme, tol
    )


def expansion_domain(model, m):
    """Default truncation for expansion step m: (1/m, sqrt(m)) for square-root
    state spaces, [-m, m] otherwise (clipped inside tabulated ranges).

    Raises ``ValueError`` when m leaves no domain inside the state interval.
    """
    if not 0.0 < m < np.inf:
        raise ValueError(f"expansion step m must be positive and finite, got {m}")
    lo, hi = model.interval
    if model.family == "heston":
        domain = 1.0 / m, float(np.sqrt(m))
    elif np.isfinite(lo) or np.isfinite(hi):
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        domain = max(-m, lo + pad), min(m, hi - pad)
    else:
        domain = -float(m), float(m)
    if not domain[0] < domain[1]:
        raise ValueError(
            f"expansion step m = {m} leaves no domain inside the state interval [{lo}, {hi}]"
        )
    return domain


def domain_expansion_study(model, m_list, h, window, scheme="upwind", tol=1e-12):
    """Solution differences over a fixed window as the domain expands.

    For consecutive m the solutions are compared on probe points spaced h
    across the window; the fit is the per-unit-m geometric decay factor of
    the sup differences (slope of log diff against m, exponentiated).
    """
    m_list = _increasing([float(m) for m in m_list], "m_list")
    w_lo, w_hi = float(window[0]), float(window[1])
    if not w_lo < w_hi:
        raise ValueError(f"window must be increasing, got ({w_lo}, {w_hi})")
    domains = [expansion_domain(model, m) for m in m_list]
    for (lo, hi), m in zip(domains, m_list):
        if w_lo < lo or w_hi > hi:
            raise ValueError(
                f"window [{w_lo}, {w_hi}] not contained in the m = {m} domain [{lo:.6g}, {hi:.6g}]"
            )

    solutions = [
        solve(model, lo, hi, max(2, int(round((hi - lo) / h))), tol=tol, scheme=scheme)
        for lo, hi in domains
    ]
    n_probe = max(1, int(round((w_hi - w_lo) / h)))
    probe = np.linspace(w_lo, w_hi, n_probe + 1)
    values = [np.interp(probe, sol.grid, sol.u) for sol in solutions]
    rows = [
        {
            "m_low": m_low,
            "m_high": m_high,
            "domain_low": domain_low,
            "domain_high": domain_high,
            "sup_diff": float(np.max(np.abs(high - low))),
        }
        for (m_low, domain_low, low), (m_high, domain_high, high) in pairwise(
            zip(m_list, domains, values)
        )
    ]
    return _convergence_table(
        "expansion", "geometric_rate", rows, m_list[:-1], np.exp, values[-1], scheme, tol
    )


# -- CSV I/O -------------------------------------------------------------------


def write_solution_csv(path, solution, model):
    """Write the solution table with machine-precision (17 digit) values.

    Comment lines carry the model JSON and solve parameters, so the file is
    self-contained: a reader can rebuild the discrete operator and reproduce
    the logged residual exactly from the stored u column.  For a regime
    model, ``solution`` is the :class:`HjbSolution` of ``solve_regime``,
    which records its own tolerance; its table has one row per state, ``y``
    holds the state index and the diffusion-only columns are NaN.
    ``psi_eta`` is also NaN at the nodes where eta <= 0.
    """
    if isinstance(model, RegimeModel):
        n = model.n_states
        nan_column = np.full(n, np.nan)
        columns = {
            "y": np.arange(n, dtype=float),
            "eta": np.asarray(model.eta(), dtype=float),
            "psi_eta": nan_column,
            "du_over_u": nan_column,
        }
        meta = {"model_type": "regime", "n_states": n, **solution.metadata}
    else:
        grid = solution.grid
        eta = model.eta(grid)
        # Psi(eta) divides by eta, so it is undefined (NaN) where eta <= 0.
        psi_eta = np.full(grid.shape, np.nan)
        positive = eta > 0.0
        psi_eta[positive] = psi_eta_profile(model, grid[positive])
        columns = {"y": grid, "eta": eta, "psi_eta": psi_eta, "du_over_u": solution.du_over_u}
        meta = solution.metadata  # json writes the domain tuple as a list
    columns.update(u=solution.u, f=solution.f, xi=solution.u, pi=solution.pi_hat)
    lines = [
        "# merton-factor solution v1",
        f"# model: {json.dumps(model_to_dict(model))}",
        f"# solve: {json.dumps(meta)}",
        ",".join(CSV_COLUMNS),
    ]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
        _write_csv_rows(handle, [columns[name] for name in CSV_COLUMNS])


def _write_csv_rows(handle, columns):
    """Write the table with these columns as ``np.savetxt(fmt="%.17g",
    delimiter=",")`` does, byte for byte, formatting a block of rows at a
    time: the same C conversion applies the same row template to the same
    doubles, so only the number of Python steps changes."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = np.column_stack([column[start : start + _CSV_BLOCK_ROWS] for column in columns])
        handle.write(row * len(block) % tuple(block.ravel().tolist()))


def read_solution_csv(path):
    """Read a solution CSV back into (metadata dict, column dict)."""
    meta = {}
    header = None
    with open(path) as handle:
        while header is None:
            line = handle.readline()
            if not line:
                raise ValueError(f"{path} has no column header")
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    key = key.strip()
                    value = value.strip()
                    if key in ("model", "solve"):
                        meta[key] = json.loads(value)
                continue
            header = [name.strip() for name in line.split(",")]
        # loadtxt only warns on a table without rows, so look for a first row
        # (as loadtxt does: skipping blank and comment lines) and rewind.
        start = handle.tell()
        if not any(line.partition("#")[0].strip() for line in iter(handle.readline, "")):
            raise ValueError(f"{path} has no data rows under its {len(header)}-column header")
        handle.seek(start)
        try:
            matrix = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            handle.seek(start)
            raise ValueError(_bad_row(path, handle, header) or f"{path}: {exc}") from None
    if matrix.shape[1] != len(header):
        raise ValueError(
            f"{path} has {matrix.shape[0]} rows of {matrix.shape[1]} values"
            f" under its {len(header)}-column header"
        )
    columns = {name: matrix[:, i] for i, name in enumerate(header)}
    return meta, columns


def _bad_row(path, lines, header):
    """Message naming the first data row in ``lines`` that is not one number
    per header column (rows counted as loadtxt reads them), or None when
    Python's float() reads every cell (it also takes 1_000, which loadtxt
    refuses)."""
    rows = filter(None, (line.partition("#")[0].strip() for line in lines))
    for k, row in enumerate(rows, 1):
        cells = row.split(",")
        if len(cells) != len(header):
            width = len(header)
            return f"{path}: data row {k} has {len(cells)} values under its {width}-column header"
        for name, cell in zip(header, cells):
            try:
                float(cell)
            except ValueError:
                return f"{path}: data row {k} has {cell.strip()!r} in column {name}, not a number"
    return None


def recompute_csv_residual(path):
    """Rebuild A_h from a solution CSV and recompute the logged residual.

    Returns (recomputed, logged).  The check vector is the f column when
    phi = 1 and u^(-R_tilde) otherwise, matching how the residual was logged.
    """
    meta, columns = read_solution_csv(path)
    solve_meta = meta["solve"]
    model = load_model(meta["model"])
    check = columns["f"]
    if isinstance(model, RegimeModel):
        matvec = assemble_A(model).dot
    else:
        work, _ = to_zero_correlation(model)
        lo, hi = solve_meta["domain"]
        A_h, _ = assemble_discrete_hjb(work, lo, hi, solve_meta["N"], scheme=solve_meta["scheme"])
        matvec = A_h.matvec
        if solve_meta["phi"] != 1.0:
            check = columns["u"] ** (-solve_meta["R_tilde"])
    return _hjb_residual(matvec, check, solve_meta["p"])[0], float(solve_meta["residual"])
