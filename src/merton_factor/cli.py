"""Command line interface: ``merton-factor <subcommand>``.

Subcommands
-----------
wellposed   well-posedness verdict with an M-matrix certificate
solve       solve the stationary HJB equation; optional CSV table
refine      grid refinement study (observed convergence order)
expand      domain expansion study (observed truncation decay)
bounds      proportional sandwich bounds from sub/supersolution profiles
report      tail diagnostics of a solved problem
mc          Monte Carlo check of the computed policy and value

Exit codes: 0 on success, 2 when the requested problem is ill-posed
(verdict false or a solver refusal with a certificate), 1 on any error
(bad flags, malformed model files, numerical failures).  Results are
printed as JSON to stdout; ``--out`` redirects the primary artifact
(the CSV table for ``solve``, the JSON document otherwise) to a file.

The ``mc`` subcommand spreads path blocks over the number of threads in the
``MERTON_FACTOR_THREADS`` environment variable (default 1); its results are
bitwise independent of it.  No other subcommand uses threads.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .analysis import asymptotic_report, proportional_bounds
from .diffusion_solver import (
    domain_expansion_study,
    grid_refinement_study,
    solve,
    write_solution_csv,
)
from .discretizer import assemble_discrete_hjb
from .errors import IllPosedError, MertonFactorError
from .linalg import check_nonsingular_m_matrix
from .model import (
    DiffusionModel,
    RegimeModel,
    load_model,
    to_zero_correlation,
)
from .montecarlo import estimate_value
from .regime_solver import check_wellposed, solve_regime

__all__ = ["main", "RunConfig"]


class UsageError(MertonFactorError):
    """Bad command line arguments."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Validated common options of the solver-backed subcommands."""

    model: object
    domain: Optional[tuple] = None
    n_steps: Optional[int] = None
    scheme: str = "upwind"
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.scheme not in ("upwind", "central"):
            raise UsageError(f"unknown scheme {self.scheme!r} (expected upwind or central)")
        if not self.tolerance > 0.0:
            raise UsageError("--tol must be positive")
        if self.domain is not None:
            lo, hi = self.domain
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise UsageError("--domain must be two finite numbers A,B with A < B")
        if self.n_steps is not None and self.n_steps < 1:
            raise UsageError("--n must be at least 1")

    def require_grid(self):
        if self.domain is None or self.n_steps is None:
            raise UsageError("diffusion models need --domain A,B and --n")
        return self.domain[0], self.domain[1], self.n_steps


def _parse_pair(text, flag):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"{flag} expects numbers, got {text!r}") from None


def _parse_int_list(text, flag):
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} is empty")
    return values


def _parse_float_list(text, flag):
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} is empty")
    return values


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _emit(document, out_path):
    text = json.dumps(_jsonable(document), indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _certificate_summary(cert):
    summary = {
        "verdict": cert.verdict,
        "method": cert.method,
        "failure_index": cert.failure_index,
        "note": cert.note,
    }
    if cert.ratios is not None:
        ratios = np.asarray(cert.ratios)
        summary["n_ratios"] = int(ratios.size)
        if ratios.size:
            summary["ratio_min"] = float(ratios.min())
    return summary


def _config_from_args(args, parse_n=True):
    model = load_model(args.model)
    domain = _parse_pair(args.domain, "--domain") if getattr(args, "domain", None) else None
    n_steps = getattr(args, "n", None) if parse_n else None
    if isinstance(n_steps, str):
        values = _parse_int_list(n_steps, "--n")
        if len(values) != 1:
            raise UsageError("--n takes a single integer here")
        n_steps = values[0]
    return RunConfig(
        model=model,
        domain=domain,
        n_steps=n_steps,
        scheme=getattr(args, "scheme", "upwind"),
        tolerance=getattr(args, "tol", 1e-10),
    )


def _cmd_wellposed(args):
    config = _config_from_args(args)
    model = config.model
    if isinstance(model, RegimeModel):
        report = check_wellposed(model, method=args.method)
        document = {"model_type": "regime", **report.to_dict()}
        document["certificate"] = _certificate_summary(report.certificate)
        _emit(document, args.out)
        return 0 if report.verdict else 2
    lo, hi, n = config.require_grid()
    work, phi = to_zero_correlation(model)
    A_h, grid = assemble_discrete_hjb(work, lo, hi, n, scheme=config.scheme)
    cert = check_nonsingular_m_matrix(A_h, method=args.method)
    eta = np.asarray(model.eta(grid), dtype=float)
    document = {
        "model_type": "diffusion",
        "family": model.family,
        "verdict": cert.verdict,
        "certificate": _certificate_summary(cert),
        "domain": [lo, hi],
        "n": n,
        "scheme": config.scheme,
        "distortion": phi,
        "eta_min": float(eta.min()),
        "eta_max": float(eta.max()),
    }
    _emit(document, args.out)
    return 0 if cert.verdict else 2


def _cmd_solve(args):
    config = _config_from_args(args)
    model = config.model
    if isinstance(model, RegimeModel):
        solution = solve_regime(model, tol=config.tolerance)
        if args.out:
            write_solution_csv(args.out, solution, model, config.tolerance)
        document = {
            "model_type": "regime",
            "verdict": True,
            "eta": model.eta(),
            "f": solution.f,
            "u": solution.u,
            "pi_hat": solution.pi_hat,
            "iterations": solution.iterations,
            "method": solution.method,
            "residual": solution.residual,
            "csv": args.out or None,
        }
        _emit(document, None)
        return 0
    lo, hi, n = config.require_grid()
    solution = solve(model, lo, hi, n, tol=config.tolerance, scheme=config.scheme)
    if args.out:
        write_solution_csv(args.out, solution, model)
    u = solution.u
    document = {
        "model_type": "diffusion",
        "family": model.family,
        "verdict": True,
        "metadata": solution.metadata,
        "u": {
            "min": float(u.min()),
            "max": float(u.max()),
            "left": float(u[0]),
            "right": float(u[-1]),
        },
        "pi_hat": {"left": float(solution.pi_hat[0]), "right": float(solution.pi_hat[-1])},
        "du_over_u": {
            "left": float(solution.du_over_u[0]),
            "right": float(solution.du_over_u[-1]),
        },
        "csv": args.out or None,
    }
    _emit(document, None)
    return 0


def _cmd_refine(args):
    config = _config_from_args(args, parse_n=False)
    if not isinstance(config.model, DiffusionModel):
        raise UsageError("refine needs a diffusion model")
    if config.domain is None:
        raise UsageError("refine needs --domain A,B")
    n_list = _parse_int_list(args.n, "--n")
    if len(n_list) < 2:
        raise UsageError("--n needs at least two grid sizes for a refinement study")
    lo, hi = config.domain
    table = grid_refinement_study(
        config.model, lo, hi, n_list, scheme=config.scheme, tol=config.tolerance
    )
    _emit(asdict(table), args.out)
    return 0


def _cmd_expand(args):
    config = _config_from_args(args)
    if not isinstance(config.model, DiffusionModel):
        raise UsageError("expand needs a diffusion model")
    m_list = _parse_float_list(args.m, "--m")
    window = _parse_pair(args.window, "--window")
    if not args.h > 0.0:
        raise UsageError("--h must be positive")
    table = domain_expansion_study(
        config.model, m_list, args.h, window, scheme=config.scheme, tol=config.tolerance
    )
    _emit(asdict(table), args.out)
    return 0


def _parse_profile(text, flag):
    if text is None:
        return None
    if text == "eta":
        return "eta"
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"{flag} expects 'eta' or a number, got {text!r}") from None


def _cmd_bounds(args):
    config = _config_from_args(args)
    model = config.model
    if not isinstance(model, DiffusionModel):
        raise UsageError("bounds needs a diffusion model")
    lo, hi, n = config.require_grid()
    grid = np.linspace(lo, hi, n + 1)
    g1 = _parse_profile(args.g1, "--g1")
    g2 = _parse_profile(args.g2, "--g2")
    if g1 is None and g2 is None:
        eta = np.asarray(model.eta(grid), dtype=float)
        eta_min = float(eta.min())
        if eta_min <= 0.0:
            raise UsageError(
                "frozen rate is not positive on the grid; pass --g1 with a positive constant"
            )
        g1 = eta_min
        g2 = "eta"
    certificate = proportional_bounds(model, g1, g2, grid)
    document = certificate.to_dict()
    document["g1"] = g1
    document["g2"] = g2
    _emit(document, args.out)
    return 0


def _cmd_report(args):
    config = _config_from_args(args)
    model = config.model
    if not isinstance(model, DiffusionModel):
        raise UsageError("report needs a diffusion model")
    lo, hi, n = config.require_grid()
    solution = solve(model, lo, hi, n, tol=config.tolerance, scheme=config.scheme)
    report = asymptotic_report(
        solution, model, tail_fraction=args.tail_fraction, margin_fraction=args.margin_fraction
    )
    document = {
        "family": model.family,
        "metadata": solution.metadata,
        **report.to_dict(),
    }
    _emit(document, args.out)
    return 0


def _cmd_mc(args):
    config = _config_from_args(args)
    model = config.model
    if not args.x0 > 0.0:
        raise UsageError("--x0 must be positive")
    if isinstance(model, RegimeModel):
        state = int(args.y0)
        if not 0 <= state < model.n_states:
            raise UsageError(f"--y0 must be a state index in 0..{model.n_states - 1}")
        solution = solve_regime(model, tol=config.tolerance)
        policy = (solution.pi_hat, solution.u)
        solver_value = solution.value(args.x0, state=state)
        y0 = state
    else:
        lo, hi, n = config.require_grid()
        solution = solve(model, lo, hi, n, tol=config.tolerance, scheme=config.scheme)
        grid, u_grid, pi_grid = solution.grid, solution.u, solution.pi_hat
        policy = (
            lambda y: np.interp(y, grid, pi_grid),
            lambda y: np.interp(y, grid, u_grid),
        )
        f0 = float(np.interp(args.y0, grid, solution.f))
        solver_value = args.x0 ** (1.0 - model.R) / (1.0 - model.R) * f0
        y0 = args.y0
    estimate = estimate_value(
        model,
        policy,
        args.x0,
        y0,
        args.horizon,
        args.dt,
        args.paths,
        args.seed,
        antithetic=args.antithetic,
    )
    z_score = (estimate.mean - solver_value) / estimate.se if estimate.se > 0 else float("nan")
    document = {
        "estimate": estimate.to_dict(),
        "solver_value": float(solver_value),
        "z_score": float(z_score),
        "seed": args.seed,
    }
    _emit(document, args.out)
    return 0


def _add_common(parser, domain=True, tol_default=1e-10):
    parser.add_argument("--model", required=True, help="model JSON file")
    parser.add_argument("--tol", type=float, default=tol_default, help="solver tolerance")
    parser.add_argument("--out", default=None, help="output file")
    parser.add_argument("--scheme", default="upwind", help="upwind or central")
    if domain:
        parser.add_argument("--domain", default=None, help="truncation interval A,B")


def build_parser():
    parser = _Parser(prog="merton-factor", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wellposed", help="well-posedness verdict with certificate")
    _add_common(p)
    p.add_argument("--n", default=None, help="number of grid steps (diffusion models)")
    p.add_argument(
        "--method",
        default="minor_ratios",
        choices=("minor_ratios", "positive_image"),
        help="certificate route",
    )
    p.set_defaults(func=_cmd_wellposed)

    p = sub.add_parser("solve", help="solve the stationary problem")
    _add_common(p)
    p.add_argument("--n", default=None, help="number of grid steps (diffusion models)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("refine", help="grid refinement study")
    _add_common(p)
    p.add_argument("--n", required=True, help="comma list of grid step counts")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("expand", help="domain expansion study")
    _add_common(p, domain=False, tol_default=1e-12)
    p.add_argument("--m", required=True, help="comma list of domain sizes")
    p.add_argument("--h", type=float, required=True, help="target grid spacing")
    p.add_argument("--window", required=True, help="comparison window A,B")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("bounds", help="proportional sandwich bounds")
    _add_common(p)
    p.add_argument("--n", default=None, help="number of grid steps")
    p.add_argument("--g1", default=None, help="subsolution profile: 'eta' or a constant")
    p.add_argument("--g2", default=None, help="supersolution profile: 'eta' or a constant")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("report", help="tail diagnostics of a solved problem")
    _add_common(p)
    p.add_argument("--n", default=None, help="number of grid steps")
    p.add_argument("--tail-fraction", type=float, default=0.1, dest="tail_fraction")
    p.add_argument("--margin-fraction", type=float, default=0.01, dest="margin_fraction")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("mc", help="Monte Carlo policy verification")
    _add_common(p)
    p.add_argument("--n", default=None, help="number of grid steps (diffusion models)")
    p.add_argument("--x0", type=float, default=1.0, help="initial wealth")
    p.add_argument("--y0", type=float, required=True, help="initial factor value or state index")
    p.add_argument("--horizon", type=float, required=True, help="simulation horizon T")
    p.add_argument("--dt", type=float, required=True, help="time step")
    p.add_argument("--paths", type=int, required=True, help="number of paths")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--antithetic", action="store_true", help="antithetic pairing")
    p.set_defaults(func=_cmd_mc)

    return parser


def _illposed_document(exc):
    report = getattr(exc, "report", None)
    if report is None:
        return None
    if hasattr(report, "certificate"):
        document = {"verdict": False, "error": str(exc), **report.to_dict()}
        document["certificate"] = _certificate_summary(report.certificate)
    else:
        # Raw matrix-level failures attach the certificate itself.
        document = {
            "verdict": False,
            "error": str(exc),
            "certificate": _certificate_summary(report),
        }
    eta = document.get("eta")
    if isinstance(eta, list) and len(eta) > 64:
        document["eta"] = {"min": min(eta), "max": max(eta), "n": len(eta)}
    return document


_NUMERIC_LIST_FLAGS = ("--domain", "--window", "--m", "--y0")
_NUMERIC_VALUE = frozenset("0123456789+-.,eE")


def _join_negative_values(argv):
    """Merge ``--domain -3,3`` into ``--domain=-3,3`` so argparse does not
    mistake a leading-minus value for an option."""
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _NUMERIC_LIST_FLAGS and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-") and len(nxt) > 1 and set(nxt) <= _NUMERIC_VALUE:
                merged.append(f"{token}={nxt}")
                skip = True
                continue
        merged.append(token)
    return merged


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except IllPosedError as exc:
        document = _illposed_document(exc)
        if document is not None:
            _emit(document, getattr(args, "out", None))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except MertonFactorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
