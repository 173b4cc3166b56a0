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

Every subcommand runs the same pipeline.  argparse checks each flag value;
``main`` loads the model and calls the subcommand's handler, which returns
a JSON document and a verdict; ``main`` then emits the document and maps the
verdict to the exit code.  Documents go to stdout, or to ``--out``; for
``solve``, ``--out`` names the CSV table and the document, ill-posed or
not, stays on stdout.

Exit codes: 0 on success, 2 when the requested problem is ill-posed
(verdict false, or a solver refusal whose certificate document is still
emitted), 1 on any error (bad flags or flag values, malformed model files,
arguments the library refuses, numerical failures, an ``--out`` path that
cannot be written), reported on stderr as one ``error: ...`` line.

The ``mc`` subcommand spreads path blocks over the number of threads in the
``MERTON_FACTOR_THREADS`` environment variable (default 1); its results are
bitwise independent of it.  No other subcommand uses threads.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict

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
from .regime_solver import WellPosednessReport, check_wellposed, solve_regime

__all__ = ["main"]


class UsageError(MertonFactorError):
    """Bad command line arguments."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _flag_type(expected, parse, accept=lambda value: True):
    """An argparse ``type=`` that parses a flag value and refuses it unless ``accept`` holds."""

    def convert(text):
        try:
            value = parse(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expects {expected}, got {text!r}")

    return convert


def _split(kind):
    return lambda text: [kind(part) for part in text.split(",")]


_POSITIVE = _flag_type("a finite positive number", float, lambda x: 0.0 < x < math.inf)
_STEPS = _flag_type("an integer >= 1", int, lambda n: n >= 1)
_STEP_LIST = _flag_type(
    "two or more integers >= 1", _split(int), lambda ns: len(ns) > 1 and min(ns) >= 1
)
_NUMBERS = _flag_type("comma-separated numbers", _split(float))
_INTERVAL = _flag_type(
    "two finite numbers A,B with A < B",
    _split(float),
    lambda xs: len(xs) == 2 and -math.inf < xs[0] < xs[1] < math.inf,
)
_PROFILE = _flag_type(
    "'eta' or a finite number",
    lambda text: text if text == "eta" else float(text),
    lambda value: value == "eta" or math.isfinite(value),
)


def _numpy_to_python(obj):
    # json calls this only for objects it cannot encode: numpy arrays and
    # numpy scalars other than np.float64, which is already a float.
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(document, out_path):
    text = json.dumps(document, indent=2, default=_numpy_to_python) + "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _diffusion_grid(args, model, grid=True):
    """Refuse a regime model; with ``grid``, return ``(lo, hi, n)`` from --domain and --n."""
    if not isinstance(model, DiffusionModel):
        raise UsageError(f"{args.command} needs a diffusion model")
    if grid and (args.domain is None or args.n is None):
        raise UsageError("diffusion models need --domain A,B and --n")
    return (*args.domain, args.n) if grid else None


def _cmd_wellposed(args, model):
    if isinstance(model, RegimeModel):
        report = check_wellposed(model)
        return {"model_type": "regime", **report.to_dict()}, report.verdict
    lo, hi, n = _diffusion_grid(args, model)
    work, phi = to_zero_correlation(model)
    A_h, grid = assemble_discrete_hjb(work, lo, hi, n, scheme=args.scheme)
    # The report of a solve refusal, so both documents hold one record.
    cert = check_nonsingular_m_matrix(A_h)
    report = WellPosednessReport.from_certificate(A_h.main, model.eta(grid), cert)
    document = {
        "model_type": "diffusion",
        "family": model.family,
        "domain": [lo, hi],
        "n": n,
        "scheme": args.scheme,
        "distortion": phi,
        **report.to_dict(),
    }
    return document, report.verdict


def _cmd_solve(args, model):
    if isinstance(model, RegimeModel):
        solution = solve_regime(model, tol=args.tol)
        document = {
            "model_type": "regime",
            "verdict": True,
            "eta": model.eta(),
            "f": solution.f,
            "u": solution.u,
            "pi_hat": solution.pi_hat,
            **solution.metadata,
        }
    else:
        lo, hi, n = _diffusion_grid(args, model)
        solution = solve(model, lo, hi, n, tol=args.tol, scheme=args.scheme)
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
        }
    if args.out:
        write_solution_csv(args.out, solution, model)
    document["csv"] = args.out or None
    return document, True


def _cmd_refine(args, model):
    lo, hi, n_list = _diffusion_grid(args, model)
    table = grid_refinement_study(model, lo, hi, n_list, scheme=args.scheme, tol=args.tol)
    return asdict(table), True


def _cmd_expand(args, model):
    _diffusion_grid(args, model, grid=False)
    table = domain_expansion_study(
        model, args.m, args.h, args.window, scheme=args.scheme, tol=args.tol
    )
    return asdict(table), True


def _cmd_bounds(args, model):
    lo, hi, n = _diffusion_grid(args, model)
    grid = np.linspace(lo, hi, n + 1)
    g1, g2 = args.g1, args.g2
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
    return document, True


def _cmd_report(args, model):
    lo, hi, n = _diffusion_grid(args, model)
    solution = solve(model, lo, hi, n, tol=args.tol, scheme=args.scheme)
    report = asymptotic_report(
        solution, model, tail_fraction=args.tail_fraction, margin_fraction=args.margin_fraction
    )
    document = {
        "family": model.family,
        "metadata": solution.metadata,
        **report.to_dict(),
    }
    return document, True


def _cmd_mc(args, model):
    if isinstance(model, RegimeModel):
        if not (args.y0.is_integer() and 0 <= args.y0 < model.n_states):
            raise UsageError(f"--y0 must be a state index in 0..{model.n_states - 1}")
        y0 = int(args.y0)
        solution = solve_regime(model, tol=args.tol)
        policy = (solution.pi_hat, solution.u)
        solver_value = solution.value(args.x0, state=y0)
    else:
        lo, hi, n = _diffusion_grid(args, model)
        if not lo <= args.y0 <= hi:
            raise UsageError(f"--y0 {args.y0} lies outside --domain [{lo}, {hi}]")
        y0 = args.y0
        solution = solve(model, lo, hi, n, tol=args.tol, scheme=args.scheme)
        grid, u_grid, pi_grid = solution.grid, solution.u, solution.pi_hat
        policy = (
            lambda y: np.interp(y, grid, pi_grid),
            lambda y: np.interp(y, grid, u_grid),
        )
        f0 = float(np.interp(y0, grid, solution.f))
        solver_value = args.x0 ** (1.0 - model.R) / (1.0 - model.R) * f0
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
    return document, True


def build_parser():
    parser = _Parser(prog="merton-factor", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    # --n is one grid step count, a comma list for refine.  expand has no grid,
    # and its --tol default is that of domain_expansion_study.  Only the
    # handlers that solve read --tol; bounds reads neither --tol nor --scheme.
    for name, func, summary, steps in (
        ("wellposed", _cmd_wellposed, "well-posedness verdict with certificate", _STEPS),
        ("solve", _cmd_solve, "solve the stationary problem", _STEPS),
        ("refine", _cmd_refine, "grid refinement study", _STEP_LIST),
        ("expand", _cmd_expand, "domain expansion study", None),
        ("bounds", _cmd_bounds, "proportional sandwich bounds", _STEPS),
        ("report", _cmd_report, "tail diagnostics of a solved problem", _STEPS),
        ("mc", _cmd_mc, "Monte Carlo policy verification", _STEPS),
    ):
        p = commands[name] = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--model", required=True, help="model JSON file")
        if name not in ("wellposed", "bounds"):
            tol = 1e-10 if steps else 1e-12
            p.add_argument("--tol", type=_POSITIVE, default=tol, help="solver tolerance")
        p.add_argument("--out", default=None, help="output file")
        if name != "bounds":
            p.add_argument(
                "--scheme", default="upwind", choices=("upwind", "central"), help="upwind or central"
            )
        if steps:
            p.add_argument("--domain", type=_INTERVAL, help="truncation interval A,B")
            p.add_argument(
                "--n", type=steps, required=steps is _STEP_LIST, help="grid step count(s)"
            )

    p = commands["expand"]
    p.add_argument("--m", type=_NUMBERS, required=True, help="comma list of domain sizes")
    p.add_argument("--h", type=_POSITIVE, required=True, help="target grid spacing")
    p.add_argument("--window", type=_INTERVAL, required=True, help="comparison window A,B")

    p = commands["bounds"]
    p.add_argument("--g1", type=_PROFILE, help="subsolution profile: 'eta' or a constant")
    p.add_argument("--g2", type=_PROFILE, help="supersolution profile: 'eta' or a constant")

    p = commands["report"]
    p.add_argument("--tail-fraction", type=float, default=0.1, dest="tail_fraction")
    p.add_argument("--margin-fraction", type=float, default=0.01, dest="margin_fraction")

    p = commands["mc"]
    p.add_argument("--x0", type=_POSITIVE, default=1.0, help="initial wealth")
    p.add_argument("--y0", type=float, required=True, help="initial factor value or state index")
    p.add_argument("--horizon", type=_POSITIVE, required=True, help="simulation horizon T")
    p.add_argument("--dt", type=_POSITIVE, required=True, help="time step")
    p.add_argument("--paths", type=int, required=True, help="number of paths")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--antithetic", action="store_true", help="antithetic pairing")

    return parser


def _illposed_document(exc):
    # Every IllPosedError that reaches main comes from solve or solve_regime,
    # which attach a WellPosednessReport.
    return {"verdict": False, "error": str(exc), **exc.report.to_dict()}


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
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        try:
            document, verdict = args.func(args, load_model(args.model))
        except IllPosedError as exc:
            document, verdict = _illposed_document(exc), False
        # solve writes its CSV table to --out, so its document goes to stdout.
        _emit(document, None if args.command == "solve" else args.out)
    except (MertonFactorError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if verdict else 2


if __name__ == "__main__":
    sys.exit(main())
