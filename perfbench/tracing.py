"""Call-site hooks and an in-memory span recorder for the traced run.

A hook replaces a name that package code looks up at call time, such as
``merton_factor.diffusion_solver.solve_matrix_hjb`` or the ``matvec``
attribute of ``TridiagonalOperator``, with a timing wrapper, and puts the
original back afterwards.  No package file is edited.  A hook whose target
no longer exists is reported as missing; the worker refuses to run then,
so a renamed function can never read as a layer that took 0 s.

Spans (name, start, end, parent, op) are kept in memory and written when
the run ends.  Calls made thousands of times per op (coefficient and policy
callables, tridiagonal solves and products) are "leaf" hooks: they add a
call count and their time to the op and to the span they ran under, which
keeps the span list short and the wrapper cheap.  A span's self time is
its duration minus its child spans and the leaf calls made directly under
it.  The process is single-threaded while hooks are installed, so child
intervals never overlap.
"""

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

perf_counter = time.perf_counter


class Recorder:
    """Spans, leaf-call totals and per-op notes of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op]
        self.op = None
        self._stack = []
        self.leaf = defaultdict(lambda: [0, 0.0])  # (op, name) -> [calls, seconds]
        self.leaf_under = defaultdict(float)  # span index -> leaf seconds directly under it
        self.notes = defaultdict(list)  # (op, key) -> values

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add_leaf(self, name, seconds):
        entry = self.leaf[(self.op, name)]
        entry[0] += 1
        entry[1] += seconds
        if self._stack:
            self.leaf_under[self._stack[-1]] += seconds

    def note(self, key, value):
        self.notes[(self.op, key)].append(value)

    def op_layers(self, op):
        """{name: [calls, seconds, self seconds]} for one op, spans and leaves."""
        covered = defaultdict(float)
        for name, start, end, parent, span_op in self.spans:
            if span_op == op and parent is not None:
                covered[parent] += end - start
        layers = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, parent, span_op) in enumerate(self.spans):
            if span_op != op:
                continue
            entry = layers[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[index] - self.leaf_under[index]
        for (leaf_op, name), (calls, seconds) in self.leaf.items():
            if leaf_op == op:
                layers[name] = [calls, seconds, seconds]
        return layers

    def op_notes(self, op):
        return {key: values for (note_op, key), values in self.notes.items() if note_op == op}

    def to_json(self):
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans
            ],
            "leaf_calls": [
                {"op": o, "name": n, "calls": c, "seconds": s}
                for (o, n), (c, s) in sorted(self.leaf.items(), key=lambda kv: str(kv[0]))
            ],
        }


@dataclass(frozen=True)
class Hook:
    """Wrap ``attr`` of ``target`` as the layer ``name``.

    ``target`` is ``"module"`` or ``"module:Class"``, or an object.
    ``after(recorder, result)`` runs outside the span and may return a
    replacement result (None keeps the original).
    """

    target: object
    attr: str
    name: str
    leaf: bool = False
    after: Optional[Callable] = None


def _owner(target):
    if not isinstance(target, str):
        return target
    module_name, _, class_path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in filter(None, class_path.split(".")):
        owner = getattr(owner, part)
    return owner


def _label(hook):
    target = hook.target if isinstance(hook.target, str) else type(hook.target).__name__
    return f"{target}.{hook.attr}"


def wrap_leaf(recorder, name, fn):
    """``fn`` timed as a call of the leaf layer ``name``."""

    @functools.wraps(fn)
    def leaf_wrapper(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        recorder.add_leaf(name, perf_counter() - start)
        return result

    return leaf_wrapper


def _wrap(recorder, hook, fn):
    if hook.leaf:
        return wrap_leaf(recorder, hook.name, fn)

    @functools.wraps(fn)
    def span_wrapper(*args, **kwargs):
        index = recorder.open(hook.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if hook.after is not None:
            replaced = hook.after(recorder, result)
            if replaced is not None:
                result = replaced
        return result

    return span_wrapper


def missing_hooks(hooks):
    """Labels of hooks whose module, class or attribute does not exist."""
    missing = []
    for hook in hooks:
        try:
            owner = _owner(hook.target)
        except (ImportError, AttributeError):
            missing.append(_label(hook))
            continue
        if not callable(getattr(owner, hook.attr, None)):
            missing.append(_label(hook))
    return missing


@contextmanager
def installed(recorder, hooks):
    """Install every hook for the duration of the block, then restore."""
    restore = []
    try:
        for hook in hooks:
            owner = _owner(hook.target)
            own = vars(owner).get(hook.attr)
            fn = own if own is not None else getattr(owner, hook.attr)
            setattr(owner, hook.attr, _wrap(recorder, hook, fn))
            restore.append((owner, hook.attr, own))
        yield
    finally:
        for owner, attr, own in reversed(restore):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


# -- hooks on the package ------------------------------------------------------


def _note_certificate(recorder, certificate):
    if certificate.ratios is not None and len(certificate.ratios):
        recorder.note("min_pivot_ratio", float(np.min(certificate.ratios)))


def _note_hjb(recorder, solution):
    recorder.note("iterations", int(solution.iterations))
    recorder.note("abs_p", abs(float(solution.p)))
    steps = np.asarray(solution.trace, dtype=float)
    if steps.size >= 2 and np.all(steps[:-1] > 0.0):
        recorder.note("contraction_max", float(np.max(steps[1:] / steps[:-1])))


def _wrap_factor(recorder, solve):
    return wrap_leaf(recorder, "linalg.lin_solve", solve)


PACKAGE = "merton_factor"

# Each entry wraps the name where its caller looks it up, so a function
# imported into two modules gets two hooks under one layer name.
PACKAGE_HOOKS = (
    Hook(f"{PACKAGE}.cli", "main", "cli.main"),
    Hook(f"{PACKAGE}.cli", "load_model", "model.load"),
    Hook(f"{PACKAGE}.model", "load_model", "model.load"),
    Hook(f"{PACKAGE}.cli", "solve", "diffusion_solver.solve"),
    Hook(f"{PACKAGE}.diffusion_solver", "solve", "diffusion_solver.solve"),
    Hook(f"{PACKAGE}.cli", "write_solution_csv", "diffusion_solver.csv_write"),
    Hook(f"{PACKAGE}.diffusion_solver", "read_solution_csv", "diffusion_solver.csv_read"),
    Hook(f"{PACKAGE}.diffusion_solver", "recompute_csv_residual", "diffusion_solver.recompute"),
    Hook(f"{PACKAGE}.diffusion_solver", "assemble_discrete_hjb", "discretizer.assemble"),
    Hook(
        f"{PACKAGE}.diffusion_solver",
        "check_nonsingular_m_matrix",
        "linalg.certify",
        after=_note_certificate,
    ),
    Hook(
        f"{PACKAGE}.regime_solver",
        "check_nonsingular_m_matrix",
        "linalg.certify",
        after=_note_certificate,
    ),
    Hook(f"{PACKAGE}.diffusion_solver", "solve_matrix_hjb", "regime_solver.hjb", after=_note_hjb),
    Hook(f"{PACKAGE}.regime_solver", "solve_matrix_hjb", "regime_solver.hjb", after=_note_hjb),
    Hook(f"{PACKAGE}.regime_solver", "solve_regime", "regime_solver.solve_regime"),
    Hook(f"{PACKAGE}.linalg:TridiagonalOperator", "factorized", "linalg.factor", after=_wrap_factor),
    Hook(f"{PACKAGE}.linalg:TridiagonalOperator", "matvec", "linalg.matvec", leaf=True),
    Hook(f"{PACKAGE}.montecarlo", "estimate_value", "montecarlo.estimate"),
    Hook(f"{PACKAGE}.montecarlo", "sample_ctmc_path", "montecarlo.ctmc_path", leaf=True),
)

COEFFICIENTS = ("r", "lam", "sigma", "delta", "a", "b")


def coefficient_hooks(model):
    """Leaf hooks on one model instance's coefficient methods."""
    return tuple(Hook(model, attr, "model.coef", leaf=True) for attr in COEFFICIENTS)


# -- per-op layer metrics ------------------------------------------------------

# name -> (unit, better); the order is the order of the report.
LAYER_METRICS = {
    "linalg.certify_s": ("s", "lower"),
    "linalg.certify_calls": ("count", "lower"),
    "linalg.min_pivot_ratio": ("ratio", "higher"),
    "linalg.factor_s": ("s", "lower"),
    "linalg.lin_solve_s": ("s", "lower"),
    "linalg.lin_solve_calls": ("count", "lower"),
    "linalg.matvec_s": ("s", "lower"),
    "discretizer.assemble_s": ("s", "lower"),
    "discretizer.assemble_calls": ("count", "lower"),
    "regime_solver.hjb_s": ("s", "lower"),
    "regime_solver.self_s": ("s", "lower"),
    "regime_solver.iterations": ("count", "lower"),
    "regime_solver.contraction_max": ("ratio", "lower"),
    "regime_solver.abs_p": ("ratio", "lower"),
    "diffusion_solver.solve_s": ("s", "lower"),
    "diffusion_solver.self_s": ("s", "lower"),
    "diffusion_solver.residual_over_floor": ("ratio", "lower"),
    "diffusion_solver.csv_write_s": ("s", "lower"),
    "diffusion_solver.csv_bytes": ("bytes", "lower"),
    "diffusion_solver.csv_read_s": ("s", "lower"),
    "diffusion_solver.recompute_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "model.load_s": ("s", "lower"),
    "model.coef_s": ("s", "lower"),
    "model.coef_calls": ("count", "lower"),
    "montecarlo.estimate_s": ("s", "lower"),
    "montecarlo.self_s": ("s", "lower"),
    "montecarlo.se": ("utility", "lower"),
    "montecarlo.abs_z": ("ratio", "lower"),
    "montecarlo.tail_share": ("ratio", "lower"),
    "montecarlo.s_to_se1pct": ("s", "lower"),
    "montecarlo.policy_s": ("s", "lower"),
    "montecarlo.policy_calls": ("count", "lower"),
    "montecarlo.ctmc_path_us": ("us", "lower"),
    "montecarlo.jumps_per_path": ("count", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "proc.cpu_util": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "src.lines": ("count", "lower"),
}

# layer metric -> (layer name, field) read from Recorder.op_layers
_FROM_LAYERS = {
    "linalg.certify_s": ("linalg.certify", 1),
    "linalg.certify_calls": ("linalg.certify", 0),
    "linalg.factor_s": ("linalg.factor", 1),
    "linalg.lin_solve_s": ("linalg.lin_solve", 1),
    "linalg.lin_solve_calls": ("linalg.lin_solve", 0),
    "linalg.matvec_s": ("linalg.matvec", 1),
    "discretizer.assemble_s": ("discretizer.assemble", 1),
    "discretizer.assemble_calls": ("discretizer.assemble", 0),
    "regime_solver.hjb_s": ("regime_solver.hjb", 1),
    "regime_solver.self_s": ("regime_solver.hjb", 2),
    "diffusion_solver.solve_s": ("diffusion_solver.solve", 1),
    "diffusion_solver.self_s": ("diffusion_solver.solve", 2),
    "diffusion_solver.csv_write_s": ("diffusion_solver.csv_write", 1),
    "diffusion_solver.csv_read_s": ("diffusion_solver.csv_read", 1),
    "diffusion_solver.recompute_s": ("diffusion_solver.recompute", 1),
    "cli.self_s": ("cli.main", 2),
    "model.load_s": ("model.load", 1),
    "model.coef_s": ("model.coef", 1),
    "model.coef_calls": ("model.coef", 0),
    "montecarlo.estimate_s": ("montecarlo.estimate", 1),
    "montecarlo.self_s": ("montecarlo.estimate", 2),
    "montecarlo.policy_s": ("montecarlo.policy", 1),
    "montecarlo.policy_calls": ("montecarlo.policy", 0),
}

# layer metric -> (note key, reduction) read from Recorder.op_notes
_FROM_NOTES = {
    "linalg.min_pivot_ratio": ("min_pivot_ratio", min),
    "regime_solver.iterations": ("iterations", max),
    "regime_solver.contraction_max": ("contraction_max", max),
    "regime_solver.abs_p": ("abs_p", max),
}

# layer metric -> key of the observations a workload's check returns
_FROM_CHECK = {
    "diffusion_solver.residual_over_floor": "residual_over_floor",
    "diffusion_solver.csv_bytes": "csv_bytes",
    "montecarlo.se": "se",
    "montecarlo.abs_z": "abs_z",
    "montecarlo.tail_share": "tail_share",
}


def op_layer_metrics(recorder, op, observations):
    """Layer metrics of one traced op; a layer the op never called reads 0."""
    layers = recorder.op_layers(op)
    notes = recorder.op_notes(op)
    metrics = {}
    for metric, (layer, field) in _FROM_LAYERS.items():
        metrics[metric] = layers[layer][field] if layer in layers else 0
    for metric, (key, reduce) in _FROM_NOTES.items():
        metrics[metric] = reduce(notes[key]) if notes.get(key) else 0
    for metric, key in _FROM_CHECK.items():
        metrics[metric] = observations.get(key, 0)
    calls, seconds, _ = layers.get("montecarlo.ctmc_path", (0, 0.0, 0.0))
    metrics["montecarlo.ctmc_path_us"] = 1e6 * seconds / calls if calls else 0
    jumps = notes.get("jumps")
    metrics["montecarlo.jumps_per_path"] = sum(jumps) / len(jumps) if jumps else 0
    return metrics

