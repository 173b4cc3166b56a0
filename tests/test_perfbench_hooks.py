"""The benchmark's traced run hooks package names that must keep existing."""

import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    # Compiled from its source text, so no bytecode is written next to it.
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_run_finds_every_hook_target(monkeypatch, mpr_model):
    tracing = _load_tracing(monkeypatch)
    hooks = tracing.PACKAGE_HOOKS + tracing.coefficient_hooks(mpr_model)
    assert tracing.missing_hooks(hooks) == []
