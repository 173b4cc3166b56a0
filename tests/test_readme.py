"""The README's Library block runs as written, on the README's model files."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(tmp_path, monkeypatch):
    text = README.read_text()
    regime, mpr = re.findall(r"^```json\n(.*?)^```", text, re.S | re.M)
    (code,) = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    (tmp_path / "regime.json").write_text(regime)
    (tmp_path / "mpr.json").write_text(mpr)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(code, namespace)
    est, solver_value = namespace["est"], namespace["sol"].value(1.0, 0)
    assert est.paths == 30_000
    assert abs(est.mean - solver_value) <= 4.0 * est.se
