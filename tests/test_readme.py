"""The README's code runs against the current API."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def section_code(heading):
    """The first ```python block under the ``## heading`` section of README.md."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_snippet_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.Generator(np.random.PCG64(0))
    np.savetxt(tmp_path / "queries.csv", rng.normal(size=(7, 6)), fmt="%.17g", delimiter=",")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(section_code("Library use"), "README.md", "exec"), namespace)
    assert namespace["model"].scaler is not None
    assert namespace["scores"].shape == (7, 3)
    assert "MetricSummary" in capsys.readouterr().out
