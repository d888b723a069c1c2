"""The README's code runs against the current API."""

import re
from pathlib import Path

import numpy as np

from vpcme import load_csv

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


def test_arff_converter_snippet_runs(tmp_path, monkeypatch):
    arff = tmp_path / "tiny.arff"
    arff.write_text(
        "% a comment before the header\n"
        "@relation tiny\n"
        "@attribute f0 numeric\n"
        "@attribute f1 numeric\n"
        "@attribute l0 {0,1}\n"
        "@attribute l1 {0,1}\n"
        "@DATA\n"
        "0.5,-1.25,1,0\n"
        "% a comment among the rows\n"
        "\n"
        "3.0,4.0,0,1\n"
        "  2.5,0.0,1,1  \n",
        encoding="utf-8",
    )
    csv = tmp_path / "tiny.csv"
    monkeypatch.setattr("sys.argv", ["convert.py", str(arff), str(csv)])
    exec(compile(section_code("Dataset format"), "README.md", "exec"), {})
    ds = load_csv(str(csv), 2)
    assert np.array_equal(ds.features, [[0.5, -1.25], [3.0, 4.0], [2.5, 0.0]])
    assert np.array_equal(ds.labels, [[True, False], [False, True], [True, True]])
