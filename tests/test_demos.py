"""The demo scripts and the README quickstart run as shipped.

Each demo asserts its own results (feasibility, closed forms), so a
successful run is the check.
"""
import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_quickstart() -> str:
    text = (ROOT / "README.md").read_text()
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quickstart_runs(capsys):
    exec(compile(_readme_quickstart(), "README.md", "exec"), {"__name__": "__main__"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("True ")
