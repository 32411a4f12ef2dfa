"""README's library quick start runs as written."""

import re
from pathlib import Path

import numpy as np

from dpresidual import auroc, roc

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first fenced python block after the 'Library quick start' heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs(capsys):
    """Every name it imports, every call and the check=False line still work;
    the printed AUROC is the exact one, and the family's areas are its rows'."""
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    spec = namespace["spec"]
    assert float(printed[1]) == roc(spec).auroc == auroc(spec)
    areas = namespace["aurocs"]
    assert areas.shape == (3,) and np.all(np.diff(areas) > 0)
    assert np.all((areas > 0.5) & (areas < 1.0))
