"""The README's Quick start runs as written against the current API."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Quick start'"
    return match.group(1)


def test_readme_quick_start_runs():
    namespace = {}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    frame, fhat = namespace["frame"], namespace["fhat"]
    assert fhat.shape == (frame.budget,)
    assert np.all(np.isfinite(fhat))
