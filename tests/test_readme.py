"""The README's Quick start runs as written, and its config block shows the defaults."""

import json
import re
from pathlib import Path

import numpy as np

from needlets import SimulationConfig

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


def test_readme_config_defaults_are_the_config_defaults():
    # tuples are written as lists, so compare after a JSON round trip
    text = README.read_text(encoding="utf-8")
    section = text.split("(defaults shown):", 1)[1]
    match = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    assert match, "no json block after '(defaults shown):'"
    assert json.loads(match.group(1)) == json.loads(json.dumps(SimulationConfig().to_dict()))
