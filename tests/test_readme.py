"""The README's library quick start runs as written."""

import pathlib
import re

_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    # an API change that breaks the documented example fails here
    blocks = re.findall(r"```python\n(.*?)```", _README.read_text(), re.S)
    assert blocks, "the README has no python example"
    for block in blocks:
        exec(compile(block, str(_README), "exec"), {})
