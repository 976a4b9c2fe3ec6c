"""The README's library quick start runs as written, its CLI examples validate,
and its dependency floors are those of pyproject.toml."""

import json
import pathlib
import re
import shlex

from entrobound.cli import _merge_config, build_parser
from entrobound.harness import ExperimentConfig

_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    # an API change that breaks the documented example fails here
    blocks = re.findall(r"```python\n(.*?)```", _README.read_text(), re.S)
    assert blocks, "the README has no python example"
    for block in blocks:
        exec(compile(block, str(_README), "exec"), {})


def test_readme_command_lines_and_config_validate():
    # a renamed flag or experiment, or a default that the validation no longer
    # accepts, fails here; nothing is run
    text = _README.read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.splitlines()
             if line.startswith("entrobound ") and "--config" not in line]
    assert len(lines) == 6, lines
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        _merge_config(args).resolved().validate()
    configs = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(configs) == 1
    doc = dict(json.loads(configs[0]), experiment="ball-entropy")
    ExperimentConfig.from_json(doc).resolved().validate()


def test_readme_dependency_floors_match_pyproject():
    # a regex, not tomllib, which needs Python 3.11; the package supports 3.10
    project = (_README.parent / "pyproject.toml").read_text()
    listed = re.search(r"^dependencies = \[(.*?)\]", project, re.M | re.S).group(1)
    floors = re.findall(r'"([\w.-]+)\s*>=\s*([\d.]+)"', listed)
    python = re.search(r'^requires-python = ">=([\d.]+)"', project, re.M).group(1)
    line = next(line for line in _README.read_text().splitlines()
                if line.startswith("Dependencies:"))
    assert floors and re.findall(r"`([\w.-]+) >= ([\d.]+)`", line) == floors
    assert re.search(r"\(Python >= ([\d.]+)\)", line).group(1) == python
