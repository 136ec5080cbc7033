"""The README's python examples run as written, its commands parse and its configs validate."""

import json
import re
import shlex
from pathlib import Path

from doalab import cli, evaluate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the oracle mask steers SRP-MP to the first source at 60 degrees
    assert capsys.readouterr().out.split() == ["60.0"]


def test_documented_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    commands = [
        line
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("doalab ")
    ]
    assert len(commands) >= 5, commands
    parser = cli.build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_documented_configs_validate():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README has no json block"
    for block in blocks:
        evaluate.validate_config(json.loads(block))


def test_mask_kinds_listed():
    """The README's list of mask specs is ``evaluate.MASK_KINDS``, kind by kind in its order."""
    listed = re.search(r"the mask specs \((.*?)\)", README.read_text(), re.DOTALL).group(1)
    assert re.sub(r"\s+", " ", listed).replace("`", "") == evaluate.MASK_KINDS
