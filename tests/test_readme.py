"""The README's python examples run as written, and its commands parse."""

import re
import shlex
from pathlib import Path

from doalab import cli

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
