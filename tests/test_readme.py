"""The library quickstart of README.md runs against the package as it is,
and every documented command line parses."""

import re
import shlex
from pathlib import Path

from fracstep import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs():
    text = README.read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md quickstart", "exec"), scope)
    fs, op = scope["fs"], scope["op"]
    assert scope["err"] < 1e-6 * fs.m_norm(op, scope["ref"])
    assert len(scope["outs"]) == len(scope["stats"]) == 2
    assert scope["outs"][0].coeffs.tolist() == scope["u"].coeffs.tolist()


def test_command_lines_parse():
    text = README.read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    commands = set()
    for line in block.strip().splitlines():
        prog, *argv = shlex.split(line)
        assert prog == "fracstep"
        # argparse exits (status 2) on a flag the command does not offer
        commands.add(cli.build_parser().parse_args(argv).command)
    assert commands == set(cli.COMMANDS)
