"""README's command lines stay in step with the CLI and the repository."""

import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from alcc_lab import cli
from alcc_lab.scenario import Scenario, SweepSpec

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()
BLOCKS = re.findall(r"^```\n(.*?)^```", README, re.M | re.S)
# the lines of the code blocks that run a command, without their trailing comments
COMMANDS = [shlex.split(line, comments=True) for block in BLOCKS for line in block.splitlines()
            if line.split(" ", 1)[0] in ("alcc-lab", "python3", "pytest", "pip")]


def test_readme_has_cli_commands():
    assert sum(argv[0] == "alcc-lab" for argv in COMMANDS) >= 10


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_is_current(argv):
    for token in argv[1:]:
        if token.endswith((".py", ".cfg")):
            assert (REPO / token).is_file(), token
    if argv[0] == "alcc-lab":
        # parses without running; a flag the CLI lost exits through argparse
        args = cli._build_parser().parse_args(argv[1:])
        if getattr(args, "config", None) is not None:
            assert (REPO / args.config).is_file(), args.config


def test_config_key_lists_are_the_dataclass_fields():
    """The README's copy of the config schema names every field, in order."""
    text = " ".join(README.split())
    keys = re.search(r"`\[scenario\]` keys mirror the `Scenario` dataclass \(`([^`]*)`\)", text)
    axes = re.search(r"`\[sweep\]` section lists grid axes \(`([^`]*)`\) and `(\w+)`", text)
    assert keys and axes
    assert keys[1].split(", ") == [f.name for f in dataclasses.fields(Scenario)]
    assert axes[1].split(", ") + [axes[2]] == [f.name for f in dataclasses.fields(SweepSpec)]
