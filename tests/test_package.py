import ast
import re
import shlex
from pathlib import Path

import pytest

import translab
from translab import cli

SOURCES = sorted(Path(translab.__file__).parent.rglob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Every ``translab ...`` line of the README's "Command line" section."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [line for block in re.findall(r"```bash\n(.*?)```", section, re.S)
            for line in block.splitlines() if line.startswith("translab ")]


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module


def test_no_module_imports_fractions():
    # level geometry is exact doubles; Fraction arithmetic lives only in test oracles
    assert SOURCES
    offenders = [
        path.name
        for path in SOURCES
        if any(name.split(".")[0] == "fractions" for name in imported_modules(path))
    ]
    assert offenders == []


def test_readme_lists_every_subcommand():
    used = {shlex.split(line)[1] for line in readme_commands()}
    assert used == {"modulus", "eval", "build", "certify", "perturb", "sweep"}


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    # a renamed or removed flag makes argparse exit here instead of misleading a reader
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert args.handler.__name__ == f"_cmd_{args.command}"
