"""The README's Python examples run as written, and its CLI lines parse."""
import os
import re
import shlex

from bellgraph.cli import build_parser

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def read_readme() -> str:
    with open(README, encoding="utf-8") as f:
        return f.read()


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", read_readme(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_cli_lines_parse():
    # every documented command line is accepted by the parser, so a removed
    # flag or subcommand cannot stay documented; nothing is run
    commands = [shlex.split(line, comments=True)
                for block in re.findall(r"```\n(.*?)```", read_readme(), re.S)
                for line in block.splitlines()]
    commands = [words[1:] for words in commands if words[:1] == ["bellgraph"]]
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func, argv
