"""The README's examples stay runnable.

Every ``latbal`` command in its ``sh`` blocks parses with the CLI's own
parser, and the "Library usage" block runs as written, so a renamed flag
or function fails here before a reader copies the example.
"""

import re
import shlex
from pathlib import Path

from latbal.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _latbal_commands():
    """The argv (after ``latbal``) of each command in the README's sh blocks."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["latbal"]:
                commands.append(words[1:])
    return commands


def test_every_readme_command_parses(capsys):
    commands = _latbal_commands()
    assert {argv[0] for argv in commands} == {"synth", "contingency", "sample", "fit", "eval",
                                              "project", "edit", "sweep", "report"}
    bad = []
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            bad.append(" ".join(argv))
    assert bad == [], capsys.readouterr().err


def test_library_usage_block_runs(capsys):
    text = README.read_text()
    code = re.search(r"^## Library usage\n\n```python\n(.*?)^```", text, flags=re.S | re.M)[1]
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["attr0", "attr1", "attr2", "attr3"]
    assert all(len(line.split()) == 3 for line in lines)
