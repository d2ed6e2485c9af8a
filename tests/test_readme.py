"""The README's "Library example" block runs as written, and each line of its
CLI quick reference is a pinned row of `test_cli.py`."""

import re
import shlex
from pathlib import Path

from test_cli import ROWS

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading, language):
    section = README.read_text().split(f"## {heading}", 1)[1]
    block = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert block, f"README has no {language} block under {heading!r}"
    return block.group(1)


def test_readme_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})


def test_readme_cli_examples_are_pinned_rows():
    pinned = {row.argv for row in ROWS}
    for line in _block("CLI quick reference", "sh").splitlines():
        argv = shlex.split(line.split("|")[0], comments=True)
        assert argv[0] == "monoidkit" and tuple(argv[1:]) in pinned, line
