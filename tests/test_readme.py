"""The README's examples print what their comments say."""

import contextlib
import io
from pathlib import Path

from listprivacy.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(section: str, lang: str) -> str:
    """The first `lang` code block after the README heading `section`."""
    text = README.read_text(encoding="utf-8")
    fence = f"```{lang}\n"
    start = text.index(fence, text.index(f"\n## {section}\n")) + len(fence)
    return text[start : text.index("```", start)]


def test_library_use_prints_its_comments():
    code = code_block("Library use", "python")
    # Each print call's comment up to its first comma is the line it prints.
    expected = [
        line.partition("#")[2].partition(",")[0].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_command_line_validate_prints_its_comment():
    lines = code_block("Command line", "sh").splitlines()
    # The comment line under the call is the first line it prints.
    expected = lines[lines.index("listprivacy validate skew7") + 1].removeprefix("# ")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", "skew7"])
    assert code == 0 and out.getvalue().splitlines()[0] == expected
