"""The README's examples print what their comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(section: str) -> str:
    """The first python code block after the README heading `section`."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index(f"\n## {section}\n")) + len("```python\n")
    return text[start : text.index("```", start)]


def test_library_use_prints_its_comments():
    code = python_block("Library use")
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
