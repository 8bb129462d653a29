"""The README's library quick start runs and prints what its comments say.

Every `print(...)  # <expected>` line of the README's python block must
print exactly <expected>; the other lines must run without error.
"""
import io
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_what_its_comments_say():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    expected = {
        lineno: line.split("#", 1)[1].strip()
        for lineno, line in enumerate(block.splitlines(), start=1)
        if line.startswith("print(") and "#" in line
    }
    assert expected, "the quick start pins no printed value"
    printed = {}

    def capture(*args, **kwargs):
        buf = io.StringIO()
        print(*args, file=buf, **kwargs)
        printed[sys._getframe(1).f_lineno] = buf.getvalue().rstrip("\n")

    exec(compile(block, str(README), "exec"), {"print": capture})
    assert {lineno: printed.get(lineno) for lineno in expected} == expected
