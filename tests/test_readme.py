"""The README's library quick start runs and prints what its comments
say, and each command of its CLI block exits 0.

Every `print(...)  # <expected>` line of the README's python block must
print exactly <expected>; the other lines must run without error.
"""
import io
import re
import shlex
import sys
from pathlib import Path

from qent import make_pure, save_state
from qent.cli import main

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


def test_cli_block_commands_exit_0(tmp_path, monkeypatch, capsys):
    """Each `qent ...` line of the README's CLI block exits 0, run through
    cli.main in a fresh directory that holds the files it names: bell.json
    (a Bell state) and my_suite.json (the README's suite config block)."""
    text = README.read_text(encoding="utf-8")
    cli_block = re.search(r"## CLI\n+```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in cli_block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "qent" for argv in commands), commands
    monkeypatch.chdir(tmp_path)
    save_state(make_pure([1, 0, 0, 1], 2), "bell.json")
    Path("my_suite.json").write_text(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    codes = {" ".join(argv): main(argv[1:]) for argv in commands}
    capsys.readouterr()
    assert codes == {command: 0 for command in codes}
