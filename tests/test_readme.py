"""The README's examples print what the README says they print."""

import re
import shlex
from pathlib import Path

from idemsync.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_library_quick_start(capsys):
    section = README.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["9", "18", "True"]


def test_chi_examples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    command, path = re.search(r"^idemsync (gen .*) > (\S+)$", README, re.M).groups()
    assert main(shlex.split(command)) == 0
    (tmp_path / path).write_text(capsys.readouterr().out, encoding="utf-8")
    examples = re.findall(r"^idemsync (chi .*?)\s+# -> (.*)$", README, re.M)
    assert [want for _, want in examples] == [
        "b a1 b a2",
        "s1 s2",
        "not-in-image position=0",
    ]
    for command, want in examples:
        assert main(shlex.split(command)) == 0
        assert capsys.readouterr().out == want + "\n"
