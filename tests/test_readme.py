"""The README's library example, run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_prints_what_its_comments_say(capsys):
    text = README.read_text()
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library example)", "exec"), {})
    # each print's comment opens with the line it prints
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        assert comment.startswith(line), (line, comment)
