"""The README's examples agree with the package: its library snippet
prints what its comment says, and its ``analyze`` excerpt is what
``qurdlab analyze`` prints on its scenario."""

import contextlib
import io
import re
from pathlib import Path

from qurdlab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(after, lang=""):
    """The body of the first fenced block opened with ```lang after the
    text ``after``."""
    start = README.index(after)
    return re.search(r"^```%s\n(.*?)^```$" % lang, README[start:],
                     re.S | re.M).group(1)


def test_library_snippet_prints_its_comment():
    code = fenced("## Library in three lines", "python")
    claimed = re.search(r"^# (\S+?):", code, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == claimed + "\n"


def test_analyze_excerpt_is_a_slice_of_its_output(tmp_path, capsys):
    scenario = tmp_path / "contention.scn"
    scenario.write_text(fenced("A scenario is a small text file:"))
    main(["analyze", str(scenario), "--out", str(tmp_path / "w")])
    output = capsys.readouterr().out.splitlines()
    excerpt = fenced("Its report says so:").splitlines()
    assert len(excerpt) == 4
    assert any(output[i:i + 4] == excerpt for i in range(len(output)))
