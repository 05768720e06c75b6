"""The README's library tour prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour_outputs():
    block, = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = re.findall(r"# -> (.*)", block)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
