"""Each demo prints exactly its recorded output in ``tests/data/demos``."""

from __future__ import annotations

import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_unchanged(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    expected = Path(__file__).parent / "data" / "demos" / f"{demo.stem}.txt"
    assert out.getvalue() == expected.read_text()
