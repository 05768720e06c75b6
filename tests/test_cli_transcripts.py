"""Golden transcripts: every CLI command on fixed inputs in all three formats.

Each case runs ``dpcolor.cli.main`` in-process from ``tests/data/cli`` and
compares the exit code, stdout and stderr with ``tests/data/cli/<case>.txt``
byte for byte.  ``python tests/test_cli_transcripts.py`` rewrites the
transcripts from the current code.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from dpcolor.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli"

# prism.rot: rotation-text with a covers: section (k = 3);
# octahedron.g6: graph6; wheel5.pc: planar code (hub 0, rim 1..5);
# wheel5_cover.rot: a k = 3 cover of the wheel for solve --cover;
# square4.rot: the 4 x 4 square grid, vertex 15 at distance 6 from vertex 0
CASES = {
    "faces-prism": ["faces", "prism.rot"],
    "faces-octahedron": ["faces", "octahedron.g6"],
    "faces-wheel": ["faces", "wheel5.pc"],
    "cycles-prism": ["cycles", "prism.rot", "--max", "6"],
    "cycles-octahedron": ["cycles", "octahedron.g6", "--max", "6"],
    "cycles-wheel": ["cycles", "wheel5.pc", "--max", "6"],
    "cycles-square4": ["cycles", "square4.rot", "--max", "8"],
    "class-prism": ["class", "prism.rot"],
    "class-octahedron": ["class", "octahedron.g6"],
    "class-wheel": ["class", "wheel5.pc"],
    "structure-prism": ["structure", "prism.rot"],
    "structure-wheel": ["structure", "wheel5.pc"],
    "structure-lemmas-prism": ["structure", "prism.rot", "--lemmas"],
    "structure-lemmas-octahedron": ["structure", "octahedron.g6", "--lemmas"],
    "structure-lemmas-wheel": ["structure", "wheel5.pc", "--lemmas"],
    "solve-prism-document-cover": ["solve", "prism.rot", "--k", "3"],
    "solve-octahedron-diagonal": ["solve", "octahedron.g6", "--k", "3"],
    "solve-wheel-diagonal-k2": ["solve", "wheel5.pc", "--k", "2"],
    "solve-wheel-cover-file": ["solve", "wheel5.pc", "--k", "3",
                               "--cover", "wheel5_cover.rot"],
    "dp-chromatic-prism": ["dp-chromatic", "prism.rot", "--max", "4"],
    "dp-chromatic-wheel": ["dp-chromatic", "wheel5.pc", "--max", "4"],
    "dp-chromatic-octahedron-budget": ["dp-chromatic", "octahedron.g6",
                                       "--max", "4"],
    "list-chromatic-prism": ["list-chromatic", "prism.rot", "--max", "3"],
    "list-chromatic-wheel": ["list-chromatic", "wheel5.pc", "--max", "4"],
    "list-chromatic-octahedron": ["list-chromatic", "octahedron.g6",
                                  "--max", "2"],
    "list-chromatic-octahedron-max4": ["list-chromatic", "octahedron.g6",
                                       "--max", "4"],
    "extend-wheel-rim": ["extend", "wheel5.pc", "--cycle", "1,2,3,4,5",
                         "--colors", "1,2,1,2,3", "--k", "3"],
    "extend-prism-triangle": ["extend", "prism.rot", "--cycle", "0,1,2",
                              "--colors", "1,2,3", "--k", "3"],
    "extend-wheel-triangle-hub": ["extend", "wheel5.pc", "--cycle", "0,1,2",
                                  "--colors", "1,2,3", "--k", "3"],
    "extend-wheel-equal-pair": ["extend", "wheel5.pc", "--cycle", "1,3",
                                "--colors", "1,1", "--k", "3"],
    "extend-octahedron-sampled": ["extend", "octahedron.g6", "--cycle",
                                  "0,1,2", "--colors", "1,2,3", "--k", "4",
                                  "--samples", "20", "--seed", "1"],
    "extend-wheel-sampled": ["extend", "wheel5.pc", "--cycle", "0,1,2",
                             "--colors", "1,2,3", "--k", "3",
                             "--samples", "20", "--seed", "1"],
    "discharge-g1-prism": ["discharge", "prism.rot", "--rules", "g1"],
    "discharge-g2-prism": ["discharge", "prism.rot", "--rules", "g2"],
    "discharge-g1-octahedron": ["discharge", "octahedron.g6", "--rules", "g1"],
    "discharge-g2-wheel": ["discharge", "wheel5.pc", "--rules", "g2"],
    "input-error-bad-rotation": ["faces", "bad.rot"],
    "input-error-missing-file": ["class", "missing.rot"],
}


def transcript(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    return (f"$ dpcolor {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_transcript_is_unchanged(case):
    expected = (DATA / f"{case}.txt").read_text()
    assert transcript(CASES[case]) == expected


if __name__ == "__main__":
    for case, argv in sorted(CASES.items()):
        (DATA / f"{case}.txt").write_text(transcript(argv))
    print(f"wrote {len(CASES)} transcripts to {DATA}", file=sys.stderr)
