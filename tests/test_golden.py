"""The command line's stdout and exit code, byte for byte, against the
transcripts committed in ``tests/golden``.

``golden/commands.txt`` lists one run per line: the transcript's name, the
exit code and the arguments.  ``golden/slow.txt`` lists, in the same format,
the passing runs that take seconds each (the largest levels, spans and
diagrams); the tests here do not read it, and CI compares those transcripts
through the installed console script.  The transcripts were written under
``PYTHONHASHSEED=0`` and read the same under other hash seeds.  To rewrite
them all, of both lists, from the code on the path, after a stated change of
output:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gamma2cat.cli import run

GOLDEN = Path(__file__).parent / "golden"


def _runs(listing: str) -> list:
    return [(name, int(code), argv) for name, code, *argv in (
        line.split() for line in (GOLDEN / listing).read_text(encoding="utf-8").splitlines())]


RUNS = _runs("commands.txt")


def _transcript(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name, code, argv", RUNS, ids=[name for name, _, _ in RUNS])
def test_command_matches_its_transcript(name, code, argv):
    assert _transcript(argv) == (code, (GOLDEN / f"{name}.out").read_bytes())


if __name__ == "__main__":
    for listing in ("commands.txt", "slow.txt"):
        lines = []
        for name, _, argv in _runs(listing):
            code, out = _transcript(argv)
            (GOLDEN / f"{name}.out").write_bytes(out)
            lines.append(" ".join([name, str(code), *argv]))
        (GOLDEN / listing).write_text("\n".join(lines) + "\n", encoding="utf-8")
