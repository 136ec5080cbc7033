"""The golden run: ``doalab eval`` on a committed config must write committed bytes.

``golden/config.json`` is a two-T60, two-speech-source grid of 8 scenes scored
by all three methods under seven mask kinds (168 records). ``golden/expected/``
holds the ``records.csv``, ``report.json``, ``confusion.csv`` and psACC files
that ``doalab eval`` wrote for it, and ``golden/environment.json`` the numpy
version, Python version and platform they were made with. The test re-runs
the config at ``--jobs`` 1 and 2 and compares every file byte for byte; on a
mismatch it names the first file and line that differ.

Rule in other environments: the files hold grid picks and statistics of them,
no intermediate floats, so the comparison is exact everywhere and nothing is
skipped. A pick moves under another numpy, BLAS or CPU only where two grid
angles tie to rounding; a failure therefore prints the recorded and the
current environment, and expected files are rewritten only in the recorded
one. Per-layer float digests (mixture, STFT, masks, spectra) are not kept
until such a rule for them is settled.

A change that moves outputs on purpose rewrites the files with::

    PYTHONPATH=src python tests/test_golden.py --rewrite

and commits them, so that their diff is the change's before -> after table.
"""

import json
import platform
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from doalab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"


def _environment() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(), "platform": platform.platform()}


def _run_eval(out_dir: Path, jobs: int) -> None:
    code = main(["eval", "--config", str(GOLDEN / "config.json"), "--out-dir", str(out_dir), "--jobs", str(jobs)])
    if code != 0:
        raise RuntimeError(f"doalab eval on the golden config exited {code}")


def _first_difference(expected: Path, got: Path):
    """``file line N: expected ..., got ...`` for the first differing line of the two directories
    (``records.csv`` first), else None."""
    names = {p.name for p in expected.iterdir()} | {p.name for p in got.iterdir()}
    for name in sorted(names, key=lambda name: (name != "records.csv", name)):
        if not (expected / name).exists() or not (got / name).exists():
            return f"{name} is in only one of {expected} and {got}"
        # split at "\n" only, so equal lists mean equal bytes
        want, have = ((d / name).read_bytes().decode().split("\n") for d in (expected, got))
        for number, (a, b) in enumerate(zip_longest(want, have), start=1):
            if a != b:
                return f"{name} line {number}: expected {a!r}, got {b!r}"
    return None


@pytest.mark.parametrize("jobs", [1, 2])
def test_eval_writes_the_golden_bytes(tmp_path, jobs):
    _run_eval(tmp_path, jobs)
    difference = _first_difference(EXPECTED, tmp_path)
    if difference is not None:
        recorded, current = json.loads((GOLDEN / "environment.json").read_text()), _environment()
        where = "" if recorded == current else f"; expected files made with {recorded}, this run with {current}"
        pytest.fail(f"{difference} (jobs {jobs}{where})")


def rewrite() -> None:
    """Replace the expected files and the environment record by this tree's output."""
    for path in EXPECTED.glob("*"):
        path.unlink()
    _run_eval(EXPECTED, 1)
    (GOLDEN / "environment.json").write_text(json.dumps(_environment(), indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --rewrite")
    rewrite()
