"""The golden runs: ``doalab eval`` and ``doalab estimate`` on committed inputs
must write committed outputs.

``golden/config.json`` is a two-T60, two-speech-source grid of 8 scenes scored
by all three methods under seven mask kinds (168 records). ``golden/expected/``
holds the ``records.csv``, ``report.json``, ``confusion.csv`` and psACC files
that ``doalab eval`` wrote for it, and ``golden/environment.json`` the numpy
version, Python version and platform they were made with. The test re-runs
the config at ``--jobs`` 1 and 2 and compares every file byte for byte; on a
mismatch it names the first file and line that differ.

``golden/scene.json`` is one anechoic two-speech-source scene. The estimate
test simulates it with ``doalab simulate``, writes its oracle magnitude-ratio
mask as a DOAMASK1 file, and runs the three ``doalab estimate`` request kinds
of the benchmark from the scene's directory with relative paths: ``srp-p``
with mask ``none``, ``srp-mp`` with ``oracle-psm`` and ``--direct``, and
``music`` with the bare mask file path and ``--frames``. ``golden/estimate/``
holds their ``--out`` JSON.

Rule in other environments: the files hold grid picks and statistics of them,
no intermediate floats, so the comparison is exact everywhere and nothing is
skipped. A pick moves under another numpy, BLAS or CPU only where two grid
angles tie to rounding; a failure therefore prints the recorded and the
current environment, and expected files are rewritten only in the recorded
one. Per-layer float digests (mixture, STFT, masks, spectra) are not kept
until such a rule for them is settled. The estimate JSON holds floats: its
``method``, ``mask``, ``grid_deg``, ``picked_doa_deg`` and frame count are
compared exactly, and ``sps_per_frame`` may differ from the recorded one by at
most 1e-9 of the recorded one's largest magnitude, the tolerance with which
the benchmark compares the same spectra.

A change that moves outputs on purpose rewrites the files with::

    PYTHONPATH=src python tests/test_golden.py --rewrite

and commits them, so that their diff is the change's before -> after table.
"""

import json
import os
import platform
import shutil
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from doalab import attention
from doalab.cli import main
from doalab.signal import read_wav, stft

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"
ESTIMATES = GOLDEN / "estimate"
# request kind -> the arguments of its `doalab estimate` call after --input
ESTIMATE_REQUESTS = {
    "srp-p": ["--mask", "none"],
    "srp-mp": ["--mask", "oracle-psm", "--direct", "scene.direct.wav"],
    "music": ["--mask", "scene.mask", "--frames", "5:25"],
}


def _environment() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(), "platform": platform.platform()}


def _run_eval(out_dir: Path, jobs: int) -> None:
    code = main(["eval", "--config", str(GOLDEN / "config.json"), "--out-dir", str(out_dir), "--jobs", str(jobs)])
    if code != 0:
        raise RuntimeError(f"doalab eval on the golden config exited {code}")


def _run_estimates() -> None:
    """Simulate ``scene.json`` and write ``<kind>.json`` for every request kind, all in the
    working directory; paths are relative to it, so the payloads' ``mask`` field does not
    depend on where it lies."""
    code = main(["simulate", "--config", str(GOLDEN / "scene.json"), "--out-dir", "sim"])
    if code != 0:
        raise RuntimeError(f"doalab simulate on the golden scene exited {code}")
    (truth,) = Path("sim").glob("*.truth.json")
    base = str(truth).removesuffix(".truth.json")
    for suffix in (".wav", ".direct.wav"):
        shutil.move(base + suffix, "scene" + suffix)
    mixture, direct = (stft(read_wav(f"scene{suffix}")) for suffix in (".wav", ".direct.wav"))
    attention.save_mask("scene.mask", attention.magnitude_ratio_mask(direct, mixture))
    for kind, args in ESTIMATE_REQUESTS.items():
        code = main(["estimate", "--input", "scene.wav", "--method", kind, *args, "--out", f"{kind}.json"])
        if code != 0:
            raise RuntimeError(f"doalab estimate {kind} on the golden scene exited {code}")


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


def test_estimate_writes_the_golden_payloads(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_estimates()
    for kind in ESTIMATE_REQUESTS:
        want, have = (json.loads((d / f"{kind}.json").read_text()) for d in (ESTIMATES, tmp_path))
        assert have.keys() == want.keys(), kind
        for key in want.keys() - {"sps_per_frame"}:
            assert have[key] == want[key], f"{kind} {key}"
        if "sps_per_frame" in want:
            expected, got = np.array(want["sps_per_frame"]), np.array(have["sps_per_frame"])
            assert got.shape == expected.shape, f"{kind} sps_per_frame shape"
            assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected)), f"{kind} sps_per_frame"


def rewrite() -> None:
    """Replace the expected files and the environment record by this tree's output."""
    for path in EXPECTED.glob("*"):
        path.unlink()
    _run_eval(EXPECTED, 1)
    ESTIMATES.mkdir(exist_ok=True)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            _run_estimates()
        finally:
            os.chdir(home)
        for kind in ESTIMATE_REQUESTS:
            shutil.copyfile(Path(work) / f"{kind}.json", ESTIMATES / f"{kind}.json")
    (GOLDEN / "environment.json").write_text(json.dumps(_environment(), indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --rewrite")
    rewrite()
