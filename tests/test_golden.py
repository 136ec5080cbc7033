"""The golden runs: ``doalab eval`` and ``doalab estimate`` on committed inputs
must write committed outputs, and the layers under them must not move.

``golden/config.json`` is a two-T60, two-speech-source grid of 8 scenes scored
by all three methods under seven mask kinds (168 records). ``golden/expected/``
holds the ``records.csv``, ``report.json``, ``confusion.csv`` and psACC files
that ``doalab eval`` wrote for it, and ``golden/environment.json`` the numpy
version, Python version and platform they were made with. The test re-runs
the config at ``--jobs`` 1 and 2, and once in this process with OpenBLAS at two
threads, and compares every file byte for byte; on a mismatch it names the
first file and line that differ.

``golden/layers.json`` holds, per scene of that config, SHA-256 digests of the
layers under the records: the ``mix_scene`` arrays (mixture, each source's
direct and reverberant part, noise), the mixture STFT and every mask.
``golden/spectra.json`` holds each method's spectra rows, one per mask, as
JSON floats. A mismatch names the first layer that moved, in the order
simulate, STFT, masks, spectra; the eval files are the picks after them.

``golden/scene.json`` is one anechoic two-speech-source scene. The estimate
test simulates it with ``doalab simulate``, writes its oracle magnitude-ratio
mask as a DOAMASK1 file, and runs the three ``doalab estimate`` request kinds
of the benchmark from the scene's directory with relative paths: ``srp-p``
with mask ``none``, ``srp-mp`` with ``oracle-psm`` and ``--direct``, and
``music`` with the bare mask file path and ``--frames``. ``golden/estimate/``
holds their ``--out`` JSON.

Rule in other environments: the eval files hold grid picks and statistics of
them, no intermediate floats, so the comparison is exact everywhere and
nothing is skipped. A pick moves under another numpy, BLAS or CPU only where
two grid angles tie to rounding; a failure therefore prints the recorded and
the current environment, and expected files are rewritten only in the
recorded one. The layer digests are compared exactly, but only where the
numpy version and platform equal the recorded ones; elsewhere that test skips
and says why. Simulation, STFT and masks do not depend on the BLAS thread
count, so the digests hold at any. Spectra bits do: SRP is a matrix product
whose rounding follows the OpenBLAS thread count, so spectra rows are compared
everywhere to within 1e-9 of each row's largest magnitude, the tolerance with
which the benchmark compares the same spectra. The estimate JSON holds floats:
its ``method``, ``mask``, ``grid_deg``, ``picked_doa_deg`` and frame count are
compared exactly, and ``sps_per_frame`` may differ from the recorded one by at
most 1e-9 of the recorded one's largest magnitude.

A change that moves outputs on purpose rewrites the files with::

    PYTHONPATH=src python tests/test_golden.py --rewrite

and commits them, so that their diff is the change's before -> after table.
"""

import hashlib
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

from blas_probe import blas_thread_counts, set_blas_threads
from doalab import attention, evaluate, simulate
from doalab.cli import main
from doalab.signal import read_wav, stft

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"
ESTIMATES = GOLDEN / "estimate"
LAYERS = GOLDEN / "layers.json"
SPECTRA = GOLDEN / "spectra.json"
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


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _layers():
    """``(digests, spectra)`` of every scene of the golden config.

    ``digests[scene_id]`` maps layer -> part -> SHA-256 of the array, and
    ``spectra["scene_id|method"]`` is that method's (masks, grid) spectra as lists.
    """
    cfg = evaluate.validate_config(json.loads((GOLDEN / "config.json").read_text()))
    digests, spectra = {}, {}
    for scene_id, spec in evaluate._scene_specs(cfg):
        truth = simulate.mix_scene(spec)
        parts = {"mixture": truth.mixture, "noise": truth.noise}
        for i, (direct, reverb) in enumerate(zip(truth.direct, truth.reverb)):
            parts |= {f"direct{i}": direct, f"reverb{i}": reverb}
        core, masks = evaluate.scene_inputs(spec, cfg)
        digests[scene_id] = {
            "simulate": {name: _digest(part.samples) for name, part in parts.items()},
            "stft": {"mixture": _digest(stft(truth.mixture, spec.window_length, spec.hop).bins)},
            "masks": {kind: _digest(mask) for kind, mask in zip(cfg["masks"], masks)},
        }
        for method in cfg["methods"]:
            spectra[f"{scene_id}|{method}"] = core.spectra(method, masks, cfg["num_sources_music"]).tolist()
    return digests, spectra


@pytest.fixture(scope="module")
def layers():
    return _layers()


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


def _check_eval_files(out_dir: Path, run: str) -> None:
    difference = _first_difference(EXPECTED, out_dir)
    if difference is not None:
        recorded, current = json.loads((GOLDEN / "environment.json").read_text()), _environment()
        where = "" if recorded == current else f"; expected files made with {recorded}, this run with {current}"
        pytest.fail(f"{difference} ({run}{where})")


@pytest.mark.parametrize("jobs", [1, 2])
def test_eval_writes_the_golden_bytes(tmp_path, jobs):
    _run_eval(tmp_path, jobs)
    _check_eval_files(tmp_path, f"jobs {jobs}")


def test_eval_at_two_blas_threads_writes_the_golden_bytes(tmp_path, monkeypatch):
    """The eval in this process with OpenBLAS at two threads. A side-by-side render would
    set the process to one thread for good, so every scene renders inline here; the
    samples are the same either way."""
    before = blas_thread_counts()
    if not before:
        pytest.skip("no OpenBLAS with a thread-count symbol is loaded")
    monkeypatch.setattr(simulate, "_side_by_side", lambda spec: False)
    set_blas_threads([2] * len(before))
    try:
        assert blas_thread_counts() == [2] * len(before)
        _run_eval(tmp_path, 1)
    finally:
        set_blas_threads(before)
    _check_eval_files(tmp_path, "jobs 1, 2 BLAS threads")


def test_layers_match_the_golden_digests(layers):
    recorded, current = json.loads((GOLDEN / "environment.json").read_text()), _environment()
    if any(recorded[key] != current[key] for key in ("numpy", "platform")):
        pytest.skip(f"layer digests were made with {recorded}, this run has {current}")
    want, have = json.loads(LAYERS.read_text()), layers[0]
    assert have.keys() == want.keys()
    for layer in ("simulate", "stft", "masks"):  # the first layer that moved is named
        for scene_id in want:
            assert have[scene_id][layer] == want[scene_id][layer], f"{layer} moved in scene {scene_id}"


def test_spectra_match_the_golden_rows(layers):
    want, have = json.loads(SPECTRA.read_text()), layers[1]
    assert have.keys() == want.keys()
    for key in want:
        expected, got = np.array(want[key]), np.array(have[key])
        assert got.shape == expected.shape, key
        bound = 1e-9 * np.max(np.abs(expected), axis=1)
        assert np.all(np.max(np.abs(got - expected), axis=1) <= bound), f"spectra of {key}"


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
    """Replace the expected files, the layer files and the environment record by this tree's output."""
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
    digests, spectra = _layers()
    LAYERS.write_text(json.dumps(digests, indent=2) + "\n")
    rows = (f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in spectra.items())  # a line per scene and method
    SPECTRA.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    (GOLDEN / "environment.json").write_text(json.dumps(_environment(), indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --rewrite")
    rewrite()
