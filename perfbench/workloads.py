"""The benchmark's workloads: seeded inputs, one timed request, output checks.

Each workload is a closed loop with one caller and ``jobs=1``. Request ``i``
is deterministic given the benchmark seed, so two runs with the same seed
send the same requests in the same order. Calls go through module
attributes (``evaluate.run_experiment``, ``cli.main``) so that a traced run
sees its wrappers.
"""

from __future__ import annotations

import csv
import json
import os
import shutil

import numpy as np

from doalab import attention, cli, evaluate, signal
from doalab.geometry import make_grid

GRID_SIZE = 37
GRID = make_grid(GRID_SIZE).angles_deg

# Criterion 3's scene distribution (tests/test_acceptance.py).
REVERB_SCENES = {
    "t60": [0.3],
    "sir_db": 0.0,
    "snr_db": [20.0, 30.0],
    "source": "speech",
    "interferer": "speech",
    "duration_frames": 100,
    "rir_length_s": 0.25,
    "grid_size": GRID_SIZE,
}
ANECHOIC_SCENES = {
    "t60": [0.0],
    "sir_db": 0.0,
    "source": "speech",
    "interferer": "speech",
    "duration_frames": 100,
    "grid_size": GRID_SIZE,
}
# The masks `doalab eval --vthr-sweep 0:0.9:0.1` adds to these three, plus two
# band-selection masks.
VTHR_SWEEP_MASKS = (
    ["none", "oracle-psm", "oracle-ratio"]
    + [f"oracle-ratio-bin:{t:.2f}" for t in np.arange(0.0, 0.9 + 0.05, 0.1)]
    + ["random-band:50", "band-range:100:150"]
)

ESTIMATE_SCENES = 6
ESTIMATE_FRAMES = "25:75"


class CheckError(Exception):
    """An output that is wrong whatever the reference says."""


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Sweep:
    """``evaluate.run_experiment`` with an ``out_dir``, one scene per request.

    Request ``i`` sweeps one scene at grid DOA ``perm[i % 37]`` (a seeded
    permutation of the grid) with ``master_seed`` derived from
    ``(seed, i)``, over every configured method and mask.
    """

    def __init__(self, scenes, methods, masks, seed, out_dir):
        self.base = dict(scenes, methods=list(methods), masks=list(masks), jobs=1)
        self.seed = seed
        self.out_dir = out_dir
        self.doas = GRID[np.random.default_rng(seed).permutation(GRID_SIZE)]
        self.run_dir = os.path.join(out_dir, "run")

    def describe(self) -> dict:
        return {"config": self.base}

    def config(self, i: int) -> dict:
        return dict(self.base, master_seed=_derived_seed(self.seed, i), doas=[float(self.doas[i % GRID_SIZE])])

    def setup(self):
        """Warm up on one anechoic scene."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        warmup = dict(self.config(0), t60=[0.0])
        evaluate.run_experiment(warmup, out_dir=os.path.join(self.out_dir, "warmup"))

    def request(self, i: int):
        cfg = self.config(i)
        return str(i), lambda: evaluate.run_experiment(cfg, out_dir=self.run_dir)

    def check(self, i: int, result) -> list:
        """Check records.csv and report.json; return the CSV rows."""
        records, reports = result
        cfg = self.config(i)
        with open(os.path.join(self.run_dir, "records.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != evaluate.CSV_COLUMNS:
            raise CheckError("records.csv header differs from CSV_COLUMNS")
        rows = rows[1:]
        expected = len(cfg["methods"]) * len(cfg["masks"])
        if len(rows) != expected or len(records) != expected:
            raise CheckError(f"expected {expected} records, got {len(rows)} rows and {len(records)} records")
        true_doa = cfg["doas"][0]
        for row, rec in zip(rows, records):
            _, method, mask, true_s, est_s, ae_s, frames = row
            est = float(est_s)
            if not np.any(np.isclose(GRID, est, atol=1e-6)):
                raise CheckError(f"estimate {est} is not a grid angle")
            if abs(float(true_s) - true_doa) > 1e-6 or abs(float(ae_s) - abs(true_doa - est)) > 1e-5:
                raise CheckError(f"row {row} has a wrong truth or error")
            if int(frames) != min(50, cfg["duration_frames"]):
                raise CheckError(f"row {row} used {frames} frames")
            if (method, mask, float(est_s)) != (rec.method, rec.mask_kind, round(rec.est_doa, 6)):
                raise CheckError("records.csv differs from the returned records")
        with open(os.path.join(self.run_dir, "report.json")) as fh:
            report = json.load(fh)
        if len(report) != expected or any(v["count"] != 1 for v in report.values()) or len(reports) != expected:
            raise CheckError("report.json does not hold one count per method and mask")
        return [",".join(row) for row in rows]


class EstimateWav:
    """In-process ``doalab estimate`` requests over files made in set-up.

    Set-up runs ``doalab simulate`` on six anechoic two-source scenes and
    writes a DOAMASK1 file (oracle magnitude-ratio mask) next to each.
    Request ``i`` uses scene ``(i // 3) % 6`` and rotates through srp-p with
    no mask, srp-mp with ``oracle-psm --direct``, and music with the mask
    file and ``--frames``.
    """

    KINDS = ("srp-p", "srp-mp", "music")

    def __init__(self, seed, out_dir):
        self.out_dir = out_dir
        self.input_dir = os.path.join(out_dir, "inputs")
        doas = GRID[np.random.default_rng(seed).permutation(GRID_SIZE)[:ESTIMATE_SCENES]]
        self.sim_config = dict(ANECHOIC_SCENES, master_seed=seed, doas=sorted(float(d) for d in doas))
        self.scenes = []

    def describe(self) -> dict:
        return {"simulate_config": self.sim_config, "kinds": self.KINDS, "frames": ESTIMATE_FRAMES}

    def setup(self):
        """Simulate the scenes, write mask files, warm up each request kind."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.input_dir)
        config_path = os.path.join(self.out_dir, "simulate.json")
        with open(config_path, "w") as fh:
            json.dump(self.sim_config, fh)
        rc = cli.main(["simulate", "--config", config_path, "--out-dir", self.input_dir])
        if rc != 0:
            raise RuntimeError(f"doalab simulate exited {rc}")
        suffix = ".truth.json"
        self.scenes = sorted(
            os.path.join(self.input_dir, f[: -len(suffix)]) for f in os.listdir(self.input_dir) if f.endswith(suffix)
        )
        if len(self.scenes) != ESTIMATE_SCENES:
            raise RuntimeError(f"doalab simulate wrote {len(self.scenes)} scenes, expected {ESTIMATE_SCENES}")
        for base in self.scenes:
            mixture = signal.stft(signal.read_wav(base + ".wav"))
            direct = signal.stft(signal.read_wav(base + ".direct.wav"))
            attention.save_mask(base + ".mask", attention.magnitude_ratio_mask(direct, mixture))
        for kind in range(len(self.KINDS)):
            _, call = self.request(kind)
            if call() != 0:
                raise RuntimeError(f"warm-up request {self.KINDS[kind]} failed")

    def _argv(self, i: int):
        kind = self.KINDS[i % 3]
        base = self.scenes[(i // 3) % len(self.scenes)]
        argv = ["estimate", "--input", base + ".wav", "--method", kind, "--grid", str(GRID_SIZE)]
        if kind == "srp-mp":
            argv += ["--mask", "oracle-psm", "--direct", base + ".direct.wav"]
        elif kind == "music":
            argv += ["--mask", base + ".mask", "--frames", ESTIMATE_FRAMES]
        return argv + ["--out", os.path.join(self.out_dir, "estimate.json")], kind, base

    def request(self, i: int):
        argv, kind, base = self._argv(i)
        key = f"{os.path.basename(base)}|{kind}"
        return key, lambda: cli.main(argv)

    def check(self, i: int, result) -> list:
        """Check the --out payload; return it as one comparable row."""
        if result != 0:
            raise CheckError(f"doalab estimate exited {result}")
        argv, kind, _ = self._argv(i)
        with open(argv[-1]) as fh:
            payload = json.load(fh)
        if payload["method"] != kind or not np.allclose(payload["grid_deg"], GRID):
            raise CheckError("payload method or grid differs from the request")
        picked = payload["picked_doa_deg"]
        index = int(np.argmin(np.abs(GRID - picked)))
        if abs(GRID[index] - picked) > 1e-9:
            raise CheckError(f"picked DOA {picked} is not a grid angle")
        row = {"method": kind, "mask": os.path.basename(payload["mask"]), "picked": picked}
        if kind == "music":
            if "sps_per_frame" in payload:
                raise CheckError("music payload has sps_per_frame")
            return [row]
        per_frame = np.asarray(payload["sps_per_frame"])
        if per_frame.ndim != 2 or per_frame.shape[1] != GRID_SIZE or not np.all(np.isfinite(per_frame)):
            raise CheckError(f"sps_per_frame has shape {per_frame.shape}")
        # The CLI's second narrowband pass must agree with the picked DOA.
        total = per_frame.sum(axis=0)
        if total[index] < total.max() - 1e-9 * abs(total).max():
            raise CheckError("sps_per_frame peaks away from the picked DOA")
        row["frames"] = per_frame.shape[0]
        row["sps_sum"] = [float(x) for x in total]
        return [row]


def rows_differ(ref_rows, rows) -> int:
    """Rows of ``rows`` that differ from ``ref_rows``, floats to 1e-9 relative."""
    changed = abs(len(ref_rows) - len(rows))
    for a, b in zip(ref_rows, rows):
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            same = all(
                np.allclose(a[k], b[k], rtol=1e-9, atol=0.0) if k == "sps_sum" else a[k] == b[k] for k in a
            )
        else:
            same = a == b
        changed += not same
    return changed


def make(name: str, seed: int, out_dir: str):
    out = os.path.join(out_dir, name)
    if name == "sweep_reverb":
        return Sweep(REVERB_SCENES, ["srp-p", "srp-mp"], ["none", "oracle-psm"], seed, out)
    if name == "sweep_masks":
        return Sweep(ANECHOIC_SCENES, ["srp-p", "srp-mp", "music"], VTHR_SWEEP_MASKS, seed, out)
    if name == "estimate_wav":
        return EstimateWav(seed, out)
    raise ValueError(f"unknown workload {name!r}")

