"""Metrics, confusion matrices, and the seeded experiment runner.

The runner sweeps a scene grid (rooms x T60 x SMD x DOAs x seeds), applies
each configured estimator/mask combination, and emits deterministic
per-record CSV plus aggregate reports. Accuracy counts absolute errors
strictly below 5 degrees, pseudo accuracy strictly below 10 degrees; both
thresholds can be overridden in the config.
"""

from __future__ import annotations

import concurrent.futures
import copy
import csv
import io
import json
import numbers
import os
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import attention, estimate, simulate
from .geometry import ArrayGeometry, DoaGrid, make_grid
from .signal import stft

ACC_THRESHOLD_DEG = 5.0
PSACC_THRESHOLD_DEG = 10.0

CSV_COLUMNS = ["scene_id", "method", "mask", "true_doa_deg", "est_doa_deg", "ae_deg", "frames_used"]

MASK_KINDS = (
    "none, oracle-psm, oracle-ratio, oracle-psm-bin:T, oracle-ratio-bin:T, "
    "random-band:N, band-range:LO:HI, file:PATH"
)


@dataclass(frozen=True)
class EvalRecord:
    """One estimate: scene, method, mask, truth, estimate, absolute error."""

    scene_id: str
    true_doa: float
    est_doa: float
    method: str
    mask_kind: str
    frames_used: int
    ae: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ae", absolute_error(self.true_doa, self.est_doa))


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics over a set of records."""

    mae: float
    medae: float
    acc: float  # percent with AE strictly below the accuracy threshold
    psacc: float  # percent with AE strictly below the pseudo-accuracy threshold
    count: int

    def __post_init__(self):
        if not (0.0 <= self.acc <= 100.0 and 0.0 <= self.psacc <= 100.0):
            raise ValueError("accuracies must be percentages")
        if self.psacc < self.acc:
            raise ValueError("pseudo accuracy cannot be below accuracy")


def absolute_error(true_doa: float, est_doa: float) -> float:
    """|true - est| on the linear [0, 180] ULA domain (no circular wrap)."""
    if not (0.0 <= true_doa <= 180.0 and 0.0 <= est_doa <= 180.0):
        raise ValueError("DOAs must lie in [0, 180] degrees")
    return abs(true_doa - est_doa)


def summarize(
    records,
    acc_threshold: float = ACC_THRESHOLD_DEG,
    psacc_threshold: float = PSACC_THRESHOLD_DEG,
) -> EvalReport:
    """MAE, MedAE, and strict-threshold (pseudo) accuracy of the records."""
    records = list(records)
    if not records:
        raise ValueError("cannot summarize an empty record set")
    aes = np.array([r.ae for r in records])
    return EvalReport(
        mae=float(aes.mean()),
        medae=float(np.median(aes)),
        acc=float(100.0 * np.mean(aes < acc_threshold)),
        psacc=float(100.0 * np.mean(aes < psacc_threshold)),
        count=len(records),
    )


def confusion_matrix(records, grid: DoaGrid) -> np.ndarray:
    """Counts of (true, estimated) DOAs binned to their nearest grid angles."""
    counts = np.zeros((grid.size, grid.size), dtype=np.int64)
    for r in records:
        ti = int(np.argmin(np.abs(grid.angles_deg - r.true_doa)))
        ei = int(np.argmin(np.abs(grid.angles_deg - r.est_doa)))
        counts[ti, ei] += 1
    return counts


def _as_range(value, rng: np.random.Generator):
    """Draw from [lo, hi] if value is a pair, else pass the scalar through."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        lo, hi = value
        return float(rng.uniform(lo, hi))
    return float(value)


class ConfigError(ValueError):
    """A bad config: an unknown key, or a value of the wrong type or out of range."""


_DEFAULTS = {
    "version": 1,
    "master_seed": 0,
    "sample_rate": 16000,
    "stft": {"window_length": 512, "hop": 256},
    "geometry": {"num_mics": 4, "mic_spacing_m": 0.08},
    "grid_size": 37,
    "rooms": [[6.0, 5.0, 2.7]],
    "t60": [0.3],
    "smd": [1.5],
    "doas": "grid",
    "seeds_per_doa": 1,
    "snr_db": 30.0,
    "sir_db": None,
    "source": "speech",
    "interferer": "white",
    "duration_frames": 100,
    "rir_length_s": None,
    "methods": ["srp-p"],
    "masks": ["none"],
    "eval_frames": 50,
    "acc_threshold_deg": ACC_THRESHOLD_DEG,
    "psacc_threshold_deg": PSACC_THRESHOLD_DEG,
    "num_sources_music": 1,
    "max_freq_hz": None,
    "jobs": 1,
}


def _check_int(cfg: dict, key: str, minimum: int) -> None:
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"config key {key!r} must be an integer >= {minimum}, got {value!r}")


def _check_level(cfg: dict, key: str) -> None:
    value = cfg[key]
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    lo, hi = value if pair else (value, value)
    if value is not None and not (_is_number(lo) and _is_number(hi) and lo <= hi):
        raise ConfigError(f"config key {key!r} must be null, a number or a [lo, hi] range, got {value!r}")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _merged(defaults: dict, config, prefix: str = "") -> dict:
    """A fresh copy of ``defaults`` updated by ``config``, nested dicts key by key."""
    if not isinstance(config, dict):
        where = f"config key {prefix[:-1]!r}" if prefix else "the config"
        raise ConfigError(f"{where} must be a JSON object, got {type(config).__name__}")
    unknown = sorted(prefix + key for key in set(config) - defaults.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged = copy.deepcopy(defaults)
    for key, value in config.items():
        merged[key] = _merged(defaults[key], value, f"{prefix}{key}.") if isinstance(defaults[key], dict) else value
    return merged


def validate_config(config: dict) -> dict:
    """Fill defaults from a fresh copy of the table, nested dicts key by key;
    raise ConfigError for any bad key or value."""
    cfg = _merged(_DEFAULTS, config)
    if cfg["version"] != 1:
        raise ConfigError(f"unsupported config version {cfg['version']!r}")
    _check_int(cfg, "jobs", 1)
    _check_int(cfg, "master_seed", 0)
    _check_int(cfg, "eval_frames", 1)
    _check_int(cfg, "grid_size", 2)
    _check_int(cfg, "duration_frames", 1)
    _check_int(cfg, "seeds_per_doa", 1)
    _check_int(cfg, "num_sources_music", 1)
    _check_level(cfg, "snr_db")
    _check_level(cfg, "sir_db")
    for key in ("acc_threshold_deg", "psacc_threshold_deg", "max_freq_hz"):
        value = cfg[key]
        if not ((_is_number(value) and value > 0) or (key == "max_freq_hz" and value is None)):
            raise ConfigError(f"config key {key!r} must be a number > 0, got {value!r}")
    if cfg["acc_threshold_deg"] > cfg["psacc_threshold_deg"]:
        raise ConfigError("config key 'acc_threshold_deg' may not exceed 'psacc_threshold_deg'")
    for key in ("methods", "masks"):
        entries = cfg[key]
        if not isinstance(entries, (list, tuple)) or not entries:
            raise ConfigError(f"config key {key!r} must be a non-empty list, got {entries!r}")
        repeated = [entry for i, entry in enumerate(entries) if entry in entries[:i]]
        if repeated:
            raise ConfigError(f"config key {key!r} repeats {repeated[0]!r}")
    for method in cfg["methods"]:
        if method not in estimate.METHODS:
            raise ConfigError(f"unknown method {method!r}; valid: {', '.join(estimate.METHODS)}")
    if cfg["doas"] == "grid":
        cfg["doas"] = list(np.linspace(0.0, 180.0, cfg["grid_size"]))
    for key in ("t60", "smd", "doas"):
        values = cfg[key] if isinstance(cfg[key], (list, tuple)) else [cfg[key]]
        if not all(_is_number(value) for value in values):
            raise ConfigError(f"config key {key!r} must be a number or a list of numbers, got {cfg[key]!r}")
        cfg[key] = values
    return cfg


def _scene_specs(cfg: dict):
    """Deterministic scene grid: rooms x t60 x smd x doas x seeds."""
    grid_points = product(
        enumerate(cfg["rooms"]),
        cfg["t60"],
        cfg["smd"],
        cfg["doas"],
        range(cfg["seeds_per_doa"]),
    )
    specs = []
    for index, ((room_idx, room_dims), t60, smd, doa, rep) in enumerate(grid_points):
        seed = int(np.random.SeedSequence([cfg["master_seed"], index]).generate_state(1)[0])
        rng = np.random.default_rng(seed)
        sources = [simulate.SourceSpec(doa, smd, cfg["source"])]
        sir = None
        if cfg["sir_db"] is not None:
            # interferer anywhere on the grid at least 5 degrees away
            while True:
                other = float(rng.choice(np.linspace(0.0, 180.0, cfg["grid_size"])))
                if abs(other - doa) > 5.0:
                    break
            sources.append(simulate.SourceSpec(other, smd, cfg["interferer"]))
            sir = _as_range(cfg["sir_db"], rng)
        snr = _as_range(cfg["snr_db"], rng)
        scene_id = f"r{room_idx}_t{t60:.2f}_s{smd:.2f}_d{doa:07.3f}_k{rep}"
        spec = simulate.SceneSpec(
            room=simulate.RoomSpec(np.asarray(room_dims), t60),
            geometry=ArrayGeometry.uniform(
                cfg["geometry"]["num_mics"], cfg["geometry"]["mic_spacing_m"]
            ),
            sources=tuple(sources),
            snr_db=snr,
            sir_db=sir,
            seed=seed,
            duration_frames=cfg["duration_frames"],
            sample_rate=cfg["sample_rate"],
            window_length=cfg["stft"]["window_length"],
            hop=cfg["stft"]["hop"],
            rir_length_s=cfg["rir_length_s"],
        )
        specs.append((scene_id, t60, spec))
    return specs


def build_mask(kind: str, spec, direct=None, scene_seed: int = 0, oracle=None) -> np.ndarray:
    """The (K, N) mask array of a config string for one spectrogram.

    Kinds: ``none``/``ones``, ``oracle-psm``, ``oracle-ratio``,
    ``oracle-psm-bin:T``, ``oracle-ratio-bin:T``, ``random-band:N``,
    ``band-range:LO:HI``, ``file:PATH``. Oracle kinds need ``direct``, the
    direct-path spectrogram; ``oracle``, when given, is a dict that keeps
    the unthresholded oracle masks of one scene across calls. A mask file
    must match the spectrogram's K x N shape.
    """
    k, n = spec.num_bins, spec.num_frames
    if kind in ("none", "ones"):
        return np.ones((k, n))
    if kind.startswith("random-band:"):
        return attention.random_band_mask(k, n, int(kind.split(":")[1]), seed=scene_seed)
    if kind.startswith("band-range:"):
        _, lo, hi = kind.split(":")
        return attention.band_range_mask(k, n, int(lo), int(hi))
    if kind.startswith("file:"):
        path = kind.split(":", 1)[1]
        mask = attention.load_mask(path)
        if mask.shape != (k, n):
            shape = " x ".join(map(str, mask.shape))
            raise ValueError(f"mask file {path} is {shape} (bins x frames), the spectrogram {k} x {n}")
        return mask
    if kind.startswith("oracle"):
        if direct is None:
            raise ValueError(f"mask {kind!r} needs the direct-path spectrogram")
        base, _, thr = kind.partition(":")
        source = base.removesuffix("-bin")
        makers = {"oracle-psm": attention.psm_mask, "oracle-ratio": attention.magnitude_ratio_mask}
        if source not in makers:
            raise ValueError(f"unknown mask kind {kind!r}; valid: {MASK_KINDS}")
        oracle = {} if oracle is None else oracle
        if source not in oracle:
            oracle[source] = makers[source](direct, spec)
        if base == source:
            return oracle[source]
        if not thr:
            raise ValueError(f"mask {kind!r} needs a threshold, e.g. oracle-psm-bin:0.4")
        return attention.binarize(oracle[source], float(thr))
    raise ValueError(f"unknown mask kind {kind!r}; valid: {MASK_KINDS}")


def _central_frames(num_frames: int, eval_frames: int):
    eval_frames = min(eval_frames, num_frames)
    start = (num_frames - eval_frames) // 2
    return (start, start + eval_frames)


def _run_scene(args):
    """Simulate one scene; build all its masks, then evaluate them in one call per method."""
    scene_id, t60, spec, cfg = args
    truth = simulate.mix_scene(spec)
    spectrogram = stft(truth.mixture, spec.window_length, spec.hop)
    direct = stft(truth.direct[0], spec.window_length, spec.hop)
    grid = make_grid(cfg["grid_size"])
    frame_range = _central_frames(spectrogram.num_frames, cfg["eval_frames"])
    core = estimate.EstimatorCore(
        spectrogram, grid, spec.geometry, frame_range, max_freq_hz=cfg["max_freq_hz"]
    )
    oracle = {}
    masks = [build_mask(kind, spectrogram, direct, spec.seed, oracle) for kind in cfg["masks"]]
    spectra = [core.spectra(method, masks, cfg["num_sources_music"]) for method in cfg["methods"]]
    records = []
    for i, mask_kind in enumerate(cfg["masks"]):
        for method, method_sps in zip(cfg["methods"], spectra):
            records.append(
                EvalRecord(
                    scene_id=scene_id,
                    true_doa=spec.sources[0].doa_deg,
                    est_doa=estimate.pick_doa(method_sps[i], grid),
                    method=method,
                    mask_kind=mask_kind,
                    frames_used=frame_range[1] - frame_range[0],
                )
            )
    return t60, records


def run_experiment(config: dict, out_dir=None):
    """Run the configured scene grid and return (records, reports).

    ``reports`` maps ``(method, mask)`` to an :class:`EvalReport`. When
    ``out_dir`` is given, also writes ``records.csv``, ``report.json``,
    ``confusion.csv`` and per-T60 psACC-vs-DOA data files. Output is
    byte-identical for identical configs regardless of worker count.
    """
    cfg = validate_config(config)
    tasks = [(scene_id, t60, spec, cfg) for scene_id, t60, spec in _scene_specs(cfg)]
    jobs = cfg["jobs"]
    results = []
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_scene, tasks, chunksize=1))
    else:
        results = [_run_scene(task) for task in tasks]

    records = []
    t60_of_scene = {}
    for t60, scene_records in results:
        records.extend(scene_records)
        for r in scene_records:
            t60_of_scene[r.scene_id] = t60
    records.sort(key=lambda r: (r.scene_id, r.method, r.mask_kind))

    reports = {}
    for method in cfg["methods"]:
        for mask_kind in cfg["masks"]:
            subset = [r for r in records if r.method == method and r.mask_kind == mask_kind]
            if subset:
                reports[(method, mask_kind)] = summarize(
                    subset, cfg["acc_threshold_deg"], cfg["psacc_threshold_deg"]
                )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_outputs(out_dir, cfg, records, reports, t60_of_scene)
    return records, reports


def records_csv_bytes(records) -> bytes:
    """Serialize records with the fixed documented column set."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [r.scene_id, r.method, r.mask_kind, f"{r.true_doa:.6f}", f"{r.est_doa:.6f}", f"{r.ae:.6f}", r.frames_used]
        )
    return buf.getvalue().encode()


def _write_outputs(out_dir, cfg, records, reports, t60_of_scene):
    with open(os.path.join(out_dir, "records.csv"), "wb") as fh:
        fh.write(records_csv_bytes(records))

    report_payload = {
        f"{method}|{mask_kind}": {
            "mae_deg": rep.mae,
            "medae_deg": rep.medae,
            "acc_pct": rep.acc,
            "psacc_pct": rep.psacc,
            "count": rep.count,
        }
        for (method, mask_kind), rep in sorted(reports.items())
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report_payload, fh, indent=2, sort_keys=True)

    grid = make_grid(cfg["grid_size"])
    confusion = confusion_matrix(records, grid)
    with open(os.path.join(out_dir, "confusion.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["true_deg\\est_deg"] + [f"{a:.3f}" for a in grid.angles_deg])
        for i, row in enumerate(confusion):
            writer.writerow([f"{grid.angles_deg[i]:.3f}"] + list(row))

    for t60 in cfg["t60"]:
        scene_ids = {sid for sid, val in t60_of_scene.items() if val == t60}
        rows = []
        for doa in sorted({r.true_doa for r in records if r.scene_id in scene_ids}):
            sub = [r for r in records if r.scene_id in scene_ids and r.true_doa == doa]
            psacc = 100.0 * np.mean([r.ae < cfg["psacc_threshold_deg"] for r in sub])
            rows.append((doa, psacc))
        path = os.path.join(out_dir, f"psacc_vs_doa_t60_{t60:.2f}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["doa_deg", "psacc_pct"])
            for doa, psacc in rows:
                writer.writerow([f"{doa:.6f}", f"{psacc:.6f}"])
