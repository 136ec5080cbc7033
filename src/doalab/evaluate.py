"""Metrics, confusion matrices, mask specs and the seeded experiment runner.

The runner sweeps a scene grid (rooms x T60 x SMD x DOAs x seeds, each a
non-empty list) and emits deterministic per-record CSV plus aggregate reports.
A scene is a ``(scene_id, SceneSpec)`` pair, the spec the one record of its
parameters (the per-T60 reports read its T60 from it). :func:`scene_inputs`
builds a scene's estimator core and masks; the runner only scores each
configured method on them. Accuracy counts absolute errors strictly below 5
degrees, pseudo accuracy strictly below 10 degrees; both thresholds can be
overridden in the config. :func:`parse_mask` alone reads a mask value, a spec
such as ``random-band:50`` or an existing mask file, when the config is
validated (``doalab estimate --mask`` too); only the checks that need the
spectrogram's size wait for :func:`build_masks` at the first scene, which
alone decides whether a scene's direct-path STFT is taken.
"""

from __future__ import annotations

import concurrent.futures
import copy
import csv
import functools
import io
import json
import os
from dataclasses import dataclass, field
from itertools import chain, product

import numpy as np

from . import attention, estimate, simulate
from .blas import one_blas_thread
from .geometry import ArrayGeometry, DoaGrid, make_grid
from .signal import DEFAULT_HOP, DEFAULT_SAMPLE_RATE, DEFAULT_WINDOW_LENGTH, TimeSignal, is_finite_number, is_integer, stft

ACC_THRESHOLD_DEG = 5.0
PSACC_THRESHOLD_DEG = 10.0

CSV_COLUMNS = ["scene_id", "method", "mask", "true_doa_deg", "est_doa_deg", "ae_deg", "frames_used"]

# mask kind -> the form of its spec and the condition on its parameters
_MASK_FORMS = {
    "none": ("none", "no parameter"),
    "oracle-psm": ("oracle-psm", "no parameter"),
    "oracle-ratio": ("oracle-ratio", "no parameter"),
    "oracle-psm-bin": ("oracle-psm-bin:T", "0 <= T <= 1"),
    "oracle-ratio-bin": ("oracle-ratio-bin:T", "0 <= T <= 1"),
    "random-band": ("random-band:N", "an integer N >= 0"),
    "band-range": ("band-range:LO:HI", "integers 0 <= LO <= HI"),
    "file": ("file:PATH", "a non-empty PATH"),
}
MASK_KINDS = ", ".join(form for form, _ in _MASK_FORMS.values())


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
    "sample_rate": DEFAULT_SAMPLE_RATE,
    "stft": {"window_length": DEFAULT_WINDOW_LENGTH, "hop": DEFAULT_HOP},
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


def _check_int(cfg: dict, key: str, minimum: int, maximum=np.inf) -> None:
    value = functools.reduce(dict.get, key.split("."), cfg)  # a dotted key such as 'stft.hop' is nested
    if not is_integer(value, minimum, maximum):
        upper = f" and <= {maximum}" if maximum < np.inf else ""
        raise ConfigError(f"config key {key!r} must be an integer >= {minimum}{upper}, got {value!r}")


def _check_level(cfg: dict, key: str) -> None:
    value, bound = cfg[key], simulate.MAX_LEVEL_DB
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    lo, hi = value if pair else (value, value)
    in_bound = is_finite_number(lo, -bound, closed=True) and is_finite_number(hi, lo, closed=True) and hi <= bound
    if value is not None and not in_bound:
        raise ConfigError(
            f"config key {key!r} must be null, a number or a [lo, hi] range within +-{bound:g} dB, got {value!r}"
        )


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
    _check_int(cfg, "geometry.num_mics", 2)
    _check_int(cfg, "stft.window_length", 2)
    _check_int(cfg, "stft.hop", 1, maximum=cfg["stft"]["window_length"])
    for key in ("sample_rate", "geometry.mic_spacing_m", "acc_threshold_deg", "psacc_threshold_deg"):
        value = functools.reduce(dict.get, key.split("."), cfg)
        if not is_finite_number(value, 0):
            raise ConfigError(f"config key {key!r} must be a finite number > 0, got {value!r}")
    _check_level(cfg, "snr_db")
    _check_level(cfg, "sir_db")
    limit, first_bin = cfg["max_freq_hz"], cfg["sample_rate"] / cfg["stft"]["window_length"]
    if not estimate.is_frequency_limit(limit, first_bin):
        raise ConfigError(f"config key 'max_freq_hz' must be null or finite and >= bin 1's {first_bin:g} Hz, got {limit!r}")
    if cfg["acc_threshold_deg"] > cfg["psacc_threshold_deg"]:
        raise ConfigError("config key 'acc_threshold_deg' may not exceed 'psacc_threshold_deg'")
    if cfg["doas"] == "grid":
        cfg["doas"] = list(make_grid(cfg["grid_size"]).angles_deg)
    for key in ("source", "interferer") if cfg["sir_db"] is not None else ("source",):
        value = cfg[key]  # as with a mask (parse_mask), a value that is no known kind must name a file
        if value not in simulate.SOURCE_KINDS and not (isinstance(value, str) and os.path.isfile(value)):
            kinds = ", ".join(map(repr, simulate.SOURCE_KINDS))
            raise ConfigError(f"config key {key!r} must be {kinds} or an existing WAV file, got {value!r}")
    for key in ("t60", "smd", "doas"):
        values = cfg[key] if isinstance(cfg[key], (list, tuple)) else [cfg[key]]
        if not all(is_finite_number(value) for value in values):
            raise ConfigError(f"config key {key!r} must be a finite number or a list of them, got {cfg[key]!r}")
        cfg[key] = values
    for key in ("rooms", "t60", "smd", "doas", "methods", "masks"):
        entries = cfg[key]
        if not isinstance(entries, (list, tuple)) or not entries:
            raise ConfigError(f"config key {key!r} must be a non-empty list, got {entries!r}")
    for key in ("methods", "masks"):
        repeated = [entry for i, entry in enumerate(cfg[key]) if entry in cfg[key][:i]]
        if repeated:
            raise ConfigError(f"config key {key!r} repeats {repeated[0]!r}")
    for method in cfg["methods"]:
        if method not in estimate.METHODS:
            raise ConfigError(f"unknown method {method!r}; valid: {', '.join(estimate.METHODS)}")
    for kind in cfg["masks"]:
        try:
            parse_mask(kind)
        except ValueError as exc:
            raise ConfigError(f"config key 'masks': {exc}") from None
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
    specs, scene_ids = [], set()
    angles = make_grid(cfg["grid_size"]).angles_deg  # the interferer's candidate DOAs
    for index, ((room_idx, room_dims), t60, smd, doa, rep) in enumerate(grid_points):
        seed = int(np.random.SeedSequence([cfg["master_seed"], index]).generate_state(1)[0])
        rng = np.random.default_rng(seed)
        sources = [simulate.SourceSpec(doa, smd, cfg["source"])]
        sir = None
        if cfg["sir_db"] is not None:
            # interferer anywhere on the grid at least 5 degrees away
            while True:
                other = float(rng.choice(angles))
                if abs(other - doa) > 5.0:
                    break
            sources.append(simulate.SourceSpec(other, smd, cfg["interferer"]))
            sir = _as_range(cfg["sir_db"], rng)
        snr = _as_range(cfg["snr_db"], rng)
        scene_id = f"r{room_idx}_t{t60:.2f}_s{smd:.2f}_d{doa:07.3f}_k{rep}"
        if scene_id in scene_ids:  # records, reports and WAV names need one scene per id
            raise ConfigError(f"two scenes get the id {scene_id!r}: t60 and smd must differ in 2 decimals, doas in 3")
        scene_ids.add(scene_id)
        spec = simulate.SceneSpec(
            room=simulate.RoomSpec(room_dims, t60),
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
        specs.append((scene_id, spec))
    return specs


def parse_mask(kind: str) -> tuple:
    """Check the syntax of a mask spec and split it into ``(kind, *parameters)``.

    ``oracle-psm-bin:0.4`` gives ``("oracle-psm-bin", 0.4)``, ``band-range:3:9``
    gives ``("band-range", 3, 9)``, and a value of no known kind that names an
    existing file ``("file", value)``. A malformed spec raises a ``ValueError``
    that names it and its expected form. Ranges that depend on the
    spectrogram, such as ``random-band:N`` with N at most K, are left to
    :func:`build_masks`.
    """
    if not isinstance(kind, str):
        raise ValueError(f"a mask spec must be a string, got {kind!r}")
    name, colon, arg = kind.partition(":")
    if name not in _MASK_FORMS:
        if os.path.isfile(kind):
            return ("file", kind)
        raise ValueError(f"unknown mask kind {kind!r}; valid: {MASK_KINDS}, or an existing mask file")
    try:
        if name in ("none", "oracle-psm", "oracle-ratio"):
            params, ok = (), not colon
        elif name == "file":
            params, ok = (arg,), bool(arg)
        elif name == "band-range":
            params = tuple(int(x) for x in arg.split(":"))
            ok = len(params) == 2 and 0 <= params[0] <= params[1]
        elif name == "random-band":
            params = (int(arg),)
            ok = params[0] >= 0
        else:
            params = (float(arg),)
            ok = 0.0 <= params[0] <= 1.0
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"bad mask {kind!r}: expected {' with '.join(_MASK_FORMS[name])}")
    return (name, *params)


def build_masks(kinds, spec, direct=None, scene_seed: int = 0) -> list:
    """One (K, N) mask array per mask spec in ``kinds``, in order, for one spectrogram.

    Kinds: ``none``, ``oracle-psm``, ``oracle-ratio``, ``oracle-psm-bin:T``,
    ``oracle-ratio-bin:T``, ``random-band:N``, ``band-range:LO:HI``,
    ``file:PATH``, each parsed once by :func:`parse_mask`. Only the oracle
    kinds read the direct-path spectrogram: ``direct`` is a function of no
    arguments that returns it, called at most once and only if an oracle kind
    is asked for, and each unthresholded oracle mask is made once per call.
    A mask file must match the spectrogram's K x N shape.
    """
    k, n = spec.num_bins, spec.num_frames
    reference = None if direct is None else functools.cache(direct)
    makers = {"oracle-psm": attention.psm_mask, "oracle-ratio": attention.magnitude_ratio_mask}
    oracle = functools.cache(lambda source: makers[source](reference(), spec))

    def build(kind):
        name, *params = parse_mask(kind)
        if name == "none":
            return np.ones((k, n))
        if name == "random-band":
            return attention.random_band_mask(k, n, *params, seed=scene_seed)
        if name == "band-range":
            return attention.band_range_mask(k, n, *params)
        if name == "file":
            mask = attention.load_mask(*params)
            if mask.shape != (k, n):
                shape = " x ".join(map(str, mask.shape))
                raise ValueError(f"mask file {params[0]} is {shape} (bins x frames), the spectrogram {k} x {n}")
            return mask
        if reference is None:
            raise ValueError(f"mask {kind!r} needs the direct-path spectrogram")
        source = name.removesuffix("-bin")
        return oracle(source) if name == source else attention.binarize(oracle(source), *params)

    return [build(kind) for kind in kinds]


def _central_frames(num_frames: int, eval_frames: int):
    start = max(num_frames - eval_frames, 0) // 2
    return (start, start + min(eval_frames, num_frames))


def scene_inputs(spec, cfg: dict):
    """``(core, masks)`` of one simulated scene: the :class:`~doalab.estimate.EstimatorCore`
    over the central ``eval_frames`` with the config's grid and ``max_freq_hz``, one mask per
    kind in config order. :func:`build_masks` takes the direct-path STFT, of microphone 1 alone, only if
    an oracle kind needs it."""
    truth = simulate.mix_scene(spec)
    mixture = stft(truth.mixture, spec.window_length, spec.hop)
    frames = _central_frames(mixture.num_frames, cfg["eval_frames"])
    core = estimate.EstimatorCore(mixture, make_grid(cfg["grid_size"]), spec.geometry, frames, cfg["max_freq_hz"])
    source = truth.direct[0]  # taken only for an oracle mask, at microphone 1, the one channel oracle masks read
    direct = functools.partial(stft, TimeSignal(source.samples[:1], source.sample_rate), spec.window_length, spec.hop)
    return core, build_masks(cfg["masks"], mixture, direct, spec.seed)


def _run_scene(args):
    """Score one ``(scene_id, spec, cfg)`` task on the outputs of :func:`scene_inputs`:
    one ``core.spectra`` call per method, then a record per mask and method."""
    scene_id, spec, cfg = args
    core, masks = scene_inputs(spec, cfg)
    grid, frames_used = make_grid(cfg["grid_size"]), core.frames.stop - core.frames.start
    spectra = [core.spectra(method, masks, cfg["num_sources_music"]) for method in cfg["methods"]]
    return [
        EvalRecord(scene_id, spec.sources[0].doa_deg, estimate.pick_doa(sps[i], grid), method, kind, frames_used)
        for i, kind in enumerate(cfg["masks"])
        for method, sps in zip(cfg["methods"], spectra)
    ]


def _scene_pool(jobs: int) -> concurrent.futures.ProcessPoolExecutor:
    """``jobs`` scene workers on one BLAS thread each, so they keep ``jobs`` cores
    busy rather than twice that. A worker renders its scenes inline."""
    return concurrent.futures.ProcessPoolExecutor(max_workers=jobs, initializer=one_blas_thread)


def run_experiment(config: dict, out_dir=None):
    """Run the configured scene grid and return (records, reports).

    ``reports`` maps ``(method, mask)`` to an :class:`EvalReport`. When
    ``out_dir`` is given, also writes ``records.csv``, ``report.json``,
    ``confusion.csv`` and per-T60 psACC-vs-DOA data files. Output is
    byte-identical for identical configs regardless of worker count.
    """
    cfg = validate_config(config)
    scenes = _scene_specs(cfg)
    tasks = [(scene_id, spec, cfg) for scene_id, spec in scenes]
    if cfg["jobs"] > 1:
        with _scene_pool(cfg["jobs"]) as pool:
            results = list(pool.map(_run_scene, tasks, chunksize=1))
    else:
        results = [_run_scene(task) for task in tasks]
    records = sorted(chain.from_iterable(results), key=lambda r: (r.scene_id, r.method, r.mask_kind))

    reports = {}
    for method, mask_kind in product(cfg["methods"], cfg["masks"]):
        subset = [r for r in records if r.method == method and r.mask_kind == mask_kind]
        reports[(method, mask_kind)] = summarize(subset, cfg["acc_threshold_deg"], cfg["psacc_threshold_deg"])

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_outputs(out_dir, cfg, records, reports, {scene_id: spec.room.t60 for scene_id, spec in scenes})
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


def _write_outputs(out_dir, cfg, records, reports, scene_t60):
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
        hits = {}  # true DOA -> whether each of its records is within the pseudo-accuracy threshold
        for r in records:
            if scene_t60[r.scene_id] == t60:
                hits.setdefault(r.true_doa, []).append(r.ae < cfg["psacc_threshold_deg"])
        path = os.path.join(out_dir, f"psacc_vs_doa_t60_{t60:.2f}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["doa_deg", "psacc_pct"])
            for doa in sorted(hits):
                writer.writerow([f"{doa:.6f}", f"{100.0 * np.mean(hits[doa]):.6f}"])
