"""Metrics, config validation, scene grid enumeration, and the runner."""

import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from doalab import attention, estimate, evaluate, simulate
from doalab.evaluate import (
    EvalRecord,
    EvalReport,
    absolute_error,
    confusion_matrix,
    records_csv_bytes,
    run_experiment,
    summarize,
    validate_config,
)
from doalab.geometry import make_grid
from doalab.signal import stft, write_wav
from blas_probe import blas_thread_counts, set_blas_threads
from srp_reference import reference_norm_music, reference_srp_mp

SRC = Path(__file__).resolve().parents[1] / "src"


def _record(true_doa, est_doa, scene="s0", method="srp-p", mask="none"):
    return EvalRecord(
        scene_id=scene,
        true_doa=true_doa,
        est_doa=est_doa,
        method=method,
        mask_kind=mask,
        frames_used=50,
    )


class TestAbsoluteError:
    def test_linear_domain_no_wrap(self):
        # the ULA domain is [0, 180]; 10 vs 180 is 170 degrees, not 10
        assert absolute_error(10.0, 180.0) == 170.0

    def test_symmetry_and_zero(self):
        assert absolute_error(42.0, 42.0) == 0.0
        assert absolute_error(30.0, 50.0) == absolute_error(50.0, 30.0) == 20.0

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            absolute_error(-1.0, 90.0)
        with pytest.raises(ValueError):
            absolute_error(90.0, 181.0)


class TestSummarize:
    def test_strict_thresholds(self):
        # 0 and 4.9 are strictly below 5; 5.0 is not
        rep = summarize([_record(90.0, 90.0), _record(90.0, 94.9)])
        assert rep.acc == 100.0 and rep.psacc == 100.0
        rep = summarize([_record(90.0, 95.0)])
        assert rep.acc == 0.0 and rep.psacc == 100.0

    def test_mae_and_medae(self):
        rep = summarize([_record(90.0, 91.0), _record(90.0, 92.0), _record(90.0, 180.0)])
        assert rep.medae == 2.0
        assert rep.mae == pytest.approx((1.0 + 2.0 + 90.0) / 3.0)

    def test_single_record_mae_equals_medae(self):
        rep = summarize([_record(60.0, 65.5)])
        assert rep.mae == rep.medae == 5.5
        assert rep.count == 1

    def test_custom_thresholds(self):
        rep = summarize([_record(90.0, 97.0)], acc_threshold=8.0, psacc_threshold=8.0)
        assert rep.acc == 100.0 and rep.psacc == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestEvalReport:
    def test_psacc_cannot_be_below_acc(self):
        with pytest.raises(ValueError):
            EvalReport(mae=1.0, medae=1.0, acc=80.0, psacc=50.0, count=10)

    def test_percent_bounds(self):
        with pytest.raises(ValueError):
            EvalReport(mae=1.0, medae=1.0, acc=120.0, psacc=120.0, count=10)


class TestConfusionMatrix:
    def test_perfect_estimates_fill_diagonal(self):
        grid = make_grid(37)
        records = [_record(a, a) for a in grid.angles_deg]
        counts = confusion_matrix(records, grid)
        np.testing.assert_array_equal(counts, np.eye(37, dtype=np.int64))

    def test_single_error_cell(self):
        grid = make_grid(37)
        counts = confusion_matrix([_record(90.0, 105.0)], grid)
        assert counts.sum() == 1 and counts[18, 21] == 1

    def test_nearest_bin_rounding(self):
        # 2.4 degrees rounds down to the 0 bin, 2.6 up to the 5 bin
        grid = make_grid(37)
        counts = confusion_matrix([_record(2.4, 2.6)], grid)
        assert counts[0, 1] == 1


class TestValidateConfig:
    def test_defaults_filled(self):
        cfg = validate_config({})
        assert cfg["grid_size"] == 37
        assert cfg["stft"] == {"window_length": 512, "hop": 256}
        assert cfg["methods"] == ["srp-p"]
        assert len(cfg["doas"]) == 37

    def test_defaults_not_shared_between_calls(self):
        first = validate_config({})
        first["methods"].append("music")
        first["rooms"][0][0] = 1.0
        first["stft"]["hop"] = 128
        second = validate_config({})
        assert second["methods"] == ["srp-p"]
        assert second["rooms"] == [[6.0, 5.0, 2.7]]
        assert second["stft"] == {"window_length": 512, "hop": 256}

    def test_unknown_keys_listed(self):
        with pytest.raises(evaluate.ConfigError, match="bogus.*other|other.*bogus"):
            validate_config({"other": 1, "bogus": 2})

    def test_unsupported_version_rejected(self):
        with pytest.raises(evaluate.ConfigError, match="version"):
            validate_config({"version": 2})

    def test_empty_methods_rejected(self):
        with pytest.raises(evaluate.ConfigError, match="methods"):
            validate_config({"methods": []})

    def test_unknown_method_rejected(self):
        with pytest.raises(evaluate.ConfigError, match="srp-p"):
            validate_config({"methods": ["beamform"]})

    def test_empty_masks_rejected(self):
        with pytest.raises(evaluate.ConfigError, match="masks"):
            validate_config({"masks": []})

    @pytest.mark.parametrize("key", ["rooms", "t60", "smd", "doas"])
    def test_empty_scene_grid_rejected(self, key):
        with pytest.raises(evaluate.ConfigError, match=f"'{key}' must be a non-empty list"):
            validate_config({key: []})

    def test_scalar_t60_listed(self):
        assert validate_config({"t60": 0.4})["t60"] == [0.4]
        assert validate_config({"doas": 90})["doas"] == [90]

    def test_nested_dicts_merged_key_by_key(self):
        cfg = validate_config({"geometry": {"num_mics": 6}, "stft": {"hop": 128}})
        assert cfg["geometry"] == {"num_mics": 6, "mic_spacing_m": 0.08}
        assert cfg["stft"] == {"window_length": 512, "hop": 128}
        _, spec = evaluate._scene_specs(dict(cfg, doas=[90.0]))[0]
        assert spec.geometry.num_mics == 6 and (spec.window_length, spec.hop) == (512, 128)

    def test_unknown_nested_key_named_with_its_parent(self):
        with pytest.raises(evaluate.ConfigError, match="geometry.extra"):
            validate_config({"geometry": {"num_mics": 4, "mic_spacing_m": 0.08, "extra": 1}})

    @pytest.mark.parametrize("config", [[], "x", 5, None])
    def test_config_must_be_an_object(self, config):
        with pytest.raises(evaluate.ConfigError, match="JSON object"):
            validate_config(config)

    def test_scene_grid_size(self):
        cfg = validate_config({"t60": [0.2, 0.3, 0.4, 0.5, 0.6]})
        assert len(evaluate._scene_specs(cfg)) == 37 * 5

    def test_scene_ids_unique_and_seeded(self):
        cfg = validate_config({"seeds_per_doa": 2, "duration_frames": 4})
        specs = evaluate._scene_specs(cfg)
        ids = [sid for sid, _ in specs]
        assert len(set(ids)) == len(ids) == 74
        again = evaluate._scene_specs(cfg)
        assert [s.seed for _, s in specs] == [s.seed for _, s in again]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("jobs", -3),
            ("jobs", 1.5),
            ("eval_frames", 0),
            ("grid_size", 1),
            ("duration_frames", "12"),
            ("duration_frames", True),
            ("snr_db", [30.0, 10.0]),
            ("snr_db", [10.0]),
            ("sir_db", "0"),
            ("methods", ["srp-p", "music", "srp-p"]),
            ("masks", ["none", "none"]),
            ("acc_threshold_deg", "x"),
            ("acc_threshold_deg", 0),
            ("acc_threshold_deg", 15.0),  # above the default psacc threshold of 10
            ("psacc_threshold_deg", 4.0),  # below the default acc threshold of 5
            ("max_freq_hz", "x"),
            ("max_freq_hz", -5.0),
            ("seeds_per_doa", 0),
            ("num_sources_music", 0),
            ("num_sources_music", 1.5),
            ("t60", ["x"]),
            ("smd", "x"),
            ("masks", "none"),
            ("master_seed", -1),
            ("doas", "all"),
            ("doas", [90, "x"]),
            ("geometry", 4),
            ("max_freq_hz", 10.0),  # below the first bin's 16000 / 512 = 31.25 Hz
            ("sample_rate", float("inf")),
            ("sample_rate", float("nan")),
            ("stft.window_length", "x"),
            ("stft.window_length", 512.0),
            ("stft.window_length", 1),
            ("stft.hop", "x"),
            ("stft.hop", 1.5),
            ("stft.hop", 0),
            ("stft.hop", 513),  # above the window length
            ("geometry.mic_spacing_m", "x"),
            ("geometry.mic_spacing_m", None),
            ("geometry.mic_spacing_m", float("inf")),
            ("geometry.num_mics", 2.5),
            ("geometry.num_mics", 1),
            ("sample_rate", True),
            ("geometry.mic_spacing_m", float("nan")),
            ("acc_threshold_deg", float("nan")),
            ("psacc_threshold_deg", float("inf")),  # accepted before every threshold had to be finite
            ("max_freq_hz", float("inf")),
            ("max_freq_hz", float("nan")),
            ("max_freq_hz", True),
            ("snr_db", True),
            ("snr_db", float("nan")),
            ("snr_db", [float("nan"), 10.0]),
            ("snr_db", 4000.0),
            ("snr_db", [-4000.0, 0.0]),
            ("sir_db", -4000.0),
            ("sir_db", [0.0, 4000.0]),
            ("sir_db", [0.0, True]),
            ("t60", [float("inf")]),
            ("t60", [0.3, float("nan")]),
            ("t60", True),
            ("smd", [float("nan")]),
            ("smd", [-float("inf")]),
            ("doas", [float("nan")]),
            ("doas", [90.0, 10**400]),  # beyond the float range
            ("source", "harmonic"),
            ("source", "no-such-file.wav"),
            ("source", 5),
            ("source", None),
        ],
    )
    def test_bad_values_name_their_key(self, key, value):
        """A bad value raises a ConfigError naming its key, dotted if it is nested."""
        parent, _, child = key.rpartition(".")
        with pytest.raises(evaluate.ConfigError, match=re.escape(repr(key))):
            validate_config({parent: {child: value}} if parent else {key: value})

    def test_boundary_values_accepted(self):
        cfg = validate_config(
            {"jobs": 1, "eval_frames": 1, "grid_size": 2, "duration_frames": 1,
             "snr_db": [10.0, 10.0], "sir_db": None, "seeds_per_doa": 1, "num_sources_music": 1,
             "acc_threshold_deg": 10.0, "max_freq_hz": None}
        )
        assert cfg["doas"] == [0.0, 180.0]
        assert validate_config({"max_freq_hz": 31.25})["max_freq_hz"] == 31.25  # the first bin, 16000 / 512 Hz
        assert validate_config({"t60": 0, "snr_db": [-300, 300], "sir_db": 300})["t60"] == [0]
        bound = simulate.MAX_LEVEL_DB
        assert validate_config({"snr_db": [-bound, bound], "sir_db": -bound})["sir_db"] == -bound
        assert validate_config({"stft": {"window_length": 2, "hop": 2}, "geometry": {"num_mics": 2}})

    def test_null_snr_gives_scenes_without_noise(self):
        cfg = validate_config({"snr_db": None, "doas": [90.0], "duration_frames": 4})
        (_, spec), = evaluate._scene_specs(cfg)
        assert spec.snr_db is None
        truth = simulate.mix_scene(spec)
        assert truth.noise.samples.shape == truth.mixture.samples.shape and not np.any(truth.noise.samples)

    def test_interferer_checked_only_with_an_sir(self, tmp_path):
        """An interferer must be white, speech or an existing file, and only a scene with an SIR has one."""
        assert validate_config({"interferer": "no-such-file.wav"})["sir_db"] is None
        with pytest.raises(evaluate.ConfigError, match="'interferer'"):
            validate_config({"interferer": "no-such-file.wav", "sir_db": 0.0})
        wav = tmp_path / "voice.wav"
        write_wav(wav, simulate.white_noise(1, 100, seed=0))
        assert validate_config({"source": str(wav), "interferer": str(wav), "sir_db": 0.0})["source"] == str(wav)

    def test_interferer_kept_away_from_source(self):
        cfg = validate_config({"sir_db": 0.0, "duration_frames": 4})
        for _, spec in evaluate._scene_specs(cfg):
            assert len(spec.sources) == 2
            assert abs(spec.sources[1].doa_deg - spec.sources[0].doa_deg) > 5.0


class TestCentralFrames:
    def test_centered_window(self):
        assert evaluate._central_frames(100, 50) == (25, 75)

    def test_clipped_to_available(self):
        assert evaluate._central_frames(30, 50) == (0, 30)


def _tiny_config(**overrides):
    cfg = {
        "master_seed": 3,
        "t60": [0.0],
        "doas": [60.0, 120.0],
        "duration_frames": 12,
        "eval_frames": 8,
        "snr_db": 30.0,
        "methods": ["srp-p", "srp-mp"],
        "masks": ["none", "oracle-psm"],
    }
    cfg.update(overrides)
    return cfg


class TestRunExperiment:
    def test_records_and_reports(self, tmp_path):
        records, reports = run_experiment(_tiny_config(), out_dir=tmp_path)
        assert len(records) == 2 * 2 * 2  # scenes x methods x masks
        assert set(reports) == {
            ("srp-p", "none"),
            ("srp-p", "oracle-psm"),
            ("srp-mp", "none"),
            ("srp-mp", "oracle-psm"),
        }
        for rep in reports.values():
            assert rep.count == 2
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "confusion.csv").exists()
        assert (tmp_path / "psacc_vs_doa_t60_0.00.csv").exists()

    def test_anechoic_scenes_recovered_exactly(self):
        records, _ = run_experiment(_tiny_config())
        for r in records:
            assert r.ae == 0.0

    def test_deterministic_across_runs_and_jobs(self, tmp_path):
        """Every file the runner writes is byte-identical across runs and worker counts."""
        outputs = []
        for run, jobs in enumerate((1, 1, 2)):
            run_experiment(_tiny_config(t60=[0.0, 0.2], jobs=jobs), out_dir=tmp_path / str(run))
            outputs.append({path.name: path.read_bytes() for path in (tmp_path / str(run)).iterdir()})
        assert outputs[0] == outputs[1] == outputs[2]
        assert sorted(outputs[0]) == [
            "confusion.csv", "psacc_vs_doa_t60_0.00.csv", "psacc_vs_doa_t60_0.20.csv", "records.csv", "report.json"
        ]

    def test_jobs_2_after_a_side_by_side_jobs_1_run(self, tmp_path):
        """A two-source reverberant run starts helper threads; a pool forked after it
        must still finish, and write what the one-process run wrote."""
        cfg = _tiny_config(t60=[0.2], rir_length_s=0.1, sir_db=0.0)
        code = (
            "import json, sys\n"
            "from doalab.evaluate import run_experiment\n"
            "cfg = json.loads(sys.argv[1])\n"
            "for jobs in (1, 2):\n"
            "    run_experiment({**cfg, 'jobs': jobs}, out_dir=f'{sys.argv[2]}/{jobs}')\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.Popen([sys.executable, "-c", code, json.dumps(cfg), str(tmp_path)], env=env, start_new_session=True)
        try:
            returncode = run.wait(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)  # the run and its pool workers
            run.wait()
            pytest.fail("run_experiment(jobs=2) after a two-source reverberant jobs=1 run did not finish in 120 s")
        assert returncode == 0
        outputs = [{path.name: path.read_bytes() for path in (tmp_path / str(jobs)).iterdir()} for jobs in (1, 2)]
        assert outputs[0] == outputs[1]
        assert sorted(outputs[0]) == ["confusion.csv", "psacc_vs_doa_t60_0.20.csv", "records.csv", "report.json"]

    def test_pool_workers_take_one_blas_thread(self):
        before = blas_thread_counts()
        if not before:
            pytest.skip("no OpenBLAS with a thread-count symbol is loaded")
        set_blas_threads([2] * len(before))  # a forked worker starts from this, not from one thread
        try:
            with evaluate._scene_pool(1) as pool:
                assert pool.submit(blas_thread_counts).result(timeout=60) == [1] * len(before)
        finally:
            set_blas_threads(before)

    def test_csv_header(self):
        records, _ = run_experiment(_tiny_config(methods=["srp-p"], masks=["none"]))
        lines = records_csv_bytes(records).decode().splitlines()
        assert lines[0] == "scene_id,method,mask,true_doa_deg,est_doa_deg,ae_deg,frames_used"
        assert len(lines) == 1 + len(records)

    def test_band_mask_kinds_accepted(self):
        records, _ = run_experiment(
            _tiny_config(methods=["srp-mp"], masks=["random-band:50", "band-range:20:120"])
        )
        assert {r.mask_kind for r in records} == {"random-band:50", "band-range:20:120"}


# The masks of `doalab eval --vthr-sweep 0:0.9:0.1` plus two band masks.
SWEEP_MASKS = (
    ["none", "oracle-psm", "oracle-ratio"]
    + [f"oracle-ratio-bin:{t:.2f}" for t in np.arange(0.0, 0.95, 0.1)]
    + ["random-band:50", "band-range:100:150"]
)


def _sweep_scenes():
    """Three anechoic two-source scenes, one more with a band limit, one reverberant."""
    base = {
        "master_seed": 23,
        "sir_db": 0.0,
        "snr_db": [20.0, 30.0],
        "source": "speech",
        "interferer": "speech",
        "methods": ["srp-p", "srp-mp", "music"],
        "masks": SWEEP_MASKS,
    }
    anechoic = validate_config(dict(base, t60=[0.0], doas=[30.0, 95.0, 150.0]))
    limited = validate_config(dict(base, t60=[0.0], doas=[120.0], max_freq_hz=5000.0))
    reverb = validate_config(dict(base, t60=[0.3], doas=[70.0], rir_length_s=0.25))
    return [
        (scene_id, spec, cfg)
        for cfg in (anechoic, limited, reverb)
        for scene_id, spec in evaluate._scene_specs(cfg)
    ]


class TestSharedCore:
    def test_runner_matches_per_mask_reference(self, monkeypatch):
        grid = make_grid(37)
        original_pick = estimate.pick_doa
        for scene in _sweep_scenes():
            _, spec, cfg = scene
            spectra = []

            def recording_pick(sps, grid_):
                spectra.append(sps)
                return original_pick(sps, grid_)

            monkeypatch.setattr(estimate, "pick_doa", recording_pick)
            records = evaluate._run_scene(scene)
            monkeypatch.setattr(estimate, "pick_doa", original_pick)
            assert len(records) == len(spectra) == len(SWEEP_MASKS) * 3

            truth = simulate.mix_scene(spec)
            mix = stft(truth.mixture)
            direct = stft(truth.direct[0])
            frames = evaluate._central_frames(mix.num_frames, cfg["eval_frames"])
            limit = cfg["max_freq_hz"]
            ones = evaluate.build_masks(["none"], mix)[0]
            expected = []
            for kind in SWEEP_MASKS:
                mask = evaluate.build_masks([kind], mix, lambda: direct, spec.seed)[0]
                for m in (ones, mask):
                    expected.append(reference_srp_mp(mix, m, grid, spec.geometry, frames, limit))
                expected.append(
                    reference_norm_music(mix, mask, grid, spec.geometry, 1, frames, limit)
                )
            for record, values, ref in zip(records, spectra, expected):
                assert record.est_doa == original_pick(ref, grid), (record.method, record.mask_kind)
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(values - ref)) <= 1e-12 * scale, (
                    record.method,
                    record.mask_kind,
                )

    @pytest.mark.parametrize("scene_index", [0, 3])  # anechoic, max_freq_hz 5000
    def test_runner_scores_the_scene_inputs(self, scene_index):
        """scene_inputs builds one mask per kind and the core over the central frames;
        _run_scene's records are the picks of core.spectra on exactly these."""
        scene_id, spec, cfg = _sweep_scenes()[scene_index]
        core, masks = evaluate.scene_inputs(spec, cfg)
        truth = simulate.mix_scene(spec)
        mix, direct = stft(truth.mixture), stft(truth.direct[0])
        assert len(masks) == len(cfg["masks"])
        for kind, mask in zip(cfg["masks"], masks):
            np.testing.assert_array_equal(mask, evaluate.build_masks([kind], mix, lambda: direct, spec.seed)[0], err_msg=kind)
        start = (mix.num_frames - cfg["eval_frames"]) // 2
        assert core.frames == slice(start, start + cfg["eval_frames"])
        np.testing.assert_array_equal(core.bins, mix.bins[:, :, core.frames])
        limit = cfg["max_freq_hz"]
        if limit is None:
            assert core.cut is None
        else:
            np.testing.assert_array_equal(core.cut, mix.bin_frequency(np.arange(mix.num_bins)) > limit)

        grid = make_grid(cfg["grid_size"])
        picks = {}
        for method in cfg["methods"]:
            for kind, sps in zip(cfg["masks"], core.spectra(method, masks, cfg["num_sources_music"])):
                picks[method, kind] = estimate.pick_doa(sps, grid)
        records = evaluate._run_scene((scene_id, spec, cfg))
        assert [(r.method, r.mask_kind) for r in records] == [(m, k) for k in cfg["masks"] for m in cfg["methods"]]
        for r in records:
            assert (r.scene_id, r.true_doa, r.frames_used) == (scene_id, spec.sources[0].doa_deg, cfg["eval_frames"])
            assert r.est_doa == picks[r.method, r.mask_kind], (r.method, r.mask_kind)

    def test_one_pair_build_per_scene(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # the core's constructor builds the pair cross-spectra and the pair steering,
        # from which the MUSIC steering is taken
        monkeypatch.setattr(estimate, "EstimatorCore", counting("pairs", estimate.EstimatorCore))
        monkeypatch.setattr(evaluate, "stft", counting("stft", evaluate.stft))
        records = evaluate._run_scene(_sweep_scenes()[0])
        assert len(records) == len(SWEEP_MASKS) * 3
        assert counts == {"pairs": 1, "stft": 2}

    def test_no_direct_path_stft_without_oracle_masks(self, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluate, "stft", lambda *args: calls.append(args) or stft(*args))
        scene_id, spec, cfg = _sweep_scenes()[0]
        masks = ["none", "random-band:50", "band-range:100:150"]
        records = evaluate._run_scene((scene_id, spec, dict(cfg, masks=masks)))
        assert len(records) == len(masks) * 3
        assert len(calls) == 1

    def test_direct_path_stft_is_taken_at_microphone_1(self, monkeypatch):
        channels = []
        monkeypatch.setattr(evaluate, "stft", lambda signal, *args: channels.append(signal.num_channels) or stft(signal, *args))
        _, spec, cfg = _sweep_scenes()[0]
        evaluate.scene_inputs(spec, cfg)
        assert channels == [4, 1]

    def test_one_eigh_and_one_srp_p_spectrum_per_scene(self, monkeypatch):
        counts = Counter()
        eigh, normalize = np.linalg.eigh, estimate.normalize_sps

        def counting_eigh(a):
            counts["eigh"] += 1
            return eigh(a)

        def counting_normalize(sps):
            counts["spectra"] += 1
            return normalize(sps)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(estimate, "normalize_sps", counting_normalize)
        records = evaluate._run_scene(_sweep_scenes()[0])
        assert len(records) == len(SWEEP_MASKS) * 3
        # srp-p once, srp-mp and music once per distinct mask: oracle-ratio-bin:0.00
        # keeps every bin, so it is the same mask as none
        assert counts == {"eigh": 1, "spectra": 1 + 2 * (len(SWEEP_MASKS) - 1)}


class TestBatchedCore:
    """One EstimatorCore call over many masks against the per-mask reference."""

    @pytest.mark.parametrize("scene_index", [0, 3, 4])  # anechoic, max_freq_hz 5000, reverberant
    def test_batch_matches_per_mask_reference(self, scene_index):
        _, spec, cfg = _sweep_scenes()[scene_index]
        grid = make_grid(37)
        truth = simulate.mix_scene(spec)
        mix = stft(truth.mixture)
        direct = stft(truth.direct[0])
        limit = cfg["max_freq_hz"]
        kinds = SWEEP_MASKS + ["oracle-psm-bin:0.99", "band-range:0:0", "band-range:30:40", "random-band:5"]
        masks = [evaluate.build_masks([kind], mix, lambda: direct, spec.seed)[0] for kind in kinds]
        # the masks' active-bin sets differ, binarized masks have all-zero rows
        active_rows = [np.any(m, axis=1) for m in masks]
        assert len({rows.tobytes() for rows in active_rows}) >= 6
        assert any(not rows.all() for kind, rows in zip(kinds, active_rows) if "-bin:" in kind)
        for frames in (None, evaluate._central_frames(mix.num_frames, cfg["eval_frames"])):
            core = estimate.EstimatorCore(mix, grid, spec.geometry, frames, max_freq_hz=limit)
            batches = {
                ("srp-mp", 0): core.spectra("srp-mp", masks),
                ("music", 1): core.spectra("music", masks, 1),
                ("music", 2): core.spectra("music", masks, 2),
            }
            for (method, num_sources), spectra in batches.items():
                assert len(spectra) == len(masks)
                for kind, mask, sps in zip(kinds, masks, spectra):
                    if method == "srp-mp":
                        ref = reference_srp_mp(mix, mask, grid, spec.geometry, frames, limit)
                    else:
                        ref = reference_norm_music(mix, mask, grid, spec.geometry, num_sources, frames, limit)
                    scale = np.max(np.abs(ref))
                    assert np.max(np.abs(sps - ref)) <= 1e-12 * scale, (method, num_sources, kind)

    def test_music_peak_memory(self):
        """One MUSIC call over a sweep scene's 15 masks (257 bins, 50 frames), with the products it
        forms, peaks at no more traced memory than the per-mask projection before the blocked pass
        did (8.71 MB)."""
        _, spec, cfg = _sweep_scenes()[0]
        core, masks = evaluate.scene_inputs(spec, cfg)
        assert len(masks) == 15 and core.bins.shape == (4, 257, 50)
        core.steering  # the geometry's shared table is not the call's
        tracemalloc.start()
        try:
            core.spectra("music", masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.71e6

    def test_equal_masks_evaluated_once(self, monkeypatch):
        _, spec, cfg = _sweep_scenes()[0]
        truth = simulate.mix_scene(spec)
        mix = stft(truth.mixture)
        direct = stft(truth.direct[0])
        kinds = ["none", "oracle-psm", "oracle-ratio-bin:0.00"]
        masks = [evaluate.build_masks([kind], mix, lambda: direct, spec.seed)[0] for kind in kinds]
        assert np.array_equal(masks[0], masks[2])
        frames = evaluate._central_frames(mix.num_frames, cfg["eval_frames"])
        core = estimate.EstimatorCore(mix, make_grid(37), spec.geometry, frames)
        eigh, power = np.linalg.eigh, core.power
        eigh_bins, power_masks = [], []

        def counting_eigh(a):
            eigh_bins.append(len(a))
            return eigh(a)

        def counting_power(weights):
            power_masks.append(len(weights))
            return power(weights)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(core, "power", counting_power)
        for method in estimate.METHODS:
            spectra = core.spectra(method, masks)
            assert np.array_equal(spectra[0], spectra[2])
            if method == "srp-p":  # its weight M^0 is all ones, so the distinct masks share one spectrum
                assert np.array_equal(spectra[0], spectra[1])
        # srp-p sends one weight column to power, srp-mp two; every bin of every mask is active,
        # so the duplicate would add K bins to eigh
        assert power_masks == [1, 2] and eigh_bins == [2 * mix.num_bins]

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_all_zero_mask_anywhere_in_batch_raises(self, position):
        mix = stft(simulate.white_noise(4, 40 * 256, seed=3))
        core = estimate.EstimatorCore(mix, make_grid(37), simulate.ArrayGeometry.uniform(4, 0.08))
        masks = [evaluate.build_masks([kind], mix)[0] for kind in ("none", "band-range:10:20", "random-band:30")]
        masks[position] = np.zeros(masks[0].shape)
        with pytest.raises(ValueError, match="empty attention"):
            core.spectra("srp-mp", masks)
        with pytest.raises(ValueError, match="empty attention"):
            core.spectra("music", masks)
        # 1e-170 squares to 0, so SRP-MP's weight is all zero; srp-p's weight M^0 is all ones
        masks[position] = np.full(masks[0].shape, 1e-170)
        with pytest.raises(ValueError, match="empty attention"):
            core.spectra("srp-mp", masks)
        assert np.array_equal(core.spectra("srp-p", masks), core.spectra("srp-p", [None] * len(masks)))
        for method in estimate.METHODS:
            with pytest.raises(ValueError, match="need at least one mask"):
                core.spectra(method, [])

    @pytest.mark.parametrize("kind", ["oracle-psm", "oracle-ratio", "oracle-ratio-bin:0.5"])
    def test_oracle_mask_needs_the_direct_path(self, kind):
        mix = stft(simulate.white_noise(4, 40 * 256, seed=3))
        with pytest.raises(ValueError, match="needs the direct-path spectrogram"):
            evaluate.build_masks([kind], mix)[0]

    def test_direct_path_taken_once_and_each_oracle_mask_made_once(self, monkeypatch):
        mix = stft(simulate.white_noise(4, 40 * 256, seed=3))
        direct = stft(simulate.white_noise(4, 40 * 256, seed=4))
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(attention, "psm_mask", counted("psm_mask", attention.psm_mask))
        kinds = ["oracle-psm", "oracle-psm-bin:0.9", "oracle-ratio-bin:0.5"]
        masks = evaluate.build_masks(kinds, mix, counted("direct", lambda: direct))
        assert calls == {"direct": 1, "psm_mask": 1}
        psm, ratio = attention.psm_mask(direct, mix), attention.magnitude_ratio_mask(direct, mix)
        np.testing.assert_array_equal(masks[0], psm)
        np.testing.assert_array_equal(masks[1], attention.binarize(psm, 0.9))
        np.testing.assert_array_equal(masks[2], attention.binarize(ratio, 0.5))

    def test_direct_path_never_taken_without_an_oracle_kind(self):
        mix = stft(simulate.white_noise(4, 40 * 256, seed=3))

        def direct():
            raise AssertionError("the direct path was taken")

        masks = evaluate.build_masks(["none", "band-range:1:3", "random-band:5"], mix, direct)
        assert [m.shape for m in masks] == [(mix.num_bins, mix.num_frames)] * 3

    def test_mask_shape_checked_per_mask(self):
        mix = stft(simulate.white_noise(4, 40 * 256, seed=3))
        core = estimate.EstimatorCore(mix, make_grid(37), simulate.ArrayGeometry.uniform(4, 0.08))
        masks = [evaluate.build_masks(["none"], mix)[0], np.ones((mix.num_bins, mix.num_frames - 1))]
        for method in ("srp-mp", "music"):
            with pytest.raises(ValueError, match="must match"):
                core.spectra(method, masks)

    def test_first_bad_mask_in_list_order_names_the_error(self):
        """Masks are checked and weighted one at a time, so a bad mask stops the batch at its position."""
        mix = stft(simulate.white_noise(4, 40 * 256, seed=3))
        core = estimate.EstimatorCore(mix, make_grid(37), simulate.ArrayGeometry.uniform(4, 0.08))
        empty, misshapen = np.zeros(core.shape), np.ones((mix.num_bins, mix.num_frames - 1))
        with pytest.raises(ValueError, match="empty attention"):
            core.spectra("srp-mp", [empty, misshapen])
        with pytest.raises(ValueError, match="must match"):
            core.spectra("srp-mp", [misshapen, empty])


def test_value_naming_a_file_parses_as_a_mask_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("learned.mask", "none"):
        (tmp_path / name).write_bytes(b"")
    assert evaluate.parse_mask("learned.mask") == ("file", "learned.mask")
    assert evaluate.parse_mask(str(tmp_path / "learned.mask")) == ("file", str(tmp_path / "learned.mask"))
    assert evaluate.parse_mask("none") == ("none",)  # a known kind wins over a file of its name
    with pytest.raises(ValueError, match="or an existing mask file"):
        evaluate.parse_mask("missing.mask")
