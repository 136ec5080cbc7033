"""Command-line interface: subcommands, output files, and exit codes."""

import csv
import json
import struct

import numpy as np
import pytest
import scipy.signal

from doalab import simulate
from doalab.attention import save_mask
from doalab.cli import main
from doalab.estimate import srp_flops
from doalab.geometry import ArrayGeometry
from doalab.signal import write_wav
from doalab.simulate import TimeSignal, white_noise
from synthesis import plane_wave_synthesize

FS = 16000

# numbers json reads from the literals NaN and Infinity, and levels beyond simulate.MAX_LEVEL_DB,
# each with the key or field its error names
NAN, INF = float("nan"), float("inf")
UNUSABLE_NUMBERS = {
    "t60-infinity": ({"t60": [INF]}, "'t60'"),
    "rir_length_s-infinity": ({"rir_length_s": INF}, "rir_length_s"),
    "room-nan": ({"rooms": [[6.0, 5.0, NAN]]}, "room dimensions"),
    "t60-nan": ({"t60": [NAN]}, "'t60'"),
    "smd-nan": ({"smd": [NAN]}, "'smd'"),
    "snr_db-4000": ({"snr_db": 4000}, "'snr_db'"),
    "sir_db-4000": ({"sir_db": 4000}, "'sir_db'"),
    "sir_db-minus-4000": ({"sir_db": -4000}, "'sir_db'"),
    "snr_db-range-from-minus-4000": ({"snr_db": [-4000, 0]}, "'snr_db'"),
    "sir_db-range-to-4000": ({"sir_db": [0, 4000]}, "'sir_db'"),
}
# values that a scene's spec rejects, each with the key or field its error names; they too fail before any scene
UNUSABLE_SCENE_VALUES = {
    "source-harmonic": ({"source": "harmonic"}, "'source'"),
    "interferer-missing-file": ({"interferer": "no-such-file.wav", "sir_db": 0.0}, "'interferer'"),
    "odd-window_length": ({"stft": {"window_length": 511, "hop": 256}}, "window_length"),
}


def _write_config(path, **overrides):
    cfg = {
        "master_seed": 5,
        "t60": [0.0],
        "doas": [60.0, 90.0, 120.0],
        "seeds_per_doa": 2,
        "duration_frames": 8,
        "eval_frames": 6,
        "snr_db": 30.0,
        "methods": ["srp-p"],
        "masks": ["none"],
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def broadside_wav(tmp_path):
    src = white_noise(1, 4000, seed=0)
    out = plane_wave_synthesize(src, 90.0, ArrayGeometry.uniform(4, 0.08))
    path = tmp_path / "broadside.wav"
    write_wav(path, out)
    return path


class TestFlops:
    def test_published_operating_point(self, capsys):
        assert main(["flops", "257", "37", "4"]) == 0
        assert capsys.readouterr().out.strip() == "183241"

    def test_minimal_case_matches_library(self, capsys):
        assert main(["flops", "1", "1", "2"]) == 0
        assert capsys.readouterr().out.strip() == str(srp_flops(1, 1, 2)) == "15"

    def test_zero_size_is_usage_error(self, capsys):
        assert main(["flops", "0", "37", "4"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_doalab_jobs_not_read(self, monkeypatch, capsys):
        monkeypatch.setenv("DOALAB_JOBS", "abc")
        assert main(["flops", "257", "37", "4"]) == 0
        assert capsys.readouterr().out.strip() == "183241"


class TestEstimate:
    def test_broadside_wav_picks_90(self, broadside_wav, capsys):
        assert main(["estimate", "--input", str(broadside_wav)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["picked_doa_deg"] == 90.0
        assert payload["method"] == "srp-p"
        assert payload["mask"] == "none"
        assert len(payload["grid_deg"]) == 37
        assert len(payload["sps_per_frame"]) > 0

    def test_output_file(self, broadside_wav, tmp_path):
        out = tmp_path / "est.json"
        assert main(["estimate", "--input", str(broadside_wav), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["picked_doa_deg"] == 90.0

    def test_music_method(self, broadside_wav, capsys):
        assert main(["estimate", "--input", str(broadside_wav), "--method", "music"]) == 0
        assert json.loads(capsys.readouterr().out)["picked_doa_deg"] == 90.0

    def test_consecutive_calls_share_no_options(self, broadside_wav, capsys):
        # main reuses one parser; options of one call must not reach the next
        default = ["estimate", "--input", str(broadside_wav)]
        assert main(default) == 0
        first = capsys.readouterr().out
        assert main(default + ["--mask", "band-range:20:200", "--method", "srp-mp", "--frames", "2:9"]) == 0
        masked = json.loads(capsys.readouterr().out)
        assert (masked["mask"], masked["method"], len(masked["sps_per_frame"])) == ("band-range:20:200", "srp-mp", 7)
        assert main(default) == 0
        assert capsys.readouterr().out == first

    def test_whole_frame_range_is_the_default(self, broadside_wav, capsys):
        """``--frames 0:14`` names all 14 frames of the file, so it chooses what no ``--frames`` does."""
        default = ["estimate", "--input", str(broadside_wav), "--method", "srp-mp"]
        assert main(default) == 0
        expected = capsys.readouterr().out
        assert main(default + ["--frames", "0:14"]) == 0
        assert capsys.readouterr().out == expected

    def test_unknown_method_is_usage_error(self, broadside_wav, capsys):
        assert main(["estimate", "--input", str(broadside_wav), "--method", "beam"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_mask_is_usage_error(self, broadside_wav, capsys):
        assert main(["estimate", "--input", str(broadside_wav), "--mask", "nope"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope" in err and "or an existing mask file" in err

    def test_oracle_mask_requires_direct(self, broadside_wav, capsys):
        assert main(["estimate", "--input", str(broadside_wav), "--mask", "oracle-psm"]) == 1
        assert "--direct" in capsys.readouterr().err

    def test_direct_at_another_rate_is_usage_error(self, broadside_wav, tmp_path, capsys):
        """A --direct WAV of the same length at 8 kHz gives an equal-shaped STFT of other frequencies."""
        direct = tmp_path / "direct8k.wav"
        write_wav(direct, TimeSignal(white_noise(4, 4000, seed=1).samples, 8000.0))
        argv = ["--input", str(broadside_wav), "--direct", str(direct), "--method", "srp-mp", "--mask", "oracle-psm"]
        assert main(["estimate", *argv]) == 1
        assert "8000 and 16000 Hz" in _one_error_line(capsys)

    @pytest.mark.parametrize("channels, samples", [(2, 4000), (1, 4000), (4, 4010)])
    def test_direct_of_another_shape_is_usage_error(self, broadside_wav, tmp_path, capsys, channels, samples):
        """The direct WAV must hold the input's channels and samples, also where its microphone-1 STFT
        has the input's bins and frames (4010 samples give the 14 frames of 4000)."""
        direct = tmp_path / "direct.wav"
        write_wav(direct, TimeSignal(white_noise(channels, samples, seed=1).samples, float(FS)))
        argv = ["--input", str(broadside_wav), "--direct", str(direct), "--method", "srp-mp", "--mask", "oracle-psm"]
        assert main(["estimate", *argv]) == 1
        assert f"{channels} channel(s) of {samples} samples, --input 4 of 4000" in _one_error_line(capsys)

    def test_music_on_silence_is_usage_error(self, tmp_path, capsys):
        """A silent WAV has no direction: MUSIC exits 1 like both SRPs instead of picking 0 degrees."""
        silent = tmp_path / "silent.wav"
        write_wav(silent, TimeSignal(np.zeros((4, 4000)), float(FS)))
        assert main(["estimate", "--input", str(silent), "--method", "music"]) == 1
        assert "silent input" in _one_error_line(capsys)

    def test_direct_not_read_without_an_oracle_mask(self, broadside_wav, tmp_path, capsys):
        missing = str(tmp_path / "missing.wav")
        assert main(["estimate", "--input", str(broadside_wav), "--mask", "none", "--direct", missing]) == 0
        assert json.loads(capsys.readouterr().out)["picked_doa_deg"] == 90.0

    def test_bad_frame_range_is_usage_error(self, broadside_wav, capsys):
        assert main(["estimate", "--input", str(broadside_wav), "--frames", "abc"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["--method", "music", "--num-sources", "4"],
            ["--method", "music", "--num-sources", "0"],
            ["--frames", "5:3"],
            ["--frames=-2:3"],
            ["--frames", "14:20"],
            ["--frames", "0:15"],
            ["--frames", "0:1000"],
            ["--frames", "1:2:3"],
            ["--grid", "1"],
            ["--window-length", "0"],
            ["--window-length", "511"],
            ["--hop", "0"],
            ["--mic-spacing", "0"],
        ],
    )
    def test_bad_argument_is_usage_error(self, broadside_wav, capsys, args):
        assert main(["estimate", "--input", str(broadside_wav)] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        assert main(["estimate", "--input", str(tmp_path / "nope.wav")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("prefix", ["", "file:"])
    @pytest.mark.parametrize("method", ["srp-mp", "music"])
    def test_mask_file(self, broadside_wav, tmp_path, capsys, prefix, method):
        # 4000 samples give 14 frames of 257 bins
        path = tmp_path / "ones.mask"
        save_mask(path, np.ones((257, 14)))
        argv = ["estimate", "--input", str(broadside_wav), "--method", method]
        assert main(argv + ["--mask", f"{prefix}{path}"]) == 0
        assert json.loads(capsys.readouterr().out)["picked_doa_deg"] == 90.0

    def test_mask_spec_is_not_read_as_a_file_of_that_name(self, broadside_wav, tmp_path, capsys, monkeypatch):
        argv = ["estimate", "--input", str(broadside_wav), "--direct", str(broadside_wav), "--mask", "oracle-psm"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        monkeypatch.chdir(tmp_path)
        (tmp_path / "oracle-psm").write_text("not a mask file")
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("method", ["srp-p", "srp-mp", "music"])
    def test_mask_file_shape_mismatch_is_usage_error(self, broadside_wav, tmp_path, capsys, method):
        path = tmp_path / "small.mask"
        save_mask(path, np.ones((100, 7)))
        argv = ["estimate", "--input", str(broadside_wav), "--method", method, "--mask", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err and "100 x 7" in err and "257 x 14" in err

    @pytest.mark.parametrize(
        "mask", ["oracle-ratio-bin:0.5", "oracle-psm-bin:0.3", "random-band:100", "band-range:20:200"]
    )
    @pytest.mark.parametrize("method", ["srp-mp", "music"])
    def test_eval_mask_kinds(self, broadside_wav, capsys, mask, method):
        argv = ["estimate", "--input", str(broadside_wav), "--method", method, "--mask", mask]
        # the broadside signal is its own direct path
        assert main(argv + ["--direct", str(broadside_wav)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["picked_doa_deg"] == 90.0
        assert payload["mask"] == mask

    def test_bad_band_range_is_usage_error(self, broadside_wav, capsys):
        argv = ["estimate", "--input", str(broadside_wav), "--mask", "band-range:200:20"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("method", ["srp-p", "srp-mp"])
    def test_max_freq_limits_sps_per_frame(self, tmp_path, capsys, method):
        # low band from 60 deg, a wider high band from 120 deg: only the
        # limit decides which one the summed per-frame spectrum points at
        geom = ArrayGeometry.uniform(4, 0.08)
        low = scipy.signal.butter(8, 1500.0, "lowpass", fs=FS, output="sos")
        high = scipy.signal.butter(8, 3000.0, "highpass", fs=FS, output="sos")
        parts = []
        for sos, doa, seed in ((low, 60.0, 1), (high, 120.0, 2)):
            band = scipy.signal.sosfilt(sos, white_noise(1, 8000, seed=seed).samples[0])
            parts.append(plane_wave_synthesize(TimeSignal(band[None, :], FS), doa, geom).samples)
        path = tmp_path / "two_band.wav"
        write_wav(path, TimeSignal(parts[0] + parts[1], FS))
        picks = {}
        for limit in ([], ["--max-freq-hz", "2000"]):
            assert main(["estimate", "--input", str(path), "--method", method, *limit]) == 0
            payload = json.loads(capsys.readouterr().out)
            summed = np.sum(payload["sps_per_frame"], axis=0)
            assert payload["grid_deg"][int(np.argmax(summed))] == payload["picked_doa_deg"]
            picks[bool(limit)] = payload["picked_doa_deg"]
        assert picks == {False: 120.0, True: 60.0}


class TestSimulate:
    def test_writes_bundle_per_scene(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "scenes"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        wavs = sorted(p.name for p in out_dir.glob("*.wav") if ".direct." not in p.name)
        directs = sorted(out_dir.glob("*.direct.wav"))
        sidecars = sorted(out_dir.glob("*.truth.json"))
        assert len(wavs) == len(directs) == len(sidecars) == 6

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", doas=[60.0], seeds_per_doa=1)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(b)]) == 0
        for pa in sorted(a.iterdir()):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_sidecar_records_truth(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", doas=[60.0], seeds_per_doa=1)
        out_dir = tmp_path / "scenes"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        payload = json.loads(next(out_dir.glob("*.truth.json")).read_text())
        assert payload["spec"]["sources"][0]["doa_deg"] == 60.0
        assert payload["doas_deg"] == [60.0]

    def test_integer_doa_written_as_float(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", doas=[60], seeds_per_doa=1)
        out_dir = tmp_path / "scenes"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        payload = json.loads(next(out_dir.glob("*.truth.json")).read_text())
        assert payload["doas_deg"] == [60.0] and isinstance(payload["doas_deg"][0], float)

    def test_bad_room_is_usage_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", rooms=[[6.0, -5.0, 2.7]])
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "no.json"), "--out-dir", "x"]) == 1
        assert "config file not found" in capsys.readouterr().err


class TestEval:
    def test_end_to_end_outputs(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", doas=[60.0, 120.0], seeds_per_doa=1)
        out_dir = tmp_path / "results"
        assert main(["eval", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["srp-p|none"]["count"] == 2
        assert report["srp-p|none"]["mae_deg"] == 0.0
        lines = (out_dir / "records.csv").read_text().splitlines()
        assert lines[0].startswith("scene_id,method,mask")
        assert len(lines) == 3

    def test_method_override(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json", doas=[90.0], seeds_per_doa=1, masks=["none", "oracle-psm"]
        )
        out_dir = tmp_path / "results"
        assert main([
            "eval", "--config", str(cfg), "--out-dir", str(out_dir),
            "--methods", "srp-p,srp-mp",
        ]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert "srp-mp|oracle-psm" in report

    def test_vthr_sweep_adds_binarized_masks(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", doas=[90.0], seeds_per_doa=1,
                            methods=["srp-mp"])
        out_dir = tmp_path / "results"
        assert main([
            "eval", "--config", str(cfg), "--out-dir", str(out_dir),
            "--vthr-sweep", "0.2:0.4:0.1",
        ]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        for key in ("srp-mp|oracle-ratio-bin:0.20", "srp-mp|oracle-ratio-bin:0.30",
                    "srp-mp|oracle-ratio-bin:0.40"):
            assert key in report

    def test_vthr_sweep_stops_at_hi(self, tmp_path):
        """A sweep whose HI is off the LO + k STEP lattice names no threshold above HI."""
        cfg = _write_config(tmp_path / "cfg.json", doas=[90.0], seeds_per_doa=1, methods=["srp-mp"])
        out_dir = tmp_path / "results"
        assert main(["eval", "--config", str(cfg), "--out-dir", str(out_dir), "--vthr-sweep", "0:0.05:0.03"]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert sorted(report) == ["srp-mp|none", "srp-mp|oracle-ratio-bin:0.00", "srp-mp|oracle-ratio-bin:0.03"]

    def test_config_mask_may_be_a_bare_file_path(self, tmp_path, monkeypatch):
        """A config mask that is no known kind but names a file is that mask file, as with --mask."""
        monkeypatch.chdir(tmp_path)
        # 8 frames of 257 bins, the scenes' spectrogram
        save_mask(tmp_path / "scene.mask", np.random.default_rng(0).uniform(size=(257, 8)))
        records = {}
        for out_dir, mask in (("bare", "scene.mask"), ("prefixed", "file:scene.mask")):
            cfg = _write_config(tmp_path / "cfg.json", seeds_per_doa=1, methods=["srp-p", "srp-mp", "music"], masks=[mask])
            assert main(["eval", "--config", str(cfg), "--out-dir", out_dir]) == 0
            with open(tmp_path / out_dir / "records.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 9 and all(row.pop("mask") == mask for row in rows)
            records[out_dir] = rows
        assert records["bare"] == records["prefixed"]

    def test_bad_sweep_is_usage_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json")
        code = main(["eval", "--config", str(cfg), "--out-dir", "x", "--vthr-sweep", "oops"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("eval_frames", 0),
            ("grid_size", 1),
            ("duration_frames", "12"),
            ("snr_db", [30.0, 10.0]),
            ("sir_db", [5.0, -5.0]),
        ],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = _write_config(tmp_path / "cfg.json", doas=[90.0], seeds_per_doa=1, **{key: value})
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err

    def test_bad_jobs_is_usage_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", doas=[90.0], seeds_per_doa=1)
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x"), "--jobs", "-3"]) == 1
        assert "'jobs'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_jobs, env_jobs, flag, code",
        [
            (-3, None, None, 1),  # the config's jobs applies without --jobs
            (-3, None, "1", 0),  # --jobs beats the config
            (1, "abc", None, 0),  # the config beats DOALAB_JOBS, which is not read
            (None, "0", None, 1),  # DOALAB_JOBS applies when neither is set
        ],
    )
    def test_jobs_precedence(self, tmp_path, capsys, monkeypatch, config_jobs, env_jobs, flag, code):
        extra = {} if config_jobs is None else {"jobs": config_jobs}
        cfg = _write_config(tmp_path / "cfg.json", doas=[90.0], seeds_per_doa=1, **extra)
        if env_jobs is None:
            monkeypatch.delenv("DOALAB_JOBS", raising=False)
        else:
            monkeypatch.setenv("DOALAB_JOBS", env_jobs)
        argv = ["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]
        assert main(argv + (["--jobs", flag] if flag else [])) == code
        if code:
            assert "'jobs'" in capsys.readouterr().err

    def test_malformed_doalab_jobs_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DOALAB_JOBS", "abc")
        cfg = _write_config(tmp_path / "cfg.json", doas=[90.0], seeds_per_doa=1)
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "DOALAB_JOBS" in err
        assert len(err.splitlines()) == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bogus" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"version": 2}, "version"),
            ({"methods": []}, "methods"),
            ({"methods": ["srp-x"]}, "srp-x"),
            ({"masks": []}, "masks"),
        ],
    )
    def test_bad_config_exits_1_with_one_error_line(self, tmp_path, capsys, overrides, message):
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "sweep, masks, message",
        [
            pytest.param(sweep, ["none"], sweep, id=sweep)
            # 0:0.01:0.004 would name 0.004 and 0.008 as 0.00 and 0.01; LO, HI and STEP are whole
            # hundredths, and the range check comes first, so inf and nan fail it rather than the rounding
            for sweep in (
                "0:0.9:0", "0.5:0.1:0.1", "0:2:0.5", "-0.1:0.5:0.1", "0:0.01:0.004",
                "0:1:1e-6", "0:0.5:0.005", "0:0:0.001", "0:inf:0.1", "nan:0.5:0.1",
            )
        ]
        + [
            pytest.param(
                "0.2:0.4:0.1", ["none", "oracle-ratio-bin:0.30"], "repeats 'oracle-ratio-bin:0.30'",
                id="repeats-a-config-mask",
            )
        ],
    )
    def test_bad_sweep_range_exits_1_before_simulating(self, tmp_path, capsys, monkeypatch, sweep, masks, message):
        calls = []
        monkeypatch.setattr(simulate, "mix_scene", lambda spec: calls.append(spec))
        cfg = _write_config(tmp_path / "cfg.json", doas=[90.0], seeds_per_doa=1, masks=masks)
        argv = ["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x"), f"--vthr-sweep={sweep}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1
        assert calls == []


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    return err


def _fmt_chunk(tag, bits, channels=1, rate=FS):
    width = bits // 8
    return b"fmt " + struct.pack("<IHHIIHH", 16, tag, channels, rate, rate * width * channels, width * channels, bits)


def _riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestExitCodes:
    """A ValueError anywhere means bad input and exits 1; I/O failures exit 2."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (["--input", "{text}"], 1),
            (["--input", "{wav}", "--method", "srp-mp", "--mask", "{zeros}"], 1),
            (["--input", "{wav}", "--method", "srp-mp", "--mask", "{short}"], 1),
            (["--input", "{wav}", "--method", "srp-mp", "--mask", "{huge}"], 1),
            (["--input", "{wav}", "--method", "srp-mp", "--mask", "{trailing}"], 1),
            (["--input", "{wav}", "--method", "srp-mp", "--mask", "{truncated}"], 1),
            (["--input", "{wav}", "--method", "srp-mp", "--mask", "{above_one}"], 1),
            (["--input", "{wav}", "--mask", "{above_one}"], 1),
            (["--input", "{wav}", "--method", "music", "--mask", "{nan}"], 1),
            (["--input", "{wav}", "--max-freq-hz", "-1"], 1),
            (["--input", "{wav}", "--max-freq-hz", "nan"], 1),
            (["--input", "{wav}", "--max-freq-hz", "0"], 1),
            (["--input", "{wav}", "--max-freq-hz", "10"], 1),
            (["--input", "{wav}", "--max-freq-hz", "inf"], 1),
            (["--input", "{wav}", "--speed-of-sound", "nan"], 1),
            (["--input", "{wav}", "--speed-of-sound", "inf"], 1),
            (["--input", "{wav}", "--mic-spacing", "inf"], 1),
            (["--input", "{wav}", "--mic-spacing", "nan"], 1),
            (["--input", "{missing}"], 2),
            (["--input", "{riff_truncated}"], 1),
            (["--input", "{data_first}"], 1),
            (["--input", "{pcm8}"], 1),
            (["--input", "{pcm24}"], 1),
            (["--input", "{fmt_short}"], 1),
            (["--input", "{no_data}"], 1),
        ],
        ids=[
            "input-not-wav", "all-zero-mask-file", "short-mask-header", "overflowing-mask-header",
            "mask-file-trailing-bytes", "truncated-mask-file", "mask-value-1.5", "mask-value-1.5-srp-p",
            "mask-value-nan", "negative-max-freq", "nan-max-freq", "zero-max-freq", "max-freq-below-first-bin",
            "infinite-max-freq",
            "nan-speed-of-sound", "infinite-speed-of-sound", "infinite-mic-spacing", "nan-mic-spacing",
            "missing-input", "truncated-riff-header",
            "data-chunk-before-fmt", "pcm-8-bit", "pcm-24-bit", "fmt-chunk-too-short", "no-data-chunk",
        ],
    )
    def test_estimate(self, broadside_wav, tmp_path, capsys, args, code):
        names = ("zeros", "short", "huge", "trailing", "truncated", "above_one", "nan")
        paths = {name: tmp_path / f"{name}.mask" for name in names}
        paths.update(wav=broadside_wav, text=tmp_path / "text.wav")
        paths["text"].write_text("not a WAV file")
        wav = broadside_wav.read_bytes()
        data = b"data" + struct.pack("<I", 8) + bytes(8)
        malformed = {
            "riff_truncated": wav[:30],
            "data_first": _riff(data, _fmt_chunk(3, 32)),
            "pcm8": _riff(_fmt_chunk(1, 8), data),
            "pcm24": _riff(_fmt_chunk(1, 24), data),
            "fmt_short": _riff(b"fmt " + struct.pack("<I", 14) + _fmt_chunk(3, 32)[8:22], data),
            "no_data": _riff(_fmt_chunk(3, 32)),
        }
        for name, raw in malformed.items():
            paths[name] = tmp_path / f"{name}.wav"
            paths[name].write_bytes(raw)
        save_mask(paths["zeros"], np.zeros((257, 14)))
        paths["short"].write_bytes(b"DOAMASK1\x01")
        # a header of K = N = 2^32 - 1 with no payload
        paths["huge"].write_bytes(b"DOAMASK1" + b"\xff" * 8)
        save_mask(paths["trailing"], np.ones((257, 14)))
        with open(paths["trailing"], "ab") as fh:
            fh.write(np.ones(5, dtype="<f4").tobytes())
        save_mask(paths["truncated"], np.ones((257, 14)))
        paths["truncated"].write_bytes(paths["truncated"].read_bytes()[:-4])
        for name, value in (("above_one", 1.5), ("nan", np.nan)):
            mask = np.ones((257, 14))
            mask[40, 3] = value
            save_mask(paths[name], mask)
        argv = [arg.format(missing=tmp_path / "nope.wav", **paths) for arg in args]
        assert main(["estimate", *argv]) == code
        err = _one_error_line(capsys)
        if code == 1 and argv[1] != str(broadside_wav):
            assert argv[1] in err, "a malformed input must be named"
        named = {"--max-freq-hz": "max_freq_hz", "--speed-of-sound": "speed_of_sound", "--mic-spacing": "spacing"}
        for flag, name in named.items():
            assert flag not in argv or name in err, f"a rejected {flag} must be named"

    @pytest.mark.parametrize(
        "overrides, simulated",
        [
            ({"t60": [-0.1]}, 0),
            ({"smd": [0]}, 0),
            ({"doas": [200]}, 0),
            ({"geometry": {"num_mics": 1, "mic_spacing_m": 0.08}}, 0),
            ({"master_seed": -1}, 0),
            ({"max_freq_hz": -5}, 0),
            ({"stft": {"window_length": 511, "hop": 256}}, 0),
            ({"methods": ["music"], "num_sources_music": 4}, 1),
            ({"masks": ["nope"]}, 0),
            ({"rooms": [[1.0, 1.0, 1.0]]}, 0),
            ({"methods": ["music"], "eval_frames": 1}, 1),
            ({"source": 5}, 0),
            ({"interferer": 3, "sir_db": 0}, 0),
            ({"doas": [10, 10]}, 0),
            ({"t60": [0.301, 0.304]}, 0),
            ({"snr_db": float("-inf")}, 0),
            ({"snr_db": [0, float("inf")]}, 0),
            ({"sir_db": float("-inf")}, 0),
            ({"sir_db": float("inf")}, 0),
            ({"rooms": []}, 0),
            ({"t60": []}, 0),
            ({"smd": []}, 0),
            ({"doas": []}, 0),
            ({"max_freq_hz": 10}, 0),
            ({"stft": {"window_length": "x"}}, 0),
            ({"stft": {"window_length": 512.0}}, 0),
            ({"stft": {"hop": "x"}}, 0),
            ({"stft": {"hop": 1.5}}, 0),
            ({"geometry": {"mic_spacing_m": "x"}}, 0),
            ({"geometry": {"mic_spacing_m": None}}, 0),
            ({"geometry": {"num_mics": 2.5}}, 0),
            ({"smd": [0.12], "doas": [0]}, 1),
            ({"smd": [0.12], "doas": [180]}, 1),
            ({"psacc_threshold_deg": INF}, 0),
            ({"max_freq_hz": INF}, 0),
            *[(overrides, 0) for overrides, _ in UNUSABLE_NUMBERS.values()],
            ({"source": "harmonic"}, 0),
            ({"interferer": "no-such-file.wav", "sir_db": 0.0}, 0),
        ],
        ids=[
            "t60", "smd", "doas", "num_mics", "master_seed", "max_freq_hz",
            "window_length", "num_sources_music", "mask", "room", "music-eval_frames",
            "source", "interferer", "repeated-doa", "t60-equal-in-2-decimals",
            "snr_db-minus-infinity", "snr_db-range-to-infinity", "sir_db-minus-infinity", "sir_db-infinity",
            "empty-rooms", "empty-t60", "empty-smd", "empty-doas", "max_freq_hz-below-first-bin",
            "window_length-string", "window_length-float", "hop-string", "hop-float",
            "mic_spacing_m-string", "mic_spacing_m-null", "num_mics-float",
            "source-on-microphone-1", "source-on-microphone-4",
            "psacc_threshold_deg-infinity", "max_freq_hz-infinity", *UNUSABLE_NUMBERS,
            "source-harmonic", "interferer-missing-file",
        ],
    )
    def test_eval_config_value(self, tmp_path, capsys, monkeypatch, overrides, simulated):
        """Bad values exit 1 before any scene is simulated, or at the first scene."""
        calls = []

        def mix_scene(spec, real=simulate.mix_scene):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(simulate, "mix_scene", mix_scene)
        cfg = _write_config(tmp_path / "cfg.json", **{"doas": [90.0], "seeds_per_doa": 1, **overrides})
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        _one_error_line(capsys)
        assert len(calls) == simulated

    def test_non_string_mask_in_config_is_named(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", masks=[1])
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert "a mask spec must be a string" in _one_error_line(capsys)

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_repeated_scene_id_is_named(self, tmp_path, capsys, monkeypatch, command):
        """Two scenes with one id exit 1 naming it, before any scene is simulated or written."""
        calls = []
        monkeypatch.setattr(simulate, "mix_scene", lambda spec: calls.append(spec))
        cfg = _write_config(tmp_path / "cfg.json", doas=[10.0, 90.0, 10.0], seeds_per_doa=1)
        assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert "'r0_t0.00_s1.50_d010.000_k0'" in _one_error_line(capsys)
        assert calls == [] and not any((tmp_path / "x").glob("*"))

    @pytest.mark.parametrize("command, method", [("eval", "music"), ("eval", "srp-p"), ("simulate", "music")])
    def test_silent_first_source_exits_1(self, tmp_path, capsys, command, method):
        """A 64-tap response ends before the direct path of a source 1.5 m away arrives:
        the scene would hold no signal, and no pick or WAV is written for it."""
        cfg = _write_config(
            tmp_path / "cfg.json", t60=[0.3], doas=[40.0], seeds_per_doa=1, sir_db=None, rir_length_s=0.004,
            duration_frames=20, eval_frames=10, methods=[method], masks=["none", "band-range:20:150"],
        )
        assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert _one_error_line(capsys) == "error: zero-energy source\n"
        assert not any((tmp_path / "x").glob("*"))

    def test_room_below_the_wall_margin_simulates_nothing(self, tmp_path, capsys, monkeypatch):
        """A room too small for the wall margin exits 1 naming it, before any scene or --out-dir is made."""
        calls = []
        monkeypatch.setattr(simulate, "mix_scene", lambda spec: calls.append(spec))
        cfg = _write_config(tmp_path / "cfg.json", rooms=[[6.0, 5.0, 2.7], [1.5, 5.0, 2.7]])
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert "room too small for the 1.0 m wall margin" in _one_error_line(capsys)
        assert calls == [] and not (tmp_path / "x").exists()

    def test_rejected_simulate_config_makes_no_directory(self, tmp_path, capsys):
        """A config whose scenes cannot be built exits 1 before --out-dir is created."""
        cfg = _write_config(tmp_path / "cfg.json", doas=[10, 10], seeds_per_doa=1)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert "'r0_t0.00_s1.50_d010.000_k0'" in _one_error_line(capsys)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("rate", [16000.5, 2**32])
    def test_rate_no_wav_can_hold_simulates_nothing(self, tmp_path, capsys, monkeypatch, rate):
        """A WAV header holds a whole number of Hz in 32 bits: any other rate exits 1 naming it,
        before any scene or --out-dir is made, so no truth.json disagrees with its WAVs."""
        calls = []
        monkeypatch.setattr(simulate, "mix_scene", lambda spec: calls.append(spec))
        cfg = _write_config(tmp_path / "cfg.json", sample_rate=rate)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert f"got sample rate {rate!r}" in _one_error_line(capsys)
        assert calls == [] and not (tmp_path / "x").exists()

    def test_eval_takes_a_rate_no_wav_can_hold(self, tmp_path):
        """``eval`` writes no WAV, so a rate of 16000.5 Hz is valid there."""
        cfg = _write_config(tmp_path / "cfg.json", sample_rate=16000.5, doas=[90.0], seeds_per_doa=1)
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 0
        assert (tmp_path / "x" / "records.csv").exists()

    @pytest.mark.parametrize("key", ["rooms", "t60", "smd", "doas"])
    def test_empty_scene_grid_simulates_nothing(self, tmp_path, capsys, key):
        """An empty grid list exits 1 naming its key, before --out-dir is created."""
        cfg = _write_config(tmp_path / "cfg.json", **{key: []})
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert repr(key) in _one_error_line(capsys)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "overrides, name",
        [*UNUSABLE_NUMBERS.values(), *UNUSABLE_SCENE_VALUES.values()],
        ids=[*UNUSABLE_NUMBERS, *UNUSABLE_SCENE_VALUES],
    )
    def test_unusable_number_simulates_nothing(self, tmp_path, capsys, monkeypatch, overrides, name):
        """A non-finite value, an unbounded level or a value no scene can use exits 1 naming it,
        before any scene or --out-dir is made."""
        calls = []
        monkeypatch.setattr(simulate, "mix_scene", lambda spec: calls.append(spec))
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert name in _one_error_line(capsys)
        assert calls == [] and not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "spec",
        [
            "oracle-psm:0.5",
            "oracle-ratio:junk",
            "none:1",
            "ones",
            "random-band:abc",
            "random-band:-3",
            "band-range:1",
            "band-range:9:3",
            "oracle-psm-bin:1.5",
            "oracle-ratio-bin",
            "file:",
        ],
    )
    def test_malformed_mask_spec(self, broadside_wav, tmp_path, capsys, monkeypatch, spec):
        """A malformed mask spec exits 1 naming it, in eval before any scene is simulated."""
        argv = ["estimate", "--input", str(broadside_wav), "--direct", str(broadside_wav), "--mask", spec]
        assert main(argv) == 1
        assert repr(spec) in _one_error_line(capsys)
        calls = []
        monkeypatch.setattr(simulate, "mix_scene", lambda scene: calls.append(scene))
        cfg = _write_config(tmp_path / "cfg.json", doas=[90.0], seeds_per_doa=1, masks=[spec])
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert repr(spec) in _one_error_line(capsys)
        assert calls == []

    @pytest.mark.parametrize(
        "key, value", [("sample_rate", "x"), ("rir_length_s", 0), ("rir_length_s", "x"), ("rir_length_s", -1)]
    )
    def test_scene_value_names_its_key(self, tmp_path, capsys, monkeypatch, key, value):
        """Values only a scene checks still exit 1 before any scene is simulated."""
        calls = []
        monkeypatch.setattr(simulate, "mix_scene", lambda spec: calls.append(spec))
        cfg = _write_config(tmp_path / "cfg.json", doas=[90.0], seeds_per_doa=1, **{key: value})
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert key in _one_error_line(capsys)
        assert calls == []

    @pytest.mark.parametrize("flags", [[], ["--methods", "srp-p"], ["--vthr-sweep", "0:0.5:0.1"]])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, monkeypatch, flags):
        calls = []
        monkeypatch.setattr(simulate, "mix_scene", lambda spec: calls.append(spec))
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x"), *flags]) == 1
        assert "JSON object" in _one_error_line(capsys)
        assert calls == []

    def test_malformed_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"t60": [0.3],')
        assert main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        _one_error_line(capsys)
