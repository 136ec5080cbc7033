"""STFT front end: analysis parameters, Hann-window oracles, WAV round trips."""

import numpy as np
import pytest

from doalab.signal import MultichannelSpectrogram, TimeSignal, analysis_window, read_wav, stft, write_wav

FS = 16000


def _tone(freq, length, fs=FS, channels=1):
    t = np.arange(length) / fs
    return TimeSignal(np.tile(np.sin(2 * np.pi * freq * t), (channels, 1)), fs)


class TestStft:
    def test_default_parameters_give_257_bins(self):
        sig = TimeSignal(np.random.default_rng(0).standard_normal((1, FS)), FS)
        spec = stft(sig, 512, 256)
        assert spec.num_bins == 257
        assert spec.num_frames == 1 + (FS - 512) // 256

    def test_dc_input_energy_in_bin_zero(self):
        # the periodic Hann window sums to L / 2, and its DFT is L / 2 at bin 0,
        # -L / 4 at bin 1 and zero above
        sig = TimeSignal(np.full((1, 4096), 0.7), FS)
        mags = np.abs(stft(sig, 512, 256).bins[0])
        np.testing.assert_allclose(mags[0], 0.7 * 256, rtol=1e-12)
        np.testing.assert_allclose(mags[1], 0.7 * 128, rtol=1e-12)
        assert np.all(mags[2:] < 1e-12 * mags[0].max())

    def test_bin10_sinusoid_peaks_at_bin10(self):
        # a tone on bin 10 spreads over bins 9-11 in the Hann pattern 1/2, 1, 1/2
        freq = 10 * FS / 512
        mags = np.abs(stft(_tone(freq, 4096), 512, 256).bins[0])
        assert np.all(np.argmax(mags, axis=0) == 10)
        np.testing.assert_allclose(mags[10], 128.0, rtol=1e-9)
        np.testing.assert_allclose(mags[[9, 11]], 64.0, rtol=1e-9)
        assert np.all(np.delete(mags, [9, 10, 11], axis=0) < 1e-9 * mags[10].max())

    def test_frame_covers_hop_aligned_window(self):
        # frame n must equal the Hann-windowed rfft of samples [n*hop, n*hop + wl)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2048))
        spec = stft(TimeSignal(x, FS), 512, 256)
        expected = np.fft.rfft(x[0, 2 * 256 : 2 * 256 + 512] * analysis_window(512))
        np.testing.assert_allclose(spec.bins[0, :, 2], expected, rtol=1e-12)

    def test_frames_match_the_index_gather(self):
        # the strided frames give the same bits as gathering each frame's samples by index
        rng = np.random.default_rng(4)
        for length, window_length, hop in [(512, 512, 512), (1536, 512, 512), (1537, 512, 512), (1000, 64, 64)] + [
            (int(rng.integers(256, 5000)), 256, int(rng.integers(1, 257))) for _ in range(20)
        ]:
            x = rng.standard_normal((3, length))
            num_frames = 1 + (length - window_length) // hop
            idx = (np.arange(num_frames) * hop)[:, None] + np.arange(window_length)
            expected = np.fft.rfft(x[:, idx] * analysis_window(window_length), axis=-1).transpose(0, 2, 1)
            assert np.array_equal(stft(TimeSignal(x, FS), window_length, hop).bins, expected), (length, hop)

    def test_too_short_signal_raises(self):
        with pytest.raises(ValueError, match="insufficient samples"):
            stft(TimeSignal(np.zeros((1, 100)), FS), 512, 256)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = TimeSignal(rng.standard_normal((2, 2000)), FS)
        y = TimeSignal(rng.standard_normal((2, 2000)), FS)
        mix = TimeSignal(2.0 * x.samples - 0.5 * y.samples, FS)
        lhs = stft(mix, 512, 256).bins
        rhs = 2.0 * stft(x, 512, 256).bins - 0.5 * stft(y, 512, 256).bins
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(512)
        spec = stft(TimeSignal(x[None, :], FS), 512, 512)
        windowed = x * analysis_window(512)
        time_energy = np.sum(windowed**2)
        mags = np.abs(spec.bins[0, :, 0]) ** 2
        # one-sided spectrum of a real signal: double all interior bins
        spec_energy = (mags[0] + mags[-1] + 2.0 * mags[1:-1].sum()) / 512
        np.testing.assert_allclose(time_energy, spec_energy, rtol=1e-6)


class TestWav:
    def test_float32_round_trip(self, tmp_path):
        sig = TimeSignal(np.random.default_rng(7).uniform(-0.9, 0.9, (2, 1000)), FS)
        path = tmp_path / "x.wav"
        write_wav(path, sig)
        back = read_wav(path)
        assert back.sample_rate == FS
        np.testing.assert_allclose(back.samples, sig.samples, atol=1e-6)

    def test_whole_float_rate_round_trips(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, TimeSignal(np.zeros((2, 100)), 44100.0))
        assert read_wav(path).sample_rate == 44100.0

    @pytest.mark.parametrize("rate", [16000.5, 2**32, 2**30])
    def test_rate_the_header_cannot_hold_raises(self, tmp_path, rate):
        """The rate field is a whole number of Hz, and the byte rate ``rate * 4 * channels``
        fits 32 bits too: 2**30 Hz overflows it at one channel."""
        with pytest.raises(ValueError, match=f"got sample rate {rate!r}"):
            write_wav(tmp_path / "x.wav", TimeSignal(np.zeros((1, 100)), rate))
        assert not (tmp_path / "x.wav").exists()

    def test_rate_mismatch_raises(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, TimeSignal(np.zeros((1, 100)), 8000))
        with pytest.raises(ValueError, match="sample rate mismatch"):
            read_wav(path, expected_rate=FS)


class TestValidation:
    def test_non_finite_samples_rejected(self):
        with pytest.raises(ValueError):
            TimeSignal(np.array([[0.0, np.nan]]), FS)

    def test_bad_bin_count_rejected(self):
        with pytest.raises(ValueError):
            MultichannelSpectrogram(np.zeros((1, 256, 2), dtype=complex), FS, 512)

    def test_samples_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="channels x length"):
            TimeSignal(np.zeros((1, 2, 3)), FS)

    @pytest.mark.parametrize(
        "bins, message",
        [
            (np.zeros((257, 2)), "Q x K x N"),
            (np.zeros((1, 1, 257, 2)), "Q x K x N"),
            (np.zeros((1, 257, 0)), "one frame"),
            (np.zeros((0, 257, 2)), "one channel"),
            (np.full((1, 257, 2), np.nan), "finite"),
            (np.full((1, 257, 2), complex(0.0, np.inf)), "finite"),
        ],
        ids=["2-d", "4-d", "no-frames", "no-channels", "nan-bins", "infinite-bins"],
    )
    def test_malformed_bins_rejected(self, bins, message):
        with pytest.raises(ValueError, match=message):
            MultichannelSpectrogram(bins, FS, 512)

    def test_odd_window_rejected(self):
        with pytest.raises(ValueError):
            stft(TimeSignal(np.zeros((1, 1000)), FS), 511, 256)

    @pytest.mark.parametrize("rate", [0, -5.0, np.nan, np.inf, -np.inf, True, "16000", 10**400])
    def test_sample_rate_must_be_a_finite_number_above_0(self, rate):
        with pytest.raises(ValueError, match="sample_rate"):
            TimeSignal(np.zeros((1, 4)), rate)
        with pytest.raises(ValueError, match="sample_rate"):
            MultichannelSpectrogram(np.zeros((1, 257, 2), dtype=complex), rate, 512)

    @pytest.mark.parametrize("window_length", [511, 0, -2, 512.0, True, np.int64(7), "512", None])
    def test_window_length_must_be_an_even_integer(self, window_length):
        with pytest.raises(ValueError, match="window_length must be an even integer >= 2"):
            stft(TimeSignal(np.zeros((1, 1000)), FS), window_length, 1)

    @pytest.mark.parametrize("hop", [0, 513, 1.5, 256.0, True, np.nan, "256"])
    def test_hop_must_be_an_integer_up_to_the_window(self, hop):
        with pytest.raises(ValueError, match="hop"):
            stft(TimeSignal(np.zeros((1, 1000)), FS), 512, hop)

    def test_boundary_rates_and_hops_accepted(self):
        assert stft(TimeSignal(np.zeros((1, 1000)), 1e-300), 512, np.int64(512)).num_frames == 1
        assert stft(TimeSignal(np.zeros((1, 4)), FS), np.int64(2), 2).num_frames == 2
        assert MultichannelSpectrogram(np.zeros((1, 257, 2), dtype=complex), np.float32(8000), 512).sample_rate == 8000
