"""STFT front end: analysis parameters, inversion, WAV round trips."""

import numpy as np
import pytest

from doalab.signal import MultichannelSpectrogram, TimeSignal, analysis_window, istft, read_wav, stft, write_wav

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
        sig = TimeSignal(np.full((1, 4096), 0.7), FS)
        spec = stft(sig, 512, 256, window="rect")
        mags = np.abs(spec.bins[0])
        assert np.all(mags[0] > 1.0)
        assert np.all(mags[1:] < 1e-9 * mags[0].max())

    def test_bin10_sinusoid_rectangular_window_peaks_at_bin10(self):
        freq = 10 * FS / 512  # exactly bin 10
        spec = stft(_tone(freq, 4096), 512, 256, window="rect")
        mags = np.abs(spec.bins[0])
        assert np.all(np.argmax(mags, axis=0) == 10)

    def test_frame_covers_hop_aligned_window(self):
        # frame n must equal the windowed rfft of samples [n*hop, n*hop + wl)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2048))
        spec = stft(TimeSignal(x, FS), 512, 256, window="rect")
        expected = np.fft.rfft(x[0, 2 * 256 : 2 * 256 + 512])
        np.testing.assert_allclose(spec.bins[0, :, 2], expected, rtol=1e-12)

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
        spec = stft(TimeSignal(x[None, :], FS), 512, 512, window="hann")
        windowed = x * analysis_window("hann", 512)
        time_energy = np.sum(windowed**2)
        mags = np.abs(spec.bins[0, :, 0]) ** 2
        # one-sided spectrum of a real signal: double all interior bins
        spec_energy = (mags[0] + mags[-1] + 2.0 * mags[1:-1].sum()) / 512
        np.testing.assert_allclose(time_energy, spec_energy, rtol=1e-6)


class TestIstft:
    def test_round_trip_interior(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 4096))
        rec = istft(stft(TimeSignal(x, FS), 512, 256))
        interior = slice(512, 4096 - 512)
        np.testing.assert_allclose(rec.samples[:, interior], x[:, interior], rtol=1e-6, atol=1e-9)

    def test_zero_spectrogram_gives_zero_signal(self):
        spec = MultichannelSpectrogram(np.zeros((1, 257, 4), dtype=complex), FS, 256, 512)
        assert not np.any(istft(spec).samples)

    def test_single_frame_inverse_dft_oracle(self):
        # with a rectangular window, a one-frame istft is the plain inverse rDFT
        rng = np.random.default_rng(5)
        bins = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        bins[0] = bins[0].real
        bins[-1] = bins[-1].real
        spec = MultichannelSpectrogram(bins[None, :, None], FS, 256, 512)
        rec = istft(spec, window="rect")
        np.testing.assert_allclose(rec.samples[0], np.fft.irfft(bins, 512), rtol=1e-9, atol=1e-12)

    def test_non_reconstructing_pair_raises(self):
        # hop == window with a hann window leaves zero-weight gaps
        sig = TimeSignal(np.random.default_rng(6).standard_normal((1, 4096)), FS)
        spec = stft(sig, 512, 512, window="hann")
        with pytest.raises(ValueError):
            istft(spec, window="hann")


class TestWav:
    def test_float32_round_trip(self, tmp_path):
        sig = TimeSignal(np.random.default_rng(7).uniform(-0.9, 0.9, (2, 1000)), FS)
        path = tmp_path / "x.wav"
        write_wav(path, sig)
        back = read_wav(path)
        assert back.sample_rate == FS
        np.testing.assert_allclose(back.samples, sig.samples, atol=1e-6)

    def test_pcm16_round_trip(self, tmp_path):
        sig = TimeSignal(np.random.default_rng(8).uniform(-0.9, 0.9, (1, 1000)), FS)
        path = tmp_path / "x.wav"
        write_wav(path, sig, pcm16=True)
        np.testing.assert_allclose(read_wav(path).samples, sig.samples, atol=1e-4)

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
            MultichannelSpectrogram(np.zeros((1, 256, 2), dtype=complex), FS, 256, 512)

    @pytest.mark.parametrize("name", ["hamming", "blackman", "Hann", ""])
    def test_unknown_window_rejected(self, name):
        sig = TimeSignal(np.zeros((1, 1000)), FS)
        with pytest.raises(ValueError, match="expected one of hann, rect, rectangular, boxcar"):
            stft(sig, 512, 256, window=name)

    @pytest.mark.parametrize("name", ["rect", "rectangular", "boxcar"])
    def test_rectangular_aliases(self, name):
        np.testing.assert_array_equal(analysis_window(name, 16), np.ones(16))

    def test_odd_window_rejected(self):
        with pytest.raises(ValueError):
            stft(TimeSignal(np.zeros((1, 1000)), FS), 511, 256)
