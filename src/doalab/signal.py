"""Time-domain signal containers and the STFT analysis front end.

All estimators in the package consume the one-sided multichannel STFT
produced here. The default analysis setup is a periodic Hann window of
32 ms with a 16 ms hop at 16 kHz, which gives 257 frequency bins. Frames
are taken without centering or padding: frame ``n`` covers samples
``[n * hop, n * hop + window_length)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.io.wavfile
import scipy.signal

DEFAULT_SAMPLE_RATE = 16_000
DEFAULT_WINDOW_LENGTH = 512
DEFAULT_HOP = 256


@dataclass(frozen=True)
class TimeSignal:
    """Multichannel time-domain signal, shape (channels, length)."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 2:
            raise ValueError("samples must be a channels x length matrix")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class MultichannelSpectrogram:
    """Complex one-sided STFT, shape (channels Q, bins K, frames N)."""

    bins: np.ndarray
    sample_rate: float
    hop: int
    window_length: int

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        object.__setattr__(self, "bins", bins)
        if bins.ndim != 3:
            raise ValueError("bins must be a Q x K x N tensor")
        q, k, n = bins.shape
        if q < 1 or n < 1:
            raise ValueError("need at least one channel and one frame")
        if k != self.window_length // 2 + 1:
            raise ValueError("K must equal window_length / 2 + 1")
        if not np.all(np.isfinite(bins)):
            raise ValueError("bins must be finite")

    @property
    def num_channels(self) -> int:
        return self.bins.shape[0]

    @property
    def num_bins(self) -> int:
        return self.bins.shape[1]

    @property
    def num_frames(self) -> int:
        return self.bins.shape[2]

    def bin_frequency(self, k) -> np.ndarray:
        """Physical frequency of bin k: k * sample_rate / window_length."""
        return np.asarray(k) * self.sample_rate / self.window_length


def analysis_window(name: str, window_length: int) -> np.ndarray:
    """Tapering window by name ('hann' is periodic, suited for 50% overlap)."""
    if name in ("rect", "rectangular", "boxcar"):
        return np.ones(window_length)
    return scipy.signal.get_window(name, window_length, fftbins=True)


def stft(
    signal: TimeSignal,
    window_length: int = DEFAULT_WINDOW_LENGTH,
    hop: int = DEFAULT_HOP,
    window: str = "hann",
) -> MultichannelSpectrogram:
    """Short-time Fourier transform of all channels.

    Parameters
    ----------
    signal : TimeSignal
        Input signal; must contain at least one full window of samples.
    window_length : int
        Analysis window length in samples, must be even.
    hop : int
        Frame advance in samples, at most ``window_length``.
    window : str
        Tapering window name; 'hann' or 'rect' cover the package defaults.

    Returns
    -------
    MultichannelSpectrogram
        One-sided spectrum with K = window_length / 2 + 1 bins.
    """
    if window_length % 2 != 0:
        raise ValueError("window_length must be even")
    if hop <= 0 or hop > window_length:
        raise ValueError("hop must be in (0, window_length]")
    if signal.num_samples < window_length:
        raise ValueError("insufficient samples: signal shorter than one window")
    win = analysis_window(window, window_length)
    num_frames = 1 + (signal.num_samples - window_length) // hop
    starts = np.arange(num_frames) * hop
    # frames: (Q, N, window_length)
    idx = starts[:, None] + np.arange(window_length)[None, :]
    frames = signal.samples[:, idx] * win
    bins = np.fft.rfft(frames, axis=-1)  # (Q, N, K)
    return MultichannelSpectrogram(
        bins=np.transpose(bins, (0, 2, 1)),
        sample_rate=signal.sample_rate,
        hop=hop,
        window_length=window_length,
    )


def istft(spec: MultichannelSpectrogram, window: str = "hann") -> TimeSignal:
    """Inverse STFT via weighted overlap-add.

    Uses the analysis window as synthesis window and divides by the
    accumulated squared window, which reconstructs the interior samples of
    the original signal exactly for any window/hop pair whose squared
    window sum stays positive over the interior. Edge samples where the
    window sum vanishes are returned as zero.
    """
    win = analysis_window(window, spec.window_length)
    q, k, n = spec.bins.shape
    length = (n - 1) * spec.hop + spec.window_length
    frames = np.fft.irfft(np.transpose(spec.bins, (0, 2, 1)), n=spec.window_length, axis=-1)
    out = np.zeros((q, length))
    norm = np.zeros(length)
    for m in range(n):
        lo = m * spec.hop
        hi = lo + spec.window_length
        out[:, lo:hi] += frames[:, m, :] * win
        norm[lo:hi] += win**2
    tiny = 1e-10 * max(norm.max(), 1.0)
    interior = slice(spec.window_length, length - spec.window_length)
    if length > 2 * spec.window_length and np.any(norm[interior] < 1e-3 * norm.max()):
        raise ValueError("window/hop pair does not permit reconstruction")
    nz = norm > tiny
    out[:, nz] /= norm[nz]
    out[:, ~nz] = 0.0
    return TimeSignal(samples=out, sample_rate=spec.sample_rate)


def read_wav(path, expected_rate: float | None = None) -> TimeSignal:
    """Read a PCM16 or float32 WAV file as (channels, length).

    Resampling is out of scope: a rate mismatch raises.
    """
    rate, data = scipy.io.wavfile.read(path)
    if expected_rate is not None and rate != expected_rate:
        raise ValueError(f"sample rate mismatch: file has {rate} Hz, expected {expected_rate} Hz")
    if data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    else:
        data = data.astype(np.float64)
    if data.ndim == 1:
        data = data[None, :]
    else:
        data = data.T
    return TimeSignal(samples=data, sample_rate=float(rate))


def write_wav(path, signal: TimeSignal, pcm16: bool = False) -> None:
    """Write a TimeSignal as float32 (default) or PCM16 WAV."""
    data = signal.samples.T
    if pcm16:
        data = np.clip(np.round(data * 32767.0), -32768, 32767).astype(np.int16)
    else:
        data = data.astype(np.float32)
    scipy.io.wavfile.write(path, int(signal.sample_rate), data)
