"""Time-domain signal containers and the STFT analysis front end.

All estimators in the package consume the one-sided multichannel STFT
produced here. The default analysis setup is a periodic Hann window of
32 ms with a 16 ms hop at 16 kHz, which gives 257 frequency bins. Frames
are taken without centering or padding: frame ``n`` covers samples
``[n * hop, n * hop + window_length)``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

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


WINDOWS = ("hann", "rect", "rectangular", "boxcar")


def analysis_window(name: str, window_length: int) -> np.ndarray:
    """Tapering window by name: periodic 'hann' (suited for 50% overlap) or 'rect'.

    'rectangular' and 'boxcar' are aliases of 'rect'; any other name raises.
    """
    if name == "hann":
        return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, window_length + 1))[:-1]
    if name in WINDOWS:
        return np.ones(window_length)
    raise ValueError(f"unknown window {name!r}, expected one of {', '.join(WINDOWS)}")


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


# (format tag, bits per sample) -> sample dtype; tag 1 is PCM, 3 is IEEE float
_WAV_DTYPES = {(1, 16): "<i2", (1, 32): "<i4", (3, 32): "<f4", (3, 64): "<f8"}
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def read_wav(path, expected_rate: float | None = None) -> TimeSignal:
    """Read a 16/32-bit PCM or 32/64-bit float WAV file as (channels, length).

    Integer samples are scaled to [-1, 1). Resampling is out of scope: a
    rate mismatch raises. Malformed or unsupported files raise a
    ``ValueError`` that names the file.
    """
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    fmt, pos = None, 12
    while pos + 8 <= len(raw):
        chunk, size = struct.unpack_from("<4sI", raw, pos)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{path}: truncated {chunk.decode('latin-1')!r} chunk")
        if chunk == b"fmt ":
            if size < 16:
                raise ValueError(f"{path}: fmt chunk too short")
            tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body)
            if tag == _WAVE_FORMAT_EXTENSIBLE and size >= 26:
                (tag,) = struct.unpack_from("<H", body, 24)  # first bytes of the SubFormat GUID
            if (tag, bits) not in _WAV_DTYPES or channels < 1:
                raise ValueError(
                    f"{path}: unsupported WAV format (tag {tag}, {bits}-bit, {channels} channel(s));"
                    " expected 16/32-bit PCM or 32/64-bit float"
                )
            fmt = (np.dtype(_WAV_DTYPES[tag, bits]), channels, rate)
        elif chunk == b"data":
            if fmt is None:
                raise ValueError(f"{path}: data chunk before fmt chunk")
            dtype, channels, rate = fmt
            if size % (dtype.itemsize * channels):
                raise ValueError(f"{path}: data chunk is not a whole number of frames")
            break
        pos += 8 + size + (size & 1)
    else:
        raise ValueError(f"{path}: no data chunk")
    if expected_rate is not None and rate != expected_rate:
        raise ValueError(f"sample rate mismatch: file has {rate} Hz, expected {expected_rate} Hz")
    data = np.frombuffer(body, dtype=dtype).astype(np.float64)
    if dtype.kind == "i":
        data /= 2.0 ** (8 * dtype.itemsize - 1)
    return TimeSignal(samples=data.reshape(-1, channels).T, sample_rate=float(rate))


def write_wav(path, signal: TimeSignal, pcm16: bool = False) -> None:
    """Write a TimeSignal as float32 (default) or PCM16 WAV.

    The layout is the canonical one: a ``fmt `` chunk, a ``fact`` chunk for
    float data, then ``data``.
    """
    data = signal.samples.T
    if pcm16:
        data, tag = np.clip(np.round(data * 32767.0), -32768, 32767).astype("<i2"), 1
    else:
        data, tag = data.astype("<f4"), 3
    frames, channels = data.shape
    rate, width = int(signal.sample_rate), data.itemsize
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * width * channels, width * channels, 8 * width)
    fact = b""
    if tag == 3:
        # non-PCM formats carry cbSize and a fact chunk holding the frame count
        fmt += b"\0\0"
        fact = b"fact" + struct.pack("<II", 4, frames)
    payload = data.tobytes()
    header = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + fact + b"data" + struct.pack("<I", len(payload))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(header) + len(payload)) + header)
        fh.write(payload)
