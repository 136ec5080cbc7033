"""Time-domain signal containers, the STFT analysis front end and WAV I/O.

All estimators in the package consume the one-sided multichannel STFT
produced here. The analysis window is always the periodic Hann; the
default setup is 32 ms windows with a 16 ms hop at 16 kHz, which gives 257
frequency bins. Frames are taken without centering or padding: frame ``n``
covers samples ``[n * hop, n * hop + window_length)``. There is no inverse
STFT, since no estimator resynthesizes. WAV files are read as 16/32-bit
PCM or 32/64-bit float and written as 32-bit float.
"""

from __future__ import annotations

import math
import numbers
import struct
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_SAMPLE_RATE = 16_000
DEFAULT_WINDOW_LENGTH = 512
DEFAULT_HOP = 256


def is_finite_number(value, lower: float = -np.inf, closed: bool = False) -> bool:
    """Whether ``value`` is a real number, no bool, finite as a float and above ``lower`` (or at it if ``closed``)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    finite = real and (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value))
    return finite and (value >= lower if closed else value > lower)


def is_integer(value, lower: int, upper: float = np.inf) -> bool:
    """Whether ``value`` is an integer, no bool, in [``lower``, ``upper``]."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and lower <= value <= upper


def check_stft_lengths(window_length, hop) -> None:
    """Raise unless ``window_length`` is an even integer >= 2 and ``hop`` an integer in [1, ``window_length``]."""
    if not (is_integer(window_length, 2) and window_length % 2 == 0):
        raise ValueError(f"window_length must be an even integer >= 2, got {window_length!r}")
    if not is_integer(hop, 1, window_length):
        raise ValueError(f"hop must be an integer in [1, window_length], got {hop!r}")


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
        if not is_finite_number(self.sample_rate, 0):
            raise ValueError(f"sample_rate must be a finite number > 0, got {self.sample_rate!r}")
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
    window_length: int

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        object.__setattr__(self, "bins", bins)
        if bins.ndim != 3:
            raise ValueError("bins must be a Q x K x N tensor")
        if not is_finite_number(self.sample_rate, 0):
            raise ValueError(f"sample_rate must be a finite number > 0, got {self.sample_rate!r}")
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


def analysis_window(window_length: int) -> np.ndarray:
    """The periodic Hann window, suited for 50% overlap."""
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, window_length + 1))[:-1]


def stft(
    signal: TimeSignal,
    window_length: int = DEFAULT_WINDOW_LENGTH,
    hop: int = DEFAULT_HOP,
) -> MultichannelSpectrogram:
    """Short-time Fourier transform of all channels with the periodic Hann window.

    Parameters
    ----------
    signal : TimeSignal
        Input signal; must contain at least one full window of samples.
    window_length : int
        Analysis window length in samples, an even integer >= 2.
    hop : int
        Frame advance in samples, an integer from 1 to ``window_length``.

    Returns
    -------
    MultichannelSpectrogram
        One-sided spectrum with K = window_length / 2 + 1 bins.
    """
    check_stft_lengths(window_length, hop)
    if signal.num_samples < window_length:
        raise ValueError("insufficient samples: signal shorter than one window")
    win = analysis_window(window_length)
    # frames: (Q, N, window_length), a strided view until the window multiplies it
    frames = sliding_window_view(signal.samples, window_length, axis=-1)[:, ::hop] * win
    bins = np.fft.rfft(frames, axis=-1)  # (Q, N, K)
    return MultichannelSpectrogram(
        bins=np.transpose(bins, (0, 2, 1)),
        sample_rate=signal.sample_rate,
        window_length=window_length,
    )


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


def wav_rate(sample_rate, channels: int) -> int:
    """The header rate of a 32-bit float WAV of ``channels`` channels at ``sample_rate``.

    The rate must be a whole number of Hz >= 1 whose byte rate, ``rate * 4 *
    channels``, fits the header's 32-bit field, so it is at most 2**32 - 1;
    any other rate raises a ``ValueError`` that names it.
    """
    limit = (2**32 - 1) // (4 * channels)
    if not (is_finite_number(sample_rate, 0) and float(sample_rate).is_integer() and sample_rate <= limit):
        raise ValueError(f"a float WAV of {channels} channel(s) holds a whole number of Hz in [1, {limit}], "
                         f"got sample rate {sample_rate!r}")
    return int(sample_rate)


def write_wav(path, signal: TimeSignal) -> None:
    """Write a TimeSignal as a 32-bit float WAV at the :func:`wav_rate` of its sample rate.

    The layout is the canonical one: a ``fmt `` chunk with ``cbSize``, a
    ``fact`` chunk holding the frame count (both required of non-PCM
    formats), then ``data``.
    """
    data = signal.samples.T.astype("<f4")
    frames, channels = data.shape
    rate, width = wav_rate(signal.sample_rate, channels), data.itemsize
    # format tag 3 (IEEE float), then a cbSize of 0
    fmt = struct.pack("<HHIIHHH", 3, channels, rate, rate * width * channels, width * channels, 8 * width, 0)
    fact = b"fact" + struct.pack("<II", 4, frames)
    payload = data.tobytes()
    header = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + fact + b"data" + struct.pack("<I", len(payload))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(header) + len(payload)) + header)
        fh.write(payload)
