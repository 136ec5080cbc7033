"""Reverberant multi-source scene generation with full ground truth.

Scenes are built from image-method room impulse responses split into a
direct-path and a reverberant part, so the generated mixture decomposes
exactly into per-source direct components, per-source reverberation, and
sensor noise. Everything is deterministic given the scene seed. The image
order follows from the response length, and the array and sources keep
``WALL_MARGIN`` meters from every wall. A :class:`SceneSpec` is written to
the ``truth.json`` sidecar but never read back.

Each image is an 81-tap Hann-windowed sinc pulse; its taps are tabulated
Chebyshev polynomials of the fractional delay, so placing every pulse of a
microphone's response takes histograms and one small GEMM (:func:`_scatter_row`).
A reverberant two-source scene renders its sources side by side, the second
on a helper thread that ends with the scene (:func:`mix_scene`).

Convention: a source at DOA theta delays microphone q by
``cos(theta) * d_q / c_s`` seconds relative to microphone 1, matching the
far-field steering model in :mod:`doalab.geometry`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blas import one_blas_thread
from .geometry import SPEED_OF_SOUND, ArrayGeometry
from .signal import DEFAULT_HOP, DEFAULT_SAMPLE_RATE, DEFAULT_WINDOW_LENGTH, TimeSignal, read_wav
from .signal import check_stft_lengths, is_finite_number, is_integer

SINC_HALF_TAPS = 40  # 81-tap Hann-windowed sinc for fractional delays
TAP_DEGREE = 12  # Chebyshev degree of every kernel tap on each half of the fraction
SABINE_CONSTANT = 24.0 * np.log(10.0)
WALL_MARGIN = 1.0  # meters between every wall and the array and sources
MAX_LEVEL_DB = 1000.0  # |snr_db| and |sir_db| bound: 10 ** (level / 10) stays within 1e+-100
SOURCE_KINDS = ("white", "speech")  # the generated source signals; any other signal names a WAV file


def _tap_table(degree: int) -> np.ndarray:
    """Chebyshev coefficients of the 2H + 1 kernel taps, ``T_k(u)``'s on half h in column ``2 k + h``.

    Tap m of a pulse at ``base + f`` is the Hann-windowed ``sinc(m - f)``. On
    half h = 0, f in [0, 1/2] and u = 4 f - 1; on h = 1, f in [-1/2, 0) and
    u = 4 f + 1. There every tap is entire in u (the one with |m - f| > H is
    zero on the whole half), so Chebyshev interpolation converges to rounding.
    """
    half, n = SINC_HALF_TAPS, degree + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    cheb = np.cos(np.outer(np.arange(n), theta)) * np.r_[1.0, np.full(degree, 2.0)][:, None] / n
    x = np.arange(-half, half + 1) - (np.cos(theta) + np.c_[[1.0, -1.0]])[..., None] / 4.0  # (h, point, m)
    kernel = np.sinc(x) * np.where(np.abs(x) <= half, 0.5 * (1.0 + np.cos(np.pi * x / half)), 0.0)
    return (cheb @ kernel).transpose(2, 1, 0).reshape(2 * half + 1, 2 * n)


_TAP_TABLE = _tap_table(TAP_DEGREE)


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox room: dimensions in meters, reverberation time in seconds."""

    dimensions: np.ndarray
    t60: float

    def __post_init__(self):
        if np.shape(self.dimensions) != (3,) or not all(is_finite_number(d, 0) for d in self.dimensions):
            raise ValueError(f"room dimensions must be three finite numbers > 0, got {self.dimensions!r}")
        object.__setattr__(self, "dimensions", np.asarray(self.dimensions, dtype=np.float64))
        if not is_finite_number(self.t60, 0, closed=True):
            raise ValueError(f"t60 must be a finite number >= 0, got {self.t60!r}")


@dataclass(frozen=True)
class SourceSpec:
    """One scene source: DOA, source-to-array-center distance, audio."""

    doa_deg: float
    smd_m: float
    signal: str = "white"  # "white", "speech", or a WAV path

    def __post_init__(self):
        if not (is_finite_number(self.doa_deg, 0.0, closed=True) and self.doa_deg <= 180.0):
            raise ValueError(f"source DOA must lie in [0, 180] degrees, got {self.doa_deg!r}")
        if not is_finite_number(self.smd_m, 0):
            raise ValueError(f"source-microphone distance smd_m must be a finite number > 0, got {self.smd_m!r}")
        if not isinstance(self.signal, str):
            raise ValueError(f"source signal must be 'white', 'speech' or a WAV path, got {self.signal!r}")


@dataclass(frozen=True)
class SceneSpec:
    """Complete, seeded description of a simulated scene."""

    room: RoomSpec
    geometry: ArrayGeometry
    sources: tuple
    snr_db: float | None  # None disables sensor noise
    sir_db: float | None  # required iff two sources are present
    seed: int
    duration_frames: int
    sample_rate: float = DEFAULT_SAMPLE_RATE
    window_length: int = DEFAULT_WINDOW_LENGTH
    hop: int = DEFAULT_HOP
    rir_length_s: float | None = None

    def __post_init__(self):
        sources = tuple(self.sources)
        object.__setattr__(self, "sources", sources)
        if not 1 <= len(sources) <= 2:
            raise ValueError("scenes support one or two sources")
        if len(sources) == 2 and self.sir_db is None:
            raise ValueError("two-source scenes need sir_db")
        levels = [level for level in (self.snr_db, self.sir_db) if level is not None]
        if not all(is_finite_number(level) and abs(level) <= MAX_LEVEL_DB for level in levels):
            raise ValueError(
                f"snr_db and sir_db must be null or within +-{MAX_LEVEL_DB:g} dB, got {self.snr_db!r} and {self.sir_db!r}"
            )
        if not is_integer(self.seed, 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not is_integer(self.duration_frames, 1):
            raise ValueError(f"duration_frames must be an integer >= 1, got {self.duration_frames!r}")
        check_stft_lengths(self.window_length, self.hop)
        if not is_finite_number(self.sample_rate, 0):
            raise ValueError(f"sample_rate must be a finite number > 0, got {self.sample_rate!r}")
        length = self.rir_length_s  # null, or a tap count length * sample_rate that rounds to 1 or more
        if length is not None and not (is_finite_number(length, 0) and is_finite_number(length * self.sample_rate, 0.5)):
            raise ValueError(f"rir_length_s must be null or at least one sample long, got {length!r}")

    @property
    def num_samples(self) -> int:
        return (self.duration_frames - 1) * self.hop + self.window_length

    def to_json_dict(self) -> dict:
        return {
            "room": {"dimensions": list(self.room.dimensions), "t60": self.room.t60},
            "mic_distances_m": list(self.geometry.mic_distances),
            "speed_of_sound": self.geometry.speed_of_sound,
            "sources": [{"doa_deg": s.doa_deg, "smd_m": s.smd_m, "signal": s.signal} for s in self.sources],
            "snr_db": self.snr_db,
            "sir_db": self.sir_db,
            "seed": self.seed,
            "duration_frames": self.duration_frames,
            "sample_rate": self.sample_rate,
            "window_length": self.window_length,
            "hop": self.hop,
            "rir_length_s": self.rir_length_s,
            "wall_margin": WALL_MARGIN,
        }


class Rir(NamedTuple):
    """Room impulse response per microphone (rows) plus its direct-path part; unpacks as ``taps, direct_taps``."""

    taps: np.ndarray
    direct_taps: np.ndarray


@dataclass(frozen=True)
class SceneTruth:
    """Mixture plus its exact ground-truth decomposition."""

    mixture: TimeSignal
    direct: tuple  # per-source TimeSignal
    reverb: tuple  # per-source TimeSignal
    noise: TimeSignal
    source_gains: np.ndarray
    mic_positions: np.ndarray
    source_positions: np.ndarray


def white_noise(channels: int, length: int, seed: int, sample_rate: float = DEFAULT_SAMPLE_RATE) -> TimeSignal:
    """I.i.d. standard-normal noise, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return TimeSignal(rng.standard_normal((channels, length)), sample_rate)


def speech_shaped_noise(length: int, seed: int, sample_rate: float = DEFAULT_SAMPLE_RATE) -> TimeSignal:
    """Spectrally tilted noise resembling the long-term spectrum of speech.

    White noise shaped by a one-pole lowpass (roughly -6 dB/octave above a
    few hundred Hz) with the DC component removed, normalized to unit RMS.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(length)
    y = _one_pole(_one_pole(x, 0.9), 0.995, highpass=True)
    y /= np.sqrt(np.mean(y**2))
    return TimeSignal(y[None, :], sample_rate)


def _one_pole(x: np.ndarray, a: float, highpass: bool = False) -> np.ndarray:
    """Filter ``y[n] = x[n] + a * y[n - 1]``, from rest, along the last axis.

    With ``highpass`` the input is first differenced (a zero at DC), which
    is the ``(1 - z^-1) / (1 - a z^-1)`` section. The recursion runs as a
    doubling scan, ``log2(len(x))`` vector steps instead of a Python loop:
    after the step with shift ``s``, ``y[n]`` sums ``a^j x[n - j]`` for
    ``j < 2s``. It agrees with the direct recursion to rounding.
    """
    y = np.diff(x, prepend=0.0) if highpass else np.array(x, dtype=np.float64)
    s = 1
    while s < y.shape[-1] and a != 0.0:
        y[..., s:] += a * y[..., :-s]
        a *= a
        s *= 2
    return y


def _fft_size(n: int) -> int:
    """Smallest 5-smooth integer (2^i 3^j 5^k) that is at least ``n``.

    Real FFTs of such lengths take the fast radix path; awkward lengths
    fall back to Bluestein and run several times slower.
    """
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35
            while size < n:
                size *= 2
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution along the last axis, rows broadcast.

    ``a`` of shape (1, n) against ``b`` of shape (R, L) gives (R, n + L - 1),
    with the transform of ``a`` taken once.
    """
    n = a.shape[-1] + b.shape[-1] - 1
    size = _fft_size(n)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[..., :n]


def _scatter_row(length: int, d: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Sum the fractional-delay pulses at delays ``d`` (in taps) times ``amp`` into ``length`` taps.

    Each pulse is the 81-tap Hann-windowed sinc. For a delay ``base + f``,
    ``|f| <= 1/2``, tap m is ``sum_k _TAP_TABLE[m, 2 k + h] T_k(u)``. So one
    bincount per degree k sums ``amp T_k(u)`` per half and base, one GEMM
    turns these histograms into the taps of every base, each row followed by
    2H + 1 zeros. Read at width ``span + 2H``, row m starts m columns later,
    so one sum over the rows adds tap m of base i - m into output column i.
    The taps match the per-tap kernel to ~1e-15 of the peak; the temporaries
    end with the call.
    """
    half = SINC_HALF_TAPS
    row = np.zeros(length)
    # a pulse touches [0, length) iff its base lies in [-H, length + H); the
    # bases lo .. lo + span - 1 are the histogram columns
    lo, hi = (max(np.rint(d.min()), -half), min(np.rint(d.max()), length + half - 1)) if d.size else (0, -1)
    lo, span = int(lo), int(hi - lo) + 1
    if span <= 0:  # no pulse touches the row
        return row
    base = np.rint(d)
    touches = (base + half >= 0) & (base - half < length)
    u = (d - base)[touches]
    base -= lo
    index = base[touches].astype(np.int64)
    amp = amp[touches]
    del base, touches  # bound the memory: only the pulses that touch go on
    index += (u < 0.0) * span  # f in [-1/2, 0) is half 1, u = 4 f + 1; else u = 4 f - 1
    u = 4.0 * u + np.where(u < 0.0, 1.0, -1.0)
    hist = np.empty((2 * (TAP_DEGREE + 1), span))  # row 2 k + h
    prev = amp * u  # T_{-1} = T_1 starts T_{k+1} = 2 u T_k - T_{k-1}
    for k in range(TAP_DEGREE + 1):
        hist[2 * k : 2 * k + 2] = np.bincount(index, amp, 2 * span).reshape(2, span)
        prev, amp = amp, 2.0 * u * amp - prev
    del u, index, amp, prev
    width = span + 2 * half  # output taps lo - H .. lo + span + H - 1
    taps = np.empty((2 * half + 1, width + 1))  # tap m of base lo + j in column j, then 2H + 1 zeros
    taps[:, span:] = 0.0
    np.matmul(_TAP_TABLE, hist, out=taps[:, :span])
    out = taps.reshape(-1)[: (2 * half + 1) * width].reshape(2 * half + 1, width).sum(axis=0)
    start = lo - half  # output tap of out[0]
    a, b = max(start, 0), min(start + width, length)
    row[a:b] = out[a - start : b - start]
    return row


def _sabine_absorption(room: RoomSpec, speed_of_sound: float) -> float:
    volume = float(np.prod(room.dimensions))
    lx, ly, lz = room.dimensions
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    return SABINE_CONSTANT * volume / (speed_of_sound * surface * room.t60)


def image_method_rir(
    room: RoomSpec,
    source_pos,
    mic_positions,
    length: int | None = None,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> Rir:
    """Image-method RIR for a shoebox room with uniform wall reflectivity.

    The wall reflection coefficient is derived from t60 via Sabine's
    formula and shared by all six walls. Image pulses are placed with
    fractional-delay windowed-sinc interpolation and 1/(4 pi r) spreading
    by :func:`_scatter_row`, one row per microphone, the direct paths
    (``direct_taps``) first. An anechoic room's taps are its direct rows
    within reach, zero elsewhere. In a reverberant room each microphone's
    images are formed and scattered before the next microphone's, so one
    microphone's images are held at a time.

    By default the response covers t60 plus a small margin; ``length`` (>= 1)
    sets it in taps. The image set covers every delay representable within it.
    """
    if length is not None and not is_integer(length, 1):
        raise ValueError(f"length must be None or an integer >= 1 tap, got {length!r}")
    source_pos = np.asarray(source_pos, dtype=np.float64)
    mic_positions = np.atleast_2d(np.asarray(mic_positions, dtype=np.float64))
    dims = room.dimensions
    points = np.vstack([source_pos[None, :], mic_positions])
    if np.any(points <= 0) or np.any(points >= dims):
        raise ValueError("source and microphones must lie strictly inside the room")

    # direct distances, summed (x + y) + z like the image lattice's below, so
    # that the lattice's order-zero image is exactly the direct path
    sq = (source_pos - mic_positions) ** 2
    d0 = np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])
    if not np.all(d0 > 0):
        raise ValueError("a microphone coincides with the source: its direct path has distance 0")
    if not float(np.max(d0)) / speed_of_sound * sample_rate < 2.0**52:  # from 2**52 taps on, a delay keeps no fraction
        raise ValueError(f"speed_of_sound {speed_of_sound:g} at sample_rate {sample_rate:g} puts a direct path >= 2**52 taps away")
    if length is None:
        tail = room.t60 + 0.05 if room.t60 > 0 else 0.0
        length = int(np.ceil((float(np.max(d0)) / speed_of_sound + tail) * sample_rate)) + 2 * SINC_HALF_TAPS + 2
    reach = speed_of_sound * length / sample_rate
    rows = zip(d0[:, None] / speed_of_sound * sample_rate, 1.0 / (4.0 * np.pi * d0[:, None]))
    direct = np.array([_scatter_row(length, d, amp) for d, amp in rows])
    if room.t60 == 0:
        return Rir(taps=np.where((d0 <= reach)[:, None], direct, 0.0), direct_taps=direct)

    alpha = _sabine_absorption(room, speed_of_sound)
    if alpha > 1.0:
        raise ValueError("t60 too small for this room: reflection coefficient would be negative")
    beta = np.sqrt(1.0 - alpha)
    # The images form a separable lattice: per axis, the coordinates of both
    # parities over orders -n..n and their reflection counts.
    orders = np.ceil((reach + dims) / (2.0 * dims)).astype(int)
    coords, refl = [], []
    for ax in range(3):
        m = np.arange(-orders[ax], orders[ax] + 1)
        coords.append(np.concatenate([(1 - 2 * p) * source_pos[ax] + 2.0 * m * dims[ax] for p in (0, 1)]))
        refl.append(np.concatenate([np.abs(m - p) + np.abs(m) for p in (0, 1)], dtype=np.float64))
    gains = (beta ** (refl[0][:, None, None] + refl[1][None, :, None] + refl[2][None, None, :])).ravel()

    def lattice_row(mic):
        sx, sy, sz = ((c - mic[ax]) ** 2 for ax, c in enumerate(coords))
        dist = np.sqrt((sx[:, None, None] + sy[None, :, None]) + sz[None, None, :]).ravel()
        keep = dist <= reach
        dist = dist[keep]
        return dist / speed_of_sound * sample_rate, gains[keep] / (4.0 * np.pi * dist)

    return Rir(taps=np.array([_scatter_row(length, *lattice_row(mic)) for mic in mic_positions]), direct_taps=direct)


def _source_samples(spec: SceneSpec, source: SourceSpec, length: int, seed: int) -> np.ndarray:
    if source.signal == "white":
        return white_noise(1, length, seed, spec.sample_rate).samples[0]
    if source.signal == "speech":
        return speech_shaped_noise(length, seed, spec.sample_rate).samples[0]
    sig = read_wav(source.signal, expected_rate=spec.sample_rate)
    if sig.num_samples < length:
        raise ValueError(f"source audio too short: need {length} samples")
    return sig.samples[0, :length]


def _place_scene(spec: SceneSpec, rng: np.random.Generator):
    """Seeded array/source placement with wall margins.

    The array is a horizontal line through a random point with random
    orientation; sources sit at their DOA relative to the array axis. The
    axis direction is chosen so a source at DOA theta reaches microphone q
    ``cos(theta) * d_q / c_s`` seconds after microphone 1.
    """
    dims = spec.room.dimensions
    margin = WALL_MARGIN
    if np.any(dims <= 2 * margin):
        raise ValueError(f"room too small for the {WALL_MARGIN} m wall margin")
    aperture = spec.geometry.aperture
    for _ in range(500):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        axis = np.array([np.cos(phi), np.sin(phi), 0.0])
        normal = np.array([-np.sin(phi), np.cos(phi), 0.0])
        center = np.array([rng.uniform(margin, dim - margin) for dim in dims])
        # microphone 1 sits on the +axis end so that larger d_q means
        # larger distance to a source at DOA 0 (positive relative delay)
        mics = center + (aperture / 2.0 - spec.geometry.mic_distances)[:, None] * axis[None, :]
        srcs = np.array(
            [
                center
                + s.smd_m * (np.cos(np.deg2rad(s.doa_deg)) * axis + np.sin(np.deg2rad(s.doa_deg)) * normal)
                for s in spec.sources
            ]
        )
        points = np.vstack([mics, srcs])
        if np.all(points >= margin - 1e-9) and np.all(points <= dims - margin + 1e-9):
            return mics, srcs
    raise ValueError("could not place array and sources inside the room margins")


def _render_source(spec: SceneSpec, source: SourceSpec, position, mics, rir_length, seed: int):
    """One source's (direct, reverb) at the microphones, before the SIR gain."""
    n = spec.num_samples
    samples = _source_samples(spec, source, n, seed)
    if not np.any(samples):
        raise ValueError("zero-energy source")
    taps, direct_taps = image_method_rir(spec.room, position, mics, rir_length, spec.sample_rate, spec.geometry.speed_of_sound)
    if np.array_equal(taps, direct_taps):  # anechoic: no reverberation to convolve
        direct = _convolve(samples[None, :], direct_taps)[:, :n]
        return direct, np.zeros_like(direct)
    # one call for both responses, so the source FFT is taken once
    both = _convolve(samples[None, :], np.vstack([taps, direct_taps]))
    full, direct = np.split(both[:, :n], 2)
    return direct, full - direct


# the process's BLAS is set to one thread when its first helper thread starts
_one_blas_thread_once = functools.cache(one_blas_thread)


def _side_by_side(spec: SceneSpec) -> bool:
    """Whether the second source renders on a helper thread: a reverberant two-source
    scene, in a process that is no pool worker and may use more than one CPU.
    An anechoic render takes a few ms, too little to pay for a thread and its memory arena."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    mp = sys.modules.get("multiprocessing")  # loaded in every pool worker; not imported here, to keep import light
    return len(spec.sources) == 2 and spec.room.t60 > 0 and cpus > 1 and (mp is None or mp.parent_process() is None)


def mix_scene(spec: SceneSpec) -> SceneTruth:
    """Generate a scene: convolve, scale to SIR/SNR, and mix.

    Source 2 is scaled so the full-length energy ratio of the convolved
    sources at microphone 1 equals ``sir_db``; sensor noise is scaled to
    ``snr_db`` against source 1 at microphone 1. A source with no energy
    at microphone 1 raises ``ValueError("zero-energy source")``. The
    returned mixture is the exact sample-wise sum of all ground-truth
    components.

    In a reverberant two-source scene the second source renders on a helper
    thread while the calling thread renders the first (:func:`_side_by_side`),
    with OpenBLAS set to one thread for the process so that the two cores
    run the two renders. The helper is joined before this returns or raises,
    the first source's error wins, and every sample is the same either way.
    """
    rng = np.random.default_rng(spec.seed)
    mics, srcs = _place_scene(spec, rng)
    n = spec.num_samples
    rir_length = None
    if spec.rir_length_s is not None:
        rir_length = int(round(spec.rir_length_s * spec.sample_rate))

    jobs = [
        (spec, source, srcs[i], mics, rir_length, int(rng.integers(0, 2**63 - 1)))
        for i, source in enumerate(spec.sources)
    ]
    if _side_by_side(spec):
        from concurrent.futures import ThreadPoolExecutor  # only processes that render side by side pay this import

        _one_blas_thread_once()
        with ThreadPoolExecutor(1) as helper:
            second = helper.submit(_render_source, *jobs[1])
            rendered = [_render_source(*jobs[0]), second.result()]
    else:
        rendered = [_render_source(*job) for job in jobs]
    directs, reverbs = map(list, zip(*rendered))
    gains = [1.0] * len(rendered)

    power = (directs[0][0] + reverbs[0][0]) ** 2  # source 1 at microphone 1, the reference of SIR and SNR
    energies = [np.sum((d[0] + r[0]) ** 2) for d, r in zip(directs, reverbs)]  # each source at microphone 1
    if not all(energies):  # e.g. a response that ends before the source arrives
        raise ValueError("zero-energy source")
    if len(spec.sources) == 2:
        g = np.sqrt(energies[0] / (energies[1] * 10.0 ** (spec.sir_db / 10.0)))
        directs[1] *= g
        reverbs[1] *= g
        gains[1] = float(g)

    if spec.snr_db is None:
        noise = np.zeros((spec.geometry.num_mics, n))
    else:
        sigma = np.sqrt(np.mean(power) / 10.0 ** (spec.snr_db / 10.0))
        noise_seed = int(rng.integers(0, 2**63 - 1))
        noise = sigma * white_noise(spec.geometry.num_mics, n, noise_seed, spec.sample_rate).samples

    mixture = np.zeros((spec.geometry.num_mics, n))
    for i in range(len(spec.sources)):
        mixture += directs[i]
        mixture += reverbs[i]
    mixture += noise

    sr = spec.sample_rate
    return SceneTruth(
        mixture=TimeSignal(mixture, sr),
        direct=tuple(TimeSignal(d, sr) for d in directs),
        reverb=tuple(TimeSignal(r, sr) for r in reverbs),
        noise=TimeSignal(noise, sr),
        source_gains=np.array(gains),
        mic_positions=mics,
        source_positions=srcs,
    )


def save_scene_sidecar(path, spec: SceneSpec, truth: SceneTruth) -> None:
    """Write the ground-truth sidecar JSON next to an exported scene WAV."""
    payload = {
        "spec": spec.to_json_dict(),
        "doas_deg": [float(s.doa_deg) for s in spec.sources],
        "source_gains": list(truth.source_gains),
        "mic_positions": truth.mic_positions.tolist(),
        "source_positions": truth.source_positions.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
