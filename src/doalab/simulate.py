"""Reverberant multi-source scene generation with full ground truth.

Scenes are built from image-method room impulse responses split into a
direct-path and a reverberant part, so the generated mixture decomposes
exactly into per-source direct components, per-source reverberation, and
sensor noise. Everything is deterministic given the scene seed.

Convention: a source at DOA theta delays microphone q by
``cos(theta) * d_q / c_s`` seconds relative to microphone 1, matching the
far-field steering model in :mod:`doalab.geometry`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.signal

from .geometry import ArrayGeometry
from .signal import DEFAULT_HOP, DEFAULT_SAMPLE_RATE, DEFAULT_WINDOW_LENGTH, TimeSignal, read_wav

SINC_HALF_TAPS = 40  # 81-tap Hann-windowed sinc for fractional delays
SABINE_CONSTANT = 24.0 * np.log(10.0)

# per-tap constants of _scatter_pulses, tap m = -SINC_HALF_TAPS .. SINC_HALF_TAPS
_TAP_OFFSETS = np.arange(-SINC_HALF_TAPS, SINC_HALF_TAPS + 1)
_TAP_ANGLES = np.pi * _TAP_OFFSETS / SINC_HALF_TAPS
_TAP_BASIS = (
    0.5
    * np.where(_TAP_OFFSETS % 2 == 0, -1.0, 1.0)
    * np.stack([np.ones(_TAP_OFFSETS.size), np.cos(_TAP_ANGLES), np.sin(_TAP_ANGLES)])
)


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox room: dimensions in meters, reverberation time in seconds."""

    dimensions: np.ndarray
    t60: float

    def __post_init__(self):
        dims = np.asarray(self.dimensions, dtype=np.float64)
        object.__setattr__(self, "dimensions", dims)
        if dims.shape != (3,) or np.any(dims <= 0):
            raise ValueError("room dimensions must be three positive lengths")
        if self.t60 < 0:
            raise ValueError("t60 must be non-negative")


@dataclass(frozen=True)
class SourceSpec:
    """One scene source: DOA, source-to-array-center distance, audio."""

    doa_deg: float
    smd_m: float
    signal: str = "white"  # "white", "speech", or a WAV path

    def __post_init__(self):
        if not 0.0 <= self.doa_deg <= 180.0:
            raise ValueError("source DOA must lie in [0, 180] degrees")
        if self.smd_m <= 0:
            raise ValueError("source-microphone distance must be positive")


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
    wall_margin: float = 1.0

    def __post_init__(self):
        sources = tuple(self.sources)
        object.__setattr__(self, "sources", sources)
        if not 1 <= len(sources) <= 2:
            raise ValueError("scenes support one or two sources")
        if len(sources) == 2 and self.sir_db is None:
            raise ValueError("two-source scenes need sir_db")
        if self.duration_frames < 1:
            raise ValueError("duration_frames must be positive")

    @property
    def num_samples(self) -> int:
        return (self.duration_frames - 1) * self.hop + self.window_length

    def to_json_dict(self) -> dict:
        return {
            "room": {"dimensions": list(self.room.dimensions), "t60": self.room.t60},
            "mic_distances_m": list(self.geometry.mic_distances),
            "speed_of_sound": self.geometry.speed_of_sound,
            "sources": [
                {"doa_deg": s.doa_deg, "smd_m": s.smd_m, "signal": s.signal} for s in self.sources
            ],
            "snr_db": self.snr_db,
            "sir_db": self.sir_db,
            "seed": self.seed,
            "duration_frames": self.duration_frames,
            "sample_rate": self.sample_rate,
            "window_length": self.window_length,
            "hop": self.hop,
            "rir_length_s": self.rir_length_s,
            "wall_margin": self.wall_margin,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SceneSpec":
        return cls(
            room=RoomSpec(np.asarray(data["room"]["dimensions"]), data["room"]["t60"]),
            geometry=ArrayGeometry(
                np.asarray(data["mic_distances_m"]),
                data.get("speed_of_sound", 343.0),
            ),
            sources=tuple(
                SourceSpec(s["doa_deg"], s["smd_m"], s.get("signal", "white"))
                for s in data["sources"]
            ),
            snr_db=data.get("snr_db"),
            sir_db=data.get("sir_db"),
            seed=int(data["seed"]),
            duration_frames=int(data["duration_frames"]),
            sample_rate=data.get("sample_rate", DEFAULT_SAMPLE_RATE),
            window_length=data.get("window_length", DEFAULT_WINDOW_LENGTH),
            hop=data.get("hop", DEFAULT_HOP),
            rir_length_s=data.get("rir_length_s"),
            wall_margin=data.get("wall_margin", 1.0),
        )


@dataclass(frozen=True)
class Rir:
    """Room impulse response per microphone plus its direct-path part."""

    taps: np.ndarray = field(repr=False)
    direct_taps: np.ndarray = field(repr=False)
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        direct = np.asarray(self.direct_taps, dtype=np.float64)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "direct_taps", direct)
        if taps.shape != direct.shape or taps.ndim != 2:
            raise ValueError("taps and direct_taps must be matching Q x L matrices")
        if not (np.all(np.isfinite(taps)) and np.all(np.isfinite(direct))):
            raise ValueError("RIR taps must be finite")


@dataclass(frozen=True)
class SceneTruth:
    """Mixture plus its exact ground-truth decomposition."""

    mixture: TimeSignal
    direct: tuple  # per-source TimeSignal
    reverb: tuple  # per-source TimeSignal
    noise: TimeSignal
    doas: np.ndarray
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
    y = scipy.signal.lfilter([1.0], [1.0, -0.9], x)
    y = scipy.signal.lfilter([1.0, -1.0], [1.0, -0.995], y)
    y /= np.sqrt(np.mean(y**2))
    return TimeSignal(y[None, :], sample_rate)


def _scatter_pulses(length: int, delays: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Accumulate fractional-delay pulses into a tap buffer of ``length``.

    Each pulse is the 81-tap Hann-windowed sinc centred on its delay,
    evaluated with three trig calls per pulse instead of two per tap. The delay is split
    at the nearest integer, ``d = base + f`` with ``|f| <= 0.5``, so that
    ``f`` is exact and ``sin(pi f)`` keeps full precision near integers.
    On tap ``base + m``, with ``H = SINC_HALF_TAPS``:

    - sinc: ``sin(pi (m - f)) = -(-1)**m sin(pi f)``;
    - Hann: ``cos(pi (m - f) / H) = cos(pi m / H) cos(pi f / H)
      + sin(pi m / H) sin(pi f / H)``.

    So the numerator of every tap is a per-pulse 3-vector times the fixed
    3 x (2H + 1) ``_TAP_BASIS``, and only the division by ``m - f`` is
    per tap.
    """
    half = SINC_HALF_TAPS
    base = np.rint(delays)
    # pulses whose kernel misses [0, length) are dropped, so a buffer padded
    # by 2H on each side holds every tap of the rest
    touches = (base + half >= 0) & (base - half < length)
    base, delays, amps = base[touches], delays[touches], amps[touches]
    frac = delays - base
    base = base.astype(np.int64)
    tap_index = np.arange(half, 3 * half + 1)  # buffer index of tap m, less base
    padded = np.zeros(length + 4 * half)
    chunk = 2048  # keeps the chunk x (2H + 1) temporaries in cache
    for lo in range(0, delays.size, chunk):
        f = frac[lo : lo + chunk]
        a = amps[lo : lo + chunk]
        coef = a * np.sin(np.pi * f) / np.pi
        angle = np.pi * f / half
        per_pulse = np.empty((f.size, 3))
        per_pulse[:, 0] = coef
        per_pulse[:, 1] = coef * np.cos(angle)
        per_pulse[:, 2] = coef * np.sin(angle)
        taps = per_pulse @ _TAP_BASIS
        x = _TAP_OFFSETS - f[:, None]
        # f == 0: sin(pi f) is 0, so every tap is 0 except m == 0, which is 0/0
        integer = f == 0.0
        x[integer, half] = 1.0
        taps /= x
        taps[integer, half] = a[integer]
        # |m - f| > H only at the end taps, where the window is zero
        taps[f > 0.0, 0] = 0.0
        taps[f < 0.0, -1] = 0.0
        idx = base[lo : lo + chunk, None] + tap_index
        padded += np.bincount(idx.ravel(), weights=taps.ravel(), minlength=padded.size)
    return padded[2 * half : 2 * half + length]


def _sabine_absorption(room: RoomSpec, speed_of_sound: float) -> float:
    volume = float(np.prod(room.dimensions))
    lx, ly, lz = room.dimensions
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    return SABINE_CONSTANT * volume / (speed_of_sound * surface * room.t60)


def image_method_rir(
    room: RoomSpec,
    source_pos,
    mic_positions,
    max_order: int | None = None,
    length: int | None = None,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    speed_of_sound: float = 343.0,
) -> Rir:
    """Image-method RIR for a shoebox room with uniform wall reflectivity.

    The wall reflection coefficient is derived from t60 via Sabine's
    formula and shared by all six walls. Image pulses are placed with
    fractional-delay windowed-sinc interpolation and 1/(4 pi r) spreading.
    ``direct_taps`` holds only the order-zero image.

    Either ``max_order`` (images per axis) or ``length`` (taps) may be
    given; by default the response covers t60 plus a small margin and the
    image set covers every delay representable within it.
    """
    source_pos = np.asarray(source_pos, dtype=np.float64)
    mic_positions = np.atleast_2d(np.asarray(mic_positions, dtype=np.float64))
    dims = room.dimensions
    for point in np.vstack([source_pos[None, :], mic_positions]):
        if np.any(point <= 0) or np.any(point >= dims):
            raise ValueError("source and microphones must lie strictly inside the room")

    if room.t60 > 0:
        alpha = _sabine_absorption(room, speed_of_sound)
        if alpha > 1.0:
            raise ValueError("t60 too small for this room: reflection coefficient would be negative")
        beta = np.sqrt(1.0 - alpha)
    else:
        beta = 0.0

    max_dist = float(np.max(np.linalg.norm(mic_positions - source_pos, axis=1)))
    if length is None:
        tail = room.t60 + 0.05 if room.t60 > 0 else 0.0
        length = int(np.ceil((max_dist / speed_of_sound + tail) * sample_rate)) + 2 * SINC_HALF_TAPS + 2
    reach = speed_of_sound * length / sample_rate

    # The images form a separable lattice: per axis, the coordinates of both
    # parities over orders -n..n and their reflection counts.
    if room.t60 == 0:
        orders, parities = np.zeros(3, dtype=int), (0,)  # the source alone
    else:
        if max_order is None:
            orders = np.ceil((reach + dims) / (2.0 * dims)).astype(int)
        else:
            orders = np.full(3, max_order, dtype=int)
        parities = (0, 1)
    coords, refl = [], []
    for ax in range(3):
        m = np.arange(-orders[ax], orders[ax] + 1)
        coords.append(np.concatenate([(1 - 2 * p) * source_pos[ax] + 2.0 * m * dims[ax] for p in parities]))
        refl.append(np.concatenate([np.abs(m - p) + np.abs(m) for p in parities]))
    num_reflections = refl[0][:, None, None] + refl[1][None, :, None] + refl[2][None, None, :]
    gains = (beta ** num_reflections.astype(np.float64)).ravel()

    taps = np.zeros((mic_positions.shape[0], length))
    direct = np.zeros_like(taps)
    for q, mic in enumerate(mic_positions):
        sx, sy, sz = ((c - mic[ax]) ** 2 for ax, c in enumerate(coords))
        # summed in the order of np.linalg.norm over (x, y, z) rows
        dist = np.sqrt((sx[:, None, None] + sy[None, :, None]) + sz[None, None, :]).ravel()
        keep = dist <= reach
        d = dist[keep]
        amp = gains[keep] / (4.0 * np.pi * d)
        delay = d / speed_of_sound * sample_rate
        taps[q] = _scatter_pulses(length, delay, amp)
        d0 = np.linalg.norm(source_pos - mic)
        direct[q] = _scatter_pulses(
            length,
            np.array([d0 / speed_of_sound * sample_rate]),
            np.array([1.0 / (4.0 * np.pi * d0)]),
        )
    return Rir(taps=taps, direct_taps=direct, sample_rate=sample_rate)


def plane_wave_synthesize(src: TimeSignal, doa_deg: float, geom: ArrayGeometry) -> TimeSignal:
    """Ideal far-field array fixture: delay-only propagation, no attenuation.

    Channel q is the source delayed by ``cos(doa) * d_q / c_s`` seconds via
    windowed-sinc fractional-delay filtering. Edge samples of advanced
    channels are filled by the filter transient only.
    """
    if src.num_channels != 1:
        raise ValueError("plane-wave source must be single-channel")
    delays = (
        np.cos(np.deg2rad(doa_deg)) * geom.mic_distances / geom.speed_of_sound * src.sample_rate
    )
    center = SINC_HALF_TAPS + int(np.ceil(np.max(np.abs(delays)))) + 1
    klen = 2 * center + 1
    kernels = np.stack([_scatter_pulses(klen, np.array([center + tau]), np.array([1.0])) for tau in delays])
    full = scipy.signal.fftconvolve(src.samples, kernels, axes=1)
    return TimeSignal(full[:, center : center + src.num_samples], src.sample_rate)


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
    margin = spec.wall_margin
    if np.any(dims <= 2 * margin):
        raise ValueError("room too small for the configured wall margin")
    aperture = spec.geometry.aperture
    for _ in range(500):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        axis = np.array([np.cos(phi), np.sin(phi), 0.0])
        normal = np.array([-np.sin(phi), np.cos(phi), 0.0])
        center = np.array(
            [
                rng.uniform(margin, dims[0] - margin),
                rng.uniform(margin, dims[1] - margin),
                rng.uniform(margin, dims[2] - margin),
            ]
        )
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


def mix_scene(spec: SceneSpec) -> SceneTruth:
    """Generate a scene: convolve, scale to SIR/SNR, and mix.

    Source 2 is scaled so the full-length energy ratio of the convolved
    sources at microphone 1 equals ``sir_db``; sensor noise is scaled to
    ``snr_db`` against source 1 at microphone 1. The returned mixture is
    the exact sample-wise sum of all ground-truth components.
    """
    rng = np.random.default_rng(spec.seed)
    mics, srcs = _place_scene(spec, rng)
    n = spec.num_samples
    rir_length = None
    if spec.rir_length_s is not None:
        rir_length = int(round(spec.rir_length_s * spec.sample_rate))

    directs, reverbs, gains = [], [], []
    for i, source in enumerate(spec.sources):
        src_seed = int(rng.integers(0, 2**63 - 1))
        samples = _source_samples(spec, source, n, src_seed)
        if not np.any(samples):
            raise ValueError("zero-energy source")
        rir = image_method_rir(
            spec.room,
            srcs[i],
            mics,
            length=rir_length,
            sample_rate=spec.sample_rate,
            speed_of_sound=spec.geometry.speed_of_sound,
        )
        # one call for both responses, so the source FFT is taken once
        responses = np.vstack([rir.taps, rir.direct_taps])
        both = scipy.signal.fftconvolve(samples[None, :], responses, axes=1)
        full, direct = np.split(both[:, :n], 2)
        directs.append(direct)
        reverbs.append(full - direct)
        gains.append(1.0)

    if len(spec.sources) == 2:
        e1 = np.sum((directs[0][0] + reverbs[0][0]) ** 2)
        e2 = np.sum((directs[1][0] + reverbs[1][0]) ** 2)
        if e2 == 0:
            raise ValueError("zero-energy source")
        g = np.sqrt(e1 / (e2 * 10.0 ** (spec.sir_db / 10.0)))
        directs[1] *= g
        reverbs[1] *= g
        gains[1] = float(g)

    if spec.snr_db is None or np.isinf(spec.snr_db):
        noise = np.zeros((spec.geometry.num_mics, n))
    else:
        p_src = np.mean((directs[0][0] + reverbs[0][0]) ** 2)
        sigma = np.sqrt(p_src / 10.0 ** (spec.snr_db / 10.0))
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
        doas=np.array([s.doa_deg for s in spec.sources]),
        source_gains=np.array(gains),
        mic_positions=mics,
        source_positions=srcs,
    )


def save_scene_sidecar(path, spec: SceneSpec, truth: SceneTruth) -> None:
    """Write the ground-truth sidecar JSON next to an exported scene WAV."""
    payload = {
        "spec": spec.to_json_dict(),
        "doas_deg": list(truth.doas),
        "source_gains": list(truth.source_gains),
        "mic_positions": truth.mic_positions.tolist(),
        "source_positions": truth.source_positions.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
