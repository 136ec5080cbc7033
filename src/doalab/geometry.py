"""Array geometry, the discrete DOA grid, and far-field steering matrices.

DOA angles are degrees in [0, 180] at every API boundary; radians appear
only inside the trigonometry. Bin k maps to the physical frequency
``k * sample_rate / fft_length`` with zero-based k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_SOUND = 343.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Linear array described by microphone distances to microphone 1.

    Distances must be finite, ``mic_distances[0]`` must be 0 and distances
    must strictly increase; the speed of sound must be a finite number > 0.
    """

    mic_distances: np.ndarray
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        d = np.asarray(self.mic_distances, dtype=np.float64)
        object.__setattr__(self, "mic_distances", d)
        if d.ndim != 1 or d.size < 2:
            raise ValueError("need at least two microphones")
        if not np.all(np.isfinite(d)):
            raise ValueError(f"mic distances must be finite, got {d.tolist()}")
        if d[0] != 0.0:
            raise ValueError("first microphone must sit at distance 0")
        if np.any(np.diff(d) <= 0):
            raise ValueError("mic distances must be strictly increasing")
        if not 0 < self.speed_of_sound < np.inf:  # NaN fails too
            raise ValueError(f"speed_of_sound must be a finite number > 0, got {self.speed_of_sound!r}")

    @classmethod
    def uniform(cls, num_mics: int, spacing: float, speed_of_sound: float = SPEED_OF_SOUND) -> "ArrayGeometry":
        """ULA with an integer ``num_mics`` microphones and equal ``spacing`` in meters, a finite number > 0."""
        if isinstance(num_mics, bool) or not isinstance(num_mics, (int, np.integer)):
            raise ValueError(f"num_mics must be an integer, got {num_mics!r}")
        if not 0 < spacing < np.inf:  # checked first: 0 * inf would be a NaN distance
            raise ValueError(f"spacing must be a finite number > 0, got {spacing!r}")
        return cls(np.arange(num_mics) * spacing, speed_of_sound)

    @property
    def num_mics(self) -> int:
        return self.mic_distances.size

    @property
    def aperture(self) -> float:
        return float(self.mic_distances[-1])


@dataclass(frozen=True)
class DoaGrid:
    """Strictly increasing DOA sample points in degrees, spanning [0, 180]."""

    angles_deg: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles_deg, dtype=np.float64)
        object.__setattr__(self, "angles_deg", a)
        if a.ndim != 1 or a.size < 2:
            raise ValueError("grid needs at least two angles")
        if np.any(np.diff(a) <= 0):
            raise ValueError("grid angles must be strictly increasing")
        if a[0] != 0.0 or a[-1] != 180.0:
            raise ValueError("grid must span [0, 180] degrees")

    @property
    def size(self) -> int:
        return self.angles_deg.size


def make_grid(num_points: int) -> DoaGrid:
    """Uniform DOA grid over [0, 180] degrees with ``num_points`` entries."""
    return DoaGrid(np.linspace(0.0, 180.0, num_points))


def far_field_phase(grid: DoaGrid, distances: np.ndarray, speed_of_sound: float, freqs: np.ndarray) -> np.ndarray:
    """Far-field phase ``-2 pi f_k cos(theta_c) d / c_s`` of each grid angle, frequency
    in Hz and distance, shape (C, K, D); a distance is a signed offset along the
    array axis in meters, such as a microphone distance or a pair spacing.
    """
    delays = np.cos(np.deg2rad(grid.angles_deg))[:, None] * distances[None, :] / speed_of_sound  # (C, D)
    return -2.0 * np.pi * freqs[None, :, None] * delays[:, None, :]


def steering_matrix(grid: DoaGrid, geom: ArrayGeometry, sample_rate: float, fft_length: int) -> np.ndarray:
    """Relative transfer functions of all grid directions, shape (C, K, Q) with K = fft_length / 2 + 1.

    Entry (c, k, q) is ``exp(j phi)`` with the phase ``phi`` of
    :func:`far_field_phase` at ``f_k = k * sample_rate / fft_length`` and the
    microphone distance ``d_q``. The first microphone is the phase
    reference, so column q = 0 is identically 1.
    """
    freqs = np.arange(fft_length // 2 + 1) * sample_rate / fft_length
    phase = far_field_phase(grid, geom.mic_distances, geom.speed_of_sound, freqs)
    steering = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=steering.real)
    np.sin(phase, out=steering.imag)
    return steering
