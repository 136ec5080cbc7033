"""Fixtures built on the pulse scatter of :mod:`doalab.simulate`.

- ``scatter_pulses``: ``simulate._scatter_row``, the pulses of one delay list
  summed into a tap buffer.
- ``plane_wave_synthesize``: an ideal far-field array signal, delay-only
  propagation with no room and no attenuation.
"""

import numpy as np

from doalab.geometry import ArrayGeometry
from doalab.signal import TimeSignal
from doalab.simulate import SINC_HALF_TAPS, _convolve
from doalab.simulate import _scatter_row as scatter_pulses


def plane_wave_synthesize(src: TimeSignal, doa_deg: float, geom: ArrayGeometry) -> TimeSignal:
    """Ideal far-field array fixture: delay-only propagation, no attenuation.

    Channel q is the source delayed by ``cos(doa) * d_q / c_s`` seconds via
    windowed-sinc fractional-delay filtering. Edge samples of advanced
    channels are filled by the filter transient only.
    """
    if src.num_channels != 1:
        raise ValueError("plane-wave source must be single-channel")
    delays = np.cos(np.deg2rad(doa_deg)) * geom.mic_distances / geom.speed_of_sound * src.sample_rate
    center = SINC_HALF_TAPS + int(np.ceil(np.max(np.abs(delays)))) + 1
    kernels = np.array([scatter_pulses(2 * center + 1, np.array([d]), np.ones(1)) for d in center + delays])
    full = _convolve(src.samples, kernels)
    return TimeSignal(full[:, center : center + src.num_samples], src.sample_rate)
