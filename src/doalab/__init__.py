"""doalab: signal-aware DOA estimation for uniform linear microphone arrays.

The package bundles a reverberant scene simulator with ground truth, oracle
attention masks, attention-weighted steered-response-power and MUSIC
estimators, and a seeded evaluation harness with a CLI front end.
"""

__version__ = "0.1.0"

from .geometry import ArrayGeometry, DoaGrid, make_grid, steering_matrix
from .signal import MultichannelSpectrogram, TimeSignal, stft

__all__ = [
    "ArrayGeometry",
    "DoaGrid",
    "MultichannelSpectrogram",
    "TimeSignal",
    "make_grid",
    "steering_matrix",
    "stft",
]
