"""Attention masks: oracle masks from ground truth and synthetic band masks.

A mask is a plain float (K, N) array of weights in [0, 1] that downweights
time-frequency bins dominated by noise, interference, or reverberation
before DOA estimation. Oracle masks are computed at microphone 1 from the
ground-truth direct-path spectrogram; band-selection masks activate fixed
frequency rows. :class:`doalab.estimate.EstimatorCore` checks each mask's
shape and range once in every estimate, for every method.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .signal import MultichannelSpectrogram, is_integer

MASK_MAGIC = b"DOAMASK1"


def _check_shapes(direct: MultichannelSpectrogram, mixture: MultichannelSpectrogram):
    if direct.bins.shape != mixture.bins.shape:
        raise ValueError("direct and mixture spectrograms must have equal shapes")


def psm_mask(direct: MultichannelSpectrogram, mixture: MultichannelSpectrogram) -> np.ndarray:
    """Phase-sensitive oracle mask at microphone 1.

    Per bin: ``max(0, sqrt(|Xd|^2 / (|Xd|^2 + |Y - Xd|^2)) * cos(angle(Xd)
    - angle(Y)))``. Bins where both energies vanish get weight 0, since an
    inactive bin should receive no attention.
    """
    _check_shapes(direct, mixture)
    xd = direct.bins[0]
    y = mixture.bins[0]
    num = np.abs(xd) ** 2
    den = num + np.abs(y - xd) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.sqrt(np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0))
        cos_term = np.cos(np.angle(xd) - np.angle(y))
    weights = np.maximum(0.0, ratio * cos_term)
    return np.minimum(weights, 1.0)


def magnitude_ratio_mask(direct: MultichannelSpectrogram, mixture: MultichannelSpectrogram) -> np.ndarray:
    """Clipped magnitude-ratio oracle mask at microphone 1: ``min(1, |Xd| / |Y|)``.

    Bins with zero mixture magnitude get weight 0; a ratio that overflows,
    over a subnormal mixture magnitude, is clipped to 1 like any ratio above 1.
    """
    _check_shapes(direct, mixture)
    mag_d = np.abs(direct.bins[0])
    mag_y = np.abs(mixture.bins[0])
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ratio = np.where(mag_y > 0, mag_d / np.where(mag_y > 0, mag_y, 1.0), 0.0)
    return np.minimum(1.0, ratio)


def binarize(mask: np.ndarray, v_thr: float) -> np.ndarray:
    """Threshold a mask to {0, 1}: weights strictly below ``v_thr`` become 0."""
    if not 0.0 <= v_thr <= 1.0:
        raise ValueError("v_thr must lie in [0, 1]")
    return np.where(mask < v_thr, 0.0, 1.0)


def random_band_mask(num_bins: int, num_frames: int, num_bands: int, seed: int) -> np.ndarray:
    """Binary mask activating ``num_bands`` randomly chosen frequency rows.

    The same band set is used for all frames, mirroring per-file random
    band selection.
    """
    counts = is_integer(num_bins, 1) and is_integer(num_frames, 1) and is_integer(num_bands, 0, num_bins)
    if not (counts and is_integer(seed, 0)):
        raise ValueError(f"num_bins and num_frames must be integers >= 1, num_bands one in [0, num_bins] and seed "
                         f"one >= 0, got {num_bins!r}, {num_frames!r}, {num_bands!r} and seed {seed!r}")
    rng = np.random.default_rng(seed)
    bands = rng.choice(num_bins, size=num_bands, replace=False)
    weights = np.zeros((num_bins, num_frames))
    weights[bands, :] = 1.0
    return weights


def band_range_mask(num_bins: int, num_frames: int, lo: int, hi: int) -> np.ndarray:
    """Binary mask activating the contiguous frequency rows lo..hi inclusive."""
    if not (is_integer(num_bins, 1) and is_integer(num_frames, 1) and is_integer(lo, 0) and is_integer(hi, lo, num_bins - 1)):
        raise ValueError(f"num_bins and num_frames must be integers >= 1 and lo, hi ones with 0 <= lo <= hi < num_bins, "
                         f"got {num_bins!r}, {num_frames!r}, {lo!r} and {hi!r}")
    weights = np.zeros((num_bins, num_frames))
    weights[lo : hi + 1, :] = 1.0
    return weights


def save_mask(path, mask: np.ndarray) -> None:
    """Write a (K, N) mask as raw little-endian float32 with a 16-byte header.

    Layout: magic ``DOAMASK1``, u32 K, u32 N, then K*N float32 values in
    row-major order. The format is the interchange point for externally
    produced (e.g. learned) attention.
    """
    k, n = mask.shape
    with open(path, "wb") as fh:
        fh.write(MASK_MAGIC)
        fh.write(struct.pack("<II", k, n))
        fh.write(mask.astype("<f4").tobytes())


def load_mask(path) -> np.ndarray:
    """Read a mask written by :func:`save_mask`; the file size must match its header."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:8] != MASK_MAGIC:
            raise ValueError("not a DOAMASK1 file")
        k, n = struct.unpack("<II", header[8:])
        size, expected = os.fstat(fh.fileno()).st_size, 16 + 4 * k * n
        if size != expected:
            raise ValueError(f"mask file {path} is {size} bytes, but its {k} x {n} header needs {expected}")
        data = np.frombuffer(fh.read(), dtype="<f4")
    return data.astype(np.float64).reshape(k, n)
