"""Reference formulations the estimators are tested against.

- The K x N x Q x Q cross-spectral path: weighted cross spectra per bin,
  steered over the grid pair by pair (``srp``, ``narrowband_srp``).
- One full pass per mask: mask the PHAT weighting, then steer
  (``reference_srp_mp``), and sum each band's MUSIC covariance from the
  spectrum (``reference_norm_music``). The library forms one product of
  the pair steering with the mask-weighted PHAT pair cross-spectra and
  weights one set of per-bin outer products, which is equal up to
  rounding.
- Output masking (``output_masking``, a mask-weighted average of a
  C x K x N narrowband spectrum) and frame aggregation
  (``aggregate_frames``), which no estimator in the library uses.
"""

from dataclasses import dataclass, field

import numpy as np

from doalab.estimate import DEFAULT_PHAT_EPSILON, MIN_BAND_WEIGHT, normalize_sps
from doalab.geometry import steering_matrix
from doalab.signal import MultichannelSpectrogram


@dataclass(frozen=True)
class PhatWeighting:
    """Non-negative spectral weighting, shape (Q, K, N)."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 3:
            raise ValueError("weighting must be a Q x K x N tensor")
        if not np.all(np.isfinite(v)) or v.min() < 0:
            raise ValueError("weighting must be finite and non-negative")


def phat_weighting(spec: MultichannelSpectrogram, epsilon: float = DEFAULT_PHAT_EPSILON) -> PhatWeighting:
    """PHAT weighting: 1/|Y| where the magnitude exceeds epsilon, else epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    mag = np.abs(spec.bins)
    return PhatWeighting(np.where(mag > epsilon, 1.0 / np.where(mag > epsilon, mag, 1.0), epsilon))


@dataclass(frozen=True)
class CrossSpectralTensor:
    """Weighted cross spectra, shape (K, N, Q, Q), Hermitian per bin."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", v)
        if v.ndim != 4 or v.shape[2] != v.shape[3]:
            raise ValueError("cross spectra must be a K x N x Q x Q tensor")


def mask_weighting(weighting: PhatWeighting, mask: np.ndarray) -> PhatWeighting:
    """Apply a (K, N) attention mask to a weighting, broadcast over channels."""
    if weighting.values.shape[1:] != mask.shape:
        raise ValueError("mask shape must match the weighting's K x N plane")
    return PhatWeighting(weighting.values * mask[None, :, :])


def cross_spectral_tensor(spec: MultichannelSpectrogram, weighting: PhatWeighting) -> CrossSpectralTensor:
    """Weighted cross-spectral tensor: ``Y W (Y W)^H`` per time-frequency bin."""
    if weighting.values.shape != spec.bins.shape:
        raise ValueError("weighting shape must match the spectrogram")
    weighted = np.transpose(spec.bins * weighting.values, (1, 2, 0))  # (K, N, Q)
    values = weighted[..., :, None] * np.conj(weighted[..., None, :])
    return CrossSpectralTensor(values)


def _srp_divisor(num_frames: int, num_bins: int, num_mics: int) -> float:
    return float(num_frames * num_bins * max(num_mics - 1, 1) ** 2)


def _frames(num_frames: int, frame_range) -> slice:
    if frame_range is None:
        return slice(0, num_frames)
    return slice(max(0, int(frame_range[0])), min(num_frames, int(frame_range[1])))


def srp(phi: CrossSpectralTensor, steering: np.ndarray, frame_range=None) -> np.ndarray:
    """Steered response power over the DOA grid, length C; ``steering`` is (C, K, Q).

    Sums ``2 Re{D*[c,k,q] Phi[k,n,q,j] D[c,k,j]}`` over frames, bins, and
    microphone pairs q < j, divided by ``N * K * (Q-1)^2``.
    """
    k, n, q, _ = phi.values.shape
    phi_v = phi.values[:, _frames(n, frame_range)]
    total = np.einsum("ckq,knqj,ckj->c", np.conj(steering), phi_v, steering, optimize=True).real
    diag = np.einsum("knqq->", phi_v).real
    return (total - diag) / _srp_divisor(phi_v.shape[1], k, q)


def narrowband_srp(phi: CrossSpectralTensor, steering: np.ndarray) -> np.ndarray:
    """Per-bin steered response power, shape (C, K, N).

    Summing over bins and frames recovers :func:`srp` exactly; the same
    divisor is applied to every bin.
    """
    k, n, q, _ = phi.values.shape
    total = np.einsum("ckq,knqj,ckj->ckn", np.conj(steering), phi.values, steering, optimize=True).real
    diag = np.einsum("knqq->kn", phi.values).real
    return (total - diag[None, :, :]) / _srp_divisor(n, k, q)


def output_masking(nb: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mask-weighted average of a C x K x N narrowband spectrum over bins and frames."""
    if nb.ndim != 3:
        raise ValueError("output masking needs a C x K x N narrowband spectrum")
    if nb.shape[1:] != mask.shape:
        raise ValueError("mask shape must match the narrowband spectrum")
    total = mask.sum()
    if total <= 0:
        raise ValueError("empty attention: mask weights sum to zero")
    return np.tensordot(nb, mask, axes=([1, 2], [0, 1])) / total


def aggregate_frames(per_frame: np.ndarray, frame_range=None) -> np.ndarray:
    """Arithmetic mean of a C x N per-frame spectrum over a frame range."""
    if per_frame.ndim != 2:
        raise ValueError("frame aggregation needs a C x N spectrum")
    return per_frame[:, _frames(per_frame.shape[1], frame_range)].mean(axis=1)


def _alias_limited(weights: np.ndarray, spec: MultichannelSpectrogram, max_freq_hz) -> np.ndarray:
    if max_freq_hz is None:
        return weights
    weights = weights.copy()
    weights[spec.bin_frequency(np.arange(spec.num_bins)) > max_freq_hz, :] = 0.0
    return weights


def reference_srp_mp(spec, mask, grid, geom, frame_range=None, max_freq_hz=None) -> np.ndarray:
    """SRP-MP as one pass per mask: weight ``Y / |Y|`` by the mask, then steer."""
    weights = _alias_limited(mask, spec, max_freq_hz)
    frames = _frames(spec.num_frames, frame_range)
    weighted = (spec.bins * mask_weighting(phat_weighting(spec), weights).values)[:, :, frames]
    steering = steering_matrix(grid, geom, spec.sample_rate, spec.window_length)
    beam = np.einsum("ckq,qkn->ckn", np.conj(steering), weighted, optimize=True)
    power = np.abs(beam) ** 2 - np.sum(np.abs(weighted) ** 2, axis=0)[None, :, :]
    q, k, n = weighted.shape
    return normalize_sps((power / _srp_divisor(n, k, q)).sum(axis=(1, 2)))


def reference_norm_music(
    spec, mask, grid, geom, num_sources=1, frame_range=None, max_freq_hz=None
) -> np.ndarray:
    """Band-normalized MUSIC with each band's covariance summed per mask."""
    q = spec.num_channels
    frames = _frames(spec.num_frames, frame_range)
    bins = spec.bins[:, :, frames]
    weights = _alias_limited(mask, spec, max_freq_hz)[:, frames]
    band_weight = weights.sum(axis=1)
    active = band_weight > MIN_BAND_WEIGHT
    yb = bins[:, active]
    cov = np.einsum("qkn,jkn,kn->kqj", yb, np.conj(yb), weights[active], optimize=True)
    cov /= band_weight[active][:, None, None]
    _, eigvecs = np.linalg.eigh(cov)
    noise = eigvecs[:, :, : q - num_sources]
    steering = steering_matrix(grid, geom, spec.sample_rate, spec.window_length)
    manifold = np.conj(steering[:, active, :])
    proj = np.einsum("ckq,kqm->ckm", manifold, noise, optimize=True)
    pseudo = 1.0 / np.maximum(np.sum(np.abs(proj) ** 2, axis=2), 1e-12)
    pseudo /= pseudo.max(axis=0, keepdims=True)
    values = pseudo @ band_weight[active] / band_weight[active].sum()
    return normalize_sps(values)
