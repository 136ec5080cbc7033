"""DOA estimators: SRP-PHAT, attention-weighted SRP, band-normalized MUSIC.

The steered-response-power core follows the mask-modified PHAT pipeline:
magnitude-normalize the spectrum, optionally downweight bins with an
attention mask, form the cross-spectral tensor, steer it over the DOA
grid, and pick the direction of maximum power. MUSIC forms a per-band
mask-weighted spatial covariance, projects the grid steering vectors onto
the noise subspace, normalizes each band's pseudospectrum, and averages
bands with their mask weights.

The steering is applied so that a source whose inter-microphone delays
follow the far-field model of :func:`doalab.geometry.steering_matrix`
produces the power maximum at its own grid angle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionMask, ones_mask
from .geometry import ArrayGeometry, DoaGrid, SteeringMatrix, steering_matrix
from .signal import MultichannelSpectrogram

DEFAULT_PHAT_EPSILON = 1e-8
MIN_BAND_WEIGHT = 1e-6


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


@dataclass(frozen=True)
class CrossSpectralTensor:
    """Weighted cross spectra, shape (K, N, Q, Q), Hermitian per bin."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", v)
        if v.ndim != 4 or v.shape[2] != v.shape[3]:
            raise ValueError("cross spectra must be a K x N x Q x Q tensor")


@dataclass(frozen=True)
class SpatialPowerSpectrum:
    """DOA pseudo-likelihood: length C, per-frame C x N, or narrowband C x K x N."""

    values: np.ndarray = field(repr=False)
    normalized: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim not in (1, 2, 3):
            raise ValueError("spatial power spectrum must have 1 to 3 dimensions")
        if self.normalized and v.size and not np.isclose(v.max(), 1.0):
            raise ValueError("normalized spectrum must have maximum 1")


def phat_weighting(spec: MultichannelSpectrogram, epsilon: float = DEFAULT_PHAT_EPSILON) -> PhatWeighting:
    """PHAT weighting: 1/|Y| where the magnitude exceeds epsilon, else epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    mag = np.abs(spec.bins)
    values = np.where(mag > epsilon, 1.0 / np.where(mag > epsilon, mag, 1.0), epsilon)
    return PhatWeighting(values)


def mask_weighting(weighting: PhatWeighting, mask: AttentionMask) -> PhatWeighting:
    """Apply an attention mask to a weighting, broadcast over channels."""
    if weighting.values.shape[1:] != mask.shape:
        raise ValueError("mask shape must match the weighting's K x N plane")
    return PhatWeighting(weighting.values * mask.weights[None, :, :])


def cross_spectral_tensor(spec: MultichannelSpectrogram, weighting: PhatWeighting) -> CrossSpectralTensor:
    """Weighted cross-spectral tensor: ``Y W (Y W)^H`` per time-frequency bin."""
    if weighting.values.shape != spec.bins.shape:
        raise ValueError("weighting shape must match the spectrogram")
    weighted = np.transpose(spec.bins * weighting.values, (1, 2, 0))  # (K, N, Q)
    values = weighted[..., :, None] * np.conj(weighted[..., None, :])
    return CrossSpectralTensor(values)


def _resolve_frames(num_frames: int, frame_range) -> slice:
    if frame_range is None:
        return slice(0, num_frames)
    start, stop = frame_range
    start = max(0, int(start))
    stop = min(num_frames, int(stop))
    if stop <= start:
        raise ValueError("empty frame range")
    return slice(start, stop)


def _srp_divisor(num_frames: int, num_bins: int, num_mics: int) -> float:
    return float(num_frames * num_bins * max(num_mics - 1, 1) ** 2)


def srp(phi: CrossSpectralTensor, steering: SteeringMatrix, frame_range=None) -> SpatialPowerSpectrum:
    """Steered response power over the DOA grid.

    Sums ``2 Re{D*[c,k,q] Phi[k,n,q,j] D[c,k,j]}`` over frames, bins, and
    microphone pairs q < j, divided by ``N * K * (Q-1)^2``.
    """
    k, n, q, _ = phi.values.shape
    frames = _resolve_frames(n, frame_range)
    phi_v = phi.values[:, frames]
    d = steering.values
    total = np.einsum("ckq,knqj,ckj->c", np.conj(d), phi_v, d, optimize=True).real
    diag = np.einsum("knqq->", phi_v).real
    values = (total - diag) / _srp_divisor(phi_v.shape[1], k, q)
    return SpatialPowerSpectrum(values)


def narrowband_srp(phi: CrossSpectralTensor, steering: SteeringMatrix) -> SpatialPowerSpectrum:
    """Per-bin steered response power, shape (C, K, N).

    Summing over bins and frames recovers :func:`srp` exactly; the same
    divisor is applied to every bin.
    """
    k, n, q, _ = phi.values.shape
    d = steering.values
    total = np.einsum("ckq,knqj,ckj->ckn", np.conj(d), phi.values, d, optimize=True).real
    diag = np.einsum("knqq->kn", phi.values).real
    values = (total - diag[None, :, :]) / _srp_divisor(n, k, q)
    return SpatialPowerSpectrum(values)


def _steered_narrowband(spec: MultichannelSpectrogram, weighting: PhatWeighting, steering: SteeringMatrix) -> np.ndarray:
    """Fast path for the per-bin SRP of a weighted spectrogram.

    Uses ``|sum_q D*_q A_q|^2 - sum_q |A_q|^2`` per bin, which equals the
    pair sum of the cross-spectral formulation without materializing it.
    """
    weighted = spec.bins * weighting.values  # (Q, K, N)
    beam = np.einsum("ckq,qkn->ckn", np.conj(steering.values), weighted, optimize=True)
    power = np.abs(beam) ** 2 - np.sum(np.abs(weighted) ** 2, axis=0)[None, :, :]
    q, k, n = weighted.shape
    return power / _srp_divisor(n, k, q)


def output_masking(narrowband: SpatialPowerSpectrum, mask: AttentionMask) -> SpatialPowerSpectrum:
    """Mask-weighted average of narrowband spectra over bins and frames."""
    if narrowband.values.ndim != 3:
        raise ValueError("output masking needs a C x K x N narrowband spectrum")
    if narrowband.values.shape[1:] != mask.shape:
        raise ValueError("mask shape must match the narrowband spectrum")
    total = mask.weights.sum()
    if total <= 0:
        raise ValueError("empty attention: mask weights sum to zero")
    values = np.tensordot(narrowband.values, mask.weights, axes=([1, 2], [0, 1])) / total
    return SpatialPowerSpectrum(values)


def normalize_sps(sps: SpatialPowerSpectrum) -> SpatialPowerSpectrum:
    """Divide by the maximum so the peak sits at 1."""
    peak = sps.values.max()
    if peak == 0:
        raise ValueError("cannot normalize an all-zero spectrum")
    return SpatialPowerSpectrum(sps.values / peak, normalized=True)


def aggregate_frames(per_frame: SpatialPowerSpectrum, frame_range=None) -> SpatialPowerSpectrum:
    """Arithmetic mean of a C x N per-frame spectrum over a frame range."""
    if per_frame.values.ndim != 2:
        raise ValueError("frame aggregation needs a C x N spectrum")
    frames = _resolve_frames(per_frame.values.shape[1], frame_range)
    return SpatialPowerSpectrum(per_frame.values[:, frames].mean(axis=1))


def pick_doa(sps: SpatialPowerSpectrum, grid: DoaGrid) -> float:
    """Grid angle of the spectrum maximum; ties break toward the lowest index."""
    if sps.values.ndim != 1 or sps.values.size != grid.size:
        raise ValueError("spectrum length must match the grid")
    return float(grid.angles_deg[int(np.argmax(sps.values))])


def sps_loss(est: SpatialPowerSpectrum, clean: SpatialPowerSpectrum) -> float:
    """Mean squared difference of two normalized spatial power spectra."""
    if not (est.normalized and clean.normalized):
        raise ValueError("sps_loss expects normalized spectra")
    if est.values.shape != clean.values.shape:
        raise ValueError("spectrum length mismatch")
    return float(np.mean((est.values - clean.values) ** 2))


def srp_flops(num_bins: int, num_directions: int, num_mics: int) -> int:
    """Flop count of one SRP-PHAT frame per the published complexity model."""
    if min(num_bins, num_directions, num_mics) < 1:
        raise ValueError("all sizes must be at least 1")
    k, c, q = num_bins, num_directions, num_mics
    pairs_term = ((q - 1) ** 2 / 2.0) * (4 * k * c + 6 * k)
    return int(round(pairs_term + 5 * k * q))


def _grid_steering(
    spec: MultichannelSpectrogram, grid: DoaGrid, geom: ArrayGeometry
) -> SteeringMatrix:
    return steering_matrix(grid, geom, spec.num_bins, spec.sample_rate, spec.window_length)


def _alias_limited(mask: AttentionMask, spec: MultichannelSpectrogram, geom: ArrayGeometry, max_freq_hz) -> AttentionMask:
    """Optionally zero mask rows above a frequency limit (aliasing ablation)."""
    if max_freq_hz is None:
        return mask
    freqs = spec.bin_frequency(np.arange(spec.num_bins))
    weights = mask.weights.copy()
    weights[freqs > max_freq_hz, :] = 0.0
    return AttentionMask(weights)


def srp_mp(
    spec: MultichannelSpectrogram,
    mask: AttentionMask,
    grid: DoaGrid,
    geom: ArrayGeometry,
    frame_range=None,
    epsilon: float = DEFAULT_PHAT_EPSILON,
    max_freq_hz: float | None = None,
) -> SpatialPowerSpectrum:
    """Mask-modified SRP-PHAT pipeline, returning a normalized spectrum."""
    mask = _alias_limited(mask, spec, geom, max_freq_hz)
    if not np.any(mask.weights):
        raise ValueError("empty attention: mask is all zero")
    weighting = mask_weighting(phat_weighting(spec, epsilon), mask)
    steering = _grid_steering(spec, grid, geom)
    frames = _resolve_frames(spec.num_frames, frame_range)
    sub = MultichannelSpectrogram(
        spec.bins[:, :, frames], spec.sample_rate, spec.hop, spec.window_length
    )
    sub_w = PhatWeighting(weighting.values[:, :, frames])
    values = _steered_narrowband(sub, sub_w, steering).sum(axis=(1, 2))
    return normalize_sps(SpatialPowerSpectrum(values))


def srp_phat(
    spec: MultichannelSpectrogram,
    grid: DoaGrid,
    geom: ArrayGeometry,
    frame_range=None,
    epsilon: float = DEFAULT_PHAT_EPSILON,
    max_freq_hz: float | None = None,
) -> SpatialPowerSpectrum:
    """Plain SRP-PHAT: the mask-modified pipeline with an all-ones mask."""
    return srp_mp(
        spec,
        ones_mask(spec.num_bins, spec.num_frames),
        grid,
        geom,
        frame_range=frame_range,
        epsilon=epsilon,
        max_freq_hz=max_freq_hz,
    )


def srp_narrowband(
    spec: MultichannelSpectrogram,
    grid: DoaGrid,
    geom: ArrayGeometry,
    frame_range=None,
    epsilon: float = DEFAULT_PHAT_EPSILON,
) -> SpatialPowerSpectrum:
    """Per-bin SRP-PHAT spectra (C x K x N) for narrowband combination."""
    steering = _grid_steering(spec, grid, geom)
    frames = _resolve_frames(spec.num_frames, frame_range)
    sub = MultichannelSpectrogram(
        spec.bins[:, :, frames], spec.sample_rate, spec.hop, spec.window_length
    )
    values = _steered_narrowband(sub, phat_weighting(sub, epsilon), steering)
    return SpatialPowerSpectrum(values)


def norm_music(
    spec: MultichannelSpectrogram,
    mask: AttentionMask,
    grid: DoaGrid,
    geom: ArrayGeometry,
    num_sources: int = 1,
    frame_range=None,
    max_freq_hz: float | None = None,
) -> SpatialPowerSpectrum:
    """MUSIC with per-band pseudospectrum normalization and mask weighting.

    Per band: mask-weighted sample covariance over frames, noise subspace
    from the Q - num_sources smallest eigenvalues, pseudospectrum
    ``1 / ||E_n^H a(theta)||^2`` normalized to max 1. Bands are averaged
    with weights ``sum_n M[k, n]``; bands below a tiny total weight are
    dropped.
    """
    q = spec.num_channels
    if not 1 <= num_sources < q:
        raise ValueError("num_sources must satisfy 1 <= num_sources < Q")
    frames = _resolve_frames(spec.num_frames, frame_range)
    bins = spec.bins[:, :, frames]
    if bins.shape[2] < q:
        raise ValueError("need at least Q frames for a full-rank covariance")
    mask = _alias_limited(mask, spec, geom, max_freq_hz)
    weights = mask.weights[:, frames]
    band_weight = weights.sum(axis=1)
    active = band_weight > MIN_BAND_WEIGHT
    if not np.any(active):
        raise ValueError("empty attention: mask is all zero")

    # stacked covariance per active band: (K_a, Q, Q)
    yb = bins[:, active]
    wb = weights[active]
    cov = np.einsum("qkn,jkn,kn->kqj", yb, np.conj(yb), wb, optimize=True)
    cov /= band_weight[active][:, None, None]
    eigvals, eigvecs = np.linalg.eigh(cov)
    noise = eigvecs[:, :, : q - num_sources]  # ascending eigenvalues

    steering = _grid_steering(spec, grid, geom)
    # the array manifold of the delay model is the conjugate steering column
    manifold = np.conj(steering.values[:, active, :])  # (C, K_a, Q)
    proj = np.einsum("ckq,kqm->ckm", manifold, noise, optimize=True)
    denom = np.sum(np.abs(proj) ** 2, axis=2)
    pseudo = 1.0 / np.maximum(denom, 1e-12)
    pseudo /= pseudo.max(axis=0, keepdims=True)
    values = pseudo @ band_weight[active] / band_weight[active].sum()
    return normalize_sps(SpatialPowerSpectrum(values))
