"""DOA estimators: SRP-PHAT, attention-weighted SRP, band-normalized MUSIC.

Every steered-response-power output is a weighted sum of one narrowband
spectrum NB[c, k, n], the per-bin steered power of the unmasked PHAT
spectrum. A mask scales all channels of a bin alike, so SRP-MP with mask
M is ``sum_kn M^2 NB``, SRP-PHAT is the case M = 1, and output masking is
``sum_kn M NB / sum_kn M``. MUSIC averages per-band pseudospectra of
mask-weighted covariances, each normalized to max 1, with the bands' mask
weights. :class:`EstimatorCore` keeps the mask-independent part (steering,
NB, per-bin outer products) of one spectrogram and frame range and
evaluates a list of masks at once: SRP-MP for M masks is one matrix
product, MUSIC one batched eigendecomposition over all (mask, bin) pairs.
The single-mask functions are the case M = 1.

The steering is applied so that a source whose inter-microphone delays
follow the far-field model of :func:`doalab.geometry.steering_matrix`
produces the power maximum at its own grid angle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .attention import AttentionMask
from .geometry import ArrayGeometry, DoaGrid, steering_matrix
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


def _phat(bins: np.ndarray, epsilon: float) -> np.ndarray:
    mag = np.abs(bins)
    return np.where(mag > epsilon, 1.0 / np.where(mag > epsilon, mag, 1.0), epsilon)


def phat_weighting(spec: MultichannelSpectrogram, epsilon: float = DEFAULT_PHAT_EPSILON) -> PhatWeighting:
    """PHAT weighting: 1/|Y| where the magnitude exceeds epsilon, else epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return PhatWeighting(_phat(spec.bins, epsilon))


def _resolve_frames(num_frames: int, frame_range) -> slice:
    if frame_range is None:
        return slice(0, num_frames)
    start, stop = frame_range
    start = max(0, int(start))
    stop = min(num_frames, int(stop))
    if stop <= start:
        raise ValueError("empty frame range")
    return slice(start, stop)


def narrowband(bins: np.ndarray, steering: np.ndarray, epsilon: float = DEFAULT_PHAT_EPSILON) -> np.ndarray:
    """Per-bin SRP-PHAT of a Q x K x N spectrum under C x K x Q steering values.

    Per bin ``|sum_q D*_q A_q|^2 - sum_q |A_q|^2`` with ``A = Y / |Y|``: the
    pair sum of the cross-spectral formulation without forming it. Every
    bin is divided by ``N * K * (Q-1)^2``; shape (C, K, N).
    """
    weighted = bins * _phat(bins, epsilon)
    beam = np.einsum("ckq,qkn->ckn", np.conj(steering), weighted, optimize=True)
    power = np.abs(beam) ** 2 - np.sum(np.abs(weighted) ** 2, axis=0)[None, :, :]
    q, k, n = weighted.shape
    return power / float(n * k * max(q - 1, 1) ** 2)


def combine(nb: np.ndarray, weights: np.ndarray, per_frame: bool = False) -> np.ndarray:
    """Sum of a C x K x N narrowband spectrum weighted by a K x N matrix.

    Returns the length-C sum over bins and frames, or with ``per_frame``
    the C x N sums over bins.
    """
    if per_frame:
        return np.einsum("ckn,kn->cn", nb, weights)
    return np.tensordot(nb, weights, axes=([1, 2], [0, 1]))


class EstimatorCore:
    """Mask-independent estimator state of one spectrogram, grid and frame range.

    The steering matrix is built here, :attr:`nb` and :attr:`products` on
    first use. ``max_freq_hz`` zeroes the mask rows above that frequency
    (aliasing ablation) in every estimate.
    """

    def __init__(
        self,
        spec: MultichannelSpectrogram,
        grid: DoaGrid,
        geom: ArrayGeometry,
        frame_range=None,
        epsilon: float = DEFAULT_PHAT_EPSILON,
        max_freq_hz: float | None = None,
    ):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.shape = (spec.num_bins, spec.num_frames)
        self.frames = _resolve_frames(spec.num_frames, frame_range)
        self.bins = spec.bins[:, :, self.frames]
        self.epsilon = epsilon
        self.steering = steering_matrix(
            grid, geom, spec.num_bins, spec.sample_rate, spec.window_length
        ).values
        self.cut = None
        if max_freq_hz is not None:
            self.cut = spec.bin_frequency(np.arange(spec.num_bins)) > max_freq_hz

    @cached_property
    def nb(self) -> np.ndarray:
        """Narrowband SRP-PHAT over the frame range, shape (C, K, N_range)."""
        return narrowband(self.bins, self.steering, self.epsilon)

    @cached_property
    def products(self) -> np.ndarray:
        """Per-bin outer products ``Y Y^H`` over the frame range, shape (K, Q*Q, N_range)."""
        q, k, n = self.bins.shape
        return np.einsum("qkn,jkn->kqjn", self.bins, np.conj(self.bins)).reshape(k, q * q, n)

    def _weights(self, masks) -> np.ndarray:
        """Mask weights over the frame range, shape (M, K, N_range).

        ``None`` in ``masks`` is all ones; rows above ``max_freq_hz`` are zeroed.
        """
        stack = np.ones((len(masks), self.shape[0], self.bins.shape[2]))
        for out, mask in zip(stack, masks):
            if mask is None:
                continue
            if mask.shape != self.shape:
                raise ValueError(f"mask shape {mask.shape} must match the spectrogram's {self.shape}")
            out[:] = mask.weights[:, self.frames]
        if self.cut is not None:
            stack[:, self.cut, :] = 0.0
        return stack

    def srp_weights(self, masks) -> np.ndarray:
        """Weights of :attr:`nb` for SRP-MP, the squared masks, shape (M, K, N_range)."""
        weights = self._weights(masks)
        if not np.all(np.any(weights.reshape(len(masks), -1), axis=1)):
            raise ValueError("empty attention: mask is all zero")
        return weights * weights

    def srp(self, masks) -> list[SpatialPowerSpectrum]:
        """Normalized mask-modified SRP-PHAT per mask; plain SRP-PHAT for ``None``.

        One product of the C x (K N) narrowband spectrum with the M x (K N)
        squared masks.
        """
        c = self.nb.shape[0]
        values = self.nb.reshape(c, -1) @ self.srp_weights(masks).reshape(len(masks), -1).T
        return [normalize_sps(SpatialPowerSpectrum(v)) for v in values.T]

    def music(self, masks, num_sources: int = 1) -> list[SpatialPowerSpectrum]:
        """Normalized band-weighted MUSIC per mask; see :func:`norm_music`.

        The covariances of every mask come from one weighted product over
        :attr:`products` and one batched ``eigh`` over every active
        (mask, bin) pair; the projection onto the manifold runs mask by mask.
        """
        q = self.bins.shape[0]
        if not 1 <= num_sources < q:
            raise ValueError("num_sources must satisfy 1 <= num_sources < Q")
        if self.bins.shape[2] < q:
            raise ValueError("need at least Q frames for a full-rank covariance")
        weights = self._weights(masks)
        band_weight = weights.sum(axis=2)  # (M, K)
        active = band_weight > MIN_BAND_WEIGHT
        if not np.all(np.any(active, axis=1)):
            raise ValueError("empty attention: mask is all zero")

        # (K, Q*Q, N) @ (K, N, M) -> (M, K, Q*Q): every mask's covariance of every bin
        cov = np.moveaxis(self.products @ weights.transpose(1, 2, 0), 2, 0)
        cov = cov.reshape(*active.shape, q, q)[active]
        cov /= band_weight[active][:, None, None]
        _, eigvecs = np.linalg.eigh(cov)
        noise = eigvecs[:, :, : q - num_sources]  # ascending eigenvalues

        # the array manifold of the delay model is the conjugate steering column
        manifold = np.conj(self.steering).transpose(1, 0, 2)  # (K, C, Q)
        spectra = []
        stop = 0
        for bands, band_active in zip(band_weight, active):
            start, stop = stop, stop + np.count_nonzero(band_active)
            proj = manifold[band_active] @ noise[start:stop]  # (K_a, C, Q - num_sources)
            pseudo = 1.0 / np.maximum(np.sum(np.abs(proj) ** 2, axis=2), 1e-12)
            pseudo /= pseudo.max(axis=1, keepdims=True)
            values = bands[band_active] @ pseudo / bands[band_active].sum()
            spectra.append(normalize_sps(SpatialPowerSpectrum(values)))
        return spectra


def output_masking(nb: SpatialPowerSpectrum, mask: AttentionMask) -> SpatialPowerSpectrum:
    """Mask-weighted average of narrowband spectra over bins and frames."""
    if nb.values.ndim != 3:
        raise ValueError("output masking needs a C x K x N narrowband spectrum")
    if nb.values.shape[1:] != mask.shape:
        raise ValueError("mask shape must match the narrowband spectrum")
    total = mask.weights.sum()
    if total <= 0:
        raise ValueError("empty attention: mask weights sum to zero")
    return SpatialPowerSpectrum(combine(nb.values, mask.weights) / total)


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
    return EstimatorCore(spec, grid, geom, frame_range, epsilon, max_freq_hz).srp([mask])[0]


def srp_phat(
    spec: MultichannelSpectrogram,
    grid: DoaGrid,
    geom: ArrayGeometry,
    frame_range=None,
    epsilon: float = DEFAULT_PHAT_EPSILON,
    max_freq_hz: float | None = None,
) -> SpatialPowerSpectrum:
    """Plain SRP-PHAT: the mask-modified pipeline with an all-ones mask."""
    return EstimatorCore(spec, grid, geom, frame_range, epsilon, max_freq_hz).srp([None])[0]


def srp_narrowband(
    spec: MultichannelSpectrogram,
    grid: DoaGrid,
    geom: ArrayGeometry,
    frame_range=None,
    epsilon: float = DEFAULT_PHAT_EPSILON,
) -> SpatialPowerSpectrum:
    """Per-bin SRP-PHAT spectra (C x K x N) for narrowband combination."""
    return SpatialPowerSpectrum(EstimatorCore(spec, grid, geom, frame_range, epsilon).nb)


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
    core = EstimatorCore(spec, grid, geom, frame_range, max_freq_hz=max_freq_hz)
    return core.music([mask], num_sources)[0]
