"""DOA estimators: SRP-PHAT, attention-weighted SRP, band-normalized MUSIC.

Every steered-response-power output is a mask-weighted sum of PHAT pair
cross-spectra, the GCC-style pair sum of SRP-PHAT. With whitened bins
``A = Y / |Y|`` and steering ``D``, the per-bin power without its
direction-independent diagonal is ``|sum_q D*_q A_q|^2 - sum_q |A_q|^2 =
2 Re sum_{q<j} E_qj X_qj`` with pair cross-spectra ``X = A_q A*_j`` and pair
steering ``E = D*_q D_j`` over the P = Q(Q-1)/2 microphone pairs. A mask
scales all channels of a bin alike, so SRP-MP with mask M is ``2 Re E (X M^2)``
summed over bins and frames, SRP-PHAT the case M = 1. MUSIC averages
per-band pseudospectra of mask-weighted covariances, each normalized to max 1,
with the bands' mask weights. :class:`EstimatorCore` keeps the mask-independent
part (X, E, per-bin outer products) of one spectrogram and frame range and
evaluates a list of masks at once for any method in :data:`METHODS`: SRP-MP
is one matrix product, MUSIC one batched eigendecomposition over all
(mask, bin) pairs. Spectra are plain float arrays: one (M, C) array with a
row per mask, each row a length-C spectrum over the DOA grid.

The steering is applied so that a source whose inter-microphone delays
follow the far-field model of :func:`doalab.geometry.steering_matrix`
produces the power maximum at its own grid angle.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import ArrayGeometry, DoaGrid, steering_matrix
from .signal import MultichannelSpectrogram

DEFAULT_PHAT_EPSILON = 1e-8
MIN_BAND_WEIGHT = 1e-6
METHODS = ("srp-p", "srp-mp", "music")


def _resolve_frames(num_frames: int, frame_range) -> slice:
    if frame_range is None:
        return slice(0, num_frames)
    start, stop = frame_range
    start = max(0, int(start))
    stop = min(num_frames, int(stop))
    if stop <= start:
        raise ValueError(f"empty frame range {frame_range[0]}:{frame_range[1]} of {num_frames} frames")
    return slice(start, stop)


class EstimatorCore:
    """Mask-independent estimator state of one spectrogram, grid and frame range.

    The PHAT pair cross-spectra and the pair steering are built here,
    :attr:`steering` and :attr:`products` (MUSIC only) on first use.
    ``max_freq_hz`` zeroes the mask rows above that frequency (aliasing
    ablation) in every estimate. Masks with equal weights over the frame
    range are evaluated once.
    """

    def __init__(
        self,
        spec: MultichannelSpectrogram,
        grid: DoaGrid,
        geom: ArrayGeometry,
        frame_range=None,
        max_freq_hz: float | None = None,
    ):
        if geom.num_mics != spec.num_channels:
            raise ValueError(f"array has {geom.num_mics} microphones, the spectrogram {spec.num_channels} channels")
        self.shape = (spec.num_bins, spec.num_frames)
        self._steering_args = (grid, geom, spec.sample_rate, spec.window_length)
        self.frames = _resolve_frames(spec.num_frames, frame_range)
        self.bins = spec.bins[:, :, self.frames]
        freqs = spec.bin_frequency(np.arange(spec.num_bins))
        self.cut = None if max_freq_hz is None else freqs > max_freq_hz

        q, k, n = self.bins.shape
        first, second = np.triu_indices(q, 1)
        num_pairs = first.size
        mag = np.abs(self.bins)  # PHAT weight: 1/|Y| where the magnitude exceeds epsilon, else epsilon
        loud = mag > DEFAULT_PHAT_EPSILON
        whitened = self.bins * np.where(loud, 1.0 / np.where(loud, mag, 1.0), DEFAULT_PHAT_EPSILON)
        # X and E are kept real, [Re X; Im X] and [Re E, -Im E] per bin, so that
        # Re(E X) = Re E Re X - Im E Im X is one real product
        self.pairs = np.empty((k, 2 * num_pairs, n))  # K x 2P x N
        for p, (a, b) in enumerate(zip(first, second)):
            cross = whitened[a] * np.conj(whitened[b])
            self.pairs[:, p] = cross.real
            self.pairs[:, num_pairs + p] = cross.imag
        spacing = geom.mic_distances[second] - geom.mic_distances[first]
        delays = np.cos(np.deg2rad(grid.angles_deg))[:, None] * spacing[None, :] / geom.speed_of_sound
        phase = -2.0 * np.pi * freqs[None, :, None] * delays[:, None, :]  # (C, K, P)
        pair_steering = np.empty((grid.size, k, 2 * num_pairs))
        np.cos(phase, out=pair_steering[:, :, :num_pairs])
        np.sin(-phase, out=pair_steering[:, :, num_pairs:])
        self.pair_steering = pair_steering.reshape(grid.size, -1)  # C x (K 2P)
        self._scale = 2.0 / float(n * k * max(q - 1, 1) ** 2)

    @cached_property
    def steering(self) -> np.ndarray:
        """Steering matrix of the grid, shape (C, K, Q), from :func:`doalab.geometry.steering_matrix`."""
        return steering_matrix(*self._steering_args)

    @cached_property
    def products(self) -> np.ndarray:
        """Per-bin outer products ``Y Y^H`` over the frame range, shape (K, Q*Q, N_range)."""
        q, k, n = self.bins.shape
        return np.einsum("qkn,jkn->kqjn", self.bins, np.conj(self.bins)).reshape(k, q * q, n)

    def _check_mask(self, mask) -> None:
        """Reject a mask that is not ``None`` (all ones) or a (K, N) array of weights in [0, 1].

        Every estimate checks its masks here, over all N frames, wherever they came from.
        """
        if mask is None:
            return
        if mask.shape != self.shape:
            raise ValueError(f"mask shape {mask.shape} must match the spectrogram's {self.shape}")
        if not (mask.min() >= 0.0 and mask.max() <= 1.0):  # a NaN minimum or maximum fails both
            raise ValueError("mask weights must be finite and lie in [0, 1]")

    def _weights(self, masks) -> tuple[np.ndarray, list[int]]:
        """Distinct mask weights over the frame range, shape (M', K, N_range), and
        the index into them of each mask.

        ``None`` in ``masks`` is all ones; rows above ``max_freq_hz`` are zeroed.
        """
        stack = np.ones((len(masks), self.shape[0], self.bins.shape[2]))
        for out, mask in zip(stack, masks):
            self._check_mask(mask)
            if mask is not None:
                out[:] = mask[:, self.frames]
        if self.cut is not None:
            stack[:, self.cut, :] = 0.0
        # equal weights have equal sums, so only masks of equal sum are compared
        sums = stack.sum(axis=(1, 2))
        first = [
            next(j for j in range(i + 1) if sums[j] == sums[i] and np.array_equal(stack[j], stack[i]))
            for i in range(len(stack))
        ]
        distinct = sorted(set(first))
        return stack[distinct], [distinct.index(j) for j in first]

    def _srp_weights(self, masks) -> tuple[np.ndarray, list[int]]:
        """Squared distinct mask weights for SRP-MP and their index per mask, as :meth:`_weights`."""
        weights, index = self._weights(masks)
        if not np.all(np.any(weights.reshape(len(weights), -1), axis=1)):
            raise ValueError("empty attention: mask is all zero")
        return weights * weights, index

    def power(self, weights: np.ndarray) -> np.ndarray:
        """Unnormalized SRP-PHAT of M weight matrices over the frame range, shape (C, M).

        ``weights`` is (M, K, N_range) and multiplies the per-bin power of
        each bin and frame: ``2 Re E (X W)`` divided by ``N * K * (Q-1)^2``.
        """
        summed = self.pairs @ np.transpose(weights, (1, 2, 0))  # (K, 2P, M)
        return self._scale * (self.pair_steering @ summed.reshape(-1, len(weights)))

    def srp(self, masks) -> np.ndarray:
        """Normalized mask-modified SRP-PHAT, one row per mask; plain SRP-PHAT for ``None``.

        One pair-form product for all masks, with the squared masks as weights.
        """
        weights, index = self._srp_weights(masks)
        return np.stack([normalize_sps(v) for v in self.power(weights).T])[index]

    def music(self, masks, num_sources: int = 1) -> np.ndarray:
        """Normalized NormMUSIC, one row per mask: band-normalized, mask-weighted MUSIC.

        Per band: mask-weighted sample covariance over frames, noise subspace
        from the Q - num_sources smallest eigenvalues, pseudospectrum
        ``1 / ||E_n^H a(theta)||^2`` normalized to max 1. Bands are averaged
        with weights ``sum_n M[k, n]``; bands below a tiny total weight are
        dropped. The covariances of every distinct mask come from one
        weighted product over :attr:`products` and one batched ``eigh`` over
        every active (mask, bin) pair; the projection onto the manifold runs
        mask by mask.
        """
        q = self.bins.shape[0]
        if not 1 <= num_sources < q:
            raise ValueError(f"num_sources must satisfy 1 <= num_sources < Q = {q}, got {num_sources}")
        if self.bins.shape[2] < q:
            raise ValueError("need at least Q frames for a full-rank covariance")
        weights, index = self._weights(masks)
        band_weight = weights.sum(axis=2)  # (M', K)
        active = band_weight > MIN_BAND_WEIGHT
        if not np.all(np.any(active, axis=1)):
            raise ValueError("empty attention: mask is all zero")

        # (K, Q*Q, N) @ (K, N, M') -> (M', K, Q*Q): every mask's covariance of every bin
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
            spectra.append(normalize_sps(values))
        return np.stack(spectra)[index]

    def spectra(self, method: str, masks, num_sources: int = 1) -> np.ndarray:
        """Normalized spatial power spectra of one of :data:`METHODS`, shape (M, C).

        Row m belongs to ``masks[m]``. ``srp-p`` checks but ignores the masks,
        so its spectrum is computed once and shared; so are the spectra of masks
        with equal weights.
        """
        if method == "srp-p":
            for mask in masks:
                self._check_mask(mask)  # SRP-P ignores the masks but still rejects bad ones
            return self.srp([None])[[0] * len(masks)]
        if method == "srp-mp":
            return self.srp(masks)
        if method == "music":
            return self.music(masks, num_sources)
        raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")

    def per_frame(self, method: str, mask) -> np.ndarray:
        """Per-frame sums over bins of the SRP spectrum behind a pick, shape (C, N_range).

        Unnormalized; ``srp-p`` checks but ignores the mask. MUSIC has no per-frame form.
        """
        if method not in ("srp-p", "srp-mp"):
            raise ValueError(f"no per-frame spectrum for method {method!r}; valid: srp-p, srp-mp")
        if method == "srp-p":
            self._check_mask(mask)  # SRP-P ignores the mask but still rejects a bad one
            mask = None
        weights = self._srp_weights([mask])[0][0]
        weighted = self.pairs * weights[:, None, :]  # (K, 2P, N)
        return self._scale * (self.pair_steering @ weighted.reshape(-1, weighted.shape[2]))


def normalize_sps(values: np.ndarray) -> np.ndarray:
    """Peak 1 in the same order: divide by a positive maximum, else map [min, max] onto [0, 1]."""
    peak = values.max()
    if peak > 0:
        return values / peak
    low = values.min()
    if low == peak:
        raise ValueError("cannot normalize an all-zero spectrum" if peak == 0 else "cannot normalize a constant negative spectrum")
    return (values - low) / (peak - low)


def pick_doa(sps: np.ndarray, grid: DoaGrid) -> float:
    """Grid angle of the maximum of a length-C spectrum; ties break toward the lowest index."""
    if sps.ndim != 1 or sps.size != grid.size:
        raise ValueError("spectrum length must match the grid")
    return float(grid.angles_deg[int(np.argmax(sps))])


def sps_loss(est: np.ndarray, clean: np.ndarray) -> float:
    """Mean squared difference of two spatial power spectra normalized to peak 1."""
    if est.shape != clean.shape:
        raise ValueError("spectrum length mismatch")
    if not (np.isclose(est.max(), 1.0) and np.isclose(clean.max(), 1.0)):
        raise ValueError("sps_loss expects normalized spectra with peak 1")
    return float(np.mean((est - clean) ** 2))


def srp_flops(num_bins: int, num_directions: int, num_mics: int) -> int:
    """Flop count of one SRP-PHAT frame per the published complexity model.

    The model counts the GCC-style pair sum, which is how
    :class:`EstimatorCore` computes SRP: per bin it steers the Q(Q-1)/2
    microphone pairs, where the model's pair factor is (Q-1)^2/2.
    """
    if min(num_bins, num_directions, num_mics) < 1:
        raise ValueError("all sizes must be at least 1")
    k, c, q = num_bins, num_directions, num_mics
    pairs_term = ((q - 1) ** 2 / 2.0) * (4 * k * c + 6 * k)
    return int(round(pairs_term + 5 * k * q))
