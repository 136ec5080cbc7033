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
with the bands' mask weights, over the bands whose covariance can have rank
``num_sources``. The methods differ only in the weight they give a mask M,
its power in :data:`METHODS`: M^0 = 1 (SRP-PHAT), M^2 (SRP-MP) or M (MUSIC).

:class:`EstimatorCore` keeps the mask-independent part (X, E, per-bin outer
products) of one spectrogram and frame range. The pair steering (SRP) and
the steering matrix (MUSIC) depend only on the grid, the array and the
STFT, so each is built once per geometry, when a method first reads it, and
every core shares them. Its one entry,
:meth:`EstimatorCore.spectra`, checks and weights a list of masks in one
place and evaluates them all at once: SRP is one matrix product, MUSIC one
batched eigendecomposition over all (mask, bin) pairs. Spectra are plain
float arrays: one (M, C) array, a row per mask over the DOA grid. The pair
steering and :func:`doalab.geometry.steering_matrix` share the phase of
:func:`doalab.geometry.far_field_phase`, so a source that follows that delay
model produces the power maximum at its own grid angle. A frequency limit
``max_freq_hz`` must pass :func:`is_frequency_limit`, the rule of the eval config too.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .geometry import ArrayGeometry, DoaGrid, far_field_phase, steering_matrix
from .signal import MultichannelSpectrogram, is_finite_number, is_integer

DEFAULT_PHAT_EPSILON = 1e-8
MIN_BAND_WEIGHT = 1e-6  # MUSIC drops bands below this share of the mask's largest band weight
METHODS = {"srp-p": 0, "srp-mp": 2, "music": 1}  # each method weights a mask M by M ** power


def _resolve_frames(num_frames: int, frame_range) -> slice:
    """The slice of ``frame_range``, integers ``(A, B)`` with ``0 <= A < B <= num_frames``, or ``None`` for all."""
    start, stop = (0, num_frames) if frame_range is None else frame_range
    if not (is_integer(start, 0) and is_integer(stop, start + 1, num_frames)):
        raise ValueError(f"frame range {start}:{stop} must be integers A:B with 0 <= A < B <= {num_frames} frames")
    return slice(start, stop)


def is_frequency_limit(max_freq_hz, first_bin_hz: float) -> bool:
    """Whether ``max_freq_hz`` is ``None`` or a finite number >= bin 1's ``first_bin_hz``; below it only DC is left."""
    return max_freq_hz is None or is_finite_number(max_freq_hz, first_bin_hz, closed=True)


@lru_cache(maxsize=8)  # a run uses one geometry, so a few entries suffice
def _pair_steering_table(
    angles_deg: tuple, mic_distances: tuple, speed_of_sound: float, sample_rate: float, window_length: int
) -> np.ndarray:
    """Read-only pair steering (C, K 2P) of one geometry.

    It holds ``[Re E, -Im E]`` per bin, with E = D*_q D_j over the pairs
    q < j. It depends only on these plain values, so it is built once per
    geometry and shared by every core that uses it.
    """
    grid = DoaGrid(np.array(angles_deg))
    geom = ArrayGeometry(np.array(mic_distances), speed_of_sound)
    freqs = np.arange(window_length // 2 + 1) * sample_rate / window_length
    first, second = np.triu_indices(geom.num_mics, 1)
    spacing = geom.mic_distances[second] - geom.mic_distances[first]
    phase = far_field_phase(grid, spacing, speed_of_sound, freqs)  # (C, K, P)
    num_pairs = first.size
    pair_steering = np.empty((grid.size, freqs.size, 2 * num_pairs))
    np.cos(phase, out=pair_steering[:, :, :num_pairs])
    np.sin(-phase, out=pair_steering[:, :, num_pairs:])
    table = pair_steering.reshape(grid.size, -1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def _steering_table(
    angles_deg: tuple, mic_distances: tuple, speed_of_sound: float, sample_rate: float, window_length: int
) -> np.ndarray:
    """Read-only :func:`doalab.geometry.steering_matrix` (C, K, Q) of one geometry, keyed like
    :func:`_pair_steering_table`; only MUSIC reads it."""
    geom = ArrayGeometry(np.array(mic_distances), speed_of_sound)
    table = steering_matrix(DoaGrid(np.array(angles_deg)), geom, sample_rate, window_length)
    table.setflags(write=False)
    return table


class EstimatorCore:
    """Mask-independent estimator state of one spectrogram, grid and frame range.

    The constructor only checks its arguments and takes the frame range.
    Every table is built on first use and kept: :attr:`pairs` (the PHAT pair
    cross-spectra, SRP only), :attr:`products` (MUSIC only), and the
    geometry's :attr:`pair_steering` (SRP) and :attr:`steering` (MUSIC),
    which come from :func:`_pair_steering_table` and :func:`_steering_table`
    and so are built once per geometry and shared between cores. Estimates
    come from :meth:`spectra`, per-frame SRP sums from :meth:`per_frame`.
    ``max_freq_hz`` (see :func:`is_frequency_limit`) zeroes the mask rows above
    that frequency (aliasing ablation) in every estimate. Masks with equal
    weights over the frame range are evaluated once.
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
        first_bin = float(spec.bin_frequency(1))
        if not is_frequency_limit(max_freq_hz, first_bin):
            raise ValueError(f"max_freq_hz must be None or finite and >= the first bin's {first_bin:g} Hz, got {max_freq_hz!r}")
        self.shape = (spec.num_bins, spec.num_frames)
        self._geometry = (
            tuple(grid.angles_deg.tolist()),
            tuple(geom.mic_distances.tolist()),
            geom.speed_of_sound,
            spec.sample_rate,
            spec.window_length,
        )
        self.frames = _resolve_frames(spec.num_frames, frame_range)
        self.bins = spec.bins[:, :, self.frames]
        self.cut = None if max_freq_hz is None else spec.bin_frequency(np.arange(spec.num_bins)) > max_freq_hz
        q, k, n = self.bins.shape
        self._scale = 2.0 / float(n * k * (q - 1) ** 2)

    @cached_property
    def pairs(self) -> np.ndarray:
        """PHAT pair cross-spectra over the frame range, shape (K, 2P, N_range).

        Real and imaginary parts are stacked, ``[Re X; Im X]`` per bin, so
        that with the pair steering's ``[Re E, -Im E]`` the real part
        ``Re E Re X - Im E Im X`` is one real product.
        """
        q, k, n = self.bins.shape
        first, second = np.triu_indices(q, 1)
        num_pairs = first.size
        mag = np.abs(self.bins)  # PHAT weight: 1/|Y| where the magnitude exceeds epsilon, else epsilon
        loud = mag > DEFAULT_PHAT_EPSILON
        whitened = self.bins * np.where(loud, 1.0 / np.where(loud, mag, 1.0), DEFAULT_PHAT_EPSILON)
        pairs = np.empty((k, 2 * num_pairs, n))
        for p, (a, b) in enumerate(zip(first, second)):
            cross = whitened[a] * np.conj(whitened[b])
            pairs[:, p] = cross.real
            pairs[:, num_pairs + p] = cross.imag
        return pairs

    @cached_property
    def pair_steering(self) -> np.ndarray:
        """Read-only pair steering of the grid, shape (C, K 2P), from :func:`_pair_steering_table`."""
        return _pair_steering_table(*self._geometry)

    @cached_property
    def steering(self) -> np.ndarray:
        """Read-only steering matrix of the grid, shape (C, K, Q), from :func:`_steering_table`."""
        return _steering_table(*self._geometry)

    @cached_property
    def products(self) -> np.ndarray:
        """Per-bin outer products ``Y Y^H`` over the frame range, shape (K, Q*Q, N_range)."""
        q, k, n = self.bins.shape
        return np.einsum("qkn,jkn->kqjn", self.bins, np.conj(self.bins)).reshape(k, q * q, n)

    def _weights(self, method: str, masks) -> tuple[np.ndarray, list[int]]:
        """Distinct weights of ``method`` over the frame range, shape (M', K, N_range),
        and the index into them of each mask.

        Every mask must be ``None`` (all ones) or a (K, N) array of finite
        weights in [0, 1]; each is checked here, over all N frames, wherever
        it came from. The weight is the mask to its power in :data:`METHODS`,
        zeroed above ``max_freq_hz``; an SRP weight must not be all zero.
        """
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
        if not masks:
            raise ValueError("need at least one mask")
        stack = np.ones((len(masks), self.shape[0], self.bins.shape[2]))
        for i, mask in enumerate(masks):
            if mask is None:
                continue
            if mask.shape != self.shape:
                raise ValueError(f"mask shape {mask.shape} must match the spectrogram's {self.shape}")
            if not (mask.min() >= 0.0 and mask.max() <= 1.0):  # a NaN minimum or maximum fails both
                raise ValueError("mask weights must be finite and lie in [0, 1]")
            stack[i] = mask[:, self.frames] ** METHODS[method]
        if self.cut is not None:
            stack[:, self.cut, :] = 0.0
        if method != "music" and not np.all(np.any(stack.reshape(len(stack), -1), axis=1)):
            raise ValueError("empty attention: mask is all zero")
        # equal weights have equal sums, so only masks of equal sum are compared
        sums = stack.sum(axis=(1, 2))
        first = [
            next(j for j in range(i + 1) if sums[j] == sums[i] and np.array_equal(stack[j], stack[i]))
            for i in range(len(stack))
        ]
        distinct = sorted(set(first))
        return stack[distinct], [distinct.index(j) for j in first]

    def power(self, weights: np.ndarray) -> np.ndarray:
        """Unnormalized SRP-PHAT of M weight matrices over the frame range, shape (C, M).

        ``weights`` is (M, K, N_range) and multiplies the per-bin power of
        each bin and frame: ``2 Re E (X W)`` divided by ``N * K * (Q-1)^2``.
        """
        summed = self.pairs @ np.transpose(weights, (1, 2, 0))  # (K, 2P, M)
        return self._scale * (self.pair_steering @ summed.reshape(-1, len(weights)))

    def _music(self, weights: np.ndarray, num_sources: int) -> np.ndarray:
        """Normalized NormMUSIC, band-normalized and mask-weighted, of M' weights, shape (M', C).

        Per band: mask-weighted sample covariance over frames, noise subspace
        from the Q - num_sources smallest eigenvalues, pseudospectrum
        ``1 / ||E_n^H a(theta)||^2`` normalized to max 1. Bands are averaged
        with weights ``sum_n M[k, n]``. A band is dropped when its weight is
        at most ``MIN_BAND_WEIGHT`` times the mask's largest band weight, so
        scaling a mask drops no band, or when fewer than ``num_sources`` of
        its frames have weight: its covariance then has rank below
        ``num_sources`` and no unique noise subspace.
        """
        q = self.bins.shape[0]
        if not is_integer(num_sources, 1, q - 1):
            raise ValueError(f"num_sources must be an integer with 1 <= num_sources < Q = {q}, got {num_sources!r}")
        if self.bins.shape[2] < q:
            raise ValueError("need at least Q frames for a full-rank covariance")
        band_weight = weights.sum(axis=2)  # (M', K)
        active = band_weight > MIN_BAND_WEIGHT * band_weight.max(axis=1, keepdims=True)
        active &= np.count_nonzero(weights, axis=2) >= num_sources
        if not np.all(np.any(active, axis=1)):
            raise ValueError(f"empty attention: no band of the mask has weight in {num_sources} or more frames")

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
        return np.stack(spectra)

    def spectra(self, method: str, masks, num_sources: int = 1) -> np.ndarray:
        """Normalized spatial power spectra of one of :data:`METHODS`, shape (M, C).

        Row m belongs to ``masks[m]``, a non-empty list. Both SRPs are one
        :meth:`power` of the method's weights. Masks with equal weights share
        one spectrum, so ``srp-p``, whose weight M^0 is all ones, computes one.
        """
        weights, index = self._weights(method, masks)
        if method == "music":
            return self._music(weights, num_sources)[index]
        return np.stack([normalize_sps(v) for v in self.power(weights).T])[index]

    def per_frame(self, method: str, mask) -> np.ndarray:
        """Per-frame sums over bins of the SRP spectrum behind a pick, shape (C, N_range).

        Unnormalized; ``srp-p`` checks but ignores the mask. MUSIC has no per-frame form.
        """
        if method not in ("srp-p", "srp-mp"):
            raise ValueError(f"no per-frame spectrum for method {method!r}; valid: srp-p, srp-mp")
        weights = self._weights(method, [mask])[0][0]
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
    for name, size in (("num_bins", num_bins), ("num_directions", num_directions), ("num_mics", num_mics)):
        if not is_integer(size, 1):
            raise ValueError(f"{name} must be an integer >= 1, got {size!r}")
    k, c, q = num_bins, num_directions, num_mics
    pairs_term = ((q - 1) ** 2 / 2.0) * (4 * k * c + 6 * k)
    return int(round(pairs_term + 5 * k * q))
