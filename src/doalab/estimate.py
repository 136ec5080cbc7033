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
products) of one spectrogram and frame range. The steering matrix D (MUSIC)
and its pair products E (SRP) depend only on the grid, the array and the
STFT, so both are built in one cache entry per geometry, when a method first
reads either, and every core shares them. Its one entry point,
:meth:`EstimatorCore.spectra`, checks and weights a list of masks in one
place and evaluates them all at once: SRP is one matrix product; MUSIC is one
real product that gives every mask's covariance in every bin, one batched
eigendecomposition over the (mask, bin) pairs it averages, and one projection
per block of bins with every mask's noise vectors as columns. Spectra are plain
float arrays: one (M, C) array, a row per mask over the DOA grid. The pair
steering is the pair products ``E = D*_q D_j`` of the steering matrix ``D`` of
:func:`doalab.geometry.steering_matrix`, so SRP and MUSIC steer the same D, and
a source that follows its delay model produces the power maximum at its own
grid angle. A frequency limit
``max_freq_hz`` must pass :func:`is_frequency_limit`, the rule of the eval config too.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .geometry import ArrayGeometry, DoaGrid, steering_matrix
from .signal import MultichannelSpectrogram, is_finite_number, is_integer

DEFAULT_PHAT_EPSILON = 1e-8
MIN_BAND_WEIGHT = 1e-6  # MUSIC drops bands below this share of the mask's largest band weight
METHODS = {"srp-p": 0, "srp-mp": 2, "music": 1}  # each method weights a mask M by M ** power
MUSIC_BLOCK_BINS = 32  # MUSIC projects this many bins at a time, so its temporaries stay near 1 MB


def _resolve_frames(num_frames: int, frame_range) -> slice:
    """The slice of ``frame_range``, integers ``(A, B)`` with ``0 <= A < B <= num_frames``, or ``None`` for all."""
    start, stop = (0, num_frames) if frame_range is None else frame_range
    if not (is_integer(start, 0) and is_integer(stop, start + 1, num_frames)):
        raise ValueError(f"frame range {start}:{stop} must be integers A:B with 0 <= A < B <= {num_frames} frames")
    return slice(start, stop)


def is_frequency_limit(max_freq_hz, first_bin_hz: float) -> bool:
    """Whether ``max_freq_hz`` is ``None`` or a finite number >= bin 1's ``first_bin_hz``; below it only DC is left."""
    return max_freq_hz is None or is_finite_number(max_freq_hz, first_bin_hz, closed=True)


def _pair_products(z: np.ndarray, axis: int) -> np.ndarray:
    """``[Re, Im]`` of ``z_q z*_j`` (``[Re, -Im]`` of ``z*_q z_j``) over the pairs q < j of ``z``'s ``axis``, in
    ``np.triu_indices`` order, stacked in its place, C-contiguous; a pair at a time, so each product stays in cache."""
    first, second = np.triu_indices(z.shape[axis], 1)
    out = np.empty(z.shape[:axis] + (2 * first.size,) + z.shape[axis + 1 :])
    channels, parts = np.moveaxis(z, axis, 0), np.moveaxis(out, axis, 0)
    for p, (q, j) in enumerate(zip(first, second)):
        cross = np.multiply(channels[q], np.conj(channels[j]))  # `*` may swap the operands of a large temporary
        parts[p], parts[first.size + p] = cross.real, cross.imag
    return out


@lru_cache(maxsize=8)  # a run uses one geometry, so a few entries suffice
def _steering_tables(
    angles_deg: tuple, mic_distances: tuple, speed_of_sound: float, sample_rate: float, window_length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only steering matrix D (C, K, Q) of one geometry, from :func:`doalab.geometry.steering_matrix`,
    and its pair steering E (C, K 2P): per bin ``[Re E, -Im E]``, E = D*_q D_j, the :func:`_pair_products`
    of D. Both depend only on these plain values, so they are built once per geometry and shared by every core.
    """
    geom = ArrayGeometry(np.array(mic_distances), speed_of_sound)
    steering = steering_matrix(DoaGrid(np.array(angles_deg)), geom, sample_rate, window_length)
    pair_steering = _pair_products(steering, axis=2).reshape(len(angles_deg), -1)
    for table in (steering, pair_steering):
        table.setflags(write=False)
    return steering, pair_steering


def _pseudospectra(steering: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """MUSIC pseudospectra ``1 / max(||E_n^H a||^2, 1e-12)`` of conjugate noise vectors (K, Q, M', R),
    each normalized to max 1 over the grid, shape (K, C, M').

    With a the steering column of each grid angle, ``E_n^H a`` over the grid is ``D conj(E_n)``: one
    product per bin of the steering matrix D with all M' R conjugate noise vectors as columns,
    ``MUSIC_BLOCK_BINS`` bins at a time, squared in place and summed over each mask's R columns.
    """
    k, q, m, rank = noise.shape
    columns = noise.reshape(k, q, m * rank)
    manifold = steering.transpose(1, 0, 2)  # (K, C, Q)
    pseudo = np.empty((k, manifold.shape[1], m))
    proj = np.empty((MUSIC_BLOCK_BINS, manifold.shape[1], m * rank), dtype=complex)
    power = proj.view(np.float64).reshape(*proj.shape[:2], m, 2 * rank)  # [Re, Im] of each mask's R columns
    for start in range(0, k, MUSIC_BLOCK_BINS):
        block, size = slice(start, start + MUSIC_BLOCK_BINS), min(MUSIC_BLOCK_BINS, k - start)
        np.matmul(manifold[block], columns[block], out=proj[:size])
        np.square(power[:size], out=power[:size])
        np.einsum("bcmr->bcm", power[:size], out=pseudo[block])
    np.divide(1.0, np.maximum(pseudo, 1e-12, out=pseudo), out=pseudo)
    pseudo /= pseudo.max(axis=1, keepdims=True)
    return pseudo


class EstimatorCore:
    """Mask-independent estimator state of one spectrogram, grid and frame range.

    The constructor only checks its arguments and takes the frame range.
    Every table is built on first use and kept: :attr:`pairs` (the PHAT pair
    cross-spectra, SRP only), :attr:`products` (MUSIC only), and the
    geometry's :attr:`pair_steering` (SRP) and :attr:`steering` (MUSIC),
    which read the one entry of :func:`_steering_tables` and so are built
    once per geometry and shared between cores. Estimates
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

        Real and imaginary parts are stacked, ``[Re X; Im X]`` per bin, the :func:`_pair_products`
        of the whitened bins A, X = A_q A*_j; so with the pair steering's ``[Re E, -Im E]`` the real
        part ``Re E Re X - Im E Im X`` is one real product.
        """
        mag = np.abs(self.bins)  # PHAT weight: 1/|Y| where the magnitude exceeds epsilon, else epsilon
        loud = mag > DEFAULT_PHAT_EPSILON
        whitened = self.bins * np.where(loud, 1.0 / np.where(loud, mag, 1.0), DEFAULT_PHAT_EPSILON)
        return _pair_products(whitened.swapaxes(0, 1), axis=1)

    @cached_property
    def pair_steering(self) -> np.ndarray:
        """Read-only pair steering of the grid, shape (C, K 2P), from :func:`_steering_tables`."""
        return _steering_tables(*self._geometry)[1]

    @cached_property
    def steering(self) -> np.ndarray:
        """Read-only steering matrix of the grid, shape (C, K, Q), from :func:`_steering_tables`."""
        return _steering_tables(*self._geometry)[0]

    @cached_property
    def products(self) -> np.ndarray:
        """Per-bin outer products ``Y Y^H`` over the frame range as real rows, shape (K, Q + 2P, N_range).

        Per bin the diagonal ``|Y_q|^2``, then the upper triangle, the :func:`_pair_products`
        ``[Re, Im]`` of ``Y_q Y*_j``. Y is first scaled by the power of two that brings its largest
        real or imaginary part into [0.5, 1): the scaling is exact and leaves every noise subspace
        as it was, and no covariance overflows. An all-zero Y stays zero.
        """
        y = np.ascontiguousarray(self.bins.swapaxes(0, 1))  # (K, Q, N)
        parts = y.view(np.float64)
        np.ldexp(parts, -np.frexp(np.abs(parts).max())[1], out=parts)
        return np.concatenate([y.real**2 + y.imag**2, _pair_products(y, axis=1)], axis=1)

    def _weights(self, method: str, masks) -> tuple[np.ndarray, list[int]]:
        """Distinct weights of ``method`` over the frame range, shape (M', K, N_range),
        and the index into them of each mask.

        Every mask must be ``None`` (all ones) or a (K, N) array of finite
        weights in [0, 1]; each is checked here, over all N frames, wherever
        it came from. The weight is the mask to its power in :data:`METHODS`,
        zeroed above ``max_freq_hz``; an SRP weight must not be all zero.
        Masks are weighted in one pass, in list order: the first bad one names the error.
        """
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
        if not masks:
            raise ValueError("need at least one mask")
        distinct, index = [], []
        for mask in masks:
            weight = np.ones((self.shape[0], self.bins.shape[2]))
            if mask is not None:
                if mask.shape != self.shape:
                    raise ValueError(f"mask shape {mask.shape} must match the spectrogram's {self.shape}")
                if not (mask.min() >= 0.0 and mask.max() <= 1.0):  # a NaN minimum or maximum fails both
                    raise ValueError("mask weights must be finite and lie in [0, 1]")
                weight[:] = mask[:, self.frames] ** METHODS[method]
            if self.cut is not None:
                weight[self.cut] = 0.0
            if method != "music" and not weight.any():
                raise ValueError("empty attention: mask is all zero")
            # equal weights have equal sums, so a weight is compared only with kept weights of its sum
            total = weight.sum()
            same = (j for j, (kept_total, kept) in enumerate(distinct) if kept_total == total and np.array_equal(kept, weight))
            index.append(next(same, len(distinct)))
            if index[-1] == len(distinct):
                distinct.append((total, weight))
        return np.stack([kept for _, kept in distinct]), index

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

        Every stage runs once for all masks, bin-major: one real product of
        :attr:`products` with the weights gives every covariance's diagonal and
        upper triangle, ``eigh`` (which reads the lower triangle) runs once over
        the (bin, mask) pairs that are averaged, and their noise vectors become
        the columns of one (K, Q, (Q - num_sources) M') array, zero for a pair that
        is not, which the manifold projects ``MUSIC_BLOCK_BINS`` bins at a time.
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

        pseudo = _pseudospectra(self.steering, self._noise_vectors(weights, band_weight, active, q - num_sources))
        bands = np.where(active, band_weight, 0.0)
        values = np.einsum("mk,kcm->mc", bands, pseudo) / bands.sum(axis=1, keepdims=True)
        return np.stack([normalize_sps(row) for row in values])

    def _noise_vectors(self, weights: np.ndarray, band_weight: np.ndarray, active: np.ndarray, rank: int) -> np.ndarray:
        """Conjugate noise vectors of every averaged (mask, bin) pair of :meth:`_music`, shape (K, Q, M', rank),
        zero for a pair that is not averaged: the eigenvectors of the ``rank`` smallest eigenvalues."""
        q = self.bins.shape[0]
        pick = active.T  # (K, M'), the averaged pairs in bin-major order
        # (K, Q + 2P, N) @ (K, N, M') -> (K, Q + 2P, M'): each covariance's diagonal and upper triangle
        upper = np.swapaxes(self.products @ weights.transpose(1, 2, 0), 1, 2)[pick]
        upper /= band_weight.T[pick][:, None]
        loud = np.zeros(pick.shape, dtype=bool)
        loud[pick] = upper[:, :q].sum(axis=1) > 0  # eigh of a zero covariance gives a flat pseudospectrum
        if not np.all(np.any(loud, axis=0)):
            raise ValueError("silent input: every band the mask attends to has a zero covariance")
        cov = np.zeros((len(upper), q, q), dtype=complex)  # eigh reads the lower triangle, the conjugate
        parts = cov.view(np.float64).reshape(len(upper), q, q, 2)
        diagonal, (first, second) = np.arange(q), np.triu_indices(q, 1)
        parts[:, diagonal, diagonal, 0] = upper[:, :q]
        parts[:, second, first, 0] = upper[:, q : q + first.size]
        parts[:, second, first, 1] = -upper[:, q + first.size :]
        eigvecs = np.linalg.eigh(cov)[1]  # ascending eigenvalues
        k, m = pick.shape
        noise = np.zeros((k, q, m, rank), dtype=complex)
        bins, masks = np.nonzero(pick)
        noise[bins, :, masks] = np.conj(eigvecs[:, :, :rank])
        return noise

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
