"""SRP-PHAT, masked SRP, the pair form, MUSIC, and the flop model."""

import numpy as np
import pytest

from doalab import estimate
from doalab.attention import band_range_mask
from doalab.estimate import (
    EstimatorCore,
    normalize_sps,
    pick_doa,
    sps_loss,
    srp_flops,
)
from doalab.geometry import ArrayGeometry, make_grid, steering_matrix
from doalab.signal import MultichannelSpectrogram, TimeSignal, stft
from doalab.simulate import white_noise
from srp_reference import (
    CrossSpectralTensor,
    PhatWeighting,
    aggregate_frames,
    cross_spectral_tensor,
    mask_weighting,
    narrowband_srp,
    output_masking,
    phat_weighting,
    srp,
)
from synthesis import plane_wave_synthesize

FS = 16000
GEOM = ArrayGeometry.uniform(4, 0.08)
GRID = make_grid(37)
# non-uniform arrays of 3 and 6 microphones with random spacings
RANDOM_ARRAYS = [
    np.concatenate([[0.0], np.cumsum(np.random.default_rng(q).uniform(0.005, 0.15, q - 1))]).tolist() for q in (3, 6)
]


def _spec(bins):
    bins = np.asarray(bins, dtype=complex)
    k = bins.shape[1]
    return MultichannelSpectrogram(bins, FS, 2 * (k - 1))


def _plane_wave_spec(doa_deg, samples=4000, seed=0, channels=4):
    src = white_noise(1, samples, seed=seed)
    geom = ArrayGeometry.uniform(channels, 0.08)
    return stft(plane_wave_synthesize(src, doa_deg, geom)), geom


class TestPhatWeighting:
    def test_magnitude_two_gives_half(self):
        spec = _spec(np.full((1, 2, 2), 2.0))
        np.testing.assert_array_equal(phat_weighting(spec).values, 0.5)

    def test_zero_bins_get_epsilon(self):
        spec = _spec(np.zeros((1, 2, 2)))
        np.testing.assert_array_equal(phat_weighting(spec).values, 1e-8)

    def test_weighted_product_has_unit_modulus(self):
        rng = np.random.default_rng(0)
        bins = rng.standard_normal((2, 5, 4)) + 1j * rng.standard_normal((2, 5, 4))
        spec = _spec(bins)
        np.testing.assert_allclose(
            np.abs(spec.bins * phat_weighting(spec).values), 1.0, rtol=1e-12
        )

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            phat_weighting(_spec(np.ones((1, 2, 2))), epsilon=0.0)


class TestMaskWeighting:
    def test_ones_mask_is_identity(self):
        w = PhatWeighting(np.random.default_rng(1).uniform(0, 1, (2, 3, 4)))
        out = mask_weighting(w, np.ones((3, 4)))
        np.testing.assert_array_equal(out.values, w.values)

    def test_half_mask_scales_cross_spectra_by_quarter(self):
        rng = np.random.default_rng(2)
        bins = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        spec = _spec(bins)
        w = phat_weighting(spec)
        full = cross_spectral_tensor(spec, w)
        half = cross_spectral_tensor(spec, mask_weighting(w, np.full((3, 4), 0.5)))
        np.testing.assert_allclose(half.values, 0.25 * full.values, rtol=1e-12)

    def test_zeroed_band_removes_bin(self):
        w = PhatWeighting(np.ones((2, 3, 4)))
        weights = np.ones((3, 4))
        weights[1] = 0.0
        out = mask_weighting(w, weights)
        assert not out.values[:, 1, :].any()
        np.testing.assert_array_equal(out.values[:, [0, 2], :], 1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mask_weighting(PhatWeighting(np.ones((2, 3, 4))), np.ones((3, 5)))


class TestCrossSpectralTensor:
    def setup_method(self):
        rng = np.random.default_rng(3)
        bins = rng.standard_normal((4, 5, 6)) + 1j * rng.standard_normal((4, 5, 6))
        self.spec = _spec(bins)
        self.phi = cross_spectral_tensor(self.spec, phat_weighting(self.spec))

    def test_shape(self):
        assert self.phi.values.shape == (5, 6, 4, 4)

    def test_hermitian_per_bin(self):
        np.testing.assert_allclose(
            self.phi.values, np.conj(np.swapaxes(self.phi.values, 2, 3)), rtol=1e-12
        )

    def test_diagonal_real_nonnegative(self):
        diag = np.einsum("knqq->knq", self.phi.values)
        assert np.allclose(diag.imag, 0.0)
        assert np.all(diag.real >= 0.0)

    def test_unit_modulus_under_phat(self):
        # all bins are active, so every weighted product lies on the unit circle
        np.testing.assert_allclose(np.abs(self.phi.values), 1.0, rtol=1e-12)


class TestSrp:
    def test_plane_wave_peaks_on_grid_angle(self):
        for doa in (30.0, 60.0, 145.0):
            spec, geom = _plane_wave_spec(doa, seed=4)
            sps = EstimatorCore(spec, GRID, geom).spectra("srp-p", [None])[0]
            assert pick_doa(sps, GRID) == doa

    def test_broadside_picks_90(self):
        spec, geom = _plane_wave_spec(90.0, seed=5)
        assert pick_doa(EstimatorCore(spec, GRID, geom).spectra("srp-p", [None])[0], GRID) == 90.0

    def test_global_phase_invariance(self):
        spec, geom = _plane_wave_spec(75.0, seed=6)
        rotated = MultichannelSpectrogram(spec.bins * np.exp(0.7j), spec.sample_rate, spec.window_length)
        np.testing.assert_allclose(
            EstimatorCore(spec, GRID, geom).spectra("srp-p", [None])[0],
            EstimatorCore(rotated, GRID, geom).spectra("srp-p", [None])[0],
            rtol=1e-9,
        )

    def test_channel_reversal_mirrors_spectrum(self):
        # reversing the microphone order negates all delay differences,
        # which maps the response of theta onto 180 - theta
        spec, geom = _plane_wave_spec(40.0, seed=7)
        reversed_spec = MultichannelSpectrogram(spec.bins[::-1], spec.sample_rate, spec.window_length)
        np.testing.assert_allclose(
            EstimatorCore(reversed_spec, GRID, geom).spectra("srp-p", [None])[0],
            EstimatorCore(spec, GRID, geom).spectra("srp-p", [None])[0][::-1],
            rtol=1e-9,
            atol=1e-12,
        )

    def test_pairwise_and_beamformer_paths_agree(self):
        spec, geom = _plane_wave_spec(110.0, samples=2000, seed=8)
        w = phat_weighting(spec)
        phi = cross_spectral_tensor(spec, w)
        steering = steering_matrix(GRID, geom, FS, spec.window_length)
        slow = srp(phi, steering)
        fast = EstimatorCore(spec, GRID, geom).power(np.ones((1, spec.num_bins, spec.num_frames)))[:, 0]
        np.testing.assert_allclose(slow, fast, rtol=1e-9)

    def test_array_must_match_channel_count(self):
        spec, _ = _plane_wave_spec(90.0, samples=2000, seed=9)
        with pytest.raises(ValueError, match="3 microphones"):
            EstimatorCore(spec, GRID, ArrayGeometry.uniform(3, 0.08))

    def test_empty_frame_range_raises(self):
        spec, geom = _plane_wave_spec(90.0, samples=2000, seed=9)
        with pytest.raises(ValueError, match="frame range 3:3 must be integers A:B with 0 <= A < B <= 6 frames"):
            EstimatorCore(spec, GRID, geom, frame_range=(3, 3))

    @pytest.mark.parametrize(
        "frame_range",
        [(-5, 3), (1.7, 3.2), (1, 3.0), (0, 7), (0, 1000), (5, 3), (True, 3), (0, True), ("0", 3), (0, np.nan)],
    )
    def test_frame_range_outside_the_frames_raises(self, frame_range):
        """A range is two integers 0 <= A < B <= N; nothing is clamped or rounded into the N = 6 frames."""
        spec, geom = _plane_wave_spec(90.0, samples=2000, seed=9)
        with pytest.raises(ValueError, match="frame range .* must be integers"):
            EstimatorCore(spec, GRID, geom, frame_range=frame_range)

    def test_whole_frame_range_is_every_frame(self):
        spec, geom = _plane_wave_spec(90.0, samples=2000, seed=9)
        assert EstimatorCore(spec, GRID, geom).frames == slice(0, 6)
        assert EstimatorCore(spec, GRID, geom, frame_range=(0, 6)).frames == slice(0, 6)
        assert EstimatorCore(spec, GRID, geom, frame_range=(np.int64(5), np.int64(6))).frames == slice(5, 6)


class TestNarrowband:
    def test_sum_recovers_broadband(self):
        spec, geom = _plane_wave_spec(55.0, samples=2000, seed=10)
        w = phat_weighting(spec)
        phi = cross_spectral_tensor(spec, w)
        steering = steering_matrix(GRID, geom, FS, spec.window_length)
        nb = narrowband_srp(phi, steering)
        np.testing.assert_allclose(nb.sum(axis=(1, 2)), srp(phi, steering), rtol=1e-9)

    def test_dc_band_is_constant_over_directions(self):
        spec, geom = _plane_wave_spec(35.0, samples=2000, seed=11)
        core = EstimatorCore(spec, GRID, geom)
        # one weight matrix per frame, each selecting the DC bin of that frame
        weights = np.zeros((spec.num_frames, spec.num_bins, spec.num_frames))
        weights[np.arange(spec.num_frames), 0, np.arange(spec.num_frames)] = 1.0
        dc = core.power(weights)
        np.testing.assert_allclose(dc, np.broadcast_to(dc[0], dc.shape), atol=1e-12)


class TestOutputMasking:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.nb = rng.uniform(-1, 1, (5, 4, 3))

    def test_ones_mask_is_plain_average(self):
        out = output_masking(self.nb, np.ones((4, 3)))
        np.testing.assert_allclose(out, self.nb.mean(axis=(1, 2)), rtol=1e-12)

    def test_single_bin_mask_selects_bin(self):
        weights = np.zeros((4, 3))
        weights[2, 1] = 1.0
        out = output_masking(self.nb, weights)
        np.testing.assert_allclose(out, self.nb[:, 2, 1], rtol=1e-12)

    def test_mask_scale_invariance(self):
        a = output_masking(self.nb, np.full((4, 3), 1.0))
        b = output_masking(self.nb, np.full((4, 3), 0.25))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError, match="empty attention"):
            output_masking(self.nb, np.zeros((4, 3)))


class TestNormalizeAndPick:
    def test_normalize_example(self):
        out = normalize_sps(np.array([2.0, 4.0, 1.0]))
        np.testing.assert_array_equal(out, [0.5, 1.0, 0.25])

    def test_normalize_idempotent(self):
        once = normalize_sps(np.random.default_rng(14).uniform(0.1, 2, 37))
        np.testing.assert_array_equal(normalize_sps(once), once)

    def test_normalize_preserves_argmax(self):
        sps = np.random.default_rng(15).uniform(0.1, 2, 37)
        assert np.argmax(normalize_sps(sps)) == np.argmax(sps)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_sps(np.zeros(5))

    def test_constant_negative_rejected(self):
        with pytest.raises(ValueError, match="constant negative"):
            normalize_sps(np.full(5, -2.0))

    def test_negative_spectrum_keeps_order(self):
        # two mics 0.01 m apart, every bin in opposite phase: the SRP power is
        # below its removed diagonal at every grid angle. The extra 0.2 rad
        # make 0 degrees the strict maximum; in exact opposite phase 0 and 180
        # degrees tie, and rounding decides the pick.
        bins = np.ones((2, 17, 1), dtype=complex)
        bins[1] = -np.exp(0.2j)
        grid = make_grid(3)
        core = EstimatorCore(_spec(bins), grid, ArrayGeometry.uniform(2, 0.01))
        power = core.power(np.ones((1, 17, 1)))[:, 0]
        assert power.max() < 0
        sps = core.spectra("srp-p", [None])[0]
        assert sps.max() == 1.0
        assert pick_doa(sps, grid) == 0.0
        np.testing.assert_array_equal(np.argsort(sps), np.argsort(power))

    def test_pick_one_hot(self):
        values = np.zeros(37)
        values[18] = 1.0
        assert pick_doa(values, GRID) == 90.0

    def test_pick_tie_breaks_to_lowest_index(self):
        assert pick_doa(np.ones(37), GRID) == 0.0

    def test_pick_rescale_invariant(self):
        values = np.random.default_rng(16).uniform(0, 1, 37)
        assert pick_doa(values, GRID) == pick_doa(3.0 * values, GRID)

    def test_pick_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pick_doa(np.ones(5), GRID)

    def test_aggregate_frames_mean(self):
        per_frame = np.array([[1.0, 3.0], [2.0, 6.0]])
        np.testing.assert_array_equal(aggregate_frames(per_frame), [2.0, 4.0])
        np.testing.assert_array_equal(aggregate_frames(per_frame, frame_range=(1, 2)), [3.0, 6.0])


class TestSpsLoss:
    def test_identical_spectra_give_zero(self):
        sps = normalize_sps(np.array([1.0, 0.5]))
        assert sps_loss(sps, sps) == 0.0

    def test_worked_example(self):
        assert sps_loss(np.array([1.0, 0.0]), np.array([1.0, 0.5])) == pytest.approx(0.125)

    def test_requires_normalized(self):
        # peak 2: the estimate was never normalized
        with pytest.raises(ValueError, match="normalized"):
            sps_loss(np.array([2.0, 0.0]), np.array([1.0, 0.5]))

    @pytest.mark.parametrize("peak", [0.5, 1.001])
    def test_peak_not_one_rejected(self, peak):
        spectrum = np.array([peak, 0.25])
        for est, clean in ((spectrum, np.array([1.0, 0.5])), (np.array([1.0, 0.5]), spectrum)):
            with pytest.raises(ValueError, match="peak 1"):
                sps_loss(est, clean)
        # a peak within rounding of 1 is accepted
        assert sps_loss(np.array([1.0 + 1e-12, 0.25]), np.array([1.0, 0.25])) == pytest.approx(0.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            sps_loss(np.array([1.0, 0.0]), np.array([1.0, 0.5, 0.0]))


class TestSrpFlops:
    def test_published_operating_point(self):
        assert srp_flops(257, 37, 4) == 183241

    def test_single_mic_leaves_weighting_term(self):
        # Q = 1 has no pairs, only the 5K weighting flops
        assert srp_flops(257, 37, 1) == 5 * 257

    def test_minimal_pair_case(self):
        assert srp_flops(1, 1, 2) == 15

    def test_formula(self):
        k, c, q = 64, 19, 3
        expected = round(((q - 1) ** 2 / 2) * (4 * k * c + 6 * k) + 5 * k * q)
        assert srp_flops(k, c, q) == expected

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            srp_flops(0, 1, 1)


class TestSrpMp:
    def test_ones_mask_matches_srp_phat_bitwise(self):
        spec, geom = _plane_wave_spec(125.0, seed=17)
        core = EstimatorCore(spec, GRID, geom)
        mask = np.ones((spec.num_bins, spec.num_frames))
        plain = core.spectra("srp-p", [mask])[0]
        masked = core.spectra("srp-mp", [mask])[0]
        np.testing.assert_array_equal(plain, masked)

    def test_output_is_normalized(self):
        spec, geom = _plane_wave_spec(60.0, seed=18)
        mask = np.ones((spec.num_bins, spec.num_frames))
        sps = EstimatorCore(spec, GRID, geom).spectra("srp-mp", [mask])[0]
        assert sps.max() == 1.0

    def test_band_mask_still_recovers_plane_wave(self):
        spec, geom = _plane_wave_spec(70.0, seed=19)
        mask = band_range_mask(spec.num_bins, spec.num_frames, 20, 180)
        assert pick_doa(EstimatorCore(spec, GRID, geom).spectra("srp-mp", [mask])[0], GRID) == 70.0

    def test_all_zero_mask_raises(self):
        spec, geom = _plane_wave_spec(90.0, samples=2000, seed=20)
        mask = np.zeros((spec.num_bins, spec.num_frames))
        with pytest.raises(ValueError, match="empty attention"):
            EstimatorCore(spec, GRID, geom).spectra("srp-mp", [mask])

    def test_max_freq_limit_zeroes_high_bins(self):
        spec, geom = _plane_wave_spec(100.0, seed=21)
        mask = np.ones((spec.num_bins, spec.num_frames))
        full = EstimatorCore(spec, GRID, geom).spectra("srp-mp", [mask])[0]
        limited = EstimatorCore(spec, GRID, geom, max_freq_hz=2000.0).spectra("srp-mp", [mask])[0]
        assert pick_doa(limited, GRID) == 100.0
        assert not np.array_equal(full, limited)

    @pytest.mark.parametrize("limit", [np.nan, 0.0, -1.0, 10.0, 31.2, np.inf, -np.inf, True, "100"])
    def test_max_freq_limit_must_be_positive(self, limit):
        """A limit below the first bin's 16000 / 512 = 31.25 Hz would leave only DC; it is named."""
        spec, geom = _plane_wave_spec(100.0, seed=21)
        with pytest.raises(ValueError, match=r"max_freq_hz .* first bin's 31\.25 Hz"):
            EstimatorCore(spec, GRID, geom, max_freq_hz=limit)


class TestNormMusic:
    def test_plane_wave_peaks_on_grid_angle(self):
        for doa in (45.0, 90.0, 130.0):
            spec, geom = _plane_wave_spec(doa, seed=22)
            mask = np.ones((spec.num_bins, spec.num_frames))
            assert pick_doa(EstimatorCore(spec, GRID, geom).spectra("music", [mask])[0], GRID) == doa

    @pytest.mark.parametrize("distances", [[0.0, 0.08, 0.16, 0.24], [0.0, 0.013, 0.05, 0.11, 0.2], [0.0, 0.3]] + RANDOM_ARRAYS)
    @pytest.mark.parametrize("grid_size", [2, 37, 181])
    def test_steering_matches_geometry_model(self, distances, grid_size):
        geom = ArrayGeometry(np.array(distances))
        spec = stft(white_noise(geom.num_mics, 2000, seed=29))
        grid = make_grid(grid_size)
        # exp(-j 2 pi f_k cos(theta_c) d_q / c_s), computed here from the model
        freqs = np.arange(spec.num_bins) * FS / spec.window_length
        delays = np.cos(np.deg2rad(grid.angles_deg))[:, None] * geom.mic_distances[None, :] / geom.speed_of_sound
        expected = np.exp(-2j * np.pi * freqs[None, :, None] * delays[:, None, :])
        steering = steering_matrix(grid, geom, FS, spec.window_length)
        assert steering.shape == (grid.size, spec.num_bins, geom.num_mics)
        np.testing.assert_allclose(steering, expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(EstimatorCore(spec, grid, geom).steering, steering)

    def test_band_weighted_variant_matches(self):
        spec, geom = _plane_wave_spec(65.0, seed=23)
        mask = band_range_mask(spec.num_bins, spec.num_frames, 30, 200)
        assert pick_doa(EstimatorCore(spec, GRID, geom).spectra("music", [mask])[0], GRID) == 65.0

    def test_output_is_normalized(self):
        spec, geom = _plane_wave_spec(90.0, seed=24)
        mask = np.ones((spec.num_bins, spec.num_frames))
        sps = EstimatorCore(spec, GRID, geom).spectra("music", [mask])[0]
        assert sps.max() == 1.0

    def test_num_sources_must_be_below_channel_count(self):
        spec, geom = _plane_wave_spec(90.0, samples=4000, seed=25)
        mask = np.ones((spec.num_bins, spec.num_frames))
        with pytest.raises(ValueError, match="num_sources"):
            EstimatorCore(spec, GRID, geom).spectra("music", [mask], num_sources=4)

    @pytest.mark.parametrize("num_sources", [0, -1, 4, 1.5, 1.0, True, "1", None])
    def test_num_sources_must_be_an_integer_below_channel_count(self, num_sources):
        spec, geom = _plane_wave_spec(90.0, samples=4000, seed=25)
        mask = np.ones((spec.num_bins, spec.num_frames))
        with pytest.raises(ValueError, match="num_sources must be an integer"):
            EstimatorCore(spec, GRID, geom).spectra("music", [mask], num_sources=num_sources)

    def test_too_few_frames_raise(self):
        spec, geom = _plane_wave_spec(90.0, samples=1100, seed=26)
        assert spec.num_frames < 4
        mask = np.ones((spec.num_bins, spec.num_frames))
        with pytest.raises(ValueError, match="full-rank"):
            EstimatorCore(spec, GRID, geom).spectra("music", [mask])

    def test_all_zero_mask_raises(self):
        spec, geom = _plane_wave_spec(90.0, seed=27)
        mask = np.zeros((spec.num_bins, spec.num_frames))
        with pytest.raises(ValueError, match="empty attention"):
            EstimatorCore(spec, GRID, geom).spectra("music", [mask])


class TestMethodDispatch:
    def setup_method(self):
        self.spec, geom = _plane_wave_spec(80.0, seed=28)
        self.core = EstimatorCore(self.spec, GRID, geom)
        self.mask = band_range_mask(self.spec.num_bins, self.spec.num_frames, 20, 180)

    def test_unknown_method_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="srp-x") as info:
            self.core.spectra("srp-x", [self.mask])
        assert all(method in str(info.value) for method in estimate.METHODS)

    @pytest.mark.parametrize("method", estimate.METHODS)
    def test_spectra_are_rows_in_mask_order(self, method):
        other = band_range_mask(self.spec.num_bins, self.spec.num_frames, 60, 120)
        copy = self.mask.copy()
        masks = [self.mask, None, copy, other]
        spectra = self.core.spectra(method, masks)
        assert isinstance(spectra, np.ndarray) and spectra.shape == (len(masks), GRID.size)
        for mask, row in zip(masks, spectra):
            np.testing.assert_allclose(row, self.core.spectra(method, [mask])[0], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(spectra[2], spectra[0])
        if method == "srp-p":
            np.testing.assert_array_equal(spectra, np.broadcast_to(spectra[0], spectra.shape))
        else:
            assert not np.allclose(spectra[0], spectra[1]) and not np.allclose(spectra[0], spectra[3])

    @pytest.mark.parametrize("method", ["srp-p", "srp-mp"])
    def test_per_frame_sums_to_the_spectrum(self, method):
        per_frame = self.core.per_frame(method, self.mask)
        assert per_frame.shape == (GRID.size, self.spec.num_frames)
        summed = normalize_sps(per_frame.sum(axis=1))
        np.testing.assert_allclose(summed, self.core.spectra(method, [self.mask])[0], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("method", ["music", "srp-x"])
    def test_per_frame_needs_an_srp_method(self, method):
        with pytest.raises(ValueError, match="per-frame"):
            self.core.per_frame(method, self.mask)


class TestMaskValidation:
    """Every estimate checks the whole (K, N) mask, frames outside the frame range included."""

    def setup_method(self):
        spec, geom = _plane_wave_spec(80.0, seed=28)
        self.core = EstimatorCore(spec, GRID, geom, frame_range=(2, 10))
        self.shape = (spec.num_bins, spec.num_frames)

    def _estimates(self, mask):
        return [
            lambda: self.core.spectra("srp-p", [mask]),
            lambda: self.core.spectra("srp-mp", [None, mask]),
            lambda: self.core.spectra("music", [mask]),
            lambda: self.core.per_frame("srp-p", mask),
            lambda: self.core.per_frame("srp-mp", mask),
        ]

    def _bad_masks(self, value):
        for frame in (5, 0):  # inside and outside the frame range
            mask = np.ones(self.shape)
            mask[3, frame] = value
            yield mask

    def test_out_of_range_rejected(self):
        for value in (1.5, -0.1):
            for mask in self._bad_masks(value):
                for estimate_with in self._estimates(mask):
                    with pytest.raises(ValueError, match=r"\[0, 1\]"):
                        estimate_with()

    def test_non_finite_rejected(self):
        for value in (np.nan, np.inf):
            for mask in self._bad_masks(value):
                for estimate_with in self._estimates(mask):
                    with pytest.raises(ValueError, match="finite"):
                        estimate_with()


class TestSteeringTables:
    """The steering tables are built once per geometry, shared and read-only; the rest of a core's state is lazy."""

    @staticmethod
    def _fresh(grid, geom, sample_rate, window_length):
        key = (tuple(grid.angles_deg.tolist()), tuple(geom.mic_distances.tolist()), geom.speed_of_sound)
        return tuple(
            builder.__wrapped__(*key, sample_rate, window_length)
            for builder in (estimate._pair_steering_table, estimate._steering_table)
        )

    def test_equal_geometry_shares_one_table(self):
        spec, _ = _plane_wave_spec(70.0, seed=31)
        first = EstimatorCore(spec, make_grid(37), ArrayGeometry.uniform(4, 0.08))
        second = EstimatorCore(spec, make_grid(37), ArrayGeometry(np.arange(4) * 0.08), frame_range=(1, 9))
        assert first.pair_steering is second.pair_steering
        assert first.steering is second.steering

    @pytest.mark.parametrize(
        "change",
        [
            {"grid": make_grid(19)},
            {"geom": ArrayGeometry.uniform(4, 0.05)},
            {"geom": ArrayGeometry.uniform(4, 0.08, speed_of_sound=340.0)},
            {"sample_rate": 8000.0},
            {"window_length": 256},
        ],
        ids=["grid", "spacing", "speed_of_sound", "sample_rate", "window_length"],
    )
    def test_changed_key_gives_a_fresh_table(self, change):
        args = {"grid": GRID, "geom": GEOM, "sample_rate": float(FS), "window_length": 512, **change}
        samples = plane_wave_synthesize(white_noise(1, 4000, seed=32), 70.0, args["geom"]).samples
        spec = stft(TimeSignal(samples, args["sample_rate"]), args["window_length"], args["window_length"] // 2)
        core = EstimatorCore(spec, args["grid"], args["geom"])
        pair_steering, steering = self._fresh(**args)
        np.testing.assert_array_equal(core.pair_steering, pair_steering)
        np.testing.assert_array_equal(core.steering, steering)
        model = steering_matrix(args["grid"], args["geom"], args["sample_rate"], args["window_length"])
        np.testing.assert_array_equal(core.steering, model)
        # E = D*_q D_j per pair q < j, stored as [Re E, -Im E] per bin
        first, second = np.triu_indices(GEOM.num_mics, 1)
        pairs = np.conj(steering[:, :, first]) * steering[:, :, second]
        expected = np.concatenate([pairs.real, -pairs.imag], axis=2).reshape(pair_steering.shape)
        np.testing.assert_allclose(core.pair_steering, expected, rtol=0, atol=1e-12)

    def test_tables_are_read_only(self):
        spec, geom = _plane_wave_spec(70.0, seed=33)
        core = EstimatorCore(spec, GRID, geom)
        for table in (core.pair_steering, core.steering):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0

    def test_music_core_forms_no_pairs(self):
        spec, geom = _plane_wave_spec(70.0, seed=34)
        core = EstimatorCore(spec, GRID, geom)
        core.spectra("music", [None])
        assert "pairs" not in vars(core)
        assert {"steering", "products"} <= set(vars(core))

    def test_srp_core_builds_no_music_state(self):
        spec, geom = _plane_wave_spec(70.0, seed=35)
        core = EstimatorCore(spec, GRID, geom)
        mask = band_range_mask(spec.num_bins, spec.num_frames, 20, 180)
        core.spectra("srp-p", [None])
        core.spectra("srp-mp", [mask])
        core.per_frame("srp-mp", mask)
        assert "steering" not in vars(core) and "products" not in vars(core)
        assert {"pairs", "pair_steering"} <= set(vars(core))

    def test_srp_builds_no_music_steering(self):
        """SRP on a geometry no core has used adds no entry to the MUSIC steering cache."""
        geom = ArrayGeometry.uniform(4, 0.0731)
        spec = stft(plane_wave_synthesize(white_noise(1, 4000, seed=36), 70.0, geom))
        core = EstimatorCore(spec, GRID, geom)
        mask = band_range_mask(spec.num_bins, spec.num_frames, 20, 180)
        misses = estimate._steering_table.cache_info().misses
        core.spectra("srp-p", [None])
        core.spectra("srp-mp", [mask])
        core.per_frame("srp-p", None)
        core.per_frame("srp-mp", mask)
        assert estimate._steering_table.cache_info().misses == misses
        assert "pair_steering" in vars(core)


class TestValidation:
    def test_weighting_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            PhatWeighting(-np.ones((1, 2, 2)))

    def test_cross_spectra_must_be_square(self):
        with pytest.raises(ValueError):
            CrossSpectralTensor(np.zeros((2, 2, 3, 4), dtype=complex))

