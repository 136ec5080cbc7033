"""SRP-PHAT, masked SRP, narrowband combination, MUSIC, and the flop model."""

import numpy as np
import pytest

from doalab import estimate
from doalab.attention import AttentionMask, band_range_mask, ones_mask
from doalab.estimate import (
    EstimatorCore,
    PhatWeighting,
    SpatialPowerSpectrum,
    aggregate_frames,
    normalize_sps,
    output_masking,
    phat_weighting,
    pick_doa,
    sps_loss,
    srp_flops,
)
from doalab.geometry import ArrayGeometry, make_grid, steering_matrix
from doalab.signal import MultichannelSpectrogram, stft
from doalab.simulate import plane_wave_synthesize, white_noise
from srp_reference import (
    CrossSpectralTensor,
    cross_spectral_tensor,
    mask_weighting,
    narrowband_srp,
    srp,
)

FS = 16000
GEOM = ArrayGeometry.uniform(4, 0.08)
GRID = make_grid(37)


def _spec(bins):
    bins = np.asarray(bins, dtype=complex)
    k = bins.shape[1]
    return MultichannelSpectrogram(bins, FS, k - 1, 2 * (k - 1))


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
        out = mask_weighting(w, ones_mask(3, 4))
        np.testing.assert_array_equal(out.values, w.values)

    def test_half_mask_scales_cross_spectra_by_quarter(self):
        rng = np.random.default_rng(2)
        bins = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        spec = _spec(bins)
        w = phat_weighting(spec)
        full = cross_spectral_tensor(spec, w)
        half = cross_spectral_tensor(spec, mask_weighting(w, AttentionMask(np.full((3, 4), 0.5))))
        np.testing.assert_allclose(half.values, 0.25 * full.values, rtol=1e-12)

    def test_zeroed_band_removes_bin(self):
        w = PhatWeighting(np.ones((2, 3, 4)))
        weights = np.ones((3, 4))
        weights[1] = 0.0
        out = mask_weighting(w, AttentionMask(weights))
        assert not out.values[:, 1, :].any()
        np.testing.assert_array_equal(out.values[:, [0, 2], :], 1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mask_weighting(PhatWeighting(np.ones((2, 3, 4))), ones_mask(3, 5))


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
        rotated = MultichannelSpectrogram(
            spec.bins * np.exp(0.7j), spec.sample_rate, spec.hop, spec.window_length
        )
        np.testing.assert_allclose(
            EstimatorCore(spec, GRID, geom).spectra("srp-p", [None])[0].values,
            EstimatorCore(rotated, GRID, geom).spectra("srp-p", [None])[0].values,
            rtol=1e-9,
        )

    def test_channel_reversal_mirrors_spectrum(self):
        # reversing the microphone order negates all delay differences,
        # which maps the response of theta onto 180 - theta
        spec, geom = _plane_wave_spec(40.0, seed=7)
        reversed_spec = MultichannelSpectrogram(
            spec.bins[::-1], spec.sample_rate, spec.hop, spec.window_length
        )
        np.testing.assert_allclose(
            EstimatorCore(reversed_spec, GRID, geom).spectra("srp-p", [None])[0].values,
            EstimatorCore(spec, GRID, geom).spectra("srp-p", [None])[0].values[::-1],
            rtol=1e-9,
            atol=1e-12,
        )

    def test_pairwise_and_beamformer_paths_agree(self):
        spec, geom = _plane_wave_spec(110.0, samples=2000, seed=8)
        w = phat_weighting(spec)
        phi = cross_spectral_tensor(spec, w)
        steering = steering_matrix(GRID, geom, spec.num_bins, FS, spec.window_length)
        slow = srp(phi, steering)
        fast = EstimatorCore(spec, GRID, geom).nb.sum(axis=(1, 2))
        np.testing.assert_allclose(slow.values, fast, rtol=1e-9)

    def test_empty_frame_range_raises(self):
        spec, geom = _plane_wave_spec(90.0, samples=2000, seed=9)
        with pytest.raises(ValueError, match="empty frame range"):
            EstimatorCore(spec, GRID, geom, frame_range=(3, 3))


class TestNarrowband:
    def test_sum_recovers_broadband(self):
        spec, geom = _plane_wave_spec(55.0, samples=2000, seed=10)
        w = phat_weighting(spec)
        phi = cross_spectral_tensor(spec, w)
        steering = steering_matrix(GRID, geom, spec.num_bins, FS, spec.window_length)
        nb = narrowband_srp(phi, steering)
        np.testing.assert_allclose(
            nb.values.sum(axis=(1, 2)), srp(phi, steering).values, rtol=1e-9
        )

    def test_dc_band_is_constant_over_directions(self):
        spec, geom = _plane_wave_spec(35.0, samples=2000, seed=11)
        nb = EstimatorCore(spec, GRID, geom).nb
        np.testing.assert_allclose(
            nb[:, 0, :], np.broadcast_to(nb[0, 0, :], (37, nb.shape[2])), atol=1e-12
        )

    def test_shape(self):
        spec, geom = _plane_wave_spec(90.0, samples=2000, seed=12)
        nb = EstimatorCore(spec, GRID, geom).nb
        assert nb.shape == (37, spec.num_bins, spec.num_frames)


class TestOutputMasking:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.nb = SpatialPowerSpectrum(rng.uniform(-1, 1, (5, 4, 3)))

    def test_ones_mask_is_plain_average(self):
        out = output_masking(self.nb, ones_mask(4, 3))
        np.testing.assert_allclose(out.values, self.nb.values.mean(axis=(1, 2)), rtol=1e-12)

    def test_single_bin_mask_selects_bin(self):
        weights = np.zeros((4, 3))
        weights[2, 1] = 1.0
        out = output_masking(self.nb, AttentionMask(weights))
        np.testing.assert_allclose(out.values, self.nb.values[:, 2, 1], rtol=1e-12)

    def test_mask_scale_invariance(self):
        a = output_masking(self.nb, AttentionMask(np.full((4, 3), 1.0)))
        b = output_masking(self.nb, AttentionMask(np.full((4, 3), 0.25)))
        np.testing.assert_allclose(a.values, b.values, rtol=1e-12)

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError, match="empty attention"):
            output_masking(self.nb, AttentionMask(np.zeros((4, 3))))


class TestNormalizeAndPick:
    def test_normalize_example(self):
        out = normalize_sps(SpatialPowerSpectrum(np.array([2.0, 4.0, 1.0])))
        np.testing.assert_array_equal(out.values, [0.5, 1.0, 0.25])
        assert out.normalized

    def test_normalize_idempotent(self):
        sps = SpatialPowerSpectrum(np.random.default_rng(14).uniform(0.1, 2, 37))
        once = normalize_sps(sps)
        np.testing.assert_array_equal(normalize_sps(once).values, once.values)

    def test_normalize_preserves_argmax(self):
        sps = SpatialPowerSpectrum(np.random.default_rng(15).uniform(0.1, 2, 37))
        assert np.argmax(normalize_sps(sps).values) == np.argmax(sps.values)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_sps(SpatialPowerSpectrum(np.zeros(5)))

    def test_pick_one_hot(self):
        values = np.zeros(37)
        values[18] = 1.0
        assert pick_doa(SpatialPowerSpectrum(values), GRID) == 90.0

    def test_pick_tie_breaks_to_lowest_index(self):
        assert pick_doa(SpatialPowerSpectrum(np.ones(37)), GRID) == 0.0

    def test_pick_rescale_invariant(self):
        values = np.random.default_rng(16).uniform(0, 1, 37)
        a = pick_doa(SpatialPowerSpectrum(values), GRID)
        b = pick_doa(SpatialPowerSpectrum(3.0 * values), GRID)
        assert a == b

    def test_pick_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pick_doa(SpatialPowerSpectrum(np.ones(5)), GRID)

    def test_aggregate_frames_mean(self):
        per_frame = SpatialPowerSpectrum(np.array([[1.0, 3.0], [2.0, 6.0]]))
        np.testing.assert_array_equal(aggregate_frames(per_frame).values, [2.0, 4.0])
        np.testing.assert_array_equal(
            aggregate_frames(per_frame, frame_range=(1, 2)).values, [3.0, 6.0]
        )


class TestSpsLoss:
    def test_identical_spectra_give_zero(self):
        sps = normalize_sps(SpatialPowerSpectrum(np.array([1.0, 0.5])))
        assert sps_loss(sps, sps) == 0.0

    def test_worked_example(self):
        a = SpatialPowerSpectrum(np.array([1.0, 0.0]), normalized=True)
        b = SpatialPowerSpectrum(np.array([1.0, 0.5]), normalized=True)
        assert sps_loss(a, b) == pytest.approx(0.125)

    def test_requires_normalized(self):
        a = SpatialPowerSpectrum(np.array([1.0, 0.0]))
        b = SpatialPowerSpectrum(np.array([1.0, 0.5]), normalized=True)
        with pytest.raises(ValueError, match="normalized"):
            sps_loss(a, b)

    def test_length_mismatch_raises(self):
        a = SpatialPowerSpectrum(np.array([1.0, 0.0]), normalized=True)
        b = SpatialPowerSpectrum(np.array([1.0, 0.5, 0.0]), normalized=True)
        with pytest.raises(ValueError):
            sps_loss(a, b)


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
        mask = ones_mask(spec.num_bins, spec.num_frames)
        plain = core.spectra("srp-p", [mask])[0]
        masked = core.spectra("srp-mp", [mask])[0]
        np.testing.assert_array_equal(plain.values, masked.values)

    def test_output_is_normalized(self):
        spec, geom = _plane_wave_spec(60.0, seed=18)
        mask = ones_mask(spec.num_bins, spec.num_frames)
        sps = EstimatorCore(spec, GRID, geom).spectra("srp-mp", [mask])[0]
        assert sps.normalized and sps.values.max() == 1.0

    def test_band_mask_still_recovers_plane_wave(self):
        spec, geom = _plane_wave_spec(70.0, seed=19)
        mask = band_range_mask(spec.num_bins, spec.num_frames, 20, 180)
        assert pick_doa(EstimatorCore(spec, GRID, geom).spectra("srp-mp", [mask])[0], GRID) == 70.0

    def test_all_zero_mask_raises(self):
        spec, geom = _plane_wave_spec(90.0, samples=2000, seed=20)
        mask = AttentionMask(np.zeros((spec.num_bins, spec.num_frames)))
        with pytest.raises(ValueError, match="empty attention"):
            EstimatorCore(spec, GRID, geom).spectra("srp-mp", [mask])

    def test_max_freq_limit_zeroes_high_bins(self):
        spec, geom = _plane_wave_spec(100.0, seed=21)
        mask = ones_mask(spec.num_bins, spec.num_frames)
        full = EstimatorCore(spec, GRID, geom).spectra("srp-mp", [mask])[0]
        limited = EstimatorCore(spec, GRID, geom, max_freq_hz=2000.0).spectra("srp-mp", [mask])[0]
        assert pick_doa(limited, GRID) == 100.0
        assert not np.array_equal(full.values, limited.values)


class TestNormMusic:
    def test_plane_wave_peaks_on_grid_angle(self):
        for doa in (45.0, 90.0, 130.0):
            spec, geom = _plane_wave_spec(doa, seed=22)
            mask = ones_mask(spec.num_bins, spec.num_frames)
            assert pick_doa(EstimatorCore(spec, GRID, geom).spectra("music", [mask])[0], GRID) == doa

    def test_band_weighted_variant_matches(self):
        spec, geom = _plane_wave_spec(65.0, seed=23)
        mask = band_range_mask(spec.num_bins, spec.num_frames, 30, 200)
        assert pick_doa(EstimatorCore(spec, GRID, geom).spectra("music", [mask])[0], GRID) == 65.0

    def test_output_is_normalized(self):
        spec, geom = _plane_wave_spec(90.0, seed=24)
        mask = ones_mask(spec.num_bins, spec.num_frames)
        sps = EstimatorCore(spec, GRID, geom).spectra("music", [mask])[0]
        assert sps.normalized and sps.values.max() == 1.0

    def test_num_sources_must_be_below_channel_count(self):
        spec, geom = _plane_wave_spec(90.0, samples=4000, seed=25)
        mask = ones_mask(spec.num_bins, spec.num_frames)
        with pytest.raises(ValueError, match="num_sources"):
            EstimatorCore(spec, GRID, geom).spectra("music", [mask], num_sources=4)

    def test_too_few_frames_raise(self):
        spec, geom = _plane_wave_spec(90.0, samples=1100, seed=26)
        assert spec.num_frames < 4
        mask = ones_mask(spec.num_bins, spec.num_frames)
        with pytest.raises(ValueError, match="full-rank"):
            EstimatorCore(spec, GRID, geom).spectra("music", [mask])

    def test_all_zero_mask_raises(self):
        spec, geom = _plane_wave_spec(90.0, seed=27)
        mask = AttentionMask(np.zeros((spec.num_bins, spec.num_frames)))
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

    @pytest.mark.parametrize("method", ["srp-p", "srp-mp"])
    def test_per_frame_sums_to_the_spectrum(self, method):
        per_frame = self.core.per_frame(method, self.mask)
        assert per_frame.shape == (GRID.size, self.spec.num_frames)
        summed = normalize_sps(SpatialPowerSpectrum(per_frame.sum(axis=1)))
        np.testing.assert_allclose(
            summed.values, self.core.spectra(method, [self.mask])[0].values, rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("method", ["music", "srp-x"])
    def test_per_frame_needs_an_srp_method(self, method):
        with pytest.raises(ValueError, match="per-frame"):
            self.core.per_frame(method, self.mask)


class TestValidation:
    def test_weighting_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            PhatWeighting(-np.ones((1, 2, 2)))

    def test_cross_spectra_must_be_square(self):
        with pytest.raises(ValueError):
            CrossSpectralTensor(np.zeros((2, 2, 3, 4), dtype=complex))

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError):
            SpatialPowerSpectrum(np.array([0.5, 0.25]), normalized=True)
