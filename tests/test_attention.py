"""Oracle and band-selection attention masks plus the mask file format."""

import numpy as np
import pytest

from doalab import attention
from doalab.signal import MultichannelSpectrogram

FS = 16000


def _spec(bins):
    bins = np.asarray(bins, dtype=complex)
    k = bins.shape[1]
    return MultichannelSpectrogram(bins, FS, 2 * (k - 1))


class TestPsmMask:
    def test_equal_signals_give_ones_at_active_bins(self):
        bins = np.array([[[1.0 + 1j, 2.0], [0.5j, 3.0]]])
        mask = attention.psm_mask(_spec(bins), _spec(bins))
        np.testing.assert_allclose(mask, 1.0)

    def test_antiphase_clamped_to_zero(self):
        direct = _spec(np.array([[[1.0, 1.0], [1.0, 1.0]]]))
        mixture = _spec(np.array([[[-2.0, -0.5], [-1.0, -3.0]]]))
        mask = attention.psm_mask(direct, mixture)
        np.testing.assert_array_equal(mask, 0.0)

    def test_orthogonal_unit_noise_gives_half(self):
        # |Xd| = 1, Y = Xd + j (unit noise at 90 degrees): sqrt(1/2) cos(45) = 0.5
        direct = _spec(np.array([[[1.0, 1.0], [1.0, 1.0]]]))
        mixture = _spec(np.array([[[1.0 + 1j] * 2] * 2]))
        mask = attention.psm_mask(direct, mixture)
        np.testing.assert_allclose(mask, 0.5, rtol=1e-12)

    def test_silent_bins_get_zero(self):
        direct = _spec(np.zeros((1, 2, 2)))
        mixture = _spec(np.zeros((1, 2, 2)))
        np.testing.assert_array_equal(attention.psm_mask(direct, mixture), 0.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            attention.psm_mask(_spec(np.zeros((1, 2, 2))), _spec(np.zeros((1, 2, 3))))

    def test_upper_bound_by_magnitude_ratio_term(self):
        rng = np.random.default_rng(0)
        xd = rng.standard_normal((1, 5, 4)) + 1j * rng.standard_normal((1, 5, 4))
        y = xd + 0.5 * (rng.standard_normal((1, 5, 4)) + 1j * rng.standard_normal((1, 5, 4)))
        mask = attention.psm_mask(_spec(xd), _spec(y))
        bound = np.sqrt(np.abs(xd[0]) ** 2 / (np.abs(xd[0]) ** 2 + np.abs(y[0] - xd[0]) ** 2))
        assert np.all(mask <= bound + 1e-12)


class TestMagnitudeRatioMask:
    def test_equal_signals(self):
        bins = np.array([[[1.0, 0.0], [2.0, 3.0]]])
        mask = attention.magnitude_ratio_mask(_spec(bins), _spec(bins))
        np.testing.assert_array_equal(mask, [[1.0, 0.0], [1.0, 1.0]])

    def test_zero_direct_gives_zero(self):
        direct = _spec(np.zeros((1, 2, 2)))
        mixture = _spec(np.ones((1, 2, 2)))
        np.testing.assert_array_equal(attention.magnitude_ratio_mask(direct, mixture), 0.0)

    def test_direct_ratio(self):
        direct = _spec(np.full((1, 2, 2), 0.3))
        mixture = _spec(np.full((1, 2, 2), 0.6))
        np.testing.assert_allclose(attention.magnitude_ratio_mask(direct, mixture), 0.5)

    def test_ratio_reconstructs_direct_magnitude(self):
        rng = np.random.default_rng(1)
        xd = rng.standard_normal((1, 4, 3)) + 1j * rng.standard_normal((1, 4, 3))
        mask = attention.magnitude_ratio_mask(_spec(xd), _spec(xd))
        np.testing.assert_allclose(mask * np.abs(xd[0]), np.abs(xd[0]), rtol=1e-12)


class TestBinarize:
    def test_below_threshold_zeroed(self):
        mask = np.array([[0.3]])
        assert attention.binarize(mask, 0.5)[0, 0] == 0.0

    def test_tie_at_threshold_kept(self):
        # thresholding uses a strict less-than
        mask = np.array([[0.5]])
        assert attention.binarize(mask, 0.5)[0, 0] == 1.0

    def test_zero_threshold_gives_all_ones(self):
        mask = np.random.default_rng(2).uniform(0, 1, (4, 3))
        np.testing.assert_array_equal(attention.binarize(mask, 0.0), 1.0)

    def test_idempotent(self):
        mask = np.random.default_rng(3).uniform(0, 1, (6, 5))
        once = attention.binarize(mask, 0.4)
        np.testing.assert_array_equal(attention.binarize(once, 0.4), once)

    @pytest.mark.parametrize("v_thr", [-0.1, 1.5, np.nan])
    def test_threshold_outside_the_unit_interval_raises(self, v_thr):
        with pytest.raises(ValueError, match="v_thr"):
            attention.binarize(np.ones((2, 2)), v_thr)


class TestBandMasks:
    def test_random_band_full_selection_is_ones(self):
        mask = attention.random_band_mask(8, 3, 8, seed=0)
        np.testing.assert_array_equal(mask, 1.0)

    def test_random_band_50_of_257(self):
        mask = attention.random_band_mask(257, 10, 50, seed=1)
        active = np.flatnonzero(mask.any(axis=1))
        assert active.size == 50
        # the selection is constant over frames
        np.testing.assert_array_equal(mask[active], 1.0)

    def test_random_band_seeded(self):
        a = attention.random_band_mask(64, 4, 10, seed=7)
        b = attention.random_band_mask(64, 4, 10, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_too_many_bands_raises(self):
        with pytest.raises(ValueError):
            attention.random_band_mask(10, 2, 11, seed=0)

    def test_band_range_inclusive(self):
        mask = attention.band_range_mask(257, 4, 100, 150)
        assert mask.sum() == 51 * 4
        assert np.all(mask[100:151] == 1.0)
        assert not mask[:100].any() and not mask[151:].any()

    def test_band_range_all_and_single(self):
        np.testing.assert_array_equal(attention.band_range_mask(5, 2, 0, 4), 1.0)
        single = attention.band_range_mask(5, 2, 0, 0)
        assert single.sum() == 2 and single[0].all()

    def test_band_range_out_of_range_raises(self):
        with pytest.raises(ValueError):
            attention.band_range_mask(5, 2, 3, 5)

    @pytest.mark.parametrize(
        "make, args",
        [
            (attention.band_range_mask, (5, 2, 1.5, 3)),
            (attention.band_range_mask, (5, 2, 0, 3.0)),
            (attention.band_range_mask, (5.0, 2, 0, 3)),
            (attention.band_range_mask, (5, 2.0, 0, 3)),
            (attention.band_range_mask, (5, True, 0, 3)),
            (attention.band_range_mask, (5, 0, 0, 3)),
            (attention.random_band_mask, (5, 2, 2.0, 0)),
            (attention.random_band_mask, (5, 2, True, 0)),
            (attention.random_band_mask, (5, 2, -1, 0)),
            (attention.random_band_mask, (5.0, 2, 2, 0)),
            (attention.random_band_mask, (5, 2.5, 2, 0)),
        ],
    )
    def test_counts_must_be_integers_in_range(self, make, args):
        with pytest.raises(ValueError, match="num_bins and num_frames must be integers >= 1"):
            make(*args)


class TestMaskFile:
    def test_save_load_round_trip(self, tmp_path):
        mask = np.random.default_rng(4).uniform(0, 1, (17, 9)).astype(np.float32)
        path = tmp_path / "m.mask"
        attention.save_mask(path, mask)
        loaded = attention.load_mask(path)
        assert loaded.dtype == np.float64
        np.testing.assert_allclose(loaded, mask, atol=1e-7)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.mask"
        attention.save_mask(path, np.ones((3, 2)))
        raw = path.read_bytes()
        assert raw[:8] == b"DOAMASK1"
        assert raw[8:16] == (3).to_bytes(4, "little") + (2).to_bytes(4, "little")
        assert len(raw) == 16 + 4 * 6

    @pytest.mark.parametrize("edit", ["trailing", "truncated", "overflowing"])
    def test_size_must_match_header(self, tmp_path, edit):
        path = tmp_path / "m.mask"
        attention.save_mask(path, np.ones((3, 2)))
        raw = path.read_bytes()
        edited = {"trailing": raw + bytes(4), "truncated": raw[:-1], "overflowing": raw[:8] + b"\xff" * 8 + raw[16:]}
        path.write_bytes(edited[edit])
        with pytest.raises(ValueError, match=r"is \d+ bytes, but its \d+ x \d+ header needs \d+"):
            attention.load_mask(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mask"
        path.write_bytes(b"NOTAMASK" + b"\x00" * 16)
        with pytest.raises(ValueError, match="DOAMASK1"):
            attention.load_mask(path)

