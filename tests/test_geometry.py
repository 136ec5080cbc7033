"""DOA grid and far-field steering matrix construction."""

import numpy as np
import pytest

from doalab.geometry import ArrayGeometry, DoaGrid, make_grid, steering_matrix


class TestMakeGrid:
    def test_37_point_grid(self):
        grid = make_grid(37)
        assert grid.angles_deg[0] == 0.0
        assert grid.angles_deg[1] == 5.0
        assert grid.angles_deg[18] == 90.0
        assert grid.angles_deg[36] == 180.0

    def test_fine_grid_spacing(self):
        grid = make_grid(180)
        np.testing.assert_allclose(np.diff(grid.angles_deg), 180.0 / 179.0)

    def test_two_point_grid(self):
        np.testing.assert_array_equal(make_grid(2).angles_deg, [0.0, 180.0])

    def test_too_small_grid_raises(self):
        with pytest.raises(ValueError):
            make_grid(1)


class TestArrayGeometry:
    def test_uniform_spacing(self):
        geom = ArrayGeometry.uniform(4, 0.08)
        np.testing.assert_allclose(geom.mic_distances, [0.0, 0.08, 0.16, 0.24])
        assert geom.aperture == pytest.approx(0.24)

    def test_first_mic_must_be_reference(self):
        with pytest.raises(ValueError):
            ArrayGeometry(np.array([0.1, 0.2]))

    def test_distances_strictly_increasing(self):
        with pytest.raises(ValueError):
            ArrayGeometry(np.array([0.0, 0.2, 0.2]))

    @pytest.mark.parametrize("distances", [[np.nan, 0.1], [0.0, np.nan], [0.0, 0.1, np.inf]])
    def test_distances_must_be_finite(self, distances):
        with pytest.raises(ValueError, match="finite"):
            ArrayGeometry(np.array(distances))

    @pytest.mark.parametrize("speed", [np.nan, np.inf, 0.0, -343.0])
    def test_speed_of_sound_finite_and_positive(self, speed):
        with pytest.raises(ValueError, match="speed_of_sound must be a finite number > 0"):
            ArrayGeometry(np.array([0.0, 0.1]), speed)

    @pytest.mark.parametrize("spacing", [np.nan, np.inf, -np.inf, 0.0, -0.08])
    def test_uniform_spacing_checked_before_use(self, spacing):
        """A spacing that is not a finite number > 0 is named, with no numpy warning."""
        with pytest.raises(ValueError, match="spacing must be a finite number > 0"):
            ArrayGeometry.uniform(4, spacing)

    @pytest.mark.parametrize("num_mics", [2.5, 4.0, True, "4", None])
    def test_uniform_num_mics_must_be_an_integer(self, num_mics):
        """A non-integer count is named rather than rounded by ``np.arange``; a bool is no count."""
        with pytest.raises(ValueError, match="num_mics must be an integer"):
            ArrayGeometry.uniform(num_mics, 0.08)

    def test_uniform_accepts_numpy_integers(self):
        assert ArrayGeometry.uniform(np.int64(3), 0.08).num_mics == 3


class TestSteeringMatrix:
    def setup_method(self):
        self.geom = ArrayGeometry.uniform(4, 0.08)
        self.grid = make_grid(37)
        self.sm = steering_matrix(self.grid, self.geom, 16000, 512)

    def test_shape(self):
        assert self.sm.shape == (37, 257, 4) and self.sm.dtype == complex

    def test_broadside_is_all_ones(self):
        c90 = np.where(self.grid.angles_deg == 90.0)[0][0]
        np.testing.assert_allclose(self.sm[c90], 1.0, atol=1e-12)

    def test_dc_bin_is_all_ones(self):
        np.testing.assert_allclose(self.sm[:, 0, :], 1.0, atol=1e-15)

    def test_endfire_phase_at_1khz(self):
        # theta = 0, d = 0.08 m, f = 1000 Hz: phase = -2 pi 1000 0.08 / 343
        k = 32  # 32 * 16000 / 512 = 1000 Hz
        expected = -2.0 * np.pi * 1000.0 * 0.08 / 343.0
        phase = np.angle(self.sm[0, k, 1])
        np.testing.assert_allclose(phase, expected, rtol=1e-9)
        assert expected == pytest.approx(-1.4652, abs=1e-3)

    def test_unit_modulus(self):
        np.testing.assert_allclose(np.abs(self.sm), 1.0, atol=1e-12)

    def test_reference_channel_identity(self):
        np.testing.assert_array_equal(self.sm[:, :, 0], 1.0)

    def test_mirror_symmetry(self):
        # D(180 - theta) = conj(D(theta)) by cosine antisymmetry
        np.testing.assert_allclose(
            self.sm[::-1], np.conj(self.sm), rtol=1e-12, atol=1e-12
        )


class TestDoaGrid:
    def test_must_span_domain(self):
        with pytest.raises(ValueError):
            DoaGrid(np.array([0.0, 90.0]))
        with pytest.raises(ValueError):
            DoaGrid(np.array([10.0, 180.0]))

    def test_must_increase(self):
        with pytest.raises(ValueError):
            DoaGrid(np.array([0.0, 90.0, 90.0, 180.0]))
