"""Scene simulation: image-method RIRs, plane waves, SIR/SNR mixing."""

import numpy as np
import pytest

from doalab import simulate
from doalab.geometry import ArrayGeometry
from doalab.simulate import (
    RoomSpec,
    SceneSpec,
    SourceSpec,
    image_method_rir,
    mix_scene,
    plane_wave_synthesize,
    speech_shaped_noise,
    white_noise,
)

FS = 16000
ROOM = RoomSpec(np.array([6.0, 5.0, 2.7]), 0.5)


def _windowed_sinc(offsets, half=40):
    # independent re-derivation of the 81-tap interpolation kernel
    w = np.where(np.abs(offsets) <= half, 0.5 * (1 + np.cos(np.pi * offsets / half)), 0.0)
    return np.sinc(offsets) * w


def _reference_scatter(length, delays, amps, half=40):
    # per-tap formulation: the kernel evaluated with trig on every tap
    out = np.zeros(length)
    base = np.floor(delays).astype(np.int64)
    pos = base[:, None] + np.arange(-half, half + 1)[None, :]
    taps = amps[:, None] * _windowed_sinc(pos - delays[:, None], half)
    valid = (pos >= 0) & (pos < length)
    out += np.bincount(pos[valid], weights=taps[valid], minlength=length)
    return out


def _reference_rir_taps(room, src, mics, max_order, length, fs=FS, c=343.0):
    # image positions stacked as rows, each mic walking all of them with np.linalg.norm
    src, mics, dims = np.asarray(src, float), np.asarray(mics, float), room.dimensions
    reach = c * length / fs
    if room.t60 == 0:
        positions, gains = src[None, :], np.ones(1)
    else:
        beta = np.sqrt(1.0 - simulate._sabine_absorption(room, c))
        if max_order is None:
            orders = np.ceil((reach + dims) / (2.0 * dims)).astype(int)
        else:
            orders = np.full(3, max_order)
        axes = []
        for ax in range(3):
            m = np.arange(-orders[ax], orders[ax] + 1)
            coords = [(1 - 2 * p) * src[ax] + 2.0 * m * dims[ax] for p in (0, 1)]
            refl = [np.abs(m - p) + np.abs(m) for p in (0, 1)]
            axes.append((np.concatenate(coords), np.concatenate(refl)))
        cx, cy, cz = np.meshgrid(axes[0][0], axes[1][0], axes[2][0], indexing="ij")
        rx, ry, rz = np.meshgrid(axes[0][1], axes[1][1], axes[2][1], indexing="ij")
        positions = np.stack([cx.ravel(), cy.ravel(), cz.ravel()], axis=1)
        gains = beta ** (rx + ry + rz).ravel().astype(np.float64)
    taps = np.zeros((len(mics), length))
    for q, mic in enumerate(mics):
        dist = np.linalg.norm(positions - mic[None, :], axis=1)
        d = dist[dist <= reach]
        taps[q] = simulate._scatter_pulses(length, d / c * fs, gains[dist <= reach] / (4.0 * np.pi * d))
    return taps


class TestScatterPulses:
    LENGTH = 600

    def _assert_matches_reference(self, delays, amps):
        for d, a in zip(delays, amps):
            got = simulate._scatter_pulses(self.LENGTH, np.array([d]), np.array([a]))
            ref = _reference_scatter(self.LENGTH, np.array([d]), np.array([a]))
            assert got.shape == (self.LENGTH,)
            np.testing.assert_allclose(
                got, ref, rtol=0, atol=1e-12 * np.abs(ref).max(), err_msg=f"delay {d!r}"
            )
        got = simulate._scatter_pulses(self.LENGTH, delays, amps)
        ref = _reference_scatter(self.LENGTH, delays, amps)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_random_delays(self):
        rng = np.random.default_rng(0)
        delays = rng.uniform(0.0, self.LENGTH, 300)
        self._assert_matches_reference(delays, rng.uniform(-1.0, 1.0, delays.size))

    def test_exact_integers_and_zero(self):
        delays = np.array([0.0, 1.0, 39.0, 40.0, 41.0, 300.0, self.LENGTH - 1.0])
        self._assert_matches_reference(delays, np.linspace(0.5, 2.0, delays.size))

    def test_integers_plus_minus_tiny(self):
        centers = np.array([1.0, 40.0, 123.0, 500.0])
        delays = np.concatenate([centers + 1e-13, centers - 1e-13])
        self._assert_matches_reference(delays, np.ones(delays.size))

    def test_half_integers(self):
        delays = np.array([0.5, 1.5, 39.5, 40.5, 250.5, self.LENGTH - 0.5])
        self._assert_matches_reference(delays, -np.ones(delays.size))

    def test_kernel_running_past_length(self):
        # near either end the kernel is clipped; beyond it, nothing lands
        n = self.LENGTH
        delays = np.array([0.2, 3.7, n - 3.3, n + 0.4, n + 25.6, n + 38.3, n + 39.5])
        self._assert_matches_reference(delays, np.ones(delays.size))
        far = simulate._scatter_pulses(n, np.array([n + 40.5, 10.0 * n]), np.ones(2))
        np.testing.assert_array_equal(far, np.zeros(n))

    def test_empty_delays(self):
        out = simulate._scatter_pulses(self.LENGTH, np.array([]), np.array([]))
        np.testing.assert_array_equal(out, np.zeros(self.LENGTH))


class TestImageMethodRir:
    def test_free_field_single_fractional_pulse(self):
        room = RoomSpec(np.array([6.0, 5.0, 2.7]), 0.0)
        src = np.array([2.0, 2.5, 1.4])
        mic = np.array([4.0, 2.5, 1.4])
        rir = image_method_rir(room, src, [mic], length=400, sample_rate=FS)
        np.testing.assert_array_equal(rir.taps, rir.direct_taps)
        dist = 2.0
        delay = dist / 343.0 * FS
        expected = _windowed_sinc(np.arange(400) - delay) / (4.0 * np.pi * dist)
        np.testing.assert_allclose(rir.taps[0], expected, atol=1e-12)

    def test_doubling_distance_halves_amplitude(self):
        # distances chosen so both delays are whole samples (same kernel peak)
        room = RoomSpec(np.array([10.0, 5.0, 2.7]), 0.0)
        src = np.array([1.0, 2.5, 1.4])
        r = 343.0 * 100 / FS  # 100-sample propagation delay
        near = image_method_rir(room, src, [[1.0 + r, 2.5, 1.4]], length=600, sample_rate=FS)
        far = image_method_rir(room, src, [[1.0 + 2 * r, 2.5, 1.4]], length=600, sample_rate=FS)
        ratio = np.abs(near.taps).max() / np.abs(far.taps).max()
        assert ratio == pytest.approx(2.0, rel=1e-9)

    def test_schroeder_decay_reaches_minus_60_near_t60(self):
        rir = image_method_rir(ROOM, [2.0, 2.5, 1.4], [[4.0, 2.5, 1.4]], sample_rate=FS)
        h = rir.taps[0]
        edc = np.cumsum(h[::-1] ** 2)[::-1]
        edc_db = 10.0 * np.log10(edc / edc.max())
        crossing = np.argmax(edc_db <= -60.0) / FS
        assert 0.4 <= crossing <= 0.6

    @pytest.mark.parametrize("t60", [0.2, 0.3, 0.8])
    def test_schroeder_crossing_tracks_t60(self, t60):
        # default length: the response ends 50 ms after t60
        room = RoomSpec(np.array([6.0, 5.0, 2.7]), t60)
        rir = image_method_rir(room, [2.0, 2.5, 1.4], [[4.0, 2.5, 1.4]], sample_rate=FS)
        h = rir.taps[0]
        edc = np.cumsum(h[::-1] ** 2)[::-1]
        edc_db = 10.0 * np.log10(edc / edc.max())
        crossing = np.argmax(edc_db <= -60.0) / FS
        assert 0.8 * t60 <= crossing <= 1.2 * t60

    @pytest.mark.parametrize("doa_deg", [0.0, 25.0, 60.0, 90.0, 135.0, 180.0])
    def test_direct_path_delays_match_far_field_model(self, doa_deg):
        # a source 1 km away in an anechoic room: the spherical-wave error
        # of the far-field model is below 1e-3 samples on a 0.24 m aperture
        geom = ArrayGeometry.uniform(4, 0.08)
        room = RoomSpec(np.array([2100.0, 1100.0, 10.0]), 0.0)
        center = np.array([1050.0, 50.0, 5.0])
        axis, normal = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        mics = center + (geom.aperture / 2.0 - geom.mic_distances)[:, None] * axis
        theta = np.deg2rad(doa_deg)
        src = center + 1000.0 * (np.cos(theta) * axis + np.sin(theta) * normal)
        first = int(np.min(np.linalg.norm(mics - src, axis=1)) / 343.0 * FS) - 200
        rir = image_method_rir(room, src, mics, length=first + 1024, sample_rate=FS)
        spectra = np.fft.rfft(rir.direct_taps[:, first:], axis=1)
        k = np.arange(1, 200)
        for q in range(1, geom.num_mics):
            phase = np.unwrap(np.angle(spectra[q, k] * np.conj(spectra[0, k])))
            tau = -np.polyfit(k, phase, 1)[0] * 1024 / (2.0 * np.pi)
            expected = np.cos(theta) * geom.mic_distances[q] / 343.0 * FS
            assert tau == pytest.approx(expected, abs=5e-3)

    @pytest.mark.parametrize("t60, max_order", [(0.0, None), (0.3, None), (0.3, 3)])
    def test_taps_match_per_mic_norm_walk(self, t60, max_order):
        room = RoomSpec(np.array([6.0, 5.0, 2.7]), t60)
        src = [2.0, 2.5, 1.4]
        mics = [[4.0, 2.5, 1.4], [4.08, 2.51, 1.43], [3.7, 1.2, 2.1]]
        length = 4000 if t60 else 600
        rir = image_method_rir(room, src, mics, max_order=max_order, length=length, sample_rate=FS)
        assert np.array_equal(rir.taps, _reference_rir_taps(room, src, mics, max_order, length))

    def test_positions_outside_room_raise(self):
        with pytest.raises(ValueError, match="inside the room"):
            image_method_rir(ROOM, [7.0, 2.5, 1.4], [[4.0, 2.5, 1.4]], length=100)

    def test_unachievable_t60_raises(self):
        tiny = RoomSpec(np.array([6.0, 5.0, 2.7]), 0.05)
        with pytest.raises(ValueError, match="t60 too small"):
            image_method_rir(tiny, [2.0, 2.5, 1.4], [[4.0, 2.5, 1.4]], length=100)

    def test_direct_energy_bounded_by_total(self):
        rir = image_method_rir(ROOM, [2.0, 2.5, 1.4], [[4.0, 2.5, 1.4], [4.1, 2.5, 1.4]], sample_rate=FS)
        direct = np.sum(rir.direct_taps**2, axis=1)
        total = np.sum(rir.taps**2, axis=1)
        assert np.all(direct <= total)

    def test_energy_monotone_in_absorption(self):
        # shorter t60 means more absorption and less reverberant energy
        energies = []
        for t60 in (0.6, 0.4, 0.2):
            room = RoomSpec(np.array([6.0, 5.0, 2.7]), t60)
            rir = image_method_rir(room, [2.0, 2.5, 1.4], [[4.0, 2.5, 1.4]], length=4000, sample_rate=FS)
            energies.append(np.sum(rir.taps**2))
        assert energies[0] > energies[1] > energies[2]


class TestPlaneWave:
    def setup_method(self):
        self.geom = ArrayGeometry.uniform(4, 0.08)

    def test_broadside_channels_identical(self):
        src = white_noise(1, 2000, seed=0)
        out = plane_wave_synthesize(src, 90.0, self.geom)
        for q in range(1, 4):
            np.testing.assert_allclose(out.samples[q], out.samples[0], atol=1e-12)

    def test_endfire_delay_in_samples(self):
        # doa 0, d2 = 0.08 m: channel 2 lags by 0.08/343 s = 3.73 samples
        src = white_noise(1, 4000, seed=1)
        out = plane_wave_synthesize(src, 0.0, self.geom)
        corr = np.correlate(out.samples[1], out.samples[0], mode="full")
        lag = np.argmax(corr) - (out.num_samples - 1)
        assert lag == round(0.08 / 343.0 * FS) == 4
        # sub-sample check via the cross-spectrum phase slope
        x0 = np.fft.rfft(out.samples[0])
        x1 = np.fft.rfft(out.samples[1])
        k = np.arange(50, 1200)
        phase = np.unwrap(np.angle(x1[k] * np.conj(x0[k])))
        slope = np.polyfit(k, phase, 1)[0]
        tau = -slope * out.num_samples / (2.0 * np.pi)
        assert tau == pytest.approx(0.08 / 343.0 * FS, abs=5e-3)

    def test_sinusoid_interchannel_phase_matches_steering_model(self):
        freq = 1000.0  # exact bin of a 4000-sample segment (spacing 4 Hz)
        t = np.arange(6000) / FS
        src = simulate.TimeSignal(np.sin(2 * np.pi * freq * t)[None, :], FS)
        out = plane_wave_synthesize(src, 40.0, self.geom)
        mid = slice(1000, 5000)
        ref_bin = np.fft.rfft(out.samples[0, mid])[250]
        for q in range(4):
            cross = np.fft.rfft(out.samples[q, mid])[250] * np.conj(ref_bin)
            expected = (
                -2.0 * np.pi * freq * np.cos(np.deg2rad(40.0)) * self.geom.mic_distances[q] / 343.0
            )
            wrapped = np.angle(np.exp(1j * (np.angle(cross) - expected)))
            assert wrapped == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("doa", [0.0, 37.5, 90.0, 143.0, 180.0])
    @pytest.mark.parametrize("num_mics, spacing", [(4, 0.08), (3, 0.21)])
    def test_matches_per_tap_convolution(self, doa, num_mics, spacing):
        # output sample t is sum_s x[s] h(t - s - tau_q), h the windowed sinc
        # evaluated tap by tap and summed in the time domain
        geom = ArrayGeometry.uniform(num_mics, spacing)
        src = white_noise(1, 3000, seed=2)
        out = plane_wave_synthesize(src, doa, geom)
        delays = np.cos(np.deg2rad(doa)) * geom.mic_distances / geom.speed_of_sound * FS
        reach = 41 + int(np.ceil(np.max(np.abs(delays))))
        lags = np.arange(-reach, reach + 1)
        for q, tau in enumerate(delays):
            ref = np.convolve(src.samples[0], _windowed_sinc(lags - tau))[reach : reach + src.num_samples]
            assert np.max(np.abs(out.samples[q] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_multichannel_source_rejected(self):
        with pytest.raises(ValueError):
            plane_wave_synthesize(white_noise(2, 100, seed=0), 90.0, self.geom)


class TestNoiseSources:
    def test_white_noise_statistics(self):
        sig = white_noise(1, 100_000, seed=3)
        n = sig.num_samples
        assert abs(sig.samples.mean()) < 3.0 / np.sqrt(n)
        assert sig.samples.var() == pytest.approx(1.0, rel=0.05)

    def test_white_noise_seeded(self):
        np.testing.assert_array_equal(
            white_noise(2, 500, seed=9).samples, white_noise(2, 500, seed=9).samples
        )

    def test_speech_shaped_noise_unit_rms_and_tilt(self):
        sig = speech_shaped_noise(50_000, seed=4)
        assert np.sqrt(np.mean(sig.samples**2)) == pytest.approx(1.0, rel=1e-9)
        spec = np.abs(np.fft.rfft(sig.samples[0])) ** 2
        low = spec[50:2000].mean()
        high = spec[-2000:].mean()
        assert low > 10.0 * high  # low-frequency dominated


def _two_source_spec(seed=0, snr_db=30.0, sir_db=0.0, t60=0.3):
    return SceneSpec(
        room=RoomSpec(np.array([6.0, 5.0, 2.7]), t60),
        geometry=ArrayGeometry.uniform(4, 0.08),
        sources=(SourceSpec(60.0, 1.5, "speech"), SourceSpec(120.0, 1.5, "white")),
        snr_db=snr_db,
        sir_db=sir_db,
        seed=seed,
        duration_frames=40,
        rir_length_s=0.2,
    )


class TestMixScene:
    def test_zero_sir_equalizes_mic1_energies(self):
        truth = mix_scene(_two_source_spec(sir_db=0.0))
        e1 = np.sum((truth.direct[0].samples[0] + truth.reverb[0].samples[0]) ** 2)
        e2 = np.sum((truth.direct[1].samples[0] + truth.reverb[1].samples[0]) ** 2)
        assert abs(10.0 * np.log10(e1 / e2)) < 0.01

    def test_requested_sir_snr_hit_within_tenth_db(self):
        spec = _two_source_spec(seed=5, snr_db=24.0, sir_db=4.0)
        truth = mix_scene(spec)
        e1 = np.sum((truth.direct[0].samples[0] + truth.reverb[0].samples[0]) ** 2)
        e2 = np.sum((truth.direct[1].samples[0] + truth.reverb[1].samples[0]) ** 2)
        assert 10.0 * np.log10(e1 / e2) == pytest.approx(4.0, abs=0.1)
        p_noise = np.mean(truth.noise.samples[0] ** 2)
        p_src = np.mean((truth.direct[0].samples[0] + truth.reverb[0].samples[0]) ** 2)
        assert 10.0 * np.log10(p_src / p_noise) == pytest.approx(24.0, abs=0.1)

    def test_disabled_noise_gives_exact_source_sum(self):
        spec = _two_source_spec(snr_db=None)
        truth = mix_scene(spec)
        assert not np.any(truth.noise.samples)
        total = np.zeros_like(truth.mixture.samples)
        for i in range(2):
            total += truth.direct[i].samples
            total += truth.reverb[i].samples
        np.testing.assert_array_equal(truth.mixture.samples, total)

    def test_same_seed_bit_identical(self):
        a = mix_scene(_two_source_spec(seed=11))
        b = mix_scene(_two_source_spec(seed=11))
        np.testing.assert_array_equal(a.mixture.samples, b.mixture.samples)
        np.testing.assert_array_equal(a.noise.samples, b.noise.samples)
        np.testing.assert_array_equal(a.mic_positions, b.mic_positions)

    def test_decomposition_identity_exact(self):
        truth = mix_scene(_two_source_spec(seed=12, snr_db=20.0))
        total = np.zeros_like(truth.mixture.samples)
        for i in range(2):
            total += truth.direct[i].samples
            total += truth.reverb[i].samples
        total += truth.noise.samples
        np.testing.assert_array_equal(truth.mixture.samples, total)

    def test_mic_source_geometry_matches_doa(self):
        truth = mix_scene(_two_source_spec(seed=13))
        axis = truth.mic_positions[0] - truth.mic_positions[-1]
        axis /= np.linalg.norm(axis)
        to_src = truth.source_positions[0] - truth.mic_positions.mean(axis=0)
        to_src /= np.linalg.norm(to_src)
        angle = np.rad2deg(np.arccos(np.clip(np.dot(axis, to_src), -1, 1)))
        assert angle == pytest.approx(60.0, abs=1e-6)

    def test_scene_spec_json_round_trip(self):
        spec = _two_source_spec(seed=14)
        back = SceneSpec.from_json_dict(spec.to_json_dict())
        assert back.to_json_dict() == spec.to_json_dict()


class TestSceneSpecValidation:
    def test_two_sources_need_sir(self):
        with pytest.raises(ValueError, match="sir_db"):
            SceneSpec(
                room=ROOM,
                geometry=ArrayGeometry.uniform(2, 0.08),
                sources=(SourceSpec(10.0, 1.0), SourceSpec(90.0, 1.0)),
                snr_db=None,
                sir_db=None,
                seed=0,
                duration_frames=4,
            )

    def test_doa_range_checked(self):
        with pytest.raises(ValueError):
            SourceSpec(185.0, 1.0)

    def test_bad_room_rejected(self):
        with pytest.raises(ValueError):
            RoomSpec(np.array([6.0, -5.0, 2.7]), 0.3)
        with pytest.raises(ValueError):
            RoomSpec(np.array([6.0, 5.0, 2.7]), -0.1)
