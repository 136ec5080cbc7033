"""Scene simulation: image-method RIRs, plane waves, SIR/SNR mixing."""

import dataclasses
import json
import os
import re
import threading

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from doalab import simulate
from doalab.geometry import ArrayGeometry
from doalab.signal import TimeSignal, write_wav
from doalab.simulate import (
    RoomSpec,
    SceneSpec,
    SourceSpec,
    image_method_rir,
    mix_scene,
    speech_shaped_noise,
    white_noise,
)
from synthesis import plane_wave_synthesize, scatter_pulses

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


def _reference_rir_taps(room, src, mics, length, fs=FS, c=343.0):
    # image positions stacked as rows, each mic walking all of them with np.linalg.norm
    src, mics, dims = np.asarray(src, float), np.asarray(mics, float), room.dimensions
    reach = c * length / fs
    if room.t60 == 0:
        positions, gains = src[None, :], np.ones(1)
    else:
        beta = np.sqrt(1.0 - simulate._sabine_absorption(room, c))
        orders = np.ceil((reach + dims) / (2.0 * dims)).astype(int)
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
        taps[q] = scatter_pulses(length, d / c * fs, gains[dist <= reach] / (4.0 * np.pi * d))
    return taps


class TestScatterPulses:
    LENGTH = 600

    def _assert_matches_reference(self, delays, amps):
        for d, a in zip(delays, amps):
            got = scatter_pulses(self.LENGTH, np.array([d]), np.array([a]))
            ref = _reference_scatter(self.LENGTH, np.array([d]), np.array([a]))
            assert got.shape == (self.LENGTH,)
            np.testing.assert_allclose(
                got, ref, rtol=0, atol=1e-12 * np.abs(ref).max(), err_msg=f"delay {d!r}"
            )
        got = scatter_pulses(self.LENGTH, delays, amps)
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
        far = scatter_pulses(n, np.array([n + 40.5, 10.0 * n]), np.ones(2))
        np.testing.assert_array_equal(far, np.zeros(n))

    def test_empty_delays(self):
        out = scatter_pulses(self.LENGTH, np.array([]), np.array([]))
        np.testing.assert_array_equal(out, np.zeros(self.LENGTH))


class TestTapTable:
    """The Chebyshev table of the 81 kernel taps, on both halves of the fraction."""

    BOUND = 1e-14  # of the kernel peak, 1 at offset 0

    @staticmethod
    def _table_taps(table, frac):
        # every tap of pulses at base + frac, from the table alone: (len(frac), 81)
        lower = frac < 0
        u = 4.0 * frac + np.where(lower, 1.0, -1.0)
        coefs = table.reshape(table.shape[0], -1, 2)  # (tap, k, half)
        cheb = np.polynomial.chebyshev.chebvander(u, coefs.shape[1] - 1)  # (pulse, k)
        return np.einsum("pk,mkp->pm", cheb, coefs[:, :, lower.astype(int)])

    def _max_error(self, table):
        upper = np.linspace(0.0, 0.5, 4001)
        frac = np.concatenate([upper, -upper[1:], [1e-13, -1e-13, 0.5 - 1e-13, -0.5 + 1e-13]])
        exact = _windowed_sinc(np.arange(-40, 41)[None, :] - frac[:, None])
        return np.max(np.abs(self._table_taps(table, frac) - exact))

    def test_every_tap_within_bound_of_the_kernel(self):
        assert simulate._TAP_TABLE.shape == (81, 2 * (simulate.TAP_DEGREE + 1))
        assert self._max_error(simulate._TAP_TABLE) <= self.BOUND

    def test_degree_is_where_the_series_falls_below_the_bound(self):
        # the largest coefficient of each degree, over taps and halves, from a
        # longer series: TAP_DEGREE is the first below the bound, so every
        # omitted term is smaller still; two degrees less misses the bound
        coefs = np.abs(simulate._tap_table(20)).reshape(81, 21, 2).max(axis=(0, 2))
        assert np.flatnonzero(coefs < self.BOUND)[0] == simulate.TAP_DEGREE
        assert self._max_error(simulate._tap_table(simulate.TAP_DEGREE - 2)) > self.BOUND


@st.composite
def _pulses(draw, length):
    """Delays that hit the kernel's special cases, with amplitudes."""
    n = draw(st.integers(0, 12))
    # bases at which the kernel just reaches either end of the buffer, or not
    edges = st.sampled_from([-41, -40, -39, length + 38, length + 39, length + 40])
    span = st.integers(-45, length + 45) | edges
    kinds = [
        span.map(float),  # integers
        span.map(lambda i: i + 1e-13),
        span.map(lambda i: i - 1e-13),
        span.map(lambda i: i + 0.5),
        st.floats(-45.0, length + 45.0),  # overhanging either end
    ]
    delays = draw(st.lists(st.one_of(kinds), min_size=n, max_size=n))
    amps = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return np.array(delays, dtype=float), np.array(amps, dtype=float)


class TestScatterProperties:
    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @hypothesis.given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), _pulses(n))))
    def test_matches_per_tap_reference(self, case):
        length, (delays, amps) = case
        got = scatter_pulses(length, delays, amps)
        ref = _reference_scatter(length, delays, amps)
        assert got.shape == (length,)
        # the peak of the unclipped kernel: near the ends the buffer may hold only its tails
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(amps).max(initial=0.0))


class TestImageMethodRir:
    def test_free_field_single_fractional_pulse(self):
        room = RoomSpec(np.array([6.0, 5.0, 2.7]), 0.0)
        src = np.array([2.0, 2.5, 1.4])
        mic = np.array([4.0, 2.5, 1.4])
        rir = image_method_rir(room, src, [mic], length=400, sample_rate=FS)
        taps, direct_taps = rir  # a plain record: it unpacks and names its fields
        assert taps is rir.taps and direct_taps is rir.direct_taps
        np.testing.assert_array_equal(taps, direct_taps)
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

    @pytest.mark.parametrize("t60", [0.0, 0.3])
    def test_taps_match_per_mic_norm_walk(self, t60):
        room = RoomSpec(np.array([6.0, 5.0, 2.7]), t60)
        src = [2.0, 2.5, 1.4]
        mics = [[4.0, 2.5, 1.4], [4.08, 2.51, 1.43], [3.7, 1.2, 2.1]]
        length = 4000 if t60 else 600
        rir = image_method_rir(room, src, mics, length=length, sample_rate=FS)
        assert np.array_equal(rir.taps, _reference_rir_taps(room, src, mics, length))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @hypothesis.given(st.integers(0, 2**32 - 1))
    def test_anechoic_response_is_its_direct_path(self, seed):
        # an anechoic room's only image is its direct path, within reach of every mic here
        rng = np.random.default_rng(seed)
        room = RoomSpec(np.array([6.0, 5.0, 2.7]), 0.0)
        src = rng.uniform(0.1, room.dimensions - 0.1)
        mics = rng.uniform(0.1, room.dimensions - 0.1, (4, 3))
        rir = image_method_rir(room, src, mics, sample_rate=FS)
        assert np.array_equal(rir.taps, rir.direct_taps)

    def test_anechoic_taps_are_zero_beyond_reach(self):
        # 30 taps reach 0.64 m: mic 1 at 0.5 m is within it, the pulse of mic 2
        # at 1.0 m (46.6 taps) is not, though its leading taps fall in the buffer
        room = RoomSpec(np.array([6.0, 5.0, 2.7]), 0.0)
        rir = image_method_rir(room, [2.0, 2.5, 1.4], [[2.5, 2.5, 1.4], [3.0, 2.5, 1.4]], length=30, sample_rate=FS)
        assert np.array_equal(rir.taps[0], rir.direct_taps[0]) and np.any(rir.taps[0])
        assert not np.any(rir.taps[1]) and not np.any(np.signbit(rir.taps[1]))
        pulse = scatter_pulses(30, np.array([1.0 / 343.0 * FS]), np.array([1.0 / (4.0 * np.pi)]))
        assert np.any(pulse) and np.array_equal(rir.direct_taps[1], pulse)

    @pytest.mark.parametrize("t60", [0.0, 0.3])
    def test_microphone_on_the_source_is_named(self, t60):
        # raised before any division by the distance, so numpy warns of nothing
        room = RoomSpec(np.array([6.0, 5.0, 2.7]), t60)
        with pytest.raises(ValueError, match="a microphone coincides with the source"):
            image_method_rir(room, [2.0, 2.5, 1.4], [[4.0, 2.5, 1.4], [2.0, 2.5, 1.4]], length=100)

    @pytest.mark.parametrize("t60", [0.0, 0.3])
    @pytest.mark.parametrize("length", [None, 100])
    def test_delay_beyond_float_precision_is_named(self, t60, length):
        # c = 1e-300 puts the direct path ~1e304 taps away: no fraction of a tap is left to place
        room = RoomSpec(np.array([6.0, 5.0, 2.7]), t60)
        with pytest.raises(ValueError, match=r"speed_of_sound 1e-300 at sample_rate 16000 puts a direct path >= 2\*\*52 taps away"):
            image_method_rir(room, [2.0, 2.5, 1.4], [[4.0, 2.5, 1.4]], length=length, speed_of_sound=1e-300)

    def test_positions_outside_room_raise(self):
        with pytest.raises(ValueError, match="inside the room"):
            image_method_rir(ROOM, [7.0, 2.5, 1.4], [[4.0, 2.5, 1.4]], length=100)

    @pytest.mark.parametrize("length", [0, -1, 2.5, 100.0, True, "100"])
    def test_length_must_be_an_integer_of_at_least_1(self, length):
        with pytest.raises(ValueError, match="length must be None or an integer >= 1"):
            image_method_rir(ROOM, [2.0, 2.5, 1.4], [[4.0, 2.5, 1.4]], length=length)

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

    @pytest.mark.parametrize("seed", range(6))
    def test_anechoic_scene_has_no_reverb(self, seed):
        truth = mix_scene(_two_source_spec(seed=seed, t60=0.0))
        for reverb in truth.reverb:
            assert not np.any(reverb.samples)

    def test_sidecar_spec_contents(self, tmp_path):
        spec = _two_source_spec(seed=14, t60=0.0)
        simulate.save_scene_sidecar(tmp_path / "truth.json", spec, mix_scene(spec))
        assert json.loads((tmp_path / "truth.json").read_text())["spec"] == {
            "room": {"dimensions": [6.0, 5.0, 2.7], "t60": 0.0},
            "mic_distances_m": [0.0, 0.08, 0.16, 0.24],
            "speed_of_sound": 343.0,
            "sources": [
                {"doa_deg": 60.0, "smd_m": 1.5, "signal": "speech"},
                {"doa_deg": 120.0, "smd_m": 1.5, "signal": "white"},
            ],
            "snr_db": 30.0,
            "sir_db": 0.0,
            "seed": 14,
            "duration_frames": 40,
            "sample_rate": 16000,
            "window_length": 512,
            "hop": 256,
            "rir_length_s": 0.2,
            "wall_margin": 1.0,
        }


def _wav_source_spec(path):
    return SceneSpec(
        room=RoomSpec(np.array([6.0, 5.0, 2.7]), 0.0),
        geometry=ArrayGeometry.uniform(4, 0.08),
        sources=(SourceSpec(60.0, 1.5, str(path)),),
        snr_db=None,
        sir_db=None,
        seed=3,
        duration_frames=10,
        rir_length_s=0.05,
    )


class TestWavSource:
    def test_long_enough_wav_is_used(self, tmp_path):
        spec = _wav_source_spec(tmp_path / "src.wav")
        n = spec.num_samples
        audio = np.random.default_rng(0).standard_normal(n + 5).astype(np.float32)
        write_wav(tmp_path / "src.wav", TimeSignal(audio[None, :], FS))
        truth = mix_scene(spec)
        rir = image_method_rir(spec.room, truth.source_positions[0], truth.mic_positions, 800, FS)
        expected = simulate._convolve(audio[None, :n].astype(np.float64), rir.direct_taps)[:, :n]
        np.testing.assert_array_equal(truth.direct[0].samples, expected)
        np.testing.assert_array_equal(truth.mixture.samples, expected)

    @pytest.mark.parametrize(
        "extra, rate, scale, message",
        [
            (-1, FS, 1.0, "source audio too short"),
            (0, 8000, 1.0, "sample rate mismatch"),
            (0, FS, 0.0, "zero-energy source"),
        ],
        ids=["one-sample-short", "8-kHz", "all-zeros"],
    )
    def test_unusable_wav_is_named(self, tmp_path, extra, rate, scale, message):
        spec = _wav_source_spec(tmp_path / "src.wav")
        audio = scale * np.random.default_rng(0).standard_normal(spec.num_samples + extra)
        write_wav(tmp_path / "src.wav", TimeSignal(audio[None, :], rate))
        with pytest.raises(ValueError, match=message):
            mix_scene(spec)


def _inline_mix(spec):
    """mix_scene rebuilt in one thread from its parts, each source rendered in turn."""
    rng = np.random.default_rng(spec.seed)
    mics, srcs = simulate._place_scene(spec, rng)
    n, q, length = spec.num_samples, spec.geometry.num_mics, round(spec.rir_length_s * spec.sample_rate)
    directs, reverbs = [], []
    for i, source in enumerate(spec.sources):
        samples = simulate._source_samples(spec, source, n, int(rng.integers(0, 2**63 - 1)))
        rir = image_method_rir(spec.room, srcs[i], mics, length, spec.sample_rate, spec.geometry.speed_of_sound)
        both = simulate._convolve(samples[None, :], np.vstack([rir.taps, rir.direct_taps]))[:, :n]
        directs.append(both[q:])
        reverbs.append(both[:q] - both[q:])
    e1, e2 = (np.sum((directs[i][0] + reverbs[i][0]) ** 2) for i in range(2))
    g = np.sqrt(e1 / (e2 * 10.0 ** (spec.sir_db / 10.0)))
    directs[1] *= g
    reverbs[1] *= g
    sigma = np.sqrt(np.mean((directs[0][0] + reverbs[0][0]) ** 2) / 10.0 ** (spec.snr_db / 10.0))
    noise = sigma * white_noise(q, n, int(rng.integers(0, 2**63 - 1)), spec.sample_rate).samples
    mixture = np.zeros((q, n))
    for i in range(2):
        mixture += directs[i]
        mixture += reverbs[i]
    mixture += noise
    return directs, reverbs, noise, mixture


def _assert_same_bits(got, expected):
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


class TestSideBySide:
    """A reverberant two-source scene renders its second source on a helper thread."""

    @pytest.mark.parametrize("seed, interferer", [(0, "white"), (1, "speech")])
    def test_bit_identical_to_inline_reference(self, monkeypatch, seed, interferer):
        spec = _two_source_spec(seed=seed, snr_db=20.0)
        spec = dataclasses.replace(spec, sources=(spec.sources[0], SourceSpec(120.0, 1.5, interferer)))
        renderers, render = [], simulate._render_source

        def recording_render(*job):
            renderers.append(threading.get_ident())
            return render(*job)

        monkeypatch.setattr(simulate, "_render_source", recording_render)
        threads = threading.active_count()
        truth = mix_scene(spec)
        assert threading.active_count() == threads
        if len(os.sched_getaffinity(0)) > 1:
            assert len(set(renderers)) == 2
        directs, reverbs, noise, mixture = _inline_mix(spec)
        for i in range(2):
            _assert_same_bits(truth.direct[i].samples, directs[i])
            _assert_same_bits(truth.reverb[i].samples, reverbs[i])
        _assert_same_bits(truth.noise.samples, noise)
        _assert_same_bits(truth.mixture.samples, mixture)

    @staticmethod
    def _wav_sources_spec(tmp_path, kinds):
        """A reverberant two-source spec whose sources named "short" or "zero" are unusable WAVs."""
        spec = _two_source_spec()
        n, sources = spec.num_samples, list(spec.sources)
        for i, kind in enumerate(kinds):
            if kind != "ok":
                path = tmp_path / f"{i}.wav"
                length, scale = (n - 1, 1.0) if kind == "short" else (n, 0.0)
                write_wav(path, TimeSignal(scale * np.random.default_rng(i).standard_normal((1, length)), FS))
                sources[i] = SourceSpec(sources[i].doa_deg, 1.5, str(path))
        return dataclasses.replace(spec, sources=tuple(sources))

    @pytest.mark.parametrize(
        "kinds, message",
        [
            (("ok", "short"), "source audio too short: need {n} samples"),
            (("ok", "zero"), "zero-energy source"),
            (("short", "zero"), "source audio too short: need {n} samples"),
            (("zero", "short"), "zero-energy source"),
        ],
        ids=["short-interferer", "all-zero-interferer", "both-bad-short-first", "both-bad-zero-first"],
    )
    def test_first_bad_source_error_wins(self, tmp_path, kinds, message):
        spec = self._wav_sources_spec(tmp_path, kinds)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(n=spec.num_samples))}$"):
            mix_scene(spec)
        assert threading.active_count() == threads


class TestSceneSpecValidation:
    def test_at_most_two_sources(self):
        with pytest.raises(ValueError, match="one or two sources"):
            dataclasses.replace(_two_source_spec(), sources=(SourceSpec(10.0, 1.0),) * 3)

    def test_unplaceable_scene_is_named(self):
        """Sources 10 m from the array fit no placement inside the room's 1 m margins."""
        spec = dataclasses.replace(_two_source_spec(t60=0.0), sources=(SourceSpec(60.0, 10.0), SourceSpec(120.0, 10.0)))
        with pytest.raises(ValueError, match="could not place array and sources"):
            mix_scene(spec)

    def test_second_source_without_energy_at_microphone_1_is_named(self):
        """A 16-tap response reaches 0.34 m: source 1 at 0.3 m has energy at microphone 1, source 2 at 1.5 m none."""
        sources = (SourceSpec(60.0, 0.3, "speech"), SourceSpec(120.0, 1.5, "white"))
        spec = dataclasses.replace(_two_source_spec(t60=0.0), sources=sources, rir_length_s=0.001)
        with pytest.raises(ValueError, match="^zero-energy source$"):
            mix_scene(spec)

    @pytest.mark.parametrize(
        "sources",
        [(SourceSpec(120.0, 1.5, "speech"), SourceSpec(60.0, 0.3, "white")), (SourceSpec(120.0, 1.5, "speech"),)],
        ids=["with-a-second-source", "alone"],
    )
    def test_first_source_without_energy_at_microphone_1_is_named(self, sources):
        """A 16-tap response reaches 0.34 m: source 1 at 1.5 m has no energy at microphone 1, source 2 at 0.3 m has."""
        spec = dataclasses.replace(_two_source_spec(t60=0.3), sources=sources, rir_length_s=0.001)
        with pytest.raises(ValueError, match="^zero-energy source$"):
            mix_scene(spec)

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
        for doa in (185.0, -1.0, np.nan, np.inf, True, "90"):
            with pytest.raises(ValueError, match="source DOA"):
                SourceSpec(doa, 1.0)
        assert SourceSpec(0, 1.0).doa_deg == 0 and SourceSpec(180.0, 1.0).doa_deg == 180.0

    @pytest.mark.parametrize("smd", [0, -1.0, np.nan, np.inf, -np.inf, True, "1.5"])
    def test_smd_must_be_a_finite_number_above_0(self, smd):
        with pytest.raises(ValueError, match="smd_m"):
            SourceSpec(90.0, smd)

    def test_bad_room_rejected(self):
        for dims in ([6.0, -5.0, 2.7], [6.0, 5.0, np.nan], [np.inf, 5.0, 2.7], [6.0, -np.inf, 2.7],
                     [6.0, True, 2.7], [6.0, "5", 2.7], [6.0, 5.0], 6.0):
            with pytest.raises(ValueError, match="room dimensions"):
                RoomSpec(dims, 0.3)
        for t60 in (-0.1, np.nan, np.inf, -np.inf, True, "0.3"):
            with pytest.raises(ValueError, match="t60"):
                RoomSpec(np.array([6.0, 5.0, 2.7]), t60)
        room = RoomSpec([6, 5, 3], 0)  # an anechoic room; the spec keeps the numbers it was given
        assert room.t60 == 0 and type(room.t60) is int
        np.testing.assert_array_equal(room.dimensions, [6.0, 5.0, 3.0])

    @pytest.mark.parametrize("signal", [5, None, b"white"])
    def test_signal_must_be_a_string(self, signal):
        # an integer would be opened as a file descriptor by the WAV reader
        with pytest.raises(ValueError, match="source signal"):
            SourceSpec(90.0, 1.0, signal)

    @pytest.mark.parametrize(
        "snr_db, sir_db",
        [
            (-np.inf, 0.0), (np.inf, 0.0), (np.nan, 0.0), (30.0, -np.inf), (None, np.inf),
            (None, np.nan), (True, 0.0), (30.0, False), ("30", 0.0), (30.0, "0"),
            (4000.0, 0.0), (30.0, 4000.0), (30.0, -4000.0), (-1000.001, 0.0), (30.0, 1000.001),
        ],
    )
    def test_levels_must_be_finite(self, snr_db, sir_db):
        # null is the one way to a noiseless scene; an infinite SIR would scale source 2 by 0 or inf,
        # and a level beyond MAX_LEVEL_DB could overflow 10 ** (level / 10) or the SIR gain
        with pytest.raises(ValueError, match="snr_db and sir_db"):
            _two_source_spec(snr_db=snr_db, sir_db=sir_db)

    @pytest.mark.parametrize("snr_db, sir_db", [(300.0, -300.0), (-300, 300), (1000.0, -1000.0), (-1000, 1000)])
    def test_levels_within_the_bound_give_finite_scenes(self, snr_db, sir_db):
        assert simulate.MAX_LEVEL_DB == 1000.0
        truth = mix_scene(_two_source_spec(snr_db=snr_db, sir_db=sir_db))  # numpy warnings are errors here
        assert np.all(np.isfinite(truth.source_gains)) and np.all(truth.source_gains > 0)
        assert np.all(np.isfinite(truth.mixture.samples)) and np.any(truth.noise.samples)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sample_rate", "x"),
            ("sample_rate", 0),
            ("sample_rate", True),
            ("rir_length_s", 0),
            ("rir_length_s", -1.0),
            ("rir_length_s", "x"),
            ("rir_length_s", 1e-5),  # rounds to zero samples at 16 kHz
            ("sample_rate", np.nan),
            ("sample_rate", np.inf),
            ("sample_rate", -np.inf),
            ("rir_length_s", np.nan),
            ("rir_length_s", np.inf),
            ("rir_length_s", -np.inf),
            ("rir_length_s", True),
            ("rir_length_s", 1e305),  # finite, but its tap count is not
            ("duration_frames", 0),
            ("duration_frames", 2.5),
            ("duration_frames", 4.0),
            ("duration_frames", True),
            ("duration_frames", "x"),
            ("duration_frames", np.nan),
            ("window_length", 511),
            ("window_length", 0),
            ("window_length", 512.0),
            ("window_length", True),
            ("hop", 2.5),  # num_samples would be 519.5
            ("hop", 0),
            ("hop", 513),
            ("hop", True),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
            ("seed", "0"),
            ("seed", None),
        ],
    )
    def test_rates_and_lengths_checked(self, key, value):
        with pytest.raises(ValueError, match=key):
            SceneSpec(
                room=ROOM,
                geometry=ArrayGeometry.uniform(2, 0.08),
                sources=(SourceSpec(10.0, 1.0),),
                snr_db=None,
                sir_db=None,
                **{"seed": 0, "duration_frames": 4, key: value},
            )


def test_source_signal_error_names_every_source_kind():
    kinds = ", ".join(map(repr, simulate.SOURCE_KINDS))
    with pytest.raises(ValueError, match=re.escape(f"source signal must be {kinds} or a WAV path, got 3")):
        SourceSpec(90.0, 1.5, 3)
