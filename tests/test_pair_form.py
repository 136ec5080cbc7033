"""Property tests of the pair-form SRP against the K x N x Q x Q cross-spectral oracle,
and of the estimators' invariance to the scale of a mask."""

from functools import lru_cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from doalab import simulate  # noqa: E402
from doalab.estimate import EstimatorCore, normalize_sps, pick_doa  # noqa: E402
from doalab.geometry import ArrayGeometry, make_grid, steering_matrix  # noqa: E402
from doalab.signal import MultichannelSpectrogram, stft  # noqa: E402
from srp_reference import cross_spectral_tensor, mask_weighting, narrowband_srp, phat_weighting  # noqa: E402
from synthesis import plane_wave_synthesize  # noqa: E402

FS = 16000.0
SETTINGS = hypothesis.settings(
    derandomize=True, database=None, deadline=None, suppress_health_check=[hypothesis.HealthCheck.too_slow]
)


def _geometry(draw, min_gap):
    """Q from 2 to 6 microphones with non-uniform, strictly increasing distances."""
    q = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(min_gap, 0.1), min_size=q - 1, max_size=q - 1, unique=True))
    return ArrayGeometry(np.concatenate([[0.0], np.cumsum(gaps)]))


def _plane_wave(rng, geom, doa_deg, num_bins, num_frames, noise):
    """Frequency-domain far-field source at ``doa_deg`` plus complex noise, shape (Q, K, N)."""
    freqs = np.arange(num_bins) * FS / (2 * (num_bins - 1))
    source = rng.standard_normal((num_bins, num_frames)) + 1j * rng.standard_normal((num_bins, num_frames))
    delays = np.cos(np.deg2rad(doa_deg)) * geom.mic_distances / geom.speed_of_sound
    bins = source[None] * np.exp(-2j * np.pi * freqs[None, :, None] * delays[:, None, None])
    shape = (geom.num_mics, num_bins, num_frames)
    bins += noise * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return MultichannelSpectrogram(bins, FS, 2 * (num_bins - 1))


@st.composite
def masked_scenes(draw):
    geom = _geometry(draw, 0.01)
    grid = make_grid(draw(st.integers(2, 181)))
    num_bins = draw(st.sampled_from([5, 9, 17, 33]))
    num_frames = draw(st.integers(1, 12))
    start = draw(st.integers(0, num_frames - 1))
    frame_range = draw(st.none() | st.tuples(st.just(start), st.integers(start + 1, num_frames + 3)))
    # a limit below the first bin's fs / L (500 to 2000 Hz here) is rejected, see the next property
    max_freq_hz = draw(st.none() | st.floats(FS / (2 * (num_bins - 1)), FS / 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = _plane_wave(rng, geom, rng.uniform(0.0, 180.0), num_bins, num_frames, noise=0.3)
    num_masks = draw(st.integers(1, 4))
    weights = rng.uniform(0.0, 1.0, (num_masks, num_bins, num_frames))
    weights *= rng.random(weights.shape) < draw(st.floats(0.05, 1.0))
    return spec, grid, geom, frame_range, max_freq_hz, list(weights)


def _reference(spec, mask, grid, geom, frames, max_freq_hz):
    """Per-bin SRP-MP of one mask over the frame range by the cross-spectral oracle, shape (C, K, N_range)."""
    weights = mask.copy()
    if max_freq_hz is not None:
        weights[spec.bin_frequency(np.arange(spec.num_bins)) > max_freq_hz] = 0.0
    ranged = MultichannelSpectrogram(spec.bins[:, :, frames], spec.sample_rate, spec.window_length)
    weighting = mask_weighting(phat_weighting(ranged), weights[:, frames])
    steering = steering_matrix(grid, geom, spec.sample_rate, spec.window_length)
    return narrowband_srp(cross_spectral_tensor(ranged, weighting), steering)


@SETTINGS
@hypothesis.given(masked_scenes())
def test_pair_form_matches_cross_spectral_oracle(scene):
    spec, grid, geom, frame_range, max_freq_hz, masks = scene
    core = EstimatorCore(spec, grid, geom, frame_range, max_freq_hz=max_freq_hz)
    start, stop = frame_range or (0, spec.num_frames)
    frames = slice(start, min(stop, spec.num_frames))
    references = [_reference(spec, mask, grid, geom, frames, max_freq_hz) for mask in masks]
    if any(not np.any(ref) for ref in references):
        with pytest.raises(ValueError, match="empty attention"):
            core.spectra("srp-mp", masks)
        return
    for mask, ref in zip(masks, references):
        per_frame, ref_per_frame = core.per_frame("srp-mp", mask), ref.sum(axis=1)
        assert per_frame.shape == ref_per_frame.shape
        assert np.max(np.abs(per_frame - ref_per_frame)) <= 1e-12 * np.max(np.abs(ref_per_frame))
    totals = [ref.sum(axis=(1, 2)) for ref in references]
    # normalizing by the peak needs a clearly positive peak; a spectrum that is
    # negative everywhere (few bins, two microphones) has none
    if all(total.max() > 0.1 * np.abs(total).max() for total in totals):
        for sps, total in zip(core.spectra("srp-mp", masks), totals):
            expected = normalize_sps(total)
            assert np.max(np.abs(sps - expected)) <= 1e-12 * np.max(np.abs(expected))


@SETTINGS
@hypothesis.given(st.sampled_from([5, 9, 17, 33]), st.data())
def test_limit_below_the_first_bin_is_rejected(num_bins, data):
    """Every limit in (0, fs / L) would keep only the DC bin, whose steering is the same everywhere."""
    first_bin = FS / (2 * (num_bins - 1))
    max_freq_hz = data.draw(st.floats(0.0, first_bin, exclude_min=True, exclude_max=True))
    geom = _geometry(data.draw, 0.01)
    spec = _plane_wave(np.random.default_rng(0), geom, 60.0, num_bins, 4, noise=0.3)
    with pytest.raises(ValueError, match="max_freq_hz"):
        EstimatorCore(spec, make_grid(37), geom, max_freq_hz=max_freq_hz)


@st.composite
def on_grid_plane_waves(draw):
    geom = _geometry(draw, 0.02)
    grid = make_grid(draw(st.integers(2, 181)))
    doa = float(grid.angles_deg[draw(st.integers(0, grid.size - 1))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _plane_wave(rng, geom, doa, 257, 3, noise=0.0), grid, geom, doa


@SETTINGS
@hypothesis.given(on_grid_plane_waves())
def test_plane_wave_recovered_exactly_below_aliasing_limit(scene):
    spec, grid, geom, doa = scene
    # below c / (2 * aperture) no pair's phase wraps between two directions
    limit = 0.99 * geom.speed_of_sound / (2.0 * geom.aperture)
    core = EstimatorCore(spec, grid, geom, max_freq_hz=limit)
    assert pick_doa(core.spectra("srp-p", [None])[0], grid) == doa


# Below 6 kHz the 81-tap windowed sinc of plane_wave_synthesize delays with a
# phase error under 5e-5 rad (4e-4 rad at 7 kHz). At grids of up to 37 points,
# adjacent directions differ there by at least 1.2e-3 rad even at endfire on
# the smallest drawn aperture, so the pick is exact; finer grids near endfire
# would ask for more than the synthesis gives.
BAND_HZ = 6000.0


@st.composite
def synthesized_plane_waves(draw):
    """A white-noise plane wave from ``plane_wave_synthesize`` at a random grid angle.

    A uniform array of 2 to 8 microphones whose spacing stays below the
    aliasing limit c / (2 BAND_HZ), so no pair's phase wraps between two
    directions in the band.
    """
    grid = make_grid(draw(st.integers(2, 37)))
    doa = float(grid.angles_deg[draw(st.integers(0, grid.size - 1))])
    geom = ArrayGeometry.uniform(draw(st.integers(2, 8)), draw(st.floats(0.1, 0.99)) * 343.0 / (2 * BAND_HZ))
    src = simulate.white_noise(1, 4000, draw(st.integers(0, 2**32 - 1)), FS)
    return stft(plane_wave_synthesize(src, doa, geom)), grid, geom, doa


@SETTINGS
@hypothesis.given(synthesized_plane_waves())
def test_synthesized_plane_wave_recovered_exactly(scene):
    spec, grid, geom, doa = scene
    # the first and last frames hold the filter transient of the advanced channels
    core = EstimatorCore(spec, grid, geom, (1, spec.num_frames - 1), max_freq_hz=BAND_HZ)
    assert pick_doa(core.spectra("srp-p", [None])[0], grid) == doa


# bins below about 200 Hz at 16 kHz / 512, where MUSIC on the 0.24 m array is
# ill-conditioned with two sources
LOW_BINS = 7


@lru_cache(maxsize=1)
def _reverberant_core() -> EstimatorCore:
    """Estimator core of one reverberant two-source scene (T60 0.3 s, 0 dB SIR)."""
    geom = ArrayGeometry.uniform(4, 0.08)
    spec = simulate.SceneSpec(
        room=simulate.RoomSpec(np.array([6.0, 5.0, 2.7]), 0.3),
        geometry=geom,
        sources=(simulate.SourceSpec(70.0, 1.5, "speech"), simulate.SourceSpec(130.0, 1.5, "speech")),
        snr_db=30.0,
        sir_db=0.0,
        seed=11,
        duration_frames=40,
        rir_length_s=0.25,
    )
    return EstimatorCore(stft(simulate.mix_scene(spec).mixture), make_grid(37), geom)


@SETTINGS
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.05, 1.0),
    alpha=st.floats(0.01, 1.0),
)
def test_spectra_invariant_to_mask_scale(seed, density, alpha):
    core = _reverberant_core()
    rng = np.random.default_rng(seed)
    mask = rng.uniform(0.0, 1.0, core.shape) * (rng.random(core.shape) < density)
    mask[:LOW_BINS] = 0.0
    for method, num_sources in (("srp-mp", 1), ("music", 1), ("music", 2)):
        base, scaled = core.spectra(method, [mask, alpha * mask], num_sources)
        assert np.max(np.abs(scaled - base)) <= 1e-12 * np.max(np.abs(base)), (method, num_sources)


def _band_mask(core, bands):
    """Mask of the reverberant core that weights every frame of ``bands`` by 1."""
    mask = np.zeros(core.shape)
    mask[bands] = 1.0
    return mask


def test_music_ignores_bands_with_fewer_active_frames_than_sources():
    # a band weighted in one frame has a rank-1 covariance, whose two-source
    # noise subspace is not unique, so it must not count in the average
    core = _reverberant_core()
    mask = _band_mask(core, slice(20, 60))
    sparse = mask.copy()
    sparse[80, 7] = 1.0
    base, with_sparse = core.spectra("music", [mask, sparse], num_sources=2)
    np.testing.assert_array_equal(with_sparse, base)
    # one source needs one frame: the band counts
    base, with_sparse = core.spectra("music", [mask, sparse], num_sources=1)
    assert np.max(np.abs(with_sparse - base)) > 1e-6


def test_music_band_floor_is_relative_to_the_mask():
    # a faint band keeps counting when the whole mask is scaled down
    core = _reverberant_core()
    mask = _band_mask(core, slice(20, 60))
    mask[80] = 5e-5 / core.shape[1]
    base, scaled = core.spectra("music", [mask, 0.01 * mask])
    assert np.max(np.abs(scaled - base)) <= 1e-12
    without = core.spectra("music", [np.where(mask == 1.0, mask, 0.0)])[0]
    assert np.max(np.abs(without - base)) > 1e-12
