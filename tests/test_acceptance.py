"""End-to-end acceptance gate.

Each test records one ``CRITERION n: PASS``/``FAIL`` line for the terminal
summary and asserts the stated tolerance. Criteria 3, 6, and 7 share one
seeded two-source scene set; criteria 1 and 9 share an on-grid anechoic
scene set.
"""

import time

import numpy as np
import pytest

from doalab import attention, evaluate, simulate
from doalab.estimate import (
    EstimatorCore,
    normalize_sps,
    pick_doa,
    sps_loss,
    srp_flops,
)
from doalab.geometry import ArrayGeometry, make_grid
from doalab.signal import MultichannelSpectrogram, TimeSignal, stft
from srp_reference import cross_spectral_tensor, phat_weighting

FS = 16000
GEOM = ArrayGeometry.uniform(4, 0.08)
GRID37 = make_grid(37)
NUM_FRAMES = 100
NUM_SAMPLES = 512 + (NUM_FRAMES - 1) * 256


def _noisy_plane_wave(doa_deg: float, seed: int, snr_db: float = 30.0):
    """Anechoic plane-wave white-noise scene with sensor noise at snr_db."""
    rng = np.random.default_rng(seed)
    src = simulate.white_noise(1, NUM_SAMPLES, seed=seed)
    clean = simulate.plane_wave_synthesize(src, doa_deg, GEOM)
    power = np.mean(clean.samples**2)
    noise = rng.standard_normal(clean.samples.shape)
    noise *= np.sqrt(power / 10.0 ** (snr_db / 10.0))
    return stft(TimeSignal(clean.samples + noise, FS))


@pytest.fixture(scope="module")
def ongrid_scenes():
    """Criterion 1/9 fixture: all on-grid DOAs in [10, 170], timed build."""
    doas = [a for a in GRID37.angles_deg if 10.0 <= a <= 170.0]
    t0 = time.perf_counter()
    scenes = [(doa, _noisy_plane_wave(doa, seed=100 + i)) for i, doa in enumerate(doas)]
    return scenes, time.perf_counter() - t0


@pytest.fixture(scope="module")
def twosource_scenes():
    """Criterion 3/6/7 fixture: seeded two-source reverberant scene grid.

    Per scene this records the true DOA, the SRP-P and oracle-PSM SRP-MP
    estimates, the SPS-loss ordering against the clean direct reference,
    and the binarized-ratio-mask estimate per threshold in {0, ..., 0.9}.
    """
    cfg = evaluate.validate_config(
        {
            "master_seed": 42,
            "t60": [0.3],
            "doas": "grid",
            "seeds_per_doa": 5,
            "sir_db": 0.0,
            "snr_db": [20.0, 30.0],
            "source": "speech",
            "interferer": "speech",
            "duration_frames": NUM_FRAMES,
            "rir_length_s": 0.25,
        }
    )
    vthrs = np.round(np.arange(0.0, 0.91, 0.1), 1)
    rows = []
    t0 = time.perf_counter()
    core_elapsed = 0.0
    for scene_id, _, spec in evaluate._scene_specs(cfg):
        c0 = time.perf_counter()
        truth = simulate.mix_scene(spec)
        mix = stft(truth.mixture)
        fr = evaluate._central_frames(mix.num_frames, 50)
        direct = stft(truth.direct[0])
        psm = attention.psm_mask(direct, mix)

        core = EstimatorCore(mix, GRID37, GEOM, fr)
        sps_p = core.spectra("srp-p", [psm])[0]
        sps_mp = core.spectra("srp-mp", [psm])[0]
        core_elapsed += time.perf_counter() - c0

        clean = EstimatorCore(direct, GRID37, GEOM, fr).spectra("srp-p", [None])[0]
        ordering_ok = sps_loss(sps_mp, clean) < sps_loss(sps_p, clean)

        ratio = attention.magnitude_ratio_mask(direct, mix)
        binarized = {float(v): attention.binarize(ratio, float(v))[:, fr[0] : fr[1]] for v in vthrs}
        binarized = {v: weights for v, weights in binarized.items() if weights.any()}
        # binary weights are their own squares: this is SRP-MP, unnormalized
        power = core.power(np.stack(list(binarized.values())))
        sweep = {v: pick_doa(values, GRID37) for v, values in zip(binarized, power.T)}
        rows.append(
            {
                "doa": spec.sources[0].doa_deg,
                "est_p": pick_doa(sps_p, GRID37),
                "est_mp": pick_doa(sps_mp, GRID37),
                "ordering_ok": ordering_ok,
                "sweep": sweep,
            }
        )
    return rows, core_elapsed, time.perf_counter() - t0


class TestCriterion1:
    def test_on_grid_anechoic_recovery(self, ongrid_scenes, criterion_report):
        scenes, build_time = ongrid_scenes
        t0 = time.perf_counter()
        errors = []
        for doa, spec in scenes:
            sps = EstimatorCore(spec, GRID37, GEOM).spectra("srp-p", [None])[0]
            errors.append(abs(pick_doa(sps, GRID37) - doa))
        elapsed = build_time + (time.perf_counter() - t0)
        exact = all(e == 0.0 for e in errors)
        passed = exact and elapsed < 10.0
        criterion_report(1, passed, f"{len(errors)} scenes, max AE {max(errors):.3f}, {elapsed:.1f} s")
        assert exact, f"nonzero AEs: {[e for e in errors if e][:5]}"
        assert elapsed < 10.0


class TestCriterion2:
    def test_off_grid_rounding(self, criterion_report):
        grid180 = make_grid(180)
        doas = [a for a in grid180.angles_deg if 30.0 <= a <= 150.0]
        coarse, fine = [], []
        for i, doa in enumerate(doas):
            spec = _noisy_plane_wave(doa, seed=500 + i)
            for grid, errors in ((GRID37, coarse), (grid180, fine)):
                sps = EstimatorCore(spec, grid, GEOM).spectra("srp-p", [None])[0]
                errors.append(abs(pick_doa(sps, grid) - doa))
        coarse = np.array(coarse)
        fine = np.array(fine)
        within = float(np.mean(coarse <= 2.5 + 1e-9))
        medae_coarse = float(np.median(coarse))
        medae_fine = float(np.median(fine))
        passed = within >= 0.95 and medae_fine < medae_coarse
        criterion_report(
            2,
            passed,
            f"{100 * within:.1f}% within 2.5 deg, MedAE {medae_coarse:.3f} -> {medae_fine:.3f}",
        )
        assert within >= 0.95
        assert medae_fine < medae_coarse


class TestCriterion3:
    def test_oracle_attention_benefit(self, twosource_scenes, criterion_report):
        rows, core_elapsed, _ = twosource_scenes
        doas = np.array([r["doa"] for r in rows])
        ae_p = np.abs(np.array([r["est_p"] for r in rows]) - doas)
        ae_mp = np.abs(np.array([r["est_mp"] for r in rows]) - doas)
        mae_p, mae_mp = float(ae_p.mean()), float(ae_mp.mean())
        psacc_p = float(100.0 * np.mean(ae_p < 10.0))
        psacc_mp = float(100.0 * np.mean(ae_mp < 10.0))
        gap = psacc_mp - psacc_p
        passed = mae_mp < mae_p and gap >= 10.0 and core_elapsed < 300.0
        criterion_report(
            3,
            passed,
            f"MAE {mae_p:.2f} -> {mae_mp:.2f}, psACC {psacc_p:.1f} -> {psacc_mp:.1f}, "
            f"{core_elapsed:.0f} s",
        )
        assert mae_mp < mae_p
        assert psacc_mp > psacc_p
        assert gap >= 10.0
        assert core_elapsed < 300.0


class TestCriterion4:
    def test_band_selection_robustness(self, criterion_report):
        records, reports = evaluate.run_experiment(
            {
                "master_seed": 17,
                "t60": [0.3],
                "doas": list(np.linspace(10.0, 170.0, 49)),
                "snr_db": 30.0,
                "duration_frames": NUM_FRAMES,
                "rir_length_s": 0.25,
                "methods": ["srp-mp"],
                "masks": ["none", "random-band:50", "band-range:100:150"],
            }
        )
        unmasked = reports[("srp-mp", "none")]
        rb = reports[("srp-mp", "random-band:50")]
        db = reports[("srp-mp", "band-range:100:150")]
        psacc_ok = rb.psacc >= unmasked.psacc - 5.0
        mae_ok = db.mae <= 3.0 * rb.mae
        passed = psacc_ok and mae_ok
        criterion_report(
            4,
            passed,
            f"psACC none {unmasked.psacc:.1f} rB {rb.psacc:.1f}; "
            f"MAE rB {rb.mae:.2f} dB {db.mae:.2f} (bound {3 * rb.mae:.2f})",
        )
        assert psacc_ok
        assert mae_ok


class TestCriterion5:
    def test_flop_model(self, criterion_report):
        value = srp_flops(257, 37, 4)
        passed = value == 183241 and value < 2e5
        criterion_report(5, passed, f"srp_flops(257, 37, 4) = {value}")
        assert value == 183241
        assert value < 2e5


class TestCriterion6:
    def test_sps_loss_ordering(self, twosource_scenes, criterion_report):
        rows, _, _ = twosource_scenes
        frac = float(np.mean([r["ordering_ok"] for r in rows]))
        passed = frac >= 0.80
        criterion_report(6, passed, f"masked loss below unmasked on {100 * frac:.1f}% of scenes")
        assert frac >= 0.80


class TestCriterion7:
    def test_threshold_sweep_u_shape(self, twosource_scenes, criterion_report):
        rows, _, _ = twosource_scenes
        vthrs = np.round(np.arange(0.0, 0.91, 0.1), 1)
        mae = {}
        for v in vthrs:
            errs = [
                abs(r["sweep"][float(v)] - r["doa"]) for r in rows if float(v) in r["sweep"]
            ]
            mae[float(v)] = float(np.mean(errs))
        interior = {v: m for v, m in mae.items() if 0.0 < v < 0.9}
        best_v = min(interior, key=interior.get)
        passed = interior[best_v] < mae[0.0] and interior[best_v] < mae[0.9]
        curve = ", ".join(f"{v:.1f}:{m:.2f}" for v, m in sorted(mae.items()))
        criterion_report(7, passed, f"best v_thr {best_v:.1f}; MAE {curve}")
        assert interior[best_v] < mae[0.0]
        assert interior[best_v] < mae[0.9]


class TestCriterion8:
    CASES = 1000

    def test_invariant_suites(self, criterion_report):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()

        def random_spec(q, k, n):
            bins = rng.standard_normal((q, k, n)) + 1j * rng.standard_normal((q, k, n))
            return MultichannelSpectrogram(bins, FS, k - 1, 2 * (k - 1))

        # masks bounded to [0, 1]
        for _ in range(self.CASES):
            direct = random_spec(1, 5, 4)
            mixture = random_spec(1, 5, 4)
            for mask in (
                attention.psm_mask(direct, mixture),
                attention.magnitude_ratio_mask(direct, mixture),
            ):
                assert mask.min() >= 0.0 and mask.max() <= 1.0

        # cross-spectral tensor conjugate symmetry
        for _ in range(self.CASES):
            spec = random_spec(3, 4, 3)
            phi = cross_spectral_tensor(spec, phat_weighting(spec)).values
            assert np.allclose(phi, np.conj(np.swapaxes(phi, 2, 3)), rtol=1e-12, atol=1e-12)

        # SRP-P identical to SRP-MP with an all-ones mask
        grid5 = make_grid(5)
        geom3 = ArrayGeometry.uniform(3, 0.08)
        for _ in range(self.CASES):
            # a coherent common component keeps the steered power peak positive
            common = rng.standard_normal((1, 9, 4)) + 1j * rng.standard_normal((1, 9, 4))
            noise = rng.standard_normal((3, 9, 4)) + 1j * rng.standard_normal((3, 9, 4))
            spec = MultichannelSpectrogram(common + 0.3 * noise, FS, 8, 16)
            core = EstimatorCore(spec, grid5, geom3)
            plain = core.spectra("srp-p", [None])[0]
            masked = core.spectra("srp-mp", [np.ones((9, 4))])[0]
            assert np.array_equal(plain, masked)

        # exact scene decomposition: mixture equals directs + reverbs + noise
        room = simulate.RoomSpec(np.array([6.0, 5.0, 2.7]), 0.0)
        geom2 = ArrayGeometry.uniform(2, 0.08)
        for i in range(self.CASES):
            sources = [simulate.SourceSpec(float(rng.uniform(0, 180)), 1.5, "white")]
            sir = None
            if rng.random() < 0.5:
                sources.append(simulate.SourceSpec(float(rng.uniform(0, 180)), 1.5, "white"))
                sir = float(rng.uniform(-5, 5))
            spec = simulate.SceneSpec(
                room=room,
                geometry=geom2,
                sources=tuple(sources),
                snr_db=float(rng.uniform(10, 40)) if rng.random() < 0.5 else None,
                sir_db=sir,
                seed=i,
                duration_frames=3,
                window_length=128,
                hop=64,
            )
            truth = simulate.mix_scene(spec)
            total = np.zeros_like(truth.mixture.samples)
            for j in range(len(sources)):
                total += truth.direct[j].samples
                total += truth.reverb[j].samples
            total += truth.noise.samples
            assert np.array_equal(truth.mixture.samples, total)

        # max-normalization scale invariance and idempotence
        for _ in range(self.CASES):
            values = rng.uniform(0.01, 1.0, 37)
            alpha = float(rng.uniform(1e-3, 1e3))
            base = normalize_sps(values)
            scaled = normalize_sps(alpha * values)
            assert np.allclose(base, scaled, rtol=1e-12)
            again = normalize_sps(base)
            assert np.array_equal(again, base)

        elapsed = time.perf_counter() - t0
        passed = elapsed < 120.0
        criterion_report(8, passed, f"5 suites x {self.CASES} cases in {elapsed:.1f} s")
        assert elapsed < 120.0


class TestCriterion9:
    def test_music_parity(self, ongrid_scenes, criterion_report):
        scenes, _ = ongrid_scenes
        errors = []
        for doa, spec in scenes:
            mask = np.ones((spec.num_bins, spec.num_frames))
            sps = EstimatorCore(spec, GRID37, GEOM).spectra("music", [mask], num_sources=1)[0]
            errors.append(abs(pick_doa(sps, GRID37) - doa))
        frac_exact = float(np.mean(np.array(errors) == 0.0))
        passed = frac_exact >= 0.95
        criterion_report(9, passed, f"AE = 0 on {100 * frac_exact:.1f}% of {len(errors)} scenes")
        assert frac_exact >= 0.95
