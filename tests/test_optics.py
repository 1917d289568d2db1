"""Polarized beams, the eraser bench and the absorber interferometer."""

import math
import os
import re
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qensemble.optics import (
    DEFAULT_SEED,
    X_HAT,
    Y_HAT,
    Z_HAT,
    EraserStage,
    MZConfig,
    PolarizedBeam,
    diagonal_polarizer,
    efficiency_account,
    count_deviation,
    em_intensity,
    formalism_agreement,
    horizontal_beam,
    mirror,
    mz_probabilities,
    rotate_polarization,
    route_proportionality,
    split_beam,
    visibility,
    visibility_targets,
)

# absorber in or out, r and eta at both ends
_LEDGER_CONFIGS = [
    MZConfig(bomb_present=True, reflectivity=0.45, efficiency=0.3),
    MZConfig(bomb_present=False, reflectivity=0.45, efficiency=0.3),
    MZConfig(bomb_present=True, reflectivity=0.0, efficiency=0.3),
    MZConfig(bomb_present=True, reflectivity=1.0, efficiency=0.3),
    MZConfig(bomb_present=True, reflectivity=0.45, efficiency=0.0),
    MZConfig(bomb_present=True, reflectivity=0.45, efficiency=1.0),
]


class TestPolarizedBeam:
    def test_directions_are_normalized(self):
        beam = PolarizedBeam(1.0, 1.0, e_dir=[2.0, 0.0, 0.0], b_dir=[0.0, 3.0, 0.0], k_dir=[0.0, 0.0, 0.5])
        assert_allclose(beam.e_dir, X_HAT, rtol=0.0)
        assert_allclose(beam.b_dir, Y_HAT, rtol=0.0)
        assert_allclose(beam.k_dir, Z_HAT, rtol=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"e_dir": X_HAT, "b_dir": X_HAT, "k_dir": Z_HAT},
            {"e_dir": X_HAT, "b_dir": Y_HAT, "k_dir": X_HAT},
            {"e_dir": [0.0, 0.0, 0.0], "b_dir": Y_HAT, "k_dir": Z_HAT},
            {"e_dir": [1.0, 0.0], "b_dir": Y_HAT, "k_dir": Z_HAT},
        ],
    )
    def test_rejects_bad_frames(self, kwargs):
        with pytest.raises(ValueError):
            PolarizedBeam(1.0, 1.0, **kwargs)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            horizontal_beam(c=0.0)

    def test_phase_enters_field_vectors(self):
        beam = horizontal_beam().with_phase(math.pi / 2.0)
        assert_allclose(beam.e_vec, 1j * X_HAT, atol=1e-16)
        assert_allclose(beam.b_vec, 1j * Y_HAT, atol=1e-16)

    def test_scaled_multiplies_both_amplitudes(self):
        beam = horizontal_beam(e_amp=2.0, b_amp=2.0).scaled(0.5j)
        assert beam.e_amp == 1.0j and beam.b_amp == 1.0j


class TestEmIntensity:
    def test_single_unit_beam(self):
        assert em_intensity(horizontal_beam()) == 1.0

    def test_matched_amplitudes_at_other_speed(self):
        # a physical wave keeps |B| = |E|/c, so the two terms stay equal
        assert em_intensity(horizontal_beam(e_amp=2.0, b_amp=1.0, c=2.0)) == 1.0

    def test_coherent_recombination_doubles(self):
        assert_allclose(em_intensity(split_beam(horizontal_beam())), 2.0, rtol=1e-15)

    def test_rejects_mixed_speeds(self):
        with pytest.raises(ValueError):
            em_intensity([horizontal_beam(c=1.0), horizontal_beam(c=2.0)])

    def test_rejects_empty_collection(self):
        with pytest.raises(ValueError):
            em_intensity([])


class TestElements:
    def test_rotator_quarter_turn(self):
        once = rotate_polarization(horizontal_beam())
        assert_allclose(once.e_dir, Y_HAT, atol=1e-16)
        assert_allclose(once.b_dir, -X_HAT, atol=1e-16)
        twice = rotate_polarization(once)
        assert_allclose(twice.e_dir, -X_HAT, atol=1e-16)
        assert em_intensity(twice) == 1.0

    def test_mirror_reverses_and_preserves(self):
        beam = horizontal_beam()
        back = mirror(beam, Z_HAT)
        assert_allclose(back.k_dir, -Z_HAT, atol=1e-16)
        assert em_intensity(back) == 1.0
        again = mirror(back, Z_HAT)
        assert_allclose(again.k_dir, beam.k_dir, atol=1e-16)
        assert_allclose(again.e_dir, beam.e_dir, atol=1e-16)

    def test_split_halves_energy(self):
        one, two = split_beam(horizontal_beam())
        assert_allclose(em_intensity(one), 0.5, rtol=1e-15)
        assert_allclose(em_intensity(one) + em_intensity(two), 1.0, rtol=1e-15)

    def test_diagonal_polarizer_halves_horizontal(self):
        out = diagonal_polarizer(horizontal_beam())
        assert_allclose(em_intensity(out), 0.5, rtol=1e-15)

    def test_polarizer_rejects_axis_along_beam(self):
        # the diagonal axis (x + y) / sqrt(2) is not transverse to a beam travelling along x
        beam = PolarizedBeam(e_amp=1.0, b_amp=1.0, e_dir=Y_HAT, b_dir=Z_HAT, k_dir=X_HAT)
        with pytest.raises(ValueError, match="polarizer axis must be transverse to the beam"):
            diagonal_polarizer(beam)


class TestEraser:
    @pytest.mark.parametrize("phase", np.linspace(0.0, 2.0 * math.pi, 9))
    def test_stage_curves(self, phase):
        base, rot, diag = (_reference_field_intensity(stage, phase, 1.0, 1.0, 1.0) for stage in EraserStage)
        assert abs(base - (1.0 + math.cos(phase))) <= 1e-12
        assert abs(rot - 1.0) <= 1e-12
        assert abs(diag - 0.5 * (1.0 + math.cos(phase))) <= 1e-12

    @pytest.mark.parametrize("stage", list(EraserStage))
    def test_routes_agree(self, stage):
        report = formalism_agreement(n_phases=8)
        assert np.abs(report.field_curves[stage.value] - report.state_curves[stage.value]).max() <= 1e-12

    def test_visibility_edge_cases(self):
        assert visibility([2.0, 2.0, 2.0]) == 0.0
        assert visibility([0.0, 0.0]) == 0.0
        with pytest.raises(ValueError):
            visibility([1.0, -0.5])

    def test_formalism_constant_and_visibilities(self):
        report = formalism_agreement(n_phases=64)
        assert abs(report.constant - 1.0) <= 1e-12
        assert report.max_abs_deviation <= 1e-12
        for table in (report.field_visibility, report.state_visibility):
            assert abs(table["baseline"] - 1.0) <= 1e-12
            assert abs(table["rotator_in_path1"]) <= 1e-12
            assert abs(table["rotator_plus_diagonal"] - 1.0) <= 1e-12

    def test_formalism_constant_tracks_scale(self):
        # the state route is normalized, so doubled field amplitudes
        # surface as a fitted constant of four
        report = formalism_agreement(n_phases=32, e_amp=2.0, b_amp=2.0)
        assert abs(report.constant - 4.0) <= 1e-12

    @pytest.mark.parametrize("n_phases", [2, 64, 257])
    @pytest.mark.parametrize("e_amp,b_amp,c", [(1.0, 1.0, 1.0), (0.7, 1.9, 1.0), (2.5, 0.6, 3.0)])
    def test_sweep_equals_per_phase_route(self, n_phases, e_amp, b_amp, c):
        report = formalism_agreement(n_phases=n_phases, e_amp=e_amp, b_amp=b_amp, c=c)
        for stage in EraserStage:
            fields = [_reference_field_intensity(stage, p, e_amp, b_amp, c) for p in report.phases]
            states = [_reference_state_intensity(stage, p) for p in report.phases]
            assert np.array_equal(report.field_curves[stage.value], fields)
            assert np.array_equal(report.state_curves[stage.value], states)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"e_amp": math.nan}, "e_amp must be finite"),
            ({"b_amp": math.inf}, "b_amp must be finite"),
            ({"c": -math.inf}, "c must be finite"),
            ({"n_phases": 0}, "n_phases must be at least 2"),
            ({"e_amp": 1e200}, "overflow for e_amp = 1e+200"),
            ({"b_amp": 1e160}, "overflow for e_amp = 1, b_amp = 1e+160"),
            ({"c": 1e-300}, "c = 1e-300"),
            ({"n_phases": 1}, "n_phases must be at least 2"),
        ],
    )
    def test_degenerate_sweep_rejected(self, kwargs, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=re.escape(message)):
                formalism_agreement(**kwargs)


class TestEraserOracles:
    @pytest.mark.parametrize("n_phases", [64, 63, 315])
    def test_correct_sweep_is_within(self, n_phases):
        report = formalism_agreement(n_phases=n_phases)
        value, tol, unit = visibility_targets(report)
        assert value <= tol == 1e-12 and unit == "absolute"
        value, tol, unit = route_proportionality(report)
        assert value <= tol == 1e-12 and unit == "relative to max(1, route_constant)"

    def test_even_sweep_targets_one_zero_one(self):
        report = formalism_agreement(n_phases=64)
        want = {"baseline": 1.0, "rotator_in_path1": 0.0, "rotator_plus_diagonal": 1.0}
        routes = (report.field_visibility, report.state_visibility)
        worst = max(abs(route[k] - v) for route in routes for k, v in want.items())
        assert visibility_targets(report)[0] == worst

    @pytest.mark.parametrize("stage", list(EraserStage))
    @pytest.mark.parametrize("route", ["field_visibility", "state_visibility"])
    def test_any_stage_and_route_can_breach(self, stage, route):
        report = formalism_agreement(n_phases=63)
        table = getattr(report, route)
        shifted = report._replace(**{route: {**table, stage.value: table[stage.value] + 1e-9}})
        assert visibility_targets(shifted)[0] > 1e-12

    @pytest.mark.parametrize("amp", [0.5, 1.0, 2.0, 1e4])
    def test_route_deviation_is_divided_by_max_one_constant(self, amp):
        report = formalism_agreement(n_phases=64, e_amp=amp, b_amp=amp)
        assert report.constant == pytest.approx(amp * amp, rel=1e-12)
        divisor = report.constant if amp > 1.0 else 1.0
        assert route_proportionality(report)[0] == report.max_abs_deviation / divisor


class TestCountOracle:
    def test_default_seed_worst_z_score(self):
        ledger = efficiency_account(MZConfig(bomb_present=True), 100000)
        worst = max(
            abs(ledger.counts[k] - ledger.n_trials * p) / math.sqrt(ledger.n_trials * p * (1.0 - p))
            for k, p in ledger.expected.items()
        )
        assert count_deviation(ledger) == (worst, 4.0, "sigma")
        assert f"{worst:.2f}" == "1.48"

    def test_outcomes_without_spread_are_skipped(self):
        # no absorber: nothing is absorbed and the dark port is silent, so both have zero spread
        ledger = efficiency_account(MZConfig(bomb_present=False), 5000, seed=3)
        assert ledger.expected["absorbed"] == 0.0 and ledger.expected["detected_dark"] == 0.0
        value, tol, _ = count_deviation(ledger)
        assert math.isfinite(value) and value <= tol

    def test_shifted_count_breaches(self):
        ledger = efficiency_account(MZConfig(bomb_present=True), 100000)
        p = ledger.expected["absorbed"]
        shift = math.ceil(4.5 * math.sqrt(ledger.n_trials * p * (1.0 - p)))
        moved = ledger._replace(counts={**ledger.counts, "absorbed": ledger.counts["absorbed"] + shift})
        assert count_deviation(moved)[0] > 4.0


def _reference_field_intensity(stage, phase, e_amp, b_amp, c):
    """One phase of the eraser, beam by beam."""
    path1, path2 = split_beam(horizontal_beam(e_amp, b_amp, c))
    path2 = path2.with_phase(phase)
    if stage is not EraserStage.BASELINE:
        path1 = rotate_polarization(path1)
    beams = [path1, path2]
    if stage is EraserStage.ROTATOR_DIAGONAL:
        beams = [diagonal_polarizer(b) for b in beams]
    return em_intensity(beams)


def _reference_state_intensity(stage, phase):
    """One phase of the eraser as one two-component state."""
    h = np.array([1.0, 0.0], dtype=np.complex128)
    v = np.array([0.0, 1.0], dtype=np.complex128)
    path1 = h if stage is EraserStage.BASELINE else v
    psi = (path1 + h * np.exp(1j * phase)) / np.sqrt(2.0)
    if stage is EraserStage.ROTATOR_DIAGONAL:
        d = (h + v) / np.sqrt(2.0)
        psi = np.vdot(d, psi) * d
    return float(np.sum(np.abs(psi) ** 2))


class TestInterferometer:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reflectivity": -0.1},
            {"reflectivity": 1.1},
            {"efficiency": -0.1},
            {"efficiency": 1.1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            MZConfig(**kwargs)

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 0.77, 1.0])
    def test_dark_port_silent_without_absorber(self, r):
        probs = mz_probabilities(MZConfig(bomb_present=False, reflectivity=r))
        assert probs.dark == 0.0
        assert probs.absorbed == 0.0
        assert probs.bright == 1.0

    def test_balanced_splitter_closed_form(self):
        probs = mz_probabilities(MZConfig(bomb_present=True, reflectivity=0.5))
        assert probs.absorbed == 0.5
        assert probs.bright == 0.25
        assert probs.dark == 0.25

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_against_splitter_matrix_cascade(self, r):
        t = 1.0 - r
        u = np.array([[math.sqrt(r), math.sqrt(t)], [math.sqrt(t), -math.sqrt(r)]])
        survivor = np.array([0.0, math.sqrt(t)])
        out = u @ survivor
        probs = mz_probabilities(MZConfig(bomb_present=True, reflectivity=r))
        assert abs(probs.bright - out[0] ** 2) <= 1e-12
        assert abs(probs.dark - out[1] ** 2) <= 1e-12
        assert probs.bright + probs.dark + probs.absorbed == 1.0

    def test_identity_cascade_without_absorber(self):
        r = 0.37
        t = 1.0 - r
        u = np.array([[math.sqrt(r), math.sqrt(t)], [math.sqrt(t), -math.sqrt(r)]])
        cascade = u @ u
        assert_allclose(cascade, np.eye(2), atol=1e-15)


class TestEfficiencyLedger:
    def test_deterministic_for_fixed_seed(self):
        cfg = MZConfig(bomb_present=True, reflectivity=0.5, efficiency=0.02)
        a = efficiency_account(cfg, 5000, seed=77)
        b = efficiency_account(cfg, 5000, seed=77)
        assert a.counts == b.counts

    def test_counts_partition_trials(self):
        cfg = MZConfig(bomb_present=True, reflectivity=0.5, efficiency=0.02)
        ledger = efficiency_account(cfg, 12345, seed=3)
        assert sum(ledger.counts.values()) == 12345

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            efficiency_account(MZConfig(), 0)

    def test_counts_track_expectations_at_default_seed(self):
        cfg = MZConfig(bomb_present=True, reflectivity=0.5, efficiency=0.02)
        n = 100000
        ledger = efficiency_account(cfg, n)
        assert ledger.seed == DEFAULT_SEED
        for key, p in ledger.expected.items():
            sigma = math.sqrt(n * p * (1.0 - p))
            assert abs(ledger.counts[key] - n * p) <= 3.0 * sigma
        assert ledger.expected_undetected_bound_share == 0.98
        assert abs(ledger.observed_undetected_bound_share - 0.98) <= 5e-3

    def test_seed_selects_the_draws(self):
        cfg = MZConfig(bomb_present=True, reflectivity=0.5, efficiency=0.02)
        counts = [efficiency_account(cfg, 5000, seed=seed).counts for seed in range(5)]
        assert all(a != b for i, a in enumerate(counts) for b in counts[i + 1 :])

    # n at and around the 2**18-trial chunks the per-trial ledger once counted in
    @pytest.mark.parametrize(
        "n",
        [1, 2, 3, 4, 5, 7, 1000, 2**18 - 1, 2**18, 2**18 + 1, 3_000_000, 3_000_001],
    )
    def test_chunked_counts_equal_one_shot_draws(self, n):
        for cfg in _LEDGER_CONFIGS:
            assert efficiency_account(cfg, n, seed=2024).counts == _one_shot_counts(cfg, n, 2024), cfg

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5, 64])
    def test_counts_do_not_depend_on_the_cpu_count(self, cpus, monkeypatch):
        cfg = MZConfig(bomb_present=True, reflectivity=0.45, efficiency=0.3)
        n = 3 * 2**18 + 11
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(os, "process_cpu_count", lambda: cpus, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert efficiency_account(cfg, n, seed=5).counts == _one_shot_counts(cfg, n, 5)

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("the ledger started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = MZConfig(bomb_present=True)
        for n in (2**18, 3_000_000):
            assert efficiency_account(cfg, n, seed=5).counts == _one_shot_counts(cfg, n, 5)

    @pytest.mark.parametrize("n", [1, 2, 7, 10**12, 2**63 - 1])
    @pytest.mark.parametrize("cfg", _LEDGER_CONFIGS)
    def test_counts_partition_any_n(self, n, cfg):
        counts = efficiency_account(cfg, n, seed=2024).counts
        assert all(isinstance(c, int) and c >= 0 for c in counts.values())
        assert sum(counts.values()) == n

    @pytest.mark.parametrize(
        "cfg,never",
        [
            (MZConfig(bomb_present=True, reflectivity=0.0, efficiency=0.3), ("absorbed", "detected_dark")),
            (
                MZConfig(bomb_present=True, reflectivity=1.0, efficiency=0.3),
                ("detected_bright", "detected_dark", "undetected"),
            ),
            (MZConfig(bomb_present=True, reflectivity=0.45, efficiency=0.0), ("detected_bright", "detected_dark")),
            (MZConfig(bomb_present=True, reflectivity=0.45, efficiency=1.0), ("undetected",)),
            (MZConfig(bomb_present=False, reflectivity=0.45, efficiency=0.3), ("absorbed", "detected_dark")),
        ],
        ids=["r=0", "r=1", "eta=0", "eta=1", "no_bomb"],
    )
    def test_impossible_outcomes_never_occur(self, cfg, never):
        # every other outcome has probability >= 0.24, so 1000 trials never leave it empty
        for seed in range(20):
            counts = efficiency_account(cfg, 1000, seed=seed).counts
            assert {k for k, c in counts.items() if c == 0} == set(never), (seed, counts)
            assert sum(counts.values()) == 1000

    def test_counts_follow_the_multinomial(self):
        """Seeds 0 .. 19999 at n = 50 against Multinomial(n; p).

        Means lie within 5 standard errors of n p and covariances within 6
        normal-theory standard errors of n (p_i [i = j] - p_i p_j), so the
        variances match n p (1 - p).  Each outcome's empirical CDF lies
        within 0.015 of scipy's binomial CDF; by the Dvoretzky-Kiefer-Wolfowitz
        inequality a correct sampler exceeds that on at most 2 exp(-9) of
        seed ranges.
        """
        from scipy import stats

        cfg = MZConfig(bomb_present=True, reflectivity=0.45, efficiency=0.3)
        n, runs = 50, 20000
        keys = ("absorbed", "detected_bright", "detected_dark", "undetected")
        ledgers = (efficiency_account(cfg, n, seed=s).counts for s in range(runs))
        draws = np.array([[counts[k] for k in keys] for counts in ledgers])
        p = np.array([efficiency_account(cfg, n).expected[k] for k in keys])
        cov = n * (np.diag(p) - np.outer(p, p))
        var = np.diag(cov)
        assert np.all(np.abs(draws.mean(axis=0) - n * p) <= 5.0 * np.sqrt(var / runs))
        se = np.sqrt((np.outer(var, var) + cov**2) / runs)
        assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) <= 6.0 * se)
        k = np.arange(n + 1)
        for column, prob in zip(draws.T, p):
            empirical = np.cumsum(np.bincount(column, minlength=n + 1)) / runs
            assert np.max(np.abs(empirical - stats.binom.cdf(k, n, prob))) <= 0.015


def _one_shot_counts(cfg, n_trials, seed):
    """Ledger counts from the documented chain of three binomials on one Philox stream."""
    probs = mz_probabilities(cfg)
    rng = np.random.Generator(np.random.Philox(seed))
    absorbed = int(rng.binomial(n_trials, probs.absorbed))
    survivors = n_trials - absorbed
    clicks = int(rng.binomial(survivors, cfg.efficiency))
    unabsorbed = probs.bright + probs.dark
    dark = int(rng.binomial(clicks, probs.dark / unabsorbed)) if unabsorbed > 0.0 else 0
    return {
        "absorbed": absorbed,
        "detected_bright": clicks - dark,
        "detected_dark": dark,
        "undetected": survivors - clicks,
    }
