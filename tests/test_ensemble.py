"""Energy-constrained member ranges, filters and spectral moments."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate as sci

from qensemble.ensemble import (
    EnsembleAmplitude,
    KineticConvention,
    KRange,
    ParticleModel,
    PotentialSpec,
    Regime,
    allowed_k_range,
    apply_retarding_filter,
    collapse_fraction,
    flat_norm_deviation,
    free_wavefunction,
    member_amplitude,
    parseval_norm,
    potential_wavefunction,
    uncertainty_product,
)
from qensemble.numerics import Grid1D, SingleMode, _simpson_rule


class TestParticleModel:
    @pytest.mark.parametrize("field", ["mass", "hbar", "total_energy"])
    def test_rejects_nonpositive(self, field):
        kwargs = {"mass": 1.0, "hbar": 1.0, "total_energy": 1.0, field: 0.0}
        with pytest.raises(ValueError):
            ParticleModel(**kwargs)


class TestAllowedKRange:
    @pytest.mark.parametrize(
        "v,expected",
        [(-3.0, 2.0), (0.0, 1.0), (0.5, math.sqrt(0.5))],
    )
    def test_oscillatory_endpoints(self, v, expected):
        kr = allowed_k_range(ParticleModel.natural(), v)
        assert kr.regime is Regime.OSCILLATORY
        assert kr.k_lo == 0.0
        assert abs(kr.k_hi - expected) <= 1e-15

    def test_decaying_above_budget(self):
        kr = allowed_k_range(ParticleModel.natural(), 3.0)
        assert kr.regime is Regime.DECAYING
        assert abs(kr.k_hi - math.sqrt(2.0)) <= 1e-15

    def test_degenerate_at_equality(self):
        kr = allowed_k_range(ParticleModel.natural(), 1.0)
        assert kr.is_empty and kr.regime is Regime.OSCILLATORY

    def test_double_convention_scales_endpoint(self):
        p = ParticleModel.natural()
        single = allowed_k_range(p, 0.0, KineticConvention.SINGLE)
        double = allowed_k_range(p, 0.0, KineticConvention.DOUBLE)
        assert_allclose(double.k_hi, math.sqrt(2.0) * single.k_hi, rtol=1e-15)

    def test_rejects_nonfinite_potential(self):
        with pytest.raises(ValueError):
            allowed_k_range(ParticleModel.natural(), float("inf"))


class TestKRange:
    def test_containment(self):
        outer = KRange(0.0, 2.0)
        inner = KRange(0.5, 1.5)
        assert outer.contains(inner) and not inner.contains(outer)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            KRange(1.0, 0.5)


class TestAmplitude:
    def test_indicator_with_tolerant_edges(self):
        # mass 4 puts the free bound at k = 2 and the flat value at 2
        amp = member_amplitude(ParticleModel(mass=4.0))
        k = np.array([-0.1, 0.0, 1.0, 2.0, 2.1])
        vals = amp(k)
        assert_allclose(vals.real, [0.0, 2.0, 2.0, 2.0, 0.0])
        assert amp.flat_value == 2.0

    def test_custom_range(self):
        amp = member_amplitude(ParticleModel.natural(), KRange(0.5, 1.0))
        assert amp(np.array([0.4]))[0] == 0.0
        assert amp(np.array([0.75]))[0] == 1.0

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            EnsembleAmplitude(norm_mass=0.0, k_range=KRange(0.0, 1.0))


class TestPotentialSpec:
    def test_constant(self):
        spec = PotentialSpec.constant(2.5)
        assert_allclose(spec(np.array([-1.0, 0.0, 3.0])), 2.5)

    def test_piecewise_regions(self):
        spec = PotentialSpec.piecewise_constant([-1.0, 1.0], [0.0, -4.0, 0.0])
        assert_allclose(spec(np.array([-2.0, 0.0, 2.0])), [0.0, -4.0, 0.0])

    def test_rejects_nonfinite_values(self):
        spec = PotentialSpec(lambda x: np.full_like(x, np.nan), "broken")
        with pytest.raises(ValueError):
            spec(np.array([0.0]))


class TestWavefunctions:
    def test_zero_potential_reduces_to_free(self):
        p = ParticleModel.natural()
        grid = Grid1D(0.0, 6.0, 121)
        free = free_wavefunction(p, grid)
        gated = potential_wavefunction(p, PotentialSpec.constant(0.0), grid)
        assert np.array_equal(free.values, gated.values)

    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_free_profile_against_quad(self, r):
        p = ParticleModel.natural()
        grid = Grid1D(r, r + 1.0, 2)
        psi = free_wavefunction(p, grid, n_k=2001).values[0]
        ref, _ = sci.quad(lambda k: k * k * np.sin(k * r) / (k * r), 0.0, 1.0)
        ref *= 4.0 * np.pi * (2.0 * np.pi) ** -1.5
        assert_allclose(psi.real, ref, rtol=1e-8)
        assert abs(psi.imag) <= 1e-15

    def test_attractive_region_grows_amplitude(self):
        p = ParticleModel.natural()
        grid = Grid1D(0.0, 1.0, 2)
        deep = potential_wavefunction(p, PotentialSpec.constant(-3.0), grid)
        free = potential_wavefunction(p, PotentialSpec.constant(0.0), grid)
        assert abs(deep.values[0]) > abs(free.values[0])

    def test_barrier_region_decays(self):
        p = ParticleModel.natural()
        grid = Grid1D(0.1, 4.0, 40)
        psi = potential_wavefunction(p, PotentialSpec.constant(3.0), grid)
        assert np.all(psi.values.real > 0.0)
        assert np.all(np.diff(psi.values.real) < 0.0)
        assert np.abs(psi.values.imag).max() <= 1e-12

    def test_piecewise_potential_with_repeated_value(self):
        # V = 0 holds on two disjoint runs around a barrier and a well, so
        # each run is synthesized on its own; compare every node against a
        # per-node dense sum
        p = ParticleModel.natural()
        pot = PotentialSpec.piecewise_constant([1.0, 2.5, 4.0], [0.0, 3.0, 0.0, -2.0])
        grid = Grid1D(0.0, 6.0, 61)
        psi = potential_wavefunction(p, pot, grid, n_k=401)
        ref = np.empty(grid.n, dtype=complex)
        for j, (r, v) in enumerate(zip(grid.points(), pot(grid.points()))):
            rng = allowed_k_range(p, float(v))
            k, w, _ = _simpson_rule(0.0, rng.k_hi, 401)
            w = w * k * k * member_amplitude(p, rng)(k)
            if rng.regime is Regime.DECAYING:
                kern = np.exp(-k * r)
            else:
                kern = np.sinc(k * r / np.pi)
            ref[j] = 4.0 * np.pi * (2.0 * np.pi) ** -1.5 * np.dot(w, kern)
        assert np.abs(psi.values - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_density_is_squared_modulus(self):
        p = ParticleModel.natural()
        grid = Grid1D(0.0, 2.0, 9)
        psi = free_wavefunction(p, grid)
        assert_allclose(psi.density(), np.abs(psi.values) ** 2, rtol=0.0, atol=0.0)


class TestParsevalNorm:
    @pytest.mark.parametrize("mass", [1.0, 2.0])
    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
    def test_flat_norm_closed_form(self, mass, k):
        p = ParticleModel(mass=mass)
        expected = 4.0 * np.pi * mass * k**3 / 3.0
        assert_allclose(parseval_norm(p, k), expected, rtol=1e-10)
        value, tol, unit = flat_norm_deviation(p, k)
        assert value == abs(parseval_norm(p, k) - expected) / expected
        assert value <= tol == 1e-8 and unit == "relative"


class TestRetardingFilter:
    def test_zero_threshold_is_identity(self):
        p = ParticleModel.natural()
        out = apply_retarding_filter(p, 0.0)
        assert out.after.k_lo == out.before.k_lo
        assert out.after.k_hi == out.before.k_hi
        assert not out.fully_blocked

    def test_quarter_energy_cuts_half_range(self):
        p = ParticleModel.natural()
        out = apply_retarding_filter(p, 0.25)
        assert_allclose(out.after.k_lo, 0.5 * out.before.k_hi, rtol=0.0, atol=1e-15)

    def test_threshold_above_budget_blocks(self):
        p = ParticleModel.natural()
        out = apply_retarding_filter(p, 1.5)
        assert out.fully_blocked and out.after.is_empty

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            apply_retarding_filter(ParticleModel.natural(), -0.1)

    def test_surviving_fraction_seven_eighths(self):
        p = ParticleModel.natural()
        out = apply_retarding_filter(p, 0.25)
        assert abs(collapse_fraction(p, out) - 7.0 / 8.0) <= 1e-12

    def test_fraction_monotone_in_threshold(self):
        # dyadic thresholds keep the surviving band either genuinely wide
        # or exactly empty at the top
        p = ParticleModel.natural()
        thresholds = list(np.linspace(0.0, 1.0, 9)) + [1.5]
        fractions = [
            collapse_fraction(p, apply_retarding_filter(p, e)) for e in thresholds
        ]
        assert all(a >= b - 1e-14 for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] == 1.0 and fractions[-1] == 0.0
        assert fractions[-2] == 0.0  # threshold equal to the budget empties the band

    def test_after_range_nested_in_before(self):
        p = ParticleModel.natural()
        rng = np.random.Generator(np.random.Philox(99))
        for e_rfa in rng.uniform(0.0, 2.0, 50):
            out = apply_retarding_filter(p, float(e_rfa))
            assert out.before.contains(out.after)


class TestUncertaintyProduct:
    def test_gaussian_saturates_floor(self):
        up = uncertainty_product(lambda k: np.exp(-k * k / 2.0), (-20.0, 20.0))
        assert abs(up - 0.5) <= 1e-9

    def test_flat_band_value(self):
        up = uncertainty_product(lambda k: np.ones_like(k, dtype=complex), (0.0, 1.0))
        assert_allclose(up, 2.714330065919865, rtol=0.0, atol=1e-6)

    def test_width_scaling_leaves_product(self):
        narrow = uncertainty_product(lambda k: np.exp(-k * k * 4.0**2 / 2.0), (-5.0, 5.0))
        assert abs(narrow - 0.5) <= 1e-6

    def test_evaluates_the_spectrum_once(self):
        calls = []

        def spectrum(k):
            calls.append(k.size)
            return np.exp(-k * k / 2.0)

        uncertainty_product(spectrum, (-20.0, 20.0), n_k=400)
        assert calls == [401]

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            uncertainty_product(SingleMode(1.0), (0.0, 2.0))

    def test_rejects_vanishing_spectrum(self):
        with pytest.raises(ValueError):
            uncertainty_product(lambda k: np.zeros_like(k, dtype=complex), (0.0, 1.0))

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            uncertainty_product(lambda k: np.exp(-k * k), (1.0, 1.0))
