"""Energy-constrained member ranges, filters and spectral moments."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate as sci

from qensemble.ensemble import (
    KineticConvention,
    KRange,
    ParticleModel,
    Regime,
    allowed_k_range,
    apply_retarding_filter,
    collapse_fraction,
    flat_norm_deviation,
    parseval_norm,
    potential_wavefunction,
    uncertainty_product,
)
from qensemble.numerics import Grid1D, SingleMode, _simpson_rule, radial_superposition
from qensemble.wavepacket import GaussianPacket, propagate


class TestParticleModel:
    @pytest.mark.parametrize("field", ["mass", "total_energy"])
    def test_rejects_nonpositive(self, field):
        kwargs = {"mass": 1.0, "total_energy": 1.0, field: 0.0}
        with pytest.raises(ValueError):
            ParticleModel(**kwargs)

    def test_flat_amplitude_is_root_mass(self):
        # mass 4 puts the free bound at k = 2 and the flat value at 2
        p = ParticleModel(mass=4.0)
        assert p.flat_amplitude == 2.0 == allowed_k_range(p, 0.0).k_hi
        assert ParticleModel(mass=2.0).flat_amplitude == math.sqrt(2.0)


class TestAllowedKRange:
    @pytest.mark.parametrize(
        "v,expected",
        [(-3.0, 2.0), (0.0, 1.0), (0.5, math.sqrt(0.5))],
    )
    def test_oscillatory_endpoints(self, v, expected):
        kr = allowed_k_range(ParticleModel(), v)
        assert kr.regime is Regime.OSCILLATORY
        assert kr.k_lo == 0.0
        assert abs(kr.k_hi - expected) <= 1e-15

    def test_decaying_above_budget(self):
        kr = allowed_k_range(ParticleModel(), 3.0)
        assert kr.regime is Regime.DECAYING
        assert abs(kr.k_hi - math.sqrt(2.0)) <= 1e-15

    def test_degenerate_at_equality(self):
        kr = allowed_k_range(ParticleModel(), 1.0)
        assert kr.is_empty and kr.regime is Regime.OSCILLATORY

    def test_double_convention_scales_endpoint(self):
        p = ParticleModel()
        single = allowed_k_range(p, 0.0, KineticConvention.SINGLE)
        double = allowed_k_range(p, 0.0, KineticConvention.DOUBLE)
        assert_allclose(double.k_hi, math.sqrt(2.0) * single.k_hi, rtol=1e-15)

    def test_rejects_nonfinite_potential(self):
        with pytest.raises(ValueError):
            allowed_k_range(ParticleModel(), float("inf"))


class TestKRange:
    def test_containment(self):
        outer = KRange(0.0, 2.0)
        inner = KRange(0.5, 1.5)
        assert outer.contains(inner) and not inner.contains(outer)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            KRange(1.0, 0.5)


class TestWavefunctions:
    def test_zero_potential_reduces_to_free(self):
        p = ParticleModel()
        grid = Grid1D(0.0, 6.0, 121)
        free = radial_superposition(p.flat_amplitude, allowed_k_range(p, 0.0).k_hi, 801, grid.points())
        assert np.array_equal(free, potential_wavefunction(p, 0.0, grid))

    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_free_profile_against_quad(self, r):
        p = ParticleModel()
        grid = Grid1D(r, r + 1.0, 2)
        psi = potential_wavefunction(p, 0.0, grid, n_k=2001)[0]
        ref, _ = sci.quad(lambda k: k * k * np.sin(k * r) / (k * r), 0.0, 1.0)
        ref *= 4.0 * np.pi * (2.0 * np.pi) ** -1.5
        assert_allclose(psi, ref, rtol=1e-8)

    def test_attractive_region_grows_amplitude(self):
        p = ParticleModel()
        grid = Grid1D(0.0, 1.0, 2)
        deep = potential_wavefunction(p, -3.0, grid)
        free = potential_wavefunction(p, 0.0, grid)
        assert abs(deep[0]) > abs(free[0])

    def test_barrier_region_decays(self):
        p = ParticleModel()
        grid = Grid1D(0.1, 4.0, 40)
        psi = potential_wavefunction(p, 3.0, grid)
        assert np.all(psi > 0.0)
        assert np.all(np.diff(psi) < 0.0)

    @pytest.mark.parametrize("v", [-2.0, 0.0, 0.5, 3.0])
    def test_matches_dense_sums(self, v):
        p = ParticleModel(mass=2.0)
        grid = Grid1D(0.0, 6.0, 61)
        psi = potential_wavefunction(p, v, grid, n_k=401)
        rng = allowed_k_range(p, v)
        k, w, _ = _simpson_rule(0.0, rng.k_hi, 401)
        r = grid.points()[:, None]
        kern = np.exp(-k * r) if rng.regime is Regime.DECAYING else np.sinc(k * r / np.pi)
        ref = 4.0 * np.pi * (2.0 * np.pi) ** -1.5 * math.sqrt(2.0) * (kern @ (w * k * k))
        assert np.abs(psi - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("v", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite_potential(self, v):
        with pytest.raises(ValueError, match="finite"):
            potential_wavefunction(ParticleModel(), v, Grid1D(0.0, 1.0, 5))

    def test_exhausted_budget_gives_exact_zeros(self):
        p = ParticleModel(total_energy=1.5)
        psi = potential_wavefunction(p, 1.5, Grid1D(0.0, 4.0, 41))
        assert np.all(psi == 0.0)

    @pytest.mark.parametrize(
        "build,dtype",
        [
            (lambda grid: potential_wavefunction(ParticleModel(), -2.0, grid), np.float64),
            (lambda grid: potential_wavefunction(ParticleModel(), 3.0, grid), np.float64),
            (lambda grid: potential_wavefunction(ParticleModel(), 1.0, grid), np.float64),
            (lambda grid: propagate(GaussianPacket(b=1.0, k0=2.0), 0.5, grid), np.complex128),
            (lambda grid: propagate(SingleMode(k0=2.0), 0.5, grid), np.complex128),
        ],
        ids=["oscillatory", "decaying", "empty", "gaussian", "single_mode"],
    )
    def test_field_builders_return_plain_arrays(self, build, dtype):
        # real radial profiles stay real; propagated packets carry their phase
        grid = Grid1D(0.0, 4.0, 41)
        psi = build(grid)
        assert type(psi) is np.ndarray and psi.dtype == dtype and psi.shape == (grid.n,)


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
        p = ParticleModel()
        out = apply_retarding_filter(p, 0.0)
        assert out.after.k_lo == out.before.k_lo
        assert out.after.k_hi == out.before.k_hi
        assert not out.fully_blocked

    def test_quarter_energy_cuts_half_range(self):
        p = ParticleModel()
        out = apply_retarding_filter(p, 0.25)
        assert_allclose(out.after.k_lo, 0.5 * out.before.k_hi, rtol=0.0, atol=1e-15)

    def test_threshold_above_budget_blocks(self):
        p = ParticleModel()
        out = apply_retarding_filter(p, 1.5)
        assert out.fully_blocked and out.after.is_empty

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            apply_retarding_filter(ParticleModel(), -0.1)

    def test_surviving_fraction_seven_eighths(self):
        p = ParticleModel()
        out = apply_retarding_filter(p, 0.25)
        assert abs(collapse_fraction(p, out) - 7.0 / 8.0) <= 1e-12

    def test_fraction_monotone_in_threshold(self):
        # dyadic thresholds keep the surviving band either genuinely wide
        # or exactly empty at the top
        p = ParticleModel()
        thresholds = list(np.linspace(0.0, 1.0, 9)) + [1.5]
        fractions = [
            collapse_fraction(p, apply_retarding_filter(p, e)) for e in thresholds
        ]
        assert all(a >= b - 1e-14 for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] == 1.0 and fractions[-1] == 0.0
        assert fractions[-2] == 0.0  # threshold equal to the budget empties the band

    def test_after_range_nested_in_before(self):
        p = ParticleModel()
        rng = np.random.Generator(np.random.Philox(99))
        for e_rfa in rng.uniform(0.0, 2.0, 50):
            out = apply_retarding_filter(p, float(e_rfa))
            assert out.before.contains(out.after)


class TestUncertaintyProduct:
    def test_gaussian_saturates_floor(self):
        up = uncertainty_product(lambda k: np.exp(-k * k / 2.0), (-20.0, 20.0))
        assert abs(up - 0.5) <= 1e-9

    def test_rejects_flat_band_edge(self):
        # a spectrum that does not vanish at the interval ends has an unbounded Delta X
        with pytest.raises(ValueError, match=r"at the interval end k = 0 is 1 of its peak"):
            uncertainty_product(lambda k: np.ones_like(k, dtype=complex), (0.0, 1.0))

    def test_shifted_gaussian_saturates_floor(self):
        # psi centred at x = 100, inside the period 2 pi / dk = 314 of the default nodes
        up = uncertainty_product(lambda k: np.exp(-k * k / 2.0) * np.exp(-100j * k), (-20.0, 20.0))
        assert abs(up - 0.5) <= 1e-12

    def test_rejects_psi_wider_than_the_period(self):
        # psi centred at x = 155 reaches the period's end x = 157.08 and would alias
        with pytest.raises(ValueError, match=r"period's end x = 157\.08 is .* raise n_k = 2001"):
            uncertainty_product(lambda k: np.exp(-k * k / 2.0) * np.exp(-155j * k), (-20.0, 20.0))

    def test_large_spectrum_values_leave_product(self):
        # |psi|^2 of the raw samples would overflow: the peak is 1e153 and n_k - 1 = 2000 terms add up
        up = uncertainty_product(lambda k: 1e153 * np.exp(-k * k / 2.0), (-20.0, 20.0))
        assert abs(up - 0.5) <= 1e-12

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
