"""Packet propagation, spreading closed forms and the intrinsic field."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qensemble.wavepacket as wavepacket
from qensemble.ensemble import ParticleModel
from qensemble.numerics import Grid1D, SingleMode
from qensemble.wavepacket import (
    GaussianPacket,
    closed_form_density,
    equilibrium_check,
    intrinsic_force,
    intrinsic_potential,
    omega,
    propagate,
    quantum_potential,
    spectral_window,
    spreading_deviation,
    truncation_bound,
)


class TestDispersionLaw:
    def test_quadratic_law(self):
        assert omega(2.0) == 2.0
        assert_allclose(omega(np.array([1.0, 3.0])), [0.5, 4.5], rtol=0.0)


class TestGaussianPacket:
    @pytest.mark.parametrize(
        "b, k0",
        [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (1.0, math.nan)],
    )
    def test_rejects_bad_parameters(self, b, k0):
        with pytest.raises(ValueError):
            GaussianPacket(b=b, k0=k0)


class TestSpectra:
    def test_window_covers_eight_widths(self):
        assert spectral_window(GaussianPacket(b=2.0, k0=5.0)) == (1.0, 9.0)

    @pytest.mark.parametrize("b", [5.8e-187, 1.1e-153, 6.8e153, 1.8e174])
    def test_window_rejects_widths_the_spectrum_cannot_square(self, b):
        with pytest.raises(ValueError, match=re.escape(f"overflows for b = {b:g};")):
            spectral_window(GaussianPacket(b=b, k0=0.0))

    @pytest.mark.parametrize("b", [1.2e-153, 6.7e153])
    def test_spectrum_is_finite_at_the_window_limits(self, b):
        packet = GaussianPacket(b=b, k0=0.0)
        with np.errstate(all="raise"):
            assert np.isfinite(packet.spectrum(np.array(spectral_window(packet)))).all()

    def test_truncation_bound_is_tiny_and_scales(self):
        tb1 = truncation_bound(GaussianPacket(b=1.0, k0=0.0))
        assert tb1 == math.erfc(8.0 / math.sqrt(2.0))
        assert tb1 < 1.3e-15
        assert truncation_bound(GaussianPacket(b=0.5, k0=0.0)) == 2.0 * tb1

    def test_spectrum_shape(self):
        spec = GaussianPacket(b=2.0, k0=3.0).spectrum
        assert spec(3.0) == 1.0
        assert spec(3.0 + 0.7) == spec(3.0 - 0.7)
        assert_allclose(spec(3.5), math.exp(-0.5), rtol=1e-15)


class TestPropagation:
    @pytest.mark.parametrize("t", [0.0, 1.5, -3.0])
    def test_single_mode_keeps_unit_density(self, t):
        grid = Grid1D(-10.0, 10.0, 401)
        field = propagate(SingleMode(k0=2.0), t, grid)
        assert np.abs(np.abs(field) ** 2 - 1.0).max() <= 1e-14
        phase = 2.0 * grid.points() - float(omega(2.0)) * t
        assert_allclose(field, np.exp(1j * phase), rtol=0.0, atol=0.0)

    def test_gaussian_matches_closed_form_at_rest(self):
        packet = GaussianPacket(b=1.0, k0=2.0)
        grid = Grid1D(-4.0, 4.0, 801)
        num = np.abs(propagate(packet, 0.0, grid)) ** 2
        ref = closed_form_density(packet, grid.points(), 0.0)
        assert_allclose(num, ref, rtol=1e-6, atol=1e-12)

    def test_density_scale_follows_width(self):
        # the synthesized density carries 1/b^2 against the unit-peak form
        packet = GaussianPacket(b=2.0, k0=0.0)
        grid = Grid1D(-6.0, 6.0, 601)
        num = np.abs(propagate(packet, 0.0, grid)) ** 2
        ref = closed_form_density(packet, grid.points(), 0.0)
        assert_allclose(4.0 * num, ref, rtol=1e-6, atol=1e-12)

    def test_spreading_tracks_dispersion_form(self):
        packet = GaussianPacket(b=1.0, k0=5.0)
        t = 1.0
        sigma = packet.b * math.sqrt((1.0 + t * t) / 2.0)
        grid = Grid1D(5.0 * t - 4.0 * sigma, 5.0 * t + 4.0 * sigma, 801)
        num = np.abs(propagate(packet, t, grid)) ** 2
        ref = closed_form_density(packet, grid.points(), t, mode="textbook")
        assert np.abs((num - ref) / ref).max() <= 1e-4

    def test_single_spectral_node_is_rejected(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            propagate(GaussianPacket(b=1.0, k0=5.0), 1.0, Grid1D(-4.0, 4.0, 81), n_k=1)

    def test_automatic_node_count_is_bounded(self):
        grid = Grid1D(-10.0, 25.0, 1201)
        # the default spread grid's largest count for k0 <= 10, t <= 5
        assert wavepacket._auto_nodes(GaussianPacket(b=1.0, k0=10.0), 5.0, grid) == 9371
        # 1.6e12 nodes (about 13 TB) are refused before anything is allocated
        with pytest.raises(ValueError, match="k0 = 1e\\+10.*lower k0 or times"):
            wavepacket._auto_nodes(GaussianPacket(b=1.0, k0=1e10), 2.0, grid)


class TestClosedForms:
    def test_modes_agree_only_at_rest(self):
        packet = GaussianPacket(b=1.0, k0=0.0)
        x = np.linspace(-4.0, 4.0, 201)
        assert np.array_equal(
            closed_form_density(packet, x, 0.0, mode="textbook"),
            closed_form_density(packet, x, 0.0, mode="model"),
        )
        gap = np.abs(
            closed_form_density(packet, x, 1.0, mode="textbook")
            - closed_form_density(packet, x, 1.0, mode="model")
        )
        assert gap.max() > 0.1

    def test_broadened_peak_values(self):
        packet = GaussianPacket(b=1.0, k0=0.0)
        peak = np.array([0.0])
        assert closed_form_density(packet, peak, 1.0, mode="textbook")[0] == 2.0**-0.5
        assert closed_form_density(packet, peak, 1.0, mode="model")[0] == 0.5

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            closed_form_density(GaussianPacket(b=1.0, k0=0.0), [0.0], 0.0, mode="exact")

    def test_overflowing_square_gives_zero_density(self):
        x = np.array([-1e200, 0.0, 1e300])
        with np.errstate(all="raise", under="ignore"):
            values = closed_form_density(GaussianPacket(b=1.0, k0=0.0), x, 0.0)
        assert values.tolist() == [0.0, 1.0, 0.0]

    def test_rejects_overflowing_broadening(self):
        with pytest.raises(ValueError, match=re.escape("overflows for t = 1e+300, b = 1")):
            closed_form_density(GaussianPacket(b=1.0, k0=0.0), [0.0], 1e300)


class TestSpreadingOracle:
    def test_no_runs_is_zero(self):
        # no node reached the mask, so the absolute bound is the one that applied
        assert spreading_deviation(GaussianPacket(b=1.0, k0=5.0), []) == (0.0, 1e-10, "relative to peak")

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_propagated_density_is_within(self, b):
        packet = GaussianPacket(b=b, k0=5.0)
        grid = Grid1D(-10.0, 25.0, 1201)
        runs = [(t, grid.points(), np.abs(propagate(packet, t, grid)) ** 2) for t in (0.0, 1.0)]
        value, tol, unit = spreading_deviation(packet, runs)
        assert value <= tol == 1e-4 and unit == "relative"

    def test_compares_nodes_at_or_above_1e_8_of_the_peak(self):
        packet = GaussianPacket(b=2.0, k0=0.0)
        x = np.linspace(-30.0, 30.0, 601)
        ref = closed_form_density(packet, x, 1.0) / 4.0
        faint = ref < 1e-8 * ref.max()
        assert faint.any() and not faint.all()
        # below the mask only the absolute bound, 1e-10 of the peak, applies
        assert spreading_deviation(packet, [(1.0, x, np.where(faint, ref + 1e-11 * ref.max(), ref))])[0] == 0.0
        off = np.where(faint, ref, ref * (1.0 + 2e-4))
        # 2e-4 of the peak itself breaches the absolute bound first
        value, tol, unit = spreading_deviation(packet, [(1.0, x, off)])
        assert value > tol == 1e-10 and unit == "relative to peak"
        # 2e-4 relative at these nodes is at most 2e-11 of the peak, so only the relative bound refuses it
        band = (ref >= 1e-8 * ref.max()) & (ref < 1e-7 * ref.max())
        assert band.any()
        value, tol, unit = spreading_deviation(packet, [(1.0, x, np.where(band, ref * (1.0 + 2e-4), ref))])
        assert value > tol == 1e-4 and unit == "relative"

    def test_absolute_bound_holds_at_every_node(self):
        packet = GaussianPacket(b=2.0, k0=0.0)
        x = np.linspace(-30.0, 30.0, 601)
        ref = closed_form_density(packet, x, 1.0) / 4.0
        faint = ref < 1e-8 * ref.max()
        value, tol, unit = spreading_deviation(packet, [(1.0, x, np.where(faint, 1.0, ref))])
        assert value > tol == 1e-10 and unit == "relative to peak"

    def test_mask_follows_the_packet_peak_not_the_grid(self):
        # this grid holds only the far tail, below 1e-14 of the packet's peak at t = 2
        packet = GaussianPacket(b=1.0, k0=5.0)
        grid = Grid1D(-10.0, -2.7, 1912)
        ref = closed_form_density(packet, grid.points(), 2.0)
        notes = []
        runs = [(2.0, grid.points(), np.abs(propagate(packet, 2.0, grid)) ** 2)]
        value, tol, unit = spreading_deviation(packet, runs, notes=notes)
        assert value <= tol == 1e-10 and unit == "relative to peak"
        assert notes == ["no node at t = 2 reaches 1e-8 of the gaussian peak; only the absolute bound applies"]
        bumped = [(2.0, grid.points(), ref + 2e-10 / np.sqrt(5.0))]
        assert not spreading_deviation(packet, bumped)[0] <= 1e-10

    def test_grid_without_density_is_rejected(self):
        packet = GaussianPacket(b=0.003549626833218614, k0=5.0)
        x = np.linspace(2.00001, 25.0, 1201)
        message = "b = 0.00354963 leaves no density on x_min = 2.00001 .. x_max = 25"
        with pytest.raises(ValueError, match=re.escape(message)):
            spreading_deviation(packet, [(0.0, x, np.zeros(x.size))])


class TestIntrinsicField:
    @pytest.mark.parametrize(
        "amp, mass, k, expected",
        [
            (1.0, 1.0, 2.0, 4.0),
            (2.0j, 1.0, 2.0, 16.0),
            (1.0, 2.0, 2.0, 1.0),
        ],
    )
    def test_potential_prefactor(self, amp, mass, k, expected):
        p = ParticleModel(mass=mass, total_energy=1.0)
        assert_allclose(intrinsic_potential(np.array([amp]), p, k), [expected], rtol=1e-15)

    def test_force_on_gaussian_envelope(self):
        x = np.linspace(-3.0, 3.0, 6001)
        psi = np.exp(-(x**2) / 2.0)
        force = intrinsic_force(psi, ParticleModel(), 1.0, x[1] - x[0])
        expected = 2.0 * x * np.exp(-(x**2))
        assert_allclose(force[1:-1], expected[1:-1], rtol=0.0, atol=1e-5)
        assert abs(force[4000] - 2.0 * math.exp(-1.0)) <= 1e-5

    def test_force_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            intrinsic_force(np.ones(5), ParticleModel(), 1.0, 0.0)


class TestEquilibrium:
    def test_constant_envelope_is_exact(self):
        assert equilibrium_check(np.full(101, 0.3 + 0.4j), 0.01) == 0.0

    def test_gaussian_envelope_is_not(self):
        x = np.linspace(-4.0, 4.0, 8001)
        residual = equilibrium_check(np.exp(-(x**2) / 2.0), x[1] - x[0])
        assert abs(residual - math.sqrt(2.0) * math.exp(-0.5)) <= 1e-3

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            equilibrium_check(np.ones(5), -1.0)


class TestQuantumPotential:
    def test_gaussian_curvature_ratio(self):
        x = np.linspace(-2.0, 2.0, 401)
        result = quantum_potential(np.exp(-(x**2) / 2.0), x[1] - x[0])
        assert not result.masked.any()
        assert_allclose(result.values[1:-1], x[1:-1] ** 2 - 1.0, rtol=0.0, atol=1e-3)

    def test_cosine_is_constant_ratio(self):
        x = np.linspace(-0.7, 0.7, 141)
        result = quantum_potential(np.cos(2.0 * x), x[1] - x[0])
        assert_allclose(result.values[1:-1], -4.0, rtol=0.0, atol=1e-3)

    def test_zero_crossings_are_masked(self):
        x = np.linspace(-2.0, 2.0, 401)
        result = quantum_potential(x**2 - 1.0, x[1] - x[0])
        assert result.masked.sum() == 2
        assert np.isnan(result.values[result.masked]).all()
        keep = ~result.masked
        assert_allclose(result.values[keep], 2.0 / (x[keep] ** 2 - 1.0), rtol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            quantum_potential(np.ones(5), 0.0)
        with pytest.raises(ValueError):
            quantum_potential(np.ones(2), 0.1)

