"""Finite rectangular well: member pairing, wall matching and densities."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qensemble.ensemble import ParticleModel
from qensemble.numerics import Grid1D, integrate_real
from qensemble.squarewell import (
    ResonantMemberError,
    WellConfig,
    WellMember,
    bound_state_residual,
    density_parity,
    is_bound_state_member,
    member_pairing,
    member_wavefunction,
    normalization_audit,
    pair_member,
    well_ensemble_density,
)


def default_config(e_total=1.0, v0=4.0, x0=1.0):
    return WellConfig(ParticleModel.natural(total_energy=e_total), v0=v0, x0=x0)


class TestWellConfig:
    def test_derived_wavenumbers(self):
        cfg = default_config()
        assert cfg.pair_constant == 4.0
        assert cfg.k0 == 1.0
        assert_allclose(cfg.k0_prime, math.sqrt(3.0), rtol=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"v0": 0.0, "x0": 1.0},
            {"v0": 4.0, "x0": 0.0},
            {"v0": 0.5, "x0": 1.0},  # energy budget reaches the rim
        ],
    )
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            WellConfig(ParticleModel.natural(), **kwargs)


class TestPairMember:
    def test_pairing_identity(self):
        cfg = default_config()
        rng = np.random.Generator(np.random.Philox(7))
        for k1 in rng.uniform(0.0, cfg.k0, 100):
            member = pair_member(cfg, float(k1))
            assert abs(member.k1**2 + member.k2**2 - cfg.pair_constant) <= 1e-12

    def test_rejects_out_of_range(self):
        cfg = default_config()
        with pytest.raises(ValueError):
            pair_member(cfg, cfg.k0 + 0.1)
        with pytest.raises(ValueError):
            pair_member(cfg, -0.1)

    def test_resonant_member_rejected(self):
        # a wider energy budget lets k1 reach the interior-cosine zero
        cfg = default_config(e_total=3.0)
        with pytest.raises(ResonantMemberError):
            pair_member(cfg, math.pi / 2.0)

    def test_amplitude_closed_form_at_zero(self):
        cfg = default_config(e_total=0.5, v0=1.0, x0=1.0)
        member = pair_member(cfg, 0.0)
        assert member.k2 == 1.0
        assert_allclose(member.chi0, math.e / math.sqrt(2.0), rtol=0.0, atol=1e-15)


    def test_overflowing_amplitude_rejected(self):
        # k2 x0 near 1000 puts exp(k2 x0) past the float range
        with pytest.raises(ValueError, match="v0 = 1e\\+06"):
            pair_member(default_config(v0=1e6), 0.5)

    @pytest.mark.parametrize("seed,count", [(7, 100), (11, 200)])
    def test_array_equals_per_entry_calls(self, seed, count):
        cfg = default_config()
        k1 = np.random.Generator(np.random.Philox(seed)).uniform(0.0, cfg.k0, count)
        members = pair_member(cfg, k1)
        assert members.k1.shape == members.k2.shape == members.chi0.shape == (count,)
        singles = [pair_member(cfg, float(k)) for k in k1]
        assert all(isinstance(m.k2, float) and isinstance(m.chi0, float) for m in singles)
        assert np.array_equal(members.k1, k1)
        assert np.array_equal(members.k2, [m.k2 for m in singles])
        assert np.array_equal(members.chi0, [m.chi0 for m in singles])

    def test_array_with_one_resonant_entry_rejected(self):
        cfg = default_config(e_total=3.0)
        with pytest.raises(ResonantMemberError, match="1.5707963267948966"):
            pair_member(cfg, np.array([0.3, math.pi / 2.0, 1.0]))

    def test_array_with_one_out_of_range_entry_rejected(self):
        cfg = default_config()
        with pytest.raises(ValueError, match="k1 must lie in"):
            pair_member(cfg, np.array([0.2, 0.5, cfg.k0 + 0.1]))

    def test_overflowing_array_rejected(self):
        with pytest.raises(ValueError, match="v0 = 1e\\+06"):
            pair_member(default_config(v0=1e6), np.linspace(0.0, 1.0, 5))


class TestPairingOracle:
    def test_tolerance_scales_with_pair_constant(self):
        small = default_config()
        deep = default_config(v0=1e4)
        assert member_pairing(small, pair_member(small, np.array([0.5])))[1:] == (1e-12, "absolute")
        assert member_pairing(deep, pair_member(deep, np.array([0.5])))[1] == 3.0 * np.finfo(float).eps * 1e4

    def test_value_is_largest_pairing_error(self):
        cfg = default_config(v0=1e4)
        k1 = np.linspace(0.0, cfg.k0, 102)[1:-1]
        members = pair_member(cfg, k1)
        value, tol, _ = member_pairing(cfg, members)
        assert value == max(abs(k**2 + pair_member(cfg, float(k)).k2 ** 2 - cfg.pair_constant) for k in k1)
        assert value <= tol

    def test_perturbed_member_breaches(self):
        cfg = default_config()
        members = pair_member(cfg, np.linspace(0.1, 0.9, 9))
        k2 = members.k2.copy()
        k2[4] *= 1.0 + 1e-9
        value, tol, _ = member_pairing(cfg, WellMember(members.k1, k2, members.chi0))
        assert value > tol

    def test_no_members_give_zero(self):
        cfg = default_config()
        assert member_pairing(cfg, pair_member(cfg, np.array([])))[0] == 0.0


class TestMemberWavefunction:
    def test_walls_match_bitwise(self):
        cfg = default_config()
        edges = np.array([-cfg.x0, cfg.x0])
        rng = np.random.Generator(np.random.Philox(11))
        for k1 in rng.uniform(0.0, cfg.k0, 200):
            member = pair_member(cfg, float(k1))
            inner_vals = member_wavefunction(member, cfg, edges)
            outer_vals = member.chi0 * np.exp(-member.k2 * np.abs(edges))
            assert np.array_equal(inner_vals, outer_vals)

    def test_array_equals_per_member_calls(self):
        cfg = default_config()
        k1 = np.random.Generator(np.random.Philox(11)).uniform(0.0, cfg.k0, 200)
        x = np.concatenate([[-cfg.x0, cfg.x0], np.linspace(-3.0, 3.0, 61)])
        values = member_wavefunction(pair_member(cfg, k1), cfg, x)
        assert values.shape == (200, x.size)
        expected = [member_wavefunction(pair_member(cfg, float(k)), cfg, x) for k in k1]
        assert np.array_equal(values, expected)

    def test_scalar_member_keeps_the_shape_of_x(self):
        cfg = default_config()
        member = pair_member(cfg, 0.6)
        assert member_wavefunction(member, cfg, np.zeros((3, 4))).shape == (3, 4)
        assert member_wavefunction(member, cfg, 0.5).shape == ()

    def test_exterior_decay(self):
        cfg = default_config()
        member = pair_member(cfg, 0.6)
        x = np.array([1.5, 2.5, 4.0, -1.5, -4.0])
        expected = member.chi0 * np.exp(-member.k2 * np.abs(x))
        assert_allclose(member_wavefunction(member, cfg, x), expected, rtol=0.0, atol=0.0)

    def test_interior_is_scaled_cosine(self):
        cfg = default_config()
        member = pair_member(cfg, 0.6)
        x = np.linspace(-0.9, 0.9, 7)
        wall = member.chi0 * math.exp(-member.k2 * cfg.x0)
        expected = wall * np.cos(member.k1 * x) / math.cos(member.k1 * cfg.x0)
        assert_allclose(member_wavefunction(member, cfg, x), expected, rtol=1e-15)


class TestBoundStates:
    def bisect_root(self, cfg, lo, hi):
        f_lo = bound_state_residual(cfg, lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f_mid = bound_state_residual(cfg, mid)
            if (f_mid > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_residual_brackets_a_root(self):
        cfg = default_config(e_total=1.5)
        assert bound_state_residual(cfg, 1.0) > 0.0
        assert bound_state_residual(cfg, 1.2) < 0.0

    def test_norm_equals_mass_only_on_condition(self):
        cfg = default_config(e_total=1.5)
        k1 = self.bisect_root(cfg, 1.0, 1.2)
        assert is_bound_state_member(cfg, k1)
        on = normalization_audit(pair_member(cfg, k1), cfg)
        assert abs(on.ratio - 1.0) <= 1e-9
        off = normalization_audit(pair_member(cfg, 0.5), cfg)
        assert abs(off.ratio - 1.0) > 1e-2
        assert not is_bound_state_member(cfg, 0.5)


class TestEnsembleDensity:
    def test_even_normalized_positive(self):
        cfg = default_config()
        grid = Grid1D(-8.0, 8.0, 801)
        profile = well_ensemble_density(cfg, grid)
        assert np.abs(profile.values - profile.values[::-1]).max() <= 1e-10
        assert abs(integrate_real(profile.values, grid.spacing) - 1.0) <= 1e-10
        assert np.all(profile.values >= 0.0)
        assert profile.excluded_k_measure == 0.0
        assert profile.excluded_node_count == 0

    @pytest.mark.parametrize(
        "x_min,x_max,n",
        [(0.0, 8.0, 1601), (0.0, 8.0, 1600), (-3.0, 8.0, 1201), (-8.0, 1.0 / 3.0, 1601)],
    )
    def test_parity_on_asymmetric_grids(self, x_min, x_max, n):
        # x0 = 1/3: the last grid puts a node 1.2e-15 inside the left wall,
        # where the density jumps, so its mirror must sit exactly as far
        # inside the right wall
        cfg = default_config(x0=1.0 / 3.0)
        profile = well_ensemble_density(cfg, Grid1D(x_min, x_max, n))
        value, tol, unit = density_parity(cfg, profile)
        assert value <= tol and (tol, unit) == (1e-10 * max(1.0, profile.values.max()), "absolute")

    def test_parity_on_symmetric_grid_is_the_reversed_profile(self):
        cfg = default_config()
        profile = well_ensemble_density(cfg, Grid1D(-8.0, 8.0, 1601))
        assert density_parity(cfg, profile)[0] == np.abs(profile.values - profile.values[::-1]).max()

    def test_resonance_exclusion_reported(self):
        # k0 = sqrt(3) > pi/2, so the quadrature straddles a cosine zero
        cfg = default_config(e_total=3.0)
        grid = Grid1D(-6.0, 6.0, 401)
        profile = well_ensemble_density(cfg, grid, resonance_tol=1e-3)
        assert profile.excluded_node_count > 0
        assert profile.excluded_k_measure > 0.0
        assert np.all(np.isfinite(profile.values))
        assert abs(integrate_real(profile.values, grid.spacing) - 1.0) <= 1e-8

    def test_excluding_every_interior_member_is_rejected(self):
        # |cos| <= 1 < 2, so this tolerance would leave the interior empty
        with pytest.raises(ValueError, match="excludes every interior member"):
            well_ensemble_density(default_config(), Grid1D(-4.0, 4.0, 201), resonance_tol=2.0)

    def test_single_spectral_node_is_rejected(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            well_ensemble_density(default_config(), Grid1D(-4.0, 4.0, 201), n_k=1)

    def test_deep_well_stays_finite(self):
        # raw member amplitudes carry exp(k2 x0) and overflow near k2 = 2000;
        # the density path folds that factor away before exponentiating
        cfg = WellConfig(ParticleModel.natural(), v0=4.0e6, x0=1.0)
        grid = Grid1D(-4.0, 4.0, 201)
        profile = well_ensemble_density(cfg, grid)
        assert np.all(np.isfinite(profile.values))
        assert np.all(profile.values >= 0.0)
