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
    bound_state_residual,
    is_bound_state_member,
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
