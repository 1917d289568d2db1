"""Release gate: every invariant and every acceptance criterion must hold.

Each criterion runs as its own test so the verbose report carries one
pass/fail line per criterion; the check's own detail string is printed and
attached to any failure.
"""

import dataclasses

import numpy as np
import pytest

from qensemble import acceptance, cli, numerics, squarewell, wavepacket
from qensemble.acceptance import (
    ALL_CHECKS,
    CRITERION_CHECKS,
    INVARIANT_CHECKS,
    CheckResult,
    run_checks,
)
from qensemble.wavepacket import GaussianPacket, closed_form_density

# the registry's names in selftest order: 9 invariants, then 11 criteria
NAMES = (
    "quadrature_rules",
    "zero_potential_reduction",
    "decaying_tail_shape",
    "filter_edge_cases",
    "bound_state_normalization",
    "packet_norm_transport",
    "quantum_potential_mask",
    "beam_energy_accounting",
    "monte_carlo_determinism",
    "parseval_identity",
    "range_monotonicity",
    "single_mode_constancy",
    "gaussian_spreading",
    "force_consistency",
    "equilibrium_condition",
    "collapse_fraction",
    "square_well_structure",
    "eraser_visibilities",
    "interaction_free_statistics",
    "uncertainty_floor",
)


class TestRegistry:
    def test_registry_layout(self):
        assert len(INVARIANT_CHECKS) == 9
        assert len(CRITERION_CHECKS) == 11
        assert ALL_CHECKS == INVARIANT_CHECKS + CRITERION_CHECKS
        assert [check.__name__ for check in ALL_CHECKS] == [f"check_{name}" for name in NAMES]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_checks(["not_a_check"])

    def test_line_format(self):
        good = CheckResult("alpha", True, "all fine", 0.1)
        bad = CheckResult("beta", False, "off by 2", 0.1)
        assert good.line == "PASS alpha: all fine"
        assert bad.line == "FAIL beta: off by 2"

    @pytest.mark.parametrize("name", sorted(acceptance.BUDGETS))
    def test_check_over_its_budget_fails(self, name, monkeypatch, capsys):
        monkeypatch.setitem(acceptance.BUDGETS, name, 0.0)
        (result,) = run_checks([name])
        assert not result.passed
        assert result.detail.endswith("; runtime budget of 0 s exceeded")
        assert cli.main(["selftest"]) == 2
        assert f"FAIL {name}: " in capsys.readouterr().out


@pytest.mark.parametrize("name", NAMES[:9])
def test_invariant(name):
    (result,) = run_checks([name])
    print(result.line)
    assert result.passed, result.detail


@pytest.mark.parametrize("name", NAMES[9:])
def test_criterion(name):
    (result,) = run_checks([name])
    print(result.line)
    assert result.passed, result.detail


def test_corrupted_dispersion_fails_only_spread_watchers(monkeypatch):
    """The spreading criteria must actually watch the dispersion chain.

    Scaling the dispersion law breaks propagation but not the closed
    forms, so exactly the two checks that compare the two must fail and
    everything else must keep passing.
    """
    omega = wavepacket.omega
    monkeypatch.setattr(wavepacket, "omega", lambda k: 2.0 * omega(k))
    assert wavepacket.omega(3.0) == 9.0
    # the closed form does not go through omega, so it stays put
    assert closed_form_density(GaussianPacket(b=1.0, k0=0.0), np.array([0.0]), 1.0)[0] == 2.0**-0.5
    failed = {r.name for r in run_checks() if not r.passed}
    assert failed == {"gaussian_spreading", "packet_norm_transport"}


def test_scaled_decaying_tail_fails_its_shape_check(monkeypatch):
    # the closed-form tail holds the profile to 1e-9 of its peak, so a gain of 1e-6 is a breach
    profile = acceptance.potential_wavefunction
    monkeypatch.setattr(acceptance, "potential_wavefunction", lambda *a, **kw: profile(*a, **kw) * (1.0 + 1e-6))
    (result,) = run_checks(["decaying_tail_shape"])
    assert not result.passed, result.line


def test_scaled_radial_synthesis_fails_the_zero_potential_check(monkeypatch):
    # the closed-form ball holds the profile at r > 0 to 1e-9 of its peak, so a gain of 1e-6 is a breach
    monkeypatch.setattr(numerics, "_synthesize", _scaled(numerics._synthesize, 1.0 + 1e-6))
    (result,) = run_checks(["zero_potential_reduction"])
    assert not result.passed, result.line


def _scaled(fn, factor):
    return lambda *args, **kwargs: fn(*args, **kwargs) * factor


def _later_carrier(propagate):
    # the packet at t > 0 moves with a carrier 1e-8 faster, so its centroid lands 1e-8 too far
    def moved(packet, t, grid, **kwargs):
        return propagate(dataclasses.replace(packet, k0=packet.k0 * (1.0 + 1e-8)) if t else packet, t, grid, **kwargs)

    return moved


def _later_gain(propagate):
    # the packet at t > 0 carries 1e-8 more norm
    def gained(packet, t, grid, **kwargs):
        return propagate(packet, t, grid, **kwargs) * (np.sqrt(1.0 + 1e-8) if t else 1.0)

    return gained


def _scaled_curvature(quantum_potential):
    def scaled(*args, **kwargs):
        res = quantum_potential(*args, **kwargs)
        return res._replace(values=res.values * (1.0 + 1e-7))

    return scaled


@pytest.mark.parametrize(
    "name,attr,perturb,quantity,old_tol,tol",
    [
        ("uncertainty_floor", "uncertainty_product", lambda f: _scaled(f, 1.0 + 1e-6), "gaussian product deviates",
         1e-3, 1e-11),
        ("packet_norm_transport", "propagate", _later_gain, "norm drift", 1e-6, 5e-11),
        ("packet_norm_transport", "propagate", _later_carrier, "centroid error", 1e-6, 5e-11),
        ("bound_state_normalization", "normalization_audit", lambda f: _scaled(f, 1.0 + 1e-8),
         "bound member ratio deviates", 1e-6, 1e-9),
        ("quantum_potential_mask", "quantum_potential", _scaled_curvature, "rational error", 1e-6, 1e-8),
    ],
    ids=["gaussian_product", "norm_drift", "centroid_error", "bound_member_ratio", "rational_error"],
)
def test_error_inside_the_old_tolerance_fails(name, attr, perturb, quantity, old_tol, tol, monkeypatch):
    # each tolerance sits within 10^3 of what the check observes, so an error its looser
    # predecessor admitted is now a failure
    monkeypatch.setattr(acceptance, attr, perturb(getattr(acceptance, attr)))
    (result,) = run_checks([name])
    value = float(result.detail.split(f"{quantity} ", 1)[1].split(" ", 1)[0].rstrip(","))
    assert tol < value <= old_tol, result.line
    assert not result.passed, result.line


def test_bound_state_bisection_stops_at_its_fixed_point(monkeypatch):
    # once the midpoint of [1, 1.2] equals an end no step can move either end, which takes 50
    # halvings; the 150 residuals a 200-step loop would add change nothing
    calls = []

    def counted(cfg, k1):
        calls.append(k1)
        return squarewell.bound_state_residual(cfg, k1)

    monkeypatch.setattr(acceptance, "bound_state_residual", counted)
    (result,) = run_checks(["bound_state_normalization"])
    assert result.passed, result.line
    assert len(calls) == 1 + 50
