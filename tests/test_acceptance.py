"""Release gate: every invariant and every acceptance criterion must hold.

Each criterion runs as its own test so the verbose report carries one
pass/fail line per criterion; the check's own detail string is printed and
attached to any failure.
"""

import numpy as np
import pytest

from qensemble import acceptance, cli, wavepacket
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
