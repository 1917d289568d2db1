"""Release gate: every invariant and every acceptance criterion must hold.

Each criterion runs as its own test so the verbose report carries one
pass/fail line per criterion; the check's own detail string is printed and
attached to any failure.
"""

import numpy as np
import pytest

from qensemble.acceptance import (
    ALL_CHECKS,
    CRITERION_CHECKS,
    INVARIANT_CHECKS,
    CheckResult,
    run_checks,
)
from qensemble.wavepacket import DispersionLaw, GaussianPacket, closed_form_density


class TestRegistry:
    def test_registry_layout(self):
        assert len(INVARIANT_CHECKS) == 9
        assert len(CRITERION_CHECKS) == 11
        assert ALL_CHECKS == INVARIANT_CHECKS + CRITERION_CHECKS
        names = [name for name, _ in ALL_CHECKS]
        assert len(names) == len(set(names))

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_checks(["not_a_check"])

    def test_line_format(self):
        good = CheckResult("alpha", True, "all fine", 0.1)
        bad = CheckResult("beta", False, "off by 2", 0.1)
        assert good.line == "PASS alpha: all fine"
        assert bad.line == "FAIL beta: off by 2"


@pytest.mark.parametrize(
    "name, check", INVARIANT_CHECKS, ids=[name for name, _ in INVARIANT_CHECKS]
)
def test_invariant(name, check):
    result = check()
    print(result.line)
    assert result.passed, result.detail


@pytest.mark.parametrize(
    "name, check", CRITERION_CHECKS, ids=[name for name, _ in CRITERION_CHECKS]
)
def test_criterion(name, check):
    result = check()
    print(result.line)
    assert result.passed, result.detail


def test_corrupted_dispersion_fails_only_spread_watchers(monkeypatch):
    """The spreading criteria must actually watch the dispersion chain.

    Scaling the dispersion law breaks propagation but not the closed
    forms, so exactly the two checks that compare the two must fail and
    everything else must keep passing.
    """
    omega, group_velocity = DispersionLaw.omega, DispersionLaw.group_velocity
    monkeypatch.setattr(DispersionLaw, "omega", lambda law, k: 2.0 * omega(law, k))
    monkeypatch.setattr(DispersionLaw, "group_velocity", lambda law, k: 2.0 * group_velocity(law, k))
    law = DispersionLaw()
    assert law.omega(3.0) == 9.0 and law.group_velocity(3.0) == 6.0
    # the closed form reads hbar and mass directly, so it stays put
    assert closed_form_density(GaussianPacket(b=1.0, k0=0.0), np.array([0.0]), 1.0)[0] == 2.0**-0.5
    failed = {r.name for r in run_checks() if not r.passed}
    assert failed == {"gaussian_spreading", "packet_norm_transport"}
