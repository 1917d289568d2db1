"""Each output check passes real output and fails a deliberately perturbed copy.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from qensemble import cli  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(params, table, report) of each scenario call of one operation per workload."""
    tmp = tmp_path_factory.mktemp("tables")
    found = {}
    for workload in ("dense-figures", "light-tables"):
        for call in next(workloads.operations(workload, 3)):
            kind = call.scenario if call.scenario != "spread" else f"spread-{call.params['packet']}"
            path = str(tmp / f"{kind}.{call.fmt}")
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = cli.main(call.argv(path))
            assert checks.check_call(call, code, captured.getvalue(), path) == []
            found[kind] = (call.params, checks.read_table(path, call.fmt), json.loads(captured.getvalue()))
    return found


def _problems(outputs, kind, edit):
    params, table, report = copy.deepcopy(outputs[kind])
    edit(params, table, report)
    return checks.SCENARIO_CHECKS[kind.split("-")[0]](params, table, report)


def _scale(table, column, index, factor):
    table[column][index] = float(table[column][index]) * factor


def test_grid_column_must_round_trip(outputs):
    def nudge(params, table, report):
        table["x"][7] = math.nextafter(float(table["x"][7]), math.inf)

    assert _problems(outputs, "spread-gaussian", nudge)


@pytest.mark.parametrize(
    "kind, column, factor",
    [
        ("spread-gaussian", "density_gaussian[t=1.5]", 1.0 + 1e-8),
        ("ensemble", "rho[v=2.5]", 1.0 + 1e-6),
        ("collapse", "rho_before", 1.0 + 1e-6),
        ("collapse", "rho_after", 1.0 - 1e-6),
        ("eraser", "intensity_fields[baseline]", 1.0 + 1e-9),
        ("eraser", "intensity_state[rotator_in_path1]", 1.0 - 1e-9),
    ],
)
def test_profile_checks_catch_one_bad_node(outputs, kind, column, factor):
    def nudge(params, table, report):
        peak = max(range(len(table[column])), key=lambda i: float(table[column][i]))
        _scale(table, column, peak, factor)

    assert _problems(outputs, kind, nudge)


def test_single_mode_density_must_be_exactly_one(outputs):
    def nudge(params, table, report):
        table["density_single_mode[t=4]"][100] = math.nextafter(1.0, 0.0)

    assert _problems(outputs, "spread-single_mode", nudge)


def test_collapse_fraction_must_match_shell_ratio(outputs):
    def nudge(params, table, report):
        report["outputs"]["surviving_fraction"]["value"] *= 1.0 + 1e-9

    assert _problems(outputs, "collapse", nudge)


def test_well_shape_must_match_quadrature(outputs):
    # an even change that keeps parity; it moves the norm too, so look for
    # the quadrature message itself
    def nudge(params, table, report):
        x = [float(v) for v in table["x"]]
        for target in (-2.5, 2.5):
            i = min(range(len(x)), key=lambda j: abs(x[j] - target))
            _scale(table, "rho", i, 1.0 + 1e-6)

    assert any("quadrature" in p for p in _problems(outputs, "well", nudge))


def test_well_must_be_even(outputs):
    assert any("even" in p for p in _problems(outputs, "well", lambda p, t, r: _scale(t, "rho", 10, 1.0 + 1e-6)))


def test_eraser_visibility_targets(outputs):
    def nudge(params, table, report):
        report["outputs"]["visibility_state[rotator_in_path1]"]["value"] = 1e-9

    assert _problems(outputs, "eraser", nudge)


def test_bomb_counts_within_four_sigma(outputs):
    def nudge(params, table, report):
        counts = [float(v) for v in table["observed_count"]]
        n, p = params["n_trials"], params["reflectivity"]
        shift = round(8.0 * math.sqrt(n * p * (1.0 - p)))
        counts[0] += shift  # absorbed gains what undetected loses: the sum stays n
        counts[3] -= shift
        table["observed_count"] = [str(int(c)) for c in counts]

    assert any("sigma" in p for p in _problems(outputs, "bomb", nudge))


def test_selftest_needs_every_pass_line():
    lines = [f"PASS check_{i}: ok" for i in range(checks.SELFTEST_CHECKS)]
    summary = f"selftest: {checks.SELFTEST_CHECKS} checks, {checks.SELFTEST_CHECKS} passed, 0 failed"
    assert checks.check_selftest("\n".join(lines + [summary]) + "\n") == []
    lines[4] = "FAIL check_4: broken"
    assert checks.check_selftest("\n".join(lines + [summary]) + "\n")


def test_exit_code_fails_the_call():
    call = workloads.Call("well", {})
    assert checks.check_call(call, 2, "", "missing.csv") == ["well: exit code 2"]
