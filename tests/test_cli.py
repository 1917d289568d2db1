"""Scenario runner: exit codes, table formats and determinism."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qensemble import cli
from qensemble.cli import (
    RUNNERS,
    SCENARIO_PARAMS,
    ScenarioResult,
    _CliError,
    _dump_json,
    _render_table,
    _write_table,
    main,
)
from qensemble.optics import formalism_agreement, visibility
from qensemble.squarewell import pair_member

CHEAP_ARGS = {
    "ensemble": ["--set", "n_r=41", "--set", "r_max=4.0"],
    "spread": [],
    "collapse": [],
    "well": [],
    "eraser": [],
    "bomb": [],
}


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidationPaths:
    def test_no_command(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1
        assert "a command is required" in err
        assert "usage:" in err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["warp"])
        assert excinfo.value.code == 1

    def test_unknown_parameter(self, capsys, tmp_path):
        code, _, err = run(
            ["well", "--set", "depth=3", "--out", str(tmp_path / "t.csv")], capsys
        )
        assert code == 1
        assert "unknown parameter 'depth'" in err

    def test_bad_parameter_value(self, capsys, tmp_path):
        code, _, err = run(
            ["well", "--set", "v0=abc", "--out", str(tmp_path / "t.csv")], capsys
        )
        assert code == 1
        assert "rejects value" in err

    def test_malformed_override(self, capsys, tmp_path):
        code, _, err = run(["well", "--set", "v0", "--out", str(tmp_path / "t.csv")], capsys)
        assert code == 1
        assert "--set expects key=value" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(
            ["well", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "t.csv")],
            capsys,
        )
        assert code == 1
        assert "cannot read config file" in err

    def test_invalid_geometry(self, capsys, tmp_path):
        code, _, err = run(
            ["ensemble", "--set", "n_r=1", "--out", str(tmp_path / "t.csv")], capsys
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "args,message",
        [
            (["spread", "--set", "n_k=1"], "needs at least 2 nodes"),
            (["well", "--set", "n_k=1"], "needs at least 2 nodes"),
            (["well", "--set", "resonance_tol=2"], "excludes every interior member"),
            (["spread", "--set", "times=0,nan"], "parameter 'times' rejects value '0,nan'"),
            (["spread", "--set", "k0=1e10"], "lower k0 or times"),
            (["well", "--set", "v0=1e308"], "well depth v0 = 1e+308 is too deep"),
            (["eraser", "--set", "e_amp=nan"], "e_amp must be finite"),
            (["eraser", "--set", "c=inf"], "c must be finite"),
            (["eraser", "--set", "e_amp=1e200", "--format", "json"], "overflow for e_amp = 1e+200"),
            (["spread", "--set", "k0=1e308"], "for k0 = 1e+308, b = 1"),
            (["spread", "--set", "packet=single_mode", "--set", "k0=1e160"], "overflows for k0 = 1e+160"),
            (["spread", "--set", "packet=single_mode", "--set", "b=nan"], "parameter 'b' rejects value 'nan'"),
            (["spread", "--set", "n_k=-1"], "parameter 'n_k' must be 0 (automatic)"),
            (["ensemble", "--set", "potentials=0,-inf"], "parameter 'potentials' rejects value '0,-inf'"),
        ],
    )
    def test_degenerate_inputs_exit_one_without_output(self, args, message, capsys, tmp_path):
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, err = run([*args, "--out", str(out)], capsys)
        assert code == 1
        assert message in err
        assert "Traceback" not in err
        assert stdout == ""
        assert not out.exists()


class TestScenarioRuns:
    @pytest.mark.parametrize("scenario", sorted(CHEAP_ARGS))
    def test_csv_run_passes_oracles(self, scenario, capsys, tmp_path):
        out = tmp_path / f"{scenario}.csv"
        code, stdout, _ = run(
            [scenario, *CHEAP_ARGS[scenario], "--out", str(out)], capsys
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["schema_version"] == 1
        assert report["scenario"] == scenario
        for name, delta in report["oracle_deltas"].items():
            assert delta["within"], f"{name} breached: {delta}"
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1
        for header in rows[0]:
            assert header.endswith(")") and " (" in header
        assert all(len(r) == len(rows[0]) for r in rows)

    @pytest.mark.parametrize("b", ["2", "0.5"])
    def test_gaussian_oracle_carries_width_scale(self, b, capsys, tmp_path):
        code, stdout, _ = run(
            ["spread", "--set", "packet=gaussian", "--set", f"b={b}", "--out", str(tmp_path / "s.csv")],
            capsys,
        )
        assert code == 0
        delta = json.loads(stdout)["oracle_deltas"]["gaussian_vs_closed_form"]
        assert delta["value"] <= 1e-4

    def test_json_table_structure(self, capsys, tmp_path):
        out = tmp_path / "well.json"
        code, stdout, _ = run(["well", "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        with open(out) as fh:
            table = json.load(fh)
        assert table["schema_version"] == 1
        assert table["scenario"] == "well"
        names = [col["name"] for col in table["columns"]]
        assert names == ["x", "rho"]
        assert all("unit" in col for col in table["columns"])
        assert len(table["rows"]) == table["params"]["n_x"]
        assert all(len(row) == len(names) for row in table["rows"])

    def test_default_output_lands_in_cwd(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(["eraser"], capsys)
        assert code == 0
        assert (tmp_path / "eraser.csv").exists()


class TestDeterminism:
    def test_bomb_csv_is_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run(["bomb", "--out", str(path)], capsys)[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_well_json_is_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert run(["well", "--format", "json", "--out", str(path)], capsys)[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_single_mode_rows_are_literal_ones(self, capsys, tmp_path):
        out = tmp_path / "spread.csv"
        code, _, _ = run(
            ["spread", "--set", "packet=single_mode", "--out", str(out)], capsys
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == 5  # x plus one column per default time
        for row in rows[1:]:
            assert row[1:] == ["1", "1", "1", "1"]


def _cell_reference(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return value


def _csv_reference(result):
    """The table written one cell at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"{name} ({unit})" for name, unit, _ in result.columns])
    for r in range(len(result.columns[0][2])):
        writer.writerow([_cell_reference(values[r]) for _, _, values in result.columns])
    return buf.getvalue()


def _json_reference(result, scenario, params):
    """The whole payload through the generic encoder."""
    rows = [[values[r] for _, _, values in result.columns] for r in range(len(result.columns[0][2]))]
    return _dump_json(
        {
            "schema_version": 1,
            "scenario": scenario,
            "params": params,
            "columns": [{"name": name, "unit": unit} for name, unit, _ in result.columns],
            "rows": rows,
        }
    )


def _edge_result():
    result = ScenarioResult(geometry="none")
    result.columns += [
        ("value", "length", np.array([-0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.1])),
        ("count", "count", np.array([0, -3, 2**62, 7, 1])),
        ("tally", "count", [4, 0, 1, 2, 3]),
        ("label", "label", ["plain", "with,comma", 'say "hi"', "tab\there", "\u00e9t\u00e9"]),
    ]
    return result


class TestTableWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("scenario", [*sorted(RUNNERS), "edge"])
    def test_matches_per_cell_reference(self, scenario, fmt, tmp_path):
        if scenario == "edge":
            params = {"size": 5, "scale": [-0.0, 2.5]}
            result = _edge_result()
        else:
            params = {key: spec.default for key, spec in SCENARIO_PARAMS[scenario].items()}
            if scenario == "ensemble":
                params.update(n_r=41, r_max=4.0)
            result = RUNNERS[scenario](params, 12345)
        out = tmp_path / f"table.{fmt}"
        _write_table(str(out), fmt, result, scenario, params)
        with open(out, encoding="utf-8", newline="") as fh:
            text = fh.read()
        if fmt == "csv":
            assert text == _csv_reference(result)
        else:
            assert text == _json_reference(result, scenario, params)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cell_leaves_no_file(self, fmt, tmp_path):
        result = ScenarioResult(geometry="none")
        result.columns += [("x", "length", np.array([0.0, 1.0])), ("y", "length", np.array([1.0, np.nan]))]
        out = tmp_path / f"t.{fmt}"
        with pytest.raises(_CliError, match="non-finite value nan in column 'y'"):
            _write_table(str(out), fmt, result, "t", {})
        assert not out.exists()

    def test_one_row_table(self, tmp_path):
        result = ScenarioResult(geometry="none", columns=[("x", "length", np.array([1.5]))])
        out = tmp_path / "t.json"
        _write_table(str(out), "json", result, "one", {})
        assert out.read_text() == _json_reference(result, "one", {})


# finite doubles from any bit pattern, subnormals from the low 52 bits of either sign
_DOUBLES = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**52 - 1), st.integers(2**63, 2**63 + 2**52 - 1))
    .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(np.isfinite),
)
_LABELS = st.text(
    st.one_of(
        st.sampled_from([",", '"', "\r", "\n", "\t", " ", "\x00", "\u00e9", "\u20ac", "\U0001d11e"]),
        st.characters(),
    ),
    max_size=6,
)
_CELLS = {
    "float": (_DOUBLES, lambda xs: np.array(xs, dtype=np.float64)),
    "int": (st.integers(-(2**62), 2**62), lambda ns: np.array(ns, dtype=np.int64)),
    "label": (_LABELS, list),
}


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(1, 6))
    result = ScenarioResult(geometry="none")
    for kind in draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4)):
        cell, column = _CELLS[kind]
        cells = column(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
        result.columns.append((draw(_LABELS), draw(_LABELS), cells))
    return result


class TestRendererProperty:
    def test_render_matches_per_cell_reference(self):
        lone_empty = ScenarioResult(geometry="none", columns=[("label", "label", [""])])

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(result=_tables(), fmt=st.sampled_from(["csv", "json"]))
        @example(result=lone_empty, fmt="csv")
        @example(result=lone_empty, fmt="json")
        def check(result, fmt):
            text = _render_table(fmt, result, "t", {"scale": [-0.0, 2.5]})
            if fmt == "csv":
                assert text == _csv_reference(result)
            else:
                assert text == _json_reference(result, "t", {"scale": [-0.0, 2.5]})

        check()


class TestConfigHandling:
    def test_config_applies_and_overrides_win(self, capsys, tmp_path):
        cfg = tmp_path / "well.cfg"
        cfg.write_text("# well geometry\nv0 = 6.0\nx0 = 1.5\n\n")
        out = tmp_path / "well.json"
        code, stdout, _ = run(
            [
                "well",
                "--config",
                str(cfg),
                "--set",
                "v0=5.0",
                "--format",
                "json",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        with open(out) as fh:
            table = json.load(fh)
        assert table["params"]["v0"] == 5.0
        assert table["params"]["x0"] == 1.5
        report = json.loads(stdout)
        assert report["inputs"]["params"]["v0"]["value"] == 5.0

    def test_config_rejects_garbage_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        code, _, err = run(
            ["well", "--config", str(cfg), "--out", str(tmp_path / "t.csv")], capsys
        )
        assert code == 1
        assert "expected key=value" in err


class TestOracleBreach:
    def test_coarse_quadrature_exits_two(self, capsys, tmp_path):
        out = tmp_path / "spread.csv"
        code, stdout, err = run(
            [
                "spread",
                "--set",
                "n_k=51",
                "--set",
                "packet=gaussian",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 2
        assert "oracle comparison failed" in err
        report = json.loads(stdout)
        assert not report["oracle_deltas"]["gaussian_vs_closed_form"]["within"]
        # the table is still written for inspection
        assert out.exists()


class TestScaledOracles:
    @pytest.mark.parametrize(
        "overrides",
        [["n_phases=63"], ["n_phases=315"], ["e_amp=1e8", "b_amp=1e8"]],
    )
    def test_eraser_correct_curves_pass(self, overrides, capsys, tmp_path):
        argv = ["eraser", "--out", str(tmp_path / "e.csv")]
        for item in overrides:
            argv += ["--set", item]
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        deltas = json.loads(stdout)["oracle_deltas"]
        assert deltas["visibility_targets"]["within"] and deltas["route_proportionality"]["within"]

    @pytest.mark.parametrize("n_phases", ["63", "64"])
    def test_eraser_perturbed_curve_exits_two(self, n_phases, capsys, tmp_path, monkeypatch):
        def perturbed(**kwargs):
            report = formalism_agreement(**kwargs)
            curve = report.field_curves["baseline"] + 1e-9
            return dataclasses.replace(
                report,
                field_curves={**report.field_curves, "baseline": curve},
                field_visibility={**report.field_visibility, "baseline": visibility(curve)},
            )

        monkeypatch.setattr(cli, "formalism_agreement", perturbed)
        code, stdout, _ = run(["eraser", "--set", f"n_phases={n_phases}", "--out", str(tmp_path / "e.csv")], capsys)
        assert code == 2
        assert not json.loads(stdout)["oracle_deltas"]["visibility_targets"]["within"]

    @pytest.mark.parametrize("v0", ["4", "1e4", "4e5"])
    def test_well_pairing_scales_with_depth(self, v0, capsys, tmp_path):
        code, stdout, _ = run(["well", "--set", f"v0={v0}", "--out", str(tmp_path / "w.csv")], capsys)
        assert code == 0
        pairing = json.loads(stdout)["oracle_deltas"]["member_pairing"]
        assert pairing["within"]
        assert pairing["tolerance"] == max(1e-12, 3.0 * np.finfo(float).eps * float(v0))

    @pytest.mark.parametrize("v0", ["4", "1e4"])
    def test_well_perturbed_k2_exits_two(self, v0, capsys, tmp_path, monkeypatch):
        def perturbed(*args, **kwargs):
            member = pair_member(*args, **kwargs)
            return dataclasses.replace(member, k2=member.k2 * (1.0 + 1e-9))

        monkeypatch.setattr(cli, "pair_member", perturbed)
        code, stdout, _ = run(["well", "--set", f"v0={v0}", "--out", str(tmp_path / "w.csv")], capsys)
        assert code == 2
        assert not json.loads(stdout)["oracle_deltas"]["member_pairing"]["within"]


class TestSelftest:
    def test_selftest_is_green_and_deterministic(self, capsys):
        code1, out1, _ = run(["selftest"], capsys)
        code2, out2, _ = run(["selftest"], capsys)
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[-1] == "selftest: 20 checks, 20 passed, 0 failed"
        assert all(line.startswith("PASS ") for line in lines[:-1])


def _param_values(scenario, fixed):
    """Strategy for `--set` overrides of one scenario: in-range draws and any double."""

    def floats():
        return st.one_of(st.floats(-10.0, 10.0), st.floats())

    kinds = {
        "float": floats(),
        "int": st.integers(-2, 2000),
        "floats": st.lists(floats(), max_size=4),
        "bool": st.booleans(),
    }
    optional = {key: kinds[spec.kind] for key, spec in SCENARIO_PARAMS[scenario].items() if key not in fixed}
    return st.fixed_dictionaries({}, optional=optional)


def _text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


class TestExitContract:
    """Any parameter set ends in exit 0, 1 or 2, and exit 1 writes nothing."""

    @pytest.mark.parametrize(
        "scenario,fixed",
        [("eraser", {}), ("bomb", {}), ("spread", {"packet": "single_mode"})],
    )
    def test_any_parameters_keep_the_exit_contract(self, scenario, fixed):
        @settings(max_examples=50, deadline=None, derandomize=True, database=None)
        @given(params=_param_values(scenario, fixed), fmt=st.sampled_from(["csv", "json"]))
        def check(params, fmt):
            argv = [scenario, "--format", fmt]
            for key, value in {**fixed, **params}.items():
                argv += ["--set", f"{key}={_text(value)}"]
            with tempfile.TemporaryDirectory() as tmp:
                out = os.path.join(tmp, f"table.{fmt}")
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                        warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = main([*argv, "--out", out])
                assert code in (0, 1, 2), argv
                assert os.path.exists(out) == (code != 1), (argv, stderr.getvalue())
                if code == 1:
                    assert stdout.getvalue() == ""

        check()
