"""Scenario runner: exit codes, table formats and determinism."""

import contextlib
import csv
import dataclasses
import importlib
import io
import json
import os
import pkgutil
import runpy
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qensemble
from qensemble import cli, ensemble, optics, squarewell, wavepacket
from qensemble.cli import (
    RUNNERS,
    SCENARIO_PARAMS,
    ScenarioResult,
    _CliError,
    _dump_json,
    _write_table,
    main,
)
from qensemble.optics import formalism_agreement, visibility
from qensemble.text import _CHUNK_CELLS
from qensemble.acceptance import run_checks
from qensemble.squarewell import pair_member, well_ensemble_density

import make_identity_manifest as identity

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

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exits_one_without_traceback(self, where, capsys, tmp_path):
        out = tmp_path / "absent" / "x.csv" if where == "missing_dir" else tmp_path
        before = sorted(tmp_path.rglob("*"))
        code, stdout, err = run(["eraser", "--out", str(out)], capsys)
        assert code == 1
        assert f"cannot write table {out}" in err
        assert "Traceback" not in err
        assert stdout == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_overflowing_well_is_refused_in_one_line_without_warnings(self, capsys, tmp_path):
        # k0' x0 = 1.7e308 is finite, but exp of it is not: refused before any quadrature
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(["well", "--set", "x0=1e308", "--out", str(tmp_path / "t.csv")], capsys)
        assert (code, stdout, caught) == (1, "", [])
        assert err == (
            "qensemble well: error: member amplitude overflows at k2 x0 = 1.73205e+308: "
            "well depth v0 = 4 is too deep for half width x0 = 1e+308\n"
        )
        assert not (tmp_path / "t.csv").exists()

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
            (
                ["spread", "--set", "packet=gaussian", "--set", "x_min=2.00001", "--set", "b=0.003549626833218614",
                 "--set", "n_k=2001"],
                "b = 0.00354963 leaves no density on x_min = 2.00001 .. x_max = 25",
            ),
            (
                ["spread", "--set", "packet=gaussian", "--set", "b=5.8e-187", "--set", "k0=1.4e-159", "--set", "n_k=163"],
                "the gaussian spectrum overflows for b = 5.8e-187",
            ),
            (
                ["spread", "--set", "packet=gaussian", "--set", "b=1.7834593172503262e+174", "--set", "n_k=470"],
                "the gaussian spectrum overflows for b = 1.78346e+174",
            ),
            (
                ["spread", "--set", "packet=gaussian", "--set", "x_min=3.1107461721572103e-111",
                 "--set", "x_max=1.7976931348623157e+308", "--set", "n_x=213"],
                "grid x_min = 3.11075e-111 .. x_max = 1.79769e+308 is wider than half the largest double",
            ),
            (
                ["spread", "--set", "packet=gaussian", "--set", "b=10", "--set", "n_k=113",
                 "--set", "times=0,-8.774239584959601e+272"],
                "broadening factor 1 + (hbar t / m b^2)^2 overflows for t = -8.77424e+272, b = 10",
            ),
            (
                ["spread", "--set", "packet=gaussian", "--set", "b=1.5636165044757184e-150",
                 "--set", "k0=2.0445899274311264e+16", "--set", "n_k=235", "--set", "times=-1.7261142292378744e+16"],
                "phase omega(k) t overflows for k0 = 2.04459e+16, b = 1.56362e-150, t = -1.72611e+16",
            ),
            (["ensemble", "--set", "e_total=1e-300"], "e_total = 1e-300 at potential 0 leaves a band up to"),
            (["ensemble", "--set", "e_total=2.9e-213", "--set", "r_min=2.9e-213"], "closed-form k^3 underflows"),
            (["ensemble", "--set", "e_total=1e-210"], "e_total = 1e-210 at potential 0 leaves a band"),
            (["ensemble", "--set", "e_total=1e-300", "--set", "potentials=-3"], "e_total = 1e-300 leaves a band"),
            (
                ["ensemble", "--set", "potentials=1.6e215,1.1e-216", "--set", "n_k=195"],
                "the density at potential 1.6e+215 overflows",
            ),
            (["ensemble", "--set", "potentials=-5e158", "--set", "r_min=1"], "the density at potential -5e+158 overflows"),
            (["collapse", "--set", "e_rfa=0.9999999999999999"], "e_rfa = 0.9999999999999999 leaves a surviving band"),
            (["collapse", "--set", "e_total=1e-300"], "e_total = 1e-300 leaves a band up to"),
            (["collapse", "--set", "e_total=6.823323883333878e+102"], "whose origin density overflows a double"),
            (
                ["collapse", "--set", "convention=double", "--set", "n_k=1059", "--set", "e_total=1.943837135220142e+222"],
                "e_total = 1.94384e+222 leaves a band up to k_hi = 1.97172e+111, whose origin density overflows",
            ),
            (["ensemble", "--set", "potentials="], "potentials needs at least one value"),
            (["spread", "--set", "times="], "times needs at least one value"),
            (["spread", "--set", "times=,"], "times needs at least one value"),
            (["eraser", "--set", "n_phases=1"], "n_phases must be at least 2"),
            (["bomb", "--set", f"n_trials={2**63}"], "n_trials must be at most 2**63 - 1"),
            (["bomb", "--set", f"n_trials={10**30}"], "n_trials must be at most 2**63 - 1"),
            (["bomb", "--seed", "-1"], "--seed must be at least 0, got -1"),
            (["well", "--set", "resonance_tol=-1"], "resonance_tol must be nonnegative, got -1"),
            (
                ["eraser", "--set", "e_amp=0", "--set", "b_amp=0"],
                "field-route intensities vanish identically for e_amp = 0, b_amp = 0, c = 1",
            ),
            (
                ["eraser", "--set", "e_amp=1e-162", "--set", "b_amp=1e-162"],
                "field-route intensities vanish identically for e_amp = 1e-162, b_amp = 1e-162, c = 1",
            ),
            (["well", "--set", "resonance_tol=1"], "resonance_tol = 1 skips every one of the 100 member-pairing"),
            (
                ["spread", "--set", "packet=gaussian", "--set", "x_min=-2e307", "--set", "x_max=-1e307",
                 "--set", "n_k=4001", "--set", "times=0"],
                "the chirp-z phases overflow on the grid -2e+307 .. -1e+307 at dk = 0.004",
            ),
            (["ensemble", "--set", "r_max=8e307"], "the chirp-z phases overflow on the grid 0 .. 8e+307 at dk = 0.0025"),
            (["collapse", "--set", "r_max=8e307"], "the chirp-z phases overflow on the grid 0 .. 8e+307 at dk"),
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

    def test_subnormal_field_intensities_still_pass(self, capsys, tmp_path):
        # 1e-160 squares to a subnormal, not to 0, so the eraser's fringes survive
        out = tmp_path / "t.csv"
        code, _, err = run(["eraser", "--set", "e_amp=1e-160", "--set", "b_amp=1e-160", "--out", str(out)], capsys)
        assert code == 0, err
        assert out.exists()


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

    def test_gaussian_far_tail_grid_passes_with_notes(self, capsys, tmp_path):
        # every node sits below 1e-14 of the packet's peak once t >= 0.5
        argv = ["spread", "--set", "packet=gaussian", "--set", "x_max=-2.7", "--set", "n_x=1912"]
        code, stdout, _ = run([*argv, "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert report["oracle_deltas"]["gaussian_vs_closed_form"]["within"]
        faint = "no node at t = {} reaches 1e-8 of the gaussian peak; only the absolute bound applies"
        assert report["notes"][1:] == [faint.format(t) for t in ("0.5", "1", "2")]

    @pytest.mark.parametrize("x_max", ["25", "-2.7"])
    def test_gaussian_offset_density_exits_two(self, x_max, capsys, tmp_path, monkeypatch):
        propagate = wavepacket.propagate

        def perturbed(*args, **kwargs):
            return propagate(*args, **kwargs) * np.sqrt(1.0 + 2e-4)

        monkeypatch.setattr(wavepacket, "propagate", perturbed)
        argv = ["spread", "--set", "packet=gaussian", "--set", f"x_max={x_max}", "--set", "n_x=1912"]
        code, stdout, _ = run([*argv, "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        delta = json.loads(stdout)["oracle_deltas"]["gaussian_vs_closed_form"]
        assert not delta["within"] and delta["unit"] == "relative to peak"

    def test_smallest_normal_band_stays_within_tolerance(self, capsys, tmp_path):
        # k^3 = 3.2e-308 is just above the smallest normal double
        code, stdout, _ = run(["ensemble", "--set", "e_total=1e-205", "--out", str(tmp_path / "e.csv")], capsys)
        assert code == 0
        assert all(delta["within"] for delta in json.loads(stdout)["oracle_deltas"].values())

    def test_bomb_draws_a_trillion_trials_at_once(self, capsys, tmp_path):
        out = tmp_path / "bomb.csv"
        code, _, _ = run(["bomb", "--set", f"n_trials={10**12}", "--out", str(out)], capsys)
        assert code == 0
        with out.open() as f:
            assert sum(int(row["observed_count (count)"]) for row in csv.DictReader(f)) == 10**12

    def test_help_lists_each_parameter_with_its_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["well", "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "v0 [energy] = 4.0: well depth" in out
        assert all(f"{key} [{spec.unit}]" in out for key, spec in SCENARIO_PARAMS["well"].items())

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


class TestBenchmarkSeed:
    def test_every_light_tables_bomb_call_passes_its_guard(self, capsys, tmp_path):
        """The benchmark runs `bomb` at one fixed seed on a grid of (r, eta); every point stays inside 4 sigma."""
        bench = runpy.run_path(
            os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")
        )
        grid = [(r, eta) for r in bench["BOMB_REFLECTIVITY"] for eta in bench["BOMB_EFFICIENCY"]]
        assert grid
        worst = 0.0
        for r, eta in grid:
            argv = [
                "bomb", "--seed", str(bench["BOMB_SEED"]), "--set", f"reflectivity={r!r}",
                "--set", f"efficiency={eta!r}", "--set", f"n_trials={bench['BOMB_TRIALS']}",
                "--out", str(tmp_path / "bomb.csv"),
            ]
            code, stdout, _ = run(argv, capsys)
            assert code == 0, argv
            worst = max(worst, json.loads(stdout)["oracle_deltas"]["count_deviation_sigma"]["value"])
        assert worst < 4.0


class TestProcessReuse:
    """One process runs many calls on one parser and renders each report once."""

    def test_overrides_do_not_leak_into_the_next_call(self, capsys, tmp_path):
        out = str(tmp_path / "s.csv")
        code, stdout, _ = run(["spread", "--set", "n_x=101", "--out", out], capsys)
        assert code == 0 and json.loads(stdout)["inputs"]["params"]["n_x"]["value"] == 101
        code, stdout, _ = run(["spread", "--out", out], capsys)
        assert code == 0 and json.loads(stdout)["inputs"]["params"]["n_x"]["value"] == 1201

    def test_help_after_a_run_lists_every_parameter(self, capsys, tmp_path):
        assert run(["well", "--out", str(tmp_path / "w.csv")], capsys)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["well", "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(f"{key} [{spec.unit}]" in out for key, spec in SCENARIO_PARAMS["well"].items())

    def test_bad_flag_after_a_run_exits_one_with_usage(self, capsys, tmp_path):
        assert run(["eraser", "--out", str(tmp_path / "e.csv")], capsys)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["eraser", "--bogus"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: --bogus" in err

    @pytest.mark.parametrize("argv", [["eraser"], ["well", "--format", "json"], ["bomb", "--set", "n_trials=1000"]])
    def test_printed_report_is_the_full_report_dumped(self, argv, capsys, tmp_path, monkeypatch):
        reports = []

        def recording(obj):
            if isinstance(obj, dict) and "oracle_deltas" in obj:
                reports.append(obj)
            return _dump_json(obj)

        monkeypatch.setattr(cli, "_dump_json", recording)
        code, stdout, _ = run([*argv, "--out", str(tmp_path / "t.out")], capsys)
        assert code == 0 and len(reports) == 1
        report = reports[0]
        assert list(report)[-1] == "wall_time_s"
        assert report["wall_time_s"] == {"value": json.loads(stdout)["wall_time_s"]["value"], "unit": "second"}
        assert _dump_json(report) == stdout

    def test_unserializable_report_exits_one_without_output(self, capsys, tmp_path, monkeypatch):
        def infinite(params, seed):
            result = cli._run_eraser(params, seed)
            result.outputs["route_constant"] = cli._q(float("inf"), "dimensionless")
            return result

        monkeypatch.setitem(cli.RUNNERS, "eraser", infinite)
        out = tmp_path / "e.csv"
        code, stdout, err = run(["eraser", "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert "refusing to serialize non-finite value inf" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "message,shown",
        [
            ("Unable to allocate 7.28 TiB for an array with shape (1000000000001,) and data type float64", None),
            ("", "out of memory"),
        ],
        ids=["numpy-message", "no-message"],
    )
    def test_unallocatable_node_count_exits_one_without_output(self, message, shown, capsys, tmp_path, monkeypatch):
        def exhausted(params, seed):
            raise MemoryError(message)

        monkeypatch.setitem(cli.RUNNERS, "ensemble", exhausted)
        out = tmp_path / "e.csv"
        code, stdout, err = run(["ensemble", "--set", "n_k=1000000000000", "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"qensemble ensemble: error: {shown or message}; lower the node counts\n"
        assert not out.exists()


class TestDeterminism:
    def test_outputs_match_the_identity_manifest(self):
        manifest = json.loads(Path(__file__).with_name("identity_manifest.json").read_text(encoding="utf-8"))
        here = identity.environment()
        recorded = {key: manifest[key] for key in here}
        if here != recorded:
            pytest.skip(
                f"identity manifest recorded with numpy {recorded['numpy']} on {recorded['machine']}, "
                f"this run has numpy {here['numpy']} on {here['machine']}"
            )
        entries = manifest["entries"]
        assert [" ".join(argv) for argv in identity.CASES] == list(entries)
        moved = {key: entry for key, entry in identity.sweep().items() if entry != entries[key]}
        assert not moved, f"outputs moved from the recorded digests: {sorted(moved)}"

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


def _written(fmt, result, scenario, params, path):
    """The text _write_table writes to `path`."""
    _write_table(str(path), fmt, result, scenario, params)
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _edge_result():
    columns = [
        ("value", "length", np.array([-0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.1])),
        ("count", "count", np.array([0, -3, 2**62, 7, 1])),
        ("tally", "count", [4, 0, 1, 2, 3]),
        ("label", "label", ["plain", "with,comma", 'say "hi"', "tab\there", "\u00e9t\u00e9"]),
    ]
    return ScenarioResult("none", columns, {}, {}, [])


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
        columns = [("x", "length", np.array([0.0, 1.0])), ("y", "length", np.array([1.0, np.nan]))]
        result = ScenarioResult("none", columns, {}, {}, [])
        out = tmp_path / f"t.{fmt}"
        with pytest.raises(_CliError, match="non-finite value nan in column 'y'"):
            _write_table(str(out), fmt, result, "t", {})
        assert not out.exists()

    def test_one_row_table(self, tmp_path):
        result = ScenarioResult("none", [("x", "length", np.array([1.5]))], {}, {}, [])
        out = tmp_path / "t.json"
        _write_table(str(out), "json", result, "one", {})
        assert out.read_text() == _json_reference(result, "one", {})

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "column",
        [[1.0] * 4, [-0.0] * 4, [0.0, -0.0], [-0.0, 0.0], [0.1], [2.5, 2.5, 2.5000000000000004]],
    )
    def test_constant_columns_match_per_cell_reference(self, column, fmt, tmp_path):
        n = len(column)
        columns = [
            ("x", "length", np.linspace(0.0, 1.0, n)),
            ("rho", "1/length", np.array(column)),
            ("k", "count", np.full(n, 3)),
        ]
        result = ScenarioResult("none", columns, {}, {}, [])
        text = _written(fmt, result, "t", {}, tmp_path / "t")
        assert text == (_csv_reference(result) if fmt == "csv" else _json_reference(result, "t", {}))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "columns",
        [
            [("x", "length", np.linspace(0.0, 1.0, 3)), ("tag", "label", ["%, %% and %s"] * 3)],
            [("n", "count", np.arange(4)), ("k", "count", np.full(4, -7))],
            [("say", "label", ['"50%", then %s'] * 2), ("who", "label", ["a", "b,c"])],
            [("rho", "1/length", np.ones(3)), ("k", "count", np.full(3, 3)), ("tag", "label", ["%s%%"] * 3)],
            [("tag", "label", [""] * 3)],
        ],
        ids=["percent-label", "constant-int", "csv-quoted-label", "no-varying-column", "lone-empty-label"],
    )
    def test_constant_text_columns_match_per_cell_reference(self, columns, fmt, tmp_path):
        # a constant column is literal row text, so each % in it must reach the file as it is
        result = ScenarioResult("none", columns, {}, {}, [])
        text = _written(fmt, result, "t", {"note": "100%"}, tmp_path / "t")
        assert text == (_csv_reference(result) if fmt == "csv" else _json_reference(result, "t", {"note": "100%"}))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "chunks,extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)], ids=["0", "1", "C-1", "C", "C+1", "2C+1"]
    )
    def test_chunk_boundaries_match_per_cell_reference(self, chunks, extra, fmt, tmp_path):
        # C is the writer's own chunk length for one varying float column, so each table ends just
        # before, on or after a chunk's end
        n = chunks * _CHUNK_CELLS + extra
        columns = [
            ("x", "length", np.linspace(-1.0, 1.0, n)),
            ("rho", "1/length", np.full(n, 0.1)),
            ("k", "count", np.arange(n) - 3),
            ("say", "label", [f'"{i}", then {i % 7}' for i in range(n)]),
            ("tag", "label", ["100%, %s"] * n),
        ]
        result = ScenarioResult("none", columns, {}, {}, [])
        text = _written(fmt, result, "t", {"note": "%d%%"}, tmp_path / "t")
        assert text == (_csv_reference(result) if fmt == "csv" else _json_reference(result, "t", {"note": "%d%%"}))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_floats", [2, 5])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_float_columns_across_chunk_edges_match_per_cell_reference(self, extra, n_floats, fmt, tmp_path):
        # a chunk holds C = _CHUNK_CELLS float cells, so C // n_floats rows: one formatter call spans
        # every float column, cut at a chunk edge; float32 cells print as the doubles they convert to
        n = 2 * (_CHUNK_CELLS // n_floats) + extra
        x = np.linspace(-3.0, 3.0, n)
        columns = [("k", "count", np.arange(n) - 5), ("x", "length", x)]
        columns += [(f"f{j}", "1", np.exp(x * j) * (-1.0) ** j) for j in range(1, n_floats - 1)]
        columns += [("tag", "label", [f"t{i % 3}" for i in range(n)]), ("g", "1", (x * 1e-3).astype(np.float32))]
        result = ScenarioResult("none", columns, {}, {}, [])
        text = _written(fmt, result, "t", {}, tmp_path / "t")
        assert text == (_csv_reference(result) if fmt == "csv" else _json_reference(result, "t", {}))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cell_in_the_last_chunk_leaves_no_file(self, fmt, tmp_path):
        y = np.ones(2 * _CHUNK_CELLS + 1)
        y[-1] = np.inf
        result = ScenarioResult("none", [("x", "length", np.arange(y.size)), ("y", "length", y)], {}, {}, [])
        out = tmp_path / f"t.{fmt}"
        with pytest.raises(_CliError, match="non-finite value inf in column 'y'"):
            _write_table(str(out), fmt, result, "t", {})
        assert not out.exists()

    def test_working_set_does_not_grow_with_the_table(self, tmp_path):
        # each chunk's cells and text are freed before the next, so the peak stays near one chunk's;
        # a writer that renders the whole table first peaks near 26 MiB here
        x = np.linspace(0.0, 1.0, 200001)
        result = ScenarioResult("none", [("x", "length", x), ("y", "length", np.sin(x))], {}, {}, [])
        tracemalloc.start()
        try:
            _write_table(str(tmp_path / "t.csv"), "csv", result, "t", {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [["eraser", "--set", "n_phases=3"], ["spread", "--set", "packet=single_mode", "--set", "n_x=40001"]],
        ids=["fails-at-close", "fails-partway"],
    )
    def test_full_device_exits_1_without_traceback(self, argv):
        # a table smaller than the file buffer meets ENOSPC when it is closed, a larger one partway
        src = os.path.dirname(os.path.dirname(qensemble.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "qensemble", *argv, "--out", "/dev/full"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        message = f"qensemble {argv[0]}: error: cannot write table /dev/full: [Errno 28] No space left on device\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


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
    result = ScenarioResult("none", [], {}, {}, [])
    for kind in draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4)):
        cell, column = _CELLS[kind]
        cells = column(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
        result.columns.append((draw(_LABELS), draw(_LABELS), cells))
    return result


class TestRendererProperty:
    def test_render_matches_per_cell_reference(self, tmp_path):
        lone_empty = ScenarioResult("none", [("label", "label", [""])], {}, {}, [])

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(result=_tables(), fmt=st.sampled_from(["csv", "json"]))
        @example(result=lone_empty, fmt="csv")
        @example(result=lone_empty, fmt="json")
        def check(result, fmt):
            text = _written(fmt, result, "t", {"scale": [-0.0, 2.5]}, tmp_path / "t")
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
            return report._replace(
                field_curves={**report.field_curves, "baseline": curve},
                field_visibility={**report.field_visibility, "baseline": visibility(curve)},
            )

        monkeypatch.setattr(optics, "formalism_agreement", perturbed)
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
            return member._replace(k2=member.k2 * (1.0 + 1e-9))

        monkeypatch.setattr(squarewell, "pair_member", perturbed)
        code, stdout, _ = run(["well", "--set", f"v0={v0}", "--out", str(tmp_path / "w.csv")], capsys)
        assert code == 2
        assert not json.loads(stdout)["oracle_deltas"]["member_pairing"]["within"]


def _well_parity(overrides, capsys, tmp_path):
    """Exit code, density_parity delta and density peak of one well run."""
    out = tmp_path / "w.csv"
    argv = ["well", "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    code, stdout, _ = run(argv, capsys)
    peak = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1].max()
    return code, json.loads(stdout)["oracle_deltas"]["density_parity"], peak


class TestWellParity:
    @pytest.mark.parametrize("n_x", ["1601", "1600"])
    def test_asymmetric_grid_passes(self, n_x, capsys, tmp_path):
        code, parity, peak = _well_parity(["x_min=0", f"n_x={n_x}"], capsys, tmp_path)
        assert code == 0
        assert parity["within"] and parity["tolerance"] == 1e-10 * max(1.0, peak)

    def test_bound_is_1e_10_where_the_peak_is_below_one(self, capsys, tmp_path):
        code, parity, peak = _well_parity([], capsys, tmp_path)
        assert code == 0 and peak < 1.0 and parity["tolerance"] == 1e-10

    @pytest.mark.parametrize("half_width", ["1e-50", "1e-9"])
    def test_narrow_grid_passes(self, half_width, capsys, tmp_path):
        code, parity, peak = _well_parity([f"x_min=-{half_width}", f"x_max={half_width}"], capsys, tmp_path)
        assert code == 0
        assert peak > 1e8 and parity["tolerance"] == 1e-10 * peak and parity["within"]

    @pytest.mark.parametrize("half_width", ["1e-50", "1e-9"])
    def test_narrow_grid_odd_component_exits_two(self, half_width, capsys, tmp_path, monkeypatch):
        def perturbed(cfg, grid, **kwargs):
            profile = well_ensemble_density(cfg, grid, **kwargs)
            odd = 1e-8 * profile.values.max() * grid.points() / grid.x_max
            return profile._replace(values=profile.values + odd)

        monkeypatch.setattr(squarewell, "well_ensemble_density", perturbed)
        argv = ["well", "--set", f"x_min=-{half_width}", "--set", f"x_max={half_width}", "--out", str(tmp_path / "w.csv")]
        code, stdout, _ = run(argv, capsys)
        assert code == 2
        assert not json.loads(stdout)["oracle_deltas"]["density_parity"]["within"]

    @pytest.mark.parametrize("x_min", ["-8", "0"])
    def test_odd_component_exits_two(self, x_min, capsys, tmp_path, monkeypatch):
        def perturbed(cfg, grid, **kwargs):
            profile = well_ensemble_density(cfg, grid, **kwargs)
            x = grid.points()
            return profile._replace(values=profile.values + 1e-8 * x * np.exp(-x * x))

        monkeypatch.setattr(squarewell, "well_ensemble_density", perturbed)
        argv = ["well", "--set", f"x_min={x_min}", "--out", str(tmp_path / "w.csv")]
        code, stdout, _ = run(argv, capsys)
        assert code == 2
        assert not json.loads(stdout)["oracle_deltas"]["density_parity"]["within"]


def _breaching(oracle):
    """oracle with its value replaced by ten times its tolerance."""

    def patched(*args, **kwargs):
        _, tol, unit = oracle(*args, **kwargs)
        return 10.0 * tol, tol, unit

    return patched


class TestSharedOracles:
    """Each claim's oracle, patched in its home module, fails both its scenario and its selftest check."""

    @pytest.mark.parametrize(
        "module,oracle,argv,key,check",
        [
            (wavepacket, "spreading_deviation", ["spread", "--set", "packet=gaussian"], "gaussian_vs_closed_form",
             "gaussian_spreading"),
            (optics, "visibility_targets", ["eraser"], "visibility_targets", "eraser_visibilities"),
            (optics, "route_proportionality", ["eraser"], "route_proportionality", "eraser_visibilities"),
            (optics, "count_deviation", ["bomb"], "count_deviation_sigma", "interaction_free_statistics"),
            (ensemble, "flat_norm_deviation", ["ensemble", *CHEAP_ARGS["ensemble"]], "flat_spectral_norm",
             "parseval_identity"),
        ],
    )
    def test_patched_oracle_fails_both_callers(self, module, oracle, argv, key, check, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(module, oracle, _breaching(getattr(module, oracle)))
        code, stdout, _ = run([*argv, "--out", str(tmp_path / "t.csv")], capsys)
        assert code == 2
        deltas = json.loads(stdout)["oracle_deltas"]
        assert {name for name, delta in deltas.items() if not delta["within"]} == {key}
        (result,) = run_checks([check])
        assert not result.passed, result.line


def test_cli_import_leaves_out_logging():
    # concurrent.futures pulls in logging, several ms of every launch's setup
    src = os.path.dirname(os.path.dirname(qensemble.__file__))
    code = "import sys, qensemble.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


_PARSER_ONLY = {"qensemble", "qensemble.cli"}
_RADIAL = _PARSER_ONLY | {"qensemble.numerics", "qensemble.ensemble"}
_OPTICS = _PARSER_ONLY | {"qensemble.optics"}
_TEXT = {"qensemble.text"}


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (None, _PARSER_ONLY),
        (["--help"], _PARSER_ONLY),
        ([], _PARSER_ONLY),
        (["nosuch"], _PARSER_ONLY),
        (["ensemble", "--set", "nosuch=1"], _PARSER_ONLY),
        (["ensemble", *CHEAP_ARGS["ensemble"]], _RADIAL | _TEXT),
        (["collapse"], _RADIAL | _TEXT),
        (["spread"], _PARSER_ONLY | _TEXT | {"qensemble.numerics", "qensemble.wavepacket"}),
        (["well"], _RADIAL | _TEXT | {"qensemble.squarewell"}),
        (["eraser"], _OPTICS | _TEXT),
        (["bomb"], _OPTICS | _TEXT | {"numpy.random"}),
        (["selftest"], _RADIAL | {"qensemble.squarewell", "qensemble.wavepacket", "qensemble.optics",
                                  "qensemble.acceptance", "numpy.random"}),
    ],
)
def test_command_loads_only_its_own_modules(argv, loaded, tmp_path):
    # each runner imports what it calls when it runs; numpy.random is for the Monte Carlo draws alone
    src = os.path.dirname(os.path.dirname(qensemble.__file__))
    call = "" if argv is None else (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    cli.main(sys.argv[1:])\n"
    )
    code = (
        "import sys, qensemble.cli as cli\n" + call +
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'qensemble' or m == 'numpy.random'))"
    )
    out = ["--out", "t.csv"] if argv and argv[0] in RUNNERS else []
    proc = subprocess.run(
        [sys.executable, "-c", code, *(argv or []), *out], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, f"{sorted(loaded)}\n"), proc.stderr


def test_cli_import_builds_no_parser():
    # main builds the parser on its first call, so importing the module stays as cheap as before
    src = os.path.dirname(os.path.dirname(qensemble.__file__))
    code = "import qensemble.cli as cli; print(cli._build_parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_package_import_leaves_out_submodules():
    # the package re-exports nothing, so importing it loads neither the numerics nor numpy
    src = os.path.dirname(os.path.dirname(qensemble.__file__))
    code = "import sys, qensemble; print(sorted({'qensemble.numerics', 'numpy'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_every_dataclass_checks_its_fields():
    # a record that checks nothing is a NamedTuple, whose class costs no generated code at import
    checked, unchecked = [], []
    for info in pkgutil.iter_modules(qensemble.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"qensemble.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                (checked if "__post_init__" in vars(obj) else unchecked).append(f"{info.name}.{name}")
    assert checked and not unchecked, unchecked


class TestSelftest:
    def test_selftest_is_green_and_deterministic(self, capsys):
        code1, out1, _ = run(["selftest"], capsys)
        code2, out2, _ = run(["selftest"], capsys)
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[-1] == "selftest: 20 checks, 20 passed, 0 failed"
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_timings_add_one_duration_per_check(self, capsys):
        code, plain, _ = run(["selftest"], capsys)
        assert code == 0
        results = run_checks()
        assert plain == "".join(f"{r.line}\n" for r in results) + "selftest: 20 checks, 20 passed, 0 failed\n"
        code, timed, _ = run(["selftest", "--timings"], capsys)
        assert code == 0
        lines = timed.splitlines()
        assert lines[:21] == plain.splitlines()
        assert len(lines) == 42 and [line for line in lines if line.startswith("time ")] == lines[21:]
        for name, line in zip(["imports"] + [r.name for r in results], lines[21:]):
            prefix, seconds, unit = line.rsplit(" ", 2)
            assert prefix == f"time {name}:" and unit == "s" and float(seconds) >= 0.0

    def test_module_entry_point_matches_in_process_call(self, capsys):
        code, out, _ = run(["selftest"], capsys)
        src = os.path.dirname(os.path.dirname(qensemble.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "qensemble", "selftest"], capture_output=True, text=True, env=env, timeout=120
        )
        assert code == proc.returncode == 0
        assert proc.stdout == out


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
    optional = {
        key: st.sampled_from(spec.choices) if spec.kind == "choice" else kinds[spec.kind]
        for key, spec in SCENARIO_PARAMS[scenario].items()
        if key not in fixed
    }
    return st.fixed_dictionaries({}, optional=optional)


def _text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


# gaussian `spread` inputs at the edges of the doubles: a closed-form exponent past the largest double,
# a grid with no density to compare, a spectrum squaring b or 8/b past it, linspace nodes past it, an
# overflowing broadening factor, an overflowing phase omega(k) t and a grid too wide for the chirp-z phases
_GAUSSIAN_SPREAD_EXAMPLES = (
    {"x_min": -9.114878840792833e245, "x_max": -4.908692990719707e-120, "n_k": 108},
    {"x_min": 2.00001, "b": 0.003549626833218614, "n_k": 2001},
    {"b": 5.8e-187, "k0": 1.4e-159, "n_k": 163},
    {"b": 1.7834593172503262e174, "n_k": 470},
    {"x_min": 3.1107461721572103e-111, "x_max": 1.7976931348623157e308, "n_x": 213},
    {"b": 10.0, "n_k": 113, "times": [0.0, -8.774239584959601e272]},
    {"b": 1.5636165044757184e-150, "k0": 2.0445899274311264e16, "n_k": 235, "times": [-1.7261142292378744e16]},
    {"x_min": -2e307, "x_max": -1e307, "n_k": 4001, "times": [0.0]},
)

# per (scenario, fixed packet): gaussian `spread` as above; `collapse` bands whose origin density
# overflows, at the edge of squaring and deep in the series moments; and radial grids too wide for
# the chirp-z phases
_EXAMPLES = {
    ("spread", "gaussian"): _GAUSSIAN_SPREAD_EXAMPLES,
    ("ensemble", None): ({"r_max": 8e307},),
    ("collapse", None): (
        {"e_total": 6.823323883333878e102},
        {"convention": "double", "n_k": 1059, "e_total": 1.943837135220142e222},
        {"r_max": 8e307},
    ),
}


class TestExitContract:
    """Any parameter set ends in exit 0, 1 or 2, and exit 1 writes nothing."""

    @pytest.mark.parametrize(
        "scenario,fixed",
        [
            ("eraser", {}),
            ("bomb", {}),
            ("spread", {"packet": "single_mode"}),
            ("well", {}),
            ("spread", {"packet": "gaussian"}),
            ("ensemble", {}),
            ("collapse", {}),
        ],
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

        for params in _EXAMPLES.get((scenario, fixed.get("packet")), ()):
            check = example(params=params, fmt="csv")(check)
        check()
