"""Scenario runner: exit codes, table formats and determinism."""

import csv
import json

import pytest

from qensemble.cli import main

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
            (["spread", "--set", "times=0,nan"], "parameter 'times' must be finite"),
        ],
    )
    def test_degenerate_inputs_exit_one_without_output(self, args, message, capsys, tmp_path):
        out = tmp_path / "t.csv"
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


class TestSelftest:
    def test_selftest_is_green_and_deterministic(self, capsys):
        code1, out1, _ = run(["selftest"], capsys)
        code2, out2, _ = run(["selftest"], capsys)
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[-1] == "selftest: 20 checks, 20 passed, 0 failed"
        assert all(line.startswith("PASS ") for line in lines[:-1])
