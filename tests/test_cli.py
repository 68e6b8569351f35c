"""End-to-end tests for the command line interface."""

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import AC_MODEL, DC_MODEL, subprocess_env
from ctrlgauge import cli


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def _write_model(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.fixture
def scalar_model(tmp_path):
    return _write_model(
        tmp_path / "scalar.json",
        {
            "name": "scalar",
            "A": [[1.0]],
            "B": [[1.0]],
            "rated": {"u": [1.0], "x": [1.0]},
        },
    )


@pytest.fixture
def plane_model(tmp_path):
    return _write_model(
        tmp_path / "plane.json",
        {
            "name": "plane",
            "A": [[0.9, 0.2], [-0.1, 0.8]],
            "B": [[1.0], [0.5]],
            "rated": {"u": [2.0], "x": [1.0, 1.0]},
        },
    )


class TestNormalize:
    def test_golden_output_and_report(self, tmp_path, capsys):
        code = run_cli(
            ["normalize", "--model", DC_MODEL, "--mode", "rated", "--out-dir", tmp_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "system: dc-motor" in out
        assert "0.6953" in out and "-15.71" in out and "6.992" in out
        report = json.loads((tmp_path / "normalized_model.json").read_text())
        assert report["name"] == "dc-motor"
        b = np.asarray(report["B"])
        assert b[-1, 0] == pytest.approx(8.74 * 24 / 30, rel=1e-12)
        manifest = json.loads((tmp_path / "normalize_manifest.json").read_text())
        assert manifest["command"] == "normalize"
        assert "normalized_model.json" in manifest["outputs"]

    def test_target_mode_without_target_exits_3(self, tmp_path, scalar_model, capsys):
        code = run_cli(
            ["normalize", "--model", scalar_model, "--mode", "target", "--out-dir", tmp_path]
        )
        assert code == 3
        assert "target" in capsys.readouterr().err.lower()

    def test_missing_model_exits_2(self, tmp_path, capsys):
        code = run_cli(
            ["normalize", "--model", tmp_path / "nope.json", "--out-dir", tmp_path]
        )
        assert code == 2

    def test_broken_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        assert run_cli(["normalize", "--model", bad, "--out-dir", tmp_path]) == 2


class TestRegion:
    def test_json_report(self, tmp_path, plane_model, capsys):
        code = run_cli(
            [
                "region",
                "--model", plane_model,
                "--steps", "3,5",
                "--out-dir", tmp_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stage 3:" in out and "stage 5:" in out
        report = json.loads((tmp_path / "region_report.json").read_text())
        assert report["kind"] == "reach"
        assert report["N"] == 5
        assert report["requestedSteps"] == [3, 5]
        assert len(report["volumeByStage"]) == 5

    def test_csv_projection(self, tmp_path, plane_model):
        code = run_cli(
            [
                "region",
                "--model", plane_model,
                "--steps", "4",
                "--format", "csv",
                "--project", "1,2",
                "--out-dir", tmp_path,
            ]
        )
        assert code == 0
        path = tmp_path / "region_step4_x1x2.csv"
        lines = path.read_text().strip().splitlines()
        assert len(lines) >= 4
        row = [float(c) for c in lines[1].split(",")]
        assert len(row) == 2

    def test_svg_overlay(self, tmp_path, plane_model):
        code = run_cli(
            [
                "region",
                "--model", plane_model,
                "--steps", "2,5",
                "--format", "svg",
                "--out-dir", tmp_path,
            ]
        )
        assert code == 0
        doc = (tmp_path / "region_x1x2.svg").read_text()
        assert doc.count("<path") >= 2

    def test_svg_needs_two_dims(self, tmp_path, scalar_model):
        out = tmp_path / "out"
        code = run_cli(
            [
                "region",
                "--model", scalar_model,
                "--format", "svg",
                "--out-dir", out,
            ]
        )
        assert code == 2
        assert not out.exists()  # a failing command writes nothing

    def test_recover_with_singular_a_exits_4(self, tmp_path):
        model = _write_model(
            tmp_path / "sing.json",
            {
                "name": "sing",
                "A": [[1.0, 0.0], [1.0, 0.0]],
                "B": [[1.0], [0.0]],
                "rated": {"u": [1.0], "x": [1.0, 1.0]},
            },
        )
        code = run_cli(
            ["region", "--model", model, "--kind", "recover", "--out-dir", tmp_path]
        )
        assert code == 4

    def test_unstable_growth_exits_5(self, tmp_path):
        model = _write_model(
            tmp_path / "hot.json",
            {
                "name": "hot",
                "A": [[100.0, 0.0], [0.0, 100.0]],
                "B": [[1.0], [1.0]],
                "rated": {"u": [1.0], "x": [1.0, 1.0]},
            },
        )
        code = run_cli(
            ["region", "--model", model, "--steps", "9", "--out-dir", tmp_path]
        )
        assert code == 5

    def test_bad_steps_rejected(self, tmp_path, plane_model, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                ["region", "--model", plane_model, "--steps", "0", "--out-dir", tmp_path]
            )


class TestCompare:
    def test_dc_vs_ac_report(self, tmp_path, capsys):
        code = run_cli(
            [
                "compare",
                "--model", DC_MODEL,
                "--model-b", AC_MODEL,
                "--mode", "rated",
                "--steps", "6",
                "--out-dir", tmp_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "relation:" in out
        report = json.loads((tmp_path / "compare_report.json").read_text())
        assert report["modelA"] == "dc-motor"
        assert report["modelB"] == "ac-motor"
        assert report["relation"] in (
            "Equal",
            "StrictlyStronger",
            "NotWeaker",
            "Incomparable",
        )
        assert "volume" in report["metrics"]["a"]

    def test_dimension_mismatch_exits_1(self, tmp_path, scalar_model, plane_model):
        code = run_cli(
            [
                "compare",
                "--model", scalar_model,
                "--model-b", plane_model,
                "--out-dir", tmp_path,
            ]
        )
        assert code == 1


class TestMintime:
    def test_scalar_chain(self, tmp_path, scalar_model, capsys):
        code = run_cli(
            [
                "mintime",
                "--model", scalar_model,
                "--x0", "2.5",
                "--out-dir", tmp_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "minimum steps: 3" in out
        report = json.loads((tmp_path / "mintime_report.json").read_text())
        assert report["minSteps"] == 3
        assert report["replayError"] <= 1e-9
        assert len(report["inputsPhysical"]) == 3

    def test_physical_units_scaled(self, tmp_path, capsys):
        # dc-motor target mode: state scale divides x0, inputs come back in volts
        code = run_cli(
            [
                "mintime",
                "--model", DC_MODEL,
                "--mode", "target",
                "--x0", "15,90,15",
                "--out-dir", tmp_path,
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "mintime_report.json").read_text())
        assert report["x0Normalized"] == pytest.approx([0.5, 0.5, 0.5])
        flat = np.abs(np.asarray(report["inputsPhysical"]))
        assert flat.max() <= 24.0 + 1e-6

    def test_unreachable_exits_6(self, tmp_path, scalar_model, capsys):
        code = run_cli(
            [
                "mintime",
                "--model", scalar_model,
                "--x0", "9.0",
                "--max-steps", "4",
                "--out-dir", tmp_path,
            ]
        )
        assert code == 6
        assert "steps" in capsys.readouterr().err.lower()

    def test_wrong_x0_length_exits_2(self, tmp_path, scalar_model):
        code = run_cli(
            [
                "mintime",
                "--model", scalar_model,
                "--x0", "1,2",
                "--out-dir", tmp_path,
            ]
        )
        assert code == 2


class TestVerify:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        code = run_cli(
            ["verify", "--seed", "1", "--samples", "20000", "--out-dir", tmp_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "result: pass" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert len(report["checks"]) >= 20

    def test_detected_fault_exits_7(self, tmp_path, capsys, monkeypatch):
        # sabotage the production volume so the oracle cross-check must fail
        from ctrlgauge import zonotope

        real = zonotope.Zonotope.volume
        monkeypatch.setattr(
            zonotope.Zonotope, "volume", lambda self: real(self) * 1.05
        )
        code = run_cli(
            ["verify", "--seed", "1", "--samples", "20000", "--out-dir", tmp_path]
        )
        assert code == 7
        assert "FAIL" in capsys.readouterr().out


class TestBadNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--samples", "999"],
            ["mintime", "--model", DC_MODEL, "--x0", "1,10,1", "--max-steps", "0"],
            ["mintime", "--model", DC_MODEL, "--x0", "nan,1,1"],
        ],
        ids=["samples", "max-steps", "nan-x0"],
    )
    def test_exit_2_and_no_out_dir(self, tmp_path, argv):
        out = tmp_path / "out"
        try:
            code = run_cli(argv + ["--out-dir", out])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        assert code == 2
        assert not out.exists()


class TestTopLevel:
    def test_version_runs_as_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ctrlgauge.cli", "--version"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert "ctrlgauge" in proc.stdout

    def test_unknown_command_is_argparse_error(self):
        with pytest.raises(SystemExit):
            run_cli(["frobnicate"])

    def test_manifest_text(self, tmp_path):
        # parsed arguments as the parser leaves them: an array (--x0),
        # tuples (--steps, --project), a None and the handler, not recorded
        args = argparse.Namespace(
            command="region",
            x0=np.array([15.0, -0.5]),
            steps=(3, 5),
            project=(0, 2),
            model=None,
            func=print,
        )
        path = cli._write_manifest(tmp_path, "region", args, [tmp_path / "region.csv"])
        assert path.read_text() == (
            "{\n"
            '  "arguments": {\n'
            '    "command": "region",\n'
            '    "model": null,\n'
            '    "project": [\n      0,\n      2\n    ],\n'
            '    "steps": [\n      3,\n      5\n    ],\n'
            '    "x0": [\n      15.0,\n      -0.5\n    ]\n'
            "  },\n"
            '  "command": "region",\n'
            '  "outputs": [\n    "region.csv"\n  ],\n'
            f'  "version": "{cli.__version__}"\n'
            "}\n"
        )


class TestRepeatedCalls:
    """main builds its parser once per process and may be called again."""

    def test_parser_is_built_once(self, tmp_path, plane_model, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for command in ("normalize", "region", "normalize"):
            assert run_cli([command, "--model", plane_model, "--out-dir", tmp_path]) == 0
        # subparsers are named "ctrlgauge <command>"; only the top level counts
        assert built.count("ctrlgauge") <= 1

    def test_steps_default_survives_an_explicit_list(self, tmp_path, plane_model):
        argv = ["region", "--model", plane_model, "--out-dir", tmp_path]
        assert run_cli(argv + ["--steps", "3,5"]) == 0
        assert run_cli(argv) == 0
        report = json.loads((tmp_path / "region_report.json").read_text())
        assert report["requestedSteps"] == [5]
        manifest = json.loads((tmp_path / "region_manifest.json").read_text())
        assert manifest["arguments"]["steps"] == [5]

    def test_usage_error_then_valid_call(self, tmp_path, plane_model, capsys):
        argv = ["region", "--model", plane_model, "--out-dir", tmp_path]
        with pytest.raises(SystemExit):
            run_cli(argv + ["--steps", "0"])
        assert run_cli(argv) == 0
        assert "stage 5:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["normalize", "--model", DC_MODEL, "--mode", "target"],
            ["region", "--model", AC_MODEL, "--steps", "2,4"],
            ["region", "--model", DC_MODEL, "--steps", "3", "--format", "csv",
             "--project", "1,3"],
            ["region", "--model", DC_MODEL, "--kind", "recover", "--steps", "2,3",
             "--format", "svg"],
            ["compare", "--model", DC_MODEL, "--model-b", AC_MODEL, "--steps", "4"],
            ["mintime", "--model", DC_MODEL, "--mode", "target", "--x0", "15,90,15"],
            ["verify", "--seed", "2", "--samples", "2000"],
        ],
        ids=["normalize", "region-json", "region-csv", "region-svg", "compare",
             "mintime", "verify"],
    )
    def test_reruns_match_a_fresh_process(self, tmp_path, argv):
        # the same argv and --out-dir, so the manifests record the same arguments
        argv = [str(a) for a in argv] + ["--out-dir", str(tmp_path)]
        proc = subprocess.run(
            [sys.executable, "-m", "ctrlgauge.cli", *argv],
            capture_output=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        fresh = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert len(fresh) >= 2  # a report and its manifest
        manifest = f"{argv[0]}_manifest.json"
        listed = json.loads(fresh[manifest])["outputs"] + [manifest]
        assert sorted(listed) == sorted(fresh)
        for _ in range(2):
            for path in tmp_path.iterdir():
                path.unlink()
            assert run_cli(argv) == 0
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == fresh
