import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secinvest
from secinvest import run_cli

ONE_PERIOD_VL10 = {
    "label": "one-period-vl10",
    "periods": [
        {"vulnerability": 0.5, "loss": 20, "alpha": 1, "beta": 1, "disruptive": 0}
    ],
}


@pytest.fixture
def scenario_file(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def test_optimize_prints_z_star(scenario_file, capsys):
    path = scenario_file("a.json", ONE_PERIOD_VL10)
    assert run_cli(["optimize", path]) == 0
    out = capsys.readouterr().out
    assert "z_star=2.162278" in out
    assert "method=closed_form" in out
    assert "enbis_total=" in out


def test_delta_z_self_comparison(scenario_file, capsys):
    path = scenario_file("a.json", ONE_PERIOD_VL10)
    assert run_cli(["delta-z", path, path]) == 0
    out = capsys.readouterr().out
    assert "delta_z=0.000000" in out
    assert "classified_disruptive=false" in out


def test_delta_z_unequal_horizons_exit_1(scenario_file, capsys):
    a = scenario_file("a.json", ONE_PERIOD_VL10)
    b_payload = dict(ONE_PERIOD_VL10, periods=ONE_PERIOD_VL10["periods"] * 2)
    b = scenario_file("b.json", b_payload)
    assert run_cli(["delta-z", a, b]) == 1
    err = capsys.readouterr().err
    assert "must be equal in order to proceed" in err


def test_delta_z_with_plans(scenario_file, capsys):
    a = scenario_file("a.json", ONE_PERIOD_VL10)
    b_payload = json.loads(json.dumps(ONE_PERIOD_VL10))
    b_payload["periods"][0]["disruptive"] = 1
    b_payload["periods"][0]["loss"] = 100
    a_payload = json.loads(json.dumps(ONE_PERIOD_VL10))
    a_payload["periods"][0]["loss"] = 100
    a = scenario_file("a100.json", a_payload)
    b = scenario_file("b100.json", b_payload)
    assert run_cli(["delta-z", a, b, "--plan-a", "1", "--plan-b", "1"]) == 0
    out = capsys.readouterr().out
    assert "delta_z=-12.500000" in out
    assert "classified_disruptive=true" in out


def test_delta_z_strict_mode_rejects_mismatched_losses(scenario_file, capsys):
    a = scenario_file("a.json", ONE_PERIOD_VL10)
    b_payload = json.loads(json.dumps(ONE_PERIOD_VL10))
    b_payload["periods"][0]["loss"] = 30
    b = scenario_file("b.json", b_payload)
    assert run_cli(["delta-z", a, b, "--strict"]) == 1
    assert "strict" in capsys.readouterr().err


def test_delta_z_optimize_mode(scenario_file, capsys):
    a = scenario_file("a.json", ONE_PERIOD_VL10)
    assert run_cli(["delta-z", a, a, "--optimize"]) == 0
    out = capsys.readouterr().out
    assert "delta_z=0.000000" in out


def test_curve_csv_shape(capsys):
    assert (
        run_cli(
            [
                "curve",
                "--vulnerability", "0.5",
                "--loss", "100",
                "--alpha", "1",
                "--beta", "1",
                "--z-max", "2",
                "--steps", "2",
                "--include-disrupted",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "z,ebis_0,enbis_0,ebis_d,enbis_d"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 4


def test_curve_invalid_range_exit_1(capsys):
    code = run_cli(
        [
            "curve",
            "--vulnerability", "0.5",
            "--loss", "100",
            "--alpha", "1",
            "--beta", "1",
            "--z-min", "5",
            "--z-max", "2",
        ]
    )
    assert code == 1


def test_invalid_scenario_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"label": "x", "periods": [{"vulnerability": 2}]}')
    assert run_cli(["optimize", str(bad)]) == 1


def test_missing_file_exit_1(tmp_path, capsys):
    assert run_cli(["optimize", str(tmp_path / "nope.json")]) == 1


def test_usage_error_exit_2(capsys):
    assert run_cli(["no-such-command"]) == 2
    assert run_cli([]) == 2


def test_sweep_default_grid(capsys):
    assert run_cli(["sweep"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("shift_direction")
    directions = [ln.rsplit(",", 1)[1] for ln in lines[1:]]
    assert "left" in directions and "right" in directions


def test_svg_written(tmp_path, capsys):
    svg = tmp_path / "curve.svg"
    assert (
        run_cli(
            [
                "curve",
                "--vulnerability", "0.5",
                "--loss", "100",
                "--alpha", "1",
                "--beta", "1",
                "--z-max", "5",
                "--steps", "10",
                "--svg", str(svg),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert svg.read_text().startswith("<svg")


def test_mix_curve_switch(capsys):
    assert (
        run_cli(
            [
                "mix-curve",
                "--vulnerability", "0.5",
                "--loss", "100",
                "--alpha", "1",
                "--beta", "1",
                "--switch-index", "2",
                "--z-max", "2",
                "--steps", "4",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,branch,z,ebis"
    branches = [ln.split(",")[1] for ln in lines[1:]]
    assert branches == ["pre", "pre", "post", "post", "post"]


PERIOD_ARGS = ["--vulnerability", "0.5", "--loss", "100", "--alpha", "1", "--beta", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--vulnerability", "0.5", "--loss", "100", "--alpha", "inf", "--beta", "1"],
        ["curve", *PERIOD_ARGS, "--z-max", "nan"],
        ["curve", *PERIOD_ARGS, "--z-max", "inf"],
        ["mix-curve", *PERIOD_ARGS, "--switch-index", "1", "--z-max", "nan"],
        ["mix-curve", *PERIOD_ARGS, "--switch-index", "-5", "--z-max", "2"],
        ["sweep", "--alpha", "inf"],
        ["sweep", "--loss", "4,nan"],
        ["sweep", "--alpha", "1,inf"],
        ["sweep", "--beta", "1,0.5"],
        ["sweep", "--vulnerability", "0.5,2"],
        ["sweep", "--loss", "4,-1"],
    ],
)
def test_non_finite_or_out_of_range_flags_exit_1(argv, capsys):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "nan" not in captured.out and "inf" not in captured.out


@pytest.mark.parametrize(
    "flags", [["--plan-a", "inf"], ["--plan-b", "1,nan"], ["--threshold", "nan"]]
)
def test_delta_z_non_finite_flags_exit_1(flags, scenario_file, capsys):
    path = scenario_file("a.json", ONE_PERIOD_VL10)
    assert run_cli(["delta-z", path, path, *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "field, raw",
    [
        ("loss", "Infinity"),
        pytest.param("loss", "9" * 400, id="loss-400-digits"),
        ("alpha", "NaN"),
        ("disruptive", "1.0"),
    ],
)
def test_scenario_domain_errors_exit_1(field, raw, tmp_path, capsys):
    text = json.dumps(ONE_PERIOD_VL10).replace(
        f'"{field}": {ONE_PERIOD_VL10["periods"][0][field]}', f'"{field}": {raw}'
    )
    assert raw in text
    path = tmp_path / "s.json"
    path.write_text(text)
    assert run_cli(["optimize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: periods[0].{field} ")
    assert captured.out == ""


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(secinvest.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


def test_module_entry_point_writes_nothing_to_stderr():
    result = _run_python("-m", "secinvest.cli", "sweep")
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.startswith("alpha,beta,")


def test_every_public_name_resolves():
    for name in secinvest.__all__:
        assert getattr(secinvest, name) is not None, name


@pytest.mark.parametrize("steps", [str(10**6 + 1), "9" * 400])
@pytest.mark.parametrize("command", ["curve", "mix-curve"])
def test_steps_beyond_the_limit_exit_1(command, steps, capsys):
    argv = [command, *PERIOD_ARGS, "--z-max", "2", "--steps", steps]
    if command == "mix-curve":
        argv += ["--switch-index", "1"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "steps" in captured.err
    assert captured.out == ""


def test_extreme_valid_inputs_write_nothing_to_stderr():
    result = _run_python(
        "-m", "secinvest.cli", "curve", "--vulnerability", "0.5", "--loss", "100",
        "--alpha", "1e300", "--beta", "5", "--z-max", "1e10", "--steps", "2",
    )
    assert result.returncode == 0
    assert result.stderr == ""


def test_package_import_does_not_load_the_cli():
    code = (
        "import sys, secinvest; assert 'secinvest.cli' not in sys.modules; "
        "from secinvest import run_cli; assert 'secinvest.cli' in sys.modules; "
        "assert len(secinvest.__all__) == 35"
    )
    result = _run_python("-c", code)
    assert result.returncode == 0, result.stderr
