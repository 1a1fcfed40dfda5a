import gc
import inspect
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import secinvest
from secinvest import (
    ParseError,
    PeriodSpec,
    optimize_scenario,
    optimum_shift_sweep,
    parse_scenario,
    run_cli,
)
from secinvest.scenario_io import fmt, fmt_rows

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
    captured = capsys.readouterr()
    assert "must be equal in order to proceed" in captured.err
    assert captured.out == ""


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
    captured = capsys.readouterr()
    assert "strict" in captured.err
    assert captured.out == ""


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
    assert capsys.readouterr().out == ""


def test_invalid_scenario_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"label": "x", "periods": [{"vulnerability": 2}]}')
    assert run_cli(["optimize", str(bad)]) == 1
    assert capsys.readouterr().out == ""


def test_missing_file_exit_1(tmp_path, capsys):
    assert run_cli(["optimize", str(tmp_path / "nope.json")]) == 1
    assert capsys.readouterr().out == ""


def test_top_level_array_exit_1(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert run_cli(["optimize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: top-level value must be an object\n"
    assert captured.out == ""


def test_lone_surrogate_label_exit_1(scenario_file, capsys):
    # json.dumps writes the label as the escape "\ud800", which is valid JSON
    path = scenario_file("lone.json", dict(ONE_PERIOD_VL10, label="a\ud800"))
    assert run_cli(["optimize", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: label must not hold a lone surrogate (an unpaired \\ud800-\\udfff escape)\n"
    assert captured.out == ""
    # a surrogate pair is one character, which stdout can encode
    path = scenario_file("pair.json", dict(ONE_PERIOD_VL10, label="a\U0001F600"))
    assert run_cli(["optimize", path]) == 0
    assert capsys.readouterr().out.startswith("scenario=a\U0001F600\n")


@pytest.mark.parametrize("brk", ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_label_with_a_line_break_exits_1(brk, scenario_file, capsys):
    # a break would let the label forge an output line, here "periods=7"
    assert f"a{brk}b".splitlines() == ["a", "b"]
    payload = dict(ONE_PERIOD_VL10, label=f"a{brk}periods=7")
    with pytest.raises(ParseError, match="^label must not hold a line break$"):
        parse_scenario(json.dumps(payload))
    assert run_cli(["optimize", scenario_file("break.json", payload)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: label must not hold a line break\n"
    assert captured.out == ""


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


@pytest.mark.parametrize("extra", [["curve", "--include-disrupted"], ["mix-curve", "--switch-index", "4"]])
def test_csv_and_svg_share_one_evaluation_per_curve(extra, tmp_path, capsys, monkeypatch):
    calls = []
    breach = secinvest.model.breach

    def counted(z, batch, out=None):
        calls.append(len(z))
        return breach(z, batch, out)

    monkeypatch.setattr(secinvest.model, "breach", counted)
    argv = [*extra, "--vulnerability", "0.5", "--loss", "100", "--alpha", "1", "--beta", "1",
            "--steps", "10", "--svg", str(tmp_path / "c.svg")]
    assert run_cli(argv) == 0
    capsys.readouterr()
    # two curves: the baseline and its disrupted twin, or the pre and post branches
    assert calls == [11, 11] if extra[0] == "curve" else calls == [4, 7]


@pytest.mark.parametrize("command", ["curve", "mix-curve"])
def test_svg_to_an_unwritable_path_exits_1(command, tmp_path, capsys):
    svg = tmp_path / "missing" / "x.svg"
    argv = [command, "--vulnerability", "0.5", "--loss", "100", "--alpha", "1",
            "--beta", "1", "--steps", "4", "--svg", str(svg)]
    if command == "mix-curve":
        argv += ["--switch-index", "2"]
    assert run_cli(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""  # the CSV is not printed either
    assert err.startswith(f"error: cannot write SVG file {svg}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["curve", "mix-curve"])
def test_empty_svg_path_exits_1(command, capsys):
    # an empty value is a path given, not an absent flag: it names no file
    argv = [command, "--vulnerability", "0.5", "--loss", "100", "--alpha", "1",
            "--beta", "1", "--steps", "4", "--svg", ""]
    if command == "mix-curve":
        argv += ["--switch-index", "2"]
    assert run_cli(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write SVG file : ")
    assert "Traceback" not in err


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
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags", [["--plan-a", "inf"], ["--plan-b", "1,nan"], ["--threshold", "nan"]]
)
def test_delta_z_non_finite_flags_exit_1(flags, scenario_file, capsys):
    path = scenario_file("a.json", ONE_PERIOD_VL10)
    assert run_cli(["delta-z", path, path, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--plan-a", "--plan-b"])
def test_delta_z_empty_plan_exits_1(flag, scenario_file, capsys):
    # an empty plan is a plan given, not all zeros
    path = scenario_file("a.json", ONE_PERIOD_VL10)
    assert run_cli(["delta-z", path, path, flag, ""]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: invalid value list for {flag}: ''\n"
    assert captured.out == ""


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


def _run_python(*args, **environ):
    env = dict(os.environ, PYTHONPATH=str(Path(secinvest.__file__).parents[1]), **environ)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


def test_module_entry_point_writes_nothing_to_stderr():
    result = _run_python("-m", "secinvest.cli", "sweep")
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.startswith("alpha,beta,")


def test_stdout_closed_by_its_reader_exits_1_quietly():
    # a million-step curve is far more than a pipe holds, so the writes after
    # the reader closes its end fail; neither a traceback nor an
    # "Exception ignored" line from the exit's flush may reach stderr
    argv = ["curve", "--vulnerability", "0.5", "--loss", "100", "--alpha", "1", "--beta", "1", "--steps", "1000000"]
    env = dict(os.environ, PYTHONPATH=str(Path(secinvest.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "secinvest.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"z,ebis_0,enbis_0\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait() == 1
    assert stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["sweep"],  # small enough to stay buffered until the flush
    ["curve", "--vulnerability=0.5", "--loss=100", "--alpha=1", "--beta=1", "--steps=100000"],
])
def test_stdout_on_a_full_disk_exits_1_with_one_line(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(secinvest.__file__).parents[1]))
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "secinvest.cli", *argv], env=env, stdout=full,
                                stderr=subprocess.PIPE, text=True, check=False)
    assert result.returncode == 1
    assert result.stderr == "error: cannot write the output: [Errno 28] No space left on device\n"


def test_label_that_stdout_cannot_encode_exits_1(scenario_file):
    path = scenario_file("cafe.json", dict(ONE_PERIOD_VL10, label="caf\u00e9"))
    result = _run_python("-m", "secinvest.cli", "optimize", path, PYTHONIOENCODING="ascii")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: stdout cannot print the output: 'ascii' codec")
    assert result.stderr.count("\n") == 1


def test_every_public_name_resolves():
    assert len(set(secinvest.__all__)) == len(secinvest.__all__)
    assert set(secinvest.__all__) <= set(dir(secinvest))
    for name in secinvest.__all__:
        value = getattr(secinvest, name)
        assert value is not None, name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError, match="module 'secinvest' has no attribute 'no_such_name'"):
        secinvest.no_such_name


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


def test_sweep_beyond_the_limit_exits_1_before_allocating(capsys):
    # 101**3 tuples, just above the 10**6 of the largest curve grid
    values = [str(i) for i in range(1, 102)]
    argv = ["sweep", "--alpha", ",".join(values), "--beta", ",".join(values),
            "--vulnerability", ",".join(str(i / 100) for i in range(101)), "--loss", "1"]
    tracemalloc.start()
    try:
        code = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need at most 1000000 sweep tuples, got 1030301\n"
    assert captured.out == ""
    # the table alone would take 68 bytes per tuple
    assert peak < 10**6


def test_writing_a_sweep_table_peaks_below_the_table_itself():
    # 12**4 tuples, the size of the benchmark's portfolio sweep
    axis = [1.0 + i / 4 for i in range(12)]
    table = optimum_shift_sweep(axis, axis, [i / 12 for i in range(12)], [1.0 + 3 * i for i in range(12)])
    columns = [table[name] for name in table.dtype.names]
    tracemalloc.start()
    try:
        size = sum(map(len, fmt_rows("%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%s", columns)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 20736 * 50
    # written block by block: about 0.7 MB at 32768 cells a block, 1.4 MB at 65536
    assert peak < table.nbytes


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a":', "}")])
def test_deeply_nested_scenario_exits_1(opening, closing, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(opening * 200_000 + "0" + closing * 200_000)
    assert run_cli(["optimize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: arrays or objects nested too deeply\n"
    assert captured.out == ""


def test_extreme_valid_inputs_write_nothing_to_stderr():
    result = _run_python(
        "-m", "secinvest.cli", "curve", "--vulnerability", "0.5", "--loss", "100",
        "--alpha", "1e300", "--beta", "5", "--z-max", "1e10", "--steps", "2",
    )
    assert result.returncode == 0
    assert result.stderr == ""


def test_grid_ending_at_the_largest_float_writes_nothing_to_stderr():
    # the default grid [0, v*L] ends at the largest float
    result = _run_python(
        "-m", "secinvest.cli", "curve", "--vulnerability", "1",
        "--loss", "1.7976931348623157e308", "--alpha", "1", "--beta", "1", "--steps", "3",
    )
    assert result.returncode == 0
    assert result.stderr == ""


def test_package_import_does_not_load_the_cli():
    code = (
        "import sys, secinvest; "
        "loaded = {m for m in sys.modules if m.split('.')[0] == 'secinvest'}; "
        "assert loaded == {'secinvest'}, loaded; "
        "from secinvest import run_cli; assert 'secinvest.cli' in sys.modules; "
        "assert len(secinvest.__all__) == 31"
    )
    result = _run_python("-c", code)
    assert result.returncode == 0, result.stderr


GOLDENS = Path(__file__).parent / "goldens"
# each subcommand on golden inputs, a usage error and --help: the argv, the
# golden (if any) and the modules that the call must not load, beyond the
# dataclasses and cross-checks that no call loads
NO_MODEL = {"numpy", "secinvest.model", "secinvest.optimize", "secinvest.scenario_io", "secinvest.analysis"}
COLD_CALLS = {
    "curve": (["curve", "--vulnerability", "0.5", "--loss", "100", "--alpha", "1", "--beta", "1",
               "--z-min", "0", "--z-max", "2", "--steps", "2", "--include-disrupted"],
              "curve.csv", {"secinvest.analysis", "json"}),
    "mix-curve": (["mix-curve", "--vulnerability", "0.5", "--loss", "100", "--alpha", "1", "--beta", "1",
                   "--switch-index", "2", "--z-min", "0", "--z-max", "2", "--steps", "4"],
                  "mix_curve.csv", {"secinvest.analysis", "json"}),
    "optimize": (["optimize", str(GOLDENS / "scenario_a.json")], None, {"secinvest.analysis"}),
    "delta-z": (["delta-z", str(GOLDENS / "scenario_a.json"), str(GOLDENS / "scenario_b.json"),
                 "--plan-a", "1", "--plan-b", "1"], "delta_z.txt", set()),
    "sweep": (["sweep", "--alpha", "1", "--beta", "1", "--vulnerability", "0.5", "--loss", "4,20"],
              "sweep.csv", {"json"}),
    "usage-error": (["curve"], None, NO_MODEL),
    "help": (["--help"], None, NO_MODEL),
}


def _imported(stderr: str) -> set[str]:
    """The modules that ``python -X importtime`` reports as imported."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize("command", COLD_CALLS)
def test_a_cold_call_loads_only_what_its_subcommand_runs(command):
    argv, golden, unused = COLD_CALLS[command]
    result = _run_python("-X", "importtime", "-m", "secinvest.cli", *argv)
    assert result.returncode == (2 if command == "usage-error" else 0), result.stderr[-500:]
    assert golden is None or result.stdout == (GOLDENS / golden).read_text()
    imported = _imported(result.stderr)
    # the report lists what the call ran
    assert {"secinvest.errors", "secinvest.model", "numpy"} - unused <= imported
    assert not imported & {"dataclasses", "secinvest.check", *unused}


def test_a_bare_import_loads_only_the_package():
    result = _run_python("-X", "importtime", "-c", "import secinvest")
    assert result.returncode == 0, result.stderr[-500:]
    assert {m for m in _imported(result.stderr) if m.split(".")[0] == "secinvest"} == {"secinvest"}


def test_main_freezes_the_heap_before_the_exit_and_run_cli_does_not(capsys):
    # the exit's collections skip a frozen heap; atexit hooks still run after it
    argv, golden, _ = COLD_CALLS["sweep"]
    code = (
        "import atexit, gc, sys; from secinvest.cli import main; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)); main()"
    )
    result = _run_python("-c", code, *argv)
    assert result.returncode == 0
    assert result.stdout == (GOLDENS / golden).read_text()
    assert result.stderr == "frozen True\n"
    before = gc.get_freeze_count()
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == result.stdout
    assert gc.get_freeze_count() == before  # in-process callers never freeze


def test_a_frozen_exit_leaves_stdout_and_the_svg_complete(tmp_path, capsys):
    # no finalizer runs on the frozen heap, so neither file may depend on one;
    # both outputs span many write buffers
    argv = ["curve", *PERIOD_ARGS, "--steps", "5000", "--include-disrupted", "--svg"]
    assert run_cli([*argv, str(tmp_path / "warm.svg")]) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(secinvest.__file__).parents[1]))
    with open(tmp_path / "cold.csv", "w") as out:
        result = subprocess.run([sys.executable, "-m", "secinvest.cli", *argv, str(tmp_path / "cold.svg")],
                                env=env, stdout=out, stderr=subprocess.PIPE, text=True, check=False)
    assert result.returncode == 0 and result.stderr == ""
    assert (tmp_path / "cold.csv").read_bytes() == expected.encode()
    assert (tmp_path / "cold.svg").read_bytes() == (tmp_path / "warm.svg").read_bytes()


# 17 * 2 * 121 = 4114 tuples, more than one block of rows; "-0" must print 0.000000
SWEEP_AXES = {
    "--alpha": [str(0.1 * i) for i in range(1, 18)],
    "--beta": ["1"],
    "--vulnerability": ["-0", "0.5"],
    "--loss": ["-0", *(str(10 * i) for i in range(1, 121))],
}


def test_sweep_rows_equal_per_record_fmt(capsys):
    argv = ["sweep", *(f"{flag}={','.join(values)}" for flag, values in SWEEP_AXES.items())]
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    records = optimum_shift_sweep(*([float(x) for x in axis] for axis in SWEEP_AXES.values()))
    assert len(records) > 4096
    assert lines[1:] == [
        f"{fmt(r.alpha)},{fmt(r.beta)},{fmt(r.vulnerability)},{fmt(r.loss)},"
        f"{fmt(r.z_star_baseline)},{fmt(r.z_star_disrupted)},{r.shift_direction}"
        for r in records
    ]
    assert not any("-0.000000" in line for line in lines)


def test_sweep_negative_zero_loss_prints_zero(capsys):
    assert run_cli(["sweep", "--loss", "-0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["1.000000,1.000000,0.500000,0.000000,0.000000,0.000000,none"]


def test_optimize_rows_equal_per_record_fmt(scenario_file, capsys):
    rng = random.Random(11)
    payload = {
        "label": "many",
        "periods": [
            {
                "vulnerability": rng.choice([-0.0, rng.random()]),
                "loss": rng.choice([-0.0, rng.uniform(0.0, 1e4)]),
                "alpha": rng.uniform(0.01, 10.0),
                "beta": rng.uniform(1.0, 5.0),
                "disruptive": rng.randint(0, 1),
            }
            for _ in range(4097)
        ],
    }
    assert run_cli(["optimize", scenario_file("many.json", payload)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = optimize_scenario(parse_scenario(json.dumps(payload)))
    assert lines[2:-1] == [
        f"period {i}: z_star={fmt(r.z_star)} "
        f"breach_probability={fmt(r.breach_probability_at_optimum)} "
        f"ebis={fmt(r.ebis_at_optimum)} enbis={fmt(r.ebis_at_optimum - r.z_star)} "
        "method=closed_form"
        for i, r in enumerate(result.per_period, start=1)
    ]


def test_optimize_and_delta_z_build_no_period_objects(scenario_file, capsys, monkeypatch):
    rng = random.Random(5)
    payload = {
        "label": "fifty",
        "periods": [
            {"vulnerability": rng.random(), "loss": rng.uniform(0.0, 1e4),
             "alpha": rng.uniform(0.01, 10.0), "beta": rng.choice([1, rng.uniform(1.0, 5.0)]),
             "disruptive": rng.randint(0, 1)}
            for _ in range(50)
        ],
    }
    path = scenario_file("fifty.json", payload)
    built = []
    init = PeriodSpec.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PeriodSpec, "__init__", counted)
    assert run_cli(["optimize", path]) == 0
    assert run_cli(["delta-z", path, path, "--optimize"]) == 0
    assert run_cli(["delta-z", path, path, "--strict", "--plan-a", "1," * 49 + "1"]) == 0
    assert built == []
    # the count is live: asking for the periods builds each one
    assert len(parse_scenario(json.dumps(payload)).periods) == len(built) == 50
