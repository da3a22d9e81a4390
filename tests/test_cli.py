"""Command-line interface tests: flag parsing, output formats, exit codes."""

import argparse
import json
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import stripeloc.cli as cli_mod
from stripeloc.cli import build_parser, cli, parse_value_list, resolve_scenario
from stripeloc.errors import SchemaError, SearchFailure
from stripeloc.harness import BOUNDS_COLUMNS, METRICS_COLUMNS
from stripeloc.scenario import load_scenario


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def test_parse_value_list_forms():
    assert parse_value_list("20").tolist() == [20.0]
    assert parse_value_list("0,5,10").tolist() == [0.0, 5.0, 10.0]
    log = parse_value_list("1e6:1e9:log25")
    assert log.size == 25
    assert log[0] == pytest.approx(1e6) and log[-1] == pytest.approx(1e9)
    lin = parse_value_list("0:30:lin7")
    assert lin.tolist() == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]


@pytest.mark.parametrize(
    "bad",
    ["1e6:1e9", "1e6:1e9:geo5", "1:2:log0", "a,b", "nan", "1,inf", "1e6:inf:log5", "nan:30:lin7"],
)
def test_parse_value_list_rejects(bad):
    with pytest.raises(ValueError):
        parse_value_list(bad)


def test_resolve_scenario_bundled_names():
    assert len(resolve_scenario("canonical").stripes) == 4
    assert resolve_scenario("estimation").waveform.K == 20


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_command_exits_1_with_usage(capsys):
    assert cli(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_1_with_usage(capsys):
    assert cli(["bounds", "--frequency", "1"]) == 1
    assert "usage" in capsys.readouterr().err


# the (command, flag) pairs no command reads, each with a value that flag
# would take where it is read
_UNREAD_FLAGS = [
    ("bounds", "--seed", "1"),
    ("bounds", "--trials", "2"),
    ("bounds", "--sdnr", "20"),
    ("bounds", "--threads", "2"),
    ("simulate", "--trials", "2"),
    ("simulate", "--sdnr", "20"),
    ("simulate", "--bandwidth", "1e7"),
    ("simulate", "--threads", "2"),
    ("simulate", "--sync", "ncp"),
    ("estimate", "--bandwidth", "1e7"),
    ("sweep", "--bandwidth", "1e7"),
    ("heatmap", "--seed", "1"),
    ("heatmap", "--trials", "2"),
    ("heatmap", "--sdnr", "20"),
    ("heatmap", "--bandwidth", "1e7"),
    ("heatmap", "--threads", "2"),
    ("selftest", "--scenario", "nonexistent.json"),
    ("selftest", "--seed", "1"),
    ("selftest", "--trials", "2"),
    ("selftest", "--sdnr", "20"),
    ("selftest", "--bandwidth", "1e7"),
    ("selftest", "--sync", "cp"),
    ("selftest", "--format", "json"),
    ("selftest", "--threads", "2"),
]


@pytest.mark.parametrize("command, flag, value", _UNREAD_FLAGS)
def test_flag_the_command_does_not_read_exits_1(command, flag, value, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert cli([command, flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and f"unrecognized arguments: {flag} {value}" in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_estimate_refuses_threads_below_1(threads, capsys):
    argv = ["estimate", "--scenario", "estimation", "--sdnr", "20", "--threads", threads]
    assert cli(argv) == 1
    assert "threads must be >= 1" in capsys.readouterr().err


def test_readme_synopsis_lists_each_commands_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = readme.split("## Command line", 1)[1].split("```")[1].strip()
    listed = {}
    for line in synopsis.splitlines():
        prog, command = line.split()[:2]
        assert prog == "stripeloc"
        listed[command] = set(re.findall(r"--[a-z]+", line))
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {opt for action in sp._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sp in commands.choices.items()
    }
    assert listed == accepted


def test_missing_scenario_file_exits_1(capsys):
    assert cli(["bounds", "--scenario", "/no/such/file.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_scenario_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "scene.json"
    bad.write_text("{not json")
    assert cli(["bounds", "--scenario", str(bad)]) == 1


def _canonical_with(tmp_path, edit) -> str:
    """Path of a copy of the bundled canonical scene changed by ``edit``."""
    cfg = json.loads((resources.files("stripeloc") / "data" / "canonical.json").read_text())
    edit(cfg)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("dims", [2.0, 3.0, True, "3"])
def test_non_integer_dimensions_exits_1(dims, tmp_path, capsys):
    path = _canonical_with(tmp_path, lambda cfg: cfg.update(dimensions=dims))
    assert cli(["bounds", "--bandwidth", "1e7", "--scenario", path]) == 1
    assert "dimensions" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field",
    ["waveform.temperature_k", "materials.concrete.mu_r", "materials.concrete.sigma_s_per_m",
     "room.width_m"],
)
@pytest.mark.parametrize("value", [True, "hot", math.nan, math.inf])
def test_non_numeric_optional_field_exits_1(field, value, tmp_path, capsys):
    *parents, key = field.split(".")

    def edit(cfg):
        for name in parents:
            cfg = cfg[name]
        cfg[key] = value

    path = _canonical_with(tmp_path, edit)
    assert cli(["bounds", "--bandwidth", "1e7", "--scenario", path]) == 1
    expected = "a finite number" if isinstance(value, float) else "a number"
    assert f"{field}: expected {expected}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("position_m", [3.03, math.inf, 1.0], "ue.position_m: expected a finite number"),
        ("phase_offset_rad", [0.0, math.nan, 0.0, 0.0],
         "ue.phase_offset_rad[1]: expected a finite number"),
        ("phase_offset_rad", [True, False, False, False],
         "ue.phase_offset_rad[0]: expected a number"),
    ],
    ids=["position-inf", "phase-nan", "phase-bool"],
)
def test_bad_ue_list_entry_exits_1(key, value, message, tmp_path, capsys):
    path = _canonical_with(tmp_path, lambda cfg: cfg["ue"].update({key: value}))
    assert cli(["bounds", "--bandwidth", "1e7", "--scenario", path]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda cfg: cfg["room"].update(width_m=10**400), "room.width_m"),
        (lambda cfg: cfg["ue"].update(position_m=[3, -(10**400), 1]), "ue.position_m"),
        (lambda cfg: cfg["ue"].update(phase_offset_rad=[0, 10**400, 0, 0]),
         "ue.phase_offset_rad[1]"),
        (lambda cfg: cfg["waveform"].update(subcarriers=10**400), "waveform.subcarriers"),
        (lambda cfg: cfg["stripes"].update(num_antennas=10**400), "stripes.num_antennas"),
    ],
    ids=["room", "ue-position", "ue-phase", "subcarriers", "antennas"],
)
def test_loader_refuses_integer_beyond_float_range(edit, field, tmp_path):
    # json reads 10**400 as a Python int, which float() cannot convert
    with pytest.raises(SchemaError, match=rf"^{re.escape(field)}: expected a finite number$"):
        load_scenario(_canonical_with(tmp_path, edit))


def test_integer_beyond_float_range_exits_1(tmp_path, capsys):
    for section, key in [("room", "width_m"), ("waveform", "subcarriers"),
                         ("stripes", "num_antennas")]:
        folder = tmp_path / key
        folder.mkdir()
        path = _canonical_with(folder, lambda cfg: cfg[section].update({key: 10**400}))
        assert cli(["bounds", "--bandwidth", "1e7", "--scenario", path]) == 1
        assert f"{section}.{key}: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("waveform", "subcarriers"), ("stripes", "num_antennas")])
@pytest.mark.parametrize("value", [0, 4097, 10**7])
def test_loader_refuses_count_out_of_range(section, key, value, tmp_path, capsys):
    path = _canonical_with(tmp_path, lambda cfg: cfg[section].update({key: value}))
    message = f"{section}.{key}: expected an integer in [1, 4096]"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        load_scenario(path)
    assert cli(["bounds", "--bandwidth", "1e7", "--scenario", path]) == 1
    assert message in capsys.readouterr().err


def test_optional_numeric_fields_default(tmp_path):
    def drop(cfg):
        del cfg["waveform"]["temperature_k"]
        cfg["materials"]["concrete"] = {"eps_r": 6.0}

    sc = resolve_scenario(_canonical_with(tmp_path, drop))
    assert sc.waveform.temperature == 290.0
    assert (sc.materials["concrete"].mu_r, sc.materials["concrete"].sigma) == (1.0, 0.0)


def test_simulate_without_out_exits_1(capsys):
    assert cli(["simulate"]) == 1
    assert "--out" in capsys.readouterr().err


def test_numerical_failure_exits_2(monkeypatch, capsys):
    def boom(*a, **k):
        raise SearchFailure("no cells")

    monkeypatch.setattr(cli_mod, "run_monte_carlo", boom)
    assert cli(["estimate"]) == 2
    assert "SearchFailure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_estimation_refuses_ncp_sync_exits_1(command, capsys):
    argv = [command, "--scenario", "estimation", "--sdnr", "20", "--sync", "ncp"]
    assert cli(argv) == 1
    assert "one phase offset shared by all stripes" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli(["--help"]) == 0
    assert "bounds" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# subcommand output
# ---------------------------------------------------------------------------


def test_selftest_passes(capsys):
    assert cli(["selftest"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines and all(l.startswith("ok ") for l in lines)


def test_bounds_csv_shape(capsys):
    assert cli(["bounds", "--bandwidth", "1e7", "--sync", "cp"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ",".join(BOUNDS_COLUMNS)
    assert len(lines) == 1 + 4  # one bandwidth, one sync mode, four cases


def test_bounds_json_parses(capsys):
    assert cli(["bounds", "--bandwidth", "1e7,1e8", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2 * 2 * 4
    assert {r["sync"] for r in rows} == {"cp", "ncp"}


def test_bounds_sweep_shrinks_with_bandwidth(capsys):
    # coarse shape check of the bandwidth sweep: at high bandwidth the
    # delay information makes the position bound much smaller
    assert (
        cli(["bounds", "--sync", "cp", "--bandwidth", "1e6:1e9:log5", "--scenario", "canonical"])
        == 0
    )
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    cols = dict(zip(BOUNDS_COLUMNS, range(len(BOUNDS_COLUMNS))))
    lrs = [l.split(",") for l in lines if l.split(",")[cols["case"]] == "LRS"]
    pebs = [float(r[cols["peb_m"]]) for r in lrs]
    assert len(pebs) == 5
    assert pebs[-1] < pebs[0]


def test_simulate_csv_dump(tmp_path):
    out = tmp_path / "obs.csv"
    assert cli(["simulate", "--scenario", "estimation", "--seed", "3", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "stripe,antenna,subcarrier,re,im"


def test_simulate_json_dump(tmp_path):
    out = tmp_path / "obs.json"
    assert (
        cli(
            [
                "simulate",
                "--scenario",
                "estimation",
                "--seed",
                "3",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert len(payload) == 4  # stripes
    Y0 = np.array(payload[0]["re"]) + 1j * np.array(payload[0]["im"])
    assert Y0.shape == (8, 20)


def test_estimate_csv_layout(tmp_path):
    out = tmp_path / "run.txt"
    code = cli(
        [
            "estimate",
            "--scenario",
            "estimation",
            "--sdnr",
            "20",
            "--trials",
            "1",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("# records\n")
    records_part, summary_part = text.split("# summary\n")
    records = [json.loads(l) for l in records_part.strip().split("\n")[1:]]
    assert [r["stage"] for r in records] == ["RML-NCP", "RML", "NST", "JML"]
    assert summary_part.split("\n")[0] == ",".join(METRICS_COLUMNS)


def test_estimate_deterministic(capsys):
    argv = ["estimate", "--scenario", "estimation", "--sdnr", "20", "--trials", "1", "--seed", "7"]
    assert cli(argv) == 0
    first = capsys.readouterr().out
    assert cli(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_sweep_csv_summary_only(capsys):
    code = cli(
        ["sweep", "--scenario", "estimation", "--sdnr", "20", "--trials", "1", "--seed", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert len(lines) == 1 + 4 * 4  # stages x metrics


def test_heatmap_csv(capsys):
    assert cli(["heatmap", "--scenario", "estimation", "--sync", "cp"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x_m,y_m,peb_m"
    assert len(lines) == 1 + 21 * 21
