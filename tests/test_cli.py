import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from twindex.cli import main
from twindex.io_formats import parse_event_csv, parse_indicator_csv

DATA = Path(__file__).resolve().parent.parent / "data"

CONFIG = {
    "seed": 31,
    "periods": 57,
    "processes": [
        {"name": "logging", "channel_count": 3, "base_level": 2500.0,
         "seasonal_amplitude": 0.4, "noise_level": 120.0},
        {"name": "river delivery", "channel_count": 2, "base_level": 1800.0,
         "seasonal_amplitude": 0.6, "noise_level": 90.0},
        {"name": "round-wood production", "channel_count": 3, "base_level": 3200.0,
         "seasonal_amplitude": 0.2, "noise_level": 150.0},
    ],
    "map_density": 0.4,
    "competency_count": 6,
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workdir(tmp_path, runner):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    result = runner.invoke(main, [
        "simulate", "--config", str(tmp_path / "config.json"),
        "--out", str(tmp_path / "events.csv"), "--map-out", str(tmp_path / "map.json"),
    ])
    assert result.exit_code == 0, result.output
    return tmp_path


def test_simulate_writes_events_and_map(workdir):
    events = parse_event_csv((workdir / "events.csv").read_text())
    assert events.t_max == 57 and events.n_channels == 8
    data = json.loads((workdir / "map.json").read_text())
    assert len(data["competencies"]) == 6


def test_indicate_then_total(workdir, runner):
    result = runner.invoke(main, [
        "indicate", "--events", str(workdir / "events.csv"), "--map", str(workdir / "map.json"),
        "--k", "12", "--mode", "standardized", "--startup", "skip",
        "--reduction", "aggregate", "--out", str(workdir / "series.csv"),
    ])
    assert result.exit_code == 0, result.output
    series = parse_indicator_csv((workdir / "series.csv").read_text())
    assert len(series) == 45  # t = 13..57

    result = runner.invoke(main, ["total", "--series", str(workdir / "series.csv")])
    assert result.exit_code == 0
    assert float(result.output.strip()) == pytest.approx(series.total, abs=0.005)


def test_total_on_table1(runner):
    result = runner.invoke(main, ["total", "--series", str(DATA / "table1.csv")])
    assert result.exit_code == 0
    assert result.output.strip() == "5491.18"


def test_compare_reports_paper_delta(tmp_path, runner):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("t,V\n1,5491.18\n")
    b.write_text("t,V\n1,5069.93\n")
    result = runner.invoke(main, ["compare", "--series-a", str(a), "--series-b", str(b)])
    assert result.exit_code == 0
    assert "421.25" in result.output

    result = runner.invoke(main, ["compare", "--series-a", str(a), "--series-b", str(b), "--json"])
    data = json.loads(result.output)
    assert data["delta"] == pytest.approx(421.25)


def test_compare_with_costs_and_budget(tmp_path, runner):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,V\n1,10.0\n")
    b.write_text("t,V\n1,8.0\n")
    cost = tmp_path / "cost.json"
    cost.write_text(json.dumps({"base_cost": 5641442.0, "install_cost": 32809.0}))
    result = runner.invoke(main, [
        "compare", "--series-a", str(a), "--series-b", str(b),
        "--cost-a", str(cost), "--budget", "6000000", "--json",
    ])
    assert result.exit_code == 0, result.output
    data = json.loads(result.output)
    assert data["cost_a"]["total_cost"] == 5674251.0
    assert data["cost_a"]["within_budget"] is True


def test_scenario_command(workdir, runner):
    overlay = workdir / "scenario.json"
    overlay.write_text(json.dumps({"interventions": [
        {"name": "hire", "start": 7, "duration": 6,
         "channels": ["logging/1"], "delta_per_period": 100.0},
    ]}))
    result = runner.invoke(main, [
        "scenario", "--events", str(workdir / "events.csv"),
        "--scenario", str(overlay), "--out", str(workdir / "boosted.csv"),
    ])
    assert result.exit_code == 0, result.output
    before = parse_event_csv((workdir / "events.csv").read_text())
    after = parse_event_csv((workdir / "boosted.csv").read_text())
    j = before.channel_index("logging/1")
    assert (after.values[6:12, j] - before.values[6:12, j] == pytest.approx(100.0))


def test_plot_data_command(tmp_path, runner):
    out = tmp_path / "plot.csv"
    result = runner.invoke(main, [
        "plot-data", "--series", str(DATA / "table1.csv"), "--precision", "2", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,V"
    assert lines[1] == "1,110.67" and lines[-1] == "57,167.90"


def test_parse_error_exits_one(tmp_path, runner):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,a\n1,10\n")
    result = runner.invoke(main, ["total", "--series", str(bad)])
    assert result.exit_code == 1
    assert "error:" in result.output or "error:" in (result.stderr or "")


def test_usage_error_exits_two(runner):
    result = runner.invoke(main, ["total"])  # missing --series
    assert result.exit_code == 2


def test_flags_from_config_file_with_override(workdir, runner):
    flags = workdir / "flags.json"
    flags.write_text(json.dumps({
        "events_path": str(workdir / "events.csv"),
        "map_path": str(workdir / "map.json"),
        "k": 6,
        "out_path": str(workdir / "series6.csv"),
    }))
    result = runner.invoke(main, ["indicate", "--from-config", str(flags)])
    assert result.exit_code == 0, result.output
    assert len(parse_indicator_csv((workdir / "series6.csv").read_text())) == 51  # k=6 -> t=7..57

    # explicit flag overrides the file value
    result = runner.invoke(main, [
        "indicate", "--from-config", str(flags), "--k", "12",
        "--out", str(workdir / "series12.csv"),
    ])
    assert result.exit_code == 0, result.output
    assert len(parse_indicator_csv((workdir / "series12.csv").read_text())) == 45


def _assert_clean_failure(result, where, code=1):
    # an uncaught exception also gives exit code 1 under CliRunner; only a
    # SystemExit comes from the CLI's own error path; click prints a usage
    # error (exit 2) as "Error: ..."
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)
    output = result.output + (result.stderr or "")
    assert ("error:" if code == 1 else "Error:") in output and where in output
    assert "Traceback" not in output


@pytest.mark.parametrize("cost_text,where", [
    ('{"base_cost": "abc"}', "'base_cost'"),
    ("[1, 2]", "JSON object"),
], ids=["string-cost", "list-document"])
def test_malformed_cost_file_exits_one(tmp_path, runner, cost_text, where):
    a, b, cost = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "cost.json"
    a.write_text("t,V\n1,10.0\n")
    b.write_text("t,V\n1,8.0\n")
    cost.write_text(cost_text)
    result = runner.invoke(main, [
        "compare", "--series-a", str(a), "--series-b", str(b), "--cost-a", str(cost),
    ])
    _assert_clean_failure(result, where)


@pytest.mark.parametrize("command", ["total", "plot-data"])
@pytest.mark.parametrize("row", ["13", "Total"])
def test_series_row_without_value_exits_one(tmp_path, runner, command, row):
    series = tmp_path / "series.csv"
    series.write_text(f"t,V\n12,1.5\n{row}\n")
    out = ["--out", str(tmp_path / "plot.csv")] if command == "plot-data" else []
    result = runner.invoke(main, [command, "--series", str(series), *out])
    _assert_clean_failure(result, "(line 3)")


_EVENTS = "t,a,b\n1,1.0,2.0\n2,2.0,1.0\n3,4.0,3.0\n4,3.0,5.0\n"
_COMP = {"id": "c1", "domain": "cognitive", "level": "knowledge"}


def _map(comp=_COMP, mask=((1, 1),)):
    return json.dumps({"competencies": [comp], "mask": [list(row) for row in mask]})


def _indicate(*extra):
    return ["indicate", "--events", "events.csv", "--map", "map.json", "--out", "s.csv", *extra]


# valid inputs, each case overwrites the ones it breaks
_FILES = {"s.csv": "t,V\n1,10.0\n", "events.csv": _EVENTS, "map.json": _map(),
          "sc.json": '{"interventions": []}'}
_COMPARE = ["compare", "--series-a", "s.csv", "--series-b", "s.csv", "--from-config", "c.json"]


# (files written in the working directory, arguments, exit code, text the error names)
_BAD_INPUTS = {
    "config-k": ({"c.json": '{"k": "abc"}'}, _indicate("--from-config", "c.json"), 2, "'--k'"),
    "config-mode": ({"c.json": '{"mode": "bogus"}'}, _indicate("--from-config", "c.json"), 2,
                    "'--mode'"),
    "config-reduction": ({"c.json": '{"reduction": "weird"}'},
                         _indicate("--from-config", "c.json"), 2, "'--reduction'"),
    "config-precision": ({"c.json": '{"precision": "x"}'},
                         ["plot-data", "--series", "s.csv", "--out", "p.csv",
                          "--from-config", "c.json"], 2, "'--precision'"),
    "config-budget": ({"c.json": '{"budget": "lots"}'}, _COMPARE, 2, "'--budget'"),
    "config-not-json": ({"c.json": '{"k": 6,'}, _COMPARE, 2, "not valid JSON"),
    "config-list": ({"c.json": '["k", 6]'}, _COMPARE, 2, "JSON object"),
    "k-below-two": ({}, _indicate("--k", "1"), 1, "k must be >= 2"),
    "mask-entry-two": ({"map.json": _map(mask=((1, 2),))}, _indicate(), 1, "0 or 1"),
    "negative-activation-cost": ({"map.json": _map(comp={**_COMP, "activation_cost": -1})},
                                 _indicate(), 1, "activation_cost"),
    "map-without-domain": ({"map.json": _map(comp={"id": "c1", "level": "knowledge"})},
                           _indicate(), 1, "competencies[0].domain"),
    "scenario-without-start": (
        {"sc.json": json.dumps({"interventions": [
            {"name": "hire", "duration": 2, "channels": ["a"], "delta_per_period": 1.0}]})},
        ["scenario", "--events", "events.csv", "--scenario", "sc.json", "--out", "o.csv"],
        1, "interventions[0].start"),
    "generator-without-base-level": (
        {"g.json": json.dumps({"seed": 1, "processes": [{"name": "p", "channel_count": 2}]})},
        ["simulate", "--config", "g.json", "--out", "o.csv"], 1, "processes[0].base_level"),
    "duplicate-channel": (
        {"events.csv": "t,a,a\n1,1.0,2.0\n2,2.0,1.0\n"},
        ["scenario", "--events", "events.csv", "--scenario", "sc.json", "--out", "o.csv"],
        1, "(line 1, column 5)"),
}


@pytest.mark.parametrize("case", _BAD_INPUTS, ids=list(_BAD_INPUTS))
def test_bad_input_exits_cleanly(tmp_path, runner, monkeypatch, case):
    files, args, code, where = _BAD_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    for name, text in {**_FILES, **files}.items():
        (tmp_path / name).write_text(text)
    _assert_clean_failure(runner.invoke(main, args), where, code)
