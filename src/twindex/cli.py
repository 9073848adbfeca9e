"""Command-line pipeline orchestrator.

Subcommands: simulate, indicate, total, compare, scenario, plot-data.
Every flag can also come from a JSON file via --from-config; explicit
command-line flags override file values.  Exit codes: 0 success,
1 validation/parse error, 2 usage error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click

from . import io_formats as iof
from .errors import TwindexError
from .indicator import WindowSpec, indicator_series
from .model import bind_competencies
from .regimes import apply_scenario, compare_regimes
from .synth import generate_competency_map, generate_enterprise

_INPUT_ERRORS = (TwindexError, FileNotFoundError, json.JSONDecodeError)


def _merge_from_config(ctx: click.Context, from_config: str | None) -> None:
    """Fill parameters not given on the command line from a JSON object in a
    file, each value converted by its option's click type."""
    if from_config is None:
        return
    try:
        data = json.loads(Path(from_config).read_text())
    except ValueError as err:
        raise click.UsageError(f"config file {from_config} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise click.UsageError(f"config file {from_config} must hold a JSON object")
    params = {param.name: param for param in ctx.command.params}
    for key, value in data.items():
        name = key.replace("-", "_")
        if name not in params:
            raise click.UsageError(f"unknown option {key!r} in config file {from_config}")
        src = ctx.get_parameter_source(name)
        if src is not None and src.name == "COMMANDLINE":
            continue
        ctx.params[name] = params[name].type_cast_value(ctx, value)


def _require(ctx: click.Context, **flag_names: str) -> None:
    missing = [flag for param, flag in flag_names.items() if ctx.params.get(param) is None]
    if missing:
        raise click.UsageError("missing required option(s): " + ", ".join(missing))


def _fail(err: Exception) -> None:
    click.echo(f"error: {err}", err=True)
    sys.exit(1)


from_config_option = click.option(
    "--from-config", type=click.Path(exists=True, dir_okay=False), default=None,
    help="JSON file supplying defaults for this subcommand's flags.",
)


@click.group()
def main() -> None:
    """Digital-twin event model, correlation indicator, and regime comparison."""


@main.command()
@click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None,
              help="Generator config JSON.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Output events CSV.")
@click.option("--map-out", "map_out", default=None, type=click.Path(dir_okay=False),
              help="Also emit the generated competency map JSON.")
@from_config_option
@click.pass_context
def simulate(ctx, config_path, out_path, map_out, from_config) -> None:
    """Generate a seeded synthetic enterprise event matrix (and optional map)."""
    _merge_from_config(ctx, from_config)
    _require(ctx, config_path="--config", out_path="--out")
    p = ctx.params
    try:
        config = iof.generator_config_from_json(Path(p["config_path"]).read_text())
        events = generate_enterprise(config)
        Path(p["out_path"]).write_text(iof.write_event_csv(events))
        if p["map_out"]:
            cmap = generate_competency_map(config, events.n_channels)
            Path(p["map_out"]).write_text(iof.competency_map_to_json(cmap))
    except _INPUT_ERRORS as err:
        _fail(err)
    click.echo(f"wrote {events.t_max} periods x {events.n_channels} channels to {p['out_path']}")


@main.command()
@click.option("--events", "events_path", type=click.Path(dir_okay=False), default=None)
@click.option("--map", "map_path", type=click.Path(dir_okay=False), default=None)
@click.option("--k", type=int, default=12, show_default=True, help="Window length in periods.")
@click.option("--mode", type=click.Choice(["raw", "standardized"]), default="standardized",
              show_default=True)
@click.option("--startup", type=click.Choice(["skip", "grow"]), default="skip", show_default=True)
@click.option("--reduction", type=click.Choice(["aggregate", "masked"]), default="aggregate",
              show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@from_config_option
@click.pass_context
def indicate(ctx, events_path, map_path, k, mode, startup, reduction, out_path, from_config) -> None:
    """Bind a competency map onto events and compute the indicator series."""
    _merge_from_config(ctx, from_config)
    _require(ctx, events_path="--events", map_path="--map", out_path="--out")
    p = ctx.params
    try:
        events = iof.parse_event_csv(Path(p["events_path"]).read_text())
        cmap = iof.competency_map_from_json(Path(p["map_path"]).read_text())
        cmap = dataclasses.replace(cmap, reduction_mode=p["reduction"])
        signal = bind_competencies(events, cmap)
        spec = WindowSpec(k=p["k"], mode=p["mode"], startup=p["startup"])
        series = indicator_series(signal, spec)
        Path(p["out_path"]).write_text(iof.write_indicator_csv(series))
    except _INPUT_ERRORS as err:
        _fail(err)
    click.echo(
        f"evaluated {len(series)} periods (t={series.times[0]}..{series.times[-1]}), "
        f"grand total {iof.round_half_away(series.total, 2)}"
    )


@main.command()
@click.option("--series", "series_path", type=click.Path(dir_okay=False), default=None)
@from_config_option
@click.pass_context
def total(ctx, series_path, from_config) -> None:
    """Print the grand total of an indicator series CSV."""
    _merge_from_config(ctx, from_config)
    _require(ctx, series_path="--series")
    try:
        series = iof.parse_indicator_csv(Path(ctx.params["series_path"]).read_text())
    except _INPUT_ERRORS as err:
        _fail(err)
    value = series.total
    click.echo(iof.round_half_away(value, 2))
    if series.declared_total is not None and abs(value - series.declared_total) > 0.5:
        click.echo(
            f"warning: declared total {series.declared_total} differs from "
            f"recomputed {value!r} by more than 0.5", err=True,
        )


@main.command()
@click.option("--series-a", type=click.Path(dir_okay=False), default=None)
@click.option("--series-b", type=click.Path(dir_okay=False), default=None)
@click.option("--cost-a", default=None, type=click.Path(dir_okay=False))
@click.option("--cost-b", default=None, type=click.Path(dir_okay=False))
@click.option("--budget", type=float, default=float("inf"))
@click.option("--json", "as_json", is_flag=True, help="Emit machine-readable JSON.")
@from_config_option
@click.pass_context
def compare(ctx, series_a, series_b, cost_a, cost_b, budget, as_json, from_config) -> None:
    """Compare two regimes by total indicator and cost."""
    _merge_from_config(ctx, from_config)
    _require(ctx, series_a="--series-a", series_b="--series-b")
    p = ctx.params
    try:
        sa = iof.parse_indicator_csv(Path(p["series_a"]).read_text())
        sb = iof.parse_indicator_csv(Path(p["series_b"]).read_text())
        cost_a, cost_b = (
            None if p[key] is None
            else iof.cost_report_from_json(Path(p[key]).read_text(), name, p["budget"])
            for key, name in (("cost_a", "a"), ("cost_b", "b"))
        )
        cmp = compare_regimes(
            sa.total, sb.total, cost_a=cost_a, cost_b=cost_b,
            name_a=Path(p["series_a"]).stem, name_b=Path(p["series_b"]).stem,
        )
    except _INPUT_ERRORS as err:
        _fail(err)
    click.echo(iof.comparison_to_json(cmp) if p["as_json"] else iof.write_report(cmp), nl=False)


@main.command()
@click.option("--events", "events_path", type=click.Path(dir_okay=False), default=None)
@click.option("--scenario", "scenario_path", type=click.Path(dir_okay=False), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@from_config_option
@click.pass_context
def scenario(ctx, events_path, scenario_path, out_path, from_config) -> None:
    """Apply timed additive interventions to an event matrix."""
    _merge_from_config(ctx, from_config)
    _require(ctx, events_path="--events", scenario_path="--scenario", out_path="--out")
    p = ctx.params
    try:
        events = iof.parse_event_csv(Path(p["events_path"]).read_text())
        overlay = iof.scenario_from_json(Path(p["scenario_path"]).read_text())
        result = apply_scenario(events, overlay)
        Path(p["out_path"]).write_text(iof.write_event_csv(result))
    except _INPUT_ERRORS as err:
        _fail(err)
    click.echo(f"applied {len(overlay)} intervention(s), wrote {p['out_path']}")


@main.command(name="plot-data")
@click.option("--series", "series_path", type=click.Path(dir_okay=False), default=None)
@click.option("--precision", type=int, default=2, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@from_config_option
@click.pass_context
def plot_data(ctx, series_path, precision, out_path, from_config) -> None:
    """Emit rounded t,V plot data for external plotting tools."""
    _merge_from_config(ctx, from_config)
    _require(ctx, series_path="--series", out_path="--out")
    p = ctx.params
    try:
        series = iof.parse_indicator_csv(Path(p["series_path"]).read_text())
        Path(p["out_path"]).write_text(iof.emit_plot_data(series, p["precision"]))
    except _INPUT_ERRORS as err:
        _fail(err)
    click.echo(f"wrote {len(series)} data rows to {p['out_path']}")


if __name__ == "__main__":
    main()
