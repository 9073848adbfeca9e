"""One iteration of the regime-comparison pipeline, as CLI commands and in-process.

An iteration is `scenario` -> `indicate` (regime a, the boosted events) ->
`indicate` (regime b, the base events) -> `compare --json` with cost files and
a budget -> `plot-data`.
`Replay` calls the same public functions the CLI commands call, in the same
order, so the difference between the two is process start, imports and click.
"""

from __future__ import annotations

import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

from twindex import (
    CostReport,
    WindowSpec,
    apply_scenario,
    bind_competencies,
    compare_regimes,
    indicator_series,
)
from twindex import io_formats as iof

from reference import Checker
from workloads import BUDGET, Inputs

MODE, STARTUP = "standardized", "skip"
_EVALUATED = re.compile(r"evaluated (\d+) periods")


def cli_steps(inp: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    """(step, twindex CLI arguments) for one iteration writing under `out`."""
    def indicate(events, series):
        return ["indicate", "--events", str(events), "--map", str(inp.map), "--k", str(inp.k),
                "--mode", MODE, "--startup", STARTUP, "--reduction", inp.reduction,
                "--out", str(out / series)]
    steps = [
        ("scenario", ["scenario", "--events", str(inp.events), "--scenario", str(inp.scenario),
                      "--out", str(out / "boosted.csv")]),
        ("indicate_a", indicate(out / "boosted.csv", "series_a.csv")),
        ("indicate_b", indicate(inp.events, "series_b.csv")),
        ("compare", ["compare", "--series-a", str(out / "series_a.csv"),
                     "--series-b", str(out / "series_b.csv"),
                     "--cost-a", str(inp.cost["a"]), "--cost-b", str(inp.cost["b"]),
                     "--budget", repr(BUDGET), "--json"]),
        ("plot_data", ["plot-data", "--series", str(out / "series_a.csv"), "--precision", "2",
                       "--out", str(out / "plot.csv")]),
    ]
    return steps


def check_step(step: str, out: Path, stdout: str | None, checker: Checker) -> str | None:
    """Check the output of one step; `stdout` is None for in-process indicate steps."""
    if step == "scenario":
        return checker.events((out / "boosted.csv").read_bytes())
    if step in ("indicate_a", "indicate_b"):
        regime = step[-1]
        text = (out / f"series_{regime}.csv").read_text()
        if stdout is not None:
            m = _EVALUATED.search(stdout)
            if m is None or int(m.group(1)) != len(checker.expected.anchors):
                return f"indicate {regime}: summary line {stdout.strip()!r}"
        return checker.series(text, regime)
    if step == "compare":
        return checker.comparison(stdout)
    return checker.plot((out / "plot.csv").read_text())


class Replay:
    """The pipeline's steps in-process, with a span around each layer call."""

    def __init__(self, inp: Inputs, out: Path, tracer):
        self.inp, self.out, self.tracer = inp, out, tracer
        self.bytes_read = self.bytes_written = 0
        self.series_shapes: list[tuple[int, int]] = []   # (windows, p) per indicate

    def _read(self, path: Path) -> str:
        data = Path(path).read_bytes()
        self.bytes_read += len(data)
        return data.decode()

    def _write(self, path: Path, text: str) -> None:
        data = text.encode()
        self.bytes_written += len(data)
        path.write_bytes(data)

    def iteration(self, iteration_id) -> dict[str, str | None]:
        """Run every step once; return each step's stdout equivalent for the checks."""
        self.bytes_read = self.bytes_written = 0
        self.series_shapes = []
        self.tracer.iteration = iteration_id
        span = self.tracer.span
        outputs = {}
        with span("iteration"):
            with span("command.scenario"):
                self.scenario()
            outputs["scenario"] = None
            with span("command.indicate"):
                self.indicate(self.out / "boosted.csv", "series_a.csv")
            outputs["indicate_a"] = None
            with span("command.indicate"):
                self.indicate(self.inp.events, "series_b.csv")
            outputs["indicate_b"] = None
            with span("command.compare"):
                outputs["compare"] = self.compare()
            with span("command.plot_data"):
                self.plot_data()
            outputs["plot_data"] = None
        self.tracer.iteration = None
        return outputs

    def scenario(self) -> None:
        span = self.tracer.span
        with span("io_formats.parse_events"):
            events = iof.parse_event_csv(self._read(self.inp.events))
        with span("io_formats.parse_scenario"):
            overlay = iof.scenario_from_json(self._read(self.inp.scenario))
        with span("regimes.apply_scenario"):
            result = apply_scenario(events, overlay)
        with span("io_formats.write_events"):
            text = iof.write_event_csv(result)
        self._write(self.out / "boosted.csv", text)

    def _signal(self, events_path: Path):
        span = self.tracer.span
        with span("io_formats.parse_events"):
            events = iof.parse_event_csv(self._read(events_path))
        with span("io_formats.parse_map"):
            cmap = iof.competency_map_from_json(self._read(self.inp.map))
        cmap = dataclasses.replace(cmap, reduction_mode=self.inp.reduction)
        with span("model.bind"):
            return bind_competencies(events, cmap)

    def indicate(self, events_path: Path, series_name: str) -> None:
        span = self.tracer.span
        signal = self._signal(events_path)
        spec = WindowSpec(k=self.inp.k, mode=MODE, startup=STARTUP)
        with span("indicator.series"):
            series = indicator_series(signal, spec)
        self.series_shapes.append((len(series), signal.p))
        with span("io_formats.write_series"):
            text = iof.write_indicator_csv(series)
        self._write(self.out / series_name, text)

    def _cost(self, regime: str) -> CostReport:
        data = json.loads(self._read(self.inp.cost[regime]))
        return CostReport(
            regime_name=data["regime"], base_cost=float(data["base_cost"]),
            install_cost=float(data["install_cost"]),
            activation_cost=float(data["activation_cost"]), budget=BUDGET,
        )

    def compare(self) -> str:
        span = self.tracer.span
        with span("io_formats.parse_series"):
            sa = iof.parse_indicator_csv(self._read(self.out / "series_a.csv"))
        with span("io_formats.parse_series"):
            sb = iof.parse_indicator_csv(self._read(self.out / "series_b.csv"))
        cost_a, cost_b = self._cost("a"), self._cost("b")
        with span("regimes.compare"):
            cmp = compare_regimes(sa.total, sb.total, cost_a=cost_a, cost_b=cost_b,
                                  name_a="series_a", name_b="series_b")
        with span("io_formats.comparison_json"):
            return iof.comparison_to_json(cmp)

    def plot_data(self) -> None:
        span = self.tracer.span
        with span("io_formats.parse_series"):
            series = iof.parse_indicator_csv(self._read(self.out / "series_a.csv"))
        with span("io_formats.plot_data"):
            text = iof.emit_plot_data(series, 2)
        self._write(self.out / "plot.csv", text)

    def indicator_peak_alloc_mb(self) -> float:
        """Peak bytes tracemalloc sees during `indicator_series`, over both regimes.

        Run on its own: tracemalloc slows the engine several-fold, so it never
        overlaps a timed span.
        """
        peak = 0
        for events_path in (self.out / "boosted.csv", self.inp.events):
            signal = self._signal(events_path)
            spec = WindowSpec(k=self.inp.k, mode=MODE, startup=STARTUP)
            tracemalloc.start()
            try:
                indicator_series(signal, spec)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 2**20
