"""Exchange formats: strict CSV for matrices/series, JSON for nested structures.

CSV contract: UTF-8, LF line endings, '.' decimal separator, ',' field
separator, header first.  Event channel headers may carry a business-process
tag as `name:process`.  All floats are serialized with repr so parse(write(x))
round-trips bit-exactly; rounding happens only in plot emission.
"""

from __future__ import annotations

import json
import re
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import MalformedHeader, MalformedNumber, NonMonotonicTime, TwindexError
from .indicator import IndicatorSeries
from .model import (
    ChannelLabel,
    Competency,
    CompetencyMap,
    EventMatrix,
    Taxonomy,
    _frozen,
    validate_event_matrix,
)
from .regimes import Comparison, CostReport, Intervention
from .synth import GeneratorConfig, ProcessSpec

_NUMBER_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def _split_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _field_column(fields: list[str], idx: int) -> int:
    # 1-based character offset of field idx within its line
    return sum(len(f) + 1 for f in fields[:idx]) + 1


def _parse_float(fields: list[str], idx: int, line_no: int) -> float:
    raw = fields[idx].strip()
    if not _NUMBER_RE.match(raw):
        raise MalformedNumber(
            f"cannot parse {raw!r} as a number ('.' decimal separator required)",
            line=line_no, column=_field_column(fields, idx),
        )
    return float(raw)


def _keys(obj, *keys: str, at: str = ""):
    """obj, once it is a JSON object holding every one of `keys`; else a
    TwindexError naming the JSON path (`at` + key) of the first one missing."""
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise TwindexError(f"missing required key {at}{key}")
    return obj


def _entries(data: dict, name: str, *keys: str) -> list[dict]:
    """The objects of the list `data[name]`, each checked by `_keys`."""
    return [_keys(obj, *keys, at=f"{name}[{i}].") for i, obj in enumerate(data[name])]


def _parse_int(fields: list[str], idx: int, line_no: int) -> int:
    raw = fields[idx].strip()
    if not _INT_RE.match(raw):
        raise MalformedNumber(
            f"cannot parse {raw!r} as an integer", line=line_no, column=_field_column(fields, idx)
        )
    return int(raw)


# -- event matrices -----------------------------------------------------------

def parse_event_csv(text: str) -> EventMatrix:
    """Parse `t,<ch1>,<ch2>,...` into a validated EventMatrix."""
    lines = _split_lines(text)
    if not lines:
        raise MalformedHeader("empty input", line=1)
    header = lines[0].split(",")
    if header[0].strip() != "t":
        raise MalformedHeader(f"first column must be 't', got {header[0]!r}", line=1, column=1)
    if len(header) < 2:
        raise MalformedHeader("no channel columns declared", line=1)
    labels = {}
    for idx, cell in enumerate(header[1:], start=1):
        name, sep, proc = cell.strip().partition(":")
        if name in labels:
            raise MalformedHeader(f"duplicate channel name {name!r}", line=1,
                                  column=_field_column(header, idx))
        labels[name] = ChannelLabel(name=name, process=proc if sep else "unassigned")

    periods, rows = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise MalformedNumber(
                f"expected {len(header)} fields, got {len(fields)}", line=line_no
            )
        periods.append(_parse_int(fields, 0, line_no))
        rows.append([_parse_float(fields, j, line_no) for j in range(1, len(fields))])
    return validate_event_matrix(
        np.array(rows, dtype=float), list(labels.values()), periods=np.array(periods)
    )


def write_event_csv(events: EventMatrix) -> str:
    cells = [
        c.name if c.process == "unassigned" else f"{c.name}:{c.process}"
        for c in events.channel_labels
    ]
    out = ["t," + ",".join(cells)]
    for r, t in enumerate(events.periods):
        out.append(str(int(t)) + "," + ",".join(repr(float(v)) for v in events.values[r]))
    return "\n".join(out) + "\n"


# -- indicator series (Table-1 shape) -----------------------------------------

def parse_indicator_csv(text: str) -> IndicatorSeries:
    """Parse `t,V` rows, optionally closed by a `Total,<value>` row, into a
    one-channel series."""
    lines = _split_lines(text)
    if not lines:
        raise MalformedHeader("empty input", line=1)
    header = [c.strip() for c in lines[0].split(",")]
    if header[:2] != ["t", "V"]:
        raise MalformedHeader(f"header must start 't,V', got {lines[0]!r}", line=1)

    times: list[int] = []
    values: list[float] = []
    declared = None
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) < 2:
            raise MalformedNumber(f"expected at least 2 fields, got {len(fields)}", line=line_no)
        if fields[0].strip() == "Total":
            declared = _parse_float(fields, 1, line_no)
            if line_no != len(lines):
                raise NonMonotonicTime("Total row must be last", line=line_no)
            break
        t = _parse_int(fields, 0, line_no)
        if times and t <= times[-1]:
            raise NonMonotonicTime(
                f"time must be strictly increasing, got {t} after {times[-1]}", line=line_no
            )
        times.append(t)
        values.append(_parse_float(fields, 1, line_no))
    return IndicatorSeries(
        times=_frozen(np.array(times, dtype=int)),
        values=_frozen(np.array(values, dtype=float).reshape(-1, 1)),
        channel_names=("V",),
        declared_total=declared,
    )


def write_indicator_csv(series: IndicatorSeries, total_row: bool = True) -> str:
    out = ["t,V"]
    for t, v in zip(series.times.tolist(), series.period_sums.tolist()):
        out.append(f"{t},{v!r}")
    if total_row:
        out.append(f"Total,{series.total!r}")
    return "\n".join(out) + "\n"


# -- plot data ----------------------------------------------------------------

def round_half_away(value: float, places: int) -> str:
    """Decimal string rounded half-away-from-zero, e.g. 1.005 -> '1.01'."""
    q = Decimal(1).scaleb(-places)
    return str(Decimal(repr(float(value))).quantize(q, rounding=ROUND_HALF_UP))


def emit_plot_data(series: IndicatorSeries, precision: int = 2) -> str:
    """CSV `t,V` of the period sums, rounded half-away-from-zero for external
    plotting tools."""
    out = ["t,V"]
    for t, v in zip(series.times.tolist(), series.period_sums.tolist()):
        out.append(f"{t},{round_half_away(v, precision)}")
    return "\n".join(out) + "\n"


# -- competency maps, taxonomies, scenarios, configs (JSON) -------------------

def competency_map_to_json(cmap: CompetencyMap) -> str:
    return json.dumps(
        {
            "reduction_mode": cmap.reduction_mode,
            "competencies": [
                {
                    "id": c.id, "name": c.name, "domain": c.domain,
                    "level": c.level, "activation_cost": c.activation_cost,
                }
                for c in cmap.competencies
            ],
            "mask": cmap.mask.tolist(),
        },
        indent=2,
    )


def competency_map_from_json(text: str) -> CompetencyMap:
    data = _keys(json.loads(text), "competencies", "mask")
    comps = tuple(
        Competency(
            id=c["id"], name=c.get("name", c["id"]), domain=c["domain"],
            level=c["level"], activation_cost=float(c.get("activation_cost", 0.0)),
        )
        for c in _entries(data, "competencies", "id", "domain", "level")
    )
    return CompetencyMap(
        competencies=comps,
        mask=np.array(data["mask"], dtype=int),
        reduction_mode=data.get("reduction_mode", "aggregate"),
    )


def taxonomy_to_json(tax: Taxonomy) -> str:
    return json.dumps(
        {"domains": list(tax.domains), "levels": {d: list(v) for d, v in tax.levels.items()}},
        indent=2,
    )


def taxonomy_from_json(text: str) -> Taxonomy:
    data = json.loads(text)
    return Taxonomy(
        domains=tuple(data["domains"]),
        levels={d: tuple(v) for d, v in data["levels"].items()},
    )


def scenario_to_json(scenario: list[Intervention]) -> str:
    return json.dumps(
        {
            "interventions": [
                {
                    "name": iv.name, "start": iv.start, "duration": iv.duration,
                    "channels": list(iv.channels), "delta_per_period": iv.delta_per_period,
                }
                for iv in scenario
            ]
        },
        indent=2,
    )


def scenario_from_json(text: str) -> list[Intervention]:
    data = _keys(json.loads(text), "interventions")
    return [
        Intervention(
            name=iv["name"], start=int(iv["start"]), duration=int(iv["duration"]),
            channels=tuple(iv["channels"]), delta_per_period=float(iv["delta_per_period"]),
        )
        for iv in _entries(data, "interventions",
                           "name", "start", "duration", "channels", "delta_per_period")
    ]


def generator_config_to_json(config: GeneratorConfig) -> str:
    return json.dumps(
        {
            "seed": config.seed,
            "periods": config.periods,
            "processes": [
                {
                    "name": p.name, "channel_count": p.channel_count,
                    "base_level": p.base_level, "seasonal_amplitude": p.seasonal_amplitude,
                    "noise_level": p.noise_level,
                }
                for p in config.processes
            ],
            "map_density": config.map_density,
            "competency_count": config.competency_count,
        },
        indent=2,
    )


def generator_config_from_json(text: str) -> GeneratorConfig:
    data = _keys(json.loads(text), "seed")
    kwargs = {"seed": int(data["seed"])}
    if "periods" in data:
        kwargs["periods"] = int(data["periods"])
    if "processes" in data:
        kwargs["processes"] = tuple(
            ProcessSpec(
                name=p["name"], channel_count=int(p["channel_count"]),
                base_level=float(p["base_level"]),
                seasonal_amplitude=float(p.get("seasonal_amplitude", 0.0)),
                noise_level=float(p.get("noise_level", 0.0)),
            )
            for p in _entries(data, "processes", "name", "channel_count", "base_level")
        )
    if "map_density" in data:
        kwargs["map_density"] = float(data["map_density"])
    if "competency_count" in data:
        kwargs["competency_count"] = int(data["competency_count"])
    return GeneratorConfig(**kwargs)


# -- comparison report --------------------------------------------------------

def _cost_dict(report: CostReport | None):
    if report is None:
        return None
    return {
        "regime": report.regime_name,
        "base_cost": report.base_cost,
        "install_cost": report.install_cost,
        "activation_cost": report.activation_cost,
        "total_cost": report.total_cost,
        "budget": report.budget,
        "within_budget": report.within_budget,
    }


def cost_report_from_json(text: str, name: str, budget: float) -> CostReport:
    """Read the keys `_cost_dict` writes; `regime` defaults to `name`, the
    costs to 0.0."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise TwindexError(f"cost file must hold a JSON object, got {type(data).__name__}")
    regime = data.get("regime", name)
    if not isinstance(regime, str):
        raise TwindexError(f"cost key 'regime' must be a string, got {regime!r}")
    costs = {}
    for key in ("base_cost", "install_cost", "activation_cost"):
        value = data.get(key, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TwindexError(f"cost key {key!r} must be a number, got {value!r}")
        costs[key] = float(value)
    return CostReport(regime_name=regime, budget=budget, **costs)


def comparison_to_json(cmp: Comparison) -> str:
    return json.dumps(
        {
            "regime_a": cmp.name_a,
            "regime_b": cmp.name_b,
            "total_a": cmp.total_a,
            "total_b": cmp.total_b,
            "delta": cmp.delta,
            "cost_a": _cost_dict(cmp.cost_a),
            "cost_b": _cost_dict(cmp.cost_b),
        },
        indent=2,
    )


def write_report(cmp: Comparison) -> str:
    """Human-readable regime comparison: totals, delta, costs, verdicts."""
    lines = [
        "Regime comparison",
        "=================",
        f"  {cmp.name_a}: total indicator {cmp.total_a!r} ({round_half_away(cmp.total_a, 2)})",
        f"  {cmp.name_b}: total indicator {cmp.total_b!r} ({round_half_away(cmp.total_b, 2)})",
        f"  delta: {cmp.delta!r} ({round_half_away(cmp.delta, 2)})",
    ]
    for rep in (cmp.cost_a, cmp.cost_b):
        if rep is None:
            continue
        verdict = "within budget" if rep.within_budget else "OVER BUDGET"
        lines.append(
            f"  cost[{rep.regime_name}]: base {rep.base_cost!r} + install {rep.install_cost!r}"
            f" + activation {rep.activation_cost!r} = {rep.total_cost!r}"
            f" ({round_half_away(rep.total_cost, 2)}) vs budget {rep.budget!r} -> {verdict}"
        )
    return "\n".join(lines) + "\n"
