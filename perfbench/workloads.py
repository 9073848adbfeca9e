"""The benchmark's workloads: the inputs each one generates from its seed.

Set-up is the work a user does before the pipeline runs: generate the
enterprise and its competency map with `twindex.synth` and write them with
`twindex.io_formats`. The program under test only ever sees the written files.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from twindex import (
    CompetencyMap,
    GeneratorConfig,
    Intervention,
    ProcessSpec,
    default_processes,
    generate_competency_map,
    generate_enterprise,
)
from twindex import io_formats as iof

NAMES = ("long_history", "wide_masked")
# Seconds one loop iteration takes on a 2-vCPU x86-64 host, end-to-end loop
# (--trace 0) and per-layer loop (--trace 1). A run makes
# round(seconds / ITERATION_S) iterations, so the sample count depends on the
# workload and --seconds only, never on how fast the program is.
ITERATION_S = {"long_history": (2.5, 8.5), "wide_masked": (2.0, 5.5)}
K = 12
BUDGET = 6_000_000.0
# cost files for the boosted regime (a) and the base regime (b), thousand rubles
COSTS = {
    "a": {"regime": "boosted", "base_cost": 5_000_000.0, "install_cost": 150_000.0,
          "activation_cost": 524_251.0},
    "b": {"regime": "base", "base_cost": 5_000_000.0, "install_cost": 0.0,
          "activation_cost": 0.0},
}


@dataclass(frozen=True)
class Inputs:
    """Files one workload's pipeline reads, plus the arrays they were written from."""

    k: int
    reduction: str
    events: Path
    map: Path
    scenario: Path
    cost: dict[str, Path]
    header: str                    # expected event CSV header
    values: np.ndarray             # regime b event grid as generated
    channel_names: list[str]
    mask: np.ndarray


def _scaled(counts: tuple[int, ...]) -> tuple[ProcessSpec, ...]:
    return tuple(dataclasses.replace(p, channel_count=c) for p, c in zip(default_processes(), counts))


def _recurring(name: str, channels: tuple[str, ...], every: int, periods: int, delta: float):
    return [
        Intervention(name=f"{name} {i + 1}", start=s, duration=6, channels=channels,
                     delta_per_period=delta)
        for i, s in enumerate(range(1, periods - 5, every))
    ]


def _fixed_cells(config: GeneratorConfig, n: int, cells: int) -> CompetencyMap:
    """synth's competencies with exactly `cells` channels per competency, so the
    masked signal width (and so the engine's work) is the same for every seed."""
    cmap = generate_competency_map(config, n)
    rng = np.random.default_rng([config.seed, 1])
    order = np.argsort(rng.random((cmap.m, n)), axis=1)
    mask = np.zeros((cmap.m, n), dtype=int)
    np.put_along_axis(mask, order[:, :cells], 1, axis=1)
    return dataclasses.replace(cmap, mask=mask)


def generate(name: str, seed: int, out: Path, tiny: bool, span) -> Inputs:
    """Generate and write one workload's inputs under `out`. `span(name)` is a
    context manager that times the named layer call."""
    out.mkdir(parents=True, exist_ok=True)
    if name == "long_history":
        periods = 120 if tiny else 6000
        config = GeneratorConfig(seed=seed, periods=periods,
                                 processes=_scaled((4, 3, 5) if tiny else (33, 25, 42)),
                                 competency_count=6 if tiny else 30)
        channels = ("logging/1", "river delivery/1", "round-wood production/1")
        interventions = _recurring("hire", channels, 30 if tiny else 120, periods, 150.0)
        reduction, cells = "aggregate", None
    elif name == "wide_masked":
        periods = 60 if tiny else 1200
        fixed = ProcessSpec("fixed costs", 2 if tiny else 6, 400.0, 0.0, 0.0)
        config = GeneratorConfig(seed=seed, periods=periods,
                                 processes=_scaled((3, 3, 3) if tiny else (18, 18, 18)) + (fixed,),
                                 competency_count=4 if tiny else 30)
        interventions = _recurring("payroll", ("fixed costs/1", "fixed costs/2"), 12, periods, 35.0)
        reduction, cells = "masked", 5 if tiny else 22
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")

    with span("synth.generate"):
        events = generate_enterprise(config)
        cmap = (generate_competency_map(config, events.n_channels) if cells is None
                else _fixed_cells(config, events.n_channels, cells))
    with span("io_formats.write_events"):
        events_text = iof.write_event_csv(events)
    (out / "events.csv").write_text(events_text)
    with span("io_formats.write_map"):
        map_text = iof.competency_map_to_json(cmap)
    (out / "map.json").write_text(map_text)
    with span("io_formats.write_scenario"):
        scenario_text = iof.scenario_to_json(interventions)
    (out / "scenario.json").write_text(scenario_text)
    cost = {}
    for regime, body in COSTS.items():
        cost[regime] = out / f"cost_{regime}.json"
        cost[regime].write_text(json.dumps(body))

    labels = events.channel_labels
    return Inputs(
        k=K, reduction=reduction,
        events=out / "events.csv", map=out / "map.json", scenario=out / "scenario.json", cost=cost,
        header="t," + ",".join(f"{c.name}:{c.process}" for c in labels),
        values=events.values, channel_names=[c.name for c in labels], mask=cmap.mask,
    )
