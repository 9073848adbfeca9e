"""Management regimes: scenario overlays, budget audit, regime comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, OutOfRange, UnknownChannel
from .model import CompetencyMap, EventMatrix, _frozen


@dataclass(frozen=True)
class Intervention:
    """Timed additive overlay on event channels, e.g. hiring staff at period 7
    for six periods.  Dismissal is implicit in the duration ending."""

    name: str
    start: int
    duration: int
    channels: tuple[str, ...]
    delta_per_period: float

    def __post_init__(self):
        if self.start < 1:
            raise OutOfRange(f"intervention {self.name!r}: start must be >= 1, got {self.start}")
        if self.duration < 1:
            raise OutOfRange(f"intervention {self.name!r}: duration must be >= 1")
        if not self.channels:
            raise UnknownChannel(f"intervention {self.name!r}: no target channels")


def apply_scenario(events: EventMatrix, scenario: list[Intervention]) -> EventMatrix:
    """Apply additive overlays; overlaps sum, untouched cells are bit-identical."""
    if not scenario:
        return events
    grid = events.values.copy()
    for iv in scenario:
        end = iv.start + iv.duration - 1
        if end > events.t_max:
            raise OutOfRange(
                f"intervention {iv.name!r} spans t={iv.start}..{end}, axis ends at {events.t_max}"
            )
        for ch in iv.channels:
            try:
                j = events.channel_index(ch)
            except KeyError:
                raise UnknownChannel(f"intervention {iv.name!r}: no channel {ch!r}") from None
            grid[iv.start - 1 : end, j] += iv.delta_per_period
    return EventMatrix(
        periods=events.periods, values=_frozen(grid), channel_labels=events.channel_labels
    )


@dataclass(frozen=True)
class Regime:
    """Named operating mode: events + competency map + install cost."""

    name: str
    events: EventMatrix
    map: CompetencyMap
    install_cost: float = 0.0

    def __post_init__(self):
        if self.install_cost < 0:
            raise ValueError("install_cost must be >= 0")
        if self.map.n != self.events.n_channels:
            raise DimensionMismatch(
                f"map has {self.map.n} columns, events have {self.events.n_channels} channels"
            )


@dataclass(frozen=True)
class CostReport:
    regime_name: str
    base_cost: float
    install_cost: float
    activation_cost: float
    budget: float
    total_cost: float = field(init=False)
    within_budget: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "total_cost", self.base_cost + self.install_cost + self.activation_cost
        )
        object.__setattr__(self, "within_budget", self.total_cost <= self.budget)


def audit_budget(regime: Regime, base_cost: float, budget: float) -> CostReport:
    """Total cost = base + install + activation cost of every competency with
    at least one active mask cell (priced once per capability, not per cell)."""
    if base_cost < 0 or budget < 0:
        raise ValueError("base_cost and budget must be >= 0")
    active = np.flatnonzero(regime.map.mask.any(axis=1))
    activation = float(sum(regime.map.competencies[i].activation_cost for i in active))
    return CostReport(
        regime_name=regime.name,
        base_cost=float(base_cost),
        install_cost=float(regime.install_cost),
        activation_cost=activation,
        budget=float(budget),
    )


@dataclass(frozen=True)
class Comparison:
    name_a: str
    name_b: str
    total_a: float
    total_b: float
    delta: float
    cost_a: CostReport | None = None
    cost_b: CostReport | None = None


def compare_regimes(
    total_a: float,
    total_b: float,
    cost_a: CostReport | None = None,
    cost_b: CostReport | None = None,
    name_a: str = "a",
    name_b: str = "b",
) -> Comparison:
    """Pair two regime totals; delta = total_a - total_b."""
    if not (math.isfinite(total_a) and math.isfinite(total_b)):
        raise NonFiniteInput(f"totals must be finite, got {total_a}, {total_b}")
    return Comparison(
        name_a=name_a,
        name_b=name_b,
        total_a=float(total_a),
        total_b=float(total_b),
        delta=float(total_a) - float(total_b),
        cost_a=cost_a,
        cost_b=cost_b,
    )
