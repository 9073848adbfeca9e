"""Enterprise event model, Bloom taxonomy schema, and competency binding.

The event model is a T_max x n grid of per-period money amounts (thousand
rubles), one column per tracked event channel.  A competency map is a binary
m x n mask saying which channels evidence which staff competency; binding the
map onto the events yields the multichannel signal the indicator engine
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyModel,
    EmptySignal,
    InvalidValue,
    NonFiniteValue,
    TimeAxisGap,
    UnknownCompetency,
    UnknownTaxonomyLevel,
)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ChannelLabel:
    name: str
    process: str = "unassigned"


@dataclass(frozen=True)
class EventMatrix:
    """Validated T_max x n grid of event values with a 1..T_max time axis."""

    periods: np.ndarray          # int array, 1..T_max
    values: np.ndarray           # float array, shape (T_max, n)
    channel_labels: tuple[ChannelLabel, ...]

    @property
    def t_max(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    @property
    def channel_names(self) -> list[str]:
        return [c.name for c in self.channel_labels]

    def channel_index(self, name: str) -> int:
        for i, c in enumerate(self.channel_labels):
            if c.name == name:
                return i
        raise KeyError(name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventMatrix):
            return NotImplemented
        return (
            self.channel_labels == other.channel_labels
            and np.array_equal(self.periods, other.periods)
            and np.array_equal(self.values, other.values)
        )


def validate_event_matrix(
    values,
    channel_labels: list[ChannelLabel] | list[str] | None = None,
    periods=None,
) -> EventMatrix:
    """Validate a candidate event grid into an EventMatrix.

    Re-validating an already valid matrix is the identity.  The time axis must
    be consecutive integers starting at 1; every cell must be finite.
    """
    if isinstance(values, EventMatrix):
        return validate_event_matrix(values.values, list(values.channel_labels), values.periods)

    grid = np.asarray(values, dtype=float)
    if grid.ndim != 2 or grid.shape[0] == 0 or grid.shape[1] == 0:
        raise EmptyModel(f"event grid must be T_max x n with T_max, n >= 1, got shape {grid.shape}")
    t_max, n = grid.shape

    if periods is None:
        axis = np.arange(1, t_max + 1)
    else:
        axis = np.asarray(periods)
        if axis.shape != (t_max,):
            raise TimeAxisGap(f"time column length {axis.shape} does not match {t_max} rows")
        if not np.array_equal(axis, np.arange(1, t_max + 1)):
            raise TimeAxisGap(f"time axis must be consecutive 1..{t_max}, got {axis.tolist()[:8]}...")
        axis = axis.astype(int)

    bad = np.argwhere(~np.isfinite(grid))
    if bad.size:
        r, c = bad[0]
        raise NonFiniteValue(t=int(axis[r]), channel=int(c) + 1)

    if channel_labels is None:
        labels = tuple(ChannelLabel(f"ch{j + 1}") for j in range(n))
    else:
        labels = tuple(
            c if isinstance(c, ChannelLabel) else ChannelLabel(str(c)) for c in channel_labels
        )
        if len(labels) != n:
            raise DimensionMismatch(f"{len(labels)} channel labels for {n} channels")

    return EventMatrix(periods=_frozen(axis), values=_frozen(grid), channel_labels=labels)


# -- Bloom taxonomy -----------------------------------------------------------

@dataclass(frozen=True)
class Taxonomy:
    """Three-domain goal system; level names per domain are ordered and unique."""

    domains: tuple[str, ...]
    levels: dict[str, tuple[str, ...]] = field(compare=True)

    def __post_init__(self):
        if len(self.domains) != 3:
            raise ValueError(f"taxonomy needs exactly three domains, got {len(self.domains)}")
        for d in self.domains:
            lv = self.levels.get(d, ())
            if len(set(lv)) != len(lv) or not lv:
                raise ValueError(f"domain {d!r} must list unique, nonempty levels")

    def has(self, domain: str, level: str) -> bool:
        return level in self.levels.get(domain, ())


def default_taxonomy() -> Taxonomy:
    """Editable default; level wording in the source material is loose, so this
    is shipped as data, not hard-coded truth."""
    return Taxonomy(
        domains=("cognitive", "affective", "psychomotor"),
        levels={
            "cognitive": (
                "knowledge", "comprehension", "application",
                "analysis", "synthesis", "evaluation",
            ),
            "affective": ("receiving", "reacting", "value orientations", "organization"),
            "psychomotor": ("imitation", "control", "accuracy", "articulation", "naturalization"),
        },
    )


@dataclass(frozen=True)
class Competency:
    id: str
    name: str
    domain: str
    level: str
    activation_cost: float = 0.0  # thousand rubles, one-time

    def __post_init__(self):
        if self.activation_cost < 0:
            raise InvalidValue(f"activation_cost must be >= 0, got {self.activation_cost}")


@dataclass(frozen=True)
class CompetencyMap:
    """m competencies with a binary m x n mask onto event channels."""

    competencies: tuple[Competency, ...]
    mask: np.ndarray               # shape (m, n), entries exactly 0 or 1
    reduction_mode: str = "aggregate"   # or "masked"

    def __post_init__(self):
        mask = np.asarray(self.mask)
        if mask.ndim != 2 or mask.shape[0] == 0:
            raise DimensionMismatch(f"mask must be m x n with m >= 1, got shape {mask.shape}")
        if not np.isin(mask, (0, 1)).all():
            raise InvalidValue("mask entries must be exactly 0 or 1")
        if mask.shape[0] != len(self.competencies):
            raise DimensionMismatch(
                f"{len(self.competencies)} competencies but mask has {mask.shape[0]} rows"
            )
        if self.reduction_mode not in ("aggregate", "masked"):
            raise InvalidValue(f"unknown reduction_mode {self.reduction_mode!r}")
        object.__setattr__(self, "mask", _frozen(mask.astype(int)))

    @property
    def m(self) -> int:
        return self.mask.shape[0]

    @property
    def n(self) -> int:
        return self.mask.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompetencyMap):
            return NotImplemented
        return (
            self.competencies == other.competencies
            and self.reduction_mode == other.reduction_mode
            and np.array_equal(self.mask, other.mask)
        )


def classify_competency(comp_id: str, cmap: CompetencyMap, tax: Taxonomy) -> tuple[str, str]:
    """Resolve a competency's (domain, level) against the taxonomy."""
    for c in cmap.competencies:
        if c.id == comp_id:
            if not tax.has(c.domain, c.level):
                raise UnknownTaxonomyLevel(f"({c.domain!r}, {c.level!r}) not in taxonomy")
            return (c.domain, c.level)
    raise UnknownCompetency(comp_id)


# -- binding ------------------------------------------------------------------

@dataclass(frozen=True)
class CompetencySignal:
    """Signal the indicator engine consumes: T_max x p with per-channel provenance.

    Aggregate mode: p = m, channel i is the masked row sum over event channels.
    Masked mode: one channel per nonzero mask cell (i, j).
    """

    periods: np.ndarray
    values: np.ndarray             # shape (T_max, p)
    channel_names: tuple[str, ...]
    provenance: tuple[tuple[tuple[str, str], ...], ...]  # per channel: (competency id, event channel)

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def t_max(self) -> int:
        return self.values.shape[0]


def bind_competencies(events: EventMatrix, cmap: CompetencyMap) -> CompetencySignal:
    """Project events through the competency mask.

    Aggregate: u_i(t) = sum_j mask[i, j] * x_j(t).
    Masked: one channel per 1-cell, valued mask[i, j] * x_j(t).
    """
    if cmap.n != events.n_channels:
        raise DimensionMismatch(
            f"mask has {cmap.n} columns but event matrix has {events.n_channels} channels"
        )
    names = events.channel_names
    if cmap.reduction_mode == "aggregate":
        sig = events.values @ cmap.mask.T.astype(float)
        ch_names = tuple(c.id for c in cmap.competencies)
        prov = tuple(
            tuple((cmap.competencies[i].id, names[j]) for j in np.flatnonzero(cmap.mask[i]))
            for i in range(cmap.m)
        )
    else:
        cells = np.argwhere(cmap.mask == 1)
        if cells.size == 0:
            raise EmptySignal("masked mode requires at least one nonzero mask cell")
        sig = events.values[:, cells[:, 1]].astype(float)
        ch_names = tuple(
            f"{cmap.competencies[i].id}:{names[j]}" for i, j in cells
        )
        prov = tuple(((cmap.competencies[i].id, names[j]),) for i, j in cells)
    return CompetencySignal(
        periods=events.periods,
        values=_frozen(sig),
        channel_names=ch_names,
        provenance=prov,
    )
