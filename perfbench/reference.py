"""Independent reference for the indicator and the checks on every pipeline output.

Nothing here calls twindex: the scenario overlay, the competency binding and
the per-window Pearson correlation are recomputed from the generated arrays,
so a defect in the program's parsing, binding or engine shows as a mismatch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

REL_TOL = 1e-9
TABLE1_TOTAL = "5491.18"


def overlay(values: np.ndarray, names: list[str], interventions: list[dict]) -> np.ndarray:
    """Add each intervention's delta to its channels over its periods (t is 1-based)."""
    grid = values.copy()
    col = {name: j for j, name in enumerate(names)}
    for iv in interventions:
        rows = slice(iv["start"] - 1, iv["start"] - 1 + iv["duration"])
        for ch in iv["channels"]:
            grid[rows, col[ch]] += iv["delta_per_period"]
    return grid


def bind(values: np.ndarray, mask: np.ndarray, reduction: str) -> np.ndarray:
    """Aggregate: one channel per competency (masked row sum); masked: one per 1-cell."""
    if reduction == "aggregate":
        return values @ mask.T.astype(float)
    rows, cols = np.nonzero(mask)
    return values[:, cols]


def window_stats(signal: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Per-anchor sum of |Pearson r| over all channel pairs, and the live channel-window count.

    Anchor t (1-based) uses rows t-1..t-k, so the first anchor is k+1. A channel
    is live in a window only if its max differs from its min (exactly) and its
    sum of squared deviations is positive; a dead channel's row and column,
    diagonal included, contribute 0.
    """
    t_max, _ = signal.shape
    sums = np.empty(t_max - k)
    live_total = 0
    for i, end in enumerate(range(k, t_max)):
        w = signal[end - k:end]
        dev = w - w.mean(axis=0)
        ss = (dev * dev).sum(axis=0)
        live = (w.max(axis=0) != w.min(axis=0)) & (ss > 0.0)
        z = dev[:, live] / np.sqrt(ss[live])
        sums[i] = np.abs(z.T @ z).sum()
        live_total += int(live.sum())
    return sums, live_total


@dataclass
class Expected:
    """What a correct run of one workload must produce."""

    k: int
    t_max: int
    header: str                    # event CSV header line
    boosted: np.ndarray            # regime a event values after the scenario
    period_sums: dict[str, np.ndarray]   # regime -> per-anchor sums
    cost: dict[str, dict]          # regime -> cost JSON written for it
    budget: float

    @property
    def anchors(self) -> np.ndarray:
        return np.arange(self.k + 1, self.t_max + 1)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1.0)


@dataclass
class Checker:
    """Checks pipeline outputs against an Expected; returns a reason string or None."""

    expected: Expected
    _verified_events: set = field(default_factory=set)

    def events(self, data: bytes) -> str | None:
        digest = hashlib.sha256(data).digest()
        if digest in self._verified_events:
            return None
        exp = self.expected
        lines = data.decode().split("\n")
        if lines[0] != exp.header or lines[-1] != "":
            return "scenario output: header or trailing newline differs"
        rows = np.array([ln.split(",") for ln in lines[1:-1]], dtype=float)
        if rows.shape != (exp.t_max, exp.boosted.shape[1] + 1):
            return f"scenario output: shape {rows.shape}"
        if not np.array_equal(rows[:, 0], np.arange(1, exp.t_max + 1)):
            return "scenario output: time column differs"
        if not np.array_equal(rows[:, 1:], exp.boosted):
            return "scenario output: values differ from the reference overlay"
        self._verified_events.add(digest)
        return None

    def series(self, text: str, regime: str) -> str | None:
        lines = text.split("\n")
        if lines[0] != "t,V" or lines[-1] != "" or not lines[-2].startswith("Total,"):
            return f"series {regime}: header, Total row or trailing newline missing"
        body = np.array([ln.split(",") for ln in lines[1:-2]], dtype=float).reshape(-1, 2)
        exp = self.expected
        want = exp.period_sums[regime]
        if not np.array_equal(body[:, 0], exp.anchors):
            return f"series {regime}: anchors differ"
        bad = np.abs(body[:, 1] - want) > REL_TOL * np.maximum(np.abs(want), 1.0)
        if bad.any():
            t = int(body[np.argmax(bad), 0])
            return f"series {regime}: period sum at t={t} differs from the reference"
        if not _close(float(lines[-2].split(",")[1]), float(want.sum())):
            return f"series {regime}: Total differs from the reference"
        return None

    def comparison(self, text: str) -> str | None:
        cmp = json.loads(text)
        exp = self.expected
        if cmp["delta"] != cmp["total_a"] - cmp["total_b"]:
            return "compare: delta is not total_a - total_b"
        for regime in ("a", "b"):
            if not _close(cmp[f"total_{regime}"], float(exp.period_sums[regime].sum())):
                return f"compare: total_{regime} differs from the reference"
            want, got = exp.cost[regime], cmp[f"cost_{regime}"]
            total = want["base_cost"] + want["install_cost"] + want["activation_cost"]
            if got["total_cost"] != total or got["within_budget"] != (total <= exp.budget):
                return f"compare: cost_{regime} differs from the cost file"
        return None

    def plot(self, text: str) -> str | None:
        lines = text.split("\n")
        exp = self.expected
        if lines[0] != "t,V" or lines[-1] != "" or len(lines) - 2 != len(exp.anchors):
            return f"plot-data: {len(lines) - 2} rows for {len(exp.anchors)} periods"
        body = np.array([ln.split(",") for ln in lines[1:-1]], dtype=float)
        want = exp.period_sums["a"]
        if not np.array_equal(body[:, 0], exp.anchors):
            return "plot-data: anchors differ"
        if (np.abs(body[:, 1] - want) > 0.005 + REL_TOL * np.abs(want)).any():
            return "plot-data: rounded values differ from the reference"
        return None

    @staticmethod
    def table1_total(printed: str) -> str | None:
        first = printed.split("\n", 1)[0].strip()
        return None if first == TABLE1_TOTAL else f"total: printed {first!r}, want {TABLE1_TOTAL}"
