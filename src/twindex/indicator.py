"""Sliding-window correlation indicator engine.

For each evaluated period t the lagged window of the signal (the k x p array
of rows t-1..t-k) is reduced to a p x p array, and each channel's indicator is
the row sum of absolute entries.  Two matrix modes ship:

  raw           (1/(k-1)) * W^T W, the literal inner-product average;
  standardized  the same applied to within-window z-scores, i.e. Pearson
                correlation; zero-variance channels get an all-zero row and
                column, diagonal included.

The total is the correctly rounded sum of the per-period sums of the
per-channel indicators.  An incremental O(p^2)-per-step path is provided
alongside the naive per-window computation and must agree with it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWindow, DimensionMismatch, InsufficientHistory, InvalidValue
from .model import CompetencySignal, _frozen

MODES = ("raw", "standardized")
STARTUPS = ("skip", "grow")
# below this sample std a column's squared deviations come near the subnormal
# range, where they lose precision
_TINY_SD = 1e-150


@dataclass(frozen=True)
class WindowSpec:
    k: int
    mode: str = "standardized"
    startup: str = "skip"

    def __post_init__(self):
        if self.k < 2:
            raise InvalidValue(f"window length k must be >= 2, got {self.k}")
        if self.mode not in MODES:
            raise InvalidValue(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.startup not in STARTUPS:
            raise InvalidValue(f"startup must be one of {STARTUPS}, got {self.startup!r}")

    @property
    def min_depth(self) -> int:
        """Lagged rows an anchor needs: k under skip, 2 (so k-1 >= 1) under grow."""
        return self.k if self.startup == "skip" else 2


def correlation_matrix(w: np.ndarray, mode: str = "standardized") -> np.ndarray:
    """Reduce a k x p window (row r holds lag r + 1) to a p x p matrix.

    raw: (1/(k-1)) W^T W.  standardized: z-score each column (mean removed,
    sample std with divisor k-1) then the same product; constant columns yield
    an all-zero row/column.
    """
    w = np.asarray(w, dtype=float)
    k = w.shape[0]
    if k < 2:
        raise DegenerateWindow(f"window has {k} rows, need >= 2")
    if mode == "raw":
        r = (w.T @ w) / (k - 1)
    elif mode == "standardized":
        # constancy is decided exactly (max == min): the sample std of a
        # constant column can compute to a tiny nonzero value in fp; a column
        # whose variance underflows to 0 is likewise treated as dead
        mean = w.mean(axis=0)
        sd = w.std(axis=0, ddof=1)
        live = (w.max(axis=0) != w.min(axis=0)) & (sd > 0.0)
        z = np.zeros_like(w)
        z[:, live] = (w[:, live] - mean[live]) / sd[live]
        tiny = live & (sd < _TINY_SD)
        if tiny.any():
            # imprecise squared deviations can push |r| past 1; scaling by a
            # power of two is exact and leaves the z-scores unchanged
            wt = w[:, tiny]
            wt = np.ldexp(wt, -np.frexp(np.abs(wt).max(axis=0))[1])
            z[:, tiny] = (wt - wt.mean(axis=0)) / wt.std(axis=0, ddof=1)
        r = (z.T @ z) / (k - 1)
        # dead channels carry no co-movement signal: zero the whole row/column
        r[~live, :] = 0.0
        r[:, ~live] = 0.0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return r


@dataclass(frozen=True)
class IndicatorSeries:
    """Per-period per-channel indicator values.

    A parsed `t,V` file is the one-channel case: channel ("V",), with the
    value of its optional `Total` row as `declared_total`.
    """

    times: np.ndarray            # evaluated anchors, ascending
    values: np.ndarray           # shape (len(times), p)
    channel_names: tuple[str, ...]
    declared_total: float | None = None

    @property
    def period_sums(self) -> np.ndarray:
        return self.values.sum(axis=1)

    @property
    def total(self) -> float:
        """Correctly rounded sum of the period sums, so a written `t,V` file
        re-totals to the same bits."""
        return math.fsum(self.period_sums)

    def __len__(self) -> int:
        return len(self.times)


def indicator_series(signal: CompetencySignal, spec: WindowSpec) -> IndicatorSeries:
    """Evaluate every anchor from first + min_depth on, ascending; the window
    of anchor t is the rows t-1, t-2, ... (at most k of them), lag 1 first."""
    first_t = int(signal.periods[0])
    last_t = int(signal.periods[-1])
    start = first_t + spec.min_depth
    if start > last_t:
        raise InsufficientHistory(
            f"series of {signal.t_max} periods admits no window (k={spec.k}, {spec.startup})"
        )
    out = np.empty((last_t + 1 - start, signal.p))
    for row, prior in enumerate(range(spec.min_depth, last_t + 1 - first_t)):
        w = np.ascontiguousarray(signal.values[max(prior - spec.k, 0):prior][::-1])
        out[row, :] = np.abs(correlation_matrix(w, spec.mode)).sum(axis=1)
    return IndicatorSeries(
        times=_frozen(np.arange(start, last_t + 1)),
        values=_frozen(out),
        channel_names=signal.channel_names,
    )


class IncrementalWindow:
    """Rolling accumulators for the sliding window: O(p^2) per advance.

    Maintains the last k rows, their column sums, and the running sum of outer
    products; each advance adds the new row's outer product and subtracts the
    expired one, so the emitted matrix equals full recomputation (the expired
    contribution is removed exactly as it was added).
    """

    def __init__(self, spec: WindowSpec, p: int):
        self.spec = spec
        self.p = p
        self._rows: deque[np.ndarray] = deque()
        self._col_sum = np.zeros(p)
        self._outer_sum = np.zeros((p, p))

    def advance(self, new_row) -> np.ndarray | None:
        """Consume the next period's row; emit the matrix of anchor rows
        consumed + 1 (time origin 1), or None while history is short."""
        row = np.asarray(new_row, dtype=float)
        if row.shape != (self.p,):
            raise DimensionMismatch(f"expected row of {self.p} entries, got shape {row.shape}")
        self._rows.append(row)
        self._col_sum += row
        self._outer_sum += np.outer(row, row)
        if len(self._rows) > self.spec.k:
            old = self._rows.popleft()
            self._col_sum -= old
            self._outer_sum -= np.outer(old, old)

        k = len(self._rows)
        if k < self.spec.min_depth:
            return None
        if self.spec.mode == "raw":
            r = self._outer_sum / (k - 1)
        else:
            buf = np.array(self._rows)
            # same exact constancy rule as the naive path
            live = buf.max(axis=0) != buf.min(axis=0)
            mean = self._col_sum / k
            cov = (self._outer_sum - k * np.outer(mean, mean)) / (k - 1)
            var = np.diag(cov).copy()
            var[var <= 0] = 1.0  # dead or cancelled columns are zeroed below
            sd = np.sqrt(var)
            live &= np.diag(cov) > 0
            r = np.zeros((self.p, self.p))
            denom = np.outer(sd[live], sd[live])
            r[np.ix_(live, live)] = cov[np.ix_(live, live)] / denom
        return r

