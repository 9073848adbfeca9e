import numpy as np
import pytest

from twindex import (
    WindowSpec,
    channel_indicator,
    correlation_matrix,
    indicator_series,
    window_slice,
)
from twindex.errors import (
    DegenerateWindow,
    IndexOutOfRange,
    InsufficientHistory,
)
from twindex.indicator import CorrelationMatrix, WindowMatrix

from conftest import random_signal


# -- independent oracles ------------------------------------------------------

def oracle_raw_matrix(window):
    """Element-by-element double loop: r_ij = (1/(k-1)) sum_l w[l,i] w[l,j]."""
    k, p = window.shape
    r = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            acc = 0.0
            for l in range(k):
                acc += window[l, i] * window[l, j]
            r[i, j] = acc / (k - 1)
    return r


def oracle_standardized_matrix(window):
    """z-score columns (divisor k-1) then the same double loop; constant
    columns give a zero row/column."""
    k, p = window.shape
    z = np.zeros((k, p))
    dead = []
    for j in range(p):
        col = window[:, j]
        mean = sum(col) / k
        var = sum((v - mean) ** 2 for v in col) / (k - 1)
        if var == 0.0:
            dead.append(j)
        else:
            z[:, j] = (col - mean) / var**0.5
    r = oracle_raw_matrix(z)
    for j in dead:
        r[j, :] = 0.0
        r[:, j] = 0.0
    return r


def oracle_series_total(signal, spec):
    """Naive per-t recomposition of slice + matrix + row sums."""
    total = 0.0
    first = int(signal.periods[0])
    start = first + spec.k if spec.startup == "skip" else first + 2
    for t in range(start, int(signal.periods[-1]) + 1):
        w = window_slice(signal, t, spec)
        r = correlation_matrix(w, spec.mode)
        for i in range(signal.p):
            total += channel_indicator(r, i)
    return total


# -- window_slice -------------------------------------------------------------

class TestWindowSlice:
    def test_lag_order(self):
        rng = np.random.default_rng(0)
        sig = random_signal(rng, 10, 2)
        w = window_slice(sig, 8, WindowSpec(k=3))
        assert w.rows.shape == (3, 2)
        # rows are t=7, 6, 5 in that order (grid row t-1)
        np.testing.assert_array_equal(w.rows, sig.values[[6, 5, 4], :])
        assert w.anchor == 8

    def test_skip_insufficient(self):
        sig = random_signal(np.random.default_rng(0), 10, 2)
        with pytest.raises(InsufficientHistory):
            window_slice(sig, 3, WindowSpec(k=5, startup="skip"))

    def test_skip_boundary_exact(self):
        sig = random_signal(np.random.default_rng(0), 10, 2)
        assert window_slice(sig, 6, WindowSpec(k=5)).rows.shape == (5, 2)
        with pytest.raises(InsufficientHistory):
            window_slice(sig, 5, WindowSpec(k=5))

    def test_grow_partial(self):
        sig = random_signal(np.random.default_rng(0), 10, 2)
        w = window_slice(sig, 3, WindowSpec(k=5, startup="grow"))
        assert w.rows.shape == (2, 2)
        np.testing.assert_array_equal(w.rows, sig.values[[1, 0], :])

    def test_grow_too_short(self):
        sig = random_signal(np.random.default_rng(0), 10, 2)
        with pytest.raises(InsufficientHistory):
            window_slice(sig, 2, WindowSpec(k=5, startup="grow"))

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(k=1)


# -- correlation_matrix -------------------------------------------------------

class TestCorrelationMatrix:
    def test_raw_all_ones(self):
        w = WindowMatrix(rows=np.ones((5, 3)), anchor=9)
        r = correlation_matrix(w, "raw")
        np.testing.assert_allclose(r.entries, 1.25)

    def test_standardized_perfect_anticorrelation(self):
        col = np.array([1.0, 2.0, 4.0, 3.0])
        w = WindowMatrix(rows=np.column_stack([col, -col]), anchor=5)
        r = correlation_matrix(w, "standardized").entries
        np.testing.assert_allclose(r, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_standardized_constant_column_zeroed(self):
        rng = np.random.default_rng(5)
        w = np.column_stack([rng.normal(size=6), np.full(6, 3.7), rng.normal(size=6)])
        r = correlation_matrix(WindowMatrix(rows=w, anchor=7), "standardized").entries
        assert (r[1, :] == 0.0).all() and (r[:, 1] == 0.0).all()
        assert r[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_raw_matches_oracle(self):
        rng = np.random.default_rng(42)
        w = rng.normal(10, 4, size=(4, 3))
        got = correlation_matrix(WindowMatrix(rows=w, anchor=5), "raw").entries
        np.testing.assert_allclose(got, oracle_raw_matrix(w), atol=1e-12)

    def test_standardized_matches_oracle(self):
        rng = np.random.default_rng(43)
        w = rng.normal(0, 2, size=(4, 3))
        got = correlation_matrix(WindowMatrix(rows=w, anchor=5), "standardized").entries
        np.testing.assert_allclose(got, oracle_standardized_matrix(w), atol=1e-12)

    def test_degenerate_window(self):
        with pytest.raises(DegenerateWindow):
            correlation_matrix(WindowMatrix(rows=np.ones((1, 2)), anchor=2), "raw")


# -- channel_indicator --------------------------------------------------------

class TestChannelIndicator:
    def test_hand_sum(self):
        r = CorrelationMatrix(entries=np.array([[1.0, 0.5], [0.5, 1.0]]), anchor=1, mode="raw")
        assert channel_indicator(r, 0) == pytest.approx(1.5)

    def test_zero_matrix(self):
        r = CorrelationMatrix(entries=np.zeros((3, 3)), anchor=1, mode="raw")
        assert channel_indicator(r, 1) == 0.0

    def test_absolute_values(self):
        r = CorrelationMatrix(
            entries=np.array([[1.0, -0.3, 0.2]] * 3), anchor=1, mode="raw"
        )
        assert channel_indicator(r, 0) == pytest.approx(1.5)

    def test_index_out_of_range(self):
        r = CorrelationMatrix(entries=np.eye(2), anchor=1, mode="raw")
        with pytest.raises(IndexOutOfRange):
            channel_indicator(r, 2)


# -- indicator_series / total -------------------------------------------------

class TestIndicatorSeries:
    def test_skip_period_count(self):
        sig = random_signal(np.random.default_rng(1), 57, 3)
        series = indicator_series(sig, WindowSpec(k=12, startup="skip"))
        assert len(series) == 45
        assert series.times[0] == 13 and series.times[-1] == 57

    def test_grow_starts_at_three(self):
        sig = random_signal(np.random.default_rng(1), 20, 3)
        series = indicator_series(sig, WindowSpec(k=12, startup="grow"))
        assert series.times[0] == 3 and series.times[-1] == 20

    def test_constant_signal_standardized_all_zero(self):
        from conftest import make_events, make_map
        from twindex import bind_competencies
        events = make_events(np.full((30, 4), 7.5))
        sig = bind_competencies(events, make_map(np.eye(4, dtype=int)))
        series = indicator_series(sig, WindowSpec(k=6, mode="standardized"))
        assert (series.values == 0.0).all()
        assert series.total == 0.0

    def test_matches_naive_composition(self):
        sig = random_signal(np.random.default_rng(2), 40, 4)
        spec = WindowSpec(k=8, mode="standardized")
        series = indicator_series(sig, spec)
        assert series.total == pytest.approx(oracle_series_total(sig, spec), rel=1e-12)

    def test_too_short_series(self):
        sig = random_signal(np.random.default_rng(2), 5, 2)
        with pytest.raises(InsufficientHistory):
            indicator_series(sig, WindowSpec(k=12, startup="skip"))

    def test_nonnegative_values(self):
        sig = random_signal(np.random.default_rng(9), 30, 5)
        for mode in ("raw", "standardized"):
            series = indicator_series(sig, WindowSpec(k=6, mode=mode))
            assert (series.values >= 0.0).all()

    def test_period_sums_consistent(self):
        sig = random_signal(np.random.default_rng(9), 30, 5)
        series = indicator_series(sig, WindowSpec(k=6))
        np.testing.assert_allclose(series.period_sums, series.values.sum(axis=1), atol=1e-12)
