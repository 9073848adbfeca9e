import numpy as np
import pytest

from twindex import WindowSpec, correlation_matrix, indicator_series
from twindex.errors import DegenerateWindow, InsufficientHistory

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
    """Naive per-t recomposition of explicitly indexed lag window + matrix +
    per-channel sums of |r_ij|."""
    total = 0.0
    first = int(signal.periods[0])
    for t in range(first + spec.min_depth, int(signal.periods[-1]) + 1):
        # grid rows of t-1, t-2, ..., at most k of them
        idx = [t - lag - first for lag in range(1, min(spec.k, t - first) + 1)]
        r = correlation_matrix(signal.values[idx, :], spec.mode)
        for i in range(signal.p):
            total += float(np.abs(r[i, :]).sum())
    return total


def oracle_row(signal, spec, rows):
    """Row sums of |r| on the window of the given grid rows (lag 1 first)."""
    return np.abs(correlation_matrix(signal.values[rows, :], spec.mode)).sum(axis=1)


# -- correlation_matrix -------------------------------------------------------

class TestCorrelationMatrix:
    def test_raw_all_ones(self):
        r = correlation_matrix(np.ones((5, 3)), "raw")
        np.testing.assert_allclose(r, 1.25)

    def test_standardized_perfect_anticorrelation(self):
        col = np.array([1.0, 2.0, 4.0, 3.0])
        r = correlation_matrix(np.column_stack([col, -col]), "standardized")
        np.testing.assert_allclose(r, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_standardized_constant_column_zeroed(self):
        rng = np.random.default_rng(5)
        w = np.column_stack([rng.normal(size=6), np.full(6, 3.7), rng.normal(size=6)])
        r = correlation_matrix(w, "standardized")
        assert (r[1, :] == 0.0).all() and (r[:, 1] == 0.0).all()
        assert r[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_raw_matches_oracle(self):
        rng = np.random.default_rng(42)
        w = rng.normal(10, 4, size=(4, 3))
        got = correlation_matrix(w, "raw")
        np.testing.assert_allclose(got, oracle_raw_matrix(w), atol=1e-12)

    def test_standardized_matches_oracle(self):
        rng = np.random.default_rng(43)
        w = rng.normal(0, 2, size=(4, 3))
        got = correlation_matrix(w, "standardized")
        np.testing.assert_allclose(got, oracle_standardized_matrix(w), atol=1e-12)

    def test_degenerate_window(self):
        with pytest.raises(DegenerateWindow):
            correlation_matrix(np.ones((1, 2)), "raw")


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

    # window boundaries: each series row equals the row sums of
    # correlation_matrix on the explicitly indexed lag window
    def test_lag_order(self):
        sig = random_signal(np.random.default_rng(0), 10, 2)
        spec = WindowSpec(k=3)
        series = indicator_series(sig, spec)
        # anchor t=8 reads t=7, 6, 5 in that order (grid row t-1)
        assert series.times[4] == 8
        np.testing.assert_array_equal(series.values[4], oracle_row(sig, spec, [6, 5, 4]))

    def test_skip_insufficient(self):
        sig = random_signal(np.random.default_rng(0), 10, 2)
        series = indicator_series(sig, WindowSpec(k=5, startup="skip"))
        assert series.times.tolist() == list(range(6, 11))  # no anchor before k lags

    def test_skip_boundary_exact(self):
        sig = random_signal(np.random.default_rng(0), 10, 2)
        spec = WindowSpec(k=5)
        series = indicator_series(sig, spec)
        assert series.times[0] == 6  # t=5 has only 4 lags
        np.testing.assert_array_equal(series.values[0], oracle_row(sig, spec, [4, 3, 2, 1, 0]))
        exact = random_signal(np.random.default_rng(0), 6, 2)
        assert indicator_series(exact, spec).times.tolist() == [6]
        with pytest.raises(InsufficientHistory):
            indicator_series(random_signal(np.random.default_rng(0), 5, 2), spec)

    def test_grow_partial(self):
        sig = random_signal(np.random.default_rng(0), 10, 2)
        spec = WindowSpec(k=5, startup="grow")
        series = indicator_series(sig, spec)
        # depth 2 at t=3, 3 at t=4, the full k from t=6 on
        assert series.times[0] == 3
        np.testing.assert_array_equal(series.values[0], oracle_row(sig, spec, [1, 0]))
        np.testing.assert_array_equal(series.values[1], oracle_row(sig, spec, [2, 1, 0]))
        np.testing.assert_array_equal(series.values[5], oracle_row(sig, spec, [6, 5, 4, 3, 2]))

    def test_grow_too_short(self):
        sig = random_signal(np.random.default_rng(0), 2, 2)
        with pytest.raises(InsufficientHistory):
            indicator_series(sig, WindowSpec(k=5, startup="grow"))

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(k=1)
