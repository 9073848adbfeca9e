"""Property-based checks of the engine's algebraic invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twindex import WindowSpec, correlation_matrix, indicator_series

from conftest import random_signal

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def windows(min_rows=2, max_rows=12, max_cols=6):
    return st.integers(min_rows, max_rows).flatmap(
        lambda k: st.integers(1, max_cols).flatmap(
            lambda p: arrays(np.float64, (k, p), elements=finite)
        )
    )


@given(windows())
@settings(max_examples=150, deadline=None)
def test_symmetry_both_modes(w):
    for mode in ("raw", "standardized"):
        r = correlation_matrix(w, mode)
        assert np.abs(r - r.T).max() <= 1e-12


@given(windows())
@settings(max_examples=150, deadline=None)
# a live column whose squared deviations are subnormal
@example(np.array([[3.80508902e-159], [0.0], [0.0], [0.0], [0.0]]))
def test_standardized_bounds_and_diagonal(w):
    r = correlation_matrix(w, "standardized")
    assert np.abs(r).max() <= 1 + 1e-12
    # dead = constant column, or variance underflowed to exactly 0
    live = (w.max(axis=0) != w.min(axis=0)) & (w.std(axis=0, ddof=1) > 0.0)
    assert np.allclose(np.diag(r)[live], 1.0, atol=1e-12)
    assert (np.diag(r)[~live] == 0.0).all()


@given(windows(), st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_raw_mode_alpha_squared_scaling(w, alpha):
    base = correlation_matrix(w, "raw")
    scaled = correlation_matrix(alpha * w, "raw")
    np.testing.assert_allclose(scaled, alpha**2 * base, rtol=1e-10, atol=1e-16)


@given(st.integers(0, 2**32 - 1), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_single_channel_scaling_invariance(seed, alpha):
    rng = np.random.default_rng(seed)
    w = rng.normal(10, 3, size=(6, 3))
    base = correlation_matrix(w, "standardized")
    w2 = w.copy()
    w2[:, 1] *= alpha
    scaled = correlation_matrix(w2, "standardized")
    np.testing.assert_allclose(scaled, base, atol=1e-10)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_channel_negation_preserves_indicators(seed):
    rng = np.random.default_rng(seed)
    sig = random_signal(rng, 25, 4)
    spec = WindowSpec(k=6, mode="standardized")
    base = indicator_series(sig, spec)

    flipped_values = sig.values.copy()
    flipped_values[:, 2] *= -1.0
    flipped = type(sig)(
        periods=sig.periods, values=flipped_values,
        channel_names=sig.channel_names, provenance=sig.provenance,
    )
    got = indicator_series(flipped, spec)
    np.testing.assert_allclose(got.values, base.values, atol=1e-10)


@given(st.integers(0, 2**32 - 1), st.permutations(list(range(4))))
@settings(max_examples=30, deadline=None)
def test_channel_permutation_equivariance(seed, perm):
    rng = np.random.default_rng(seed)
    sig = random_signal(rng, 25, 4)
    spec = WindowSpec(k=6, mode="standardized")
    base = indicator_series(sig, spec)

    permuted = type(sig)(
        periods=sig.periods, values=sig.values[:, perm],
        channel_names=tuple(sig.channel_names[i] for i in perm),
        provenance=tuple(sig.provenance[i] for i in perm),
    )
    got = indicator_series(permuted, spec)
    np.testing.assert_allclose(got.values, base.values[:, perm], atol=1e-10)
    assert got.total == pytest.approx(base.total, rel=1e-9)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["raw", "standardized"]),
       st.sampled_from(["skip", "grow"]))
@settings(max_examples=30, deadline=None)
def test_grand_total_accounts_every_point(seed, mode, startup):
    rng = np.random.default_rng(seed)
    sig = random_signal(rng, 30, 3)
    series = indicator_series(sig, WindowSpec(k=5, mode=mode, startup=startup))
    acc = 0.0
    for row in range(len(series)):
        for i in range(sig.p):
            acc += series.values[row, i]
    assert series.total == pytest.approx(acc, rel=1e-12)
