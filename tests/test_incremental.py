import numpy as np
import pytest

from twindex import IncrementalWindow, WindowSpec, correlation_matrix
from twindex.errors import DimensionMismatch


def full_recompute(rows, spec):
    """Reference: rebuild the window from scratch for every emitted anchor."""
    out = {}
    for end in range(len(rows)):
        depth = min(end + 1, spec.k)
        if depth < spec.min_depth:
            continue
        w = np.array([rows[end - lag] for lag in range(depth)])  # lag 1 first
        out[end + 2] = correlation_matrix(w, spec.mode)
    return out


@pytest.mark.parametrize("mode", ["raw", "standardized"])
@pytest.mark.parametrize("startup", ["skip", "grow"])
def test_matches_full_recompute(mode, startup):
    rng = np.random.default_rng(17)
    p, k, t = 8, 16, 200
    rows = list(rng.normal(40, 9, size=(t, p)))
    spec = WindowSpec(k=k, mode=mode, startup=startup)
    expected = full_recompute(rows, spec)
    state = IncrementalWindow(spec, p)
    emitted = {}
    for consumed, row in enumerate(rows, start=1):
        corr = state.advance(row)
        if corr is not None:
            emitted[consumed + 1] = corr
    assert emitted.keys() == expected.keys()
    for anchor, mat in emitted.items():
        np.testing.assert_allclose(mat, expected[anchor], atol=1e-9)


def test_constant_window_closed_form():
    # k identical rows in raw mode: R = (k/(k-1)) v v^T
    v = np.array([2.0, -1.0, 0.5])
    k = 6
    state = IncrementalWindow(WindowSpec(k=k, mode="raw"), 3)
    corr = None
    for _ in range(k):
        corr = state.advance(v)
    np.testing.assert_allclose(corr, (k / (k - 1)) * np.outer(v, v), atol=1e-12)


def test_window_forgets_spike():
    rng = np.random.default_rng(3)
    k, p = 5, 4
    spec = WindowSpec(k=k, mode="raw")
    tail = rng.normal(size=(k, p))

    spiked = IncrementalWindow(spec, p)
    clean = IncrementalWindow(spec, p)
    for row in rng.normal(size=(3, p)):
        spiked.advance(row)
        clean.advance(row)
    spiked.advance(np.full(p, 1e3))  # spike only one stream
    last_s = last_c = None
    for row in tail:
        last_s = spiked.advance(row)
        last_c = clean.advance(row)
    # spike has rolled out of the window; residual is add/subtract roundoff
    np.testing.assert_allclose(last_s, last_c, atol=1e-9)


def test_dimension_mismatch():
    state = IncrementalWindow(WindowSpec(k=3), 4)
    with pytest.raises(DimensionMismatch):
        state.advance([1.0, 2.0])


def test_no_emission_before_window_fills():
    state = IncrementalWindow(WindowSpec(k=4, startup="skip"), 2)
    results = [state.advance([1.0, 2.0]) for _ in range(3)]
    assert results == [None, None, None]
    assert state.advance([1.0, 2.0]) is not None


def test_grow_emits_from_two_rows():
    state = IncrementalWindow(WindowSpec(k=4, startup="grow"), 2)
    assert state.advance([1.0, 2.0]) is None
    corr = state.advance([2.0, 1.0])  # two rows consumed: anchor 3
    assert corr is not None
