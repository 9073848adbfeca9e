import numpy as np
import pytest

from twindex import (
    Intervention,
    Regime,
    WindowSpec,
    apply_scenario,
    audit_budget,
    bind_competencies,
    compare_regimes,
    indicator_series,
)
from twindex.errors import NonFiniteInput, OutOfRange, UnknownChannel

from conftest import make_events, make_map


def hire_and_dismiss(channel="ch2", delta=5.0):
    # hire at period 7, effect ends after six periods (t=12)
    return Intervention(name="hire", start=7, duration=6, channels=(channel,), delta_per_period=delta)


class TestApplyScenario:
    def test_hire_shape(self):
        events = make_events(np.zeros((15, 3)))
        out = apply_scenario(events, [hire_and_dismiss()])
        col = out.values[:, 1]
        assert (col[6:12] == 5.0).all()
        assert (np.delete(col, range(6, 12)) == 0.0).all()
        assert (out.values[:, [0, 2]] == 0.0).all()

    def test_empty_scenario_identity(self):
        events = make_events(np.random.default_rng(0).normal(size=(8, 2)))
        out = apply_scenario(events, [])
        assert out == events

    def test_overlap_additive(self):
        events = make_events(np.zeros((10, 1)))
        a = Intervention("a", 3, 2, ("ch1",), 2.0)
        b = Intervention("b", 4, 3, ("ch1",), 3.0)
        out = apply_scenario(events, [a, b])
        assert out.values[:, 0].tolist() == [0, 0, 2, 5, 3, 3, 0, 0, 0, 0]

    def test_order_independence(self):
        rng = np.random.default_rng(8)
        events = make_events(rng.normal(size=(12, 3)))
        a = Intervention("a", 2, 4, ("ch1", "ch3"), -1.25)
        b = Intervention("b", 5, 5, ("ch3",), 0.75)
        ab = apply_scenario(events, [a, b])
        ba = apply_scenario(events, [b, a])
        chained = apply_scenario(apply_scenario(events, [a]), [b])
        assert np.array_equal(ab.values, ba.values)
        assert np.array_equal(ab.values, chained.values)

    def test_zero_delta_identity_bit_exact(self):
        events = make_events(np.random.default_rng(1).normal(size=(10, 2)))
        out = apply_scenario(events, [Intervention("z", 3, 4, ("ch1",), 0.0)])
        assert np.array_equal(out.values, events.values)

    def test_untouched_cells_bit_identical(self):
        events = make_events(np.random.default_rng(2).normal(size=(15, 3)))
        out = apply_scenario(events, [hire_and_dismiss("ch2", 1.0)])
        assert np.array_equal(out.values[:, 0], events.values[:, 0])
        assert np.array_equal(out.values[:6, 1], events.values[:6, 1])

    def test_out_of_range(self):
        events = make_events(np.zeros((8, 1)))
        with pytest.raises(OutOfRange):
            apply_scenario(events, [Intervention("late", 7, 3, ("ch1",), 1.0)])

    def test_unknown_channel(self):
        events = make_events(np.zeros((8, 1)))
        with pytest.raises(UnknownChannel):
            apply_scenario(events, [Intervention("x", 1, 1, ("nope",), 1.0)])


class TestAuditBudget:
    def test_paper_cost_arithmetic(self):
        events = make_events(np.ones((5, 2)))
        regime = Regime("taxonomy", events, make_map([[1, 0]]), install_cost=32_809.0)
        report = audit_budget(regime, base_cost=5_641_442.0, budget=6_000_000.0)
        assert report.total_cost == 5_674_251.0

    def test_zero_costs_zero_budget(self):
        events = make_events(np.ones((5, 2)))
        regime = Regime("z", events, make_map([[1, 0]]))
        report = audit_budget(regime, base_cost=0.0, budget=0.0)
        assert report.total_cost == 0.0 and report.within_budget

    def test_over_budget_boundary(self):
        events = make_events(np.ones((5, 2)))
        regime = Regime("x", events, make_map([[1, 0]]), install_cost=100.0)
        assert not audit_budget(regime, base_cost=0.0, budget=99.0).within_budget
        assert audit_budget(regime, base_cost=0.0, budget=100.0).within_budget

    def test_activation_counted_once_per_active_competency(self):
        events = make_events(np.ones((5, 3)))
        # c1 active on two channels (priced once), c2 inactive (not priced)
        cmap = make_map([[1, 1, 0], [0, 0, 0]], costs=[10.0, 99.0])
        regime = Regime("r", events, cmap)
        assert audit_budget(regime, 0.0, 1e9).activation_cost == 10.0

    def test_monotone_in_costs(self):
        events = make_events(np.ones((5, 2)))
        budget = 50.0
        lo = Regime("lo", events, make_map([[1, 0]], costs=[10.0]), install_cost=20.0)
        hi = Regime("hi", events, make_map([[1, 0]], costs=[10.0]), install_cost=45.0)
        assert audit_budget(lo, 10.0, budget).within_budget
        assert not audit_budget(hi, 10.0, budget).within_budget


class TestCompareRegimes:
    def test_paper_delta(self):
        cmp = compare_regimes(5491.18, 5069.93)
        assert cmp.delta == pytest.approx(421.25, abs=1e-10)

    def test_identical_totals(self):
        assert compare_regimes(7.0, 7.0).delta == 0.0

    def test_antisymmetry(self):
        a, b = 123.456, 78.9
        assert compare_regimes(a, b).delta == -compare_regimes(b, a).delta

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            compare_regimes(float("nan"), 1.0)

    def test_synthetic_regimes_match_naive_totals(self):
        from test_indicator import oracle_series_total
        rng = np.random.default_rng(21)
        spec = WindowSpec(k=6, mode="standardized")
        mask = np.eye(3, dtype=int)
        base = make_events(rng.normal(100, 20, size=(30, 3)))
        boosted = apply_scenario(base, [Intervention("hire", 7, 6, ("ch2",), 40.0)])
        totals, oracles = [], []
        for events in (boosted, base):
            sig = bind_competencies(events, make_map(mask))
            totals.append(indicator_series(sig, spec).total)
            oracles.append(oracle_series_total(sig, spec))
        cmp = compare_regimes(totals[0], totals[1])
        assert cmp.delta == pytest.approx(oracles[0] - oracles[1], rel=1e-9)
