"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from twindex import (
    CostReport,
    GeneratorConfig,
    IncrementalWindow,
    Intervention,
    Regime,
    WindowSpec,
    apply_scenario,
    audit_budget,
    bind_competencies,
    compare_regimes,
    correlation_matrix,
    generate_competency_map,
    generate_enterprise,
    indicator_series,
)
from twindex.cli import main as cli_main
from twindex.io_formats import (
    emit_plot_data,
    parse_event_csv,
    parse_indicator_csv,
    write_event_csv,
    write_indicator_csv,
)

from conftest import DATA_DIR, make_events, make_map, random_signal
from test_indicator import oracle_raw_matrix, oracle_standardized_matrix, oracle_series_total

TABLE1 = DATA_DIR / "table1.csv"


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_1_table1_totalization():
    start = time.perf_counter()
    runner = CliRunner()
    result = runner.invoke(cli_main, ["total", "--series", str(TABLE1)])
    elapsed = time.perf_counter() - start
    total = float(result.output.strip().split("\n")[0])
    ok = (
        result.exit_code == 0
        and abs(total - 5491.18) <= 0.5
        and "warning" not in result.output
        and elapsed < 1.0
    )
    report(1, "Table 1 totalization -> 5491.18 +/- 0.5", ok,
           f"total={total}, {elapsed:.3f}s")


def test_criterion_2_regime_delta():
    start = time.perf_counter()
    cmp = compare_regimes(5491.18, 5069.93)
    elapsed = time.perf_counter() - start
    ok = abs(cmp.delta - 421.25) <= 0.01 and elapsed < 1.0
    report(2, "regime delta 5491.18 - 5069.93 = 421.25 +/- 0.01", ok,
           f"delta={cmp.delta}")


def test_criterion_3_cost_arithmetic():
    regime = Regime("taxonomy", make_events(np.ones((5, 2))), make_map([[1, 0]]),
                    install_cost=32_809.0)
    rep = audit_budget(regime, base_cost=5_641_442.0, budget=6_000_000.0)
    ok = rep.total_cost == 5_674_251.0
    report(3, "cost audit base 5641442 + install 32809 = 5674251 exactly", ok,
           f"total={rep.total_cost}")


def test_criterion_4_per_period_values_not_reproducible():
    # The per-period Table 1 values and the basic-mode total 5069.93 depend on
    # unpublished source data and unstated window parameters; only their
    # aggregation is checkable.  Substituted by the oracle-equivalence and
    # invariant criteria below, per the stated acceptance terms.
    report(4, "per-period Table 1 values: out of reach, substituted by criteria 5-6", True,
           "documented substitution, nothing asserted")


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_entry = 0.0
    worst_total = 0.0
    for case in range(100):
        p = int(rng.integers(1, 9))
        k = int(rng.integers(2, 17))
        t_max = int(rng.integers(k + 2, 201))
        mode = ("raw", "standardized")[case % 2]
        sig = random_signal(rng, t_max, p)
        spec = WindowSpec(k=k, mode=mode, startup="skip")

        # incremental vs naive recomputation, matrix by matrix
        state = IncrementalWindow(spec, p)
        for row_idx, row in enumerate(sig.values):
            corr = state.advance(row)
            if corr is None:
                continue
            t = row_idx + 2
            window = sig.values[[t - lag - 1 for lag in range(1, k + 1)], :]
            oracle = (oracle_raw_matrix if mode == "raw" else oracle_standardized_matrix)(window)
            worst_entry = max(worst_entry, float(np.abs(corr - oracle).max()))

        # full pipeline total vs naive single pass
        series = indicator_series(sig, spec)
        naive = oracle_series_total(sig, spec)
        if naive != 0.0:
            worst_total = max(worst_total, abs(series.total - naive) / abs(naive))
    elapsed = time.perf_counter() - start
    ok = worst_entry <= 1e-9 and worst_total <= 1e-9 and elapsed < 30.0
    report(5, "100 seeded instances: incremental == naive, totals == oracle", ok,
           f"worst entry {worst_entry:.2e}, worst total rel {worst_total:.2e}, {elapsed:.1f}s")


def test_criterion_6_invariant_suite():
    rng = np.random.default_rng(99)
    checks = []

    w = rng.normal(30, 8, size=(9, 5))
    for mode in ("raw", "standardized"):
        r = correlation_matrix(w, mode)
        checks.append(("symmetry " + mode, np.abs(r - r.T).max() <= 1e-12))

    r = correlation_matrix(w, "standardized")
    checks.append(("standardized bound", np.abs(r).max() <= 1 + 1e-12))
    checks.append(("unit diagonal", np.allclose(np.diag(r), 1.0, atol=1e-12)))

    alpha = 3.7
    raw1 = correlation_matrix(w, "raw")
    raw2 = correlation_matrix(alpha * w, "raw")
    checks.append(("raw alpha^2 scaling",
                   np.abs(raw2 - alpha**2 * raw1).max() <= 1e-10 * np.abs(raw2).max()))

    sig = random_signal(rng, 30, 4)
    spec = WindowSpec(k=6, mode="standardized")
    base = indicator_series(sig, spec)
    flipped_vals = sig.values.copy()
    flipped_vals[:, 1] *= -1.0
    flipped = type(sig)(periods=sig.periods, values=flipped_vals,
                        channel_names=sig.channel_names, provenance=sig.provenance)
    checks.append(("negation invariance",
                   np.abs(indicator_series(flipped, spec).values - base.values).max() <= 1e-10))

    perm = [2, 0, 3, 1]
    permuted = type(sig)(periods=sig.periods, values=sig.values[:, perm],
                         channel_names=tuple(sig.channel_names[i] for i in perm),
                         provenance=tuple(sig.provenance[i] for i in perm))
    got = indicator_series(permuted, spec)
    checks.append(("permutation equivariance",
                   np.allclose(got.values, base.values[:, perm], atol=1e-10)
                   and abs(got.total - base.total) <= 1e-9 * abs(base.total)))

    events = make_events(rng.normal(size=(15, 3)))
    a = Intervention("a", 2, 4, ("ch1",), 1.5)
    b = Intervention("b", 3, 6, ("ch1", "ch3"), -0.5)
    checks.append(("scenario additivity",
                   np.array_equal(apply_scenario(events, [a, b]).values,
                                  apply_scenario(apply_scenario(events, [b]), [a]).values)))
    checks.append(("scenario identity", apply_scenario(events, []) == events))

    config = GeneratorConfig(seed=555, periods=40)
    run1 = write_event_csv(generate_enterprise(config))
    run2 = write_event_csv(generate_enterprise(config))
    checks.append(("generator determinism", run1 == run2))

    failed = [name for name, ok in checks if not ok]
    report(6, "invariant suite", not failed, "failed: " + ", ".join(failed) if failed else "all held")


def test_criterion_7_desk_scale_throughput():
    from twindex import ProcessSpec
    procs = tuple(
        ProcessSpec(f"proc{i}", 25, 1000.0 * (i + 1), 0.3, 50.0) for i in range(4)
    )  # 4 x 25 = 100 channels
    config = GeneratorConfig(seed=8, periods=60, processes=procs,
                             map_density=0.3, competency_count=30)
    start = time.perf_counter()
    events = generate_enterprise(config)
    cmap = generate_competency_map(config, events.n_channels)
    signal = bind_competencies(events, cmap)
    series = indicator_series(signal, WindowSpec(k=12, mode="standardized", startup="skip"))
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0 and len(series) == 48 and series.total > 0.0
    report(7, "full pipeline n=100, T=60, k=12, m=30 under 5 s", ok, f"{elapsed:.2f}s")


def test_criterion_8_format_fidelity():
    text = TABLE1.read_text()
    series = parse_indicator_csv(text)
    plot = emit_plot_data(series, precision=2)
    printed = [line for line in text.strip().split("\n")[1:] if not line.startswith("Total")]
    fidelity = plot.strip().split("\n")[1:] == printed

    # round trips at full serialization precision
    events = generate_enterprise(GeneratorConfig(seed=12, periods=30))
    events_rt = parse_event_csv(write_event_csv(events)) == events
    series_text = write_indicator_csv(series)
    series_rt = write_indicator_csv(parse_indicator_csv(series_text)) == series_text

    ok = fidelity and events_rt and series_rt
    report(8, "plot data reproduces Table 1 strings; round trips exact", ok,
           f"fidelity={fidelity}, events_rt={events_rt}, series_rt={series_rt}")
