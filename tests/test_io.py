import json

import numpy as np
import pytest

from twindex import (
    GeneratorConfig,
    Intervention,
    WindowSpec,
    bind_competencies,
    compare_regimes,
    default_taxonomy,
    generate_competency_map,
    generate_enterprise,
    indicator_series,
)
from twindex.errors import MalformedHeader, MalformedNumber, NonMonotonicTime, TimeAxisGap
from twindex.io_formats import (
    comparison_to_json,
    competency_map_from_json,
    competency_map_to_json,
    emit_plot_data,
    generator_config_from_json,
    generator_config_to_json,
    parse_event_csv,
    parse_indicator_csv,
    round_half_away,
    scenario_from_json,
    scenario_to_json,
    taxonomy_from_json,
    taxonomy_to_json,
    write_event_csv,
    write_indicator_csv,
    write_report,
)

from conftest import make_map, random_signal

_shape_rng = np.random.default_rng(2412)
ROUND_TRIP_SHAPES = [
    (seed, int(_shape_rng.integers(20, 200)), int(_shape_rng.integers(1, 13))) for seed in range(24)
]


class TestEventCsv:
    def test_small_grid(self):
        em = parse_event_csv("t,a,b\n1,10,20\n2,11,21\n")
        assert em.t_max == 2 and em.n_channels == 2
        assert em.values.tolist() == [[10.0, 20.0], [11.0, 21.0]]
        assert em.channel_names == ["a", "b"]

    def test_header_must_start_with_t(self):
        with pytest.raises(MalformedHeader):
            parse_event_csv("time,a\n1,10\n")

    def test_wrong_decimal_separator(self):
        with pytest.raises(MalformedNumber) as exc:
            parse_event_csv('t,a\n1,"1,5"\n')
        assert exc.value.line == 2

    def test_malformed_number_position(self):
        with pytest.raises(MalformedNumber) as exc:
            parse_event_csv("t,a,b\n1,10,x9\n")
        assert exc.value.line == 2 and exc.value.column == 6

    def test_time_axis_gap(self):
        with pytest.raises(TimeAxisGap):
            parse_event_csv("t,a\n1,10\n3,11\n")

    def test_round_trip_bit_exact(self):
        events = generate_enterprise(GeneratorConfig(seed=2, periods=25))
        text = write_event_csv(events)
        again = parse_event_csv(text)
        assert again == events
        assert write_event_csv(again) == text

    def test_process_tags_survive_round_trip(self):
        events = generate_enterprise(GeneratorConfig(seed=2, periods=5))
        again = parse_event_csv(write_event_csv(events))
        assert again.channel_labels == events.channel_labels


class TestIndicatorCsv:
    def test_table1_fixture(self, table1_text):
        series = parse_indicator_csv(table1_text)
        assert len(series) == 57
        assert series.declared_total == pytest.approx(5491.18)
        assert series.values[0] == pytest.approx(110.67)
        assert series.values[-1] == pytest.approx(167.90)

    def test_single_point_no_total(self):
        series = parse_indicator_csv("t,V\n1,110.67\n")
        assert len(series) == 1 and series.declared_total is None

    def test_non_monotonic_time(self):
        with pytest.raises(NonMonotonicTime):
            parse_indicator_csv("t,V\n1,1.0\n3,2.0\n2,3.0\n")

    @pytest.mark.parametrize("seed,t_max,p", ROUND_TRIP_SHAPES)
    def test_round_trip_full_precision(self, seed, t_max, p):
        sig = random_signal(np.random.default_rng(seed), t_max, p)
        series = indicator_series(sig, WindowSpec(k=6))
        text = write_indicator_csv(series)
        parsed = parse_indicator_csv(text)
        assert list(parsed.times) == list(series.times)
        assert list(parsed.period_sums) == list(series.period_sums)
        assert parsed.declared_total == series.total
        # and the flat form round-trips through itself bit-exactly
        assert write_indicator_csv(parsed) == text

    @pytest.mark.parametrize("row", ["13", "Total"])
    def test_row_without_value_field(self, row):
        with pytest.raises(MalformedNumber) as exc:
            parse_indicator_csv(f"t,V\n12,1.5\n{row}\n")
        assert exc.value.line == 3


class TestPlotData:
    def test_table1_reproduced_character_for_character(self, table1_text):
        series = parse_indicator_csv(table1_text)
        out = emit_plot_data(series, precision=2)
        expected_rows = [line for line in table1_text.strip().split("\n")[1:] if not line.startswith("Total")]
        assert out.strip().split("\n")[1:] == expected_rows

    def test_empty_series_header_only(self):
        series = parse_indicator_csv("t,V\n")
        assert emit_plot_data(series, 2) == "t,V\n"
        assert series.total == 0.0

    def test_rounding_half_away_from_zero(self):
        assert round_half_away(1.005, 2) == "1.01"
        assert round_half_away(-1.005, 2) == "-1.01"
        assert round_half_away(132.2, 2) == "132.20"
        assert round_half_away(2.675, 2) == "2.68"


class TestJsonFormats:
    def test_competency_map_round_trip(self):
        cmap = generate_competency_map(GeneratorConfig(seed=6, competency_count=5), 7)
        assert competency_map_from_json(competency_map_to_json(cmap)) == cmap

    def test_taxonomy_round_trip(self):
        tax = default_taxonomy()
        assert taxonomy_from_json(taxonomy_to_json(tax)) == tax

    def test_scenario_round_trip(self):
        scenario = [
            Intervention("hire", 7, 6, ("staff/1", "staff/2"), 120.5),
            Intervention("cut", 20, 3, ("staff/1",), -40.0),
        ]
        assert scenario_from_json(scenario_to_json(scenario)) == scenario

    def test_generator_config_round_trip(self):
        config = GeneratorConfig(seed=9, periods=33, map_density=0.2, competency_count=4)
        assert generator_config_from_json(generator_config_to_json(config)) == config


class TestReport:
    def test_paper_delta_in_report(self):
        cmp = compare_regimes(5491.18, 5069.93, name_a="taxonomy", name_b="basic")
        assert "421.25" in write_report(cmp)

    def test_identical_regimes_zero_delta(self):
        assert "0.00" in write_report(compare_regimes(5.0, 5.0))

    def test_json_round_trip(self):
        cmp = compare_regimes(10.5, 9.25, name_a="a", name_b="b")
        data = json.loads(comparison_to_json(cmp))
        again = compare_regimes(data["total_a"], data["total_b"],
                                name_a=data["regime_a"], name_b=data["regime_b"])
        assert again == cmp
