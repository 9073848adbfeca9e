"""twindex: enterprise digital-twin event model, sliding-window correlation
indicator, and management-regime comparison."""

from .errors import TwindexError
from .indicator import (
    IncrementalWindow,
    IndicatorSeries,
    WindowSpec,
    correlation_matrix,
    indicator_series,
)
from .model import (
    ChannelLabel,
    Competency,
    CompetencyMap,
    CompetencySignal,
    EventMatrix,
    Taxonomy,
    bind_competencies,
    classify_competency,
    default_taxonomy,
    validate_event_matrix,
)
from .regimes import (
    Comparison,
    CostReport,
    Intervention,
    Regime,
    apply_scenario,
    audit_budget,
    compare_regimes,
)
from .synth import (
    GeneratorConfig,
    ProcessSpec,
    default_processes,
    generate_competency_map,
    generate_enterprise,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
