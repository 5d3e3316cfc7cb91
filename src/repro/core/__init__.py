"""Two-way replacement selection: the paper's core contribution."""

from repro.core.adaptive import AdaptiveInput, Trend, classify_trend, recommend_config
from repro.core.config import (
    BUFFER_FRACTIONS,
    BUFFER_SETUPS,
    RECOMMENDED,
    TABLE_5_13_CONFIGS,
    TwoWayConfig,
)
from repro.core.heuristics import (
    INPUT_HEURISTICS,
    OUTPUT_HEURISTICS,
    HeuristicContext,
    InputHeuristic,
    OutputHeuristic,
    Side,
    make_input_heuristic,
    make_output_heuristic,
)
from repro.core.input_buffer import InputBuffer
from repro.core.records import (
    FLOAT,
    FORMAT_NAMES,
    INT,
    STR,
    DelimitedFormat,
    RecordFormat,
    resolve_format,
)
from repro.core.streams import RunStreams
from repro.core.two_way import TwoWayReplacementSelection
from repro.core.victim_buffer import VictimBuffer, VictimPhase, largest_gap

__all__ = [
    "AdaptiveInput",
    "BUFFER_FRACTIONS",
    "BUFFER_SETUPS",
    "DelimitedFormat",
    "FLOAT",
    "FORMAT_NAMES",
    "INT",
    "RecordFormat",
    "STR",
    "resolve_format",
    "HeuristicContext",
    "INPUT_HEURISTICS",
    "InputBuffer",
    "InputHeuristic",
    "OUTPUT_HEURISTICS",
    "OutputHeuristic",
    "RECOMMENDED",
    "RunStreams",
    "Side",
    "TABLE_5_13_CONFIGS",
    "TwoWayConfig",
    "Trend",
    "TwoWayReplacementSelection",
    "VictimBuffer",
    "VictimPhase",
    "classify_trend",
    "largest_gap",
    "make_input_heuristic",
    "recommend_config",
    "make_output_heuristic",
]
