"""Day-ahead bidding and battery scheduling for renewable energy communities
trading in a pay-as-bid ancillary-service market."""

from .core import (
    Bid,
    DayAheadProgram,
    DayTrajectory,
    RecConfig,
    ScenarioSet,
    load_config_json,
    validate_config,
)
from .harness import RunSpec, WeekData, compare_cases, load_week_data, run_day, run_week
from .milp import (
    BuildError,
    MilpInstance,
    Solution,
    build_instance,
    check_solution,
    extract_program,
)
from .scenarios import (
    DmcModel,
    build_price_scenarios,
    fit_dmc,
    reduce_scenarios,
    sample_scenarios,
)
from .settlement import CashFlowReport, decide_acceptance, realtime_dispatch, settle
from .solver import emit_exchange, reference_solve

__version__ = "0.1.0"

__all__ = [
    "Bid",
    "BuildError",
    "CashFlowReport",
    "DayAheadProgram",
    "DayTrajectory",
    "DmcModel",
    "MilpInstance",
    "RecConfig",
    "RunSpec",
    "ScenarioSet",
    "Solution",
    "WeekData",
    "build_instance",
    "build_price_scenarios",
    "check_solution",
    "compare_cases",
    "decide_acceptance",
    "emit_exchange",
    "extract_program",
    "fit_dmc",
    "load_config_json",
    "load_week_data",
    "realtime_dispatch",
    "reduce_scenarios",
    "reference_solve",
    "run_day",
    "run_week",
    "sample_scenarios",
    "settle",
    "validate_config",
]
