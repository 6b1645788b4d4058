"""Experiment drivers: one module per table/figure of the paper."""

from .common import ExperimentContext, infinity_or
from .executor import ARCHITECTURES, STRATEGIES, GridCell, GridExecutor
from .fig1_space import Fig1Cell, Fig1Result, run_fig1_space
from .pool import shutdown_grid_pool, warm_pool_info
from .shared_data import SharedDatasetRegistry, active_registry, shutdown_shared_data
from .fig6 import DEFAULT_ARCHITECTURES, Fig6Point, Fig6Result, run_fig6
from .fig7 import Fig7Panel, Fig7Result, run_fig7
from .fig89 import Fig89Result, SpeedupEntry, run_fig8, run_fig9
from .resilience import FAILURE_KINDS, CellFailure, render_failure_section
from .tolerances import LadderEntry, ToleranceLadder, run_tolerance_ladder
from .report import ReproductionReport, Verdict, reproduce_all
from .table1 import Table1Check, Table1Result, run_table1
from .store import ResultStore, config_key
from .table2 import Table2Result, Table2Row, run_table2
from .table3 import Table3Result, Table3Row, run_table3
from .steps import TUNED_STEPS, grid_search, lookup_step

__all__ = [
    "ExperimentContext",
    "infinity_or",
    "GridCell",
    "GridExecutor",
    "ResultStore",
    "config_key",
    "CellFailure",
    "FAILURE_KINDS",
    "render_failure_section",
    "ARCHITECTURES",
    "STRATEGIES",
    "shutdown_grid_pool",
    "warm_pool_info",
    "SharedDatasetRegistry",
    "active_registry",
    "shutdown_shared_data",
    "TUNED_STEPS",
    "lookup_step",
    "grid_search",
    "run_table1",
    "Table1Result",
    "Table1Check",
    "run_table2",
    "Table2Result",
    "Table2Row",
    "run_table3",
    "Table3Result",
    "Table3Row",
    "run_fig6",
    "run_fig1_space",
    "run_tolerance_ladder",
    "ToleranceLadder",
    "LadderEntry",
    "reproduce_all",
    "ReproductionReport",
    "Verdict",
    "Fig1Result",
    "Fig1Cell",
    "Fig6Result",
    "Fig6Point",
    "DEFAULT_ARCHITECTURES",
    "run_fig7",
    "Fig7Result",
    "Fig7Panel",
    "run_fig8",
    "run_fig9",
    "Fig89Result",
    "SpeedupEntry",
]
