"""Channel-assignment optimization toolkit for multi-radio multi-channel mesh networks.

Core pieces:

* topology  -- grid/random layouts, per-node channel histograms, link counts
               and conflict degrees
* metrics   -- interchangeable interference scores (tid, cdal, cxls)
* optimizer -- bio / pio / ko / ho assignment schemes with pluggable metrics
* estimator -- sklearn-style ChannelAssigner wrapper
* evaluator -- deterministic flow-level contention estimates
* experiment / cli -- the scheme x metric matrix runner and its front end
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    ConnectivityError,
    IncompleteAssignmentError,
    MeshCAError,
    NonGridTopologyError,
    RangeConfigError,
    ValidationError,
)
from .estimator import ChannelAssigner
from .evaluator import (
    FlowPerf,
    FlowSpec,
    PerfReport,
    build_grid_flows,
    estimate_performance,
)
from .experiment import ExperimentConfig, ExperimentReport, run_experiment
from .metrics import (
    MAXIMIZE,
    METRICS,
    MINIMIZE,
    IemScore,
    all_scores,
    better,
    cdal_cost,
    cxls_wt,
    enumerate_xls,
    score,
    tid,
)
from .optimizer import (
    SCHEMES,
    OptimizationTrace,
    SchemeConfig,
    TraceRecord,
    bio_assign,
    eiz_detect,
    improve_sweep,
    initial_assignment,
    rci_mitigate,
    run_scheme,
)
from .topology import (
    ChannelAssignment,
    Node,
    RadioId,
    RealizedLink,
    Topology,
    adjacent_pairs,
    check_assignment,
    check_topology,
    gen_grid,
    gen_random,
    is_ca_connected,
    radios,
    uniform_assignment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
