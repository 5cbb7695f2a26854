"""Shannon capacity of discrete memoryless channels.

Closed forms for binary channels, Muroga's explicit solution for square
invertible channels (and its system on an active set for any shape), and
certified iterative oracles (alternating maximization, grid search);
``capacity`` picks among them and certifies the answer, as the
``capacity`` command does.
"""

from .binary import (
    DEGENERATE_TOL,
    DegenerateChannelError,
    binary_aux,
    binary_capacity,
    binary_optimal_input,
    binary_optimal_output,
)
from .channel import (
    binary_channel,
    channel_mutual_information,
    check_channel,
    joint_distribution,
    mi_gradient,
    output_distribution,
    relabel_inputs,
    relabel_outputs,
)
from .dispatch import capacity
from .entropy import (
    LogConfig,
    SUM_TOL,
    check_distribution,
    check_joint,
    conditional_entropy,
    entropy,
    joint_entropy,
    log_star,
    mutual_information,
    normalize,
    xlogx_star,
)
from .muroga import (
    INPUT_FEASIBILITY_TOL,
    MurogaSolution,
    SingularChannelError,
    SingularMatrixError,
    capacity_from_aux,
    feasible_input,
    inverse,
    muroga_capacity,
    optimal_input,
    optimal_output,
    solve,
    solve_auxiliary,
)
from .oracle import (
    BAResult,
    GridResult,
    OracleConfig,
    blahut_arimoto,
    capacity_bounds,
    grid_search_binary,
)

__version__ = "0.1.0"

__all__ = [
    "BAResult",
    "DEGENERATE_TOL",
    "DegenerateChannelError",
    "GridResult",
    "INPUT_FEASIBILITY_TOL",
    "LogConfig",
    "MurogaSolution",
    "OracleConfig",
    "SUM_TOL",
    "SingularChannelError",
    "SingularMatrixError",
    "binary_aux",
    "binary_capacity",
    "binary_channel",
    "binary_optimal_input",
    "binary_optimal_output",
    "blahut_arimoto",
    "capacity",
    "capacity_bounds",
    "capacity_from_aux",
    "channel_mutual_information",
    "check_channel",
    "check_distribution",
    "check_joint",
    "conditional_entropy",
    "entropy",
    "feasible_input",
    "grid_search_binary",
    "inverse",
    "joint_distribution",
    "joint_entropy",
    "log_star",
    "mi_gradient",
    "muroga_capacity",
    "mutual_information",
    "normalize",
    "optimal_input",
    "optimal_output",
    "output_distribution",
    "relabel_inputs",
    "relabel_outputs",
    "solve",
    "solve_auxiliary",
    "xlogx_star",
]
