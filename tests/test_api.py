"""The public surface of ``chancap``: an API change shows up here as a
one-line diff."""

import importlib

import pytest

import chancap

PUBLIC = {
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
}


def test_all_is_the_public_surface():
    assert set(chancap.__all__) == PUBLIC
    assert len(chancap.__all__) == len(PUBLIC)


def test_every_public_name_resolves():
    for name in chancap.__all__:
        assert getattr(chancap, name) is not None


def test_removed_module_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("chancap.linalg")
