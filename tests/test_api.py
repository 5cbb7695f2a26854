"""The public surface of ``chancap``: an API change shows up here as a
one-line diff."""

import importlib
import inspect
import pickle
import re
from fractions import Fraction

import pytest

import chancap
from chancap import cli

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


# Positional arguments, before any config, for every public callable that
# takes a ``cfg`` or an ``oracle``.  A new one fails
# ``test_config_table_covers_every_config_parameter`` until it is added here.
_Q2 = [[0.9, 0.1], [0.2, 0.8]]
_Q3 = [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]]
_JOINT = [[0.3, 0.2], [0.1, 0.4]]
_AUX = [-1.0, -0.5, 0.0]
CONFIG_ARGS = {
    "log_star": ([0.0, 0.5],),
    "xlogx_star": ([0.0, 0.5],),
    "entropy": ([0.25, 0.75],),
    "joint_entropy": (_JOINT,),
    "conditional_entropy": ([0.5, 0.5], _Q2),
    "mutual_information": (_JOINT,),
    "channel_mutual_information": ([0.5, 0.5], _Q2),
    "mi_gradient": ([0.5, 0.5], _Q2),
    "binary_capacity": (0.1, 0.8),
    "binary_optimal_input": (0.1, 0.8),
    "binary_optimal_output": (0.1, 0.8),
    "capacity": (_Q3,),
    "solve_auxiliary": (_Q3,),
    "capacity_from_aux": (_AUX,),
    "optimal_output": (_AUX, 1.0),
    "muroga_capacity": (_Q3,),
    "capacity_bounds": ([0.5, 0.5], _Q2),
    "blahut_arimoto": (_Q3,),
    "grid_search_binary": (_Q2,),
}
CONFIG_CLASSES = {"cfg": chancap.LogConfig, "oracle": chancap.OracleConfig}


def _config_parameters():
    """``(function name, parameter)`` for each config parameter in ``__all__``."""
    found = []
    for name in chancap.__all__:
        obj = getattr(chancap, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters
            found += [(name, param) for param in CONFIG_CLASSES if param in params]
    return found


CONFIG_PARAMETERS = _config_parameters()
CONFIG_IDS = [f"{name}-{param}" for name, param in CONFIG_PARAMETERS]


def test_config_table_covers_every_config_parameter():
    assert {name for name, _ in CONFIG_PARAMETERS} == set(CONFIG_ARGS)


@pytest.mark.parametrize("name, param", CONFIG_PARAMETERS, ids=CONFIG_IDS)
def test_config_default_is_none_or_the_default_instance(name, param):
    func, args = getattr(chancap, name), CONFIG_ARGS[name]
    expected = pickle.dumps(func(*args))
    assert pickle.dumps(func(*args, **{param: None})) == expected
    assert pickle.dumps(func(*args, **{param: CONFIG_CLASSES[param]()})) == expected


@pytest.mark.parametrize("name, param", CONFIG_PARAMETERS, ids=CONFIG_IDS)
def test_config_of_another_type_raises(name, param):
    func, args, cls = getattr(chancap, name), CONFIG_ARGS[name], CONFIG_CLASSES[param]
    other = next(c for c in CONFIG_CLASSES.values() if c is not cls)
    for bad in (0, "", False, 10, 1e-9, {}, other()):
        with pytest.raises(ValueError, match=f"expected {cls.__name__} or None, got {re.escape(repr(bad))}"):
            func(*args, **{param: bad})


# Positional arguments that every public function accepts, and ``ingest_matrix``,
# the command's reader of a channel file's matrix.  A new public function fails
# ``test_argument_table_covers_every_public_function`` until it is added here.
_P2 = [0.5, 0.5]
ARGS = {
    **CONFIG_ARGS,
    "binary_aux": (0.1, 0.8),
    "binary_channel": (0.1, 0.8),
    "capacity": (_Q3, "auto"),
    "check_channel": (_Q2,),
    "check_distribution": ([0.25, 0.75],),
    "check_joint": (_JOINT,),
    "feasible_input": (_P2,),
    "inverse": (_Q3,),
    "joint_distribution": (_P2, _Q2),
    "normalize": ([1.0, 3.0],),
    "optimal_input": (_Q3, [0.3, 0.3, 0.4]),
    "output_distribution": (_P2, _Q2),
    "relabel_inputs": (_P2, _Q2, [1, 0]),
    "relabel_outputs": (_Q2, [1, 0]),
    "solve": (_Q3, [1.0, 2.0, 3.0]),
    "ingest_matrix": (_Q2,),
}
FUNCTIONS = {name: getattr(chancap, name, None) for name in ARGS} | {"ingest_matrix": cli.ingest_matrix}


def test_argument_table_covers_every_public_function():
    public = {name for name in chancap.__all__ if inspect.isfunction(getattr(chancap, name))}
    assert set(ARGS) == public | {"ingest_matrix"}
    for name, func in FUNCTIONS.items():
        func(*ARGS[name])  # every row of the table is a valid call


@pytest.mark.parametrize("bad", [1 + 0j, object(), {}], ids=["complex", "object", "dict"])
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_non_numeric_argument_raises_value_error(name, bad):
    """A complex, an object or a dict in any positional argument is a
    ValueError, as any other invalid argument is, never numpy's TypeError."""
    args = ARGS[name]
    for slot in range(len(args)):
        with pytest.raises(ValueError):
            FUNCTIONS[name](*args[:slot], bad, *args[slot + 1 :])


def _respelled(arg, spell):
    """``arg`` with every number in it, however deeply nested, replaced by ``spell(number)``."""
    if isinstance(arg, list):
        return [_respelled(v, spell) for v in arg]
    if type(arg) in (int, float):
        return spell(arg)
    return arg


@pytest.mark.parametrize(
    "spell",
    [repr, lambda v: repr(v).encode(), lambda v: 10**400, lambda v: -(10**400)],
    ids=["str", "bytes", "huge-int", "huge-negative-int"],
)
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_numbers_that_are_no_floats_raise_value_error(name, spell):
    """A number spelled as a str or bytes, or an int beyond the float range,
    in place of every number of an argument, is a ValueError; numpy parsed
    the strs and raised OverflowError on the ints."""
    args = ARGS[name]
    for slot, arg in enumerate(args):
        respelled = _respelled(arg, spell)
        if respelled == arg:  # no number in it, as in capacity's method name
            continue
        with pytest.raises(ValueError):
            FUNCTIONS[name](*args[:slot], respelled, *args[slot + 1 :])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: chancap.log_star(10**400), "log_star contains non-finite entries"),
        (lambda: chancap.xlogx_star([10**400]), "xlogx_star contains non-finite entries"),
        (lambda: chancap.feasible_input([10**400, 1]), "opt_input_raw contains non-finite entries"),
        (lambda: chancap.check_distribution(["0.5", "0.5"]), "distribution must hold real numbers"),
        (lambda: chancap.entropy([b"0.5", 0.5]), "distribution must hold real numbers"),
        (lambda: chancap.capacity([["1", "0"], ["0", "1"]]), "transition matrix must hold real numbers"),
        (lambda: chancap.check_distribution([Fraction(1, 2), "0.5"]), "distribution must hold real numbers"),
    ],
    ids=["log_star", "xlogx_star", "feasible_input", "str", "bytes", "str-matrix", "str-among-objects"],
)
def test_array_readers_name_the_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()
