"""``chancap.capacity``, the library's certified answer, against the command
line's ``solve_channel`` on the channel the command line checked."""

import math

import numpy as np
import pytest

import chancap
from chancap import LogConfig, OracleConfig, blahut_arimoto, capacity, check_channel
from chancap.cli import EXIT_BAD_MATRIX, EXIT_NO_CONVERGENCE, EXIT_OK, METHODS, emit_report, solve_channel

INFEASIBLE_3X3 = [[0.8, 0.1, 0.1], [0.5, 0.25, 0.25], [0.1, 0.1, 0.8]]
#: Channels that reach every branch: 2x2 closed forms (corners, a == c, an
#: entry 1 + 2 ulp), feasible, infeasible and singular squares, two-row
#: channels for the grid, and tall and wide ones for Blahut-Arimoto.
CHANNELS = [
    [[0.7, 0.3], [0.1, 0.9]],
    [[1.0, 0.0], [0.5, 0.5]],
    [[0.6, 0.4], [0.6, 0.4]],
    [[1.0, 0.0], [1.0 - 5e-324, 5e-324]],
    [[1.0 + 2.0**-51, 0.0], [0.25, 0.75]],
    [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
    INFEASIBLE_3X3,
    [[0.7, 0.2, 0.1], [0.7, 0.2, 0.1], [0.1, 0.1, 0.8]],
    [[0.6, 0.4, 0.0], [0.15, 0.8, 0.05]],
    [[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]],
    *np.random.default_rng(28).dirichlet(np.full(4, 0.5), size=(4, 4)),
]
BASES = (2.0, math.e, 10.0)
#: Default stopping, and a cap of 3 sweeps that leaves most Blahut-Arimoto
#: runs unconverged (exit 4); a small grid keeps the grid search cheap.
ORACLES = (OracleConfig(grid_resolution=10**4), OracleConfig(max_iterations=3, grid_resolution=10**4))


def outcome(fn, *args):
    """A call's result (its repr and both reports) and second value, or the ValueError it raised."""
    try:
        result, second = fn(*args)
    except ValueError as exc:
        return "raised", (type(exc), str(exc)), None
    return "returned", (repr(result), emit_report(result), emit_report(result, "text")), second


def test_capacity_is_solve_channel_on_the_checked_channel():
    """Field by field (repr prints each float exactly) and in both report
    formats, over every method, base and oracle; ``converged`` is false
    exactly where the command line exits 4, and both raise alike."""
    codes = set()
    for raw in CHANNELS:
        q = check_channel(raw)
        for base in BASES:
            cfg = LogConfig(base=base)
            for ocfg in ORACLES:
                for method in METHODS:
                    case = (raw, base, ocfg, method)
                    kind, want, code = outcome(solve_channel, q, method, cfg, ocfg)
                    got_kind, got, converged = outcome(capacity, raw, method, cfg, ocfg)
                    assert (got_kind, got) == (kind, want), case
                    if kind == "raised":
                        codes.add(EXIT_BAD_MATRIX)
                        continue
                    codes.add(code)
                    assert type(converged) is bool, case
                    assert code == (EXIT_OK if converged else EXIT_NO_CONVERGENCE), case
    assert codes == {EXIT_OK, EXIT_BAD_MATRIX, EXIT_NO_CONVERGENCE}


def test_defaults_are_the_command_lines():
    q = np.array(INFEASIBLE_3X3)
    result, converged = capacity(q)
    assert (result, converged) == capacity(q, "auto", LogConfig(), OracleConfig())
    assert converged and result == solve_channel(check_channel(q), "auto", LogConfig(), OracleConfig())[0]


@pytest.mark.parametrize(
    "raw",
    [
        [[0.5, 0.6], [0.5, 0.5]],
        [[0.5, 0.5 + 1e-10], [0.5, 0.5]],
        [[-0.1, 1.1], [0.5, 0.5]],
        [[math.nan, 1.0], [0.5, 0.5]],
        [0.5, 0.5],
        [[]],
    ],
)
def test_unchecked_channel_raises_as_blahut_arimoto_does(raw):
    """The library checks as the solvers do: no loose row-sum tolerance, no
    renormalizing, which only the command line's file ingest applies."""
    with pytest.raises(ValueError) as want:
        blahut_arimoto(raw)
    with pytest.raises(ValueError) as got:
        capacity(raw)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("method", ["blahut_arimoto", "Auto", "", None])
def test_unknown_method_raises(method):
    with pytest.raises(ValueError, match="method must be one of"):
        capacity([[0.9, 0.1], [0.2, 0.8]], method)


def test_public_name():
    assert "capacity" in chancap.__all__
    assert chancap.capacity is capacity
