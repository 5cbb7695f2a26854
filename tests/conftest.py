import sys

import numpy as np
import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the run.

    The acceptance tests print one PASS/FAIL line each; default output
    capture hides those for passing tests, so repeat them here where they
    always reach the terminal.
    """
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for line in verdicts:
        terminalreporter.write_line(line)


@pytest.fixture
def solves(monkeypatch):
    """Orders of the linear systems ``np.linalg.solve`` is given: one per
    Newton step of the polish, two per evaluation of Muroga's formula."""
    orders = []
    real_solve = np.linalg.solve

    def counting_solve(a, b):
        orders.append(a.shape[0])
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return orders


@pytest.fixture
def murogas(monkeypatch):
    """Arguments of every evaluation of Muroga's formula, through every
    global name bound to it in any loaded ``chancap`` module."""
    from chancap import muroga as muroga_module

    calls = []
    real = muroga_module._muroga

    def spy(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name == "chancap" or name.startswith("chancap."):
            for gname in [g for g, v in vars(module).items() if v is real]:
                monkeypatch.setattr(module, gname, spy)
    return calls
