"""Acceptance suite: eleven end-to-end checks of the released behavior.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the same condition, so `pytest -v` shows one verdict per criterion.
All randomness is seeded; tolerances are part of the contract, not tuned
to the implementation.
"""

import json
import math
import time

import numpy as np

from chancap import (
    LogConfig,
    OracleConfig,
    SingularChannelError,
    binary_capacity,
    binary_channel,
    binary_optimal_input,
    binary_optimal_output,
    blahut_arimoto,
    channel_mutual_information,
    entropy,
    grid_search_binary,
    joint_entropy,
    mi_gradient,
    muroga_capacity,
    mutual_information,
)
from chancap.cli import emit_report, parse_report, run

INFEASIBLE_3X3 = [[0.8, 0.1, 0.1], [0.5, 0.25, 0.25], [0.1, 0.1, 0.8]]

# Verdict lines collected here are echoed after the run by conftest.py, so
# they survive output capture under a plain `pytest -v`.
VERDICTS = []


def _verdict(ok, label, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    VERDICTS.append(line)
    assert ok, line


def test_criterion_01_binary_closed_form_vs_oracle():
    """1000 random channels: the iterative solver converges at tolerance
    1e-9 on every one, the closed form is within 1e-6 bits of it, and the
    whole sweep takes under 30 s."""
    rng = np.random.default_rng(1234)
    pairs = []
    while len(pairs) < 1000:
        a, c = rng.random(2)
        if abs(c - a) > 1e-3:
            pairs.append((float(a), float(c)))
    start = time.perf_counter()
    worst = 0.0
    unconverged = 0
    for a, c in pairs:
        oracle = blahut_arimoto(binary_channel(a, c))
        unconverged += not oracle.converged
        worst = max(worst, abs(binary_capacity(a, c) - oracle.capacity))
    elapsed = time.perf_counter() - start
    _verdict(
        worst <= 1e-6 and unconverged == 0 and elapsed < 30.0,
        "criterion 1: binary closed form vs iterative oracle, 1000 channels",
        f"worst diff {worst:.2e}, {unconverged} unconverged, {elapsed:.1f}s",
    )


def test_criterion_02_z_channel_worked_values():
    """Capacity log2(5/4), input (0.6, 0.4), output (0.8, 0.2); the grid
    oracle at resolution 1e6 agrees."""
    cap = binary_capacity(0.0, 0.5)
    p = binary_optimal_input(0.0, 0.5)
    r = binary_optimal_output(0.0, 0.5)
    grid = grid_search_binary(binary_channel(0.0, 0.5))
    ok = (
        abs(cap - math.log2(1.25)) <= 1e-10
        and np.allclose(p, [0.6, 0.4], atol=1e-9)
        and np.allclose(r, [0.8, 0.2], atol=1e-9)
        and abs(grid.capacity - cap) <= 1e-9
        and abs(grid.p1 - 0.6) <= 1e-5
    )
    _verdict(ok, "criterion 2: Z-channel capacity and optimal distributions", f"C={cap:.10f}")


def test_criterion_03_zero_capacity_line():
    """Identical rows carry nothing: capacity is exactly zero on a = c."""
    values = [binary_capacity(round(0.1 * k, 1), round(0.1 * k, 1)) for k in range(11)]
    _verdict(
        all(v == 0.0 for v in values),
        "criterion 3: capacity exactly 0 for a = c in {0, 0.1, ..., 1}",
    )


def test_criterion_04_identity_channels():
    """Noiseless n-ary channels: C = log2 n with uniform input and output."""
    ok = True
    for n in range(2, 9):
        sol = muroga_capacity(np.eye(n))
        ok &= abs(sol.capacity - math.log2(n)) <= 1e-12
        ok &= bool(np.allclose(sol.opt_input_raw, 1.0 / n, atol=1e-10))
        ok &= bool(np.allclose(sol.opt_output, 1.0 / n, atol=1e-10))
        ok &= sol.feasible
    _verdict(ok, "criterion 4: identity channels n=2..8 give log2(n), uniform p and r")


def test_criterion_05_feasibility_bound():
    """10000 interior (a, c): closed-form input weights in [1/e, 1-1/e]."""
    rng = np.random.default_rng(2024)
    lo = 1.0 / math.e - 1e-9
    hi = 1.0 - 1.0 / math.e + 1e-9
    start = time.perf_counter()
    ok = True
    count = 0
    while count < 10000:
        a, c = np.sort(rng.random(2))
        if not 0.0 < a < c < 1.0:
            continue
        p = binary_optimal_input(float(a), float(c))
        ok &= lo <= p[0] <= hi and lo <= p[1] <= hi
        ok &= abs(math.fsum(p) - 1.0) <= 1e-12
        count += 1
    elapsed = time.perf_counter() - start
    _verdict(
        ok and elapsed < 5.0,
        "criterion 5: input weights within [1/e, 1-1/e] on 10000 interior channels",
        f"{elapsed:.1f}s",
    )


def test_criterion_06_entropy_axioms():
    """Grouping, permutation/zero-padding exactness, uniform additivity,
    and independence from the arbitrary log*(0) value."""
    rng = np.random.default_rng(66)
    ok = True

    # grouping identity on 1000 random (distribution, partition) pairs
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(n))
        groups = rng.integers(0, int(rng.integers(2, 4)), size=n)
        totals, inner = [], 0.0
        for g in np.unique(groups):
            block = p[groups == g]
            w = block.sum()
            if w > 0.0:
                totals.append(w)
                inner += w * entropy(block / w)
        ok &= abs(entropy(p) - (entropy(np.asarray(totals) / math.fsum(totals)) + inner)) <= 1e-10

    # permutation and zero-padding invariance, bitwise exact
    for _ in range(100):
        p = rng.dirichlet(np.ones(6))
        ok &= entropy(p) == entropy(rng.permutation(p))
        ok &= entropy(p) == entropy(np.concatenate([np.zeros(2), p, np.zeros(3)]))

    # A(st) = A(s) + A(t) for uniform distributions, s, t <= 64
    for s in range(1, 65):
        for t in range(1, 65):
            lhs = entropy(np.full(s * t, 1.0 / (s * t)))
            rhs = entropy(np.full(s, 1.0 / s)) + entropy(np.full(t, 1.0 / t))
            ok &= abs(lhs - rhs) <= 1e-12

    # results identical for every choice of log*(0)
    for _ in range(50):
        p = np.concatenate([rng.dirichlet(np.ones(4)), np.zeros(3)])
        vals = {entropy(p, LogConfig(star_value=w)) for w in (0.0, -50.0, 7.0)}
        ok &= len(vals) == 1

    _verdict(ok, "criterion 6: entropy axiom suite (grouping, invariances, additivity)")


def test_criterion_07_joint_entropy_bounds():
    """H(X,Y) <= H(X) + H(Y), equality for independent pairs, I >= 0."""
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(1000):
        n, m = rng.integers(2, 7, size=2)
        cells = rng.dirichlet(np.ones(n * m)).reshape(n, m)
        hx = entropy(cells.sum(axis=1))
        hy = entropy(cells.sum(axis=0))
        ok &= joint_entropy(cells) <= hx + hy + 1e-12
        ok &= mutual_information(cells) >= -1e-12
    for _ in range(1000):
        n, m = rng.integers(2, 7, size=2)
        cells = np.outer(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m)))
        hx = entropy(cells.sum(axis=1))
        hy = entropy(cells.sum(axis=0))
        ok &= abs(joint_entropy(cells) - (hx + hy)) <= 1e-10
        ok &= mutual_information(cells) >= -1e-12
    _verdict(ok, "criterion 7: subadditivity and independence equality on 2000 joints")


def test_criterion_08_gradient_suite():
    """Analytic gradient vs central differences, and stationarity at
    feasible explicit optima."""
    rng = np.random.default_rng(88)
    ok = True
    step = 1e-5

    for _ in range(500):
        n, m = rng.integers(2, 6, size=2)
        p = 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n
        q = rng.dirichlet(np.ones(m), size=n)
        g = mi_gradient(p, q)
        for k in range(n - 1):
            d = np.zeros(n)
            d[k], d[-1] = 1.0, -1.0
            fd = (
                channel_mutual_information(p + step * d, q)
                - channel_mutual_information(p - step * d, q)
            ) / (2.0 * step)
            ok &= abs((g[k] - g[-1]) - fd) <= 1e-6

    checked = 0
    attempts = 0
    while checked < 50 and attempts < 2000:
        attempts += 1
        n = int(rng.integers(2, 6))
        q = rng.dirichlet(np.ones(n), size=n)
        try:
            sol = muroga_capacity(q)
        except SingularChannelError:
            continue
        if not sol.feasible or sol.opt_input_raw.min() <= 0.0:
            continue
        g = mi_gradient(sol.opt_input_raw, q)
        ok &= g.max() - g.min() <= 1e-8
        checked += 1
    ok &= checked == 50

    _verdict(ok, "criterion 8: gradient matches finite differences; equal components at optima")


def test_criterion_09_muroga_internal_consistency():
    """Inverse row sums, output positivity, capacity = I at the optimum,
    and maximality against 1000 random inputs per feasible channel."""
    rng = np.random.default_rng(99)
    ok = True
    feasible_seen = 0
    for _ in range(40):
        n = int(rng.integers(2, 7))
        q = rng.dirichlet(np.ones(n), size=n)
        try:
            sol = muroga_capacity(q)
        except SingularChannelError:
            continue
        ok &= bool(np.allclose(sol.inverse.sum(axis=1), 1.0, atol=1e-10))
        ok &= bool(np.all(sol.opt_output > 0.0))
        ok &= abs(math.fsum(sol.opt_output) - 1.0) <= 1e-12
        if sol.feasible:
            feasible_seen += 1
            p = np.clip(sol.opt_input_raw, 0.0, None)
            p /= p.sum()
            ok &= abs(sol.capacity - channel_mutual_information(p, q)) <= 1e-8
            for _ in range(1000):
                other = rng.dirichlet(np.ones(n))
                ok &= sol.capacity >= channel_mutual_information(other, q) - 1e-8
    ok &= feasible_seen > 0
    _verdict(
        ok,
        "criterion 9: explicit-solution internal consistency and maximality",
        f"{feasible_seen} feasible channels",
    )


def test_criterion_10_infeasible_case_handling(tmp_path, capsys):
    """The frozen 3x3 channel is infeasible for the explicit formula; the
    command line auto path reports the oracle value with fallback_used and
    keeps the raw stationary value in diagnostics, strictly above it."""
    sol = muroga_capacity(np.array(INFEASIBLE_3X3))
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps({"matrix": INFEASIBLE_3X3}), encoding="utf-8")
    code = run(["--matrix", str(path)])
    report = parse_report(capsys.readouterr().out)
    oracle = blahut_arimoto(np.array(INFEASIBLE_3X3))
    ok = (
        not sol.feasible
        and code == 0
        and report.fallback_used
        and not report.feasible
        and abs(report.capacity - oracle.capacity) <= 1e-12
        and report.diagnostics["muroga_capacity_raw"] > report.capacity
        and abs(report.diagnostics["muroga_capacity_raw"] - sol.capacity) <= 1e-12
    )
    _verdict(
        ok,
        "criterion 10: infeasible 3x3 falls back to the oracle with diagnostics",
        f"raw {sol.capacity:.6f} > oracle {oracle.capacity:.6f}",
    )


def test_criterion_11_cli_round_trip(tmp_path, capsys):
    """JSON reports parse back to equal results and repeat byte-for-byte."""
    path = tmp_path / "ch.json"
    path.write_text(
        json.dumps({"matrix": [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]]}),
        encoding="utf-8",
    )
    ok = True
    for argv in (
        ["--a", "0", "--c", "0.5"],
        ["--matrix", str(path)],
        ["--matrix", str(path), "--method", "blahut-arimoto"],
    ):
        code = run(argv)
        first = capsys.readouterr().out
        ok &= code == 0
        ok &= parse_report(first) == parse_report(first)
        run(argv)
        second = capsys.readouterr().out
        ok &= first == second
        report = parse_report(first)
        ok &= parse_report(emit_report(report, "json")) == report
    _verdict(ok, "criterion 11: byte-identical reruns and exact JSON round-trip")
