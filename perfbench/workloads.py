"""Seeded input generators for the four benchmark workloads (numpy only).

A workload is a pool of *blocks*; a block is a fixed mix of operations, and
one operation is one ``capacity`` invocation.  The timed loop runs whole
blocks, so every run sees the same mix of channel kinds and the run-to-run
spread comes from the channels themselves, not from which kinds happened to
fit into the time window.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Binary channels with |c - a| at or below this are excluded.
BINARY_MIN_GAP = 1e-3
#: Channels per binary-sweep block; strata of |c - a|, one channel each.
BINARY_BLOCK = 1000
#: Every GRID_EVERY-th stratum of a binary-sweep block also runs the grid oracle.
BINARY_GRID_EVERY = 100

#: Thirteen sizes, one operation each per block.  Cost rises with n, so the
#: median and p80 latency fall inside one size's operations (n = 16 at 6.5
#: of 13, n = 64 at 10.4), not on the step between two sizes, where they
#: would jump between the two from run to run.
SQUARE_SIZES = (4, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64, 96, 128)
SQUARE_MAX_EPS = 0.2

#: With the base channels below, the 13 operations of a block take from
#: 7 ms to 1.8 s.  The median falls on the tall channel (about 140 ms), with
#: the next cheaper and costlier operations 55% away, and p80 on flat52
#: (about 0.7 s), 55% and more from its neighbours; so neither jumps between
#: two operations of near-equal cost from run to run.  Sweep counts do not
#: follow n: flat16 takes about 10 000 sweeps, flat32 about 2 300.
FLAT_SIZES = (6, 8, 12, 16, 32, 40, 52, 64)
NEAR_DUPLICATE_EPS = (1e-2, 1e-3, 1e-4)
#: Seed of the fixed base channels of matrix-iterative (arXiv 1701.08731).
FAMILY_SEED = 170108731

#: Muroga raw inputs below this count as clearly infeasible for cli-cold.
INFEASIBLE_MARGIN = -1e-6
#: cli-cold keeps infeasible channels that plain BA settles within this many
#: sweeps, so its operations stay start-up bound; BA stalls are measured by
#: binary-sweep and matrix-iterative.
COLD_MAX_SWEEPS = 1000


@dataclass
class Op:
    """One capacity invocation and what the checker needs to judge it."""

    id: str
    argv: list
    q: np.ndarray
    channel: str  # ops on the same channel share this id
    kind: str


@dataclass
class Workload:
    name: str
    subprocess: bool  # one child process per operation
    blocks: list  # list of lists of Op
    warmup: Op  # run once per set-up, untimed
    trace_blocks: int  # fixed traced prefix, in blocks


def _write(workdir, name, q):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"matrix": q.tolist()}, fh)
    return path


def binary_q(a, c):
    return np.array([[1.0 - a, a], [1.0 - c, c]])


def _binary_block(rng, b, workdir):
    # Stratify |c - a| on its law under uniform (a, c) restricted to
    # |c - a| > BINARY_MIN_GAP (CDF F(u) = 1 - (1 - u)**2), one channel per
    # stratum.  Given the gap, the lower value is uniform, so (a, c) stays
    # uniform on the square, and every block holds the same number of
    # channels in the slow band 2e-3 < |c - a| < 5e-3.
    k = BINARY_BLOCK
    lo = 1.0 - (1.0 - BINARY_MIN_GAP) ** 2
    w = lo + (np.arange(k) + rng.random(k)) / k * (1.0 - lo)
    gap = 1.0 - np.sqrt(1.0 - w)
    low = rng.random(k) * (1.0 - gap)
    high = np.minimum(low + gap, 1.0)
    swap = rng.random(k) < 0.5
    a = np.where(swap, high, low)
    c = np.where(swap, low, high)
    ops = []
    for s in rng.permutation(k):
        ai, ci = float(a[s]), float(c[s])
        ch = f"binary-sweep/b{b}/s{s:04d}"
        flags = ["--a", repr(ai), "--c", repr(ci)]
        q = binary_q(ai, ci)
        ops.append(Op(ch + "/auto", flags, q, ch, "auto"))
        ops.append(Op(ch + "/ba", flags + ["--method", "blahut-arimoto"], q, ch, "ba"))
        if s % BINARY_GRID_EVERY == 0:
            ops.append(Op(ch + "/grid", flags + ["--method", "grid"], q, ch, "grid"))
    return ops


def _near_identity(rng, n):
    eps = SQUARE_MAX_EPS * (1.0 - rng.random())  # in (0, SQUARE_MAX_EPS]
    return (1.0 - eps) * np.eye(n) + eps * rng.dirichlet(np.ones(n), size=n)


def _file_op(workdir, ch, q, kind):
    return Op(ch, ["--matrix", _write(workdir, ch.replace("/", "_"), q)], q, ch, kind)


def _square_block(rng, b, workdir):
    ops = [
        _file_op(workdir, f"square-explicit/b{b}/n{n}", _near_identity(rng, n), f"n{n}")
        for n in SQUARE_SIZES
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


def _dirichlet(rows, cols, tag=0):
    # Each base channel has its own stream, so that adding or removing one
    # leaves the others, and their sweep counts, as they are.
    rng = np.random.default_rng([FAMILY_SEED, rows, cols, tag])
    return rng.dirichlet(np.ones(cols), size=rows)


def _family():
    # Fixed base channels.  BA sweep counts on these families are heavy
    # tailed in the channel (a flat 64x64 channel takes from 5e3 to 1e5
    # sweeps), so fresh channels per seed would make the run's cost a lottery;
    # each seed instead relabels inputs and outputs of one fixed set, which
    # keeps the sweep counts and gives every seed its own files.
    base = [(f"flat{n}", _dirichlet(n, n)) for n in FLAT_SIZES]
    base.append(("tall256x16", _dirichlet(256, 16)))
    base.append(("wide16x256", _dirichlet(16, 256)))
    for i, eps in enumerate(NEAR_DUPLICATE_EPS):
        q = _dirichlet(4, 4, i)
        q[1] = (1.0 - eps) * q[0] + eps * q[1]
        base.append((f"dup{eps:g}", q))
    return base


def _iterative_block(rng, b, workdir):
    ops = []
    for kind, q in _family():
        q = q[rng.permutation(q.shape[0])][:, rng.permutation(q.shape[1])]
        ops.append(_file_op(workdir, f"matrix-iterative/b{b}/{kind}", q, kind))
    return [ops[i] for i in rng.permutation(len(ops))]


def _muroga_input(q):
    # Raw Muroga input (Q^-1)^T r in bits, independent of the package.
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(q > 0.0, q * np.log2(np.where(q > 0.0, q, 1.0)), 0.0).sum(axis=1)
    x = np.linalg.solve(q, h)
    m = x.max()
    r = np.exp2(x - m)
    r /= r.sum()
    return np.linalg.solve(q.T, r)


def _ba_sweeps(q, cap, tol=1e-9):
    """Sweeps plain BA from the uniform input takes to a bracket of tol bits, at most cap."""
    pos = q > 0.0
    logq = np.log2(np.where(pos, q, 1.0))
    p = np.full(q.shape[0], 1.0 / q.shape[0])
    for sweep in range(1, cap + 1):
        d = np.where(pos, q * (logq - np.log2(p @ q)), 0.0).sum(axis=1)
        w = p * np.exp2(d - d.max())
        if -np.log2(w.sum()) <= tol:  # upper minus lower bound
            break
        p = w / w.sum()
    return sweep


def _cold_block(rng, b, workdir):
    while True:
        a, c = rng.random(2)
        if abs(c - a) > BINARY_MIN_GAP:
            break
    ch = f"cli-cold/b{b}/binary"
    ops = [Op(ch, ["--a", repr(float(a)), "--c", repr(float(c))], binary_q(a, c), ch, "binary")]
    ops.append(_file_op(workdir, f"cli-cold/b{b}/feasible3", _near_identity(rng, 3), "feasible3"))
    while True:
        q = rng.dirichlet(np.ones(4), size=4)
        if (
            abs(np.linalg.det(q)) > 1e-3
            and _muroga_input(q).min() < INFEASIBLE_MARGIN
            and _ba_sweeps(q, COLD_MAX_SWEEPS + 1) <= COLD_MAX_SWEEPS
        ):
            break
    ops.append(_file_op(workdir, f"cli-cold/b{b}/infeasible4", q, "infeasible4"))
    return [ops[i] for i in rng.permutation(len(ops))]


@dataclass(frozen=True)
class Spec:
    why: str
    block: Callable  # (rng, block index, file directory) -> list of Op
    subprocess: bool
    pool: int  # blocks generated per set-up; the timed loop cycles through them
    traced: int  # blocks in the traced prefix
    warmup: str  # kind of the warm-up operation


WORKLOADS = {
    "binary-sweep": Spec(
        "2x2 channels by --a/--c flags, closed form and BA cross-check on each, grid on 1 in 100",
        _binary_block,
        subprocess=False,
        pool=12,
        traced=1,
        warmup="auto",
    ),
    "square-explicit": Spec(
        "feasible near-identity square channel files n=4..128 under auto, so Muroga and LU do the work",
        _square_block,
        subprocess=False,
        pool=6,
        traced=6,
        warmup="n4",
    ),
    "matrix-iterative": Spec(
        "flat square, tall, wide and near-duplicate-row channel files under auto, so BA does the work",
        _iterative_block,
        subprocess=False,
        pool=3,
        traced=1,
        warmup="flat6",
    ),
    "cli-cold": Spec(
        "one capacity process per operation on small inputs, so interpreter and import start-up dominate",
        _cold_block,
        subprocess=True,
        pool=10,
        traced=6,
        warmup="binary",
    ),
}


def build(name, seed, workdir):
    """Generate the block pool of workload ``name`` from ``seed``; files go in workdir."""
    spec = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    blocks = [spec.block(rng, b, workdir) for b in range(spec.pool)]
    warmup = next(op for op in blocks[0] if op.kind == spec.warmup)
    return Workload(name, spec.subprocess, blocks, warmup, spec.traced)
