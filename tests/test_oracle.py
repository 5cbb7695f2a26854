"""Iterative capacity solvers and their certified bounds."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancap import (
    LogConfig,
    OracleConfig,
    binary_capacity,
    binary_channel,
    binary_optimal_input,
    blahut_arimoto,
    capacity_bounds,
    grid_search_binary,
)
from chancap.channel import check_channel
from chancap.entropy import _DEFAULT, _log_pos, xlogx_star
from chancap.muroga import SUPPORT_SHARE, SingularChannelError, _add_input, _muroga, feasible_input
from chancap.oracle import _DEFAULT_ORACLE, GridResult


#: Muroga's explicit input for this channel has a negative entry; the
#: capacity is attained at (1/2, 0, 1/2).
INFEASIBLE_3X3 = np.array([[0.8, 0.1, 0.1], [0.5, 0.25, 0.25], [0.1, 0.1, 0.8]])
INFEASIBLE_CAPACITY = 0.447067498701919
#: Exactly singular: LAPACK raises on Muroga's system for it.
DUPLICATE_ROW_3X3 = np.array([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
#: Row 3 is the mean of rows 1 and 2 but for a subnormal mass, and the mean's
#: row entropy is not the mean entropy, so Muroga's x overflows and the
#: computed inverse holds NaN; Blahut-Arimoto must settle it without a warning.
OVERFLOWING_4X4 = np.array(
    [[0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0], [0.25, 0.5, 0.25, 4e-309], [0.25, 0.25, 0.25, 0.25]]
)


class TestOracleConfig:
    def test_defaults(self):
        ocfg = OracleConfig()
        assert ocfg.tolerance == 1e-9
        assert ocfg.max_iterations == 100000
        assert ocfg.grid_resolution == 10**6

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(tolerance=0.0)
        for bad in (True, np.True_, "1e-9", None, b"1", 1e-9j):
            with pytest.raises(ValueError, match="tolerance must be a number"):
                OracleConfig(tolerance=bad)
        with pytest.raises(ValueError):
            OracleConfig(max_iterations=0)
        with pytest.raises(ValueError):
            OracleConfig(grid_resolution=1)
        # 10**400 is an int too large for a float.
        for bad in (math.nan, math.inf, -1e-9, 10**400, -(10**400)):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                OracleConfig(tolerance=bad)

    @pytest.mark.parametrize("field", ["max_iterations", "grid_resolution"])
    @pytest.mark.parametrize("value", [1e6, 2.5, 10.0, np.float64(100.0), True, np.True_, False, np.False_])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            OracleConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.int64(11), np.int32(11), np.uint16(11)])
    def test_numpy_integer_counts_accepted(self, value):
        ocfg = OracleConfig(max_iterations=value, grid_resolution=value)
        assert blahut_arimoto(binary_channel(0.0, 0.5), oracle=ocfg).iterations <= 11
        assert grid_search_binary(binary_channel(0.0, 0.5), oracle=ocfg).p1 == pytest.approx(0.6)


class TestBlahutArimoto:
    def test_identity_four(self):
        res = blahut_arimoto(np.eye(4))
        assert res.converged
        assert res.capacity == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(res.input_dist, 0.25, atol=1e-9)

    def test_z_channel(self):
        res = blahut_arimoto(binary_channel(0.0, 0.5))
        assert res.converged
        assert res.capacity == pytest.approx(math.log2(1.25), abs=1e-9)
        np.testing.assert_allclose(res.input_dist, [0.6, 0.4], atol=1e-6)

    def test_degenerate_capacity_is_zero(self):
        res = blahut_arimoto(binary_channel(0.3, 0.3))
        assert res.converged
        assert abs(res.capacity) <= 1e-9

    def test_non_square_channel(self):
        q = np.array([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]])
        res = blahut_arimoto(q)
        assert res.converged
        lower, upper = capacity_bounds(res.input_dist, q)
        assert res.capacity == pytest.approx(lower, abs=1e-8)

    def test_singular_square_equals_deduplicated_channel(self):
        """A duplicated input row adds nothing to the capacity."""
        base_rows = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        dup = np.vstack([base_rows, base_rows[0]])
        assert blahut_arimoto(dup).capacity == pytest.approx(
            blahut_arimoto(base_rows).capacity, abs=1e-8
        )

    def test_monotone_lower_bound(self):
        """The reported capacity never decreases with more iterations."""
        for q in (
            binary_channel(0.0, 0.5),
            binary_channel(0.37, 0.41),
            INFEASIBLE_3X3,
        ):
            caps = [
                blahut_arimoto(q, oracle=OracleConfig(max_iterations=k)).capacity
                for k in range(1, 30)
            ]
            for earlier, later in zip(caps, caps[1:]):
                assert later >= earlier - 1e-12

    def test_iteration_limit_reported(self):
        # The explicit try settles the Z-channel at sweep 1, so the cap is
        # reached on a channel whose explicit answer is infeasible.
        res = blahut_arimoto(INFEASIBLE_3X3, oracle=OracleConfig(max_iterations=3))
        assert not res.converged
        assert res.iterations == 3
        assert res.capacity <= INFEASIBLE_CAPACITY + 1e-12

    def test_converged_gap_is_certified(self):
        q = binary_channel(0.15, 0.6)
        res = blahut_arimoto(q, oracle=OracleConfig(tolerance=1e-11))
        lower, upper = capacity_bounds(res.input_dist, q)
        assert upper - res.capacity <= 1e-10

    def test_base_conversion(self):
        bits = blahut_arimoto(binary_channel(0.1, 0.7)).capacity
        nats = blahut_arimoto(
            binary_channel(0.1, 0.7), LogConfig(base=math.e), OracleConfig(tolerance=1e-12)
        ).capacity
        assert nats == pytest.approx(bits * math.log(2.0), abs=1e-8)


def _near_duplicate(seed, eps):
    q = np.random.default_rng(seed).dirichlet(np.ones(4), size=4)
    q[1] = (1.0 - eps) * q[0] + eps * q[1]
    return q


STALLING = {
    **{f"dup4x4-s{s}-eps{eps:g}": _near_duplicate(s, eps) for s in (0, 1) for eps in (1e-4, 1e-5)},
    "tall256x16": np.random.default_rng(3).dirichlet(np.ones(16), size=256),
    "flat40x40": np.random.default_rng([170108731, 40, 40, 0]).dirichlet(np.ones(40), size=40),
}


def _square_feasible_channels():
    """Binary channels with |c - a| > 1e-3 and near-identity channels,
    n = 3..8, whose optimal input has full support."""
    rng = np.random.default_rng(12)
    out = []
    while len(out) < 20:
        a, c = rng.random(2)
        if abs(c - a) > 1e-3:
            out.append(binary_channel(a, c))
    for n in range(3, 9):
        for _ in range(3):
            eps = 0.3 * rng.random()
            out.append((1.0 - eps) * np.eye(n) + eps * rng.dirichlet(np.ones(n), size=n))
    return out


SQUARE_FEASIBLE = _square_feasible_channels()


@st.composite
def channels(draw):
    """Up to 12 outputs and 3 times as many inputs (tall shapes make the
    polish add inputs), with zero columns and exact or near-duplicate rows."""
    live = draw(st.integers(1, 12))
    zeros = draw(st.integers(0, 12 - live))
    n = draw(st.integers(1, 3 * (live + zeros)))
    alpha = draw(st.sampled_from([0.2, 1.0, 5.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.zeros((n, live + zeros))
    q[:, rng.permutation(live + zeros)[:live]] = rng.dirichlet(np.full(live, alpha), size=n)
    for _ in range(draw(st.integers(0, n - 1))):
        i, j = rng.choice(n, size=2, replace=n < 2)
        eps = draw(st.sampled_from([0.0, 1e-3, 1e-5, 1e-8]))
        q[j] = (1.0 - eps) * q[i] + eps * q[j]
    return q


class TestNewtonPolish:
    """Channels on which plain alternating maximization stalls or crawls:
    near-duplicate rows take 87 000 sweeps to the 100 000 cap, the flat
    40x40 channel 37 498 and the tall one 6138; the certified polish settles
    each within a few sweeps.  On the tall and flat channels the first
    support guess misses an optimal input, which only the add step of the
    polish brings back: with drops alone they took 32 and 64 sweeps."""

    @pytest.mark.parametrize("name", sorted(STALLING))
    def test_stalling_channel_converges(self, name):
        q = STALLING[name]
        tol = OracleConfig().tolerance
        res = blahut_arimoto(q)
        assert res.converged
        assert res.iterations <= 8
        lower, upper = capacity_bounds(res.input_dist, q)
        assert res.capacity == lower
        assert upper - lower <= tol

    def test_add_to_spanning_support_swaps_one_input(self):
        """Four independent rows of a 4-output channel span all its rows, so
        a fifth input enters along the null direction of the rows: the
        output, and with it every divergence, stays, and one input leaves."""
        rng = np.random.default_rng(11)
        q = rng.dirichlet(np.ones(4), size=12)
        cand = np.zeros(12)
        cand[:4] = rng.dirichlet(np.ones(4))
        j = 7
        start = _add_input(q, cand, j)
        assert start.min() >= 0.0 and math.fsum(start) == pytest.approx(1.0, abs=1e-15)
        assert start[j] > 0.0
        assert np.count_nonzero(start[:4]) == 3
        np.testing.assert_allclose(start @ q, cand @ q, rtol=0, atol=1e-14)

    def test_add_to_partial_support_keeps_every_input(self):
        q = np.random.default_rng(12).dirichlet(np.ones(6), size=8)
        cand = np.zeros(8)
        cand[:3] = [0.5, 0.3, 0.2]
        start = _add_input(q, cand, 5)
        expected = cand.copy()
        expected[5] = SUPPORT_SHARE * 0.5
        np.testing.assert_array_equal(start, expected / expected.sum())

    def test_flat_channel_prunes_in_few_solves(self, solves):
        """The first support guess on a flat 64x64 channel holds about 50
        inputs that are not optimal; dropping every input that fails both
        KKT tests at once prunes them in a few Newton solves, where one drop
        per step took 52."""
        q = np.random.default_rng([170108731, 64, 64, 0]).dirichlet(np.ones(64), size=64)
        res = blahut_arimoto(q)
        assert res.converged
        assert res.iterations == 4
        assert len(solves) <= 12

    def test_square_support_is_settled_by_the_polish(self, solves):
        """On a square channel whose optimal input has full support, the
        polish at sweep 4 settles a larger square by Newton's method on its
        support, in one to three solves (measured: 1, 2 or 3 on these 18),
        and a 2x2 channel settles at sweep 1 by the closed form with none."""
        for i, q in enumerate(SQUARE_FEASIBLE):
            solves.clear()
            res = blahut_arimoto(q)
            assert res.converged, i
            if q.shape[0] == 2:
                assert res.iterations == 1 and solves == [], (i, solves)
            else:
                assert res.iterations == 4, i
                assert 1 <= len(solves) <= 3, (i, solves)
            lower, upper = capacity_bounds(res.input_dist, q)
            assert res.capacity == lower
            assert upper - lower <= OracleConfig().tolerance

    def test_singular_square_is_solved_by_newton(self):
        """Two equal rows make the channel exactly singular, so Muroga's
        formula raises; the polish's Newton steps settle it, to the capacity
        they reached before the explicit solution existed."""
        q = DUPLICATE_ROW_3X3
        logq = _log_pos(q, 2.0)
        with pytest.raises(SingularChannelError):
            _muroga(q, logq, 2.0)
        res = blahut_arimoto(q)
        assert res.converged
        lower, upper = capacity_bounds(res.input_dist, q)
        assert res.capacity == lower
        assert upper - lower <= OracleConfig().tolerance
        assert res.capacity == pytest.approx(0.4184740408560409, abs=1e-12)

    @pytest.mark.parametrize("base", [math.e, 10.0])
    def test_square_support_answer_is_base_free(self, base):
        for i, q in enumerate(SQUARE_FEASIBLE):
            bits = blahut_arimoto(q).capacity
            got = blahut_arimoto(q, LogConfig(base=base)).capacity
            assert got == pytest.approx(bits * math.log(2.0) / math.log(base), abs=1e-12), i

    @pytest.mark.parametrize("n, m, seed", [(128, 8, 2760), (128, 8, 1595), (96, 6, 1534)])
    def test_batched_drops_never_settle_later(self, n, m, seed, solves):
        """On these tall channels a batch of drops after an add threw out the
        input just added, which settled them at sweeps 128, 64 and 32, and
        repeating a failed attempt with single drops took 79, 57 and 47
        Newton solves.  Dropping in batches only on the first support guess
        and one input per step after an add settles each at sweep 4 in at
        most 40."""
        q = np.random.default_rng(seed).dirichlet(np.ones(m), size=n)
        res = blahut_arimoto(q)
        assert res.converged
        assert res.iterations <= 4
        assert len(solves) <= 40
        lower, upper = capacity_bounds(res.input_dist, q)
        assert res.capacity == lower
        assert upper - lower <= OracleConfig().tolerance

    def test_polish_work_on_random_squares(self, solves):
        """The 1200 squares of ``blahut_arimoto``'s docstring (numpy seed 11,
        n = 3..8, 200 each, rows Dirichlet(0.7)) all settle at sweep 4, in
        6570 Newton solves: 2 to 17 per channel, median 5.  Pinned, so that a
        change to the polish's support rules shows up here as a count."""
        rng = np.random.default_rng(11)
        per_channel = []
        for n in range(3, 9):
            for _ in range(200):
                q = rng.dirichlet(0.7 * np.ones(n), size=n)
                before = len(solves)
                res = blahut_arimoto(q)
                assert res.converged and res.iterations == 4, n
                per_channel.append(len(solves) - before)
        assert sum(per_channel) == 6570
        assert (min(per_channel), int(np.median(per_channel)), max(per_channel)) == (2, 5, 17)

    def test_polish_work_on_tall_channels(self, solves):
        """300 channels of 128x8 and then 300 of 96x6 from one numpy seed-5
        stream (rows Dirichlet(1)) take 2404 sweeps and 9052 Newton solves."""
        rng = np.random.default_rng(5)
        tall = [rng.dirichlet(np.ones(8), size=128) for _ in range(300)]
        tall += [rng.dirichlet(np.ones(6), size=96) for _ in range(300)]
        results = [blahut_arimoto(q) for q in tall]
        assert all(res.converged for res in results)
        assert sum(res.iterations for res in results) == 2404
        assert len(solves) == 9052

    @settings(deadline=None, max_examples=60)
    @given(channels(), st.sampled_from([2.0, math.e]))
    def test_polished_loop_is_certified_and_monotone(self, q, base):
        cfg = LogConfig(base=base)
        res = blahut_arimoto(q, cfg, OracleConfig(max_iterations=2000))
        if res.converged:
            lower, upper = capacity_bounds(res.input_dist, q, cfg)
            assert res.capacity == lower
            assert upper - lower <= OracleConfig().tolerance
        # 1..40 crosses the polish points 4, 8, 16 and 32.  A polished answer
        # must beat the sweep it replaces exactly; between plain sweeps I(p)
        # rises in exact arithmetic but its rounded value can slip by an ulp.
        caps = [
            blahut_arimoto(q, cfg, OracleConfig(max_iterations=k)).capacity for k in range(1, 41)
        ]
        for earlier, later in zip(caps, caps[1:]):
            assert later >= earlier - 1e-12


def _raise_singular(*args):
    raise SingularChannelError("Muroga's formula disabled")


def _symmetric(n, eps):
    """The n-ary symmetric channel: each input goes wrong with probability eps, evenly."""
    return np.full((n, n), eps / (n - 1)) + (1.0 - eps - eps / (n - 1)) * np.eye(n)


def _flat_infeasible_squares():
    """Flat Dirichlet squares, n = 3..8, whose explicit input leaves the simplex."""
    rng = np.random.default_rng(5)
    out = []
    for n in range(3, 9):
        while len(out) < 3 * (n - 2):
            q = rng.dirichlet(np.ones(n), size=n)
            if _muroga(q, _log_pos(q, 2.0), 2.0).opt_input_raw.min() < -1e-3:
                out.append(q)
    return out


class TestExplicitTry:
    """A 2x2 channel's explicit answer, the closed form, is tried once before
    sweep 1 and returned only under its own certificate.  A larger square
    has no explicit try: the command line offers Muroga's answer first."""

    def test_binary_channels_settle_at_sweep_one(self, murogas):
        """A 2x2 channel's try is the paper's closed form in (a, c): no linear
        solve, and bit for bit the input an auto report shows.  Rows as close
        as |c - a| < 5e-3 would often pass at the uniform input too, with a
        gap up to 1e-9; the closed form comes first and certifies to 1e-15."""
        rng = np.random.default_rng(11)
        channels = []
        while len(channels) < 1000:
            a, c = rng.random(2)
            if abs(c - a) > 1e-3:
                channels.append((a, c))
        close = [(0.5199449268665737, 0.5225572189018213)]  # settled at (1/2, 1/2), gap 3.7e-10, when tried second
        rng = np.random.default_rng(12)
        while len(close) < 200:
            a = rng.random()
            c = a + rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 5e-3)
            if 0.0 <= c <= 1.0:
                close.append((a, c))
        for near, pairs in ((False, channels), (True, close)):
            for a, c in pairs:
                res = blahut_arimoto(binary_channel(a, c))
                assert res.converged and res.iterations == 1, (a, c)
                assert res.capacity == pytest.approx(binary_capacity(a, c), abs=1e-12), (a, c)
                want = feasible_input(binary_optimal_input(a, c))
                assert res.input_dist.tobytes() == want.tobytes(), (a, c)
                assert not near or res.upper - res.capacity < 1e-15, (a, c)
        assert murogas == []

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_symmetric_square_settles_before_the_try(self, murogas, n):
        """A larger square starts from the uniform bracket: a symmetric one
        settles there and never evaluates Muroga's two solves."""
        res = blahut_arimoto(_symmetric(n, 0.1))
        assert res.converged and res.iterations == 1
        assert np.all(res.input_dist == 1.0 / n)
        assert murogas == []

    def test_polish_does_not_repeat_the_try(self, murogas):
        """Only a 2x2 channel has an explicit try; the polish solves every
        support by Newton, so a larger square, feasible, infeasible, singular
        or overflowing, and a tall channel never evaluate Muroga's formula,
        at the default cap and at two sweeps."""
        squares = [
            INFEASIBLE_3X3, *_flat_infeasible_squares(), *SQUARE_FEASIBLE, DUPLICATE_ROW_3X3, OVERFLOWING_4X4,
        ]
        tall = [STALLING["tall256x16"], np.random.default_rng(4).dirichlet(np.ones(4), size=12)]
        for i, q in enumerate(squares + tall):
            assert blahut_arimoto(q).converged, i
            blahut_arimoto(q, oracle=OracleConfig(max_iterations=2))
            assert murogas == [], i

    def test_failed_try_leaves_no_trace(self, monkeypatch):
        """With Muroga's formula raising wherever a ``chancap`` module binds
        it, a larger square's answer is the same to the byte: nothing that
        Blahut-Arimoto returns for it rests on that formula."""
        from chancap import muroga as muroga_module

        squares = [INFEASIBLE_3X3, *_flat_infeasible_squares(), *SQUARE_FEASIBLE, DUPLICATE_ROW_3X3, OVERFLOWING_4X4]
        squares = [q for q in squares if q.shape[0] > 2]
        caps = [OracleConfig(), OracleConfig(max_iterations=2)]
        tried = [blahut_arimoto(q, oracle=ocfg) for q in squares for ocfg in caps]
        real = muroga_module._muroga
        for name, module in list(sys.modules.items()):
            if name == "chancap" or name.startswith("chancap."):
                for gname in [g for g, v in vars(module).items() if v is real]:
                    monkeypatch.setattr(module, gname, _raise_singular)
        untried = [blahut_arimoto(q, oracle=ocfg) for q in squares for ocfg in caps]
        for i, (got, want) in enumerate(zip(tried, untried)):
            assert got.capacity == want.capacity, i
            assert got.input_dist.tobytes() == want.input_dist.tobytes(), i
            assert (got.iterations, got.converged) == (want.iterations, want.converged), i

    @pytest.mark.parametrize(
        "q",
        [
            binary_channel(0.3, 0.3),
            DUPLICATE_ROW_3X3,
            np.array([[1.0, 0.0], [1.0 - 1e-15, 1e-15]]),
            OVERFLOWING_4X4,
        ],
        ids=["equal-rows-2x2", "duplicate-row-3x3", "near-singular-2x2", "overflowing-4x4"],
    )
    def test_singular_square_is_quiet(self, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = blahut_arimoto(q)
        assert res.converged
        lower, upper = capacity_bounds(res.input_dist, q)
        assert res.capacity == lower and upper - lower <= OracleConfig().tolerance


#: One channel and cap per way out of the loop, with a check that it went that way.
EXITS = {
    "uniform-at-sweep-1": (
        _symmetric(3, 0.1), OracleConfig(),
        lambda res: res.iterations == 1 and np.all(res.input_dist == 1.0 / 3.0),
    ),
    "closed-form-try": (
        binary_channel(0.0, 0.5), OracleConfig(),
        lambda res: res.iterations == 1 and res.input_dist[0] != 0.5,
    ),
    "closed-form-try-bsc": (
        binary_channel(0.1, 0.9), OracleConfig(),
        lambda res: res.iterations == 1
        and res.input_dist.tobytes() == feasible_input(binary_optimal_input(0.1, 0.9)).tobytes(),
    ),
    "square-polish": (
        SQUARE_FEASIBLE[20], OracleConfig(),
        lambda res: res.converged and res.iterations == 4 and np.ptp(res.input_dist) > 0.0,
    ),
    "polish": (
        np.random.default_rng(4).dirichlet(np.ones(4), size=12), OracleConfig(),
        lambda res: res.converged and res.iterations == 4,
    ),
    **{
        f"cap-{k}": (INFEASIBLE_3X3, OracleConfig(max_iterations=k), lambda res: not res.converged)
        for k in (1, 2, 3)
    },
}


class TestReturnedBracket:
    """``BAResult.upper`` comes from the same bracket as ``capacity``: the
    pair is ``capacity_bounds(input_dist, q)`` to the bit, however the loop
    ends, so a report can use it without recomputing."""

    CFGS = (LogConfig(), LogConfig(base=math.e), LogConfig(base=10.0))

    @pytest.mark.parametrize("cfg", CFGS, ids=["bits", "nats", "digits"])
    @pytest.mark.parametrize("name", sorted(EXITS))
    def test_each_exit(self, name, cfg):
        q, ocfg, took_exit = EXITS[name]
        res = blahut_arimoto(q, cfg, ocfg)
        assert took_exit(res), res
        assert (res.capacity, res.upper) == capacity_bounds(res.input_dist, q, cfg)

    @pytest.mark.parametrize("cfg", CFGS, ids=["bits", "nats", "digits"])
    def test_explicit_try_channels(self, cfg):
        squares = [
            binary_channel(0.3, 0.3), DUPLICATE_ROW_3X3, np.array([[1.0, 0.0], [1.0 - 1e-15, 1e-15]]),
            OVERFLOWING_4X4, INFEASIBLE_3X3, *_flat_infeasible_squares(), *SQUARE_FEASIBLE,
        ]
        for i, q in enumerate(squares):
            for ocfg in (OracleConfig(), OracleConfig(max_iterations=2)):
                res = blahut_arimoto(q, cfg, ocfg)
                assert (res.capacity, res.upper) == capacity_bounds(res.input_dist, q, cfg), i


class TestGridSearch:
    def test_noiseless(self):
        res = grid_search_binary(binary_channel(0.0, 1.0))
        assert res.capacity == pytest.approx(1.0, abs=1e-9)
        assert res.p1 == pytest.approx(0.5, abs=1e-5)

    def test_z_channel(self):
        res = grid_search_binary(binary_channel(0.0, 0.5))
        assert res.capacity == pytest.approx(math.log2(1.25), abs=1e-9)
        assert res.p1 == pytest.approx(0.6, abs=1e-5)

    def test_symmetric_channel(self):
        res = grid_search_binary(binary_channel(0.1, 0.9))
        h2 = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
        assert res.capacity == pytest.approx(1.0 - h2, abs=1e-9)
        assert res.p1 == pytest.approx(0.5, abs=1e-5)

    def test_two_by_three(self):
        q = np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
        res = grid_search_binary(q)
        ba = blahut_arimoto(q)
        assert res.capacity == pytest.approx(ba.capacity, abs=1e-6)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            grid_search_binary(np.eye(3))

    def test_coarse_resolution(self):
        res = grid_search_binary(
            binary_channel(0.0, 0.5), oracle=OracleConfig(grid_resolution=11)
        )
        assert res.p1 == pytest.approx(0.6, abs=1e-12)

    def test_cross_agreement_with_iterative_solver(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            a, c = rng.random(2)
            if abs(c - a) <= 1e-3:
                continue
            g = grid_search_binary(binary_channel(a, c))
            b = blahut_arimoto(binary_channel(a, c))
            assert g.capacity == pytest.approx(b.capacity, abs=1e-6)


def _exhaustive_grid(q, cfg: LogConfig = None, oracle: OracleConfig = None):
    """Reference: the grid search that evaluates every one of the R points."""
    cfg = _DEFAULT if cfg is None else cfg
    oracle = _DEFAULT_ORACLE if oracle is None else oracle
    q = check_channel(q)
    if q.shape[0] != 2:
        raise ValueError(f"grid search needs exactly 2 input rows, got {q.shape[0]}")
    t = np.linspace(0.0, 1.0, oracle.grid_resolution)
    row_entropy_1 = -math.fsum(xlogx_star(q[0], cfg))
    row_entropy_2 = -math.fsum(xlogx_star(q[1], cfg))
    out_entropy = np.zeros_like(t)
    for j in range(q.shape[1]):
        out_entropy -= xlogx_star(t * q[0, j] + (1.0 - t) * q[1, j], cfg)
    mi = out_entropy - (t * row_entropy_1 + (1.0 - t) * row_entropy_2)
    best = int(np.argmax(mi))
    return GridResult(float(mi[best]), float(t[best]))


@st.composite
def two_input_channels(draw):
    """2 x m, m = 2..5: zero columns, tiny entries, near-duplicate and
    identical rows, and binary channels with |c - a| down to 1e-12."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(["plain", "zero column", "tiny", "near-duplicate", "identical", "binary"])
    )
    if kind == "binary":
        a = draw(st.floats(0.0, 1.0))
        gap = max(a, 1.0 - a) * 10.0 ** draw(st.floats(-12.0, 0.0))
        return binary_channel(a, a + gap if a + gap <= 1.0 else a - gap)
    m = draw(st.integers(2, 5))
    q = rng.dirichlet(np.full(m, draw(st.sampled_from([0.2, 1.0, 5.0]))), size=2)
    if kind == "zero column":
        q[:, rng.integers(m)] = 0.0
    elif kind == "tiny":
        q[:, rng.integers(m)] *= 10.0 ** -draw(st.floats(20.0, 200.0))
    elif kind == "near-duplicate":
        eps = 10.0 ** draw(st.floats(-12.0, -1.0))
        q[1] = (1.0 - eps) * q[0] + eps * q[1]
    elif kind == "identical":
        q[1] = q[0]
    return q / q.sum(axis=1, keepdims=True)


BASES = st.sampled_from([2.0, math.e, 10.0])


class TestGridExactness:
    """The coarse-to-fine search returns what the exhaustive sweep returns,
    bit for bit: the same capacity and the same (first) best grid point."""

    @settings(deadline=None, max_examples=150)
    @given(
        two_input_channels(),
        BASES,
        st.sampled_from([2, 3, 11, 1000, 2049, 4097, 65539, 10**5]),
    )
    def test_matches_exhaustive_sweep(self, q, base, resolution):
        cfg, ocfg = LogConfig(base=base), OracleConfig(grid_resolution=resolution)
        assert grid_search_binary(q, cfg, ocfg) == _exhaustive_grid(q, cfg, ocfg)

    @settings(deadline=None, max_examples=12)
    @given(two_input_channels(), BASES)
    def test_matches_exhaustive_sweep_at_default_resolution(self, q, base):
        cfg = LogConfig(base=base)
        assert grid_search_binary(q, cfg) == _exhaustive_grid(q, cfg)


class TestGridMemory:
    """The search never holds arrays that grow with the resolution."""

    @pytest.mark.parametrize(
        "a, c, resolution",
        [(0.1, 0.7, 10**6), (0.3, 0.3 + 1e-10, 10**6), (0.1, 0.7, 10**8)],
        ids=["separated", "near-degenerate", "separated-1e8"],
    )
    def test_traced_peak_is_bounded(self, a, c, resolution):
        q = binary_channel(a, c)
        tracemalloc.start()
        try:
            res = grid_search_binary(q, oracle=OracleConfig(grid_resolution=resolution))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        if resolution == 10**8:
            assert abs(res.p1 - binary_optimal_input(a, c)[0]) <= 1e-7


class TestCapacityBounds:
    def test_bracket_contains_capacity(self):
        q = binary_channel(0.2, 0.65)
        cap = binary_capacity(0.2, 0.65)
        rng = np.random.default_rng(63)
        for _ in range(50):
            p = rng.dirichlet(np.ones(2))
            lower, upper = capacity_bounds(p, q)
            assert lower <= cap + 1e-12
            assert upper >= cap - 1e-12

    def test_tight_at_optimum(self):
        lower, upper = capacity_bounds([0.6, 0.4], binary_channel(0.0, 0.5))
        assert upper - lower <= 1e-12
        assert lower == pytest.approx(math.log2(1.25), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            capacity_bounds([1.0], binary_channel(0.0, 0.5))
