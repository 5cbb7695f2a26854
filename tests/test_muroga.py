"""Explicit square-channel capacity: auxiliary system, closed form, feasibility."""

import math
import warnings

import numpy as np
import pytest

from chancap import (
    INPUT_FEASIBILITY_TOL,
    LogConfig,
    SingularChannelError,
    binary_aux,
    binary_channel,
    blahut_arimoto,
    capacity_bounds,
    capacity_from_aux,
    channel_mutual_information,
    feasible_input,
    mi_gradient,
    muroga_capacity,
    optimal_input,
    optimal_output,
    relabel_inputs,
    relabel_outputs,
    solve,
    solve_auxiliary,
    xlogx_star,
)
from chancap.entropy import _log_pos
from chancap.muroga import _active_set, _muroga

# A channel whose middle input is a noisy blend of the outer two: the
# unconstrained stationary input has a negative middle entry, so the
# explicit solution is an upper bound only (verified against the
# iterative oracle when this fixture was frozen).
INFEASIBLE_3X3 = np.array(
    [
        [0.8, 0.1, 0.1],
        [0.5, 0.25, 0.25],
        [0.1, 0.1, 0.8],
    ]
)


def _random_invertible_channels(seed, count, sizes=(2, 3, 4, 5, 6)):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.choice(sizes))
        q = rng.dirichlet(np.ones(n), size=n)
        try:
            muroga_capacity(q)
        except SingularChannelError:
            continue
        out.append(q)
    return out


def _infeasible_square_channels(seed, count):
    """Random square channels, n = 3..8, whose raw Muroga input leaves the simplex."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(3, 9))
        q = rng.dirichlet(np.ones(n), size=n)
        try:
            feasible = muroga_capacity(q).feasible
        except SingularChannelError:
            continue
        if not feasible:
            out.append(q)
    return out


class TestSolveAuxiliary:
    def test_identity_gives_zero_vector(self):
        np.testing.assert_array_equal(solve_auxiliary(np.eye(4)), np.zeros(4))

    def test_z_channel(self):
        np.testing.assert_allclose(
            solve_auxiliary(binary_channel(0.0, 0.5)), [0.0, -2.0], atol=1e-15
        )

    def test_matches_binary_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            a, c = rng.random(2)
            if abs(c - a) <= 1e-3:
                continue
            x1, x2 = binary_aux(a, c)
            np.testing.assert_allclose(
                solve_auxiliary(binary_channel(a, c)), [x1, x2], atol=1e-10
            )

    def test_residual(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            q = rng.dirichlet(np.ones(n), size=n)
            try:
                x = solve_auxiliary(q)
            except SingularChannelError:
                continue
            h = np.array([math.fsum(xlogx_star(row)) for row in q])
            assert np.abs(q @ x - h).max() <= 1e-10

    def test_singular_raises(self):
        with pytest.raises(SingularChannelError):
            solve_auxiliary(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            solve_auxiliary(np.array([[0.2, 0.3, 0.5], [0.5, 0.25, 0.25]]))


class TestCapacityFromAux:
    def test_zero_vector_gives_log_n(self):
        for n in (2, 3, 8):
            assert capacity_from_aux(np.zeros(n)) == pytest.approx(math.log2(n), abs=1e-12)

    def test_z_channel_value(self):
        assert capacity_from_aux([0.0, -2.0]) == pytest.approx(math.log2(1.25), abs=1e-14)

    def test_bsc_value(self):
        x = solve_auxiliary(binary_channel(0.1, 0.9))
        h2 = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
        assert capacity_from_aux(x) == pytest.approx(1.0 - h2, abs=1e-12)

    def test_large_negative_entries_do_not_underflow(self):
        c = capacity_from_aux([-1500.0, -1500.0])
        assert c == pytest.approx(-1499.0, abs=1e-9)

    def test_other_base(self):
        c = capacity_from_aux([0.0, 0.0, 0.0], LogConfig(base=3.0))
        assert c == pytest.approx(1.0, abs=1e-14)

    def test_is_the_pipelines_capacity(self):
        """The step takes C from x as ``muroga_capacity`` does, to the byte."""
        rng = np.random.default_rng(3)
        for i in range(2000):
            n = int(rng.integers(2, 9))
            sol = muroga_capacity(rng.dirichlet(np.full(n, 0.7), size=n))
            assert capacity_from_aux(sol.aux) == sol.capacity, i


class TestHelperValidation:
    """The public helpers of Muroga's formula reject what they cannot use,
    naming the argument, instead of returning NaN or failing inside numpy."""

    @pytest.mark.parametrize(
        "aux, match",
        [
            ([math.nan], "aux contains non-finite"),
            ([0.0, math.inf], "aux contains non-finite"),
            ([], "aux must be non-empty"),
            ([[1.0, 2.0]], "aux must be 1-D"),
            (0.5, "aux must be 1-D"),
        ],
    )
    def test_aux(self, aux, match):
        with pytest.raises(ValueError, match=match):
            capacity_from_aux(aux)
        with pytest.raises(ValueError, match=match):
            optimal_output(aux, 1.0)

    @pytest.mark.parametrize(
        "capacity",
        [
            math.nan, math.inf, -math.inf, True, "1.0", None, np.array([1.0]),
            pytest.param(10**400, id="int_beyond_float"), pytest.param(-(10**400), id="negative_int_beyond_float"),
        ],
    )
    def test_capacity(self, capacity):
        with pytest.raises(ValueError, match="capacity must be a finite real"):
            optimal_output([0.0, -2.0], capacity)

    @pytest.mark.parametrize("bad", [[math.nan, 0.5], [0.5, math.inf]])
    def test_optimal_input_output(self, bad):
        with pytest.raises(ValueError, match="opt_output contains non-finite"):
            optimal_input(binary_channel(0.0, 0.5), bad)

    @pytest.mark.parametrize("bad", [[math.nan, 0.5], [0.5, -math.inf]])
    def test_solve_rhs(self, bad):
        with pytest.raises(ValueError, match="rhs contains non-finite"):
            solve(np.eye(2), bad)

    def test_solve_empty_matrix(self):
        with pytest.raises(ValueError, match="matrix must be non-empty"):
            solve(np.zeros((0, 0)), [])


class TestOptimalDistributions:
    def test_output_zero_aux_is_uniform(self):
        r = optimal_output(np.zeros(5), math.log2(5))
        np.testing.assert_allclose(r, 0.2, atol=1e-14)

    def test_output_z_channel(self):
        for capacity in (math.log2(1.25), np.float64(math.log2(1.25))):
            r = optimal_output([0.0, -2.0], capacity)
            np.testing.assert_allclose(r, [0.8, 0.2], atol=1e-14)

    def test_output_always_sums_to_one(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            x = rng.normal(scale=5.0, size=rng.integers(2, 7))
            r = optimal_output(x, capacity_from_aux(x))
            assert np.all(r > 0)
            assert abs(math.fsum(r) - 1.0) <= 1e-12

    def test_input_identity_returns_output(self):
        r = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(optimal_input(np.eye(3), r), r, atol=1e-14)

    def test_input_z_channel(self):
        p = optimal_input(binary_channel(0.0, 0.5), np.array([0.8, 0.2]))
        np.testing.assert_allclose(p, [0.6, 0.4], atol=1e-14)

    def test_input_matches_the_pipeline_bytes(self):
        # The same LU solve of Q^T p = r as muroga_capacity, not F^T r.
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            q = rng.dirichlet(np.full(n, 0.7), size=n)
            sol = muroga_capacity(q)
            assert optimal_input(q, sol.opt_output).tobytes() == sol.opt_input_raw.tobytes()

    def test_input_sums_to_one_even_when_negative(self):
        sol = muroga_capacity(INFEASIBLE_3X3)
        assert abs(math.fsum(sol.opt_input_raw) - 1.0) <= 1e-10
        assert sol.opt_input_raw.min() < -INPUT_FEASIBILITY_TOL

    def test_input_wrong_length_raises(self):
        with pytest.raises(ValueError, match="does not match channel"):
            optimal_input(np.eye(3), np.array([0.5, 0.5]))

    def test_input_singular_raises(self):
        with pytest.raises(SingularChannelError):
            optimal_input(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5]))

    def test_feasible_input_clamps_and_renormalizes(self):
        p = feasible_input(np.array([0.7, -1e-13, 0.3]))
        assert p[1] == 0.0
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "raw", [[np.nan, 1.0], [np.inf, 1.0], [0.0, -1e-13], [1e308, 1e308]]
    )
    def test_feasible_input_rejects_non_finite_or_empty_mass(self, raw):
        with pytest.raises(ValueError, match="finite positive mass"):
            feasible_input(np.array(raw))

    @pytest.mark.parametrize("raw", [[[0.5], [0.5]], 0.5], ids=["2-D", "0-D"])
    def test_feasible_input_rejects_input_that_is_not_1d(self, raw):
        """These raised TypeError inside math.fsum."""
        with pytest.raises(ValueError, match=r"opt_input_raw must be 1-D, got shape \("):
            feasible_input(raw)


class TestMurogaCapacity:
    def test_identity_three(self):
        sol = muroga_capacity(np.eye(3))
        assert sol.capacity == pytest.approx(math.log2(3.0), abs=1e-12)
        np.testing.assert_allclose(sol.opt_input_raw, 1.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(sol.opt_output, 1.0 / 3.0, atol=1e-12)
        assert sol.feasible

    def test_z_channel_full_solution(self):
        sol = muroga_capacity(binary_channel(0.0, 0.5))
        assert sol.capacity == pytest.approx(math.log2(1.25), abs=1e-12)
        np.testing.assert_allclose(sol.aux, [0.0, -2.0], atol=1e-12)
        np.testing.assert_allclose(sol.opt_output, [0.8, 0.2], atol=1e-12)
        np.testing.assert_allclose(sol.opt_input_raw, [0.6, 0.4], atol=1e-12)
        np.testing.assert_allclose(sol.inverse, [[1.0, 0.0], [-1.0, 2.0]], atol=1e-12)
        assert sol.feasible

    def test_inverse_row_sums_are_one(self):
        for q in _random_invertible_channels(44, 40):
            sol = muroga_capacity(q)
            np.testing.assert_allclose(sol.inverse.sum(axis=1), 1.0, atol=1e-10)

    def test_feasible_capacity_equals_mutual_information(self):
        for q in _random_invertible_channels(45, 40):
            sol = muroga_capacity(q)
            if not sol.feasible:
                continue
            p = feasible_input(sol.opt_input_raw)
            assert sol.capacity == pytest.approx(
                channel_mutual_information(p, q), abs=1e-8
            )

    def test_feasible_capacity_is_maximal(self):
        rng = np.random.default_rng(46)
        for q in _random_invertible_channels(47, 10):
            sol = muroga_capacity(q)
            if not sol.feasible:
                continue
            n = q.shape[0]
            for _ in range(200):
                p = rng.dirichlet(np.ones(n))
                assert sol.capacity >= channel_mutual_information(p, q) - 1e-8

    def test_feasible_interior_gradient_components_equal(self):
        """Stationarity: every gradient component equals C - 1/ln b."""
        for q in _random_invertible_channels(48, 40):
            sol = muroga_capacity(q)
            p = sol.opt_input_raw
            if not sol.feasible or p.min() <= 1e-9:
                continue
            g = mi_gradient(p, q)
            assert g.max() - g.min() <= 1e-8
            assert g[0] == pytest.approx(sol.capacity - 1.0 / math.log(2.0), abs=1e-8)

    def test_agrees_with_oracle_when_feasible(self):
        for q in _random_invertible_channels(49, 30):
            sol = muroga_capacity(q)
            if not sol.feasible:
                continue
            ba = blahut_arimoto(q)
            assert sol.capacity == pytest.approx(ba.capacity, abs=1e-6)

    def test_input_relabeling_permutes_solution(self):
        q = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])
        perm = [2, 0, 1]
        sol = muroga_capacity(q)
        _, q2 = relabel_inputs(np.full(3, 1 / 3), q, perm)
        sol2 = muroga_capacity(q2)
        assert sol2.capacity == pytest.approx(sol.capacity, abs=1e-12)
        np.testing.assert_allclose(sol2.opt_input_raw, sol.opt_input_raw[perm], atol=1e-10)
        np.testing.assert_allclose(sol2.opt_output, sol.opt_output, atol=1e-10)

    def test_output_relabeling_permutes_aux_and_output(self):
        q = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])
        perm = [1, 2, 0]
        sol = muroga_capacity(q)
        sol2 = muroga_capacity(relabel_outputs(q, perm))
        assert sol2.capacity == pytest.approx(sol.capacity, abs=1e-12)
        np.testing.assert_allclose(sol2.aux, sol.aux[perm], atol=1e-10)
        np.testing.assert_allclose(sol2.opt_output, sol.opt_output[perm], atol=1e-10)

    def test_infeasible_fixture(self):
        sol = muroga_capacity(INFEASIBLE_3X3)
        assert not sol.feasible
        ba = blahut_arimoto(INFEASIBLE_3X3)
        assert ba.converged
        # the unconstrained stationary value strictly overshoots the capacity
        assert sol.capacity > ba.capacity + 1e-3

    def test_singular_raises(self):
        with pytest.raises(SingularChannelError):
            muroga_capacity(np.array([[0.5, 0.5], [0.5, 0.5]]))
        # LAPACK factors this without error; its condition number is what rejects it
        with pytest.raises(SingularChannelError):
            muroga_capacity(np.array([[1.0, 0.0], [1.0 - 1e-15, 1e-15]]))

    def test_internal_consistency(self):
        for q in _random_invertible_channels(50, 20):
            sol = muroga_capacity(q)
            assert sol.capacity == pytest.approx(capacity_from_aux(sol.aux), abs=1e-12)

    def test_one_formula_with_the_explicit_try(self):
        """The explicit pipeline and the command line, which runs ``_muroga``
        on the channel it has checked, evaluate Muroga's formula in one
        function, so on a feasible channel with full support they agree bit
        for bit."""
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 9))
            q = rng.dirichlet(np.full(n, 0.5), size=n) + 2.0 * np.eye(n)
            q /= q.sum(axis=1, keepdims=True)
            sol = muroga_capacity(q)
            if not sol.feasible:
                continue
            checked += 1
            got = _muroga(q, _log_pos(q, 2.0), 2.0)
            assert sol.capacity == got.capacity
            np.testing.assert_array_equal(sol.opt_input_raw, got.opt_input_raw)
            np.testing.assert_array_equal(sol.opt_output, got.opt_output)


class TestActiveSet:
    """Muroga's system on an active set answers with a certified input or not at all."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-300])
    def test_answer_is_certified_or_none(self, tol):
        answered = 0
        for q in [INFEASIBLE_3X3, *_infeasible_square_channels(2024, 50)]:
            n = q.shape[0]
            capacity = blahut_arimoto(q).capacity
            starts = (np.full(n, 1.0 / n), feasible_input(muroga_capacity(q).opt_input_raw))
            for start in starts:
                got = _active_set(q, _log_pos(q, 2.0), start, 2.0, tol)
                if got is None:
                    continue
                answered += 1
                lower, p, upper = got
                bounds = capacity_bounds(p, q)
                assert lower == bounds[0]
                assert upper == bounds[1]
                assert bounds[1] - bounds[0] <= tol
                assert lower == pytest.approx(capacity, abs=1e-12)
        if tol == 1e-9:
            assert answered == 2 * 51

    def test_underflowed_output_mass_gives_up_without_a_solve(self, solves):
        """An output that both inputs reach with the least subnormal mass
        gets none from the uniform start: each half of 5e-324 rounds to 0.
        The divergences stay finite (the output floor), but q / r in the
        Jacobian is infinite, so the active set returns None before its
        first linear solve, with no floating-point warning.  Blahut-Arimoto,
        whose sweep-4 iterate no longer splits the mass evenly, still
        settles there."""
        q = np.array([[0.3, 0.7, 5e-324], [0.6, 0.4, 5e-324]])
        uniform = np.full(2, 0.5)
        assert (uniform @ q)[2] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _active_set(q, _log_pos(q, 2.0), uniform, 2.0, 1e-9) is None
            assert solves == []
            result = blahut_arimoto(q)
        assert result.converged and result.iterations == 4
        lower, upper = capacity_bounds(result.input_dist, q)
        assert (lower, upper) == (result.capacity, result.upper)
