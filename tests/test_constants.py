"""Generating function, excursion-area laws, the absorbing chain, constants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from graphseq import constants
from graphseq.constants import (
    GAMMA_3_4,
    AreaPmf,
    ChainConvergenceError,
    RhoEstimate,
    area_pmf,
    c_empirical,
    c_from_rho,
    chain_hitting_exact,
    chain_hitting_iterative,
    parity_gap,
    rho_amalgamated,
    rho_bounds,
    richardson,
    series_g,
)

F = Fraction


def float_pmf(K, kind):
    return area_pmf(K, kind, "dp", exact=False)


# ---------------------------------------------------------------------------
# the generating function


def test_series_low_order_terms():
    s = series_g(3)
    assert s.coefficients == {
        (1, 2): F(1, 16),
        (2, 3): F(1, 32),
        (3, 4): F(1, 64),
    }


def test_series_order_six_terms():
    s = series_g(6)
    assert s.x_coefficient(4) == {4: F(1, 256), 5: F(2, 256)}
    assert s.x_coefficient(5) == {5: F(1, 256), 6: F(1, 256)}
    assert s.x_coefficient(6) == {5: F(2, 1024), 6: F(3, 1024), 7: F(2, 1024)}


def test_series_area_weights_through_nine():
    weights = series_g(9).area_weights()
    assert weights[1:] == [
        F(1, 16), F(1, 32), F(1, 64), F(3, 256), F(1, 128),
        F(7, 1024), F(21, 4096), F(37, 8192), F(31, 8192),
    ]


def test_series_truncated_mass_below_quarter_and_growing():
    previous = F(0)
    for K in (3, 6, 9, 14):
        total = series_g(K).eval_truncated(F(1), F(1))
        assert previous < total < F(1, 4)
        previous = total


def test_series_nonnegative_coefficients():
    for (i, j), c in series_g(12).coefficients.items():
        assert i >= 1 and j >= 2 and c >= 0


def test_series_rejects_bad_input():
    with pytest.raises(ValueError):
        series_g(0)
    with pytest.raises(ValueError):
        series_g(3, "bogus")


def test_series_truncation_is_prefix_stable():
    # a longer truncation never changes already-computed coefficients
    small, large = series_g(7), series_g(13)
    for (i, j), c in small.coefficients.items():
        assert large.coefficients[(i, j)] == c
    assert {k for k in large.coefficients if k[0] <= 7} == set(small.coefficients)


# ---------------------------------------------------------------------------
# excursion-area pmf


def test_gf_and_dp_agree_exactly_lazy():
    gf = area_pmf(50, "lazy", "gf")
    dp = area_pmf(50, "lazy", "dp")
    assert dp.exact
    assert gf.p[1:] == dp.p[1:]


def test_gf_and_dp_agree_exactly_simple():
    gf = area_pmf(40, "simple", "gf")
    dp = area_pmf(40, "simple", "dp")
    assert gf.p[1:] == dp.p[1:]
    assert gf.p[1] == F(1, 4)  # up-down excursion
    assert gf.p[2] == 0 and gf.p[3] == 0
    assert gf.p[4] == F(1, 16)


def test_simple_mass_approaches_half():
    # every excursion of the +/-1 walk is positive with probability 1/2
    for K, floor in ((50, 0.40), (400, 0.45)):
        pmf = float_pmf(K, "simple")
        mass = float(np.sum(pmf.p[1:]))
        assert floor < mass < 0.5
    assert float(sum(area_pmf(60, "simple", "gf").p[1:])) < 0.5


def test_lazy_tail_mass_positive():
    p, zero_mass, sign = constants._pmf_arrays(area_pmf(30, "lazy", "gf"), exact=True)
    assert sign == F(1, 4)
    assert zero_mass == F(1, 2)
    assert 0 < sign - sum(p[1:]) < F(1, 4)


def test_float_pmf_uses_extended_precision():
    pmf = float_pmf(64, "lazy")
    assert pmf.p.dtype == np.longdouble
    exact = area_pmf(64, "lazy", "gf")
    for i in range(1, 65):
        assert abs(float(pmf.p[i]) - float(exact.p[i])) < 1e-17


def _scalar_area_pmf_dp(K, kind):
    """The cell-by-cell form of the first-passage DP, in long doubles."""
    long = np.longdouble
    up, flat, down = {"lazy": (0.25, 0.5, 0.25), "simple": (0.5, 0.0, 0.5)}[kind]
    up, flat, down = long(up), long(flat), long(down)
    hmax = math.isqrt(2 * K) + 2
    live = np.zeros((K + 1, hmax + 2), dtype=long)
    live[1][1] = up
    out = np.zeros(K + 1, dtype=long)
    for a in range(1, K + 1):
        row = live[a]
        out[a] = row[1] * down
        for h in range(1, hmax + 1):
            m = row[h]
            if not m:
                continue
            if a + h + 1 <= K:
                live[a + h + 1][h + 1] += m * up
            if flat and a + h <= K:
                live[a + h][h] += m * flat
            if h >= 2 and a + h - 1 <= K:
                live[a + h - 1][h - 1] += m * down
    return out


@pytest.mark.parametrize("kind", ["lazy", "simple"])
def test_dp_matches_cell_by_cell_loop_bit_for_bit(kind):
    for K in (1, 2, 3, 1024):
        fast = float_pmf(K, kind).p
        slow = _scalar_area_pmf_dp(K, kind)
        assert fast.dtype == np.longdouble
        assert np.array_equal(fast, slow)


def test_area_pmf_rejects_bad_method():
    with pytest.raises(ValueError):
        area_pmf(5, "lazy", "bogus")
    with pytest.raises(ValueError):
        area_pmf(5, "lazy", "gf", exact=False)
    with pytest.raises(ValueError):
        area_pmf(5, "bogus", "dp")


def test_exact_weights_round_once_to_long_double():
    # at K = 100 many exact weights carry more bits than a double holds
    pmf = area_pmf(100, "lazy", "dp")
    assert pmf.exact
    p = constants._pmf_arrays(pmf)[0]
    assert p.dtype == np.longdouble
    for exact, value in zip(pmf.p, p):
        error = abs(F(*value.as_integer_ratio()) - exact)
        assert error <= F(*np.spacing(value).as_integer_ratio()) / 2


# ---------------------------------------------------------------------------
# the chain


def chain_rows(n, pmf):
    """Exact one-step masses over ('-', 0, .., n-1, '*') from each state 0..n-1."""
    p, zero_mass, sign = constants._pmf_arrays(pmf, exact=True)
    b_minus, b_star = constants._landing_masses(n, p, sign)
    return [
        [b_minus[i], *(zero_mass if j == i else p[abs(j - i)] for j in range(n)), b_star[i]]
        for i in range(n)
    ]


def test_chain_matrix_reproduces_worked_example():
    assert chain_rows(2, area_pmf(2, "lazy", "gf")) == [
        [F(1, 4), F(1, 2), F(1, 16), F(3, 16)],
        [F(3, 16), F(1, 16), F(1, 2), F(1, 4)],
    ]


@pytest.mark.parametrize("n,kind", [(2, "lazy"), (5, "lazy"), (4, "simple")])
def test_chain_rows_sum_to_one(n, kind):
    pmf = area_pmf(max(n, 4), kind, "gf")
    for row in chain_rows(n, pmf):
        assert sum(row) == 1


def test_chain_requires_enough_coefficients():
    pmf = area_pmf(3, "lazy", "gf")
    for solve in (chain_hitting_exact, chain_hitting_iterative, rho_bounds):
        with pytest.raises(ValueError, match="need K >= n"):
            solve(5, pmf)


@pytest.mark.parametrize(
    "n,message", [(1, "grid size must be >= 2"), (20, "need K >= n")], ids=["n1", "n20"])
def test_solvers_refuse_a_bad_grid_alike(n, message):
    exact, floats = area_pmf(10, "lazy", "gf"), float_pmf(10, "lazy")
    calls = [(chain_hitting_exact, exact), (chain_hitting_iterative, floats)]
    calls += [(solve, pmf) for solve in (rho_bounds, rho_amalgamated) for pmf in (exact, floats)]
    for solve, pmf in calls:
        with pytest.raises(ValueError, match=message):
            solve(n, pmf)


@pytest.mark.parametrize("kind", ["lazy", "simple"])
def test_truncation_order_beyond_the_grid_changes_nothing(kind):
    # the chain on grid n reads only p[1..n-1], so every K >= n gives one chain
    for n in (2, 5, 8):
        small, large = area_pmf(n, kind, "gf"), area_pmf(16, kind, "gf")
        for solve in (rho_bounds, rho_amalgamated):
            a, b = solve(n, small), solve(n, large)
            assert isinstance(a.lower, F)
            assert (a.lower, a.upper) == (b.lower, b.upper)
    for n in (16, 256):
        small, large = float_pmf(n, kind), float_pmf(1024, kind)
        for solve in (rho_bounds, rho_amalgamated):
            a, b = solve(n, small), solve(n, large)
            assert isinstance(a.lower, float)
            assert (a.lower, a.upper) == (b.lower, b.upper)


def test_exact_hitting_probabilities_n2():
    pmf = area_pmf(2, "lazy", "gf")
    h = chain_hitting_exact(2, pmf)
    assert h["zero"][0] == F(1, 8)
    assert h["star"][0] == F(1, 2)


@pytest.mark.parametrize("kind", ["lazy", "simple"])
@pytest.mark.parametrize("n", range(2, 9))
def test_exact_hitting_probabilities_sum_to_one(n, kind):
    pmf = area_pmf(16, kind, "gf")
    h = chain_hitting_exact(n, pmf)
    for zero, minus, star in zip(h["zero"], h["minus"], h["star"]):
        assert zero + minus + star == 1
    # 1 - P(hit '-') equals P(hit 0) + P(hit '*') from the start state
    start_star = constants.STEP_LAW[kind][0] - sum(pmf.p[1:n])
    to_star = start_star + sum(pmf.p[j] * h["star"][j - 1] for j in range(1, n))
    est = rho_bounds(n, pmf)
    assert est.mode == "exact-rational"
    assert est.upper == est.lower + to_star


def test_rho_bounds_n2_exact():
    est = rho_bounds(2, area_pmf(2, "lazy", "gf"))
    assert est.mode == "exact-rational"
    assert est.rigorous
    assert est.lower == F(65, 128)
    assert est.upper == F(65, 128) + F(7, 32) == F(93, 128)


def test_rho_amalgamated_n2_exact_hand_solved():
    # merged chain: from the start, mass 1/2 ends at zero and 1/4 reaches the
    # merged state, which returns with probability (1/16) / (1/4) = 1/4
    est = rho_amalgamated(2, area_pmf(2, "lazy", "gf"))
    assert est.mode == "amalgamated"
    assert not est.rigorous
    assert est.lower == est.upper == F(9, 16)


def test_iterative_matches_exact():
    pmf = area_pmf(16, "lazy", "gf")
    exact = rho_bounds(8, pmf)
    floats = AreaPmf(
        16,
        np.asarray([0.0] + [float(v) for v in pmf.p[1:]], dtype=np.longdouble),
        "lazy",
        exact=False,
    )
    iterative = rho_bounds(8, floats)
    assert iterative.mode == "iterative"
    assert abs(float(exact.lower) - iterative.lower) < 1e-12
    assert abs(float(exact.upper) - iterative.upper) < 1e-12
    am_exact = rho_amalgamated(8, pmf)
    am_iter = rho_amalgamated(8, floats)
    assert abs(float(am_exact.lower) - am_iter.lower) < 1e-12


@pytest.mark.parametrize("kind", ["lazy", "simple"])
def test_iterative_bracket_contains_exact(kind):
    # K = 16 keeps every weight dyadic, so both solves see the same chain
    exact = rho_bounds(8, area_pmf(16, kind, "gf"))
    iterative = rho_bounds(8, float_pmf(16, kind))
    assert iterative.mode == "iterative"
    assert iterative.lower <= exact.lower <= exact.upper <= iterative.upper
    assert float(exact.lower) - iterative.lower < 1e-12
    assert iterative.upper - float(exact.upper) < 1e-12


def test_rho_bounds_iterative_single_transient_state():
    est = rho_bounds(2, float_pmf(2, "lazy"))
    assert est.mode == "iterative"
    assert est.lower <= F(65, 128) <= F(93, 128) <= est.upper
    assert F(65, 128) - F(est.lower) < 1e-15
    assert F(est.upper) - F(93, 128) < 1e-15


@pytest.mark.parametrize("m", [1, 2, 3, 255, 1023])
def test_fft_product_matches_direct_convolution(m):
    p = float_pmf(max(m, 2), "lazy").p
    h = np.random.default_rng(m).random(m).astype(np.longdouble)
    kernel = np.concatenate((p[m - 1 : 0 : -1], [np.longdouble(0)], p[1:m]))
    direct = np.convolve(h, kernel)[m - 1 : 2 * m - 1]
    fast = constants._toeplitz_product(constants._toeplitz_spectrum(p, m), h)
    assert fast.dtype == np.longdouble
    assert float(np.max(np.abs(fast - direct))) <= 1e-17


def test_sub_solution_check_backs_off_an_over_estimate():
    n = 64
    pmf = float_pmf(n, "lazy")
    p, zero_mass, _ = constants._pmf_arrays(pmf)
    m = n - 1
    rhs = p[1:n].copy()
    diag = 1 - zero_mass
    converged = chain_hitting_iterative(n, pmf)["zero"]
    over = converged * np.longdouble(1 + 1e-9)
    kernel = np.concatenate((p[m - 1 : 0 : -1], [np.longdouble(0)], p[1:m]))

    def image(h):
        return (rhs + np.convolve(h, kernel)[m - 1 : 2 * m - 1]) / diag

    assert not np.all(over <= image(over))
    checked = constants._sub_solution(over, p, rhs, diag)
    assert np.all(checked <= image(checked))
    assert np.all(checked < over)
    assert float(np.max(converged - checked)) < 1e-7
    assert np.array_equal(constants._sub_solution(converged, p, rhs, diag), converged)


def test_lower_bounds_nondecreasing_in_grid():
    pmf = float_pmf(128, "lazy")
    values = [rho_bounds(n, pmf).lower for n in (8, 16, 32, 64, 128)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_amalgamated_inside_bracket():
    for n in (16, 64):
        pmf = float_pmf(n, "lazy")
        est = rho_bounds(n, pmf)
        mid = rho_amalgamated(n, pmf)
        assert est.lower <= mid.lower <= est.upper


def test_bounds_ordering_enforced():
    with pytest.raises(ValueError):
        RhoEstimate(1.0, 0.5, "iterative", 4, "lazy")


def test_chain_convergence_error():
    pmf = float_pmf(16, "lazy")
    import graphseq.constants as mod

    old = mod.MAX_SWEEPS
    mod.MAX_SWEEPS = 2
    try:
        with pytest.raises(ChainConvergenceError):
            chain_hitting_iterative(16, pmf)
    finally:
        mod.MAX_SWEEPS = old


# ---------------------------------------------------------------------------
# extrapolation and constants


def test_richardson_recovers_linear_model_exactly():
    pts = [(n, F(7, 2) + F(3, n)) for n in (4, 12, 36)]
    assert richardson(pts) == F(7, 2)


def test_richardson_quadratic_model_two_levels():
    value = richardson([(n, 2.0 + 5.0 / n + 1.0 / n**2) for n in (64, 128, 256)])
    assert abs(value - 2.0) < 1e-9


def test_richardson_rejects_duplicates_and_singletons():
    with pytest.raises(ValueError):
        richardson([(4, 1.0), (4, 1.1)])
    with pytest.raises(ValueError):
        richardson([(4, 1.0)])


def test_gamma_constant_against_independent_evaluation():
    assert abs(GAMMA_3_4 - math.gamma(0.75)) < 1e-15


def test_c_from_rho_values():
    assert abs(c_from_rho(0.515802638) - 0.099094083) < 1e-8
    assert abs(c_from_rho(0.0) - GAMMA_3_4 / (4 * math.pi * math.sqrt(2))) < 1e-15
    with pytest.raises(ValueError):
        c_from_rho(1.0)
    with pytest.raises(ValueError):
        c_from_rho(-0.1)


def test_c_empirical_trivial_cases():
    assert c_empirical([]) == []
    rows = c_empirical([1, 2, 4])
    assert rows[0] == (1, 0.25)
    assert rows[2][0] == 3
    assert abs(rows[2][1] - 4 * 3**0.75 / 64) < 1e-15


def test_parity_gap_shapes():
    assert parity_gap([], []) == []
    rows = parity_gap([4, 11], [1, 4])
    assert rows == [(1, (4 - 1) / 4.0), (2, (11 - 4) * 2**2.5 / 16.0)]
    with pytest.raises(ValueError):
        parity_gap([1], [])
