"""Generating function, excursion-area laws, the absorbing chain, constants."""

import math
import tracemalloc
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
    chain_hitting_iterative,
    parity_gap,
    rho_bounds,
    richardson,
    series_g,
)

F = Fraction


def float_pmf(K, kind):
    return area_pmf(K, kind)


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
        total = sum(series_g(K).area_weights())  # the series at x = y = 1
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
    gf = series_g(50, "lazy").area_weights()
    dp = area_pmf(50, "lazy", exact=True)
    assert dp.exact and dp.K == 50
    assert list(dp.p) == gf


def test_gf_and_dp_agree_exactly_simple():
    gf = series_g(40, "simple").area_weights()
    dp = area_pmf(40, "simple", exact=True)
    assert list(dp.p) == gf
    assert gf[1] == F(1, 4)  # up-down excursion
    assert gf[2] == 0 and gf[3] == 0
    assert gf[4] == F(1, 16)


def test_simple_mass_approaches_half():
    # every excursion of the +/-1 walk is positive with probability 1/2
    for K, floor in ((50, 0.40), (400, 0.45)):
        pmf = float_pmf(K, "simple")
        mass = float(np.sum(pmf.p[1:]))
        assert floor < mass < 0.5
    assert sum(area_pmf(60, "simple", exact=True).p[1:]) < F(1, 2)


def test_lazy_tail_mass_positive():
    p, zero_mass, sign = constants._pmf_arrays(area_pmf(30, "lazy", exact=True), exact=True)
    assert sign == F(1, 4)
    assert zero_mass == F(1, 2)
    assert 0 < sign - sum(p[1:]) < F(1, 4)


def test_float_pmf_uses_extended_precision():
    pmf = float_pmf(64, "lazy")
    assert pmf.p.dtype == np.longdouble and pmf.K == 64 and not pmf.exact
    exact = series_g(64, "lazy").area_weights()
    for i in range(1, 65):
        assert abs(float(pmf.p[i]) - float(exact[i])) < 1e-17


def _scalar_area_pmf_dp(K, kind, exact=False):
    """The cell-by-cell push form of the first-passage DP, over every area."""
    law = {"lazy": (F(1, 4), F(1, 2), F(1, 4)), "simple": (F(1, 2), F(0), F(1, 2))}[kind]
    zero = F(0) if exact else np.longdouble(0)
    up, flat, down = (v if exact else np.longdouble(float(v)) for v in law)
    hmax = math.isqrt(2 * K) + 2
    live = np.full((K + 1, hmax + 2), zero, dtype=object if exact else np.longdouble)
    live[1][1] = up
    out = np.full(K + 1, zero, dtype=live.dtype)
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
    # at K = 600 (hmax = 36) the window of 74 areas slides 15 times
    for K in (1, 2, 3, 600, 1024):
        fast = float_pmf(K, kind).p
        slow = _scalar_area_pmf_dp(K, kind)
        assert fast.dtype == np.longdouble
        assert np.array_equal(fast, slow)


@pytest.mark.parametrize("kind", ["lazy", "simple"])
def test_exact_dp_matches_cell_by_cell_loop(kind):
    for K in (1, 2, 3, 600):
        fast = area_pmf(K, kind, exact=True).p
        assert fast.dtype == object
        assert list(fast) == list(_scalar_area_pmf_dp(K, kind, exact=True))


def test_dp_holds_a_window_not_the_area_table():
    # the whole (K + 1) x (hmax + 2) table of long doubles took 48.8 MB at K = 16384;
    # the window is 2 (hmax + 1) rows of hmax + 2, about 1.1 MB, beside the 0.26 MB pmf
    tracemalloc.start()
    try:
        area_pmf(16384, "lazy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_area_pmf_rejects_bad_method():
    with pytest.raises(ValueError):
        area_pmf(5, "bogus")
    with pytest.raises(ValueError):
        area_pmf(0, "lazy", exact=True)
    with pytest.raises(TypeError):
        area_pmf(1024, "lazy", "dp")  # exact is keyword-only


def test_exact_weights_round_once_to_long_double():
    # at K = 100 many exact weights carry more bits than a double holds
    pmf = area_pmf(100, "lazy", exact=True)
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
    assert chain_rows(2, area_pmf(2, "lazy", exact=True)) == [
        [F(1, 4), F(1, 2), F(1, 16), F(3, 16)],
        [F(3, 16), F(1, 16), F(1, 2), F(1, 4)],
    ]


@pytest.mark.parametrize("n,kind", [(2, "lazy"), (5, "lazy"), (4, "simple")])
def test_chain_rows_sum_to_one(n, kind):
    pmf = area_pmf(max(n, 4), kind, exact=True)
    for row in chain_rows(n, pmf):
        assert sum(row) == 1


def test_chain_requires_enough_coefficients():
    pmf = area_pmf(3, "lazy", exact=True)
    for solve in (chain_hitting_iterative, rho_bounds):
        with pytest.raises(ValueError, match="need K >= n"):
            solve(5, pmf)


@pytest.mark.parametrize(
    "n,message", [(1, "grid size must be >= 2"), (20, "need K >= n")], ids=["n1", "n20"])
def test_solvers_refuse_a_bad_grid_alike(n, message):
    exact, floats = area_pmf(10, "lazy", exact=True), float_pmf(10, "lazy")
    for solve in (chain_hitting_iterative, rho_bounds):
        for pmf in (exact, floats):
            with pytest.raises(ValueError, match=message):
                solve(n, pmf)


@pytest.mark.parametrize("kind", ["lazy", "simple"])
def test_truncation_order_beyond_the_grid_changes_nothing(kind):
    # the chain on grid n reads only p[1..n-1], so every K >= n gives one chain
    for n in (2, 5, 8):
        small, large = area_pmf(n, kind, exact=True), area_pmf(16, kind, exact=True)
        a, b = rho_bounds(n, small), rho_bounds(n, large)
        assert isinstance(a.lower, F) and isinstance(a.estimate, F)
        assert (a.lower, a.upper, a.estimate) == (b.lower, b.upper, b.estimate)
    for n in (16, 256):
        small, large = float_pmf(n, kind), float_pmf(1024, kind)
        a, b = rho_bounds(n, small), rho_bounds(n, large)
        assert isinstance(a.lower, float) and isinstance(a.estimate, float)
        assert (a.lower, a.upper, a.estimate) == (b.lower, b.upper, b.estimate)


def test_exact_hitting_probabilities_n2():
    pmf = area_pmf(2, "lazy", exact=True)
    h = chain_hitting_iterative(2, pmf)
    assert h["zero"][0] == F(1, 8)
    assert h["star"][0] == F(1, 2)


@pytest.mark.parametrize("kind", ["lazy", "simple"])
@pytest.mark.parametrize("n", range(2, 9))
def test_exact_hitting_probabilities_sum_to_one(n, kind):
    pmf = area_pmf(16, kind, exact=True)
    h = chain_hitting_iterative(n, pmf)
    # each vector solves its chain exactly, so it is the unique solution: from
    # i, h_i = b_i + sum_j Q_ij h_j, b_i the mass landing in its absorbing state
    rows = chain_rows(n, pmf)
    for name, landing in (("zero", 1), ("minus", 0), ("star", -1)):
        assert h[name].dtype == object and all(isinstance(v, F) for v in h[name]), name
        for i, row in enumerate(rows[1:]):
            step = row[landing] + sum(row[j + 1] * h[name][j - 1] for j in range(1, n))
            assert step == h[name][i], name
    # 1 - P(hit '-') equals P(hit 0) + P(hit '*') from the start state
    start_star = constants.STEP_LAW[kind][0] - sum(pmf.p[1:n])
    to_star = start_star + sum(pmf.p[j] * h["star"][j - 1] for j in range(1, n))
    est = rho_bounds(n, pmf)
    assert est.mode == "exact-rational"
    assert est.upper == est.lower + to_star


def test_rho_bounds_n2_exact():
    est = rho_bounds(2, area_pmf(2, "lazy", exact=True))
    assert est.mode == "exact-rational"
    assert est.lower == F(65, 128)
    assert est.upper == F(65, 128) + F(7, 32) == F(93, 128)


def test_amalgamated_estimate_n2_exact_hand_solved():
    # merged chain: from the start, mass 1/2 ends at zero and 1/4 reaches the
    # merged state, which returns with probability (1/16) / (1/4) = 1/4
    est = rho_bounds(2, area_pmf(2, "lazy", exact=True))
    assert est.mode == "exact-rational"
    assert est.estimate == F(9, 16)


@pytest.mark.parametrize("kind,values", [
    ("lazy", "9/16 35/64 15/28 3949/7424 112487/212992 74973/142336 27009961/51458560"),
    ("simple", "1/4 1/8 1/12 15/112 75/704 271/3104 959/10064"),
])
def test_exact_amalgamated_values(kind, values):
    # the merged chain's exact estimates on grids 2..8, one rational solve each
    pmf = area_pmf(8, kind, exact=True)
    assert [rho_bounds(n, pmf).estimate for n in range(2, 9)] == [F(v) for v in values.split()]


def test_iterative_matches_exact():
    pmf = area_pmf(16, "lazy", exact=True)
    exact = rho_bounds(8, pmf)
    floats = AreaPmf(np.asarray([0.0] + [float(v) for v in pmf.p[1:]], dtype=np.longdouble),
                     "lazy")
    iterative = rho_bounds(8, floats)
    assert iterative.mode == "iterative"
    assert abs(float(exact.lower) - iterative.lower) < 1e-12
    assert abs(float(exact.upper) - iterative.upper) < 1e-12
    assert abs(float(exact.estimate) - iterative.estimate) < 1e-12


@pytest.mark.parametrize("kind", ["lazy", "simple"])
def test_iterative_bracket_contains_exact(kind):
    # K = 16 keeps every weight dyadic, so both solves see the same chain
    exact = rho_bounds(8, area_pmf(16, kind, exact=True))
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
    assert np.array_equal(constants._direct_product(p, h), direct)
    fast = constants._toeplitz_product(constants._toeplitz_spectrum(p, m), h)
    assert fast.dtype == np.longdouble
    assert float(np.max(np.abs(fast - direct))) <= 1e-17


def product_test_vectors(m):
    """Random, all-ones and single-spike h of length m, in long doubles."""
    spike = np.zeros(m, dtype=np.longdouble)
    spike[m // 2] = 1
    return (np.random.default_rng(m).random(m).astype(np.longdouble),
            np.ones(m, dtype=np.longdouble), spike)


def exact_toeplitz_product(p, h):
    """T h exactly, as Fractions: long doubles are dyadic, so scaled to integers."""
    m = len(h)
    p_num, p_den = zip(*(v.as_integer_ratio() for v in p[:m]))
    h_num, h_den = zip(*(v.as_integer_ratio() for v in h))
    scale_p, scale_h = max(p_den), max(h_den)
    kernel = [n * (scale_p // d) for n, d in zip(p_num, p_den)]
    kernel = np.asarray(kernel[:0:-1] + [0] + kernel[1:], dtype=object)
    ints = np.asarray([n * (scale_h // d) for n, d in zip(h_num, h_den)], dtype=object)
    return [F(v, scale_p * scale_h) for v in np.convolve(ints, kernel, mode="valid")]


@pytest.mark.parametrize("kind", ["lazy", "simple"])
@pytest.mark.parametrize("m", [1, 2, 3, 255])
def test_fft_product_error_is_within_its_a_priori_bound_exactly(kind, m):
    p = float_pmf(max(m, 2), kind).p
    spectrum = constants._toeplitz_spectrum(p, m)
    for h in product_test_vectors(m):
        delta = F(*constants._product_error(spectrum, p, h).as_integer_ratio())
        fast = constants._toeplitz_product(spectrum, h)
        exact = exact_toeplitz_product(p, h)
        error = max(abs(F(*v.as_integer_ratio()) - e) for v, e in zip(fast, exact))
        assert error <= delta


@pytest.mark.parametrize("kind", ["lazy", "simple"])
@pytest.mark.parametrize("m", [1023, 4095])
def test_fft_product_error_is_within_its_a_priori_bound_against_direct(kind, m):
    # the direct long-double sum of m non-negative terms is within gamma of T h;
    # the bound also stays at least 100x above the error measured
    p = float_pmf(m + 1, kind).p
    spectrum = constants._toeplitz_spectrum(p, m)
    gamma = (m + 2) * np.finfo(np.longdouble).eps
    for h in product_test_vectors(m):
        delta = constants._product_error(spectrum, p, h)
        direct = constants._direct_product(p, h)
        error = np.max(np.abs(constants._toeplitz_product(spectrum, h) - direct))
        assert error <= delta + gamma * np.max(direct)
        assert error * 100 <= delta


@pytest.mark.parametrize("kind", ["lazy", "simple"])
@pytest.mark.parametrize("n", [8, 256, 1024])
def test_lockstep_solve_is_two_separate_solves_bit_for_bit(kind, n):
    exact = n <= constants.EXACT_CHAIN_LIMIT
    pmf = area_pmf(n, kind, exact=exact)
    p, zero_mass, sign = constants._pmf_arrays(pmf, exact)
    diag = 1 - zero_mass
    if exact:
        product, precondition = (lambda d: constants._direct_product(p, d)), None
    else:
        spectrum = constants._toeplitz_spectrum(p, n - 1)
        chan = constants._chan_spectrum(p, n - 1, diag)
        product = lambda d: constants._toeplitz_product(spectrum, d)  # noqa: E731
        precondition = lambda r: constants._circulant_solve(chan, r)  # noqa: E731
    rhs = np.stack((p[1:n], constants._landing_masses(n, p, sign)[0][1:]))
    stacked, counts = constants._cg_solve(product, rhs, diag, precondition)
    for row, count, b in zip(stacked, counts, rhs):
        alone, alone_count = constants._cg_solve(product, b, diag, precondition)
        assert count == alone_count and row.dtype == alone.dtype and list(row) == list(alone)
    got = chain_hitting_iterative(n, pmf)
    assert list(got["zero"]) == list(stacked[0]) and list(got["minus"]) == list(stacked[1])
    assert got["sweeps"] == sum(counts) and (got["spectrum"] is None) == exact


@pytest.mark.parametrize("m", [1, 2, 3, 257, 1023])
def test_direct_product_is_the_middle_of_the_full_convolution(m):
    # Fractions stop at 257: the object convolutions at m = 1023 take about 11 s
    rng = np.random.default_rng(m)
    dtypes = [np.longdouble] + ([object] if m <= 257 else [])
    for dtype in dtypes:
        if dtype is object:
            p = np.asarray([F(0)] + [F(int(v), 64) for v in rng.integers(1, 64, m)], dtype=object)
            h = np.asarray([F(int(v), 8) for v in rng.integers(0, 8, m)], dtype=object)
        else:
            p = float_pmf(max(m, 2), "lazy").p
            h = rng.random(m).astype(np.longdouble)
        kernel = np.concatenate((p[m - 1 : 0 : -1], np.zeros(1, dtype=p.dtype), p[1:m]))
        got = constants._direct_product(p, h)
        assert got.dtype == dtype
        assert list(got) == list(np.convolve(h, kernel)[m - 1 : 2 * m - 1])


@pytest.mark.parametrize("kind", ["lazy", "simple"])
@pytest.mark.parametrize("n", [2, 3, 8, 256, 1024])
def test_circulant_preconditioner_is_positive_definite(kind, n):
    p, zero_mass, _ = constants._pmf_arrays(float_pmf(n, kind))
    m, diag = n - 1, 1 - zero_mass
    eigenvalues = constants._chan_spectrum(p, m, diag)
    assert eigenvalues.dtype == np.longdouble and len(eigenvalues) == m // 2 + 1
    # each eigenvalue is diag - lambda with |lambda| <= sum(c) = 2 sum_j (m - j) p[j] / m,
    # attained at frequency 0; the slack covers the rounding of both sums
    bound = diag - 2 * np.sum((m - np.arange(1, m)) * p[1:m]) / m
    slack = (m + 2) * np.finfo(np.longdouble).eps * diag
    assert float(bound) > 0
    assert np.all(eigenvalues > 0)
    assert np.all(eigenvalues >= bound - slack)
    # and P^-1 inverts P = diag I - C(T), built densely from its first column
    k = np.arange(1, m)
    column = np.zeros(m)
    column[1:] = ((m - k) * p[1:m].astype(float) + k * p[m - 1 : 0 : -1].astype(float)) / m
    dense = float(diag) * np.eye(m) - column[(np.arange(m)[:, None] - np.arange(m)) % m]
    r = np.random.default_rng(n).random(m).astype(np.longdouble)
    z = constants._circulant_solve(eigenvalues, r)
    assert float(np.max(np.abs(dense @ z.astype(float) - r.astype(float)))) < 1e-12


def test_sub_solution_check_backs_off_an_over_estimate():
    n = 64
    pmf = float_pmf(n, "lazy")
    p, zero_mass, _ = constants._pmf_arrays(pmf)
    m = n - 1
    rhs = p[1:n].copy()
    diag = 1 - zero_mass
    converged = constants._sub_solution(chain_hitting_iterative(n, pmf)["zero"], p, rhs, diag)
    over = converged * np.longdouble(1 + 1e-9)
    kernel = np.concatenate((p[m - 1 : 0 : -1], [np.longdouble(0)], p[1:m]))

    def image(h):
        return (rhs + np.convolve(h, kernel)[m - 1 : 2 * m - 1]) / diag

    assert not np.all(over <= image(over))
    checked = constants._sub_solution(over, p, rhs, diag)
    assert np.all(checked <= image(checked))
    assert np.all(checked < over)
    assert float(np.max(converged - checked)) < 1e-7
    # the back-off is one downward shift of every entry, not a scaling
    shift = over - checked
    assert float(np.max(shift) - np.min(shift)) < 1e-18
    # a vector that already passes comes back as one small downward shift that passes
    again = constants._sub_solution(converged, p, rhs, diag)
    assert np.all(again <= image(again))
    shift = converged - again
    assert float(np.min(shift)) > 0 and float(np.max(shift) - np.min(shift)) < 1e-18
    assert float(np.max(shift)) < 1e-7


def direct_image(n, pmf, rhs, h):
    """F(h) = (rhs + T h) / diag by the direct long-double convolution."""
    p, zero_mass, _ = constants._pmf_arrays(pmf)
    m = n - 1
    kernel = np.concatenate((p[m - 1 : 0 : -1], [np.longdouble(0)], p[1:m]))
    return (rhs + np.convolve(h, kernel)[m - 1 : 2 * m - 1]) / (1 - zero_mass)


@pytest.mark.parametrize("kind,floor", [("lazy", 0.5157), ("simple", 0.0773)])
def test_conjugate_gradient_ends_are_checked_sub_solutions(kind, floor):
    # CG iterates are not monotone; the shifted back-off must still leave a
    # lower end that is not the zero fallback, for both kinds
    n = 1024
    pmf = float_pmf(n, kind)
    p, zero_mass, sign = constants._pmf_arrays(pmf)
    b_minus = constants._landing_masses(n, p, sign)[0][1:]
    h = chain_hitting_iterative(n, pmf)
    gamma = (n + 1) * np.finfo(np.longdouble).eps
    for name, rhs in (("zero", p[1:n]), ("minus", b_minus)):
        checked = constants._sub_solution(h[name], p, rhs, 1 - zero_mass)
        image = direct_image(n, pmf, rhs, checked)
        assert np.all(image - checked >= gamma * image), name
        assert np.all(checked > 0), name
    est = rho_bounds(n, pmf)
    assert est.lower >= floor
    assert est.lower <= est.estimate <= est.upper


@pytest.mark.parametrize("kind", ["lazy", "simple"])
def test_conjugate_gradient_products_and_accuracy(kind):
    # Jacobi sweeps took 370 (lazy) and 464 (simple) products here, plain CG 63 and
    # 82, CG with T. Chan's preconditioner 19 and 21; the bound leaves a margin of 9
    assert chain_hitting_iterative(1024, float_pmf(1024, kind))["sweeps"] <= 30
    n = 256
    pmf = float_pmf(n, kind)
    p, zero_mass, sign = constants._pmf_arrays(pmf)
    b_minus, b_star = (b[1:] for b in constants._landing_masses(n, p, sign))
    states = np.arange(1, n)
    dist = np.abs(states[:, None] - states[None, :])
    dense = np.where(dist == 0, float(1 - zero_mass), -p.astype(float)[dist])
    got = chain_hitting_iterative(n, pmf)
    # CG's zero and star are within 1.3e-12 of the dense solves; the merged
    # Jacobi vector was 1.2e-11 (lazy) and 1.5e-11 (simple) off
    for name, rhs in (("zero", p[1:n]), ("star", b_star)):
        want = np.linalg.solve(dense, rhs.astype(float))
        assert float(np.max(np.abs(got[name] - want))) < 4e-12, name
    # the estimate matches the dense solve of the merged chain (n-1 absorbs '*')
    dense[:, -1] -= b_star.astype(float)
    merged = np.linalg.solve(dense, p[1:n].astype(float))
    start_star = float(sign) - float(np.sum(p[1:n]))
    want = float(zero_mass) + p[1:n].astype(float) @ merged + start_star * merged[-1]
    assert abs(rho_bounds(n, pmf).estimate - want) < 4e-12
    # the stopping rule holds for the residual recomputed from the solution
    # (T. Chan's preconditioner, as the solver uses it, and plain CG)
    spectrum = constants._toeplitz_spectrum(p, n - 1)
    chan = constants._chan_spectrum(p, n - 1, 1 - zero_mass)
    for precondition in (lambda r: constants._circulant_solve(chan, r), None):
        for rhs in (p[1:n], b_minus, b_star):
            h, _ = constants._cg_solve(
                lambda d: constants._toeplitz_product(spectrum, d), rhs, 1 - zero_mass,
                precondition)
            residual = direct_image(n, pmf, rhs, h) - h
            assert float(np.max(np.abs(residual))) < constants.DEFAULT_SWEEP_TOL


def test_lower_bounds_nondecreasing_in_grid():
    pmf = float_pmf(128, "lazy")
    values = [rho_bounds(n, pmf).lower for n in (8, 16, 32, 64, 128)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_amalgamated_inside_bracket():
    for n in (16, 64):
        pmf = float_pmf(n, "lazy")
        est = rho_bounds(n, pmf)
        assert est.lower <= est.estimate <= est.upper


def test_bounds_ordering_enforced():
    with pytest.raises(ValueError):
        RhoEstimate(1.0, 0.5, 0.75, "iterative", 4, "lazy")


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
