"""Excursion-area laws, the absorbing area chain, and the growth constants.

The area of the first excursion of the lazy walk away from zero has
probability generating function g(x, y) (x marks area, y marks length)
satisfying

    g(x, y) = x y^2 / (16 (1 - x y / 2 - g(x, x y)))

and every substituted term has strictly higher x-degree, so the truncation to
any x-order is computed exactly.  Summing signed excursion areas gives a
heavy-tailed walk; rho is the probability that this walk returns to zero
before going negative.  One absorbing chain on {-, 0, 1, ..., n-1, *}, from
one step law and one set of landing masses, has two solvers: exact rational
elimination for small grids, long-double FFT sweeps for large ones.  Both
return P(hit 0) and P(hit '-'), which bracket rho as P(hit 0) <= rho <=
1 - P(hit '-'); Richardson extrapolation in 1/n refines the estimates.  The
leading constant of the graphic sequence count is then
Gamma(3/4) / (4 pi sqrt(2 (1 - rho))).

The simple +/-1 walk admits the same treatment without the flat-step term:
g_s(x, y) = x y^2 / (4 (1 - g_s(x, x y))); its excursion-area law feeds the
same chain to produce the bridge-persistence constant of the simple walk.
An independent first-passage dynamic program over (height, spent area)
cross-checks both generating functions and is the scalable source of the
probabilities at large truncation orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

LONG = np.longdouble

#: Gamma(3/4); the test suite re-derives it from an independent evaluation.
GAMMA_3_4 = 1.2254167024651776

EXACT_CHAIN_LIMIT = 8
DEFAULT_SWEEP_TOL = 1e-12
MAX_SWEEPS = 200_000

#: kind -> (up, flat, down) probabilities of one step of the walk.
STEP_LAW = {
    "lazy": (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
    "simple": (Fraction(1, 2), Fraction(0), Fraction(1, 2)),
}


class ChainConvergenceError(Exception):
    """The hitting-probability sweep did not reach the residual target."""


def _step_law(kind: str) -> tuple:
    try:
        return STEP_LAW[kind]
    except KeyError:
        raise ValueError(f"unknown walk kind {kind!r}") from None


def _long(v: Fraction):
    """A Fraction as a long double, rounding once for dyadic values."""
    return LONG(v.numerator) / LONG(v.denominator)


# ---------------------------------------------------------------------------
# generating function


@dataclass(frozen=True)
class TruncatedSeries:
    """Bivariate series in x (area) and y (length), truncated at x-degree K."""

    K: int
    coefficients: dict  # (i, j) -> Fraction, i >= 1, j >= 2

    def x_coefficient(self, i: int) -> dict:
        return {j: c for (ii, j), c in self.coefficients.items() if ii == i}

    def area_weights(self) -> list:
        """[x^i] at y = 1 for i = 0..K (index 0 is always zero)."""
        out = [Fraction(0)] * (self.K + 1)
        for (i, _), c in self.coefficients.items():
            out[i] += c
        return out

    def eval_truncated(self, x: Fraction, y: Fraction) -> Fraction:
        return sum(
            (c * x**i * y**j for (i, j), c in self.coefficients.items()),
            Fraction(0),
        )


def series_g(K: int, kind: str = "lazy") -> TruncatedSeries:
    """Excursion-area/length generating function truncated at x-degree K.

    Coefficients are extracted degree by degree from the defining relation
    (lazy)  g = x y^2 / 16 + (x y / 2) g + g * g(x, x y)
    (simple) g = x y^2 / 4 + g * g(x, x y)
    where [x^q] g(x, x y) only involves x-degrees <= q - 2.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    up, flat, down = _step_law(kind)
    seed = up * down

    # per_x[i] : dict j -> Fraction
    per_x = [dict() for _ in range(K + 1)]
    for i in range(1, K + 1):
        acc: dict = {}
        if i == 1:
            acc[2] = seed
        if flat:
            for j, c in per_x[i - 1].items():
                acc[j + 1] = acc.get(j + 1, Fraction(0)) + c * flat
        for p in range(1, i - 2):
            q = i - p
            # [x^q] g(x, xy) = sum_j coefficient(q - j, j) y^j
            for j_sub in range(2, q):
                c_sub = per_x[q - j_sub].get(j_sub)
                if c_sub:
                    for j, c in per_x[p].items():
                        acc[j + j_sub] = acc.get(j + j_sub, Fraction(0)) + c * c_sub
        per_x[i] = {j: c for j, c in acc.items() if c}

    coeffs = {(i, j): c for i in range(1, K + 1) for j, c in per_x[i].items()}
    return TruncatedSeries(K, coeffs)


# ---------------------------------------------------------------------------
# excursion-area pmf


@dataclass
class AreaPmf:
    """P(first excursion positive with area i) for i = 1..K.

    The full signed step law of the reduced area walk is: 0 with the flat
    mass of `STEP_LAW` (1/2 for lazy, 0 for simple), +/-i each with weight
    p[i], and the remaining +/-tail of up - sum(p).
    """

    K: int
    p: Sequence  # index 0 unused; Fractions (exact) or longdoubles
    kind: str
    exact: bool


def _area_pmf_dp(K: int, kind: str, exact: bool) -> np.ndarray:
    """First-passage DP: probability the excursion spends exactly i of area.

    States are (height >= 1, area spent); every transition adds the new
    height, so the area strictly increases and a single pass in area order
    suffices.  The first up-step carries the excursion's positivity weight.
    A cell (t, h) only receives mass from area t - h, by an up, a flat and a
    down step in that order, so each area is three vectorized adds across
    heights.  Exact runs hold Fractions in object arrays.
    """
    up, flat, down = (v if exact else _long(v) for v in _step_law(kind))
    hmax = int(math.isqrt(2 * K)) + 2
    zero = Fraction(0) if exact else LONG(0.0)
    live = np.full((K + 1, hmax + 2), zero, dtype=object if exact else LONG)
    out = np.full(K + 1, zero, dtype=live.dtype)
    live[1, 1] = up
    heights = np.arange(1, hmax + 1)
    for a in range(1, K + 1):
        out[a] = live[a, 1] * down
        h = heights[: max(0, min(hmax, K - a - 1))]
        live[a + h + 1, h + 1] += live[a, h] * up
        if flat:
            h = heights[: max(0, min(hmax, K - a))]
            live[a + h, h] += live[a, h] * flat
        h = heights[1 : max(0, min(hmax, K - a + 1))]
        live[a + h - 1, h - 1] += live[a, h] * down
    return out


def area_pmf(K: int, kind: str = "lazy", method: str = "gf", exact: bool | None = None) -> AreaPmf:
    """Excursion-area weights by generating function or by first-passage DP.

    The two methods agree exactly wherever both run; gf is always exact and
    practical to a few thousand terms, dp scales much further and defaults to
    80-bit floats above K = 128.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if method == "gf":
        if exact is False:
            raise ValueError("the gf method is always exact")
        weights = series_g(K, kind).area_weights()
        return AreaPmf(K, weights, kind, exact=True)
    if method == "dp":
        if exact is None:
            exact = K <= 128
        weights = _area_pmf_dp(K, kind, exact)
        return AreaPmf(K, weights.tolist() if exact else weights, kind, exact=exact)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# the absorbing chain


def _pmf_arrays(pmf: AreaPmf, exact: bool = False):
    """(p, zero_mass, sign_mass) of a pmf; p[0] is unused.

    Long doubles, each exact weight rounded once, or with `exact` the
    Fractions of an exact pmf in an object array.
    """
    up, flat, _ = _step_law(pmf.kind)
    if exact:
        return np.array(pmf.p, dtype=object), flat, up
    p = [_long(v) for v in pmf.p] if pmf.exact else pmf.p
    return np.asarray(p, dtype=LONG), _long(flat), _long(up)


def _landing_masses(n: int, p, sign):
    """(b_minus, b_star): one-step masses into '-' and '*' from states 0..n-1.

    A step below -i lands in '-' and one of n - i or more in '*', so with
    cum[i] = p[1] + .. + p[i], b_minus[i] = sign - cum[i] and b_star[i] =
    sign - cum[n - 1 - i].  Long doubles, or Fractions in object arrays.
    """
    cum = np.concatenate((np.zeros(1, dtype=p.dtype), np.cumsum(p[1:n])))
    return sign - cum, sign - cum[::-1]


def _check_grid(n: int, pmf: AreaPmf) -> None:
    """The chain on grid n reads p[1..n-1], so any pmf with K >= n serves it."""
    if n < 2:
        raise ValueError("grid size must be >= 2")
    if pmf.K < n:
        raise ValueError("need K >= n so no interior mass is reassigned")


def _solve_exact(matrix: list, rhs: list) -> list:
    """Gaussian elimination over Fractions; one solution per right-hand side."""
    m = len(matrix)
    a = [row[:] + [b[i] for b in rhs] for i, row in enumerate(matrix)]
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(m):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [[a[r][m + k] for r in range(m)] for k in range(len(rhs))]


def chain_hitting_exact(n: int, pmf: AreaPmf, amalgamate: bool = False) -> dict:
    """Exact hitting probabilities of 0, '-' and '*' from i = 1..n-1.

    The exact solver: one rational elimination of (I - Q) h = b over the
    transient states, with the landing masses into 0, '-' and '*' as three
    right-hand sides.  From i, the walk stays put with the flat mass and
    moves to j with p[|i - j|].  Returns {"zero", "minus", "star"}, which
    sum to one state by state; amalgamated solves (n-1 and '*' merged)
    return only "zero".
    """
    _check_grid(n, pmf)
    if not pmf.exact:
        raise ValueError("exact solve requires an exact pmf")
    if n > EXACT_CHAIN_LIMIT:
        raise ValueError(f"exact solve supports n <= {EXACT_CHAIN_LIMIT}")
    p, zero_mass, sign = _pmf_arrays(pmf, exact=True)
    b_minus, b_star = (b[1:] for b in _landing_masses(n, p, sign))
    states = range(1, n)
    system = [[1 - zero_mass if i == j else -p[abs(i - j)] for j in states] for i in states]
    if amalgamate:
        for row, extra in zip(system, b_star):
            row[-1] -= extra
        return {"zero": _solve_exact(system, [p[1:n]])[0]}
    zero, minus, star = _solve_exact(system, [p[1:n], b_minus, b_star])
    return {"zero": zero, "minus": minus, "star": star}


def _toeplitz_spectrum(p, m: int):
    """rfft of the symmetric kernel p[|d|], 0 < |d| < m, as a circulant.

    The circulant has the next power-of-two length >= 2m, so products with
    vectors of length m do not wrap around.
    """
    size = 1 << (2 * m - 1).bit_length()
    circulant = np.zeros(size, dtype=LONG)
    circulant[1:m] = p[1:m]
    circulant[size - m + 1 :] = p[m - 1 : 0 : -1]
    return np.fft.rfft(circulant)


def _toeplitz_product(spectrum, h):
    """(T h)_i = sum over j != i of p[|i - j|] h_j, by one rfft and one irfft."""
    size = 2 * (len(spectrum) - 1)
    return np.fft.irfft(np.fft.rfft(h, size) * spectrum, size)[: len(h)]


def _sweep_solve(spectrum, rhs, diag, amalg_extra=None):
    h = np.zeros(len(rhs), dtype=LONG)
    m = len(rhs)
    for sweep in range(MAX_SWEEPS):
        interior = _toeplitz_product(spectrum, h)
        if amalg_extra is not None:
            interior = interior + amalg_extra * h[m - 1]
        h_next = (rhs + interior) / diag
        residual = float(np.max(np.abs(h_next - h)))
        h = h_next
        if residual < DEFAULT_SWEEP_TOL:
            return h, sweep + 1
    raise ChainConvergenceError(
        f"no convergence to {DEFAULT_SWEEP_TOL} within {MAX_SWEEPS} sweeps (n = {m + 1})"
    )


def _sub_solution(h, p, rhs, diag):
    """The first of h, h (1 - 2^-52), h (1 - 2^-48), ..., 0 with h <= F(h).

    F(h) = (rhs + T h) / diag is evaluated by a direct long-double
    convolution and must exceed h by gamma F(h) componentwise, gamma =
    (m + 2) eps, which covers the rounding of the evaluation itself.  F is
    monotone and contracting, so a sub-solution lies below its fixed point;
    h = 0 always is one, so the back-off ends.
    """
    m = len(h)
    gamma = (m + 2) * np.finfo(LONG).eps
    kernel = np.concatenate((p[m - 1 : 0 : -1], np.zeros(1, dtype=LONG), p[1:m]))
    for scale in (1.0, *(1.0 - 2.0**-k for k in range(52, 0, -4))):
        trial = h * LONG(scale)
        image = (rhs + np.convolve(trial, kernel)[m - 1 : 2 * m - 1]) / diag
        if np.all(image - trial >= gamma * image):
            return trial
    return np.zeros_like(h)


def chain_hitting_iterative(n: int, pmf: AreaPmf, amalgamate: bool = False) -> dict:
    """Hitting probabilities by diagonally-preconditioned Jacobi sweeps.

    The iterative solver of the same chain, in long doubles.  The interior
    operator is Toeplitz (the step law only depends on j - i), so one sweep
    is one FFT product with the circulant that embeds it.  Returns
    {"zero": h[i -> 0], "minus": h[i -> '-'], "sweeps"} for i = 1..n-1;
    amalgamated solves return only "zero".  Each non-amalgamated vector is
    checked to be a sub-solution of its fixed-point equation (and scaled
    toward zero until it is), so it lies below the true hitting
    probabilities despite the rounding of the FFT sweeps.
    """
    _check_grid(n, pmf)
    p, zero_mass, sign = _pmf_arrays(pmf)
    spectrum = _toeplitz_spectrum(p, n - 1)
    b_zero = p[1:n]
    b_minus, b_star = (b[1:] for b in _landing_masses(n, p, sign))
    diag = LONG(1.0) - zero_mass
    if amalgamate:
        h_zero, sweeps = _sweep_solve(spectrum, b_zero, diag, amalg_extra=b_star)
        return {"zero": h_zero, "sweeps": sweeps}
    h_zero, s1 = _sweep_solve(spectrum, b_zero, diag)
    h_minus, s2 = _sweep_solve(spectrum, b_minus, diag)
    return {
        "zero": _sub_solution(h_zero, p, b_zero, diag),
        "minus": _sub_solution(h_minus, p, b_minus, diag),
        "sweeps": s1 + s2,
    }


@dataclass
class RhoEstimate:
    """Bounds (or a point estimate) for a return-before-negative probability."""

    lower: object
    upper: object
    mode: str  # "exact-rational" | "iterative" | "amalgamated"
    n: int
    kind: str

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError("lower bound exceeds upper bound")

    @property
    def rigorous(self) -> bool:
        return self.mode in ("exact-rational", "iterative")


def _rounded(x, toward: float) -> float:
    """A long double as a float, rounded toward -inf or +inf when inexact."""
    out = float(x)
    if (out > x) if toward < 0 else (out < x):
        out = float(np.nextafter(out, toward))
    return out


def rho_bounds(n: int, pmf: AreaPmf) -> RhoEstimate:
    """Rigorous bounds: P(hit 0) <= rho <= 1 - P(hit '-'), from the start 0.

    Positive tail mass is routed to '*' and negative tail mass to '-', which
    can only widen the bracket, never invalidate it.  Exact pmfs on small
    grids give the bracket as Fractions.  The iterative path takes both ends
    from checked sub-solutions, shaves each sum by its rounding bound and
    rounds outward to float, so the bracket holds for the chain that the
    given pmf values define.
    """
    exact = pmf.exact and n <= EXACT_CHAIN_LIMIT
    h = chain_hitting_exact(n, pmf) if exact else chain_hitting_iterative(n, pmf)
    p, zero_mass, sign = _pmf_arrays(pmf, exact)
    lower = zero_mass + np.dot(p[1:n], h["zero"])
    to_minus = sign + np.dot(p[1:n], h["minus"])
    if exact:
        return RhoEstimate(lower, 1 - to_minus, "exact-rational", n, pmf.kind)
    shave = 1 - (n + 1) * np.finfo(LONG).eps  # rounding of a sum of n terms
    return RhoEstimate(
        _rounded(lower * shave, -math.inf), _rounded(1 - to_minus * shave, math.inf),
        "iterative", n, pmf.kind,
    )


def rho_amalgamated(n: int, pmf: AreaPmf) -> RhoEstimate:
    """Point estimate with states n-1 and '*' merged; NOT a rigorous bound.

    Merging is only sound if the hit-zero probability decreases in the start
    state, which is unproven, so the result is flagged non-rigorous.
    """
    exact = pmf.exact and n <= EXACT_CHAIN_LIMIT
    if exact:
        h = chain_hitting_exact(n, pmf, amalgamate=True)
    else:
        h = chain_hitting_iterative(n, pmf, amalgamate=True)
    p, zero_mass, sign = _pmf_arrays(pmf, exact)
    start_star = _landing_masses(n, p, sign)[1][0]
    est = zero_mass + np.dot(p[1:n], h["zero"]) + start_star * h["zero"][n - 2]
    if not exact:
        est = float(est)
    return RhoEstimate(est, est, "amalgamated", n, pmf.kind)


# ---------------------------------------------------------------------------
# extrapolation and the constants


def richardson(points: Sequence) -> float:
    """Neville extrapolation of (n, estimate) points to 1/n -> 0.

    Recovers a + b/n models exactly from two points and eliminates one more
    power of 1/n per additional point.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    ns = [n for n, _ in pts]
    if len(set(ns)) != len(ns):
        raise ValueError("duplicate n in extrapolation points")
    tab = [v for _, v in pts]
    if all(isinstance(v, Fraction) for v in tab):
        ts = [Fraction(1, n) for n in ns]
    else:
        ts = [1.0 / n for n in ns]
    m = len(tab)
    for level in range(1, m):
        nxt = []
        for i in range(m - level):
            t0, t1 = ts[i], ts[i + level]
            nxt.append((t0 * tab[i + 1] - t1 * tab[i]) / (t0 - t1))
        tab = nxt
    return tab[0]


def c_from_rho(rho: float) -> float:
    """Leading constant Gamma(3/4) / (4 pi sqrt(2 (1 - rho)))."""
    if not 0 <= rho < 1:
        raise ValueError("rho must lie in [0, 1)")
    return GAMMA_3_4 / (4 * math.pi * math.sqrt(2 * (1 - rho)))


def c_empirical(counts: Sequence[int]) -> list:
    """(n, count * n^0.75 / 4^n) for each n; entry i of counts is n = i + 1.

    The big-integer ratio is formed exactly and rounded once, so no
    intermediate overflows regardless of how large the counts are.
    """
    out = []
    for i, g in enumerate(counts):
        n = i + 1
        out.append((n, float(Fraction(g, 4**n)) * n**0.75))
    return out


def parity_gap(g_counts: Sequence[int], h_counts: Sequence[int]) -> list:
    """(n, (G - H) * n^2.5 / 4^n): the scaled even/odd imbalance."""
    if len(g_counts) != len(h_counts):
        raise ValueError("count lists must have equal length")
    out = []
    for i, (g, h) in enumerate(zip(g_counts, h_counts)):
        n = i + 1
        out.append((n, float(Fraction(g - h, 4**n)) * n**2.5))
    return out
