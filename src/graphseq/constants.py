"""Excursion-area laws, the absorbing area chain, and the growth constants.

The area of the first excursion of the lazy walk away from zero has
probability generating function g(x, y) (x marks area, y marks length)
satisfying

    g(x, y) = x y^2 / (16 (1 - x y / 2 - g(x, x y)))

and every substituted term has strictly higher x-degree, so the truncation to
any x-order is computed exactly.  Summing signed excursion areas gives a
heavy-tailed walk; rho is the probability that this walk returns to zero
before going negative.  One absorbing chain on {-, 0, 1, ..., n-1, *}, from
one step law and one set of landing masses, has one solver: conjugate
gradients for P(hit 0) and P(hit '-') in lockstep, '*' following from the
row sums, in the pmf's own arithmetic.  Over Fractions, on small grids, CG
ends on the exact solution; in long doubles each step is one FFT Toeplitz
product and one FFT solve with T. Chan's circulant preconditioner, batched
over both vectors.  One solve per grid gives both the bracket P(hit 0) <=
rho <= 1 - P(hit '-'), whose long-double ends are shifted down until they
check as sub-solutions by the same FFT product, under an a-priori bound on
its rounding, and, by one
Sherman-Morrison step on the vectors as solved, the amalgamated
estimate (n-1 merged with '*'), Richardson-extrapolated in 1/n.  The leading
constant of the graphic sequence count is Gamma(3/4) / (4 pi sqrt(2 (1 - rho))).

The simple +/-1 walk admits the same treatment without the flat-step term:
g_s(x, y) = x y^2 / (4 (1 - g_s(x, x y))); its excursion-area law feeds the
same chain to produce the bridge-persistence constant of the simple walk.
The law itself has one producer, a first-passage dynamic program over
(height, spent area) in Fractions or long doubles (`area_pmf`); the
generating function is kept as its independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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
    """The hitting-probability solve did not reach the residual target."""


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

    p: np.ndarray  # index 0 unused; Fractions in an object array, or long doubles
    kind: str

    @property
    def K(self) -> int:
        return len(self.p) - 1

    @property
    def exact(self) -> bool:
        return self.p.dtype == object


def _area_pmf_dp(K: int, kind: str, exact: bool) -> np.ndarray:
    """First-passage DP: probability the excursion spends exactly i of area.

    States are (height >= 1, area spent); every transition adds the new
    height, so the area strictly increases and a single pass in area order
    suffices.  The first up-step carries the excursion's positivity weight.
    A cell (t, g) gets all its mass from area t - g, by an up, a flat and a
    down step in that order, so area t pulls its heights g = 1..G, G =
    min(hmax, t - 1), at once, summing in the same order as pushing them would.
    In the flattened window, rows of width W = hmax + 2 whose columns 0 and
    hmax + 1 stay zero, the three sources of g = 1..G are slices with stride
    -(W - 1).  Area t reads areas t - hmax .. t - 1 only, so the window holds
    2 (hmax + 1) areas and, when full, slides the last hmax + 1 back to the
    front.  Exact runs hold Fractions in object arrays.
    """
    up, flat, down = (v if exact else _long(v) for v in _step_law(kind))
    hmax = int(math.isqrt(2 * K)) + 2
    width, rows, keep = hmax + 2, 2 * (hmax + 1), hmax + 1
    zero = Fraction(0) if exact else LONG(0.0)
    window = np.full(rows * width, zero, dtype=object if exact else LONG)
    out = np.full(K + 1, zero, dtype=window.dtype)
    window[width + 1] = up  # area 1 sits in row 1, height 1
    out[1] = up * down
    base, stride = 0, 1 - width  # area t sits in row t - base
    for t in range(2, K + 1):
        if t - base == rows:  # from here on g = hmax, so each row is overwritten whole
            window[: keep * width] = window[(rows - keep) * width :]
            base += rows - keep
        row = (t - base) * width + 1
        g = min(hmax, t - 1)
        src = row - width - 1  # area t - 1, height 0: the up source of g = 1
        end = src + g * stride
        cell = window[src:end:stride] * up
        if flat:
            cell += window[src + 1 : end + 1 : stride] * flat
        cell += window[src + 2 : end + 2 : stride] * down
        window[row : row + g] = cell
        out[t] = cell[0] * down
    return out


def area_pmf(K: int, kind: str = "lazy", *, exact: bool = False) -> AreaPmf:
    """Excursion-area weights p[1..K] by the first-passage DP.

    In 80-bit long doubles, or with `exact` in Fractions.  The exact weights
    equal `series_g(K, kind).area_weights()`, which the tests and `verify`
    check; the generating function's cost grows far faster in K, so it
    serves only as that oracle.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    return AreaPmf(_area_pmf_dp(K, kind, exact), kind)


# ---------------------------------------------------------------------------
# the absorbing chain


def _pmf_arrays(pmf: AreaPmf, exact: bool = False):
    """(p, zero_mass, sign_mass) of a pmf; p[0] is unused.

    Long doubles, each exact weight rounded once, or with `exact` the
    Fractions of an exact pmf.
    """
    up, flat, _ = _step_law(pmf.kind)
    if exact:
        return pmf.p, flat, up
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
    """(T h)_i = sum over j != i of p[|i - j|] h_j, by one rfft and one irfft.

    A stack of vectors (rows of h) takes one batched rfft and irfft, each row
    bit for bit its own call's.
    """
    size = 2 * (len(spectrum) - 1)
    return np.fft.irfft(np.fft.rfft(h, size) * spectrum, size)[..., : h.shape[-1]]


def _product_error(spectrum, p, h):
    """delta >= max|_toeplitz_product(spectrum, g) - T g| for every g with |g| <= |h|.

    The product is F^-1 (F c . F g), F the unnormalised DFT of length N = 2^t
    (`size`), c the circulant's first column and g zero-padded.  Higham,
    Accuracy and Stability of Numerical Algorithms (2002), Thm 24.2: a radix-2
    FFT whose twiddles each lie within mu of their exact values computes F x
    within eps_t ||F x||_2 = eps_t sqrt(N) ||x||_2 in the 2-norm, eps_t = t eta
    / (1 - t eta), eta = mu + gamma_4 (sqrt 2 + mu), gamma_k = k u / (1 - k u);
    so does the inverse, whose 1/N is exact.  A complex product rounds by at
    most sqrt 2 gamma_2 (Lemma 3.5).  With |F g| <= ||g||_1 and |F c| <= ||c||_1
    componentwise, ||F^-1 v||_2 = ||v||_2 / sqrt N and ||c * g||_2 <= ||c||_1
    ||g||_2, the errors of F g, of the products and of the inverse add up to
    (2 eps_t + sqrt 2 gamma_2) ||c||_1 ||g||_2, and that of F c to eps_t ||g||_1
    ||c||_2, to first order; the largest error is at most the 2-norm.  We
    assume mu <= 8u: numpy's long-double pocketfft forms each twiddle from two
    long-double sin/cos table entries, about 4u.  A safety factor of 2 covers
    the second-order terms and pocketfft's radix-4 real passes, which are not
    Higham's radix-2 butterflies.  With u = 2^-64, at m = 1023 and g = 1 delta
    is 2.2e-15 for the lazy kernel, where the product measures within 4e-19 of
    the direct one.
    """
    u = np.finfo(LONG).eps / 2
    t = (len(spectrum) - 1).bit_length()  # N = 2 (len - 1) = 2^t
    mu, gamma_2, gamma_4 = 8 * u, 2 * u / (1 - 2 * u), 4 * u / (1 - 4 * u)
    eta = mu + gamma_4 * (math.sqrt(2) + mu)
    eps_t = t * eta / (1 - t * eta)
    kernel = p[1 : len(h)]  # c holds each p[k], 0 < k < m, twice
    c_1, c_2 = 2 * np.sum(kernel), np.sqrt(2 * np.dot(kernel, kernel))
    h_1, h_2 = np.sum(np.abs(h)), np.sqrt(np.dot(h, h))
    return 2 * ((2 * eps_t + math.sqrt(2) * gamma_2) * c_1 * h_2 + eps_t * h_1 * c_2)


def _direct_product(p, h):
    """(T h)_i = sum over j != i of p[|i - j|] h_j, by one direct convolution a row.

    The kernel p[m-1..1], 0, p[1..m-1] is 2m - 1 long, so the m "valid"
    outputs are exactly (T h)_0 .. (T h)_{m-1}, each one full dot product.
    """
    m = h.shape[-1]
    kernel = np.concatenate((p[m - 1 : 0 : -1], np.zeros(1, dtype=p.dtype), p[1:m]))
    return np.apply_along_axis(np.convolve, -1, h, kernel, "valid")


def _chan_spectrum(p, m: int, diag):
    """Eigenvalues of T. Chan's circulant preconditioner P = diag I - C(T).

    C(T) is the circulant nearest T in the Frobenius norm, first column c_k =
    ((m - k) p[k] + k p[m - k]) / m, so its eigenvalues are rfft(c), real since
    c_k = c_{m-k}.  Each is at least diag - sum(c) = diag - 2 sum_j (m - j) p[j]
    / m > diag - 2 sum_j p[j] > 0 (diag = 2 sign), so P is positive definite.
    """
    k = np.arange(1, m)
    c = np.zeros(m, dtype=LONG)
    c[1:] = ((m - k) * p[1:m] + k * p[m - 1 : 0 : -1]) / m
    return diag - np.fft.rfft(c).real


def _circulant_solve(spectrum, r):
    """P^-1 r for the circulant P with these eigenvalues, by one rfft and one irfft."""
    return np.fft.irfft(np.fft.rfft(r) / spectrum, r.shape[-1])


def _row_dots(a, b):
    """np.dot of each row pair: the order of a 1-D dot, which einsum does not keep."""
    return np.array([np.dot(x, y) for x, y in zip(a, b)])


def _cg_solve(product, rhs, diag, precondition=None):
    """Conjugate gradients for A h = rhs, A = diag I - T; returns (h, products of T).

    A is symmetric and diagonally dominant, so positive definite.  `precondition`,
    if given, applies the inverse of a positive definite P to a residual (PCG);
    its work is not counted.  Over Fractions CG runs unpreconditioned and stops on an
    exactly zero residual, which it reaches within len(rhs) steps.  In long doubles it
    stops once max|rhs - A h| / diag, the size of a Jacobi step, is below
    DEFAULT_SWEEP_TOL; with T. Chan's preconditioner its recursive residual stays
    within 1e-17 of rhs - A h, by the direct product, up to n = 16384.

    The rows of a 2-D rhs are solved in lockstep: each step makes one product and
    one preconditioner solve for the stack of rows still running, dots are taken
    row by row and a row stops on its own criterion, so each row's vector and
    count are bit for bit those of its own solve; the counts come as an array.
    """
    tol = 0 if rhs.dtype == object else DEFAULT_SWEEP_TOL  # over Fractions only r = 0 stops
    r = np.atleast_2d(rhs)
    h, out, counts = np.zeros_like(r), np.zeros_like(r), np.zeros(len(r), dtype=int)
    live = np.arange(len(r))  # the rows of rhs still running
    d = z = r if precondition is None else precondition(r)
    rz = _row_dots(r, z)
    for products in range(MAX_SWEEPS):
        going = np.array([row.any() and np.max(np.abs(row)) >= tol * diag for row in r])
        if not going.all():
            out[live[~going]], counts[live[~going]] = h[~going], products
            live, h, r, d, rz = live[going], h[going], r[going], d[going], rz[going]
            if not live.size:
                return (out, counts) if rhs.ndim == 2 else (out[0], int(counts[0]))
        ad = diag * d - product(d)
        alpha = (rz / _row_dots(d, ad))[:, None]
        h, r = h + alpha * d, r - alpha * ad
        z = r if precondition is None else precondition(r)
        rz, rz_old = _row_dots(r, z), rz
        d = z + (rz / rz_old)[:, None] * d
    raise ChainConvergenceError(f"no convergence to {DEFAULT_SWEEP_TOL} within "
                                f"{MAX_SWEEPS} products (n = {rhs.shape[-1] + 1})")


def _sub_solution(h, p, rhs, diag, spectrum=None):
    """h shifted down and clamped at 0 until it checks as h <= F(h), else 0.

    F(h) = (rhs + T h) / diag, T h by the FFT product on `spectrum` (built from p
    if not given), whose error is at most delta (`_product_error`) for h and for
    every trial below it.  A trial passes if F(trial) exceeds it by gamma F(trial)
    + delta / diag componentwise, gamma = 4 eps covering the rounding of the sum,
    the quotient and the test; then it passes for every product within delta of
    the computed one, the exact T trial among them.  F is monotone and
    contracting, so a sub-solution lies below its fixed point, and 0 is one.  A
    shift by s adds s escape / diag to F(h) - h (escape = diag - T 1, the row
    sums of A), so the trials are shifts by 1, 2, 4 and 8 times (max|F(h) - h| +
    gamma max F(h) + delta / diag) diag / min(escape).
    """
    m = len(h)
    if spectrum is None:
        spectrum = _toeplitz_spectrum(p, m)
    gamma = 4 * np.finfo(LONG).eps
    margin = _product_error(spectrum, p, h) / diag
    cum = np.concatenate((np.zeros(1, dtype=LONG), np.cumsum(p[1:m])))
    escape = diag - cum - cum[::-1]
    f = (rhs + _toeplitz_product(spectrum, h)) / diag
    step = (np.max(np.abs(f - h)) + gamma * np.max(f) + margin) * diag / np.min(escape)
    for trial in (np.maximum(h - step * k, 0) for k in (1, 2, 4, 8)):
        f = (rhs + _toeplitz_product(spectrum, trial)) / diag
        if np.all(f - trial >= gamma * f + margin):
            return trial
    return np.zeros_like(h)


def chain_hitting_iterative(n: int, pmf: AreaPmf) -> dict:
    """Hitting probabilities of 0, '-' and '*' from i = 1..n-1 by conjugate gradients.

    The transient system (I - Q) h = b is A = diag I - T, T Toeplitz: from i the walk
    stays put with the flat mass and moves to j with p[|i - j|].  An exact pmf on a grid
    n <= EXACT_CHAIN_LIMIT is solved over Fractions, each product direct, so the vectors
    are the exact solution; otherwise in long doubles, each product one FFT with the
    circulant that embeds T, whose rfft is returned as "spectrum" (None over Fractions),
    preconditioned by T. Chan's circulant (`_chan_spectrum`).  One lockstep solve gives
    "zero" and "minus"; "star" is 1 - zero - minus, since the row sums are A 1 = b_zero +
    b_minus + b_star (diag = 2 sign) and absorption is certain.  "sweeps" counts products
    of T for both vectors, not the preconditioner's FFTs.  The long-double vectors are as
    CG leaves them; `rho_bounds` shifts and checks the bracket ends.
    """
    _check_grid(n, pmf)
    exact = pmf.exact and n <= EXACT_CHAIN_LIMIT
    p, zero_mass, sign = _pmf_arrays(pmf, exact)
    diag = 1 - zero_mass
    if exact:
        spectrum, product, precondition = None, partial(_direct_product, p), None
    else:
        spectrum = _toeplitz_spectrum(p, n - 1)
        product = partial(_toeplitz_product, spectrum)
        precondition = partial(_circulant_solve, _chan_spectrum(p, n - 1, diag))
    b_minus = _landing_masses(n, p, sign)[0][1:]
    (zero, minus), sweeps = _cg_solve(product, np.stack((p[1:n], b_minus)), diag, precondition)
    return {"zero": zero, "minus": minus, "star": 1 - zero - minus,
            "sweeps": int(sweeps.sum()), "spectrum": spectrum}


@dataclass
class RhoEstimate:
    """One grid's rigorous bracket lower <= rho <= upper and its amalgamated estimate."""

    lower: object
    upper: object
    estimate: object  # the amalgamated chain's value; NOT a bound
    mode: str  # "exact-rational" | "iterative"
    n: int
    kind: str
    sweeps: int = 0  # products of T in a long-double solve; 0 for an exact one

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError("lower bound exceeds upper bound")


def _rounded(x, toward: float) -> float:
    """A long double as a float, rounded toward -inf or +inf when inexact."""
    out = float(x)
    if (out > x) if toward < 0 else (out < x):
        out = float(np.nextafter(out, toward))
    return out


def rho_bounds(n: int, pmf: AreaPmf) -> RhoEstimate:
    """One solve on grid n: bounds P(hit 0) <= rho <= 1 - P(hit '-') and an estimate.

    Positive tail mass is routed to '*' and negative tail mass to '-', which
    can only widen the bracket, never invalidate it.  Exact pmfs on small
    grids give Fractions.  The iterative path takes both ends from CG vectors
    shifted down until they pass the FFT sub-solution check, shaves each
    sum by its rounding bound and rounds outward to float, so the bracket
    holds for the chain the pmf values define.

    The estimate merges state n-1 with '*': that takes b_star off column n-1
    of A, so one Sherman-Morrison step maps the solved "zero" and "star" to the
    merged hit-zero vector.  It is sound only if the hit-zero probability
    decreases in the start state, which is unproven, so it is no bound.
    """
    h = chain_hitting_iterative(n, pmf)
    exact = h["zero"].dtype == object  # the solver chose Fractions
    p, zero_mass, sign = _pmf_arrays(pmf, exact)
    zero, minus, star = h["zero"], h["minus"], h["star"]
    b_minus, b_star = _landing_masses(n, p, sign)
    merged = zero + star * (zero[-1] / (1 - star[-1]))
    estimate = zero_mass + np.dot(p[1:n], merged) + b_star[0] * merged[-1]
    if not exact:
        ends = ((zero, p[1:n]), (minus, b_minus[1:]))
        zero, minus = (_sub_solution(v, p, b, 1 - zero_mass, h["spectrum"]) for v, b in ends)
    lower = zero_mass + np.dot(p[1:n], zero)
    to_minus = sign + np.dot(p[1:n], minus)
    if exact:
        return RhoEstimate(lower, 1 - to_minus, estimate, "exact-rational", n, pmf.kind)
    shave = 1 - (n + 1) * np.finfo(LONG).eps  # rounding of a sum of n terms
    return RhoEstimate(
        _rounded(lower * shave, -math.inf), _rounded(1 - to_minus * shave, math.inf),
        float(estimate), "iterative", n, pmf.kind, h["sweeps"],
    )


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
    return [(n, float(Fraction(g - h, 4**n)) * n**2.5)
            for n, (g, h) in enumerate(zip(g_counts, h_counts), 1)]
